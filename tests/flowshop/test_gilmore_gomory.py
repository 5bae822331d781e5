"""Tests for the Gilmore-Gomory no-wait sequencing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Task, tasks_from_pairs
from repro.flowshop import gilmore_gomory_order, held_karp_nowait_order, nowait_makespan


class TestStructure:
    def test_empty_and_singleton(self):
        assert gilmore_gomory_order([]).order == ()
        single = gilmore_gomory_order([Task.from_times("A", 2, 3)])
        assert [t.name for t in single.order] == ["A"]
        assert single.makespan == 5

    def test_order_contains_every_task_once(self):
        tasks = tasks_from_pairs([(3, 2), (1, 4), (5, 5), (2, 1), (4, 3)])
        result = gilmore_gomory_order(tasks)
        assert sorted(t.name for t in result.order) == sorted(t.name for t in tasks)

    def test_reported_makespan_matches_order(self):
        tasks = tasks_from_pairs([(3, 2), (1, 4), (5, 5), (2, 1), (4, 3)])
        result = gilmore_gomory_order(tasks)
        assert result.makespan == pytest.approx(nowait_makespan(result.order))

    def test_lower_bound_not_exceeding_makespan(self):
        tasks = tasks_from_pairs([(3, 2), (1, 4), (5, 5), (2, 1), (4, 3), (2, 2)])
        result = gilmore_gomory_order(tasks)
        total_comp = sum(t.comp for t in tasks)
        assert result.lower_bound == pytest.approx(
            result.assignment_cost + result.patching_cost + total_comp
        )
        assert result.lower_bound <= result.makespan + 1e-9


class TestOptimality:
    @pytest.mark.parametrize(
        "pairs",
        [
            [(3, 2), (1, 4), (5, 5), (2, 1)],
            [(1, 1), (2, 2), (3, 3), (4, 4)],
            [(4, 1), (1, 4), (3, 3), (2, 5), (5, 2)],
            [(10, 1), (1, 10), (5, 5), (2, 2), (8, 3), (3, 8)],
        ],
    )
    def test_matches_exact_solver_on_fixed_instances(self, pairs):
        tasks = tasks_from_pairs(pairs)
        result = gilmore_gomory_order(tasks)
        _, optimal = held_karp_nowait_order(tasks)
        assert result.makespan == pytest.approx(optimal, abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=12),
                st.integers(min_value=0, max_value=12),
            ),
            min_size=2,
            max_size=7,
        )
    )
    def test_matches_exact_solver_on_random_instances(self, pairs):
        tasks = tasks_from_pairs(pairs)
        result = gilmore_gomory_order(tasks)
        _, optimal = held_karp_nowait_order(tasks)
        assert result.makespan == pytest.approx(optimal, abs=1e-9)

    def test_larger_random_instance_close_to_lower_bound(self):
        rng = np.random.default_rng(3)
        pairs = [(float(a), float(b)) for a, b in rng.uniform(0, 10, size=(40, 2))]
        result = gilmore_gomory_order(tasks_from_pairs(pairs))
        assert result.makespan == pytest.approx(result.lower_bound, rel=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("size", [2, 10, 100, 1000])
    def test_classical_order_realises_the_lower_bound(self, seed, size):
        # The classical application order realises assignment + patching +
        # total computation time exactly: the optimal no-wait makespan.
        rng = np.random.default_rng(seed)
        pairs = [(float(a), float(b)) for a, b in rng.uniform(0, 10, size=(size, 2))]
        result = gilmore_gomory_order(tasks_from_pairs(pairs))
        assert result.makespan == pytest.approx(result.lower_bound, rel=1e-12)
