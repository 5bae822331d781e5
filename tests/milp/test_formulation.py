"""Tests for the MILP formulation (Section 4.5)."""

import pytest

from repro.api import paper_lineup
from repro.core import Instance, Task, omim, tasks_from_pairs, validate_schedule
from repro.core.paper_instances import proposition1_instance, static_example_instance
from repro.flowshop import best_schedule_allowing_reordering
from repro.milp import solve_exact


class TestExactSolves:
    def test_optimal_on_table3_instance(self):
        instance = static_example_instance()  # 4 tasks, capacity 6
        result = solve_exact(instance, time_limit=60)
        assert result.optimal
        assert validate_schedule(result.schedule, instance).is_feasible
        # The best heuristic (DOCPS) reaches 14; the MILP must not be worse and
        # must stay above the area lower bound.
        assert result.makespan <= 14.0 + 1e-6
        assert result.makespan >= instance.resource_lower_bound - 1e-6

    def test_matches_free_order_optimum_on_proposition1(self):
        instance = proposition1_instance()  # 6 tasks, capacity 10
        result = solve_exact(instance, time_limit=120)
        assert result.optimal
        assert validate_schedule(result.schedule, instance).is_feasible
        _, free_optimum = best_schedule_allowing_reordering(instance)
        assert result.makespan == pytest.approx(free_optimum, abs=1e-6)

    def test_infinite_memory_matches_omim(self):
        instance = Instance(tasks_from_pairs([(3, 2), (1, 3), (4, 4)]))
        result = solve_exact(instance, time_limit=60)
        assert result.optimal
        assert result.makespan == pytest.approx(omim(instance), abs=1e-6)

    def test_never_beats_heuristics_lower_bound(self):
        instance = static_example_instance()
        result = solve_exact(instance, time_limit=60)
        best_heuristic = min(
            h.schedule(instance).makespan for h in paper_lineup()
        )
        assert result.makespan <= best_heuristic + 1e-6

    def test_empty_instance(self):
        result = solve_exact(Instance([], capacity=10))
        assert result.makespan == 0.0
        assert result.optimal


class TestMemoryConstraint:
    def test_tight_memory_forces_serialisation(self):
        # Two tasks of memory 5 with capacity 5: their memory intervals cannot
        # overlap, so the second transfer starts only after the first finishes
        # computing.
        tasks = [Task.from_times("A", 5, 5), Task.from_times("B", 5, 5)]
        tight = solve_exact(Instance(tasks, capacity=5), time_limit=30)
        relaxed = solve_exact(Instance(tasks, capacity=10), time_limit=30)
        assert tight.makespan == pytest.approx(20.0)
        assert relaxed.makespan == pytest.approx(15.0)

    def test_solution_respects_memory(self):
        instance = static_example_instance()
        result = solve_exact(instance, time_limit=60)
        assert result.schedule.peak_memory() <= instance.capacity + 1e-6
