"""Tests for the sweep runner and the aggregation layer."""

import pytest

from repro.api import Study, paper_lineup, run_solvers_on_instance
from repro.experiments import (
    best_variant_per_category,
    best_variant_series,
    group_by_capacity_and_heuristic,
    summaries_by_capacity,
)
from repro.traces import synthetic_trace


@pytest.fixture(scope="module")
def small_trace():
    return synthetic_trace("mixed-intensity", tasks=40, seed=11)


@pytest.fixture(scope="module")
def records(small_trace):
    return Study().traces(small_trace).capacities(1.0, 2.0).run().to_records()


class TestRunner:
    def test_run_on_instance_produces_one_record_per_heuristic(self, small_trace):
        instance = small_trace.to_instance_with_factor(1.5)
        records = run_solvers_on_instance(instance, paper_lineup(), capacity_factor=1.5)
        assert len(records) == 14
        assert {r.heuristic for r in records} == set(h.name for h in paper_lineup())
        assert all(r.ratio_to_optimal >= 1.0 - 1e-9 for r in records)
        assert all(r.capacity_factor == 1.5 for r in records)

    def test_sweep_covers_all_factors(self, records):
        assert {r.capacity_factor for r in records} == {1.0, 2.0}
        assert len(records) == 2 * 14

    def test_ratios_improve_with_capacity(self, records):
        by_heuristic = {}
        for record in records:
            by_heuristic.setdefault(record.heuristic, {})[record.capacity_factor] = (
                record.ratio_to_optimal
            )
        # On average the relaxed capacity is at least as good as the tight one.
        deltas = [values[1.0] - values[2.0] for values in by_heuristic.values()]
        assert sum(deltas) >= -1e-9

    def test_task_limit(self, small_trace):
        limited = Study().traces(small_trace).capacities(1.0).solvers("OS").task_limit(10).run()
        assert limited.to_records()[0].task_count == 10

    def test_batched_mode(self, small_trace):
        study = Study().traces(small_trace).capacities(1.5).solvers("OS", "OOSIM")
        plain = study.run().to_records()
        records = study.batched(15).run().to_records()
        # Batched execution is still validated against the memory constraint and
        # normalised by the same (full-trace) OMIM reference.
        assert len(records) == len(plain) == 2
        for batched, direct in zip(records, plain):
            assert batched.heuristic == direct.heuristic
            assert batched.omim == pytest.approx(direct.omim)
            assert batched.ratio_to_optimal >= 1.0 - 1e-9
        # The OS strategy schedules tasks in the same order either way, so
        # batching (which only adds barriers) cannot improve it.
        os_batched = next(r for r in records if r.heuristic == "OS")
        os_direct = next(r for r in plain if r.heuristic == "OS")
        assert os_batched.makespan + 1e-9 >= os_direct.makespan


class TestAggregation:
    def test_grouping(self, records):
        grouped = group_by_capacity_and_heuristic(records)
        assert set(grouped) == {1.0, 2.0}
        assert set(grouped[1.0]) == {r.heuristic for r in records}

    def test_summaries(self, records):
        summaries = summaries_by_capacity(records)
        for factor, by_heuristic in summaries.items():
            for summary in by_heuristic.values():
                assert summary.count == 1
                assert summary.minimum >= 1.0 - 1e-9

    def test_best_variant_per_category(self, records):
        picks = best_variant_per_category(records)
        for factor, chosen in picks.items():
            categories = [pick.category for pick in chosen]
            assert categories == ["submission", "static", "dynamic", "corrected"]
            for pick in chosen:
                assert pick.summary.median >= 1.0 - 1e-9

    def test_best_variant_series_structure(self, records):
        series = best_variant_series(records)
        assert set(series) == {"submission", "static", "dynamic", "corrected"}
        for points in series.values():
            xs = [x for x, _ in points]
            assert xs == sorted(xs)
            assert len(points) == 2
