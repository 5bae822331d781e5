"""One timeline sweep for overlap, idle time and peak memory.

``Schedule`` and the kernel's ``EventTrace`` both derive these metrics from
``busy_and_overlap`` and ``memory_steps``.  The tests pin the sweep against
the frozen quadratic overlap scan, check that the schedule path and the trace
path agree, and cover machines with several links or processing units, where
``makespan - sum(busy)`` would count overlapping units twice.
"""

import math
import time
from dataclasses import replace

import pytest

from repro import solve
from repro.core import Schedule, evaluate
from repro.core.schedule import busy_and_overlap, memory_steps
from repro.simulator import MachineModel, PoissonArrivals
from repro.simulator._reference import reference_overlap_time
from repro.traces import synthetic_trace

LAZY_METRICS = ("peak_memory", "overlap_time", "communication_idle", "computation_idle")

REGIMES = ("balanced", "compute-heavy", "communication-heavy", "mixed-intensity")
SOLVERS = ("OS", "OOSIM", "LCMR", "OOLCMR", "DOCCS")
VARIANTS = {
    "paper machine": {},
    "batch_size": {"batch_size": 16},
    "arrivals": {"arrivals": PoissonArrivals(load=1.3), "arrival_seed": 1},
    "cpu_count=2": {"machine": MachineModel(cpu_count=2)},
    "link_count=3": {"machine": MachineModel(link_count=3)},
    "batch_size, link_count=3": {"batch_size": 16, "machine": MachineModel(link_count=3)},
}


def _union_length(intervals):
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def _lazy(metrics):
    return tuple(getattr(metrics, name) for name in LAZY_METRICS)


class TestSweepFunctions:
    def test_empty_timelines(self):
        assert busy_and_overlap([], []) == (0.0, 0.0, 0.0)
        assert memory_steps([]) == []

    def test_parallel_intervals_count_once(self):
        comm = [(0.0, 4.0), (1.0, 3.0), (5.0, 6.0)]
        comp = [(2.0, 5.5)]
        assert busy_and_overlap(comm, comp) == (5.0, 3.5, 2.5)

    def test_zero_length_intervals_are_never_busy(self):
        assert busy_and_overlap([(1.0, 1.0)], [(1.0, 2.0)]) == (0.0, 1.0, 0.0)

    def test_one_ulp_segment_reads_its_rounded_midpoint(self):
        # 0.5 * (left + right) rounds up to right here, so the segment
        # [left, right) takes the state at right, as the frozen scan does.
        left = math.nextafter(1.0, 2.0)
        right = math.nextafter(left, 2.0)
        assert 0.5 * (left + right) == right
        both = (right - left) + (2.0 - right)
        assert busy_and_overlap([(right, 3.0)], [(left, 2.0)]) == (both + 1.0, both, both)


@pytest.mark.parametrize(
    "regime, machine",
    [
        ("compute-heavy", MachineModel(cpu_count=2)),
        ("mixed-intensity", MachineModel(link_count=3)),
    ],
    ids=["cpu_count=2", "link_count=3"],
)
def test_parallel_unit_idle_time(regime, machine):
    instance = synthetic_trace(regime, tasks=60, seed=3).to_instance_with_factor(3.0)
    plain = solve(instance, "OOSIM", machine=machine)
    traced = solve(instance, "OOSIM", machine=machine, record_events=True)
    assert _lazy(plain.metrics) == _lazy(traced.metrics)
    schedule = plain.schedule
    comm_union = _union_length((e.comm_start, e.comm_end) for e in schedule)
    comp_union = _union_length((e.comp_start, e.comp_end) for e in schedule)
    for idle, union in (
        (plain.metrics.communication_idle, comm_union),
        (plain.metrics.computation_idle, comp_union),
    ):
        assert idle >= 0
        assert idle == pytest.approx(schedule.makespan - union, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("regime", REGIMES)
def test_schedule_and_trace_paths_agree(regime):
    """Overlap matches the frozen scan bit for bit, and the schedule, the
    event trace and a columnar run report the same floats."""
    for seed in (1, 2):
        trace = synthetic_trace(regime, tasks=60, seed=seed)
        for factor in (1.0, 2.0):
            instance = trace.to_instance_with_factor(factor)
            for solver in SOLVERS:
                for variant, options in VARIANTS.items():
                    label = (regime, seed, factor, solver, variant)
                    traced = solve(instance, solver, record_events=True, **options)
                    schedule = traced.schedule
                    assert schedule.overlap_time() == reference_overlap_time(schedule), label
                    with_trace = evaluate(schedule, instance, trace=traced.trace)
                    values = _lazy(evaluate(schedule, instance))
                    assert _lazy(with_trace) == values == _lazy(traced.metrics), label
                    events = traced.trace
                    assert events.makespan == schedule.makespan, label
                    assert (
                        events.peak_memory(),
                        events.overlap_time(),
                        events.idle_time("communication"),
                        events.idle_time("computation"),
                    ) == values, label
                    if variant in ("paper machine", "batch_size"):
                        fast = solve(instance, solver, engine="columnar", **options)
                        assert fast.schedule == schedule, label
                        assert _lazy(fast.metrics) == values, label


def test_metrics_compare_on_measured_values():
    """The schedule a ScheduleMetrics reads from is not part of its equality,
    hash or repr."""
    instance = synthetic_trace("balanced", tasks=30, seed=1).to_instance_with_factor(1.5)
    metrics = solve(instance, "OOSIM").metrics
    other = replace(metrics, schedule=Schedule.empty())
    assert metrics == other and hash(metrics) == hash(other)
    assert "schedule" not in repr(metrics)


def test_solve_reads_every_metric_at_ten_thousand_tasks():
    """The public entry point stays near its kernel: the quadratic overlap
    scan took over a minute here."""
    instance = synthetic_trace("mixed-intensity", tasks=10_000, seed=1).to_instance_with_factor(
        1.5
    )
    started = time.perf_counter()
    result = solve(instance, "OOSIM")
    values = _lazy(result.metrics)
    elapsed = time.perf_counter() - started
    assert all(value >= 0 for value in values)
    assert result.metrics.overlap_time <= result.makespan
    assert elapsed < 10.0, f"solve() plus metrics took {elapsed:.1f}s at n=10^4"
