"""Performance metrics used in the paper's evaluation.

The headline metric (Figures 7, 9–13) is the **ratio to optimal**

    r(H) = makespan(H) / OMIM

where OMIM is the optimal makespan without memory constraint.  The ratio is
always at least 1 for feasible schedules; values close to 1 indicate the
heuristic achieves (near-)maximal communication/computation overlap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

from .bounds import omim as _omim
from .instance import Instance
from .schedule import Schedule

if TYPE_CHECKING:  # pragma: no cover - typing only (core must not import simulator)
    from ..simulator.events import EventTrace

__all__ = [
    "ratio_to_optimal",
    "overlap_fraction",
    "idle_fractions",
    "ScheduleMetrics",
    "OnlineMetrics",
    "evaluate",
    "evaluate_online",
]


def ratio_to_optimal(schedule: Schedule, instance: Instance, *, reference: float | None = None) -> float:
    """Makespan of ``schedule`` divided by OMIM of ``instance``.

    ``reference`` short-circuits the OMIM computation when the caller already
    knows it (the experiment harness computes it once per instance).
    """
    ref = _omim(instance) if reference is None else reference
    makespan = schedule.makespan
    if ref == 0:
        return 1.0 if makespan == 0 else math.inf
    return makespan / ref


def overlap_fraction(schedule: Schedule) -> float:
    """Overlapped time divided by the makespan (0 = sequential, →1 = perfect)."""
    makespan = schedule.makespan
    if makespan == 0:
        return 0.0
    return schedule.overlap_time() / makespan


def idle_fractions(schedule: Schedule) -> tuple[float, float]:
    """``(communication idle fraction, computation idle fraction)`` of the makespan."""
    makespan = schedule.makespan
    if makespan == 0:
        return (0.0, 0.0)
    comm_covered, comp_covered, _ = schedule.coverage()
    return ((makespan - comm_covered) / makespan, (makespan - comp_covered) / makespan)


@dataclass(frozen=True, slots=True)
class OnlineMetrics:
    """Arrival-aware metrics of one schedule (streaming workloads).

    * *response time* of a task — completion (end of computation) minus its
      release date; the time the task spent in the system;
    * *stretch* — response time divided by the task's own ``comm + comp``
      (its minimal possible response time on an empty machine), the classic
      slowdown measure for online scheduling;
    * *queue length* — number of tasks that have arrived but not yet
      completed, averaged over ``[first release, last completion]`` and
      tracked at its peak.

    All three degenerate gracefully on offline instances (every release 0):
    response time becomes the completion time and stretch the completion
    time over the task's total work.
    """

    mean_response_time: float
    max_response_time: float
    mean_stretch: float
    max_stretch: float
    avg_queue_length: float
    max_queue_length: int


def evaluate_online(schedule: Schedule) -> OnlineMetrics:
    """Compute :class:`OnlineMetrics` from a schedule of release-dated tasks.

    Release dates are read off the scheduled tasks themselves
    (:attr:`~repro.core.task.Task.release`), so the schedule is
    self-contained; offline schedules (all releases 0) are accepted.
    """
    if not len(schedule):
        return OnlineMetrics(0.0, 0.0, 0.0, 0.0, 0.0, 0)
    responses: list[float] = []
    stretches: list[float] = []
    boundaries: list[tuple[float, int]] = []
    for entry in schedule:
        release = entry.task.release
        response = entry.comp_end - release
        responses.append(response)
        work = entry.task.comm + entry.task.comp
        stretches.append(response / work if work > 0 else 1.0)
        boundaries.append((release, +1))
        boundaries.append((entry.comp_end, -1))
    boundaries.sort()
    queue = 0
    peak = 0
    area = 0.0
    previous = boundaries[0][0]
    for time, delta in boundaries:
        area += queue * (time - previous)
        queue += delta
        peak = max(peak, queue)
        previous = time
    span = boundaries[-1][0] - boundaries[0][0]
    return OnlineMetrics(
        mean_response_time=sum(responses) / len(responses),
        max_response_time=max(responses),
        mean_stretch=sum(stretches) / len(stretches),
        max_stretch=max(stretches),
        avg_queue_length=area / span if span > 0 else float(peak),
        max_queue_length=peak,
    )


@dataclass(frozen=True)
class ScheduleMetrics:
    """All per-schedule metrics reported by the experiment harness.

    Makespan, OMIM and the ratio are set on construction.  Peak memory,
    overlap and idle times only explain the makespan, so they are derived
    from ``schedule`` when first read, at most once (one timeline sweep
    serves the overlap and both idle times).
    """

    heuristic: str
    instance: str
    capacity: float
    makespan: float
    omim: float
    ratio_to_optimal: float
    task_count: int
    schedule: Schedule = field(repr=False, compare=False)

    @cached_property
    def peak_memory(self) -> float:
        return self.schedule.peak_memory()

    @cached_property
    def _coverage(self) -> tuple[float, float, float]:
        return self.schedule.coverage()

    @property
    def overlap_time(self) -> float:
        return self._coverage[2]

    @property
    def communication_idle(self) -> float:
        return self.makespan - self._coverage[0]

    @property
    def computation_idle(self) -> float:
        return self.makespan - self._coverage[1]

    @property
    def overlap_fraction(self) -> float:
        if self.makespan == 0:
            return 0.0
        return self.overlap_time / self.makespan


def evaluate(
    schedule: Schedule,
    instance: Instance,
    *,
    heuristic: str = "",
    reference: float | None = None,
    trace: "EventTrace | None" = None,
) -> ScheduleMetrics:
    """Bundle every metric for one (heuristic, instance) run.

    Everything is read from ``schedule``; the peak-memory, overlap and idle
    metrics are computed on first access (see :class:`ScheduleMetrics`).
    ``trace`` is accepted for callers that hold the kernel's event trace and
    does not change any value: the trace's own views use the same timeline
    sweep as the schedule.
    """
    ref = _omim(instance) if reference is None else reference
    makespan = schedule.makespan
    return ScheduleMetrics(
        heuristic=heuristic,
        instance=instance.name,
        capacity=instance.capacity,
        makespan=makespan,
        omim=ref,
        ratio_to_optimal=(makespan / ref) if ref > 0 else (1.0 if makespan == 0 else math.inf),
        task_count=len(schedule),
        schedule=schedule,
    )
