"""Structured event traces emitted by the simulation kernel.

A :class:`EventTrace` is the kernel's journal of one run: transfer start/end,
computation start/end and memory acquire/release events in time order.  The
Gantt renderer and the event log read it; its idle, overlap and memory views
use the same timeline sweep as :class:`~repro.core.schedule.Schedule`
(:func:`~repro.core.schedule.busy_and_overlap` and
:func:`~repro.core.schedule.memory_steps`), so a trace and the schedule of
the same run report the same numbers.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator

from ..core.schedule import MemoryEvent, busy_and_overlap, memory_steps
from ..core.task import Task

__all__ = ["EventKind", "SimEvent", "EventTrace"]


class EventKind(str, Enum):
    """What happened at one instant of a kernel run."""

    TASK_ARRIVAL = "task_arrival"
    TRANSFER_START = "transfer_start"
    TRANSFER_END = "transfer_end"
    COMPUTE_START = "compute_start"
    COMPUTE_END = "compute_end"
    MEMORY_ACQUIRE = "memory_acquire"
    MEMORY_RELEASE = "memory_release"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Tie-break so that, at equal instants, completions precede the starts they
#: enable (and arrivals precede the decisions they feed) and the log reads
#: causally.
_KIND_RANK = {
    EventKind.TRANSFER_END: 0,
    EventKind.COMPUTE_END: 1,
    EventKind.MEMORY_RELEASE: 2,
    EventKind.TASK_ARRIVAL: 3,
    EventKind.MEMORY_ACQUIRE: 4,
    EventKind.TRANSFER_START: 5,
    EventKind.COMPUTE_START: 6,
}


@dataclass(frozen=True, slots=True)
class SimEvent:
    """One kernel event; ``amount`` is the memory delta for ``MEMORY_*`` kinds."""

    time: float
    kind: EventKind
    task: str
    amount: float = 0.0


class EventTrace:
    """Time-ordered journal of one kernel run.

    Derived views (interval lists, makespan, coverage, memory profile) are
    computed lazily and cached.
    """

    __slots__ = ("_events", "_journal", "_memory_profile", "_intervals", "_makespan")

    def __init__(self, events: Iterable[SimEvent]):
        # The events in the order the kernel emitted them: tasks in placement
        # order, the order of the schedule's entries.  Summing memory changes
        # in that order reproduces the schedule's profile float for float.
        self._journal = tuple(events)
        self._events = tuple(
            sorted(self._journal, key=lambda e: (e.time, _KIND_RANK[e.kind], e.task))
        )
        self._memory_profile: list[MemoryEvent] | None = None
        self._intervals: dict[EventKind, list[tuple[float, float, str]]] = {}
        self._makespan: float | None = None

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[SimEvent]:
        return iter(self._events)

    def __getitem__(self, index: int) -> SimEvent:
        return self._events[index]

    @property
    def events(self) -> tuple[SimEvent, ...]:
        return self._events

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EventTrace({len(self._events)} events, makespan={self.makespan:g})"

    def shifted(self, offset: float, tasks: Iterable[Task]) -> "EventTrace":
        """Trace translated in time by ``offset`` (batch chaining).

        As :meth:`~repro.core.schedule.Schedule.shifted` does, every start
        moves by ``offset`` and every end is recomputed as the moved start
        plus the task's duration (read from ``tasks``), so the shifted trace
        and the shifted schedule report the same times float for float.
        """
        if offset == 0.0:
            return self
        durations = {task.name: (task.comm, task.comp) for task in tasks}
        starts: dict[tuple[str, EventKind], float] = {}
        events = []
        for e in self._journal:
            if e.kind is EventKind.TRANSFER_END:
                time = starts[e.task, EventKind.TRANSFER_START] + durations[e.task][0]
            elif e.kind in (EventKind.COMPUTE_END, EventKind.MEMORY_RELEASE):
                time = starts[e.task, EventKind.COMPUTE_START] + durations[e.task][1]
            else:
                time = starts[e.task, e.kind] = e.time + offset
            events.append(SimEvent(time, e.kind, e.task, e.amount))
        return EventTrace(events)

    @classmethod
    def merged(cls, traces: Iterable["EventTrace"]) -> "EventTrace":
        """One trace holding every event of ``traces``, in the given order."""
        return cls(event for trace in traces for event in trace._journal)

    # ------------------------------------------------------------------ #
    # Resource timelines
    # ------------------------------------------------------------------ #
    @property
    def makespan(self) -> float:
        """Completion time of the last transfer or computation."""
        if self._makespan is None:
            self._makespan = max(
                (
                    e.time
                    for e in self._events
                    if e.kind in (EventKind.TRANSFER_END, EventKind.COMPUTE_END)
                ),
                default=0.0,
            )
        return self._makespan

    def _paired_intervals(
        self, start_kind: EventKind, end_kind: EventKind
    ) -> list[tuple[float, float, str]]:
        cached = self._intervals.get(start_kind)
        if cached is not None:
            return cached
        # Pair per task rather than by event order: a zero-length interval
        # sorts its end event before its own start event.
        starts: dict[str, float] = {}
        ends: dict[str, float] = {}
        order: list[str] = []
        for event in self._events:
            if event.kind is start_kind:
                starts[event.task] = event.time
                order.append(event.task)
            elif event.kind is end_kind:
                ends[event.task] = event.time
        intervals = [(starts[task], ends[task], task) for task in order]
        self._intervals[start_kind] = intervals
        return intervals

    def transfer_intervals(self) -> list[tuple[float, float, str]]:
        """``(start, end, task)`` for every transfer, in placement order."""
        return self._paired_intervals(EventKind.TRANSFER_START, EventKind.TRANSFER_END)

    def compute_intervals(self) -> list[tuple[float, float, str]]:
        """``(start, end, task)`` for every computation, in placement order."""
        return self._paired_intervals(EventKind.COMPUTE_START, EventKind.COMPUTE_END)

    def _coverage(self) -> tuple[float, float, float]:
        return busy_and_overlap(
            ((start, end) for start, end, _ in self.transfer_intervals()),
            ((start, end) for start, end, _ in self.compute_intervals()),
        )

    def idle_time(self, resource: str) -> float:
        """Total idle time of ``"communication"`` or ``"computation"`` within
        ``[0, makespan]``."""
        resources = ("communication", "computation")
        if resource not in resources:
            raise ValueError(f"unknown resource {resource!r}")
        return self.makespan - self._coverage()[resources.index(resource)]

    def overlap_time(self) -> float:
        """Total time during which the link and the processor are both busy."""
        return self._coverage()[2]

    # ------------------------------------------------------------------ #
    # Memory
    # ------------------------------------------------------------------ #
    def memory_profile(self) -> list[MemoryEvent]:
        """Piecewise-constant memory occupation (same shape as
        :meth:`~repro.core.schedule.Schedule.memory_profile`)."""
        if self._memory_profile is None:
            release = {e.task: e for e in self._journal if e.kind is EventKind.MEMORY_RELEASE}
            self._memory_profile = memory_steps(
                (event.time, event.amount)
                for acquired in self._journal
                if acquired.kind is EventKind.MEMORY_ACQUIRE
                for event in (acquired, release[acquired.task])
            )
        return self._memory_profile

    def peak_memory(self) -> float:
        """Largest simultaneous memory occupation over the whole run."""
        return max((event.usage for event in self.memory_profile()), default=0.0)

    def memory_usage_at(self, time: float) -> float:
        """Memory occupied at instant ``time`` (half-open step convention)."""
        profile = self.memory_profile()
        index = bisect.bisect_right([event.time for event in profile], time) - 1
        return profile[index].usage if index >= 0 else 0.0
