"""Per-layer replay and output checks.

The replay takes the runs an untraced pass produced and re-executes each by
calling the library's layers in order, timing every call from this file:

    columnar_view -> Heuristic.kernel_policy -> simulate | simulate_batched_outcomes
        -> check_schedule -> omim_makespan -> evaluate

``columnar_view`` runs first for runs on the columnar or batched engine, so
packing is charged to ``simulator.pack_s`` and not to the order built on top
of the packed columns.  The kernel is called as ``simulate(instance,
policy)`` -- the body of ``Heuristic.simulate`` -- so the order is built
once.  OMIM is computed once per sweep job, or once per call for
``solve()`` and served requests, as the entry points do.  Nothing inside
the library is instrumented.

Every replayed run is also checked: its makespan must equal the pass's
makespan bit for bit, its schedule must pass ``check_schedule`` and its
makespan may not be below OMIM.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass, field

from repro.core.instance import Instance
from repro.core.metrics import evaluate
from repro.core.validation import InfeasibleScheduleError, check_schedule
from repro.flowshop.johnson import johnson_order, omim_makespan
from repro.heuristics.corrected import CorrectedHeuristic
from repro.heuristics.dynamic import DynamicHeuristic
from repro.simulator import CriterionPolicy, simulate
from repro.simulator._reference import (
    ReferenceCorrectedOrderPolicy,
    reference_execute_fixed_order,
    reference_execute_with_policy,
)
from repro.simulator.batched import simulate_batched_outcomes
from repro.simulator.columnar import COLUMNAR_AUTO_THRESHOLD, columnar_view
from repro.simulator.engine import InfeasibleOrderError

#: Relative float slack for "makespan >= OMIM": the bound comes from a
#: separate Johnson schedule, so an optimal run can land one ulp below it.
OMIM_RTOL = 1e-12

#: Seconds per layer, in the order the profile view lists them.
LAYER_SECONDS = (
    "heuristics.order_s",
    "simulator.pack_s",
    "simulator.kernel_object_s",
    "simulator.kernel_columnar_s",
    "simulator.kernel_batched_s",
    "core.validate_s",
    "flowshop.omim_s",
    "core.metrics_s",
    "api.backends.pickle_s",
    "serve.encode_s",
)

#: Engine -> (kernel seconds, row count) metric names.
_KERNEL_METRICS = {
    "object": ("simulator.kernel_object_s", "simulator.object_rows"),
    "columnar": ("simulator.kernel_columnar_s", "simulator.columnar_rows"),
    "batched": ("simulator.kernel_batched_s", "simulator.batched_rows"),
}


@dataclass
class Run:
    """One run of a timed pass: a sweep row, a solve call or a request."""

    source: str  # trace label or instance name
    solver: str
    capacity: float
    engine: str  # the entry point's engine column; "" when it reports none
    traced: bool  # the entry point read the metrics from an event trace
    makespan: float
    omim: float
    hit: bool = False  # served from the result cache
    schedule: object = None  # schedule the entry point returned, if any

    @property
    def ratio(self) -> float:
        return self.makespan / self.omim


@dataclass
class Group:
    """Runs sharing one OMIM reference: one sweep job, one call or request.

    ``base`` is the instance OMIM is computed on; ``instances`` maps a
    capacity to the instance its runs share; ``solvers`` maps a name to the
    solver object the entry point would have resolved.  ``omim_per_run`` is
    set when the entry point computes OMIM on every call (``solve()``, and
    so every served request) instead of once per sweep job.
    """

    base: Instance
    instances: dict
    runs: list
    solvers: dict
    omim_per_run: bool = False


@dataclass
class Replay:
    seconds: dict = field(default_factory=lambda: defaultdict(float))
    counts: dict = field(default_factory=lambda: defaultdict(int))
    gauges: dict = field(default_factory=dict)  # values read, not summed
    failures: list = field(default_factory=list)  # (run index, message)
    checked: int = 0

    def timed(self, layer: str, fn, *args, **kwargs):
        started = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.seconds[layer] += time.perf_counter() - started

    @property
    def layer_sum(self) -> float:
        return sum(self.seconds[name] for name in LAYER_SECONDS)


def _packs(run: Run, instance: Instance) -> bool:
    if run.engine in ("columnar", "batched"):
        return True
    return run.engine == "" and len(instance) >= COLUMNAR_AUTO_THRESHOLD


def _check(replay: Replay, index: int, run: Run, schedule, instance: Instance) -> None:
    replay.checked += 1
    if schedule.makespan != run.makespan:
        replay.failures.append(
            (index, f"replayed makespan {schedule.makespan!r} != reported {run.makespan!r}")
        )
    try:
        replay.timed("core.validate_s", check_schedule, schedule, instance)
    except InfeasibleScheduleError as error:
        replay.failures.append((index, f"check_schedule failed: {error}"))
    if run.makespan < run.omim * (1.0 - OMIM_RTOL):
        replay.failures.append((index, f"makespan {run.makespan!r} below OMIM {run.omim!r}"))


def replay_groups(groups: list[Group], *, metrics: bool = True) -> Replay:
    """Re-execute every run of ``groups`` layer by layer and check it.

    With ``metrics=False`` the replay stops after ``check_schedule`` (the
    cheap verification pass of an untraced run); the layer times are then
    partial and only the checks count.
    """
    replay = Replay()
    index = 0
    for group in groups:
        for _ in range(len(group.runs) if group.omim_per_run else 1):
            omim = replay.timed("flowshop.omim_s", omim_makespan, group.base)
        outcomes: list = [None] * len(group.runs)
        # Batched rows ran as one plane per group; replay them the same way.
        lanes, plane = [], []
        for position, run in enumerate(group.runs):
            if run.engine != "batched":
                continue
            instance = group.instances[run.capacity]
            replay.timed("simulator.pack_s", columnar_view, instance)
            policy = replay.timed(
                "heuristics.order_s", group.solvers[run.solver].kernel_policy, instance
            )
            lanes.append(position)
            plane.append((instance, policy))
        if plane:
            results = replay.timed(
                "simulator.kernel_batched_s", simulate_batched_outcomes, plane
            )
            replay.counts["simulator.batched_rows"] += len(plane)
            for position, result in zip(lanes, results):
                outcomes[position] = result
        by_key = {}
        for position, run in enumerate(group.runs):
            instance = group.instances[run.capacity]
            if run.hit:
                continue  # a cache hit re-uses the schedule of its miss
            if outcomes[position] is None:
                if _packs(run, instance):
                    replay.timed("simulator.pack_s", columnar_view, instance)
                policy = replay.timed(
                    "heuristics.order_s", group.solvers[run.solver].kernel_policy, instance
                )
                started = time.perf_counter()
                try:
                    result = simulate(instance, policy, record=run.traced)
                except InfeasibleOrderError as error:
                    outcomes[position] = error
                    continue
                seconds, rows = _KERNEL_METRICS[result.engine]
                replay.seconds[seconds] += time.perf_counter() - started
                replay.counts[rows] += 1
                outcomes[position] = result
            by_key[(run.capacity, run.solver)] = outcomes[position]
        for position, run in enumerate(group.runs):
            result = outcomes[position] or by_key.get((run.capacity, run.solver))
            if result is None:
                replay.failures.append((index + position, "cache hit without a replayed miss"))
                continue
            if isinstance(result, BaseException):
                replay.failures.append((index + position, f"kernel raised {result!r}"))
                continue
            instance = group.instances[run.capacity]
            if result.stats is not None and not run.hit:
                replay.counts["simulator.events"] += result.stats.events
            if omim != run.omim:
                replay.failures.append(
                    (index + position, f"replayed OMIM {omim!r} != reported {run.omim!r}")
                )
            _check(replay, index + position, run, result.schedule, instance)
            if run.schedule is not None and run.schedule != result.schedule:
                replay.failures.append(
                    (index + position, "returned schedule differs from the replayed one")
                )
            if metrics:
                trace = result.trace if run.traced else None
                measured = replay.timed(
                    "core.metrics_s",
                    evaluate,
                    result.schedule,
                    instance,
                    heuristic=run.solver,
                    reference=omim,
                    trace=trace,
                )
                if trace is None:
                    replay.counts["core.metrics_untraced_rows"] += 1
                if measured.makespan != run.makespan:
                    replay.failures.append(
                        (index + position, "evaluate() makespan differs from the reported one")
                    )
        index += len(group.runs)
    return replay


def reference_schedule(solver, instance: Instance):
    """The schedule the frozen seed executors give for ``solver``."""
    if isinstance(solver, DynamicHeuristic):
        policy = CriterionPolicy(criterion=type(solver).criterion, name=solver.name)
        return reference_execute_with_policy(instance, policy)
    if isinstance(solver, CorrectedHeuristic):
        order = [task.name for task in johnson_order(instance.tasks)]
        policy = ReferenceCorrectedOrderPolicy(
            order=order, criterion=type(solver).criterion, name=solver.name
        )
        return reference_execute_with_policy(instance, policy)
    return reference_execute_fixed_order(instance, solver.order(instance))


def reference_failures(group: Group, positions) -> list[str]:
    """Compare the chosen runs of ``group`` against the seed executors."""
    failures = []
    for position in positions:
        run = group.runs[position]
        instance = group.instances[run.capacity]
        expected = reference_schedule(group.solvers[run.solver], instance).makespan
        if expected != run.makespan:
            failures.append(
                f"{run.source} {run.solver} @ {run.capacity!r}: "
                f"reference makespan {expected!r} != {run.makespan!r}"
            )
    return failures
