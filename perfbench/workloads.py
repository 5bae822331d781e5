"""The workloads: inputs, one timed pass, replay groups.

Every workload drives one public entry point of the library and nothing
else during its timed pass:

* ``paper-sweep``     -- serial ``Study().run()``: one HF and one CCSD trace
  x the 14-heuristic line-up x the paper's capacity range mc, 1.5 mc and
  2 mc (84 rows);
* ``synthetic-sweep`` -- ``Study().parallel(nproc, backend="processes")``
  over 4 mixed-intensity traces of 2000 tasks x 5 solvers x 2 factors;
* ``serve-burst``     -- a ``python -m repro serve`` daemon under a closed
  loop of ``nproc`` client threads, a quarter of the requests repeats.

A pass is short enough to be repeated a few times in one run, because the
run reports its best pass.  Single ``repro.solve()`` calls are measured
inside ``serve-burst``: the daemon answers every cache miss with one.
"""

from __future__ import annotations

import json
import os
import pickle
import random
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from repro import Instance, Study
from repro.api import SweepJob, get_solver, resolve_solvers
from repro.core.schedule import Schedule, ScheduledTask
from repro.experiments import PAPER_CAPACITY_FACTORS
from repro.serve.client import ServeClient, ServeError
from repro.serve.protocol import instance_from_wire, instance_to_wire, schedule_to_wire
from repro.traces.generator import synthetic_ensemble, synthetic_trace

from .measure import ROOT, child_env
from .replay import Group, Replay, Run, reference_failures

SYNTHETIC_SOLVERS = ("OOSIM", "IOCMS", "DOCCS", "LCMR", "OOLCMR")
SERVE_SOLVERS = ("OOSIM", "IOCMS", "LCMR", "OOLCMR")
#: One per category, checked against the frozen seed executors.
REFERENCE_SOLVERS = ("OOSIM", "LCMR", "OOLCMR")

#: The paper's capacity range, mc to 2 mc, in three steps: 8 static
#: heuristics x 3 capacities still fill the batched plane of each trace.
PAPER_FACTORS = PAPER_CAPACITY_FACTORS[::4]

#: The simulated chemistry run ``paper-sweep`` takes its traces from: the
#: library's default, as in the paper's figures.  It does not follow
#: ``--seed``, because the cost of a trace is bimodal: on about one HF trace
#: in six a GG row takes ten times longer, which doubles that trace's sweep.
#: A trace pair drawn per seed made the figures depend on the draw, not on
#: the code.  The other workloads draw their inputs from the seed.
PAPER_RUN_SEED = 2019

#: Input sizes.  ``smoke`` keeps every code path (batched plane, process
#: backend, columnar solve, daemon cache hits) at a size tests can afford.
SCALES = {
    "full": {
        "paper_chemistry": True,
        "synthetic_traces": 4,
        "synthetic_tasks": 2000,
        "serve_requests": 200,  # p95 of a pass has ten samples beyond it
        "serve_tasks": 400,
    },
    "smoke": {
        "paper_chemistry": False,
        "synthetic_traces": 2,
        "synthetic_tasks": 300,
        "serve_requests": 16,
        "serve_tasks": 300,
    },
}


@dataclass
class Pass:
    """What one timed pass produced."""

    runs: list
    wall_s: float
    latencies: list
    attempted: int
    errors: list = field(default_factory=list)  # runs that failed or were refused
    extra: dict = field(default_factory=dict)


def _nproc() -> int:
    return os.cpu_count() or 1


def _solver_map(*specs) -> dict:
    return {solver.name: solver for solver in resolve_solvers(*specs)}


def _fresh(instance: Instance) -> Instance:
    """A copy without the cached columnar view, as a caller would build it."""
    return Instance(instance.tasks, capacity=instance.capacity, name=instance.name)


class Workload:
    """One workload: inputs from a seed, a timed pass through its entry
    point, and the pass's runs grouped for the replay."""

    name = ""

    def workers(self, inputs: dict) -> int:
        """Processes the timed pass spreads its work over."""
        return 1

    def make_inputs(self, seed: int, scale: dict) -> dict:
        raise NotImplementedError

    def start(self, tmp: Path):
        """Bring up what the pass talks to; part of set-up time."""
        return None

    def stop(self, handle) -> list[str]:
        """Tear down ``start``'s handle; returns error messages."""
        return []

    def pass_inputs(self, inputs: dict, seed: int, scale: dict, index: int) -> dict:
        """Inputs of the ``index``-th pass, from a fresh copy of ``inputs``."""
        return inputs

    def rss_root(self, handle) -> int:
        return os.getpid()

    def run_pass(self, inputs: dict, handle) -> Pass:
        raise NotImplementedError

    def groups(self, inputs: dict, runs: list) -> list[Group]:
        raise NotImplementedError

    def sample(self, runs: list) -> list:
        """Runs an untraced run re-executes to check its outputs."""
        return runs

    def reference_failures(self, inputs: dict, runs: list) -> list[str]:
        return []

    def replay_extra(self, inputs: dict, passed: Pass, replay: Replay) -> None:
        """Workload-specific layers of the traced replay."""


# --------------------------------------------------------------------------- #
# Sweeps
# --------------------------------------------------------------------------- #
def _sweep_runs(results) -> list[Run]:
    return [
        Run(
            source=row.trace,
            solver=row.heuristic,
            capacity=row.capacity,
            engine=row.engine,
            # Kernel rows outside the batched plane record events, and the
            # sweep reads their metrics from the event trace.
            traced=row.engine == "object",
            makespan=row.makespan,
            omim=row.omim,
        )
        for row in results
    ]


class _Sweep(Workload):
    solver_specs: tuple = ()

    def study(self, inputs: dict) -> Study:
        study = Study().traces(*inputs["traces"]).capacities(*inputs["factors"])
        return study.solvers(*self.solver_specs) if self.solver_specs else study

    def run_pass(self, inputs: dict, handle) -> Pass:
        study = self.study(inputs)
        started = time.perf_counter()
        results = study.run()
        wall = time.perf_counter() - started
        runs = _sweep_runs(results)
        return Pass(runs, wall, [wall], len(runs), extra={"results": results})

    def groups(self, inputs: dict, runs: list) -> list[Group]:
        groups = []
        for trace in inputs["traces"]:
            mine = [run for run in runs if run.source == trace.label]
            if not mine:
                continue
            instances = {run.capacity: trace.to_instance(run.capacity) for run in mine}
            groups.append(
                Group(trace.to_instance(), instances, mine, _solver_map(*self.solver_specs))
            )
        return groups


class PaperSweep(_Sweep):
    name = "paper-sweep"

    def make_inputs(self, seed: int, scale: dict) -> dict:
        # ``seed`` is deliberately unused: see PAPER_RUN_SEED.
        if scale["paper_chemistry"]:
            from repro.chemistry import ccsd_ensemble, hf_ensemble

            traces = [
                hf_ensemble(processes=150, traces=1, seed=PAPER_RUN_SEED)[0],
                ccsd_ensemble(processes=150, traces=1, seed=PAPER_RUN_SEED)[0],
            ]
            return {"traces": traces, "factors": PAPER_FACTORS}
        traces = [
            synthetic_trace("homogeneous", tasks=280, seed=PAPER_RUN_SEED, process=0),
            synthetic_trace("heterogeneous", tasks=300, seed=PAPER_RUN_SEED, process=1),
        ]
        return {"traces": traces, "factors": (1.0, 1.5, 2.0)}

    def sample(self, runs: list) -> list:
        # Every row at the tightest and the loosest capacity of each trace.
        keep = []
        for source in dict.fromkeys(run.source for run in runs):
            capacities = [run.capacity for run in runs if run.source == source]
            ends = (min(capacities), max(capacities))
            keep.extend(run for run in runs if run.source == source and run.capacity in ends)
        return keep

    def reference_failures(self, inputs: dict, runs: list) -> list[str]:
        failures = []
        for group in self.groups(inputs, runs):
            tightest = min(run.capacity for run in group.runs)
            positions = [
                i
                for i, run in enumerate(group.runs)
                if run.capacity == tightest and run.solver in REFERENCE_SOLVERS
            ]
            if len(positions) != len(REFERENCE_SOLVERS):
                failures.append(f"{group.runs[0].source}: reference sample rows missing")
            failures.extend(reference_failures(group, positions))
        return failures


class SyntheticSweep(_Sweep):
    name = "synthetic-sweep"
    solver_specs = SYNTHETIC_SOLVERS

    def make_inputs(self, seed: int, scale: dict) -> dict:
        ensemble = synthetic_ensemble(
            "mixed-intensity",
            processes=scale["synthetic_traces"],
            tasks_per_process=scale["synthetic_tasks"],
            seed=seed,
        )
        return {"traces": list(ensemble), "factors": (1.0, 1.5)}

    def workers(self, inputs: dict) -> int:
        return min(_nproc(), len(inputs["traces"]))

    def study(self, inputs: dict) -> Study:
        return super().study(inputs).parallel(self.workers(inputs), backend="processes")

    def sample(self, runs: list) -> list:
        return runs[:: max(1, len(runs) // 10)]

    def replay_extra(self, inputs: dict, passed: Pass, replay: Replay) -> None:
        """Bytes and pickle time of the job plane, one job per trace.

        Mirrors what the process backend ships: the wire form of each
        ``SweepJob`` out and its ``RunRecord`` list back.
        """
        records = list(passed.extra["results"])
        wire_bytes = 0
        for trace in inputs["traces"]:
            job = SweepJob(
                payload=trace,
                solver_specs=self.solver_specs,
                capacity_factors=tuple(inputs["factors"]),
            )
            mine = [record for record in records if record.trace == trace.label]
            started = time.perf_counter()
            out = pickle.dumps([job.to_wire()], protocol=pickle.HIGHEST_PROTOCOL)
            back = pickle.dumps(mine, protocol=pickle.HIGHEST_PROTOCOL)
            pickle.loads(out)
            pickle.loads(back)
            replay.seconds["api.backends.pickle_s"] += time.perf_counter() - started
            wire_bytes += len(out) + len(back)
        replay.counts["api.backends.wire_bytes"] += wire_bytes


# --------------------------------------------------------------------------- #
# repro serve
# --------------------------------------------------------------------------- #
@dataclass
class Daemon:
    process: subprocess.Popen
    port: int


def _read_line(stream, timeout_s: float) -> str:
    """First line of ``stream`` or "" after ``timeout_s``."""
    box: list[str] = []
    reader = threading.Thread(target=lambda: box.append(stream.readline()), daemon=True)
    reader.start()
    reader.join(timeout_s)
    return box[0] if box else ""


def _wire_schedule(entries: list, instance: Instance) -> Schedule:
    """Rebuild a returned schedule; its end times must match the tasks."""
    tasks = {task.name: task for task in instance.tasks}
    schedule = Schedule(
        ScheduledTask(tasks[e["task"]], e["comm_start"], e["comp_start"]) for e in entries
    )
    for entry, wire in zip(schedule, entries):
        if entry.comm_end != wire["comm_end"] or entry.comp_end != wire["comp_end"]:
            raise ValueError(f"task {wire['task']!r}: end times disagree with its durations")
    return schedule


class ServeBurst(Workload):
    name = "serve-burst"

    def plan(self, seed: int, scale: dict, index: int) -> dict:
        """Requests of one pass: per client, every 4th repeats one of that
        client's earlier requests, so exactly a quarter can hit the cache."""
        clients = min(_nproc(), scale["serve_requests"])
        rng = random.Random(f"{seed}/{index}")
        plan, instances = [], {}
        for client in range(clients):
            mine: list = []
            for _ in range(client, scale["serve_requests"], clients):
                if len(mine) % 4 == 3:
                    mine.append(rng.choice([r for r in mine if r[2] is False])[:2] + (True,))
                    continue
                unique = len(instances)
                trace = synthetic_trace(
                    "mixed-intensity",
                    tasks=scale["serve_tasks"],
                    seed=seed,
                    process=index * 100_000 + unique,
                )
                instance = trace.to_instance(trace.min_capacity_bytes * 1.25)
                instances[instance.name] = instance
                mine.append((instance.name, SERVE_SOLVERS[unique % len(SERVE_SOLVERS)], False))
            plan.append(mine)
        wires = {name: instance_to_wire(instance) for name, instance in instances.items()}
        return {"clients": plan, "instances": instances, "wires": wires}

    def make_inputs(self, seed: int, scale: dict) -> dict:
        return self.plan(seed, scale, 0)

    def pass_inputs(self, inputs: dict, seed: int, scale: dict, index: int) -> dict:
        return inputs if index == 0 else self.plan(seed, scale, index)

    def start(self, tmp: Path) -> Daemon:
        cache_dir = Path(tmp) / f"cache-{time.monotonic_ns()}"
        cache_dir.mkdir(parents=True)
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", "--quiet",
             "--cache-dir", str(cache_dir)],
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            text=True,
        )
        line = _read_line(process.stdout, 60.0)
        if "listening on" not in line:
            process.kill()
            process.wait(30)
            raise RuntimeError(f"daemon did not start: {line!r}")
        port = int(line.rsplit(":", 1)[1].strip().rstrip("/"))
        client = ServeClient("127.0.0.1", port, timeout=10.0)
        deadline = time.monotonic() + 60.0
        while True:
            try:
                if client.healthz().get("status") == "ok":
                    break
            except OSError:
                pass
            if time.monotonic() > deadline:
                self.stop(Daemon(process, port))
                raise RuntimeError("daemon never answered /healthz")
            time.sleep(0.01)
        return Daemon(process, port)

    def stop(self, handle: Daemon) -> list[str]:
        """SIGTERM, wait for the drain and check the exit code."""
        errors = []
        handle.process.send_signal(signal.SIGTERM)
        try:
            code = handle.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            handle.process.kill()
            code = handle.process.wait(timeout=30)
            errors.append("daemon did not exit within 60 s of SIGTERM")
        handle.process.stdout.close()
        if code != 0:
            errors.append(f"daemon exited with code {code} after SIGTERM")
        return errors

    def rss_root(self, handle: Daemon) -> int:
        return handle.process.pid

    def run_pass(self, inputs: dict, handle: Daemon) -> Pass:
        client = ServeClient("127.0.0.1", handle.port, timeout=120.0)
        wires, instances = inputs["wires"], inputs["instances"]

        def loop(requests):
            done = []
            for name, solver, _repeat in requests:
                started = time.perf_counter()
                try:
                    body = client.solve(wires[name], solver=solver, include_schedule=True)
                except (ServeError, OSError) as error:
                    done.append((name, solver, None, repr(error)))
                    continue
                done.append((name, solver, body, time.perf_counter() - started))
            return done

        started = time.perf_counter()
        with ThreadPoolExecutor(max_workers=len(inputs["clients"])) as pool:
            futures = [pool.submit(loop, requests) for requests in inputs["clients"]]
            answered = [item for future in futures for item in future.result()]
        wall = time.perf_counter() - started
        runs, latencies, errors = [], [], []
        for name, solver, body, outcome in answered:
            if body is None:
                errors.append(f"{name} {solver}: {outcome}")
                continue
            latencies.append(outcome)
            try:
                schedule = _wire_schedule(body["schedule"], instances[name])
            except (KeyError, ValueError) as error:
                errors.append(f"{name} {solver}: bad schedule in response: {error}")
                continue
            runs.append(
                Run(
                    source=name,
                    solver=solver,
                    capacity=instances[name].capacity,
                    engine="",
                    traced=False,
                    makespan=body["makespan"],
                    omim=body["omim"],
                    hit=bool(body["cache"]["hit"]),
                    schedule=schedule,
                )
            )
        extra = {
            "metrics": client.metrics(),
            "metrics_text": client.metrics_text(),
            "bodies": [(name, body) for name, _, body, _ in answered if body is not None],
        }
        return Pass(runs, wall, latencies, len(answered), errors, extra)

    def groups(self, inputs: dict, runs: list) -> list[Group]:
        groups: dict[str, Group] = {}
        for run in sorted(runs, key=lambda run: run.hit):  # misses first
            group = groups.get(run.source)
            if group is None:
                instance = _fresh(inputs["instances"][run.source])
                group = groups[run.source] = Group(
                    instance,
                    {run.capacity: instance},
                    [],
                    {run.solver: get_solver(run.solver)},
                    omim_per_run=True,
                )
            group.runs.append(run)
        return list(groups.values())

    def replay_extra(self, inputs: dict, passed: Pass, replay: Replay) -> None:
        """Wire encoding on both sides, plus the server's own figures."""
        for name, body in passed.extra["bodies"]:
            started = time.perf_counter()
            request = json.dumps({"instance": instance_to_wire(inputs["instances"][name])})
            decoded = instance_from_wire(json.loads(request)["instance"])
            schedule = _wire_schedule(body["schedule"], decoded)
            json.loads(json.dumps({**body, "schedule": schedule_to_wire(schedule)}))
            replay.seconds["serve.encode_s"] += time.perf_counter() - started
        server = passed.extra["metrics"]
        gauges = server.get("gauges", {})
        replay.gauges["serve.server_p50_s"] = server["latency"]["solve"]["p50_s"]
        replay.gauges["serve.cache_hit_ratio"] = gauges.get("cache_hit_rate", 0.0)
        replay.gauges["serve.rejected"] = gauges.get("rejected_total", 0.0)
        for op in ("get", "put"):
            replay.gauges[f"serve.cache_{op}_p50_s"] = _prometheus_value(
                passed.extra["metrics_text"], f'repro_cache_{op}_latency_seconds{{quantile="0.5"}}'
            )


def _prometheus_value(text: str, series: str) -> float:
    for line in text.splitlines():
        if line.startswith(series + " "):
            return float(line.split()[-1])
    return 0.0


WORKLOADS = {w.name: w for w in (PaperSweep(), SyntheticSweep(), ServeBurst())}
