"""End-to-end benchmark of the repro library.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 24 --trace 0

Workloads: ``paper-sweep``, ``synthetic-sweep`` and ``serve-burst`` (see
``perfbench/workloads.py``).  Each run

1. sets up: a fresh interpreter imports ``repro`` and generates the inputs
   from ``--seed`` (``paper-sweep`` always uses the same traces) plus, for
   ``serve-burst``, a daemon answering ``/healthz``; several times when that
   is cheap, and ``setup_s`` is the median;
2. runs timed passes through the public entry point, tracing off, for
   ``--seconds`` (at least one pass), each on its own fresh copy
   of the inputs.  Throughput and latencies are those of the best pass: the
   host's speed drifts by tens of percent over seconds, and the fastest of
   a few repeated passes is far steadier from run to run than their mean.
   Peak memory is that of the first pass;
3. checks the outputs: ``--trace 0`` re-executes a fixed sample of the first
   pass's runs, ``--trace 1`` replays every run layer by layer and reports
   the per-layer seconds (``perfbench/replay.py``);
4. prints every metric with its unit, the profile view (``--trace 1``) and,
   as the last line, one JSON object ``{"correct", "attempted", "failed",
   "metrics"}``.

``--record FILE`` also writes the whole record (host, passes, layers,
failures) as JSON; ``perfbench/profile_view.py`` renders saved records.
The benchmark refuses to run when an environment variable that changes the
measured program is set (``measure.GUARDED_ENV``).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import pickle
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import measure  # noqa: E402

#: Set-up is repeated until this many samples, or this much time is spent.
SETUP_SAMPLES = 3
SETUP_BUDGET_S = 8.0
CHILD_TIMEOUT_S = 170.0


def _metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``kind`` metrics, in BENCHMARK.json's order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--record", type=Path, help="also write the full record here")
    parser.add_argument("--emit-inputs", type=Path, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _fail(message: str, code: int = 2) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def _import_library():
    """Import ``repro`` from this checkout's ``src``, never from elsewhere."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise ImportError(f"no repro sources under {ROOT / 'src'}")
    import repro

    origin = Path(repro.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise ImportError(f"repro imported from {origin}, outside this checkout")
    from perfbench import workloads

    return workloads


# --------------------------------------------------------------------------- #
# Set-up
# --------------------------------------------------------------------------- #
def _setup(args, workload, tmp: Path, samples_wanted: int):
    """Returns (setup samples, pickled inputs, handle, errors)."""
    samples, errors, handle = [], [], None
    path = tmp / "inputs.pickle"
    while True:
        if handle is not None:  # keep only the last sample's daemon
            errors.extend(workload.stop(handle))
        started = time.perf_counter()
        child = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--scale", args.scale, "--emit-inputs", str(path)],
            cwd=ROOT,
            env=measure.child_env(),
            timeout=CHILD_TIMEOUT_S,
        )
        if child.returncode != 0:
            raise RuntimeError(f"input generation exited with {child.returncode}")
        handle = workload.start(tmp)
        samples.append(time.perf_counter() - started)
        if len(samples) >= samples_wanted or sum(samples) >= SETUP_BUDGET_S:
            break
    blob = path.read_bytes()
    return samples, blob, handle, errors


# --------------------------------------------------------------------------- #
# One benchmark run
# --------------------------------------------------------------------------- #
def _measure(args, workloads, tmp: Path) -> dict:
    from perfbench.replay import LAYER_SECONDS, replay_groups

    workload = workloads.WORKLOADS[args.workload]
    scale = workloads.SCALES[args.scale]
    record: dict = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "scale": args.scale,
        "seconds": args.seconds,
        "host": measure.host_record(),
    }
    setup_samples, blob, handle, errors = _setup(
        args, workload, tmp, 1 if args.trace else SETUP_SAMPLES
    )
    inputs = pickle.loads(blob)
    record["setup_samples_s"] = setup_samples
    record["inputs_sha256"] = hashlib.sha256(blob).hexdigest()[:16]
    try:
        started = time.perf_counter()
        # Memory is taken over the first pass only: later passes would make
        # it depend on how many passes the host's speed allows (the daemon's
        # cache, for one, grows with every pass).
        with measure.PeakRss(workload.rss_root(handle)) as rss:
            passes = [workload.run_pass(workload.pass_inputs(inputs, args.seed, scale, 0), handle)]
        # Another pass starts only when it should end within --seconds, so a
        # run lasts about --seconds whatever the host's speed.
        while time.perf_counter() - started + passes[-1].wall_s <= args.seconds:
            fresh = workload.pass_inputs(pickle.loads(blob), args.seed, scale, len(passes))
            passes.append(workload.run_pass(fresh, handle))
        first = passes[0]
        if args.trace:
            replay_started = time.perf_counter()
            replay = replay_groups(workload.groups(inputs, first.runs))
            workload.replay_extra(inputs, first, replay)
            replay_wall = time.perf_counter() - replay_started
        else:
            replay = replay_groups(
                workload.groups(inputs, workload.sample(first.runs)), metrics=False
            )
        reference = workload.reference_failures(inputs, first.runs)
    finally:
        if handle is not None:
            errors.extend(workload.stop(handle))

    # Failures: errors and refusals in any pass, every run whose check
    # failed, every reference mismatch and a daemon that did not exit 0.
    failures = [e for p in passes for e in p.errors] + [m for _, m in replay.failures]
    failures += reference + errors
    failed_runs = sum(len(p.errors) for p in passes) + len({i for i, _ in replay.failures})
    failed_runs += len(reference) + len(errors)
    attempted = sum(p.attempted for p in passes)
    failed_runs = min(failed_runs, attempted)
    latencies = [x for p in passes for x in p.latencies]
    timed = [p for p in passes if p.latencies]  # passes with a completed run
    record.update(
        passes=[
            {"wall_s": p.wall_s, "runs": len(p.runs), "attempted": p.attempted,
             "errors": len(p.errors), "latencies_s": p.latencies}
            for p in passes
        ],
        latency_samples=len(latencies),
        checked_runs=replay.checked,
        attempted=attempted,
        failed=failed_runs,
        failures=failures[:20],
    )
    if args.trace:
        workers = workload.workers(inputs)
        unattributed = first.wall_s - replay.layer_sum / workers
        values = {
            **replay.seconds,
            **replay.counts,
            **replay.gauges,
            "unattributed_s": unattributed,
            "replay_wall_s": replay_wall,
            "timed_wall_s": first.wall_s,
        }
        metrics = {
            name: (values.get(name, 0), unit)
            for name, unit in _metric_units("per_layer").items()
        }
        record.update(
            layers={name: replay.seconds.get(name, 0.0) for name in LAYER_SECONDS},
            workers=workers,
            wall_s=first.wall_s,
            unattributed_s=unattributed,
        )
    else:
        values = {
            "setup_s": statistics.median(setup_samples),
            "runs_per_s": max((len(p.runs) / p.wall_s for p in timed), default=0.0),
            "run_p50_s": min((measure.percentile(p.latencies, 50) for p in timed),
                             default=math.nan),
            "run_p95_s": min((measure.percentile(p.latencies, 95) for p in timed),
                             default=math.nan),
            "peak_rss_mb": rss.peak_mb,
            "ok_frac": 1.0 - failed_runs / attempted,
            "mean_ratio_to_omim": statistics.fmean(run.ratio for run in first.runs),
        }
        metrics = {name: (values[name], unit) for name, unit in _metric_units("end_to_end").items()}
    record["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    record["correct"] = not failures
    return record


def _emit_inputs(args) -> int:
    workloads = _import_library()
    inputs = workloads.WORKLOADS[args.workload].make_inputs(
        args.seed, workloads.SCALES[args.scale]
    )
    args.emit_inputs.write_bytes(pickle.dumps(inputs, protocol=pickle.HIGHEST_PROTOCOL))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    guarded = measure.guarded_env_set()
    if guarded:
        return _fail(f"refusing to run: {', '.join(guarded)} set; it changes the "
                     "program being measured", 3)
    try:
        workloads = _import_library()
    except ImportError as error:
        return _fail(f"cannot import the library: {error}")
    if args.workload not in workloads.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    if args.emit_inputs is not None:
        return _emit_inputs(args)

    from perfbench.profile_view import render

    # A SIGTERM unwinds like an exception, so the daemon and the scratch
    # directory are still cleaned up by the ``finally`` blocks.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # Everything the run writes (inputs, the daemon's cache, temp files of
    # the library) stays inside the checkout and is removed afterwards.
    scratch = ROOT / ".perfbench"
    tmp = scratch / f"run-{time.time_ns()}"
    tmp.mkdir(parents=True)
    os.environ["TMPDIR"] = tempfile.tempdir = str(tmp)
    try:
        record = _measure(args, workloads, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()  # only when no other run is using it
    host = record["host"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"nproc={host['nproc']} python={host['python']} numpy={host['numpy']} "
          f"commit={host['commit'][:12]} src={host['source_sha256']}")
    for name, metric in record["metrics"].items():
        print(f"  {name:<32} {metric['value']:>14.6g} {metric['unit']}")
    print(f"  runs: {record['attempted']} attempted, {record['failed']} failed, "
          f"{record['checked_runs']} re-executed and checked, "
          f"{record['latency_samples']} latency samples")
    for failure in record["failures"]:
        print(f"  FAILED: {failure}")
    if args.trace:
        print(render(record))
    if args.record is not None:
        args.record.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
