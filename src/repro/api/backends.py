"""Pluggable execution backends for the sweep engine.

The sweep engine (:mod:`repro.api.engine`) describes its work as a list of
self-contained, picklable :class:`~repro.api.engine.SweepJob` objects; a
*backend* decides where those jobs run:

* :class:`SerialBackend` — in the calling thread, one job at a time;
* :class:`ThreadBackend` — a ``ThreadPoolExecutor`` fan-out (cheap to start,
  but the pure-Python kernel is GIL-serialized, so wall-clock gains are
  limited to validation/IO slack);
* :class:`ProcessBackend` — a ``ProcessPoolExecutor`` fan-out for true
  multi-core sweeps.  Jobs are converted to their wire form first
  (:meth:`SweepJob.to_wire`), so workers rebuild solvers from their own
  registry and never unpickle live solver state.

Every backend returns the per-job record lists **in submission order** and
jobs are deterministic, so the merged :class:`~repro.api.results.ResultSet`
is byte-identical across backends, worker counts and chunk sizes —
differential-tested in ``tests/api/test_backends.py``.

Besides the all-at-once :meth:`run`, the built-in backends implement
:meth:`stream_chunks`: an incremental mode that pulls pre-chunked jobs from
an iterator (possibly lazily *generated* — the sweep engine feeds it
generator-backed trace jobs), keeps at most a bounded window of chunks in
flight, and yields each chunk's results **in submission order** as soon as
its predecessors have been yielded.  Peak memory is proportional to the
in-flight window, not the sweep size; the merged output stays byte-identical
to :meth:`run`.  ``stream_chunks`` is optional for third-party backends —
the engine falls back to :meth:`run` when it is absent.

Selection goes through :func:`resolve_backend`: an explicit backend (name or
instance) wins, then the ``REPRO_BACKEND`` environment variable, then the
historical default (threads when parallelism was requested, serial
otherwise).
"""

from __future__ import annotations

import math
import os
import pickle
import traceback
import warnings
from concurrent.futures import (
    FIRST_COMPLETED,
    Executor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterable, Iterator, Protocol, Sequence, runtime_checkable

from .. import obs
from .results import RunRecord

__all__ = [
    "BACKEND_ENV_VAR",
    "ExecutionBackend",
    "ProcessBackend",
    "SerialBackend",
    "StopSweep",
    "SweepJobError",
    "ThreadBackend",
    "auto_chunk_size",
    "guard_progress",
    "resolve_backend",
]

#: Environment variable overriding the backend choice for every sweep.
BACKEND_ENV_VAR = "REPRO_BACKEND"

#: Chunks per worker targeted by :func:`auto_chunk_size`: enough slack for
#: load-balancing across uneven traces, few enough to amortize the per-chunk
#: IPC (pickle + queue round-trip) over several jobs.
_CHUNKS_PER_WORKER = 4

ProgressCallback = Callable[[int, int], None]


class SweepJobError(RuntimeError):
    """One sweep job failed inside a worker.

    Carries the job label and the worker-side traceback as a single string,
    so it pickles losslessly across the process boundary instead of
    degrading into a bare ``BrokenProcessPool``.
    """


class StopSweep(Exception):
    """Deliberate sweep abort, raised from a progress callback.

    Progress callbacks are otherwise *guarded* — an exception inside one is
    caught and warned about instead of killing the sweep (see
    :func:`guard_progress`).  Raising ``StopSweep`` is the sanctioned escape
    hatch: it passes through the guard, every backend cancels its
    not-yet-started work, and the sweep raises ``StopSweep`` to the caller.
    The serving layer (:mod:`repro.serve`) uses this for deadline-exceeded
    sweep cancellation.
    """


def guard_progress(callback: ProgressCallback | None) -> ProgressCallback | None:
    """Wrap a user progress callback so its bugs cannot kill the sweep.

    The first exception raised by ``callback`` is converted into a
    ``RuntimeWarning`` naming the callback; later failures are silently
    dropped (one sweep should warn once, not once per job).
    :class:`StopSweep` is exempt — it is the deliberate cancellation signal
    and always propagates.
    """
    if callback is None:
        return None
    warned = False

    def report(completed: int, total: int) -> None:
        nonlocal warned
        try:
            callback(completed, total)
        except StopSweep:
            raise
        except Exception as error:
            if not warned:
                warned = True
                warnings.warn(
                    f"sweep progress callback {callback!r} raised "
                    f"{type(error).__name__}: {error}; the sweep continues and "
                    "further failures of this callback are suppressed "
                    "(raise repro.api.StopSweep to abort a sweep on purpose)",
                    RuntimeWarning,
                    stacklevel=2,
                )

    return report


@runtime_checkable
class ExecutionBackend(Protocol):
    """Where sweep jobs run.  Implementations must preserve submission order."""

    name: str

    def run(
        self,
        jobs: Sequence,
        *,
        chunk_size: int | None = None,
        on_progress: ProgressCallback | None = None,
    ) -> list[list[RunRecord]]:
        """Execute every job; returns one record list per job, in job order."""
        ...


def auto_chunk_size(job_count: int, workers: int) -> int:
    """Default shard size: aim for ``_CHUNKS_PER_WORKER`` chunks per worker."""
    if job_count <= 0:
        return 1
    return max(1, math.ceil(job_count / (max(workers, 1) * _CHUNKS_PER_WORKER)))


def _chunked(jobs: Sequence, size: int) -> list[list]:
    return [list(jobs[start : start + size]) for start in range(0, len(jobs), size)]


def _run_chunk(jobs: Sequence) -> list[list[RunRecord]]:
    """Run one shard of jobs in-process; failures propagate unwrapped.

    The serial and thread backends use this directly, so a failing job
    raises its *original* exception — same type, same object — exactly as
    the pre-backend thread pool did.
    """
    return [job.run() for job in jobs]


def _run_chunk_wrapped(jobs: Sequence) -> list[list[RunRecord]]:
    """Process-worker entry point: failures become picklable SweepJobErrors.

    Arbitrary exceptions may not survive the trip back through the result
    queue (unpicklable state degrades into an opaque pool teardown), so the
    worker re-raises them as a :class:`SweepJobError` naming the job and
    carrying the worker-side traceback as text.
    """
    results: list[list[RunRecord]] = []
    for job in jobs:
        try:
            results.append(job.run())
        except SweepJobError:
            raise
        except Exception as error:
            raise SweepJobError(
                f"sweep job {job.label!r} failed: {type(error).__name__}: {error}\n"
                f"{traceback.format_exc()}"
            ) from None
    return results


class _ObsEnvelope:
    """Chunk results plus the worker's observability payload, on one wire.

    When a sweep is traced, process-backend workers wrap each chunk's record
    lists together with the spans and metric deltas recorded while running it
    (:func:`repro.obs.worker_payload`); the parent unwraps the envelope and
    merges the payload into its own tracer/registry (:func:`_absorb_obs`), so
    the exported trace carries pid/tid-tagged spans from every worker.
    """

    __slots__ = ("records", "payload")

    def __init__(self, records: list, payload: dict) -> None:
        self.records = records
        self.payload = payload


def _run_chunk_traced(jobs: Sequence) -> "_ObsEnvelope":
    """Traced process-worker entry point: results + obs payload.

    Enables tracing in the worker (spawn-started workers do not inherit the
    parent's flag) and snapshots the span/metrics position first, so
    fork-started workers — which inherit the parent's buffered spans and
    counter totals — ship only what this chunk actually recorded.
    """
    obs.enable()
    baseline = obs.worker_baseline()
    started = obs.now()
    records = _run_chunk_wrapped(jobs)
    obs.record_span("sweep.chunk.run", started, obs.now(), jobs=len(jobs))
    return _ObsEnvelope(records, obs.worker_payload(baseline))


def _process_runner() -> Callable[[Sequence], object]:
    """Worker entry point for the process backend under the current tracing state."""
    return _run_chunk_traced if obs.is_enabled() else _run_chunk_wrapped


def _absorb_obs(result):
    """Unwrap a worker result, merging any shipped obs payload locally."""
    if isinstance(result, _ObsEnvelope):
        obs.absorb_payload(result.payload)
        return result.records
    return result


def _checked_chunk_size(chunk_size: int | None) -> int | None:
    if chunk_size is not None and chunk_size < 1:
        raise ValueError(f"chunk_size must be at least 1, got {chunk_size!r}")
    return chunk_size


def _effective_workers(n_jobs: int | None, job_count: int | None) -> int:
    from .engine import default_jobs  # lazy: engine imports us

    if n_jobs is None or n_jobs in (0, -1):
        return default_jobs(job_count)
    if job_count is None:  # lazy job planes: no count to cap against
        return max(1, int(n_jobs))
    return max(1, min(int(n_jobs), max(job_count, 1)))


def _run_pool(
    pool: Executor,
    chunks: list[list],
    job_count: int,
    on_progress: ProgressCallback | None,
    runner: Callable[[Sequence], list[list[RunRecord]]] = _run_chunk,
) -> list[list[list[RunRecord]]]:
    """Submit every chunk, report progress as chunks finish, keep order."""
    traced = obs.is_enabled()
    futures = {}
    submitted_at = {}
    for index, chunk in enumerate(chunks):
        if traced:
            submitted_at[index] = obs.now()
        futures[pool.submit(runner, chunk)] = index
    results: list[list[list[RunRecord]] | None] = [None] * len(chunks)
    done = 0
    pending = set(futures)
    try:
        while pending:
            finished, pending = wait(pending, return_when=FIRST_COMPLETED)
            for future in finished:
                index = futures[future]
                results[index] = _absorb_obs(future.result())
                if traced:
                    obs.record_span(
                        "sweep.chunk",
                        submitted_at[index],
                        obs.now(),
                        chunk=index,
                        jobs=len(chunks[index]),
                    )
                done += len(chunks[index])
                if on_progress is not None:
                    on_progress(done, job_count)
    except BaseException:
        # First failure wins: drop every not-yet-started chunk so the error
        # reaches the caller without burning through the rest of the sweep.
        for future in pending:
            future.cancel()
        raise
    return results  # type: ignore[return-value]  (every slot was filled)


#: A chunk handed to ``stream_chunks``: an opaque tag plus the chunk's jobs.
TaggedChunk = "tuple[object, list]"

#: Chunk-completion callback for ``stream_chunks``: ``(tag, job_count)``,
#: fired when a chunk *finishes* (possibly out of submission order).
ChunkCallback = Callable[[object, int], None]


def _stream_serial(
    chunks: Iterable,
    runner: Callable[[Sequence], list[list[RunRecord]]],
    on_chunk: ChunkCallback | None,
) -> Iterator:
    """One chunk at a time in the calling thread — the streaming reference."""
    for tag, chunk in chunks:
        with obs.span("sweep.chunk", jobs=len(chunk)):
            records = _absorb_obs(runner(chunk))
        if on_chunk is not None:
            on_chunk(tag, len(chunk))
        yield tag, records


def _stream_pool(
    pool: Executor,
    chunks: Iterable,
    runner: Callable[[Sequence], list[list[RunRecord]]],
    on_chunk: ChunkCallback | None,
    max_pending: int,
) -> Iterator:
    """Pipeline chunks through ``pool`` with a bounded in-flight window.

    At most ``max_pending`` chunks are submitted-but-not-yet-yielded at any
    moment (running futures plus the reorder buffer holding out-of-order
    completions), so a lazily generated job plane is materialised only
    ``max_pending`` chunks at a time.  Results are yielded strictly in
    submission order; the first failure cancels every not-yet-started chunk.
    """
    traced = obs.is_enabled()
    chunk_iter = iter(chunks)
    futures: dict = {}  # future -> (sequence number, tag, job count, submit time)
    buffer: dict = {}  # sequence number -> (tag, records)
    submitted = 0
    next_emit = 0
    exhausted = False
    try:
        while True:
            while not exhausted and len(futures) + len(buffer) < max_pending:
                try:
                    tag, chunk = next(chunk_iter)
                except StopIteration:
                    exhausted = True
                    break
                started = obs.now() if traced else 0.0
                futures[pool.submit(runner, chunk)] = (submitted, tag, len(chunk), started)
                submitted += 1
            if next_emit in buffer:
                yield buffer.pop(next_emit)
                next_emit += 1
                continue
            if futures:
                finished, _ = wait(set(futures), return_when=FIRST_COMPLETED)
                for future in finished:
                    sequence, tag, count, started = futures.pop(future)
                    buffer[sequence] = (tag, _absorb_obs(future.result()))
                    if traced:
                        obs.record_span(
                            "sweep.chunk", started, obs.now(), chunk=sequence, jobs=count
                        )
                    if on_chunk is not None:
                        on_chunk(tag, count)
                continue
            if exhausted:
                # No futures left, nothing emittable buffered: all done
                # (buffered sequences are contiguous once futures drain).
                return
    except BaseException:
        # Covers job failures, StopSweep raised from on_chunk, and the
        # consumer closing the generator early (GeneratorExit): drop every
        # not-yet-started chunk so nothing keeps burning workers.
        for future in futures:
            future.cancel()
        raise


class SerialBackend:
    """Run jobs one after another in the calling thread (the reference)."""

    name = "serial"

    def run(self, jobs, *, chunk_size=None, on_progress=None):
        _checked_chunk_size(chunk_size)  # same contract as the pool backends
        results = []
        for index, job in enumerate(jobs):
            results.append(job.run())
            if on_progress is not None:
                on_progress(index + 1, len(jobs))
        return results

    def stream_chunks(self, chunks, *, on_chunk=None, max_pending=None):
        """Yield ``(tag, records)`` per chunk, pulling chunks lazily."""
        return _stream_serial(chunks, _run_chunk, on_chunk)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "SerialBackend()"


class ThreadBackend:
    """Fan chunks of jobs over a thread pool (the pre-backend behaviour)."""

    name = "threads"

    def __init__(self, n_jobs: int | None = None) -> None:
        self.n_jobs = n_jobs

    def run(self, jobs, *, chunk_size=None, on_progress=None):
        chunk_size = _checked_chunk_size(chunk_size)
        workers = _effective_workers(self.n_jobs, len(jobs))
        if workers <= 1 or len(jobs) <= 1:
            return SerialBackend().run(jobs, on_progress=on_progress)
        size = chunk_size if chunk_size is not None else auto_chunk_size(len(jobs), workers)
        chunks = _chunked(jobs, size)
        with ThreadPoolExecutor(max_workers=min(workers, len(chunks))) as pool:
            per_chunk = _run_pool(pool, chunks, len(jobs), on_progress)
        return [records for chunk in per_chunk for records in chunk]

    def stream_chunks(self, chunks, *, on_chunk=None, max_pending=None):
        """Bounded-window streaming over the thread pool (ordered yields)."""
        workers = _effective_workers(self.n_jobs, None)
        if workers <= 1:
            yield from _stream_serial(chunks, _run_chunk, on_chunk)
            return
        if max_pending is None:
            max_pending = workers * _CHUNKS_PER_WORKER
        with ThreadPoolExecutor(max_workers=workers) as pool:
            yield from _stream_pool(pool, chunks, _run_chunk, on_chunk, max_pending)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ThreadBackend(n_jobs={self.n_jobs!r})"


def _process_worker_init() -> None:
    """Per-worker warm-up: load the registry, tame nested parallelism.

    ``REPRO_NUM_JOBS`` is defaulted (not forced) to 1 so a thread-racing
    ``PortfolioSolver`` inside a process-backend sweep does not multiply the
    already-saturated worker count; exporting the variable in the parent
    still wins, because children inherit the environment.
    """
    from .engine import NUM_JOBS_ENV_VAR  # lazy: engine imports us
    from .registry import warm_registry

    os.environ.setdefault(NUM_JOBS_ENV_VAR, "1")
    # Fork-started workers inherit the parent's exit-time trace export
    # registration; cancel it so worker exits never clobber the trace file.
    obs.disable_autoexport()
    warm_registry()


def _wire_probe():
    """Trial-pickle gate probing one wire job per *distinct payload type*.

    Sweep jobs share their solver specs and sweep-wide options, so pickle
    failures are a property of the payload family: probing the first
    ``Trace`` job does nothing for an unpicklable ``Instance`` subclass
    later in the plane, which used to detonate mid-pool as an opaque
    error.  One probe per payload type keeps the early clear ``TypeError``
    without serializing every payload twice.
    """
    probed: set[type] = set()

    def probe(wire_job, job) -> None:
        kind = type(getattr(wire_job, "payload", wire_job))
        if kind in probed:
            return
        probed.add(kind)
        try:
            pickle.dumps(wire_job)
        except Exception as error:
            raise TypeError(
                f"sweep job {job.label!r} cannot be pickled for the process "
                f"backend ({error}); use picklable solver parameters and "
                "payloads, or backend='threads'"
            ) from error

    return probe


class ProcessBackend:
    """Fan chunks of jobs over a process pool — true multi-core sweeps.

    Jobs are sent in wire form (solver specs by registered name + params);
    each worker warms its own registry once and rebuilds fresh solvers per
    job, so no solver instance, closure or lock ever crosses the boundary.
    """

    name = "processes"

    def __init__(self, n_jobs: int | None = None) -> None:
        self.n_jobs = n_jobs

    def run(self, jobs, *, chunk_size=None, on_progress=None):
        chunk_size = _checked_chunk_size(chunk_size)
        wire_jobs = [job.to_wire() for job in jobs]
        if not wire_jobs:
            return []
        # Trial pickles before the pool spins up: sweep jobs share their
        # solver specs, so probing one job per distinct payload type gives
        # a clear early error for every job that could fail — without
        # serializing each payload twice.
        probe = _wire_probe()
        for wire_job, job in zip(wire_jobs, jobs):
            probe(wire_job, job)
        workers = _effective_workers(self.n_jobs, len(wire_jobs))
        size = chunk_size if chunk_size is not None else auto_chunk_size(len(wire_jobs), workers)
        chunks = _chunked(wire_jobs, size)
        if obs.is_enabled():
            for chunk in chunks:
                obs.REGISTRY.inc("sweep_ipc_bytes_shipped_total", len(pickle.dumps(chunk)))
        try:
            with ProcessPoolExecutor(
                max_workers=min(workers, len(chunks)), initializer=_process_worker_init
            ) as pool:
                per_chunk = _run_pool(
                    pool, chunks, len(wire_jobs), on_progress, runner=_process_runner()
                )
        except BrokenProcessPool as error:
            raise RuntimeError(
                "the process-backend worker pool died unexpectedly (a worker was "
                "killed — out-of-memory, a segfault in an extension, or an "
                "interpreter crash); re-run with backend='serial' to reproduce "
                "the failure in-process"
            ) from error
        return [records for chunk in per_chunk for records in chunk]

    def stream_chunks(self, chunks, *, on_chunk=None, max_pending=None):
        """Bounded-window streaming over a process pool (ordered yields).

        Each chunk is converted to wire form as it is pulled; one job per
        distinct payload type gets the same trial pickle as :meth:`run`, so
        an unpicklable payload anywhere in the stream fails with a clear
        TypeError instead of an opaque pool teardown.
        """
        workers = _effective_workers(self.n_jobs, None)
        if max_pending is None:
            max_pending = workers * _CHUNKS_PER_WORKER

        def wired(source):
            probe = _wire_probe()
            traced = obs.is_enabled()
            for tag, chunk in source:
                wire_chunk = [job.to_wire() for job in chunk]
                for wire_job, job in zip(wire_chunk, chunk):
                    probe(wire_job, job)
                if traced:
                    obs.REGISTRY.inc(
                        "sweep_ipc_bytes_shipped_total", len(pickle.dumps(wire_chunk))
                    )
                yield tag, wire_chunk

        try:
            with ProcessPoolExecutor(
                max_workers=workers, initializer=_process_worker_init
            ) as pool:
                yield from _stream_pool(
                    pool, wired(chunks), _process_runner(), on_chunk, max_pending
                )
        except BrokenProcessPool as error:
            raise RuntimeError(
                "the process-backend worker pool died unexpectedly (a worker was "
                "killed — out-of-memory, a segfault in an extension, or an "
                "interpreter crash); re-run with backend='serial' to reproduce "
                "the failure in-process"
            ) from error

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ProcessBackend(n_jobs={self.n_jobs!r})"


#: Accepted spellings per backend name.
_BACKEND_ALIASES: dict[str, type] = {
    "serial": SerialBackend,
    "sequential": SerialBackend,
    "threads": ThreadBackend,
    "thread": ThreadBackend,
    "threading": ThreadBackend,
    "processes": ProcessBackend,
    "process": ProcessBackend,
    "multiprocessing": ProcessBackend,
}


def resolve_backend(
    backend: "str | ExecutionBackend | None" = None,
    *,
    n_jobs: int | None = None,
) -> ExecutionBackend:
    """Pick the execution backend for a sweep.

    Precedence: an explicit ``backend`` (name or instance) wins, then the
    ``REPRO_BACKEND`` environment variable, then the historical default —
    threads when ``n_jobs`` requests parallelism, serial otherwise.
    ``n_jobs`` is forwarded to pool backends built here; an already-built
    backend instance keeps its own worker count.
    """
    if backend is None:
        backend = os.environ.get(BACKEND_ENV_VAR, "").strip() or None
    if backend is None:
        if n_jobs is None or n_jobs == 1:
            return SerialBackend()
        return ThreadBackend(n_jobs)
    if isinstance(backend, str):
        try:
            cls = _BACKEND_ALIASES[backend.lower()]
        except KeyError:
            raise ValueError(
                f"unknown execution backend {backend!r}; "
                f"choose from {sorted(set(_BACKEND_ALIASES))}"
            ) from None
        if cls is SerialBackend:
            return SerialBackend()
        return cls(n_jobs)
    if isinstance(backend, ExecutionBackend):
        return backend
    raise TypeError(
        f"backend must be a name or an ExecutionBackend, got {type(backend).__name__}"
    )
