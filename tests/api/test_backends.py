"""Execution backends: job plane, wire specs, sharding, equivalence.

The central guarantee under test: the same ``Study`` produces a
byte-identical ``ResultSet`` (after a JSON round-trip) on every backend,
worker count and chunk size — serial is the reference, threads and
processes must match it exactly, including portfolio modes, arrivals and
batched runs.
"""

from __future__ import annotations

import pickle

import pytest

from repro.api import (
    NamedSpec,
    ProcessBackend,
    SerialBackend,
    Study,
    SweepJob,
    SweepJobError,
    ThreadBackend,
    named_spec,
    register_solver,
    resolve_backend,
    resolve_solvers,
    spec_to_wire,
    sweep_instances,
    unregister_solver,
    wire_to_spec,
)
from repro.api.backends import auto_chunk_size
from repro.api.engine import default_jobs
from repro.heuristics.dynamic import LargestCommunicationFirst
from repro.simulator.arrivals import PoissonArrivals
from repro.traces.generator import synthetic_ensemble, synthetic_trace
from repro.traces.model import Trace


@pytest.fixture(scope="module")
def ensemble():
    return synthetic_ensemble("mixed-intensity", processes=3, tasks_per_process=25, seed=11)


def small_study(ensemble) -> Study:
    return Study().traces(ensemble).capacities(1.0, 1.75).solvers("LCMR", "OS", "MAMR")


# --------------------------------------------------------------------- #
# default_jobs
# --------------------------------------------------------------------- #
class TestDefaultJobs:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_JOBS", "3")
        assert default_jobs() == 3

    def test_env_override_is_floored_at_one(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_JOBS", "0")
        assert default_jobs() == 1

    def test_bad_env_value_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_JOBS", "lots")
        with pytest.raises(ValueError, match="REPRO_NUM_JOBS"):
            default_jobs()

    def test_capped_at_job_count(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_JOBS", "64")
        assert default_jobs(5) == 5
        assert default_jobs(0) == 1

    def test_defaults_to_cpu_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_NUM_JOBS", raising=False)
        import os

        assert default_jobs() == max(os.cpu_count() or 1, 1)


# --------------------------------------------------------------------- #
# Backend selection
# --------------------------------------------------------------------- #
class TestResolveBackend:
    def test_default_is_serial_without_parallelism(self):
        assert isinstance(resolve_backend(None, n_jobs=None), SerialBackend)
        assert isinstance(resolve_backend(None, n_jobs=1), SerialBackend)

    def test_default_is_threads_with_parallelism(self):
        backend = resolve_backend(None, n_jobs=4)
        assert isinstance(backend, ThreadBackend)
        assert backend.n_jobs == 4

    def test_names_and_aliases(self):
        assert isinstance(resolve_backend("serial"), SerialBackend)
        assert isinstance(resolve_backend("Threads", n_jobs=2), ThreadBackend)
        assert isinstance(resolve_backend("processes", n_jobs=2), ProcessBackend)
        assert isinstance(resolve_backend("multiprocessing"), ProcessBackend)

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "processes")
        assert isinstance(resolve_backend(None, n_jobs=4), ProcessBackend)

    def test_explicit_backend_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "processes")
        assert isinstance(resolve_backend("serial"), SerialBackend)

    def test_instance_passthrough(self):
        backend = ThreadBackend(2)
        assert resolve_backend(backend) is backend

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown execution backend"):
            resolve_backend("gpu")

    def test_bad_type(self):
        with pytest.raises(TypeError):
            resolve_backend(42)


class TestAutoChunkSize:
    def test_covers_all_jobs(self):
        for jobs in (1, 3, 7, 100):
            for workers in (1, 2, 8):
                size = auto_chunk_size(jobs, workers)
                assert size >= 1
                assert size * workers * 4 >= jobs

    def test_empty(self):
        assert auto_chunk_size(0, 4) == 1


# --------------------------------------------------------------------- #
# Wire specs
# --------------------------------------------------------------------- #
class TestSpecWire:
    def test_name_and_category_round_trip(self):
        for spec in ("LCMR", "category:dynamic"):
            assert wire_to_spec(spec_to_wire(spec)) == spec

    def test_named_spec_round_trip(self):
        spec = named_spec("portfolio.race", members=("LCMR", "OOSIM"), prune=False)
        decoded = wire_to_spec(spec_to_wire(spec))
        assert decoded == spec
        solver = decoded()
        assert solver.name == "portfolio.race"

    def test_named_spec_is_picklable_and_resolvable(self):
        spec = pickle.loads(pickle.dumps(named_spec("portfolio.cached", inner="OS")))
        assert isinstance(spec, NamedSpec)
        (solver,) = resolve_solvers(spec)
        assert solver.name == "portfolio.cached"

    def test_registered_class_encodes_by_name(self):
        wire = spec_to_wire(LargestCommunicationFirst)
        assert wire == {"kind": "name", "name": "LCMR"}

    def test_solver_instance_is_rejected(self):
        with pytest.raises(TypeError, match="process boundary"):
            spec_to_wire(LargestCommunicationFirst())

    def test_opaque_factory_is_rejected(self):
        with pytest.raises(TypeError, match="named_spec"):
            spec_to_wire(lambda: LargestCommunicationFirst())

    def test_unregistered_class_is_rejected(self):
        class Unregistered(LargestCommunicationFirst):
            name = "NOT-REGISTERED"

        with pytest.raises(TypeError, match="not registered"):
            spec_to_wire(Unregistered)

    def test_bad_wire_rejected(self):
        with pytest.raises(ValueError):
            wire_to_spec({"kind": "martian", "name": "x"})
        with pytest.raises(ValueError):
            wire_to_spec("not a wire")


# --------------------------------------------------------------------- #
# Backend equivalence (the tentpole guarantee)
# --------------------------------------------------------------------- #
def run_on(study_builder, backend, n_jobs=2, chunk_size=None):
    return (
        study_builder()
        .parallel(n_jobs, backend=backend, chunk_size=chunk_size)
        .run()
        .to_json()
    )


class TestBackendEquivalence:
    def test_heuristic_sweep(self, ensemble):
        reference = small_study(ensemble).run().to_json()
        assert run_on(lambda: small_study(ensemble), "threads") == reference
        assert run_on(lambda: small_study(ensemble), "processes") == reference

    def test_chunking_does_not_change_results(self, ensemble):
        reference = small_study(ensemble).run().to_json()
        for chunk_size in (1, 2, 5):
            assert (
                run_on(lambda: small_study(ensemble), "threads", chunk_size=chunk_size)
                == reference
            )

    def test_portfolio_modes(self, ensemble, tmp_path):
        def build(tag):
            return (
                Study()
                .traces(ensemble)
                .capacities(1.25)
                .portfolio("race", members=("LCMR", "OOSIM", "MAMR"), prune=False)
                .portfolio("select")
                .portfolio("cached", inner="OS", directory=str(tmp_path / tag))
            )

        reference = build("serial").run().to_json()
        assert run_on(lambda: build("threads"), "threads") == reference
        assert run_on(lambda: build("processes"), "processes") == reference

    def test_arrival_sweep(self, ensemble):
        def build():
            return (
                Study()
                .traces(ensemble)
                .capacities(1.0, 1.5)
                .solvers("LCMR", "OS")
                .arrivals(PoissonArrivals(load=1.5), seed=3)
            )

        reference = build().run().to_json()
        assert run_on(build, "threads") == reference
        assert run_on(build, "processes") == reference

    def test_batched_runs(self, ensemble):
        def build():
            return (
                Study()
                .traces(ensemble)
                .capacities(1.25)
                .solvers("LCMR", "OS")
                .batched(10, pipelined=True)
            )

        reference = build().run().to_json()
        assert run_on(build, "threads") == reference
        assert run_on(build, "processes") == reference

    def test_instance_jobs(self, ensemble):
        instances = [trace.to_instance(trace.min_capacity_bytes * 1.5) for trace in ensemble]
        reference = sweep_instances(instances, solver_specs=("LCMR", "OS")).to_json()
        for backend in ("threads", "processes"):
            assert (
                sweep_instances(
                    instances, solver_specs=("LCMR", "OS"), n_jobs=2, backend=backend
                ).to_json()
                == reference
            )

    def test_env_backend_override_is_used(self, ensemble, monkeypatch):
        reference = small_study(ensemble).run().to_json()
        monkeypatch.setenv("REPRO_BACKEND", "processes")
        assert small_study(ensemble).parallel(2).run().to_json() == reference


# --------------------------------------------------------------------- #
# Progress reporting
# --------------------------------------------------------------------- #
class TestProgress:
    @pytest.mark.parametrize("backend", ["serial", "threads", "processes"])
    def test_progress_reaches_total(self, ensemble, backend):
        seen = []
        (
            small_study(ensemble)
            .parallel(2, backend=backend, chunk_size=1)
            .on_progress(lambda done, total: seen.append((done, total)))
            .run()
        )
        assert seen[-1] == (len(list(ensemble)), len(list(ensemble)))
        completed = [done for done, _ in seen]
        assert completed == sorted(completed)
        assert len(set(completed)) == len(completed)

    def test_on_progress_rejects_non_callable(self):
        with pytest.raises(TypeError):
            Study().on_progress("loud")

    def test_on_progress_none_clears(self, ensemble):
        study = small_study(ensemble).on_progress(lambda d, t: None).on_progress(None)
        assert study.run()


# --------------------------------------------------------------------- #
# Failure surfacing
# --------------------------------------------------------------------- #
class _CrashingSolver:
    name = "test.crash"
    category = "static"

    def schedule(self, instance):
        raise RuntimeError("intentional crash for backend tests")


class TestWorkerFailures:
    @pytest.fixture(autouse=True)
    def _crashing_solver(self):
        register_solver("test.crash", category="static", replace=True)(_CrashingSolver)
        yield
        unregister_solver("test.crash")

    @pytest.mark.parametrize("backend", ["processes"])
    def test_crash_in_worker_names_the_job(self, ensemble, backend):
        study = Study().traces(ensemble).capacities(1.25).solvers("test.crash")
        with pytest.raises(SweepJobError) as excinfo:
            study.parallel(2, backend=backend).run()
        message = str(excinfo.value)
        assert "sweep job" in message and "failed" in message
        assert "synthetic-mixed-intensity" in message

    @pytest.mark.parametrize("backend", ["serial", "threads"])
    def test_in_process_backends_propagate_the_original_exception(self, ensemble, backend):
        # In-process execution must keep raising the solver's own exception
        # (type and object), exactly like the pre-backend thread pool did;
        # only the process boundary needs the picklable wrapper.
        study = Study().traces(ensemble).capacities(1.25).solvers("test.crash")
        with pytest.raises(RuntimeError, match="intentional crash") as excinfo:
            study.parallel(2, backend=backend, chunk_size=1).run()
        assert not isinstance(excinfo.value, SweepJobError)

    def test_infeasible_capacity_in_worker_raises_sweep_job_error(self):
        # Capacity factor 0.5 is below every task's footprint, so the
        # engine itself (not a solver) fails inside each worker.
        trace = synthetic_trace("balanced", tasks=30, seed=2)
        study = Study().traces(trace).capacities(0.5).solvers("OS")
        with pytest.raises(SweepJobError, match=trace.label):
            study.parallel(2, backend="processes").run()

    def test_bad_chunk_size_is_rejected_early(self, ensemble):
        with pytest.raises(ValueError, match="chunk_size"):
            Study().parallel(2, chunk_size=0)
        for backend in (ThreadBackend(2), ProcessBackend(2)):
            with pytest.raises(ValueError, match="chunk_size"):
                backend.run([], chunk_size=-1)

    def test_unpicklable_job_rejected_before_workers_start(self, ensemble):
        study = (
            Study()
            .traces(ensemble)
            .capacities(1.25)
            .solvers(LargestCommunicationFirst())  # live instance: no wire form
        )
        with pytest.raises(TypeError, match="process boundary"):
            study.parallel(2, backend="processes").run()


class _UnpicklableTrace(Trace):
    """A distinct payload type whose metadata cannot be pickled."""


def test_probe_catches_unpicklable_payload_types_beyond_the_first_job():
    good = synthetic_trace("balanced", tasks=10, seed=1)
    evil = _UnpicklableTrace(
        application="evil",
        process=1,
        tasks=list(good.tasks),
        metadata={"closure": lambda: None},  # type: ignore[dict-item]
    )
    jobs = [
        SweepJob(payload=good, solver_specs=("OS",), capacity_factors=(1.0,)),
        SweepJob(payload=evil, solver_specs=("OS",), capacity_factors=(1.0,)),
    ]
    with pytest.raises(TypeError, match="evil/p001.*cannot be pickled"):
        ProcessBackend(2).run(jobs)


# --------------------------------------------------------------------- #
# Job plane
# --------------------------------------------------------------------- #
class TestSweepJob:
    def test_jobs_pickle_in_wire_form(self, ensemble):
        job = SweepJob(
            payload=list(ensemble)[0],
            solver_specs=("LCMR", named_spec("portfolio.race", members=("OS", "OOSIM"), prune=False)),
            capacity_factors=(1.0, 1.5),
        )
        restored = pickle.loads(pickle.dumps(job.to_wire()))
        assert restored.run() == job.run()

    def test_wire_form_rejects_live_solvers(self, ensemble):
        job = SweepJob(
            payload=list(ensemble)[0],
            solver_specs=(LargestCommunicationFirst(),),
            capacity_factors=(1.0,),
        )
        with pytest.raises(TypeError, match="process boundary"):
            job.to_wire()

    def test_label(self, ensemble):
        trace = list(ensemble)[0]
        assert SweepJob(payload=trace).label == trace.label
        instance = trace.to_instance(trace.min_capacity_bytes * 2)
        assert SweepJob(payload=instance).label == instance.name


# --------------------------------------------------------------------- #
# SweepJobError across the process boundary
# --------------------------------------------------------------------- #
class TestSweepJobErrorPickling:
    def test_round_trip_preserves_type_and_message(self):
        error = SweepJobError(
            "sweep job 'trace-3 @ 1.25x' failed in a processes worker\n"
            "worker traceback:\nRuntimeError: boom"
        )
        restored = pickle.loads(pickle.dumps(error))
        assert type(restored) is SweepJobError
        assert restored.args == error.args
        assert "worker traceback" in str(restored)

    def test_error_raised_across_a_real_process_boundary_pickles_again(self, ensemble):
        # The exception object that surfaces in the parent after a worker
        # crash must itself survive another pickle hop (e.g. a process-pool
        # test harness re-raising it), not just the first crossing.
        register_solver("test.crash2", category="static", replace=True)(_CrashingSolver)
        try:
            study = Study().traces(ensemble).capacities(1.25).solvers("test.crash2")
            with pytest.raises(SweepJobError) as excinfo:
                study.parallel(2, backend="processes").run()
        finally:
            unregister_solver("test.crash2")
        rehopped = pickle.loads(pickle.dumps(excinfo.value))
        assert isinstance(rehopped, SweepJobError)
        assert str(rehopped) == str(excinfo.value)
        assert "intentional crash" in str(rehopped)


class TestResolveBackendPrecedence:
    """The documented chain in one place: explicit arg > env > n_jobs default."""

    def test_full_precedence_chain(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        # 1. n_jobs alone picks the parallel default (threads) or serial.
        assert isinstance(resolve_backend(None, n_jobs=4), ThreadBackend)
        assert isinstance(resolve_backend(None, n_jobs=1), SerialBackend)
        # 2. The env var overrides the n_jobs default...
        monkeypatch.setenv("REPRO_BACKEND", "processes")
        assert isinstance(resolve_backend(None, n_jobs=4), ProcessBackend)
        assert isinstance(resolve_backend(None, n_jobs=1), ProcessBackend)
        # 3. ...and an explicit argument overrides the env var.
        assert isinstance(resolve_backend("threads", n_jobs=4), ThreadBackend)
        assert isinstance(resolve_backend("serial"), SerialBackend)
        # Live backend instances pass through untouched, beating everything.
        explicit = ThreadBackend(2)
        assert resolve_backend(explicit, n_jobs=8) is explicit
