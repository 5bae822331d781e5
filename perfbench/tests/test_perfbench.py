"""Tests of the benchmark itself, at smoke size.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(*args: str, cwd: Path = ROOT, env: dict | None = None):
    command = [sys.executable, str(cwd / "perfbench" / "run.py"), *args]
    return subprocess.run(
        command, cwd=cwd, env=env, capture_output=True, text=True, timeout=300
    )


def _result(completed) -> dict:
    assert completed.returncode == 0, completed.stderr[-3000:]
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def _smoke(workload: str, seed: int, trace: int, record: Path | None = None) -> dict:
    args = ["--workload", workload, "--seed", str(seed), "--seconds", "0",
            "--trace", str(trace), "--scale", "smoke"]
    if record is not None:
        args += ["--record", str(record)]
    return _result(_bench(*args))


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One smoke ``--trace 1`` run per workload: (result, record)."""
    out = {}
    for workload in WORKLOADS:
        path = tmp_path_factory.mktemp("records") / f"{workload}.json"
        result = _smoke(workload, 3, 1, path)
        out[workload] = (result, json.loads(path.read_text()))
    return out


def _expect(metrics: dict, spec: list) -> None:
    assert {name: m["unit"] for name, m in metrics.items()} == {
        m["name"]: m["unit"] for m in spec
    }
    for metric in metrics.values():
        assert isinstance(metric["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_smoke_reports_every_end_to_end_metric(workload):
    result = _smoke(workload, 3, 0)
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    _expect(result["metrics"], SPEC["end_to_end"])
    assert result["metrics"]["ok_frac"]["value"] == 1.0
    assert result["metrics"]["setup_s"]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke_reports_every_per_layer_metric(traced, workload):
    result, record = traced[workload]
    assert result["correct"] is True and result["failed"] == 0
    _expect(result["metrics"], SPEC["per_layer"])
    # Every run of the first pass was replayed and checked.
    assert record["checked_runs"] == record["passes"][0]["runs"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_sum_plus_unattributed_is_the_wall_time(traced, workload):
    result, record = traced[workload]
    layer_sum = sum(record["layers"].values()) / record["workers"]
    assert layer_sum > 0
    assert layer_sum + record["unattributed_s"] == pytest.approx(record["wall_s"], abs=1e-9)
    metrics = result["metrics"]
    assert metrics["unattributed_s"]["value"] == record["unattributed_s"]
    assert metrics["timed_wall_s"]["value"] == record["wall_s"]


def test_workloads_exercise_their_layers(traced):
    def value(workload, name):
        return traced[workload][0]["metrics"][name]["value"]

    assert value("paper-sweep", "simulator.batched_rows") > 0
    assert value("paper-sweep", "api.backends.wire_bytes") == 0
    assert value("synthetic-sweep", "simulator.batched_rows") == 0
    assert value("synthetic-sweep", "core.metrics_untraced_rows") == 0
    assert value("synthetic-sweep", "api.backends.wire_bytes") > 0
    assert value("serve-burst", "simulator.columnar_rows") > 0
    assert value("serve-burst", "serve.cache_hit_ratio") == 0.25
    assert value("serve-burst", "serve.rejected") == 0


def test_same_seed_reproduces_ratio_and_another_seed_changes_inputs(tmp_path):
    runs = []
    for seed in (11, 11, 12):
        path = tmp_path / f"run-{len(runs)}.json"
        result = _smoke("synthetic-sweep", seed, 0, path)
        runs.append((result, json.loads(path.read_text())))
    (first, a), (second, b), (other, c) = runs
    ratio = "mean_ratio_to_omim"
    assert first["metrics"][ratio]["value"] == second["metrics"][ratio]["value"]
    assert a["inputs_sha256"] == b["inputs_sha256"]
    assert c["inputs_sha256"] != a["inputs_sha256"]
    assert other["metrics"][ratio]["value"] != first["metrics"][ratio]["value"]


def test_paper_sweep_inputs_do_not_follow_the_seed(tmp_path):
    digests = set()
    for seed in (11, 12):
        path = tmp_path / f"paper-{seed}.json"
        _smoke("paper-sweep", seed, 0, path)
        digests.add(json.loads(path.read_text())["inputs_sha256"])
    assert len(digests) == 1


def test_profile_view_has_an_unattributed_row(traced):
    from perfbench.profile_view import render

    text = render(traced["paper-sweep"][1])
    assert "unattributed" in text and "core.metrics" in text and "100.0%" in text


def test_refuses_when_a_guarded_variable_is_set():
    env = {**os.environ, "REPRO_ENGINE": "object"}
    completed = _bench("--workload", "serve-burst", "--seed", "1", "--scale", "smoke", env=env)
    assert completed.returncode != 0
    assert "REPRO_ENGINE" in completed.stderr
    assert completed.stdout.strip() == ""


def test_fails_without_the_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    completed = _bench("--workload", "paper-sweep", "--seed", "1", "--seconds", "1",
                       "--trace", "0", cwd=tmp_path, env=env)
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
