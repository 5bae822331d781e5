"""Exporters: Chrome trace events, the trace validator, Prometheus text, JSONL."""

from __future__ import annotations

import json
import time

import pytest

import repro.obs as obs
from repro.obs.export import (
    chrome_trace,
    chrome_trace_events,
    prometheus_lines,
    validate_chrome_trace,
    write_chrome_trace,
    write_span_log,
)
from repro.obs.metrics import MetricsRegistry


def _span(name, ts, dur, *, pid=1, tid=1, sid=1, parent=None, args=None):
    record = {"name": name, "ts": ts, "dur": dur, "pid": pid, "tid": tid, "id": sid, "parent": parent}
    if args:
        record["args"] = args
    return record


class TestChromeTrace:
    def test_b_e_pairs_nest_and_validate(self):
        spans = [
            _span("child", 1.2, 0.3, sid=2, parent=1, args={"k": "v"}),
            _span("root", 1.0, 1.0, sid=1),
        ]
        events = chrome_trace_events(spans)
        assert [e["ph"] for e in events] == ["B", "B", "E", "E"]
        assert [e["name"] for e in events] == ["root", "child", "child", "root"]
        info = validate_chrome_trace(chrome_trace(spans))
        assert info == {"events": 4, "spans": 2, "pids": 1, "tracks": 1, "max_depth": 2}

    def test_overlapping_async_spans_still_validate(self):
        # Two same-track spans whose wall-clock intervals overlap (as
        # interleaved asyncio requests do): the exporter must still emit a
        # monotone, properly nested stream.
        spans = [
            _span("req1", 1.0, 1.0, sid=1),
            _span("req2", 1.5, 1.0, sid=2),
        ]
        info = validate_chrome_trace(chrome_trace(spans))
        assert info["spans"] == 2

    def test_contained_pre_timed_sibling_nests_instead_of_collapsing(self):
        # Two record_span siblings where the later-recorded one lies inside
        # the earlier one's interval: it must nest, not clip to zero length.
        obs.enable()
        marker = obs.mark()
        with obs.span("job"):
            batch_start = obs.now()
            scan_start = obs.now()
            time.sleep(0.002)
            scan_end = obs.now()
            obs.record_span("batch", batch_start, obs.now())
            obs.record_span("scan", scan_start, scan_end)
        events = [e for e in chrome_trace_events(obs.export_since(marker)) if e["name"] != "job"]
        assert [(e["name"], e["ph"]) for e in events] == [
            ("batch", "B"),
            ("scan", "B"),
            ("scan", "E"),
            ("batch", "E"),
        ]
        begin, end = (e["ts"] for e in events if e["name"] == "scan")
        assert end - begin == pytest.approx((scan_end - scan_start) * 1e6, abs=1e-2)
        assert end - begin > 0
        info = validate_chrome_trace(chrome_trace(obs.export_since(marker)))
        assert info["max_depth"] == 3

    def test_multi_pid_tracks(self):
        spans = [
            _span("parent", 1.0, 2.0, pid=10, sid=1),
            _span("worker", 1.5, 0.5, pid=20, sid=2),
        ]
        info = validate_chrome_trace(chrome_trace(spans))
        assert info["pids"] == 2 and info["tracks"] == 2

    def test_write_and_validate_path(self, tmp_path):
        path = tmp_path / "t.json"
        write_chrome_trace(path, [_span("x", 0.0, 1.0)])
        info = validate_chrome_trace(str(path))
        assert info["spans"] == 1
        payload = json.loads(path.read_text())
        assert payload["displayTimeUnit"] == "ms"

    def test_span_log_is_jsonl(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        write_span_log(path, [_span("a", 0.0, 1.0), _span("b", 1.0, 1.0, sid=2)])
        lines = path.read_text().splitlines()
        assert [json.loads(line)["name"] for line in lines] == ["a", "b"]


class TestValidator:
    def test_rejects_missing_trace_events(self):
        with pytest.raises(ValueError, match="traceEvents"):
            validate_chrome_trace({"notTraceEvents": []})

    def test_rejects_missing_keys(self):
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": [{"ph": "B", "ts": 0}]})

    def test_rejects_non_monotonic_track(self):
        events = [
            {"name": "a", "ph": "B", "ts": 5.0, "pid": 1, "tid": 1},
            {"name": "a", "ph": "E", "ts": 1.0, "pid": 1, "tid": 1},
        ]
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": events})

    def test_rejects_unbalanced_begin_end(self):
        events = [{"name": "a", "ph": "B", "ts": 0.0, "pid": 1, "tid": 1}]
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": events})

    def test_accepts_json_text(self):
        payload = json.dumps(chrome_trace([_span("x", 0.0, 1.0)]))
        assert validate_chrome_trace(payload)["spans"] == 1


class TestPrometheusLines:
    def test_counter_summary_gauge_rendering(self):
        registry = MetricsRegistry()
        registry.inc("requests", endpoint="solve", outcome="ok")
        registry.observe("request_latency", 0.25, endpoint="solve")
        registry.set_gauge("workers", 2.0)
        lines = prometheus_lines(registry.snapshot())
        assert 'repro_requests{endpoint="solve",outcome="ok"} 1' in lines
        assert 'repro_request_latency_seconds{endpoint="solve",quantile="0.5"} 0.250000' in lines
        assert 'repro_request_latency_count{endpoint="solve"} 1' in lines
        assert "repro_workers 2" in lines

    def test_unlabelled_and_prefix(self):
        registry = MetricsRegistry()
        registry.inc("cache_hits_total", 3.0)
        lines = prometheus_lines(registry.snapshot(), prefix="x_")
        assert lines == ["x_cache_hits_total 3"]

    def test_nan_gauge_renders_literally(self):
        registry = MetricsRegistry()
        registry.set_gauge("broken", float("nan"))
        assert "repro_broken NaN" in prometheus_lines(registry.snapshot())


class TestEndToEnd:
    def test_real_spans_export_round_trip(self, tmp_path):
        obs.enable()
        marker = obs.mark()
        with obs.span("outer"):
            with obs.span("inner"):
                pass
        path = tmp_path / "real.json"
        write_chrome_trace(path, obs.export_since(marker))
        info = validate_chrome_trace(str(path))
        assert info["spans"] == 2 and info["max_depth"] == 2
