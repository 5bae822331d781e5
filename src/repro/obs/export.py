"""Exporters: Chrome trace-event JSON, Prometheus text, JSONL span logs.

One renderer per format, shared by every surface that emits it:
``/metricsz`` and the metrics exporter both go through
:func:`prometheus_lines`; ``--trace`` files, :func:`repro.obs.trace_to`
and the tracing demo all go through :func:`write_chrome_trace`.

The Chrome trace output is the `trace-event format
<https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU>`_
consumed by Perfetto and ``chrome://tracing``: duration events as matched
``B``/``E`` pairs, timestamps in microseconds, grouped by ``pid``/``tid``.
:func:`validate_chrome_trace` checks exactly the invariants those viewers
rely on (required keys, per-track monotonic timestamps, balanced
begin/end pairs) and is what the CI smoke step runs against a traced
sweep.
"""

from __future__ import annotations

import json
import math
import os
from typing import Iterable

__all__ = [
    "chrome_trace",
    "chrome_trace_events",
    "prometheus_lines",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_span_log",
]


def chrome_trace_events(spans: Iterable[dict]) -> list[dict]:
    """Render span records as Chrome trace duration events (B/E pairs).

    Spans are grouped per ``(pid, tid)`` track and re-assembled into the
    parent/child forest recorded by the tracer, so begin/end pairs nest
    properly and timestamps are monotone per track even when concurrent
    asyncio tasks interleaved on one thread.  A span lying inside an
    earlier sibling's interval (pre-timed :func:`~repro.obs.record_span`
    siblings) is nested under that sibling rather than clipped to zero
    length after it.  Timestamps are microseconds relative to the earliest
    span.
    """
    spans = [s for s in spans if s.get("dur", 0.0) >= 0.0]
    if not spans:
        return []
    t0 = min(s["ts"] for s in spans)
    events: list[dict] = []
    groups: dict[tuple, list[dict]] = {}
    for s in spans:
        groups.setdefault((s.get("pid", 0), s.get("tid", 0)), []).append(s)
    for (pid, tid), group in sorted(groups.items()):
        by_id = {s["id"]: s for s in group if s.get("id")}
        # Keyed by the record's identity: containment nesting also adopts
        # spans under siblings.
        children: dict[int, list[dict]] = {}
        roots: list[dict] = []
        for s in group:
            parent = by_id.get(s.get("parent"))
            if parent is not None and parent is not s:
                children.setdefault(id(parent), []).append(s)
            else:
                roots.append(s)
        cursor = 0.0  # monotone per-track clamp, in µs

        def nest(siblings: list[dict]) -> list[dict]:
            """Move each sibling inside the earlier sibling containing it."""
            top: list[dict] = []
            enclosing: list[dict] = []
            for s in sorted(siblings, key=lambda s: (s["ts"], -(s["ts"] + s["dur"]))):
                end = s["ts"] + s["dur"]
                while enclosing and enclosing[-1]["ts"] + enclosing[-1]["dur"] < end:
                    enclosing.pop()
                if enclosing:
                    children.setdefault(id(enclosing[-1]), []).append(s)
                else:
                    top.append(s)
                enclosing.append(s)
            return top

        def emit(s: dict, lo: float, hi: float) -> None:
            nonlocal cursor
            start = min(max(s["ts"], lo), hi)
            end = min(max(s["ts"] + s["dur"], start), hi)
            begin_ts = max((start - t0) * 1e6, cursor)
            cursor = begin_ts
            begin = {
                "name": s["name"],
                "cat": "repro",
                "ph": "B",
                "ts": round(begin_ts, 3),
                "pid": pid,
                "tid": tid,
            }
            if s.get("args"):
                begin["args"] = s["args"]
            events.append(begin)
            for child in nest(children.get(id(s), [])):
                emit(child, start, end)
            end_ts = max((end - t0) * 1e6, cursor)
            cursor = end_ts
            events.append(
                {"name": s["name"], "ph": "E", "ts": round(end_ts, 3), "pid": pid, "tid": tid}
            )

        for root in nest(roots):
            emit(root, root["ts"], root["ts"] + root["dur"])
    return events


def chrome_trace(spans: Iterable[dict]) -> dict:
    """The full Chrome trace JSON document for ``spans``."""
    return {"traceEvents": chrome_trace_events(spans), "displayTimeUnit": "ms"}


def write_chrome_trace(path: str | os.PathLike, spans: Iterable[dict]) -> int:
    """Write ``spans`` as a Chrome trace file; returns the event count."""
    document = chrome_trace(spans)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)
        handle.write("\n")
    return len(document["traceEvents"])


def write_span_log(path: str | os.PathLike, spans: Iterable[dict]) -> int:
    """Write raw span records as JSONL (one span dict per line)."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span, sort_keys=True))
            handle.write("\n")
            count += 1
    return count


def validate_chrome_trace(source) -> dict:
    """Validate a Chrome trace document; raises ``ValueError`` on violation.

    ``source`` may be a dict (already parsed), a JSON string, or a path.
    Checks the invariants trace viewers rely on: a ``traceEvents`` list,
    the required keys on every event, non-decreasing timestamps per
    ``(pid, tid)`` track, and balanced, name-matched ``B``/``E`` pairs.
    Returns summary statistics (event/span/track counts, max nesting).
    """
    if isinstance(source, dict):
        document = source
    else:
        text = str(source)
        if "\n" not in text and not text.lstrip().startswith("{") and os.path.exists(text):
            with open(text, encoding="utf-8") as handle:
                document = json.load(handle)
        else:
            document = json.loads(text)
    if not isinstance(document, dict) or not isinstance(document.get("traceEvents"), list):
        raise ValueError("trace document must be an object with a 'traceEvents' list")
    events = document["traceEvents"]
    required = ("name", "ph", "ts", "pid", "tid")
    stacks: dict[tuple, list[str]] = {}
    last_ts: dict[tuple, float] = {}
    pids, tids = set(), set()
    spans = 0
    max_depth = 0
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            raise ValueError(f"event #{index} is not an object")
        missing = [key for key in required if key not in event]
        if missing:
            raise ValueError(f"event #{index} missing required keys: {missing}")
        ts = event["ts"]
        if not isinstance(ts, (int, float)) or math.isnan(ts):
            raise ValueError(f"event #{index} has a non-numeric ts: {ts!r}")
        track = (event["pid"], event["tid"])
        pids.add(event["pid"])
        tids.add(track)
        if ts < last_ts.get(track, -math.inf):
            raise ValueError(
                f"event #{index} ts {ts} goes backwards on track pid={track[0]} tid={track[1]}"
            )
        last_ts[track] = ts
        phase = event["ph"]
        if phase == "B":
            stack = stacks.setdefault(track, [])
            stack.append(event["name"])
            max_depth = max(max_depth, len(stack))
        elif phase == "E":
            stack = stacks.get(track)
            if not stack:
                raise ValueError(f"event #{index}: 'E' without a matching 'B'")
            opened = stack.pop()
            if opened != event["name"]:
                raise ValueError(
                    f"event #{index}: 'E' for {event['name']!r} but {opened!r} is open"
                )
            spans += 1
    unclosed = {track: stack for track, stack in stacks.items() if stack}
    if unclosed:
        raise ValueError(f"unbalanced 'B' events left open: {unclosed}")
    return {
        "events": len(events),
        "spans": spans,
        "pids": len(pids),
        "tracks": len(tids),
        "max_depth": max_depth,
    }


def _format_number(value: float) -> str:
    if math.isnan(value):
        return "NaN"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.6g}"


def prometheus_lines(snapshot: dict, *, prefix: str = "repro_") -> list[str]:
    """Prometheus-shaped text lines for a registry snapshot.

    Counters render as ``{prefix}{name}{labels} value``; summaries as
    ``{prefix}{name}_seconds{labels,quantile="0.5"|"0.99"}`` (NaN
    quantiles skipped) plus ``{prefix}{name}_count{labels}``; gauges as
    ``{prefix}{name} value`` with NaN rendered literally.
    """
    lines: list[str] = []
    for name, series in snapshot.get("counters", {}).items():
        for label_text, value in series.items():
            labels = f"{{{label_text}}}" if label_text else ""
            lines.append(f"{prefix}{name}{labels} {_format_number(value)}")
    for name, series in snapshot.get("summaries", {}).items():
        for label_text, stats in series.items():
            for key, q in (("p50_s", "0.5"), ("p99_s", "0.99")):
                value = stats[key]
                if not math.isnan(value):
                    joined = f"{label_text}," if label_text else ""
                    lines.append(
                        f'{prefix}{name}_seconds{{{joined}quantile="{q}"}} {value:.6f}'
                    )
            labels = f"{{{label_text}}}" if label_text else ""
            lines.append(f"{prefix}{name}_count{labels} {stats['count']}")
    for name, value in snapshot.get("gauges", {}).items():
        lines.append(f"{prefix}{name} {_format_number(value)}")
    return lines
