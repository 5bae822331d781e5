"""Text profile view: where did the time go, per workload.

Renders the replayed per-layer seconds of a ``--trace 1`` record, with an
explicit ``unattributed`` row and each row's share of the timed pass's wall
time.  On the process backend a layer's seconds are divided by the worker
count, so the rows add up to the wall time.  Usage::

    python3 perfbench/run.py --workload paper-sweep --seed 1 --trace 1 --record r.json
    python3 perfbench/profile_view.py r.json [more records ...]
"""

from __future__ import annotations

import json
import sys


def render(record: dict) -> str:
    wall = record["wall_s"]
    workers = record["workers"]
    per = " per worker" if workers > 1 else ""
    lines = [
        f"where did the time go: {record['workload']} (seed {record['seed']}, "
        f"wall {wall:.3f} s, {workers} worker{'s' if workers > 1 else ''})",
        f"  {'layer':<30} {'seconds' + per:>18} {'share':>7}",
    ]
    rows = [(name.removesuffix("_s"), seconds / workers)
            for name, seconds in record["layers"].items()]
    rows.append(("unattributed", record["unattributed_s"]))
    for name, seconds in rows:
        share = 100.0 * seconds / wall if wall > 0 else 0.0
        lines.append(f"  {name:<30} {seconds:>18.4f} {share:>6.1f}%")
    lines.append(f"  {'wall':<30} {wall:>18.4f} {100.0:>6.1f}%")
    return "\n".join(lines)


def main(paths) -> int:
    if not paths:
        print(__doc__, file=sys.stderr)
        return 2
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            record = json.load(handle)
        if "layers" not in record:
            print(f"{path}: not a --trace 1 record", file=sys.stderr)
            return 1
        print(render(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
