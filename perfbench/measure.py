"""Measurement helpers: environment guard, host record, percentiles and
process-tree peak RSS read from ``/proc``."""

from __future__ import annotations

import hashlib
import math
import os
import platform
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Environment variables that silently change the program being measured
#: (engine choice, IPC plane, backend, worker count, tracing, cache location,
#: auto-spill threshold).  The benchmark refuses to run when one is set.
GUARDED_ENV = (
    "REPRO_ENGINE",
    "REPRO_SHM",
    "REPRO_BACKEND",
    "REPRO_NUM_JOBS",
    "REPRO_TRACE",
    "REPRO_CACHE_DIR",
    "REPRO_SPILL_THRESHOLD",
)


def guarded_env_set() -> list[str]:
    """Names of the guarded variables present in the environment."""
    return [name for name in GUARDED_ENV if name in os.environ]


def child_env() -> dict[str, str]:
    """Environment for subprocesses: the checkout's ``src`` on the path."""
    env = dict(os.environ)
    path = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + path if path else "")
    return env


def _git_commit() -> str:
    """The checkout's commit read from ``.git`` without running git (which
    would walk up out of the checkout when there is no repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """SHA-256 over the library sources; identifies the code without git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def host_record() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count() or 1,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _git_commit(),
        "source_sha256": source_digest(),
        "platform": platform.platform(),
    }


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (``0 <= q <= 100``)."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


# --------------------------------------------------------------------------- #
# Peak RSS
# --------------------------------------------------------------------------- #
def _status_kb(pid: int, field: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        pass
    return 0


def _children(pid: int) -> list[int]:
    found = []
    try:
        tids = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return found
    for tid in tids:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as handle:
                found.extend(int(child) for child in handle.read().split())
        except OSError:
            continue
    return found


def tree_rss_kb(root: int) -> int:
    """Current resident set of ``root`` and all its descendants, in KiB."""
    total, stack, seen = 0, [root], set()
    while stack:
        pid = stack.pop()
        if pid in seen:
            continue
        seen.add(pid)
        total += _status_kb(pid, "VmRSS")
        stack.extend(_children(pid))
    return total


def reset_peak(pid: int) -> None:
    """Reset the kernel's RSS high-water mark (``VmHWM``) of ``pid``."""
    try:
        with open(f"/proc/{pid}/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass


def peak_kb(pid: int) -> int:
    return _status_kb(pid, "VmHWM")


class PeakRss:
    """High-water mark of a process tree over a ``with`` block.

    Combines the root's kernel-tracked ``VmHWM`` (reset on entry) with a
    20 Hz sampler summing ``VmRSS`` over the root and its descendants, so
    pool workers that come and go inside the block are counted too.
    """

    #: Sampling period of the process-tree sum.
    INTERVAL_S = 0.05

    def __init__(self, root: int):
        self.root = root
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self) -> None:
        while not self._stop.is_set():
            self.peak_kb = max(self.peak_kb, tree_rss_kb(self.root))
            self._stop.wait(self.INTERVAL_S)

    def __enter__(self) -> "PeakRss":
        reset_peak(self.root)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)
        self.peak_kb = max(self.peak_kb, tree_rss_kb(self.root), peak_kb(self.root))

    @property
    def peak_mb(self) -> float:
        return self.peak_kb / 1024.0
