"""Shared helpers for the repository benchmark: paths, statistics,
provenance, memory and the result record.

Nothing here imports ``repro`` at module level, so ``run.py`` can report a
missing source tree cleanly before any workload module is loaded.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path

#: The checkout root: the directory that holds ``perfbench/`` and ``src/``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for cache files, ledgers and span dumps, inside the checkout.
WORK = ROOT / ".perfbench_work"


def ensure_source_tree() -> bool:
    """Put ``src/`` on ``sys.path``; False when the package is not there."""
    if not (SRC / "repro" / "__init__.py").is_file():
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return True


def subprocess_env() -> dict[str, str]:
    """Environment for child Python processes: ``src/`` importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    # A fixed hash seed keeps set and dict orders in the server the same
    # from run to run, one less source of run-to-run spread.
    env.setdefault("PYTHONHASHSEED", "0")
    return env


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-quantile (0 <= q <= 1) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 0.5)


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, 0.0 for an empty base."""
    return numerator / denominator if denominator else 0.0


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------
def _git_sha() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def source_sha256() -> str:
    """SHA-256 over ``src/`` (path + bytes of every ``.py``), which stands
    in for the commit when the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def inputs_sha256(obj) -> str:
    """SHA-256 of the generated inputs in canonical JSON form."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def provenance(
    *, workload: str, seed: int, inputs_hash: str, kernel: str, shard_mode: str
) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "git_sha": _git_sha(),
        "source_sha256": source_sha256(),
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel": kernel,
        "shard_mode": shard_mode,
        "inputs_sha256": inputs_hash,
    }


# ----------------------------------------------------------------------
# Memory
# ----------------------------------------------------------------------
def self_peak_rss_mb() -> float:
    """Peak RSS of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _children(pid: int) -> list[int]:
    kids: list[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return kids
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as handle:
                kids.extend(int(x) for x in handle.read().split())
        except OSError:
            continue
    return kids


def _pss_kib(pid: int) -> int:
    """Proportional set size: shared pages (a forked worker's view of its
    parent) are split between the processes sharing them."""
    try:
        with open(f"/proc/{pid}/smaps_rollup") as handle:
            for line in handle:
                if line.startswith("Pss:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class TreeMemory:
    """Tracks the peak memory of a process tree: each sample sums the
    proportional set size of every live process in the tree, and the peak
    is the largest such sum."""

    def __init__(self, pid: int) -> None:
        self.pid = pid
        self.peak_kib = 0

    def sample(self) -> None:
        total = 0
        stack = [self.pid]
        while stack:
            pid = stack.pop()
            total += _pss_kib(pid)
            stack.extend(_children(pid))
        self.peak_kib = max(self.peak_kib, total)

    @property
    def peak_mb(self) -> float:
        return self.peak_kib / 1024.0


# ----------------------------------------------------------------------
# The result record
# ----------------------------------------------------------------------
def emit(record: dict, *, correct: bool, attempted: int, failed: int,
         metrics: dict[str, tuple[float, str]]) -> None:
    """Print the full record on one line, then the contract line last.

    ``metrics`` maps a metric name to ``(value, unit)``.
    """
    print(json.dumps(record, sort_keys=True, default=str), flush=True)
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": {
                    name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        ),
        flush=True,
    )
