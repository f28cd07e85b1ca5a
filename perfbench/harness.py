"""Shared plumbing of the benchmark: layout, statistics, host speed,
provenance, output.

Everything a run writes goes under :data:`OUT_DIR` (``perfbench/out``):
the per-run result and trace reports, and the temporary directories that
hold schedule caches, journals and result stores while a workload runs.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Iterable, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC_DIR = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

#: Files the benchmark drives; a checkout without them cannot run it.
REQUIRED_FILES = ("src/repro/__init__.py", "benchmarks/bench_common.py")


def missing_program_files() -> list[str]:
    """Relative paths of required program files absent from this checkout."""
    return [name for name in REQUIRED_FILES if not (ROOT / name).is_file()]


def child_env() -> dict[str, str]:
    """Environment for child interpreters: import from ``src``, cache bytecode
    in out/, and flush output at once (the service's "listening on" line is
    read from its log file)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR)
    env["PYTHONPYCACHEPREFIX"] = str(OUT_DIR / "pycache")
    env["PYTHONUNBUFFERED"] = "1"
    return env


def make_tmpdir(prefix: str) -> Path:
    """A fresh scratch directory under the output location."""
    base = OUT_DIR / "tmp"
    base.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=base))


def remove_tmpdir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def nearest_rank(values: Sequence[float], q: float) -> tuple[float, int]:
    """Nearest-rank ``q``-th percentile and how many samples lie above its rank.

    Nearest-rank (not interpolated) so the value is one that happened.
    The second element is the count of samples ranked beyond it, which
    says whether the percentile is resolved: a p99 needs at least ten.
    """
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile {q!r} is not in (0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


# ----------------------------------------------------------------------
# host speed
# ----------------------------------------------------------------------
#: Seconds :func:`reference_task` takes on a quiet 2-core Xeon (2.1 GHz)
#: host: the speed every corrected timing is expressed at.
REFERENCE_S = 0.0032
#: Calls per sample; a sample is their median, robust to one preemption.
REFERENCE_CALLS = 3


def reference_task() -> int:
    """A fixed interpreter-bound task of the benchmark's own: dict, list and
    integer work of the kind the measured program does."""
    buckets: dict[int, list[int]] = {}
    total = 0
    for i in range(20_000):
        bucket = buckets.setdefault(i % 97, [])
        bucket.append(i)
        total += len(bucket) * (i & 7)
    return total


class HostClock:
    """A stopwatch that samples the host's speed as it goes.

    A shared host's speed drifts by a third and more within a minute, and
    the program and :func:`reference_task` slow down together.  The clock
    samples the reference task when it starts, at every ``every``-th
    :meth:`tick` and when it stops, and leaves the samples out of the time
    it reports.  :meth:`factor` converts its elapsed time to the reference
    host's speed stretch by stretch: each stretch between two samples is
    scaled by ``REFERENCE_S`` over the mean of its two samples.

    Ticks must come from the timed code's own thread while it waits (a
    completion callback, or between requests), so a sample never competes
    with the program for this process.
    """

    def __init__(self, every: int = 1) -> None:
        self.every = every
        self.ticks = 0
        self.paused = 0.0
        self.samples: list[tuple[float, float]] = []  #: (elapsed, reference seconds)
        self.started = time.perf_counter()
        self._sample()

    def elapsed(self) -> float:
        return time.perf_counter() - self.started - self.paused

    def _sample(self) -> None:
        at = self.elapsed()
        begin = time.perf_counter()
        times = []
        for _ in range(REFERENCE_CALLS):
            started = time.perf_counter()
            reference_task()
            times.append(time.perf_counter() - started)
        self.paused += time.perf_counter() - begin
        self.samples.append((at, statistics.median(times)))

    def tick(self) -> float:
        """Seconds elapsed at this tick, before any sample it takes."""
        now = self.elapsed()
        self.ticks += 1
        if self.ticks % self.every == 0:
            self._sample()
        return now

    def stop(self) -> float:
        """Seconds elapsed; takes the closing sample."""
        wall = self.elapsed()
        self._sample()
        return wall

    def factor(self) -> float:
        """Reference-host seconds per elapsed second, up to the last sample."""
        corrected = sum(
            (t1 - t0) * REFERENCE_S * 2 / (s0 + s1)
            for (t0, s0), (t1, s1) in zip(self.samples, self.samples[1:])
        )
        span = self.samples[-1][0] - self.samples[0][0]
        return corrected / span if span > 0 else REFERENCE_S / self.samples[0][1]


def peak_rss_mb() -> float:
    """Peak resident set of this process or any waited-for descendant, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def digest(payload: Any) -> str:
    """SHA-256 of the canonical JSON of ``payload``."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# provenance
# ----------------------------------------------------------------------
def _commit() -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
    except OSError:
        return None
    if not text.startswith("ref: "):
        return text
    ref = text[len("ref: "):]
    try:
        return (ROOT / ".git" / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """SHA-256 over every program source file, so a result names its code
    even in a checkout that is not a git repository."""
    sha = hashlib.sha256()
    for path in sorted(SRC_DIR.rglob("*.py")):
        sha.update(str(path.relative_to(ROOT)).encode("utf-8") + b"\0")
        sha.update(path.read_bytes())
    return sha.hexdigest()


def provenance(workload: str, seed: int, plan_digest: str) -> dict[str, Any]:
    return {
        "workload": workload,
        "seed": seed,
        "plan_digest": plan_digest,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": _commit(),
        "source_digest": source_digest(),
    }


def write_report(name: str, document: dict[str, Any]) -> Path:
    """Write one JSON report under the output location."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / name
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return path


def log(message: str) -> None:
    """Progress goes to stderr; stdout's last line is the result."""
    print(message, file=sys.stderr, flush=True)
