"""Statistics, digests and machine facts shared by the e2e benchmark.

Nothing here imports ``repro``: the harness self-tests exercise these
helpers on synthetic inputs.
"""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter
from typing import Iterable, Sequence

import numpy as np

#: Candidate tail percentiles, ascending, each with the share of
#: samples beyond it in per-mille (integers keep the rule exact).
TAIL_LADDER = (
    (50.0, 500), (75.0, 250), (90.0, 100), (95.0, 50), (99.0, 10), (99.9, 1)
)

#: Samples that must lie beyond a percentile before it is reported.
TAIL_MIN_BEYOND = 10


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) exactly as the driver computes them."""
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, _, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(statistics.median(values)), float(q3)


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def tail_percentile(n_samples: int) -> float:
    """The highest ladder percentile with >= 10 samples beyond it.

    Falls back to the median when even p75 is not supported, so small
    traced windows never report a tail they cannot resolve.
    """
    best = TAIL_LADDER[0][0]
    for pct, beyond_permille in TAIL_LADDER:
        if n_samples * beyond_permille >= TAIL_MIN_BEYOND * 1000:
            best = pct
    return best


def latency_summary(samples_ns: Iterable[int], unit_ns: float) -> dict:
    """p50 and the supported tail of ``samples_ns`` in ``unit_ns`` units."""
    arr = np.asarray(list(samples_ns), dtype=np.float64)
    if arr.size == 0:
        return {"n": 0, "p50": 0.0, "tail": 0.0, "tail_pct": 0.0}
    pct = tail_percentile(arr.size)
    return {
        "n": int(arr.size),
        "p50": float(np.percentile(arr, 50.0)) / unit_ns,
        "tail": float(np.percentile(arr, pct)) / unit_ns,
        "tail_pct": pct,
    }


class Calibrator:
    """A fixed numpy kernel whose duration tracks the machine's speed.

    The baseline box is a shared VM whose speed shifts by +-20 % for
    minutes at a time (README, "Noise on this box"); no statistic taken
    inside a 6 s window can see through that.  One :meth:`sample` takes
    ~20 ms and mixes what the workloads do: a cache-resident sgemm, a
    streaming sgemm over a first-layer-sized weight matrix, and float64
    elementwise passes over pair-table-sized arrays.  Workloads sample
    at every segment boundary and divide each segment's rate by the
    speed it ran at.
    """

    #: Median :meth:`sample` duration on the baseline box, seconds; a
    #: speed of 1.0 means "as fast as that".
    REFERENCE_S = 0.0200

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._x = rng.random((32, 2048), dtype=np.float32)
        self._w = rng.random((2048, 135), dtype=np.float32)
        self._xs = rng.random((32, 10059), dtype=np.float32)
        self._ws = rng.random((10059, 135), dtype=np.float32)
        self._a = rng.random((45, 800))
        self._b = rng.random((45, 800))

    def sample(self) -> float:
        """Seconds one pass of the kernel takes right now."""
        t0 = perf_counter()
        for _ in range(16):
            self._x @ self._w
        for _ in range(4):
            self._xs @ self._ws
        a, b = self._a, self._b
        for _ in range(60):
            d = a * b
            d += a
            np.sqrt(d, out=d)
            d.sum()
        return perf_counter() - t0

    def speed(self, samples: int = 1) -> float:
        """Machine speed relative to the baseline box (median of
        ``samples`` passes)."""
        return self.REFERENCE_S / statistics.median(
            self.sample() for _ in range(samples)
        )


def segment_summary(segments: Sequence[tuple[int, float, float]]) -> dict:
    """Rates of (ops, seconds, speed) segments with their quartiles.

    ``rates`` are speed-corrected (ops / seconds / speed); ``raw_rates``
    are plain ops / seconds.
    """
    segments = [s for s in segments if s[1] > 0]
    if not segments:
        return {"n": 0, "rates": [], "raw_rates": [], "speeds": [],
                "q1": 0.0, "median": 0.0, "q3": 0.0}
    raw = [ops / sec for ops, sec, _ in segments]
    speeds = [speed for _, _, speed in segments]
    rates = [r / s for r, s in zip(raw, speeds)]
    q1, med, q3 = quartiles(rates)
    return {"n": len(rates), "rates": rates, "raw_rates": raw,
            "speeds": speeds, "q1": q1, "median": med, "q3": q3}


def digest(rows: Iterable[Sequence], arrays: Iterable[np.ndarray] = ()) -> str:
    """SHA-256 over ``repr`` of each row field plus raw array bytes.

    ``repr`` round-trips Python floats exactly, so two runs agree on the
    digest iff they agree on every bit of every recorded value.
    """
    h = hashlib.sha256()
    for row in rows:
        h.update(("|".join(repr(f) for f in row) + "\n").encode())
    for arr in arrays:
        a = np.ascontiguousarray(arr)
        h.update(str((a.dtype.str, a.shape)).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def peak_rss_mb() -> float:
    """Max RSS of this process plus its reaped children, MiB (Linux KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def git_commit(root: Path) -> str:
    """HEAD of the checkout at ``root`` read from ``.git`` files.

    Plain file reads, no ``git`` process: the driver's checkout is not a
    repository and the benchmark must not look outside it.
    """
    git = root / ".git"
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


def fingerprint(root: Path, thread_vars: Sequence[str]) -> dict:
    """Where and with what these numbers were taken."""
    blas = {}
    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg.get("Build Dependencies", {}).get("blas", {})
    except (TypeError, AttributeError):  # numpy < 1.25
        pass
    return {
        "nproc": os.cpu_count() or 1,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": {k: os.environ.get(k) for k in thread_vars},
        "numpy": np.__version__,
        "python": platform.python_version(),
        "platform": sys.platform,
        "git_commit": git_commit(root),
    }
