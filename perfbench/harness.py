"""Closed-loop timing, percentiles, failure counting and the host manifest."""

from __future__ import annotations

import ctypes
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

# End-to-end metrics of an untraced run: name -> unit. error_rate is not among
# them: it is 0 when the program is right, so it travels as the result's
# "attempted" and "failed" counts and is printed beside the metrics.
E2E = {
    "ops_per_s": "op/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}

MIN_BEYOND = 10  # samples that must lie above a reported percentile
MIN_OPS = 100  # ops a timed run needs so that p90 has MIN_BEYOND beyond it


class CheckFailed(AssertionError):
    """An op returned, but its output is wrong."""


@dataclass
class Loop:
    """Outcome of one closed-loop phase: one client, next op after the last."""

    latencies: list = field(default_factory=list)  # seconds; inf for a failed op
    attempted: int = 0
    failed: int = 0
    busy_s: float = 0.0  # summed op time, checks excluded

    @property
    def completed(self) -> int:
        return self.attempted - self.failed

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def closed_loop(op, check, seconds: float, min_ops: int, deadline: float, cycle: int = 1,
                clock=time.perf_counter, log=sys.stderr) -> Loop:
    """Run op(i) then check(i, output) until ``seconds`` have passed, at least
    ``min_ops`` ops were attempted and the count is a whole number of
    ``cycle``s (the runner's distinct inputs), or until the clock reaches
    ``deadline``. An op fails if it raises or its check raises."""
    loop = Loop()
    start = clock()
    i = 0
    while True:
        now = clock()
        done = loop.attempted >= min_ops and loop.attempted % cycle == 0
        if (done and now - start >= seconds) or now >= deadline:
            return loop
        t0 = clock()
        try:
            out = op(i)
        except Exception:  # a failed op is counted, the loop goes on
            out = _failed(loop, i, log)
        dt = clock() - t0
        if out is not _FAILED:
            try:
                check(i, out)
            except Exception:
                out = _failed(loop, i, log)
        loop.attempted += 1
        loop.failed += out is _FAILED
        loop.busy_s += dt
        loop.latencies.append(math.inf if out is _FAILED else dt)
        i += 1


_FAILED = object()


def _failed(loop: Loop, i: int, log):
    if loop.failed < 3:
        print(f"op {i} failed:\n{traceback.format_exc()}", file=log)
    return _FAILED


def percentile(values, q: float, min_beyond: int = MIN_BEYOND) -> float:
    """Nearest-rank q-th percentile, refused unless at least ``min_beyond``
    samples lie above the reported one."""
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    k = max(0, math.ceil(q / 100.0 * n) - 1)
    if n - 1 - k < min_beyond:
        raise ValueError(f"p{q:g} of {n} samples has {n - 1 - k} beyond it, "
                         f"needs {min_beyond}")
    return xs[k]


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def e2e_metrics(loop: Loop, setup_times: list) -> dict:
    return {
        "ops_per_s": loop.completed / loop.busy_s,
        "latency_p50_ms": statistics.median(loop.latencies) * 1e3,
        "latency_p90_ms": percentile(loop.latencies, 90) * 1e3,
        "peak_rss_mib": peak_rss_mib(),
        "setup_s": statistics.median(setup_times),
    }


# -- host manifest -------------------------------------------------------------


def _blas_threads(np) -> int | None:
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def _git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without leaving it; 'unknown' if
    the checkout is not a git work tree."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = root / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def manifest(np, root: Path, workload: str, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(np),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _git_commit(root),
    }
