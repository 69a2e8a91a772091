"""Run one benchmark workload and print its result as a JSON last line.

    python3 perfbench/run.py --workload fuse-128 --seed 1 --seconds 20 --trace 0

--trace 0 measures the end-to-end metrics with nothing wrapped. --trace 1
alternates plain and traced rounds over the inputs, and reports the
per-layer metrics of the traced ops and the tracing overhead between the two. The
program is imported from src/ of the checkout this file sits in; the run
fails if it is not there. BLAS is held to one thread. Work files go to
.perfbench_work/ in the checkout and are removed at exit.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

import harness

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 3  # set-ups per run; setup_s is their median
# BLAS runs on one thread. On the shared 2-core host the benchmark was tuned
# on, a second OpenBLAS thread made no op faster and raised the run-to-run
# spread of fuse-128's median latency from 6% to 21% (IQR over five seeds).
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
TRACE_MIN_OPS = 10  # plain ops, and traced ops, a traced run makes at least
BUDGET_S = 150.0  # wall time after which the timed loops stop, whatever their count


def import_program(root: Path) -> None:
    """Import flowfuse from root/src, and refuse any other copy."""
    src = root / "src"
    if not (src / "flowfuse" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program at {src / 'flowfuse'}")
    sys.path.insert(0, str(src))
    import flowfuse

    if src.resolve() not in Path(flowfuse.__file__).resolve().parents:
        raise SystemExit(f"perfbench: flowfuse imported from {flowfuse.__file__}, not {src}")


def set_up(workload, seed: int, workdir: Path, tracer=None) -> tuple:
    """SETUPS fresh set-ups; returns (their durations, the last runner)."""
    times, runner = [], None
    for r in range(SETUPS):
        runner = None  # free the previous set-up before timing the next
        t0 = time.perf_counter()
        with tracer.active(-1 - r) if tracer else contextlib.nullcontext():
            runner = workload.set_up(seed, workdir / f"setup{r}")
        times.append(time.perf_counter() - t0)
    return times, runner


def phase_medians(runner, ops) -> dict:
    """Median fuse_images phase timings (ms) over the given ops."""
    rows = getattr(runner, "phases", [])
    rows = [rows[i] for i in ops if i < len(rows)]
    if not rows:
        return {}
    return {f"{k[:-2]}_ms": statistics.median(r[k] for r in rows) * 1e3 for k in rows[0]}


def measure(workload, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    import tracing  # loads numpy, so only after main has pinned the BLAS threads

    deadline = time.perf_counter() + BUDGET_S
    tracer = tracing.Tracer() if trace else None
    if trace:
        with tracing.Patched(tracer):
            setup_times, runner = set_up(workload, seed, workdir, tracer)
    else:
        setup_times, runner = set_up(workload, seed, workdir)
    out = {"setup_times": setup_times, "digest": runner.digest()}
    if not trace:
        loop = harness.closed_loop(runner.op, runner.check, seconds, harness.MIN_OPS, deadline,
                                   runner.cycle)
        out.update(loop=loop, metrics=harness.e2e_metrics(loop, setup_times),
                   units=harness.E2E, phases=phase_medians(runner, range(loop.attempted)))
        return out

    # rounds over the inputs alternate plain and traced, so that both see the
    # same host conditions and their difference is the tracing overhead
    def traced(i):
        return (i // runner.cycle) % 2 == 1

    def op(i):
        if not traced(i):
            return runner.op(i)
        with tracer.active(i):
            return runner.op(i)

    with tracing.Patched(tracer):
        loop = harness.closed_loop(op, runner.check, seconds, 2 * TRACE_MIN_OPS, deadline,
                                   2 * runner.cycle)
    ops = [i for i in range(loop.attempted) if traced(i)]
    plain = [i for i in range(loop.attempted) if not traced(i)]
    setups = [-1 - r for r in range(SETUPS)]
    missing = tracing.unreached(tracer, ops, setups, workload.reaches)
    if missing:
        raise tracing.TraceError(
            f"{workload.name}: traced functions recorded no call: {', '.join(missing)}. "
            "A name imported by value may have escaped the patch, or the call path moved.")
    overhead = (statistics.median(loop.latencies[i] for i in ops)
                / statistics.median(loop.latencies[i] for i in plain) - 1.0) * 100.0
    out.update(loop=loop, units=tracing.PER_LAYER,
               metrics=tracing.per_layer(tracer, ops, setups, phase_medians(runner, plain),
                                         overhead))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.environ.update(BLAS_THREADS)  # before numpy loads its BLAS
    import_program(ROOT)
    import numpy as np

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        res = measure(workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run is still using it
            pass

    loop = res["loop"]
    print(f"# {workload.name}: {workload.why}")
    print("# manifest " + json.dumps(harness.manifest(np, ROOT, workload.name, args.seed)))
    print(f"# output sha256 {res['digest']}")
    print("# setup_s runs " + " ".join(f"{t:.4f}" for t in res["setup_times"]))
    print(f"# ops {loop.attempted} attempted, {loop.failed} failed, "
          f"error_rate {loop.error_rate:.4g} ratio")
    for name, value in res["metrics"].items():
        print(f"# {name} {value:.6g} {res['units'][name]}")
    for name, value in res["phases"].items() if "phases" in res else ():
        print(f"# cli.{name} {value:.6g} ms (untraced)")
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": res["units"][name]}
                    for name, value in res["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
