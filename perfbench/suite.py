"""Run every workload over a set of seeds and print each metric by name.

    python3 perfbench/suite.py                        # all four, seed 1, untraced
    python3 perfbench/suite.py --seeds 1-10           # spread over ten seeds
    python3 perfbench/suite.py --trace 1 --seeds 1,1  # per-layer, run twice

Each run is a separate `run.py` process, one after the other. For every
workload and metric the table gives the median over the runs, the quartiles
(statistics.quantiles, n=4) and their distance as a share of the median,
beside the metric's bound from BENCHMARK.json. error_rate is failed ops over
attempted ops, summed over the runs. With --trace 1 it also reports which
counts did not repeat exactly between runs of the same seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi) + 1) if hi else [int(lo)])
    return seeds


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    info = {}
    for line in lines:
        if line.startswith("# manifest "):
            info["manifest"] = json.loads(line[len("# manifest "):])
        elif line.startswith("# output sha256 "):
            info["output_sha256"] = line.split()[-1]
    return {**json.loads(lines[-1]), **info}


def spread(values: list) -> tuple:
    """(median, q1, q3, (q3 - q1) / median) of the values."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1", help="e.g. 1-10 or 3,3")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    results = defaultdict(list)
    for name in args.workloads.split(","):
        for seed in seeds:
            res = run_one(name, seed, args.seconds, args.trace)
            results[name].append({"seed": seed, **res})
            print(f"ran {name} seed {seed}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}", file=sys.stderr)

    for name, runs in results.items():
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print(f"\n{name}: {len(runs)} run(s), seeds {args.seeds}, "
              f"all correct: {all(r['correct'] for r in runs)}")
        print(f"  {'error_rate':<40} {failed / attempted:>12.4g} ratio "
              f"({failed} of {attempted} ops)")
        for metric, first in runs[0]["metrics"].items():
            values = [r["metrics"][metric]["value"] for r in runs]
            med, q1, q3, share = spread(values)
            bound = bounds.get(metric)
            note = f"  spread {share:6.1%}" + (f" (bound {bound:.0%})" if bound else "")
            print(f"  {metric:<40} {med:>12.5g} {first['unit']:<6} "
                  f"q1 {q1:.5g} q3 {q3:.5g}{note}")
        if args.trace:
            by_seed = defaultdict(list)
            for r in runs:
                by_seed[r["seed"]].append(r["metrics"])
            moved = sorted({m for group in by_seed.values() for m, v in group[0].items()
                            if v["unit"] in ("count", "bytes")
                            and any(g[m]["value"] != v["value"] for g in group[1:])})
            print(f"  counts differing between runs of one seed: {moved or 'none'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
