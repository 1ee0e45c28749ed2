"""Repeat run.py over several seeds and report each metric's spread.

    python3 bench/sweep.py --seeds 1-10 [--seconds 25] [--trace 0]
                           [--workload NAME ...] [--out bench/results/BENCH_n.json]

Runs are interleaved across workloads (seed 1 of every workload, then
seed 2, ...) so that slow drift of the host spreads over all of them.
For every workload and metric it prints the median and the spread, the
distance between the first and third quartile over the median, which is
what BENCHMARK.json's bounds are checked against.  ``--out`` saves the
host record and every run's result; each run's per-call values stay in
its record under bench/runs/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import run
import workloads


def seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(xs) -> float:
    q = statistics.quantiles(xs, n=4)
    med = statistics.median(xs)
    return (q[2] - q[0]) / med if med else 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--seconds", type=float, default=None,
                    help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workload", nargs="*", default=list(workloads.NAMES))
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results = {w: [] for w in args.workload}
    failed = False
    for seed in args.seeds:
        for name in args.workload:
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(run.HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, cwd=run.ROOT)
            elapsed = time.perf_counter() - t0
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} seed={seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                failed = True
                continue
            res = json.loads(lines[-1])
            res.update(seed=seed, elapsed_s=elapsed)
            results[name].append(res)
            shown = {k: v["value"] for k, v in res["metrics"].items() if k in bounds}
            print(f"{name} seed={seed} {elapsed:.1f}s correct={res['correct']} "
                  + " ".join(f"{k}={v:.5g}" for k, v in shown.items()), flush=True)
    summary = {}
    for name, runs in results.items():
        if len(runs) < 2:
            continue
        print(name)
        for metric in runs[0]["metrics"]:
            xs = [r["metrics"][metric]["value"] for r in runs]
            s = spread(xs)
            summary.setdefault(name, {})[metric] = {
                "median": statistics.median(xs), "spread": s, "values": xs}
            if metric in bounds:
                print(f"  {metric:<13} median {statistics.median(xs):.5g}  spread {s:.4f}"
                      f"  (bound {bounds[metric]})")
    if args.out:
        out = {"host": run.host_record(args.seeds[0]), "seconds": seconds,
               "trace": args.trace, "seeds": args.seeds, "summary": summary,
               "runs": results}
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
