"""barlineage benchmark: four workloads through the public API.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py                      # every workload, tracing off

Run from the root of a source checkout; the program is imported from its
``src`` directory.  With ``--trace 0`` the end-to-end metrics are
reported: median wall and CPU time per call (process plus pool workers),
the median time for a fresh interpreter to import barlineage and build
the config or argv, peak RSS of the process or its largest worker, and
the share of operations (table cells or batch files) whose result is
correct.  Wall and CPU time are scaled to a reference host speed by
calibration loops run between calls (see hostspeed.py); the raw times
are in the run record.  With ``--trace 1`` a separate run gives the per-layer
metrics from wrapped stage functions (see tracing.py).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 1 when any operation failed, 2 when the run could not be made.  Each
run's raw values and host record are written under ``bench/runs/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path[:0] = [str(HERE), str(SRC)]

import hostspeed  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 1
HELD_OUT_SEED = 97          # references exist for both; claims cite the second
SETUP_PROBES = 7            # fresh interpreters timed per run, after one warm-up
CHILD_TIMEOUT = 165
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
UNITS = {m["name"]: m["unit"] for part in ("end_to_end", "per_layer") for m in SPEC[part]}


def child_env() -> dict:
    """One BLAS thread per process, so the pool runs exactly nproc threads.

    Peak RSS is made to follow the live arrays only.  A fixed glibc mmap
    threshold (its default start value) stops the allocator from moving
    it with the order of large frees, which made the same batch peak
    anywhere from 121 to 140 MB.  numpy's transparent-huge-page advice is
    off, because whether the kernel grants huge pages depends on the
    host's free memory and moved the same batch by 6 MB between runs.
    """
    env = dict(os.environ)
    env.pop("BARLINEAGE_WORKERS", None)
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1", MALLOC_MMAP_THRESHOLD_="131072",
               NUMPY_MADVISE_HUGEPAGE="0")
    return env


def _child(*args) -> list:
    return [sys.executable, str(HERE / "child.py"), *map(str, args)]


def time_setup(name: str, seed: int, workdir: Path) -> list:
    """Seconds from launching a fresh interpreter to its ``ready`` line.

    Not scaled by the calibration loop: start-up is file and import work
    that the loop does not track.
    """
    samples = []
    for i in range(SETUP_PROBES + 1):
        t0 = time.perf_counter()
        proc = subprocess.Popen(_child("setup", name, seed, workdir), env=child_env(),
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        _, err = proc.communicate(timeout=60)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {err.strip()[-2000:]}")
        if i:  # the first probe warms the bytecode and file caches
            samples.append(t1 - t0)
    return samples


def run_child(name: str, seed: int, workdir: Path, seconds: float, trace: int) -> dict:
    proc = subprocess.run(_child("measure", name, seed, workdir, seconds, trace),
                          env=child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"measuring process exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def reference(name: str, seed: int):
    path = HERE / "reference" / f"{name}-seed{seed}.json"
    if not path.exists():
        return None
    return json.loads(path.read_text(encoding="utf-8"))


def check(name: str, seed: int, calls: list, oracle: dict | None) -> tuple[int, int, list]:
    """(attempted, failed, notes): every operation of every call is checked.

    Monte Carlo cells are compared with the stored reference when this
    seed has one, else with the first good call after its independent
    spot check; batch files with the p-values computed from the in-memory
    trees, and with the stored reference when there is one.  A call that
    raised fails all of its operations.
    """
    expected = [e for e in (reference(name, seed), oracle) if e is not None]
    results = [c["result"] for c in calls if "error" not in c]
    bad_keys = set()
    if name != "batch-fixed" and results:
        bad_keys = set(workloads.spot_check(name, seed, results[0]))
        expected = expected or results[:1]
    size = len(expected[0]) if expected else 1
    attempted = failed = 0
    notes = []
    for i, c in enumerate(calls):
        if "error" in c:
            attempted += size
            failed += size
            notes.append(f"call {i} raised: {c['error'].strip().splitlines()[-1]}")
            continue
        bad = set(bad_keys)
        for want in expected:
            bad.update(workloads.failed_ops(name, c["result"], want))
        ops = max(len(c["result"]), size)
        attempted += ops
        failed += min(len(bad), ops)
        if bad:
            notes.append(f"call {i}: {sorted(bad)[:5]}")
    return attempted, failed, notes


def host_record(seed: int) -> dict:
    def read(path):
        try:
            return Path(path).read_text(encoding="utf-8")
        except OSError:
            return ""

    import numpy

    cpu = next((ln.split(":", 1)[1].strip() for ln in read("/proc/cpuinfo").splitlines()
                if ln.startswith("model name")), platform.processor())
    digest = hashlib.sha256()
    for p in sorted(SRC.rglob("*.py")):
        digest.update(p.relative_to(SRC).as_posix().encode() + b"\0" + p.read_bytes())
    commit = "unknown"  # a checkout without git history is identified by src_sha256
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True)
            commit = git.stdout.strip() or commit
        except OSError:
            pass
    return {"commit": commit, "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": workloads.nproc(), "cpu_model": cpu,
            "loadavg_start": read("/proc/loadavg").split()[:3], "seed": seed,
            "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    record = host_record(seed)
    workdir = HERE / ".work" / f"{name}-s{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        oracle = None
        if name == "batch-fixed":
            oracle = workloads.make_batch_inputs(seed, str(workdir / "in"))
        setup = [] if trace else time_setup(name, seed, workdir)
        child = run_child(name, seed, workdir, seconds, trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    calls = child["calls"]
    attempted, failed, notes = check(name, seed, calls, oracle)
    timed = [c for c in calls[1:] if not c["traced"] and "error" not in c]
    if not timed:
        raise RuntimeError(f"every timed call raised; {notes[-1]}")
    if trace:
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in child["per_layer"].items()}
    else:
        values = {
            "wall_s": _scaled_median((c["wall"], c["cal"]) for c in timed),
            "cpu_s": _scaled_median((c["cpu"], c["cal"]) for c in timed),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": child["peak_rss_mb"],
            "correct_frac": 1.0 - failed / attempted,
        }
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
    record.update(workload=name, trace=trace, seconds=seconds, workers=workloads.workers(name),
                  raw_wall_s_per_call=[c["wall"] for c in timed],
                  raw_cpu_s_per_call=[c["cpu"] for c in timed],
                  cal_s_per_call=[c["cal"] for c in timed],
                  raw_traced_wall_s_per_call=[c["wall"] for c in calls[1:]
                                              if c["traced"] and "error" not in c],
                  setup_s_samples=setup,
                  peak_rss_mb=child["peak_rss_mb"],
                  attempted=attempted, failed=failed, failures=notes,
                  metrics={k: v["value"] for k, v in metrics.items()})
    runs = HERE / "runs"
    runs.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    (runs / f"{stamp}-{name}-s{seed}-t{trace}-{os.getpid()}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "notes": notes}


def _scaled_median(pairs) -> float:
    """Median of (seconds, calibration) pairs at the reference host speed."""
    return statistics.median(hostspeed.at_reference_speed(t, cal) for t, cal in pairs)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=(*workloads.NAMES, "all"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "barlineage" / "__init__.py").is_file():
        print(f"error: no barlineage sources under {SRC}", file=sys.stderr)
        return 2
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            res = run_workload(name, args.seed, args.seconds, args.trace)
        except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 2
        results[name] = res
        print(f"{name} seed={args.seed} trace={args.trace}: "
              f"{res['attempted'] - res['failed']}/{res['attempted']} operations correct")
        for note in res["notes"]:
            print(f"  failed {note}")
        if not args.trace:
            for k, m in res["metrics"].items():
                print(f"  {k:<13} {m['value']:.6g} {m['unit']}")
    if len(results) == 1:
        res = next(iter(results.values()))
        summary = {k: res[k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items()
                        for k, m in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
