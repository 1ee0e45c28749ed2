"""One fresh interpreter of a benchmark run.

    child.py setup   WORKLOAD SEED WORKDIR
        import barlineage, build the config or argv, print ``ready``.
    child.py measure WORKLOAD SEED WORKDIR SECONDS TRACE
        one warm-up call, then timed calls for SECONDS, each between two
        host-speed calibration loops; with TRACE=1 the calls alternate
        untraced and traced.  Prints one JSON line.

The parent (run.py) sets PYTHONPATH to the checkout's ``src`` and pins
BLAS to one thread.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import hostspeed
import workloads

MIN_CALLS = 5      # timed calls per run, at least
CAP_SECONDS = 120  # no call starts after this, whatever SECONDS says


def _cpu() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def _timed_call(name, setup, workdir) -> dict:
    """One call; an exception is reported as the call's result, not raised."""
    try:
        c0, t0 = _cpu(), time.perf_counter()
        output = workloads.call(name, setup, workdir)
        t1, c1 = time.perf_counter(), _cpu()
    except Exception:  # noqa: BLE001  (every operation of the call failed)
        return {"error": traceback.format_exc()}
    return {"wall": t1 - t0, "cpu": c1 - c0, "result": workloads.summarize(name, output)}


def measure(name: str, seed: int, workdir: str, seconds: float, traced: bool) -> dict:
    setup = workloads.build(name, seed, workdir)
    calls = [dict(_timed_call(name, setup, workdir), traced=False)]  # warm-up
    recorder = stats = None
    if traced:
        import tracing

        recorder, stats = tracing.Recorder(), tracing.Stats()
        files = len(list(Path(setup[1]).glob("*.csv"))) if name == "batch-fixed" else 0
    start = time.perf_counter()
    timed = 0
    cal_before = hostspeed.calibrate()
    while True:
        trace_this = traced and timed % 2 == 1
        if trace_this:
            recorder.install()
        try:
            call = _timed_call(name, setup, workdir)
        finally:
            if trace_this:
                recorder.uninstall()
        cal_after = hostspeed.calibrate()
        call.update(cal=0.5 * (cal_before + cal_after), traced=trace_this)
        cal_before = cal_after
        if trace_this:
            spans, pools = recorder.take()
            if "error" not in call:
                stats.add(spans, pools, call["wall"], tables=int(files == 0), files=files)
        calls.append(call)
        timed += 1
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and timed >= MIN_CALLS) or elapsed >= CAP_SECONDS:
            break
    out = {"calls": calls, "peak_rss_mb": _peak_rss_mb()}
    if traced:
        def scaled(traced_calls):
            xs = [hostspeed.at_reference_speed(c["wall"], c["cal"])
                  for c in calls[1:] if c["traced"] == traced_calls and "error" not in c]
            return statistics.median(xs) if xs else None

        with_trace, without = scaled(True), scaled(False)
        overhead = with_trace / without - 1.0 if with_trace and without else 0.0
        out["per_layer"] = stats.metrics(overhead)
    return out


def main(argv) -> int:
    mode, name, seed, workdir = argv[0], argv[1], int(argv[2]), argv[3]
    if mode == "setup":
        workloads.build(name, seed, workdir)
        sys.stdout.write("ready\n")
        sys.stdout.flush()
        return 0
    result = measure(name, seed, workdir, float(argv[4]), argv[5] == "1")
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
