"""Record the reference outputs that run.py checks every call against.

    python3 bench/record_reference.py

Writes ``bench/reference/<workload>-seed<N>.json`` for the default and
the held-out workload seed.  Monte Carlo references hold per-cell
rejection counts, ``n_used`` and the sorted p-value archive; batch
references hold ``file -> p_value``.  A reference is written only after
it passes the same independent checks a run applies, so re-record only
from a commit whose tables are known to be right.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import workloads


def record(name: str, seed: int) -> dict:
    workdir = run.HERE / ".work" / f"reference-{name}-s{seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        oracle = None
        if name == "batch-fixed":
            oracle = workloads.make_batch_inputs(seed, str(workdir / "in"))
        setup = workloads.build(name, seed, str(workdir))
        result = workloads.summarize(name, workloads.call(name, setup, str(workdir)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if oracle is not None:
        bad = workloads.failed_ops(name, result, oracle)
    else:
        bad = workloads.spot_check(name, seed, result)
        for cell in result.values():
            del cell["emitted_ok"]
    if bad:
        raise SystemExit(f"{name} seed {seed}: not recorded, failed {bad}")
    return result


def main() -> int:
    out = run.HERE / "reference"
    out.mkdir(exist_ok=True)
    for name in workloads.NAMES:
        for seed in (run.DEFAULT_SEED, run.HELD_OUT_SEED):
            path = out / f"{name}-seed{seed}.json"
            path.write_text(json.dumps(record(name, seed), indent=0) + "\n", encoding="utf-8")
            print(f"wrote {path.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
