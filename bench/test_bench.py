"""Self-checks of the benchmark: span arithmetic, the independent oracle,
tracing transparency, the seed's exact counts, and the output contract.

    PYTHONPATH=src python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import barlineage  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_self_time_is_duration_minus_children():
    rec = tracing.Recorder()
    inner = rec.wrap("x.inner", lambda: time.sleep(0.02))

    def body():
        time.sleep(0.03)
        inner()
        inner()

    rec.wrap("x.outer", body)()
    spans, pools = rec.take()
    stats = tracing.Stats()
    stats.add(spans, pools, wall=1.0)
    outer = next(s for s in spans if s[0] == "x.outer")
    kids = [s[2] - s[1] for s in spans if s[0] == "x.inner"]
    assert len(kids) == 2 and all(s[3] == spans.index(outer) for s in spans[1:])
    assert stats.self_time["x.outer"] == pytest.approx(outer[2] - outer[1] - sum(kids), abs=1e-9)
    assert stats.self_time["x.inner"] == pytest.approx(sum(kids), abs=1e-9)
    assert 0.03 <= stats.self_time["x.outer"] < 0.03 + min(kids)


@pytest.mark.parametrize("table", [1, 2, 3])
def test_oracle_matches_run_replica(table):
    import oracle

    cfg = barlineage.table_config(table, replicas=8, master_seed=777)
    for g in (7, 11):
        for h in ("H0", "H1"):
            for r in range(8):
                p = barlineage.run_replica(cfg, h, g, r)
                q = oracle.replica_pvalue(cfg, h, g, r)
                if isinstance(p, float):
                    assert q is not None and abs(p - q) <= workloads.P_TOL, (g, h, r)
                else:
                    assert q is None, (g, h, r, p)


def _traced(fn):
    rec, stats = tracing.Recorder(), tracing.Stats()
    rec.install()
    try:
        t0 = time.perf_counter()
        out = fn()
        wall = time.perf_counter() - t0
    finally:
        rec.uninstall()
    return out, rec, stats, wall


@pytest.mark.parametrize("table,workers,counts_calls,invert_calls", [
    (1, 1, 2, 0), (3, 1, 3, 4), (2, 1, 3, 5), (2, 2, 3, 5),
])
def test_tracing_keeps_pvalues_and_seed_counts(table, workers, counts_calls, invert_calls):
    cfg = barlineage.table_config(table, replicas=12, master_seed=5, generations=(7, 9))
    plain = barlineage.run_table(cfg, workers=workers)
    traced, rec, stats, wall = _traced(lambda: barlineage.run_table(cfg, workers=workers))
    assert traced == plain
    for key, pvals in plain.pvalues.items():
        assert traced.pvalues[key].tolist() == pvals.tolist()
    spans, pools = rec.take()
    stats.add(spans, pools, wall, tables=1)
    m = stats.metrics(0.0)
    assert m["tree.counts.calls_per_replica"] == counts_calls
    assert m["numerics.invert.calls_per_replica"] == invert_calls
    assert m["mc.pool_starts"] == (len(plain.cells) if workers > 1 else 0)
    assert m["mc.run_replica.d9.us_p50"] > 0 and m["mc.run_replica.d11.us_p50"] == 0
    # uninstall puts every original back
    assert barlineage.bar.invert is barlineage.numerics.invert
    assert barlineage.mc.ProcessPoolExecutor is tracing.ProcessPoolExecutor


def test_tracing_keeps_batch_output_and_counts_ingests(monkeypatch):
    monkeypatch.setattr(workloads, "BATCH_FILES", 4)
    monkeypatch.setattr(workloads, "DEEP_FILES", 1)
    workdir = HERE / ".work" / "test-batch"
    try:
        expected = workloads.make_batch_inputs(3, str(workdir / "in"))
        argv = workloads.build("batch-fixed", 3, str(workdir))
        plain = workloads.summarize("batch-fixed", workloads.call("batch-fixed", argv, None))
        out, rec, stats, wall = _traced(lambda: workloads.call("batch-fixed", argv, None))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    assert workloads.summarize("batch-fixed", out) == plain
    assert workloads.failed_ops("batch-fixed", plain, expected) == []
    spans, pools = rec.take()
    stats.add(spans, pools, wall, files=len(plain))
    m = stats.metrics(0.0)
    assert m["lineage_io.ingest.calls_per_file"] == 2
    assert 0 < m["tree.observed_frac"] < 0.01  # the depth-20 branch dominates the slots


def _bench(*args, cwd=HERE.parent):
    return subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_run_prints_every_declared_metric(trace, section):
    proc = _bench("--workload", "mc-gw", "--seed", "1", "--seconds", "0.5", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    if trace == "1":
        assert "trace.overhead_frac" in result["metrics"]


def test_refuses_to_run_without_the_program():
    bare = HERE / ".work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "bench",
                        ignore=shutil.ignore_patterns(".work", "runs", "__pycache__"))
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        proc = _bench("--workload", "mc-gw", "--seed", "1", "--seconds", "1", "--trace", "0",
                      cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_reference_seeds_have_references():
    for name in workloads.NAMES:
        for seed in (run.DEFAULT_SEED, run.HELD_OUT_SEED):
            assert run.reference(name, seed), (name, seed)
