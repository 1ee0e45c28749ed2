"""The four benchmark workloads: inputs, the timed call, and output checks.

Every workload is built from one integer workload seed.  The program
under test receives only a config (Monte Carlo presets) or an argv and a
directory of lineage files (batch); everything else here runs outside
the timed region.

Why these four:

- ``mc-gw``: preset table 1 (GW mean test), serial.  GW simulation,
  ``tree.counts`` and GW estimation with ``bar`` idle: the bypass
  workload for any ``bar`` change.
- ``mc-fixed``: preset table 3 (fixed-point test), serial.  The full
  replica pipeline and the plain single-threaded baseline.
- ``mc-coeff-pool``: preset table 2 (coefficient test) over ``nproc``
  workers.  The only workload through the process pool and through
  ``coefficient_test``.
- ``batch-fixed``: ``barlineage batch --which fixed`` over generated
  files.  The only workload through ``lineage_io`` and ``cli``; it runs
  no simulation, and its deep sparse files make peak memory follow the
  dense ``2^(depth+1)`` tree arrays.
"""

from __future__ import annotations

import math
import os

GENERATIONS = (7, 8, 9, 10, 11)
P_TOL = 1e-12

# replicas per table cell: one call takes 0.5-1 s on a 2-core Xeon VM,
# so a run of run_seconds holds a few dozen calls
MC_REPLICAS = {"mc-gw": 100, "mc-fixed": 60, "mc-coeff-pool": 100}
MC_TABLE = {"mc-gw": 1, "mc-fixed": 3, "mc-coeff-pool": 2}

# one depth-20 branch costs as much as ~30 depth-9 files and is memory
# bound, which the host-speed calibration tracks less well: one keeps the
# dense-array path and its peak RSS in view without dominating the time
BATCH_FILES = 60          # depth-9 lineages from the null model
BATCH_DEPTH = 9
DEEP_FILES = 1            # sparse single-branch lineages
DEEP_DEPTH = 20
SPOT_REPLICAS = 6         # replicas per cell recomputed by the oracle

NAMES = ("mc-gw", "mc-fixed", "mc-coeff-pool", "batch-fixed")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def workers(name: str) -> int:
    return nproc() if name == "mc-coeff-pool" else 1


def build(name: str, seed: int, workdir: str | None):
    """What the timed call needs: a McConfig, or the batch argv."""
    import barlineage

    if name == "batch-fixed":
        out = os.path.join(workdir, "out.csv")
        return ["batch", os.path.join(workdir, "in"), "--which", "fixed", "--out", out]
    return barlineage.table_config(
        MC_TABLE[name], replicas=MC_REPLICAS[name], master_seed=seed,
        generations=GENERATIONS,
    )


def call(name: str, setup, workdir: str | None):
    """The end-to-end call a user waits for; returns its raw output."""
    import barlineage
    import barlineage.cli

    if name == "batch-fixed":
        rc = barlineage.cli.main(setup)
        if rc != 0:
            raise RuntimeError(f"barlineage batch exited {rc}")
        with open(setup[-1], encoding="utf-8") as fh:
            return fh.read()
    table = barlineage.run_table(setup, workers=workers(name))
    return table, barlineage.emit_table(table)


# ------------------------------------------------------------ canonical results

def _csv_rows(text: str):
    """Rows of a CSV as dicts by header name, skipping ``#`` comments."""
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def summarize(name: str, output) -> dict:
    """Reduce one call's output to values that can be compared and sent as JSON.

    Monte Carlo: per cell the rejection counts, n_used, the sorted
    p-value archive, and whether the emitted table agrees with the cell.
    Batch: ``file -> p_value`` as printed (``nan`` kept as a string).
    """
    if name == "batch-fixed":
        return {r["file"]: r["p_value"] for r in _csv_rows(output)}
    table, text = output
    emitted = {}
    for r in _csv_rows(text):
        emitted.setdefault(f"{r['generation']},{r['hypothesis']}", []).append(r)
    cells = {}
    for (g, h), cell in sorted(table.cells.items()):
        key = f"{g},{h}"
        pvals = sorted(float(p) for p in table.pvalues[(g, h)])
        cells[key] = {
            "rejections": [int(r) for r in cell.rejections],
            "n_used": int(cell.n_used),
            "pvalues": pvals,
            "emitted_ok": _emitted_ok(emitted.get(key, []), table.thresholds, cell),
        }
    return cells


def _emitted_ok(rows, thresholds, cell) -> bool:
    """The emitted rows state the cell's counts (values, not bytes)."""
    if len(rows) != len(thresholds):
        return False
    for r, t, rej in zip(rows, thresholds, cell.rejections):
        if float(r["threshold"]) != t or int(r["n_used"]) != cell.n_used:
            return False
        if "rejections" in r:
            if int(r["rejections"]) != rej:
                return False
        elif cell.n_used:
            pct = 100.0 * rej / cell.n_used
            if abs(float(r["rejection_pct"]) - pct) > 0.05 + 1e-9:
                return False
    return True


def _p_equal(a, b) -> bool:
    a, b = float(a), float(b)
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= P_TOL


def failed_ops(name: str, got: dict, expected: dict) -> list:
    """Operations (table cells or batch files) whose result differs."""
    bad = []
    for key, want in expected.items():
        have = got.get(key)
        if have is None:
            bad.append(key)
        elif name == "batch-fixed":
            if not _p_equal(have, want):
                bad.append(key)
        elif not _cell_equal(have, want):
            bad.append(key)
    bad.extend(k for k in got if k not in expected)
    return bad


def _cell_equal(have: dict, want: dict) -> bool:
    if have["rejections"] != want["rejections"] or have["n_used"] != want["n_used"]:
        return False
    if not have.get("emitted_ok", True):
        return False
    if len(have["pvalues"]) != len(want["pvalues"]):
        return False
    return all(abs(a - b) <= P_TOL for a, b in zip(have["pvalues"], want["pvalues"]))


# ------------------------------------------------------------------ oracles

def spot_check(name: str, seed: int, cells: dict) -> list:
    """Cells that fail an independent recomputation or a consistency check.

    The first SPOT_REPLICAS replicas of each cell are recomputed by
    oracle.py, which shares no code with barlineage; each p-value must
    appear in the cell's archive.  Rejections must count the archive
    against the thresholds.
    """
    import numpy as np

    import oracle

    cfg = build(name, seed, None)
    bad = []
    for key, cell in cells.items():
        g, h = key.split(",")
        archive = np.asarray(cell["pvalues"])
        ok = cell["n_used"] == archive.size and cell["n_used"] <= cfg.replicas
        ok = ok and cell["rejections"] == [int((archive < t).sum()) for t in cfg.thresholds]
        for r in range(SPOT_REPLICAS):
            p = oracle.replica_pvalue(cfg, h, int(g), r)
            if p is not None and not (np.abs(archive - p) <= P_TOL).any():
                ok = False
        if not ok:
            bad.append(key)
    return bad


# ------------------------------------------------------------- batch inputs

def make_batch_inputs(seed: int, directory: str) -> dict:
    """Write the batch lineage files; return the expected ``file -> p_value``.

    Expected p-values come from oracle.py on the in-memory trees, so the
    check covers the file round trip, ``ingest``, the CLI and the
    estimator.
    """
    import barlineage as bl
    import barlineage.mc as mc
    import oracle

    os.makedirs(directory, exist_ok=True)
    law = mc.P0_LAW
    gw_model = bl.GwModel(law, law)
    model = bl.BarModel(0.5, 0.5, 0.5, 0.5, mc.DEFAULT_SIGMA2, mc.DEFAULT_RHO)
    x1 = model.fixed_point_odd
    expected = {}

    def emit(fname, tree, values, params):
        with open(os.path.join(directory, fname), "w", encoding="utf-8") as fh:
            fh.write(bl.emit_lineage(tree, values, params))
        cells = {int(k): float(values.x[k]) for k in tree.observed_indices()}
        p = oracle.bar_pvalue(cells, tree.depth, "fixed_point")
        expected[fname] = "nan" if p is None else f"{p:.17g}"

    for i in range(BATCH_FILES):
        for attempt in range(100):
            rng = bl.replica_stream(seed, 0xBA7C, i, attempt)
            tree = bl.simulate_observation_tree(gw_model, BATCH_DEPTH, rng)
            if not tree.counts().extinct:
                break
        values = bl.simulate_bar_values(model, BATCH_DEPTH, x1, rng)
        emit(f"lineage-{i:03d}.csv", tree, values,
             {"depth": BATCH_DEPTH, "seed": seed, "file": i, "attempt": attempt})

    for i in range(DEEP_FILES):
        rng = bl.replica_stream(seed, 0xDEE9, i)
        # one branch that alternates even and odd daughters, like a
        # mother-machine trace; the first daughter's parity is drawn
        parity = int(rng.integers(2))
        path, k = [1], 1
        for g in range(DEEP_DEPTH):
            k = 2 * k + (parity + g) % 2
            path.append(k)
        tree = bl.ObservationTree.from_indices(DEEP_DEPTH, path)
        values = bl.simulate_bar_values(model, DEEP_DEPTH, x1, rng)
        emit(f"deep-{i:02d}.csv", tree, values,
             {"depth": DEEP_DEPTH, "seed": seed, "deep": i})
    return expected
