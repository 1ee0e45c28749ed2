"""Replicated-tree Monte Carlo harness for size/power tables.

Each table cell is (generation, hypothesis): ``replicas`` trees are
simulated to that depth, the configured test is run on each, and the
rejection proportion is recorded per threshold.  Replicas where some
generation has no observed cell (extinct) or where the test statistic
is undefined (degenerate) are removed from the denominator and counted.

Every replica owns the stream keyed by (master_seed, hypothesis,
generation, replica_id), so tables are bit-identical across runs and
across worker counts.  A span of a cell's replicas draws each from its
own stream and fits the survivors in stacks of at most
``tree.STACK_CELLS`` cells; ``run_replica`` is a span of one.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import bar, gw
from .errors import StatError, TooManyDiscards
from .numerics import span_streams
from .tree import MAX_DEPTH, fitted

EXTINCT = "extinct"
DEGENERATE = "degenerate"

TESTS = ("gw_mean", "coefficient", "fixed_point")
_HYP_CODE = {"H0": 0, "H1": 1}

# Reproduction laws of the published size/power experiments: the null
# law on both types, and a perturbed law on one type under the
# alternative.  The perturbed law goes to type 0: the root is type 1,
# so this keeps the root's offspring law at the null and matches the
# published power column (the assignment is NOT distribution-neutral in
# finite samples because extinction rates differ).
P0_LAW = gw.ReproductionLaw(0.04, 0.08, 0.08, 0.8)
P1_LAW = gw.ReproductionLaw(0.15, 0.08, 0.08, 0.69)

# Noise defaults for the trait-process tables (the originals leave the
# noise unstated); configuration values, override freely.
DEFAULT_SIGMA2 = 1.0
DEFAULT_RHO = 0.5


def _is_int(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


# (passes, requirement) of each McConfig field with a check of its own
_FIELD_CHECKS = {
    "which_test": (lambda v: v in TESTS, f"must be one of {TESTS}"),
    "replicas": (lambda v: _is_int(v) and v >= 1, "must be an integer >= 1"),
    "thresholds": (lambda v: 0 < len(set(v)) == len(v) and all(0.0 < t < 1.0 for t in v),
                   "must be one or more distinct values in (0, 1)"),
    "generations": (lambda v: 0 < len(v) and list(v) == sorted(set(v))
                    and all(_is_int(g) and 1 <= g <= MAX_DEPTH for g in v),
                    f"must be one or more, strictly ascending within 1..{MAX_DEPTH}"),
    "master_seed": (_is_int, "must be an integer"),
}


def check_field(name: str, value) -> None:
    """Raise ValueError, naming the field, unless ``value`` passes its McConfig check."""
    passes, requirement = _FIELD_CHECKS.get(name, (lambda v: True, ""))
    if not passes(value):
        raise ValueError(f"{name}: {requirement}")


@dataclass(frozen=True)
class McConfig:
    which_test: str
    gw_null: gw.GwModel
    gw_alt: gw.GwModel | None = None
    bar_null: bar.BarModel | None = None
    bar_alt: bar.BarModel | None = None
    generations: tuple[int, ...] = (7, 8, 9, 10, 11)
    replicas: int = 1000
    thresholds: tuple[float, ...] = (0.05, 0.01, 0.001)
    master_seed: int = 0

    def __post_init__(self):
        for name in _FIELD_CHECKS:
            check_field(name, getattr(self, name))
        if self.which_test != "gw_mean" and self.bar_null is None:
            raise ValueError(f"{self.which_test} needs bar_null")

    @property
    def hypotheses(self) -> tuple[str, ...]:
        alt = self.gw_alt if self.which_test == "gw_mean" else self.bar_alt
        return ("H0", "H1") if alt is not None else ("H0",)


_GW_NULL = gw.GwModel(P0_LAW, P0_LAW)
_BAR_NULL = bar.BarModel(0.5, 0.5, 0.5, 0.5, DEFAULT_SIGMA2, DEFAULT_RHO)
_BAR_ALT = bar.BarModel(0.5, 0.5, 0.5, 0.4, DEFAULT_SIGMA2, DEFAULT_RHO)
_PRESETS = {
    1: McConfig("gw_mean", _GW_NULL, gw_alt=gw.GwModel(P1_LAW, P0_LAW)),
    2: McConfig("coefficient", _GW_NULL, bar_null=_BAR_NULL, bar_alt=_BAR_ALT),
    3: McConfig("fixed_point", _GW_NULL, bar_null=_BAR_NULL, bar_alt=_BAR_ALT),
}


def table_config(table: int, **fields) -> McConfig:
    """Preset configuration of one of the three published experiments,
    with any ``McConfig`` field overridden by keyword."""
    if table not in _PRESETS:
        raise ValueError(f"no preset for table {table}")
    return replace(_PRESETS[table], **fields)


def run_test(which_test: str, tree, values=None):
    """Run one of ``TESTS`` on a lineage: its TestReport, or the raise of
    its StatError.  ``values`` is not read by ``gw_mean`` and may be None
    there.  Given a Forest as ``tree``, run it on every row at once: a list
    of each row's TestReport or StatError."""
    check_field("which_test", which_test)
    if which_test == "gw_mean":
        return gw.gw_mean_test(tree)
    test = bar.coefficient_test if which_test == "coefficient" else bar.fixed_point_test
    return test(bar.estimate_bar(values, tree))


def run_replica(config: McConfig, hypothesis: str, generation: int, replica_id: int):
    """One replica, as a span of one: a p-value, EXTINCT or DEGENERATE."""
    if hypothesis not in config.hypotheses:
        raise ValueError(f"hypothesis {hypothesis!r} is not one of config.hypotheses "
                         f"{config.hypotheses}")
    return _span(config, hypothesis, generation, replica_id, replica_id + 1)[0]


def _span(config, hypothesis, generation, lo, hi):
    """The outcomes of replicas lo .. hi - 1 of one cell, each drawn from its
    own stream: EXTINCT, or its row's p-value in a stack of the survivors
    (``fitted``), or DEGENERATE for a row that ends in a StatError."""
    which, alt = config.which_test, hypothesis == "H1"
    gw_model = config.gw_alt if which == "gw_mean" and alt else config.gw_null
    model = config.bar_alt if alt else config.bar_null

    def replicas():
        for rng in span_streams(config.master_seed, (_HYP_CODE[hypothesis], generation),
                                range(lo, hi)):
            tree = gw.simulate_observation_tree(gw_model, generation, rng)
            if tree.labels[-1] < 1 << generation:  # no orphans: generation n is empty if any is
                yield EXTINCT, None, None
                continue
            values = None if which == "gw_mean" else bar.simulate_bar_values(
                model, generation, model.fixed_point_odd, rng)
            yield None, tree, values

    rows = fitted(lambda forest: run_test(which, forest), replicas())
    return [tag or (DEGENERATE if isinstance(row, StatError) else row.p_value)
            for tag, row in rows]


@dataclass(frozen=True)
class McCell:
    """Aggregated outcome of one (generation, hypothesis) cell."""

    rejections: tuple[int, ...]  # aligned with the table's thresholds
    n_used: int
    n_extinct: int
    n_degenerate: int

    def proportion(self, i: int) -> float:
        return self.rejections[i] / self.n_used if self.n_used else 0.0


@dataclass
class McTable:
    thresholds: tuple[float, ...]
    cells: dict  # (generation, hypothesis) -> McCell
    pvalues: dict = field(default_factory=dict, compare=False)  # raw archives


def _cell_worker(args):
    return _span(*args)


def bounded_workers(requested: int, replicas: int, cpus: int) -> int:
    """Workers to start: ``requested``, at most one per usable CPU and per
    replica, and at least 1 (which runs serially)."""
    return max(1, min(requested, cpus, replicas))


def run_table(config: McConfig, workers: int | None = None) -> McTable:
    """Run the whole grid.  ``workers`` > 1, bounded by the CPUs this process
    may use and by ``replicas``, runs one pool for the table: every cell's
    contiguous replica spans are queued at once and read back in order."""
    if workers is None:
        value = os.environ.get("BARLINEAGE_WORKERS", "1")
        try:
            workers = int(value)
        except ValueError:
            raise ValueError(f"BARLINEAGE_WORKERS: not an integer: {value!r}") from None
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    workers = bounded_workers(workers, config.replicas, cpus)
    keys = [(g, h) for g in config.generations for h in config.hypotheses]
    bounds = np.linspace(0, config.replicas, workers + 1).astype(int)
    spans = [(int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]
    jobs = [(config, h, g, *span) for g, h in keys for span in spans]
    if workers <= 1:
        return _tabulate(config, keys, len(spans), map(_cell_worker, jobs))
    from concurrent.futures import ProcessPoolExecutor  # not at import: a serial run needs none

    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        return _tabulate(config, keys, len(spans), pool.map(_cell_worker, jobs))
    finally:  # after a raise, drop the queued spans rather than run them
        pool.shutdown(cancel_futures=True)


def _tabulate(config, keys, per_cell, chunks):
    """Cells and archives from ``per_cell`` outcome chunks per key, in order;
    the first cell that discards over half its replicas raises TooManyDiscards."""
    cells, archives = {}, {}
    for key in keys:
        outcomes = [o for _ in range(per_cell) for o in next(chunks)]
        pvals = np.array([o for o in outcomes if isinstance(o, float)])
        n_extinct, n_degenerate = outcomes.count(EXTINCT), outcomes.count(DEGENERATE)
        if n_extinct + n_degenerate > config.replicas / 2:
            raise TooManyDiscards(*key, n_extinct + n_degenerate, config.replicas)
        rejections = tuple(int((pvals < t).sum()) for t in config.thresholds)
        cells[key] = McCell(rejections, len(pvals), n_extinct, n_degenerate)
        archives[key] = pvals
    return McTable(tuple(config.thresholds), cells, archives)


# One row per cell x threshold: the CSV header and the JSON keys, with
# the type each column reads back as.
_COLUMNS = ("generation", "hypothesis", "threshold", "rejection_pct",
            "n_used", "n_extinct", "n_degenerate")
_TYPES = (int, str, float, float, int, int, int)
_COUNTS = _COLUMNS[4:]  # one value per cell, repeated on each of its rows
_CSV_HEADER = ",".join(_COLUMNS)


def _rows(table: McTable):
    for (generation, hypothesis), cell in sorted(table.cells.items()):
        for i, t in enumerate(table.thresholds):
            yield (generation, hypothesis, t, round(100.0 * cell.proportion(i), 1),
                   cell.n_used, cell.n_extinct, cell.n_degenerate)


def emit_table(table: McTable, fmt: str = "csv") -> str:
    """Render as CSV (one row per cell x threshold) or the JSON mirror.
    CSV cells are ``str()`` of each value, the shortest text that reads
    back to the same float."""
    if fmt == "json":
        return json.dumps([dict(zip(_COLUMNS, r)) for r in _rows(table)], indent=2) + "\n"
    if fmt != "csv":
        raise ValueError(f"unsupported format {fmt!r}")
    lines = [_CSV_HEADER, *(",".join(map(str, r)) for r in _rows(table))]
    return "\n".join(lines) + "\n"


def parse_table(text: str, fmt: str = "csv") -> McTable:
    """Rebuild an McTable from emit_table output (without p-value archives).

    Every cell must list the same thresholds in the same order, and the
    same counts on each row, as emit_table writes them.  Rejection counts
    are recovered from the one-decimal percentage; the recovery is exact
    whenever n_used <= 1000 (rounding error below half a count), which
    covers the published experiments.  Input that cannot be read raises
    ValueError naming the first row (or cell) it cannot read; so does a
    table with no rows.
    """
    if fmt == "json":
        rows = json.loads(text)
        if not isinstance(rows, list):
            raise ValueError("a JSON table is a list of row objects")
        # a row is named by its JSON text; one that is not an object has no fields
        records = [(json.dumps(r), [r[c] for c in _COLUMNS if c in r] if isinstance(r, dict)
                    else []) for r in rows]
    elif fmt == "csv":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines or lines[0] != _CSV_HEADER:
            raise ValueError("unrecognized table header")
        records = [(ln, ln.split(",")) for ln in lines[1:]]
    else:
        raise ValueError(f"unsupported format {fmt!r}")
    if not records:
        raise ValueError("the table has no rows")
    grouped: dict = {}
    for name, values in records:
        if len(values) != len(_COLUMNS):
            raise ValueError(f"table row {name!r}: expected {len(_COLUMNS)} fields: {_CSV_HEADER}")
        try:
            for c, kind, v in zip(_COLUMNS, _TYPES, values):  # JSON values are not coerced
                if fmt == "json" and not (type(v) is kind or kind is float and type(v) is int):
                    raise ValueError(f"{kind.__name__} column {c} holds {json.dumps(v)}")
            r = {c: kind(v) for c, kind, v in zip(_COLUMNS, _TYPES, values)}
            if not 0.0 <= r["rejection_pct"] <= 100.0:  # nan too
                raise ValueError(f"rejection_pct {r['rejection_pct']} is not in [0, 100]")
            if min(r[c] for c in _COUNTS) < 0:
                raise ValueError(", ".join(f"{c} {r[c]}" for c in _COUNTS) + " must be >= 0")
            r["rejections"] = round(r["rejection_pct"] / 100.0 * r["n_used"])
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"table row {name!r}: {exc}") from None
        grouped.setdefault((r["generation"], r["hypothesis"]), []).append(r)
    thresholds = tuple(r["threshold"] for r in next(iter(grouped.values())))
    cells = {}
    for key, cell_rows in grouped.items():
        if tuple(r["threshold"] for r in cell_rows) != thresholds:
            raise ValueError(f"cell {key} does not list the thresholds {thresholds}")
        counts = {tuple(r[c] for c in _COUNTS) for r in cell_rows}
        if len(counts) > 1:
            raise ValueError(f"cell {key}: its rows disagree on {', '.join(_COUNTS)}")
        cells[key] = McCell(tuple(r["rejections"] for r in cell_rows), *counts.pop())
    return McTable(thresholds, cells)
