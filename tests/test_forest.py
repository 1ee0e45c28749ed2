"""Many lineages fitted as one Forest: each row is its tree's own fit.

A row's p-value (or StatError) must be the very bytes that its tree gives
alone, whichever rows stand beside it and in whatever order: no sum,
check or non-finite value of one row may reach another.  ``batch`` fits
its files this way, in stacks of at most ``tree.STACK_CELLS`` cells.  A
tree alone is fitted as its one-row forest, so each single-tree function
gives its row of the stacked call, and no fit lets a numpy warning out.
"""

import contextlib
import dataclasses
import io
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from barlineage import (
    BarModel,
    GwModel,
    ObservationTree,
    ValueTree,
    coefficient_test,
    emit_lineage,
    estimate_bar,
    fixed_point_test,
    gw_mean_test,
    ingest,
    replica_stream,
    simulate_bar_values,
    simulate_observation_tree,
)
from barlineage import cli, report
from barlineage.bar import residual_noise_estimates, sufficient_stats
from barlineage.errors import DegenerateVariance, StatError
from barlineage.mc import P0_LAW, TESTS, run_test
from barlineage.tree import Forest, as_forest

from conftest import overflowing_leaves
from test_cli import CANCELLING, HUGE


def _from_text(text):
    rows = [ln.split(",") for ln in text.splitlines()[1:]]
    labels = np.array([int(k) for k, _ in rows])
    depth = int(labels[-1]).bit_length() - 1
    return ObservationTree(depth, labels), ValueTree(depth, [float(v) for _, v in rows], labels)


def _chain():
    labels = np.array([1, 2, 5, 10, 21, 42, 85])
    return (ObservationTree(6, labels),
            ValueTree(6, np.array([0.3, -1.2, 0.8, 2.1, -0.4, 0.9, 1.7]), labels))


FIXTURES = {
    "huge": _from_text(HUGE),
    "cancelling": _from_text(CANCELLING),
    "overflowing_leaves": overflowing_leaves(),
    "constant": _from_text("index,value\n" + "".join(f"{k},1.0\n" for k in range(1, 16))),
    "no_sister_pair": _chain(),
}
GW_MODEL = GwModel(P0_LAW, P0_LAW)
BAR_MODEL = BarModel(0.5, 0.5, 0.5, 0.4, 1.0, 0.5)


def simulated(depth, seed):
    rng = replica_stream(seed)
    tree = simulate_observation_tree(GW_MODEL, depth, rng)
    return tree, simulate_bar_values(BAR_MODEL, depth, BAR_MODEL.fixed_point_odd, rng)


@st.composite
def lineages(draw):
    """Simulated lineages of depths 3 to 11 and some of the fixtures, in any order."""
    drawn = [simulated(d, s) for d, s in draw(st.lists(
        st.tuples(st.integers(3, 11), st.integers(0, 2**32 - 1)), max_size=6))]
    drawn += [FIXTURES[k] for k in draw(st.lists(st.sampled_from(sorted(FIXTURES)),
                                                 unique=True))]
    if not drawn:
        drawn = [FIXTURES["huge"]]
    return [drawn[i] for i in draw(st.permutations(range(len(drawn))))]


def alone(which, tree, values):
    """The outcome of one tree fitted alone: its p-value's bytes, or its error."""
    try:
        with np.errstate(all="ignore"):  # as `barlineage test` runs it
            return run_test(which, tree, values).p_value.hex()
    except StatError as exc:
        return type(exc), str(exc)


def as_outcome(row):
    return (type(row), str(row)) if isinstance(row, StatError) else row.p_value.hex()


def _simulated(_):
    return simulated(9, 5)


def _from_indices(_):
    tree = ObservationTree.from_indices(4, [7, 1, 3, 2, 6, 15, 4, 14, 1])
    return tree, ValueTree(4, np.arange(32.0))


def _ingested(directory):
    path = directory / "lineage.csv"
    path.write_text(emit_lineage(*simulated(7, 11)), encoding="utf-8")
    return ingest(path)


@pytest.mark.parametrize("build", [_simulated, _from_indices, _ingested],
                         ids=["simulated", "from_indices", "ingested"])
def test_a_tree_fits_as_its_stored_row(build, tmp_path):
    tree, values = build(tmp_path)
    row, fitted, stacked = as_forest(tree), as_forest(tree, values), Forest.of([tree], [values])
    assert as_forest(tree) is row and row.x is None
    assert row.labels is tree.observed_indices()
    for name in Forest._fields:
        a, b = getattr(fitted, name), getattr(stacked, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
        if name != "x":
            assert a is getattr(row, name), name
            assert not a.flags.writeable, name
    assert "single" not in Forest._fields  # a tree's row is a one-row forest like any other


@settings(max_examples=40, deadline=None)
@given(lineages())
def test_each_row_is_its_tree_alone(drawn):
    forest = Forest.of([t for t, _ in drawn], [v for _, v in drawn])
    for which in TESTS:
        rows = run_test(which, forest)
        assert [as_outcome(r) for r in rows] == [alone(which, t, v) for t, v in drawn]


def _batch(directory, which):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert cli.main(["batch", str(directory), "--which", which]) == 0
    return out.getvalue(), err.getvalue()


@settings(max_examples=15, deadline=None)
@given(lineages())
def test_batch_rows_do_not_depend_on_the_stack(drawn):
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        for i, (tree, values) in enumerate(drawn):
            text = emit_lineage(tree, values, {"depth": tree.depth})
            (directory / f"{i:02d}.csv").write_text(text, encoding="utf-8")
        for which, name in sorted(cli._TEST_ALIASES.items()):
            expected = ["file,test,p_value"]
            for path in sorted(directory.glob("*.csv")):
                outcome = alone(name, *ingest(path))
                p = "nan" if isinstance(outcome, tuple) else f"{float.fromhex(outcome):.17g}"
                expected.append(f"{path.name},{name},{p}")
            together = _batch(directory, which)
            assert together[0].splitlines() == expected
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr("barlineage.tree.STACK_CELLS", 1)  # one file per fit
                assert _batch(directory, which) == together


def test_a_non_finite_fit_warns_of_nothing():
    # the residual squares overflow: sigma2_hat is inf, and each test's
    # variance inf or nan, whether the tree is fitted alone or in a forest
    tree, values = overflowing_leaves()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = estimate_bar(None, Forest.of([tree], [values]))
        rows = coefficient_test(est) + fixed_point_test(est)
        assert [type(r) for r in rows] == [DegenerateVariance] * 2
        alone = estimate_bar(values, tree)
        assert alone.sigma2_hat == np.inf and alone.errors is None
        for test in (coefficient_test, fixed_point_test):
            with pytest.raises(DegenerateVariance):
                test(alone)
        for which in TESTS:
            with pytest.raises(DegenerateVariance):
                run_test(which, tree, values)


THETA = np.array([0.1, 0.5, 0.2, 0.4])


def _fields(result, pick=lambda v: v):
    """Each field of a result but ``errors``, as ``pick`` reads one tree's
    value off it: arrays as their dtype, shape and bytes."""
    out = {}
    for f in dataclasses.fields(result):
        v = getattr(result, f.name)
        if f.name == "counts":
            out[f.name] = tuple(int(pick(n)) for n in v)
        elif f.name == "warnings":
            out[f.name] = tuple(pick(v))
        elif f.name != "errors":
            a = np.asarray(pick(v))
            out[f.name] = (a.dtype.str, a.shape, a.tobytes())
    return out


def _error(exc):
    return type(exc), str(exc)


def _alone(call):
    """What a single-tree call gives: its fields or report, or its error."""
    try:
        result = call()
    except StatError as exc:
        return _error(exc)
    if isinstance(result, report.TestReport):
        return json.dumps(result.to_json_dict())
    assert getattr(result, "errors", None) is None
    assert all(type(n) is int for n in getattr(result, "counts", ()))
    return _fields(result)


def _row(result, r):
    """Row r of a stacked call, as ``_alone`` reads a single-tree call."""
    if isinstance(result, list):  # a test's rows
        row = result[r]
        return _error(row) if isinstance(row, StatError) else json.dumps(row.to_json_dict())
    errors = getattr(result, "errors", None)
    if errors and errors[r]:
        return _error(errors[r])
    return _fields(result, lambda v: v[r])


@settings(max_examples=30, deadline=None)
@given(lineages())
def test_each_tree_function_gives_its_row(drawn):
    forest = Forest.of([t for t, _ in drawn], [v for _, v in drawn])
    stats, est = sufficient_stats(None, forest), estimate_bar(None, forest)
    noise = residual_noise_estimates(None, forest, np.tile(THETA, (len(drawn), 1)))
    tests = gw_mean_test(forest), coefficient_test(est), fixed_point_test(est)
    for r, (tree, values) in enumerate(drawn):
        assert _alone(lambda: sufficient_stats(values, tree)) == _row(stats, r)
        assert _alone(lambda: estimate_bar(values, tree)) == _row(est, r)
        assert _alone(lambda: residual_noise_estimates(values, tree, THETA)) == _row(noise, r)
        alone = (_alone(lambda: gw_mean_test(tree)),
                 _alone(lambda: coefficient_test(estimate_bar(values, tree))),
                 _alone(lambda: fixed_point_test(estimate_bar(values, tree))))
        assert alone == tuple(_row(rows, r) for rows in tests)
