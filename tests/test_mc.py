import concurrent.futures
import json
import multiprocessing
import os
import re
import sys
import threading
import time

import numpy as np
import pytest

from barlineage import (
    BarModel,
    GwModel,
    McConfig,
    ObservationTree,
    ReproductionLaw,
    TooManyDiscards,
    emit_table,
    parse_table,
    replica_stream,
    run_replica,
    run_table,
    table_config,
)
from barlineage import bar, gw, mc
from barlineage.mc import (
    DEGENERATE,
    EXTINCT,
    P0_LAW,
    P1_LAW,
    McCell,
    McTable,
    bounded_workers,
    run_test,
)
from barlineage.tree import Forest

from conftest import overflowing_leaves

SMALL = table_config(1, replicas=40, generations=(7, 8), master_seed=5)


@pytest.fixture
def two_cpus(monkeypatch):
    """Let ``workers=2`` start two workers whatever the host's CPU count."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


class TestConfig:
    def test_presets(self):
        t1 = table_config(1)
        assert t1.which_test == "gw_mean"
        assert t1.gw_null.law0 == P0_LAW and t1.gw_null.law1 == P0_LAW
        assert t1.gw_alt.law0 == P1_LAW
        assert t1.hypotheses == ("H0", "H1")
        assert table_config(2).which_test == "coefficient"
        assert table_config(3).which_test == "fixed_point"
        for t in (2, 3):
            cfg = table_config(t)
            assert cfg.bar_null.b == cfg.bar_null.d == 0.5
            assert cfg.bar_alt.d == 0.4

    def test_preset_fields_can_be_overridden(self):
        cfg = table_config(2, thresholds=(0.1,), bar_alt=None, replicas=7)
        assert cfg.thresholds == (0.1,) and cfg.hypotheses == ("H0",)
        assert cfg.replicas == 7 and cfg.which_test == "coefficient"
        assert table_config(2).thresholds == (0.05, 0.01, 0.001)

    def test_no_preset_for_unknown_table(self):
        with pytest.raises(ValueError):
            table_config(4)

    def test_rejects_bad_values(self):
        law = GwModel(P0_LAW, P0_LAW)
        with pytest.raises(ValueError):
            McConfig(which_test="nope", gw_null=law)
        with pytest.raises(ValueError):
            McConfig(which_test="gw_mean", gw_null=law, replicas=0)
        with pytest.raises(ValueError):
            McConfig(which_test="gw_mean", gw_null=law, thresholds=(1.5,))
        with pytest.raises(ValueError, match="distinct"):
            McConfig(which_test="gw_mean", gw_null=law, thresholds=(0.05, 0.05))
        with pytest.raises(ValueError, match="one or more"):  # a table with no rows
            McConfig(which_test="gw_mean", gw_null=law, thresholds=())
        with pytest.raises(ValueError):
            McConfig(which_test="gw_mean", gw_null=law, generations=(9, 7))
        with pytest.raises(ValueError):
            McConfig(which_test="coefficient", gw_null=law)
        for field, value in (("replicas", 2.5), ("replicas", True), ("generations", (7.5,)),
                             ("generations", (True, 3)), ("master_seed", 1.5)):
            with pytest.raises(ValueError, match=field):
                McConfig(which_test="gw_mean", gw_null=law, **{field: value})

    @pytest.mark.parametrize("generations", [(4, 4), (7, 9, 9), (0, 3), (3, 31), ()])
    def test_generations_strictly_ascending_in_range(self, generations):
        law = GwModel(P0_LAW, P0_LAW)
        with pytest.raises(ValueError, match="strictly ascending"):
            McConfig(which_test="gw_mean", gw_null=law, generations=generations)

    def test_null_only_when_no_alternative(self):
        cfg = McConfig(which_test="gw_mean", gw_null=GwModel(P0_LAW, P0_LAW))
        assert cfg.hypotheses == ("H0",)


class TestRunReplica:
    def test_deterministic(self):
        cfg = table_config(2, replicas=1)
        a = run_replica(cfg, "H0", 8, 3)
        b = run_replica(cfg, "H0", 8, 3)
        assert a == b

    def test_distinct_streams_give_distinct_pvalues(self):
        cfg = table_config(2, replicas=1)
        outs = {run_replica(cfg, "H0", 8, r) for r in range(6)}
        assert len([o for o in outs if isinstance(o, float)]) >= 2

    def test_pvalues_in_unit_interval(self):
        cfg = table_config(1, replicas=1)
        for r in range(20):
            out = run_replica(cfg, "H1", 7, r)
            if isinstance(out, float):
                assert 0.0 <= out <= 1.0
            else:
                assert out in (EXTINCT, DEGENERATE)

    def test_certain_extinction(self):
        dead = GwModel(
            ReproductionLaw(1.0, 0.0, 0.0, 0.0), ReproductionLaw(1.0, 0.0, 0.0, 0.0)
        )
        cfg = McConfig(which_test="gw_mean", gw_null=dead, replicas=4,
                       generations=(7,))
        assert run_replica(cfg, "H0", 7, 0) == EXTINCT

    def test_exact_fit_is_degenerate(self):
        # two daughters per type at generation 3: sigma2_hat is roundoff
        cfg = table_config(2, master_seed=1, generations=(3,))
        assert run_replica(cfg, "H0", 3, 33) == DEGENERATE

    @pytest.mark.parametrize("table", [2, 3])
    def test_non_finite_statistic_is_degenerate(self, monkeypatch, table):
        tree, values = overflowing_leaves()
        monkeypatch.setattr(gw, "simulate_observation_tree", lambda *args: tree)
        monkeypatch.setattr(bar, "simulate_bar_values", lambda *args: values)
        cfg = table_config(table, generations=(3,))
        with np.errstate(all="ignore"):
            assert run_replica(cfg, "H0", 3, 0) == DEGENERATE

    @pytest.mark.parametrize("config, hypothesis", [
        (table_config(1, gw_alt=None), "H1"),
        (table_config(3, bar_alt=None), "H1"),
        (table_config(2), "H2"),
        (table_config(1), "h0"),
    ], ids=["gw-null-only", "bar-null-only", "H2", "h0"])
    def test_a_hypothesis_the_config_does_not_run_is_named(self, config, hypothesis):
        with pytest.raises(ValueError) as exc:
            run_replica(config, hypothesis, 7, 0)
        assert repr(hypothesis) in str(exc.value) and str(config.hypotheses) in str(exc.value)

    def test_run_test_rejects_unknown_name(self):
        tree = ObservationTree.from_indices(3, range(1, 16))
        with pytest.raises(ValueError):
            run_test("anova", tree, None)

    def test_a_replica_fits_as_its_forest_row(self):
        # table 3, seed 97, H1, generation 10, replica 35: fitted alone, this
        # tree once squared 1 - b_hat by libm pow, an ulp off its forest row
        cfg = table_config(3, master_seed=97)
        rng = replica_stream(97, 1, 10, 35)
        tree = gw.simulate_observation_tree(cfg.gw_null, 10, rng)
        values = bar.simulate_bar_values(cfg.bar_alt, 10, cfg.bar_alt.fixed_point_odd, rng)
        (row,) = run_test("fixed_point", Forest.of([tree], [values]))
        alone = run_test("fixed_point", tree, values).p_value
        assert alone.hex() == row.p_value.hex() == "0x1.a9bbd6f59ec25p-4"
        assert run_replica(cfg, "H1", 10, 35).hex() == alone.hex()

    @pytest.mark.parametrize("hypothesis", ["H0", "H1"])
    def test_extinct_exactly_when_a_generation_is_empty(self, hypothesis):
        # the worker reads extinction off the deepest label alone
        cfg = table_config(1, master_seed=3)
        model = cfg.gw_alt if hypothesis == "H1" else cfg.gw_null
        seen = set()
        for depth in range(1, 12):
            for r in range(60):
                rng = replica_stream(3, int(hypothesis == "H1"), depth, r)
                extinct = gw.simulate_observation_tree(model, depth, rng).counts().extinct
                assert (run_replica(cfg, hypothesis, depth, r) == EXTINCT) == extinct
                seen.add(extinct)
        assert seen == {False, True}

    def test_threads_keep_their_own_streams(self):
        # each replica re-keys its thread's one generator; threads switched
        # every microsecond must still give the serial outcomes
        cfg = table_config(3, master_seed=9)
        jobs = [range(r, 120, 4) for r in range(4)]
        serial = [[run_replica(cfg, "H1", 6, r) for r in ids] for ids in jobs]
        threaded = [None] * len(jobs)

        def work(i):
            threaded[i] = [run_replica(cfg, "H1", 6, r) for r in jobs[i]]

        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(jobs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert threaded == serial


def _hexed(outcomes):
    return [o.hex() if isinstance(o, float) else o for o in outcomes]


@pytest.mark.parametrize("table", [1, 2, 3])
def test_outcomes_do_not_depend_on_the_span_or_the_stack(monkeypatch, table):
    cfg = table_config(table, master_seed=1)
    kinds = set()
    for generation, hypothesis in ((3, "H0"), (7, "H1"), (10, "H0")):
        whole = _hexed(mc._span(cfg, hypothesis, generation, 0, 74))
        for size in (1, 7, 37):
            spans = [mc._span(cfg, hypothesis, generation, lo, min(lo + size, 74))
                     for lo in range(0, 74, size)]
            assert _hexed(o for span in spans for o in span) == whole
        with monkeypatch.context() as mp:
            mp.setattr("barlineage.tree.STACK_CELLS", 1)  # every survivor fitted alone
            assert _hexed(mc._span(cfg, hypothesis, generation, 0, 74)) == whole
        kinds.update(o if o in (EXTINCT, DEGENERATE) else "p" for o in whole)
    assert kinds == {EXTINCT, DEGENERATE, "p"}


class TestRunTable:
    def test_shape_and_counts(self):
        table = run_table(SMALL)
        assert set(table.cells) == {(7, "H0"), (7, "H1"), (8, "H0"), (8, "H1")}
        for cell in table.cells.values():
            assert cell.n_used + cell.n_extinct + cell.n_degenerate == 40
            assert all(
                a >= b for a, b in zip(cell.rejections, cell.rejections[1:])
            ), "looser thresholds must reject at least as often"

    def test_bit_identical_across_runs(self):
        assert run_table(SMALL) == run_table(SMALL)

    @pytest.mark.parametrize("table", [1, 2, 3])
    def test_bit_identical_across_worker_counts(self, two_cpus, table):
        # 41 replicas on 2 workers: uneven spans of 20 and 21 per cell
        cfg = table_config(table, replicas=41, generations=(7, 8), master_seed=5)
        serial = run_table(cfg, workers=1)
        parallel = run_table(cfg, workers=2)
        assert serial == parallel
        assert list(serial.pvalues) == list(parallel.pvalues)
        for key in serial.pvalues:
            assert np.array_equal(serial.pvalues[key], parallel.pvalues[key])

    @pytest.mark.parametrize("workers,pools", [(1, 0), (2, 1)])
    def test_one_pool_per_table(self, monkeypatch, two_cpus, workers, pools):
        started = []

        class CountingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                started.append(self)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
        assert run_table(SMALL, workers=workers) == run_table(SMALL, workers=1)
        assert len(started) == pools
        assert multiprocessing.active_children() == []

    def test_workers_env_var(self, monkeypatch):
        monkeypatch.setenv("BARLINEAGE_WORKERS", "2")
        assert run_table(SMALL) == run_table(SMALL, workers=1)

    @pytest.mark.parametrize("requested,replicas,cpus,expected", [
        (4, 1000, 2, 2),        # no more workers than usable CPUs
        (8, 3, 16, 3),          # no worker without a replica
        (10**9, 1000, 2, 2),    # an absurd request is cut to the machine
        (2, 1000, 8, 2),        # a request within bounds stands
        (0, 1000, 8, 1),        # 0 and negatives run serially
        (-3, 1000, 8, 1),
    ])
    def test_bounded_workers(self, requested, replicas, cpus, expected):
        assert bounded_workers(requested, replicas, cpus) == expected

    def test_identical_hypotheses_statistically_indistinguishable(self):
        # the alternative set equal to the null: H0 and H1 columns use
        # different streams, so proportions differ only by MC noise
        null = BarModel(0.5, 0.5, 0.5, 0.5, 1.0, 0.5)
        cfg = McConfig(
            which_test="coefficient",
            gw_null=GwModel(P0_LAW, P0_LAW),
            bar_null=null,
            bar_alt=null,
            generations=(9,),
            replicas=400,
            thresholds=(0.05,),
            master_seed=11,
        )
        table = run_table(cfg)
        p0 = table.cells[(9, "H0")].proportion(0)
        p1 = table.cells[(9, "H1")].proportion(0)
        se = np.sqrt(2 * 0.05 * 0.95 / 400)
        assert abs(p0 - p1) <= 3 * se

    def test_too_many_discards(self, two_cpus):
        weak = ReproductionLaw(0.7, 0.1, 0.1, 0.1)
        cfg = McConfig(
            which_test="gw_mean",
            gw_null=GwModel(weak, weak),
            generations=(8, 9),
            replicas=40,
            master_seed=2,
        )
        with pytest.raises(TooManyDiscards) as serial:
            run_table(cfg, workers=1)
        with pytest.raises(TooManyDiscards) as pooled:
            run_table(cfg, workers=2)
        assert str(pooled.value) == str(serial.value)
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="the patched replica reaches only forked workers")
    @pytest.mark.parametrize("failure", [TooManyDiscards, RuntimeError])
    def test_failing_cell_cancels_the_queued_spans(self, monkeypatch, tmp_path, two_cpus,
                                                    failure):
        log = tmp_path / "calls"
        log.touch()

        def replica(config, hypothesis, generation, replica_id):
            if (generation, hypothesis) != (7, "H0"):
                time.sleep(0.05)
                with open(log, "a") as f:
                    f.write(".\n")
            elif failure is RuntimeError:
                raise RuntimeError(f"replica {replica_id} failed")
            return EXTINCT

        def span(config, hypothesis, generation, lo, hi):
            return [replica(config, hypothesis, generation, r) for r in range(lo, hi)]

        monkeypatch.setattr(mc, "_span", span)
        cfg = table_config(1, replicas=4, generations=(7, 8, 9, 10, 11), master_seed=5)
        with pytest.raises(failure):
            run_table(cfg, workers=2)
        # 18 spans of 2 replicas queue behind the failing cell; only those
        # already handed to the workers may still run
        assert len(log.read_text().splitlines()) < 20
        assert multiprocessing.active_children() == []


def toy_table(thresholds=(0.05, 0.01)):
    return McTable(
        thresholds=thresholds,
        cells={
            (7, "H0"): McCell((64, 12), 1000, 12, 0),
            (7, "H1"): McCell((431, 198), 997, 3, 0),
        },
    )


# the default pair, a threshold with more than 6 significant digits, and
# a repeated threshold
ROUND_TRIP_THRESHOLDS = [(0.05, 0.01), (0.0123456789, 0.01), (0.05, 0.05)]
JSON_ROW = {"generation": 7, "hypothesis": "H0", "threshold": 0.05, "rejection_pct": 1.0,
            "n_used": 10, "n_extinct": 0, "n_degenerate": 0}


class TestEmitParse:
    def test_csv_example_lines(self):
        text = emit_table(toy_table())
        lines = text.splitlines()
        assert lines[0] == (
            "generation,hypothesis,threshold,rejection_pct,n_used,n_extinct,n_degenerate"
        )
        assert lines[1] == "7,H0,0.05,6.4,1000,12,0"
        assert lines[2] == "7,H0,0.01,1.2,1000,12,0"
        assert lines[3] == "7,H1,0.05,43.2,997,3,0"

    def test_empty_table_is_header_only(self):
        assert emit_table(McTable((0.05,), {})) == (
            "generation,hypothesis,threshold,rejection_pct,n_used,n_extinct,n_degenerate\n"
        )

    def test_rejects_unknown_format(self):
        with pytest.raises(ValueError):
            emit_table(toy_table(), fmt="xml")

    def test_round_trip_csv(self):
        for thresholds in ROUND_TRIP_THRESHOLDS:
            t = toy_table(thresholds)
            assert parse_table(emit_table(t)) == t

    def test_round_trip_json(self):
        for thresholds in ROUND_TRIP_THRESHOLDS:
            t = toy_table(thresholds)
            assert parse_table(emit_table(t, fmt="json"), fmt="json") == t

    @pytest.mark.parametrize("text,match", [
        ("", "header"),
        ("\n", "header"),
        (emit_table(toy_table()) + "7,H1,0.01,19.9\n", "'7,H1,0.01,19.9': expected 7 fields"),
        *((emit_table(toy_table()) + f"7,H1,0.01,{pct},10,0,0\n",
           rf"'7,H1,0.01,{pct},10,0,0': rejection_pct \S+ is not in \[0, 100\]")
          for pct in ("inf", "1e400", "nan", "100.5")),
        (emit_table(toy_table()) + "7,H1,0.01,19.9,18.5,0,0\n",
         r"'7,H1,0.01,19.9,18.5,0,0': invalid literal for int\(\)"),
        (emit_table(toy_table()) + "true,H1,0.01,19.9,10,0,0\n",
         r"'true,H1,0.01,19.9,10,0,0': invalid literal for int\(\)"),
    ], ids=["empty", "blank", "short-row", "inf-pct", "overflowing-pct", "nan-pct", "pct-over-100",
            "fractional-count", "bool-generation"])
    def test_parse_rejects_unreadable_csv(self, text, match):
        with pytest.raises(ValueError, match=match):
            parse_table(text)

    @pytest.mark.parametrize("text,match", [
        ('[{"generation": 7}]', r"""'{"generation": 7}': expected 7 fields"""),
        ("[7]", "'7': expected 7 fields"),
        ('[{"generation": null, "hypothesis": "H0", "threshold": 0.05, "rejection_pct": 1.0,'
         ' "n_used": 10, "n_extinct": 0, "n_degenerate": 0}]', '"generation": null.*: int()'),
        ("{}", "list of row objects"),
        ("[]", "no rows"),
        *(('[{"generation": 7, "hypothesis": "H0", "threshold": 0.05, "rejection_pct": %s,'
           ' "n_used": 10, "n_extinct": 0, "n_degenerate": 0}]' % pct,
           r"rejection_pct \S+ is not in \[0, 100\]")
          for pct in ("1e400", "Infinity", "NaN", "-0.5")),
        ('[{"generation": 7, "hypothesis": "H0", "threshold": 0.05, "rejection_pct": "inf",'
         ' "n_used": 10, "n_extinct": 0, "n_degenerate": 0}]',
         'float column rejection_pct holds "inf"'),
        ('[{"generation": 7, "hypothesis": "H0", "threshold": 0.05, "rejection_pct": 1.0,'
         ' "n_used": 1e400, "n_extinct": 0, "n_degenerate": 0}]', "int column n_used holds Infinity"),
        # a JSON value is not coerced to its column's type, unlike a CSV field
        *((json.dumps([{**JSON_ROW, column: v}]),
           rf"table row '.*': {kind} column {column} holds {re.escape(json.dumps(v))}$")
          for column, v, kind in [("n_used", 18.5, "int"), ("generation", True, "int"),
                                  ("n_extinct", "0", "int"), ("threshold", True, "float")]),
    ], ids=["missing-column", "not-an-object", "null-cell", "object", "empty-list",
            "overflowing-pct", "inf-pct", "nan-pct", "negative-pct", "inf-string-pct",
            "overflowing-count", "fractional-count", "bool-generation", "string-count",
            "bool-threshold"])
    def test_parse_rejects_unreadable_json(self, text, match):
        with pytest.raises(ValueError, match=match):
            parse_table(text, fmt="json")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_parse_names_the_row_of_an_overflowing_count(self, fmt):
        # 10**400 reads as an int but not as a float
        row = (7, "H0", 0.05, 6.4, 10 ** 400, 12, 0)
        if fmt == "json":
            text = json.dumps([dict(zip(mc._COLUMNS, row))])
        else:
            text = f"{mc._CSV_HEADER}\n{','.join(map(str, row))}\n"
        with pytest.raises(ValueError, match=r"table row '.*10000.*': int too large"):
            parse_table(text, fmt=fmt)

    @pytest.mark.parametrize("column", ["n_used", "n_extinct", "n_degenerate"])
    def test_parse_rejects_a_negative_count(self, column):
        rows = json.loads(emit_table(toy_table(), fmt="json"))
        rows[1][column] = -3
        with pytest.raises(ValueError, match=rf"table row '.*': .*{column} -3.* must be >= 0"):
            parse_table(json.dumps(rows), fmt="json")

    @pytest.mark.parametrize("column", ["n_used", "n_extinct", "n_degenerate"])
    def test_parse_rejects_a_cell_whose_rows_disagree(self, column):
        # rows 0 and 1 are the two thresholds of cell (7, 'H0')
        rows = json.loads(emit_table(toy_table(), fmt="json"))
        rows[1][column] += 1
        with pytest.raises(ValueError, match=r"cell \(7, 'H0'\): its rows disagree"):
            parse_table(json.dumps(rows), fmt="json")

    def test_parse_rejects_unknown_format(self):
        with pytest.raises(ValueError, match="unsupported format 'xml'"):
            parse_table(emit_table(toy_table()), fmt="xml")

    def test_parse_rejects_a_cell_whose_thresholds_differ(self):
        # rows 2 and 3 are the two thresholds of cell (7, 'H1')
        rows = json.loads(emit_table(toy_table(), fmt="json"))
        rows[3]["threshold"] = 0.02
        with pytest.raises(ValueError, match=r"cell \(7, 'H1'\) does not list the thresholds "
                                             r"\(0\.05, 0\.01\)"):
            parse_table(json.dumps(rows), fmt="json")

    def test_parse_rejects_csv_without_rows(self):
        with pytest.raises(ValueError, match="no rows"):
            parse_table(emit_table(McTable((0.05,), {})))
        with pytest.raises(ValueError, match=r"'7,H0,x,6.4,1000,12,0': could not convert"):
            parse_table(emit_table(McTable((0.05,), {})) + "7,H0,x,6.4,1000,12,0\n")

    def test_round_trip_real_run(self):
        t = run_table(SMALL)
        assert parse_table(emit_table(t)) == t

    def test_count_recovery_exact_up_to_1000(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 1001))
            k = int(rng.integers(0, n + 1))
            cell = McCell((k,), n, 0, 0)
            t = McTable((0.05,), {(7, "H0"): cell})
            assert parse_table(emit_table(t)) == t

    def test_json_mirrors_csv(self):
        t = toy_table()
        rows = json.loads(emit_table(t, fmt="json"))
        assert rows[0] == {
            "generation": 7,
            "hypothesis": "H0",
            "threshold": 0.05,
            "rejection_pct": 6.4,
            "n_used": 1000,
            "n_extinct": 12,
            "n_degenerate": 0,
        }
