import json

import numpy as np
import pytest

from barlineage import (
    BarModel,
    DepthError,
    DuplicateIndex,
    IndexOutOfRange,
    MissingRoot,
    ObservationTree,
    OrphanCell,
    ParseError,
    ValueTree,
    emit_lineage,
    ingest,
)
from barlineage.cli import main


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


GOOD = "index,value\n1,0.5\n2,1.0\n3,-0.25\n6,2.0\n7,0.75\n"


class TestIngest:
    def test_small_file(self, tmp_path):
        tree, values = ingest(write(tmp_path, GOOD))
        assert tree.depth == 2
        assert sorted(tree.observed_indices().tolist()) == [1, 2, 3, 6, 7]
        assert values.x[1] == 0.5 and values.x[7] == 0.75
        assert values.x[4] == 0.0  # unlisted cells carry the sentinel

    def test_comments_and_blank_lines(self, tmp_path):
        text = "# produced by hand\n\nindex,value\n# root\n1,1.0\n"
        tree, values = ingest(write(tmp_path, text))
        assert tree.depth == 1 and values.x[1] == 1.0

    def test_depth_hint_extends_tree(self, tmp_path):
        text = "# depth=4\nindex,value\n1,1.0\n"
        tree, _ = ingest(write(tmp_path, text))
        assert tree.depth == 4

    def test_depth_comment_beyond_max_depth(self, tmp_path):
        text = "# depth=31\nindex,value\n1,1.0\n"
        with pytest.raises(DepthError) as exc:
            ingest(write(tmp_path, text))
        assert exc.value.depth == 31
        assert "[1, 30]" in str(exc.value)

    def test_label_beyond_max_depth(self, tmp_path):
        text = f"index,value\n1,1.0\n{1 << 31},0.0\n"
        with pytest.raises(IndexOutOfRange) as exc:
            ingest(write(tmp_path, text))
        assert exc.value.k == 1 << 31

    def test_malformed_depth_comment(self, tmp_path, capsys):
        path = write(tmp_path, "# seed=3\n# depth=abc\nindex,value\n1,1.0\n")
        with pytest.raises(ParseError) as exc:
            ingest(path)
        assert exc.value.line_no == 2
        assert main(["estimate", str(path)]) == 1
        assert "line 2" in capsys.readouterr().err

    def test_orphan_raises_with_label(self, tmp_path):
        text = "index,value\n1,0.0\n6,1.0\n"
        with pytest.raises(OrphanCell) as exc:
            ingest(write(tmp_path, text))
        assert exc.value.k == 6

    def test_missing_root(self, tmp_path):
        with pytest.raises(MissingRoot):
            ingest(write(tmp_path, "index,value\n2,0.0\n"))

    def test_duplicate_index_reports_line(self, tmp_path):
        text = "index,value\n1,0.0\n1,1.0\n"
        with pytest.raises(DuplicateIndex) as exc:
            ingest(write(tmp_path, text))
        assert exc.value.line_no == 3

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "index;value\n1,0.0\n",
            "index,value\n1,0.0,9\n",
            "index,value\nx,0.0\n",
            "index,value\n1,nan\n",
            "index,value\n0,0.0\n",
        ],
    )
    def test_parse_errors(self, tmp_path, text):
        with pytest.raises(ParseError):
            ingest(write(tmp_path, text))

    def test_complete_depth6_fixture(self, tmp_path):
        rng = np.random.default_rng(6)
        rows = ["index,value"] + [f"{k},{rng.normal():.17g}" for k in range(1, 128)]
        tree, values = ingest(write(tmp_path, "\n".join(rows) + "\n"))
        assert tree.depth == 6
        assert tree.delta[1:].all()
        assert len(values.x) == 128


class TestEmitLineage:
    def test_round_trip_exact(self, tmp_path):
        tree = ObservationTree.from_indices(2, {1, 2, 3, 6, 7})
        x = np.zeros(8)
        x[[1, 2, 3, 6, 7]] = [0.1, -1.0 / 3.0, 2.0**-40, 1e17, np.pi]
        text = emit_lineage(tree, ValueTree(2, x), {"depth": 2})
        tree2, values2 = ingest(write(tmp_path, text))
        assert tree2 == tree
        assert np.array_equal(values2.x[tree.delta.astype(bool)],
                              x[tree.delta.astype(bool)])

    def test_params_become_comments(self):
        tree = ObservationTree.from_indices(1, {1})
        text = emit_lineage(tree, ValueTree(1, np.zeros(4)), {"seed": 7, "a": 0.5})
        assert "# seed=7" in text and "# a=0.5" in text
        assert text.endswith("1,0\n")


class TestSimulate:
    def test_writes_parseable_file(self, tmp_path):
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--depth", "5", "--seed", "3",
                     "--out", str(out)]) == 0
        tree, values = ingest(out)
        assert tree.depth == 5

    def test_byte_identical_round_trip(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["simulate", "--depth", "6", "--seed", "11", "--out"]
        assert main(args + [str(a)]) == 0
        assert main(args + [str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_default_root_is_odd_fixed_point(self, tmp_path):
        out = tmp_path / "sim.csv"
        main(["simulate", "--depth", "3", "--seed", "0", "--out", str(out),
              "--c", "0.5", "--d", "0.4"])
        _, values = ingest(out)
        assert values.x[1] == pytest.approx(0.5 / 0.6)

    def test_bad_law_is_usage_error(self, tmp_path):
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--depth", "3", "--out", str(out),
                     "--law0", "0.5,0.5"]) == 1


def simulate_fixture(tmp_path, name="sim.csv", depth=7, seed=4, extra=()):
    out = tmp_path / name
    code = main(["simulate", "--depth", str(depth), "--seed", str(seed),
                 "--out", str(out), *extra])
    assert code == 0
    return out


class TestEstimate:
    def test_json_fields(self, tmp_path, capsys):
        path = simulate_fixture(tmp_path)
        assert main(["estimate", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["depth"] == 7
        assert len(out["gw"]["phat"]) == 8
        assert abs(sum(out["gw"]["phat"][:4]) - 1.0) < 1e-12
        assert set(out["bar"]) >= {"a", "b", "c", "d", "sigma2", "rho", "cov"}

    def test_zero_noise_recovery(self, tmp_path, capsys):
        path = simulate_fixture(
            tmp_path, depth=8, seed=9,
            extra=["--a", "1", "--b", "0.5", "--c", "2", "--d", "0.25",
                   "--sigma2", "0", "--rho", "0", "--x1", "2.0"],
        )
        assert main(["estimate", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        got = [out["bar"][k] for k in "abcd"]
        assert np.abs(np.array(got) - [1.0, 0.5, 2.0, 0.25]).max() < 1e-10

    def test_missing_file_is_usage_error(self, tmp_path):
        assert main(["estimate", str(tmp_path / "nope.csv")]) == 1


class TestTestCommand:
    @pytest.mark.parametrize("which,name,df", [
        ("gw", "gw_mean", 1),
        ("coeff", "coefficient", 2),
        ("fixed", "fixed_point", 1),
    ])
    def test_report_fields(self, tmp_path, capsys, which, name, df):
        path = simulate_fixture(tmp_path)
        assert main(["test", str(path), "--which", which]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["test"] == name
        assert out["df"] == df
        assert 0.0 <= out["p_value"] <= 1.0
        assert out["statistic"] >= 0.0
        assert "n_Tstar" in out

    def test_singular_design_exits_2(self, tmp_path, capsys):
        # one mother of record only: the design matrix is singular
        path = write(tmp_path, "index,value\n1,1.0\n2,0.5\n3,0.25\n")
        assert main(["test", str(path), "--which", "coeff"]) == 2
        out = json.loads(capsys.readouterr().out)
        assert out["error"] == "SingularDesign"

    def test_exact_fit_exits_2(self, tmp_path, capsys):
        # two mothers, two parameters per type: the residuals vanish
        path = write(tmp_path, "index,value\n1,1.0\n2,0.5\n3,0.25\n4,1.0\n5,0.5\n")
        assert main(["test", str(path), "--which", "coeff"]) == 2
        out = json.loads(capsys.readouterr().out)
        assert out["error"] == "DegenerateVariance"

    def test_unknown_test_is_usage_error(self, tmp_path):
        path = simulate_fixture(tmp_path)
        assert main(["test", str(path), "--which", "anova"]) == 1

    def test_missing_subcommand_is_usage_error(self):
        assert main([]) == 1


class TestBatch:
    def test_directory_scan(self, tmp_path, capsys):
        simulate_fixture(tmp_path, "a.csv", depth=7, seed=1)
        simulate_fixture(tmp_path, "b.csv", depth=7, seed=2)
        simulate_fixture(tmp_path, "shallow.csv", depth=2, seed=3)
        write(tmp_path, "index,value\n2,0.0\n", name="broken.csv")
        (tmp_path / "notes.txt").write_text("ignored")
        assert main(["batch", str(tmp_path), "--which", "gw"]) == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[0] == "file,test,p_value"
        names = [ln.split(",")[0] for ln in lines[1:]]
        assert names == ["a.csv", "b.csv"]
        for ln in lines[1:]:
            assert ln.split(",")[1] == "gw_mean"
            assert 0.0 <= float(ln.split(",")[2]) <= 1.0
        assert "broken.csv" in captured.err

    def test_degenerate_rows_print_nan(self, tmp_path, capsys):
        write(tmp_path, "index,value\n" +
              "".join(f"{k},{1.0}\n" for k in range(1, 16)))
        assert main(["batch", str(tmp_path), "--which", "coeff",
                     "--min-generations", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].endswith(",nan")

    def test_out_file(self, tmp_path):
        simulate_fixture(tmp_path, "a.csv")
        dest = tmp_path / "results"
        dest.mkdir()
        out = dest / "report.csv"
        assert main(["batch", str(tmp_path), "--which", "fixed",
                     "--out", str(out)]) == 0
        assert out.read_text().startswith("file,test,p_value\n")


class TestMcCommand:
    def test_table_preset_shape(self, tmp_path, capsys):
        assert main(["mc", "--table", "1", "--replicas", "20",
                     "--generations", "7,8", "--seed", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("generation,hypothesis,threshold")
        # 2 generations x 2 hypotheses x 3 thresholds
        assert len(lines) == 1 + 12
        for ln in lines[1:]:
            n_used = int(ln.split(",")[4])
            assert n_used <= 20

    def test_full_table1_has_30_rows(self, tmp_path):
        out = tmp_path / "t.csv"
        assert main(["mc", "--table", "1", "--replicas", "4", "--seed", "1",
                     "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 1 + 30

    def test_json_format(self, capsys):
        assert main(["mc", "--table", "3", "--replicas", "10",
                     "--generations", "7", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert {r["hypothesis"] for r in rows} == {"H0", "H1"}

    def test_config_file(self, tmp_path, capsys):
        cfg = write(tmp_path, "\n".join([
            "# tiny run",
            "which_test = coefficient",
            "bar_null = 0.5,0.5,0.5,0.5,1.0,0.5",
            "generations = 7",
            "replicas = 10",
            "thresholds = 0.05",
            "master_seed = 2",
        ]), name="mc.cfg")
        assert main(["mc", "--config", str(cfg)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("7,H0,0.05,")

    def test_flags_override_config_file(self, tmp_path, capsys):
        cfg = write(tmp_path, "replicas = 10\ngenerations = 7\n", name="mc.cfg")
        assert main(["mc", "--config", str(cfg), "--replicas", "5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert all(int(ln.split(",")[4]) <= 5 for ln in lines[1:])

    def test_malformed_config_is_usage_error(self, tmp_path):
        cfg = write(tmp_path, "just words\n", name="mc.cfg")
        assert main(["mc", "--config", str(cfg)]) == 1

    def test_matches_library_run(self, tmp_path, capsys):
        from barlineage import emit_table, run_table, table_config

        assert main(["mc", "--table", "2", "--replicas", "15",
                     "--generations", "7,8", "--seed", "7"]) == 0
        cli_text = capsys.readouterr().out
        cfg = table_config(2, replicas=15, master_seed=7, generations=(7, 8))
        assert cli_text == emit_table(run_table(cfg))
