import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from barlineage import (
    BarLineageError,
    BarModel,
    ObservationTree,
    ParseError,
    ValueTree,
    emit_lineage,
    ingest,
)
from barlineage import gw, lineage_io
from barlineage.cli import main
from barlineage.errors import (
    DepthError,
    DuplicateIndex,
    IndexOutOfRange,
    MissingRoot,
    OrphanCell,
)

from conftest import brute_ingest, observation_trees, overflowing_leaves


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


GOOD = "index,value\n1,0.5\n2,1.0\n3,-0.25\n6,2.0\n7,0.75\n"
# finite traits whose squares overflow the moment sums
HUGE = "index,value\n" + "".join(f"{k},{1e200 * (1 + k / 100)!r}\n" for k in range(1, 16))
# +-1e308 traits by parity: the summed mother traits meet as inf - inf = nan
CANCELLING = "index,value\n" + "".join(
    f"{k},{1e308 if k % 2 == 0 else -1e308!r}\n" for k in range(1, 64))


# comment and blank lines that change nothing; "\x0b", "\x0c", "\x85" and
# "\u2028" break lines for str.splitlines but not in a file
NOISE = ["", "  ", "#", "# note", "# depth = 4", "\x0b", "\x0c", "\x85", "\u2028",
         "\t", " \x1c "]
# the last four are row edits on which numpy's parser and Python's
# disagree; int and float read the Python-only spellings as the numbers
# they spell
DEFECTS = ["extra field", "one field", "moved field", "non-integer label", "label < 1",
           "non-finite", "duplicate", "missing root", "over-deep label", "orphan",
           "bad header", "bad depth comment", "over-deep hint",
           "non-ASCII label", "separator in field", "trailing comment", "Python-only spelling"]
ARABIC_INDIC = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664"
                                           "\u0665\u0666\u0667\u0668\u0669")


@st.composite
def lineage_texts(draw, below_header=True):
    """Lineage file bytes from emit_lineage output: comment, blank and
    `# depth=` lines around the header (above it only, without
    below_header), padded fields, any line ending, and up to two of
    DEFECTS."""
    tree = draw(observation_trees(min_depth=1, max_depth=5))
    labels = tree.observed_indices()
    x = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                      min_size=labels.size, max_size=labels.size))
    rows = emit_lineage(tree, ValueTree(tree.depth, x, labels)).splitlines()[1:]
    header, extra = "index,value", []
    for kind in draw(st.lists(st.sampled_from(DEFECTS), max_size=2)):
        if not rows:  # the root was the only row, and it is gone
            break
        r, pos = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows)))
        k = rows[r].partition(",")[0]
        if kind == "extra field":
            rows[r] += ",9"
        elif kind == "one field":
            rows[r] = k
        elif kind == "moved field":
            # the field count stays twice the row count
            rows[r], rows[pos - 1] = k, rows[pos - 1] + ",0.5"
        elif kind == "non-integer label":
            rows[r] = draw(st.sampled_from(["x", "1.", "0x"])) + rows[r]
        elif kind == "label < 1":
            rows[r] = draw(st.sampled_from(["0", "-3", str(-(1 << 70))])) + ",0.5"
        elif kind == "non-finite":
            rows[r] = k + "," + draw(st.sampled_from(["nan", "inf", "-inf", "NaN"]))
        elif kind == "duplicate":
            rows.insert(pos, k + ",0.5")
        elif kind == "missing root":
            rows = [row for row in rows if not row.startswith("1,")]
        elif kind == "over-deep label":
            deep = draw(st.sampled_from([1 << 31, 1 << 70, (1 << 63) - 1, 1 << 63]))
            rows.insert(pos, f"{deep},0.5")
        elif kind == "orphan":
            rows.insert(pos, f"{2 * (int(labels[-1]) + 1)},0.5")
        elif kind == "bad header":
            header = "index;value"
        elif kind == "non-ASCII label":
            rows[r] = draw(st.sampled_from([k + "\u01fe", "\u0761" + k])) + rows[r][len(k):]
        elif kind == "separator in field":
            i = draw(st.integers(0, len(rows[r])))
            rows[r] = rows[r][:i] + draw(st.sampled_from("\x1c\x1d\x1e\x1f")) + rows[r][i:]
        elif kind == "trailing comment":
            rows[r] += draw(st.sampled_from(["# note", " # note", "#"]))
        elif kind == "Python-only spelling":
            label, comma, trait = rows[r].partition(",")
            how = draw(st.sampled_from(["Arabic-Indic label", "1_0 label", "1_0 trait"]))
            if how == "Arabic-Indic label":
                label = label.translate(ARABIC_INDIC)
            elif how == "1_0 label":
                label = re.sub(r"(\d)(\d)", r"\1_\2", label, count=1)
            else:
                trait = re.sub(r"(\d)(\d)", r"\1_\2", trait, count=1)
            rows[r] = label + comma + trait
        else:
            extra.append("# depth=x" if kind == "bad depth comment" else "# depth=31")
    pad = draw(st.sampled_from(["", " ", "\t"]))
    rows = [pad + f"{pad},{pad}".join(row.split(",")) + pad for row in rows]
    hints = draw(st.lists(st.sampled_from(["# depth=3", "#depth= 6", "# depth=0"]), max_size=2))
    lines = draw(st.lists(st.sampled_from(NOISE), max_size=3)) + [header] + rows
    for line in hints + extra + draw(st.lists(st.sampled_from(NOISE), max_size=3)):
        lines.insert(draw(st.integers(0, len(lines) if below_header else lines.index(header))),
                     line)
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    tail = draw(st.sampled_from([end, ""]))
    return (end.join(lines) + tail).encode("utf-8")


def _outcome(read, path):
    """What reading a lineage file gives: the labels and their traits as
    bytes, or the error's class, line and message."""
    try:
        tree, values = read(path)
    except BarLineageError as exc:
        return type(exc), getattr(exc, "line_no", None), str(exc)
    labels = tree.observed_indices()
    return tree.depth, labels.tobytes(), values.observed(tree).tobytes()


class TestIngest:
    def test_small_file(self, tmp_path):
        tree, values = ingest(write(tmp_path, GOOD))
        assert tree.depth == 2
        assert tree.observed_indices().tolist() == [1, 2, 3, 6, 7]
        # one trait per listed cell, in label order; unlisted cells have none
        assert values.labels is tree.observed_indices()
        assert values.x.tolist() == [0.5, 1.0, -0.25, 2.0, 0.75]

    def test_comments_and_blank_lines(self, tmp_path):
        text = "# produced by hand\n\nindex,value\n# root\n1,1.0\n"
        tree, values = ingest(write(tmp_path, text))
        assert tree.depth == 1 and values.observed(tree).tolist() == [1.0]

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
            f"index,value\n1,0.0\n{-(1 << 70)},0.0\n",
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
        assert tree.observed_indices().tolist() == list(range(1, 128))
        assert len(values.x) == 127

    def test_undecodable_byte_names_its_line(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"index,value\r\n1,0.5\r\n2,\xff\xfe\r\n")
        with pytest.raises(ParseError) as exc:
            ingest(path)
        assert exc.value.line_no == 3
        for argv in (["estimate", str(path)], ["test", str(path), "--which", "gw"]):
            assert main(argv) == 1
            assert "line 3" in capsys.readouterr().err

    def test_directory_is_usage_error(self, tmp_path, capsys):
        (tmp_path / "sub.csv").mkdir()
        assert main(["estimate", str(tmp_path / "sub.csv")]) == 1
        assert "Is a directory" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text",
        [
            "index,value\n1,0.5\n2,nan\n1,0.25\n",
            "index,value\n1,0.5\n2,0.25\n2,inf\n",
            "index,value\n1,0.5\n2\n3,0.25,1\n",
            "index,value\n1,0.5\n2,0.25\n0,x\n2,0.5\n",
            "index,value\n1,0.5\n-1,1\n2,x\n",
            "index,value\n1,0.5\n2,1e999\n-1,0.25\n",
            "index,value\n1,0.5\n2,0.25\n# depth=x\n2,0.5\n",
            "index,value\n1,0.5\n2,0.25\n2,0.5\n# depth=x\n",
            "# depth=x\nindex;value\n",
            "index;value\n# depth=x\n",
            "# depth=31\nindex,value\n1,0.5\n2,0.25\n2,0.5\n",
            f"index,value\n{1 << 70},0.5\n{1 << 70},0.5\n1,0.0\n",
            f"index,value\n{1 << 70},0.5\n",
            f"index,value\n1,0.5\n{1 << 70},0.5\n",
            # numpy's parser reads these labels as 492 and 18413
            "index,value\n1,0.5\n3\u01fe,0.25\n",
            "index,value\n1,0.5\n\u07613,0.25\n",
            # and these fields as if \x1c-\x1f were blanks
            "index,value\n1,0.5\n3,\x1c1.0\n",
            "index,value\n1,0.5\n3\x1f,1.0\n",
            "index,value\n1,0.5\n2,0.25\x1d \n3,1\x1e.0\n",
            "index,value\n1,0.5\n2,0.25 # note\n",
            "index,value\n1,0.5\n2,0.25# note\n3,x\n",
            "index,value\n1,0.5\n  \n2,0.25\n\t\n",
            # Python's int and float read these; numpy refuses them
            "index,value\n1,0.5\n\u0663,0.25\n",
            "index,value\n1,0.5\n2,0\n3,0\n5,0\n1_0,0.25\n",
            "index,value\n1,0.5\n2,1_0\n",
            f"index,value\n1,0.5\n{(1 << 63) - 1},0.5\n",
            f"index,value\n1,0.5\n{1 << 63},0.5\n",
            "index,value\n",
            "# depth=4\nindex,value\n\n\n",
            # a line above the header that is no comment sends the file to the line reader
            "notes\nindex,value\n1,0.5\n2,0.25\n",
        ],
    )
    def test_first_defect_wins(self, tmp_path, text):
        path = write(tmp_path, text)
        assert _outcome(ingest, path) == _outcome(brute_ingest, path)

    @settings(max_examples=300, deadline=None)
    @given(text=lineage_texts())
    def test_matches_line_loop(self, tmp_path_factory, text):
        path = tmp_path_factory.getbasetemp() / "oracle.csv"
        path.write_bytes(text)
        try:
            assert _outcome(ingest, path) == _outcome(brute_ingest, path)
        finally:
            path.unlink()  # rewriting a file that holds data is slow on some disks

    @settings(max_examples=100, deadline=None)
    @given(text=lineage_texts(below_header=False))
    def test_bulk_read_matches_line_loop(self, tmp_path_factory, text):
        # no comment or blank line below the header, so most rows reach np.loadtxt
        path = tmp_path_factory.getbasetemp() / "oracle.csv"
        path.write_bytes(text)
        try:
            assert _outcome(ingest, path) == _outcome(brute_ingest, path)
        finally:
            path.unlink()


class TestBulkRead:
    """Well-formed files are read by one C-level pass, not line by line."""

    @pytest.fixture
    def per_line_reads(self, monkeypatch):
        calls = []
        read_lines = lineage_io._read_lines

        def counted(text):
            calls.append(text)
            return read_lines(text)

        monkeypatch.setattr(lineage_io, "_read_lines", counted)
        return calls

    @pytest.mark.skipif(not lineage_io._BULK, reason="numpy < 2.4 reads every file by line")
    def test_emitted_files_skip_the_line_reader(self, tmp_path, per_line_reads):
        paths = []
        for depth in range(1, 10):
            path = tmp_path / f"sim{depth}.csv"
            assert main(["simulate", "--depth", str(depth), "--seed", str(depth),
                         "--out", str(path)]) == 0
            paths.append(path)
        # the benchmark's sparse depth-20 branch of alternating daughters
        branch = [1]
        for g in range(20):
            branch.append(2 * branch[-1] + g % 2)
        tree = ObservationTree.from_indices(20, branch)
        x = np.random.default_rng(20).normal(size=len(branch))
        paths.append(write(tmp_path, emit_lineage(tree, ValueTree(20, x, branch),
                                                  {"depth": 20, "seed": 1, "deep": 0})))
        for path in paths:
            assert _outcome(ingest, path) == _outcome(brute_ingest, path)
        assert per_line_reads == []
        # the line reader, which reads every file on numpy < 2.4, agrees
        for path in paths:
            text = lineage_io.read_text(path)
            labels, x_obs, hint = lineage_io._read_bulk(text)
            line_labels, line_x, line_hint = lineage_io._read_lines(text)
            assert list(line_labels) == labels.tolist()
            assert line_x.tobytes() == x_obs.tobytes()
            assert line_hint == hint

    def test_a_line_above_the_header_is_named(self, tmp_path, per_line_reads):
        with pytest.raises(ParseError) as exc:
            ingest(write(tmp_path, "notes\nindex,value\n1,0.5\n2,0.25\n"))
        assert exc.value.line_no == 1 and "got 'notes'" in str(exc.value)
        assert len(per_line_reads) == 1

    @pytest.mark.parametrize("text", ["index,value\n", "# seed=1\nindex,value\n\n  \n"])
    def test_header_only_is_missing_root(self, tmp_path, per_line_reads, text):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MissingRoot):
                ingest(write(tmp_path, text))
        assert len(per_line_reads) == 1

    # outside pytest a warning does not raise: numpy 1.23-1.26 read the
    # label "2.5" as 2 and only warn
    @pytest.mark.filterwarnings("default")
    def test_numpy_warning_sends_file_to_line_reader(self, tmp_path, per_line_reads,
                                                     monkeypatch):
        def truncating_loadtxt(*args, **kwargs):
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated",
                          DeprecationWarning)
            return np.array([(1, 0.1), (2, 0.3)], dtype=lineage_io._ROW)

        monkeypatch.setattr(lineage_io, "_BULK", True)
        monkeypatch.setattr(np, "loadtxt", truncating_loadtxt)
        with pytest.raises(ParseError) as info:
            ingest(write(tmp_path, "index,value\n1,0.1\n2.5,0.3\n"))
        assert info.value.line_no == 3
        assert len(per_line_reads) == 1


class TestEmitLineage:
    def test_round_trip_exact(self, tmp_path):
        tree = ObservationTree.from_indices(2, {1, 2, 3, 6, 7})
        x = np.zeros(8)
        x[[1, 2, 3, 6, 7]] = [0.1, -1.0 / 3.0, 2.0**-40, 1e17, np.pi]
        text = emit_lineage(tree, ValueTree(2, x), {"depth": 2})
        tree2, values2 = ingest(write(tmp_path, text))
        assert tree2 == tree
        assert values2.observed(tree2).tobytes() == x[[1, 2, 3, 6, 7]].tobytes()

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
        tree, values = ingest(out)
        assert values.observed(tree)[0] == pytest.approx(0.5 / 0.6)

    def test_depth_beyond_max_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--depth", "35", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: depth 35 outside supported range [1, 30]\n"
        assert not out.exists()

    def test_bad_law_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        for law, reason in (("0.5,0.5", "expected 4 comma-separated probabilities"),
                            ("nan,0.08,0.08,0.8", "probabilities must lie in [0, 1]")):
            assert main(["simulate", "--depth", "3", "--out", str(out),
                         "--law0", law]) == 1
            err = capsys.readouterr().err.splitlines()
            assert err[0].startswith("usage: barlineage simulate")
            assert err[-1].startswith(f"error: argument --law0: {reason}")
        assert not out.exists()

    def test_overflowing_traits_end_in_one_error_line(self, tmp_path):
        # the recursion overflows before the traits are checked; in a fresh
        # interpreter that shows numpy's warnings, main's np.errstate keeps
        # them off stderr
        out, src = tmp_path / "sim.csv", Path(__file__).resolve().parents[1] / "src"
        run = subprocess.run(
            [sys.executable, "-W", "default", "-m", "barlineage.cli", "simulate", "--depth", "6",
             "--x1", "0", "--a", "1.7e308", "--c", "1.7e308", "--b", "0.9", "--d", "0.9",
             "--out", str(out)],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(src)})
        assert (run.returncode, run.stdout, out.exists()) == (1, "", False)
        assert run.stderr == "error: trait values must be finite\n"

    def test_out_of_memory_is_usage_error(self, tmp_path, capsys, monkeypatch):
        def no_memory(*args):
            raise MemoryError("Unable to allocate 1.00 GiB")

        monkeypatch.setattr(gw, "simulate_observation_tree", no_memory)
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--depth", "29", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: Unable to allocate 1.00 GiB\n"
        assert not out.exists()


def chain_file(tmp_path, depth):
    """One branch of alternating even and odd daughters down to ``depth``:
    depth + 1 rows, the deepest label near 2^(depth+1)."""
    rng = np.random.default_rng(depth)
    k, rows = 1, ["index,value", f"1,{rng.normal()!r}"]
    for g in range(depth):
        k = 2 * k + g % 2
        rows.append(f"{k},{rng.normal()!r}")
    return write(tmp_path, "\n".join(rows) + "\n", name=f"chain{depth}.csv")


# peak resident memory of one `barlineage estimate` in a fresh interpreter
_PEAK_RSS = """
import sys
from barlineage import gw
from barlineage.cli import main
code = main(["estimate", sys.argv[1]])
with open("/proc/self/status") as fh:
    peak = next(int(ln.split()[1]) for ln in fh if ln.startswith("VmHWM:"))
print(code, peak, file=sys.stderr)
"""


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

    def test_undefined_block_gives_partial_report(self, tmp_path, capsys):
        # a chain of even daughters: the GW law is estimable, the BAR fit
        # has no odd daughters
        rows = "".join(f"{k},{0.1 * i}\n" for i, k in enumerate((1, 2, 4, 8, 16, 32)))
        path = write(tmp_path, "index,value\n" + rows)
        assert main(["estimate", str(path)]) == 2
        out = json.loads(capsys.readouterr().out)
        assert out["depth"] == 5 and out["n_observed"] == 6
        assert len(out["gw"]["phat"]) == 8
        assert out["bar"]["error"] == "SingularDesign"
        assert "type 1" in out["bar"]["detail"]

    def test_depth30_chain(self, tmp_path, capsys):
        path = chain_file(tmp_path, 30)
        assert main(["estimate", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["depth"] == 30 and out["n_observed"] == 31
        assert out["gw"]["mother_counts"] == [15, 14]
        assert ingest(path)[0].counts().g_star.tolist() == [1] * 31
        assert out["bar"]["warnings"] == ["no_sister_pairs"]
        # every mother of record has one daughter: the mean difference is
        # estimated without variance
        assert main(["test", str(path), "--which", "gw"]) == 2
        out = json.loads(capsys.readouterr().out)
        assert out["error"] == "DegenerateVariance"

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM")
    def test_memory_does_not_grow_with_depth(self, tmp_path):
        src = Path(__file__).resolve().parents[1] / "src"
        peaks = {}
        for depth in (10, 30):
            run = subprocess.run(
                [sys.executable, "-c", _PEAK_RSS, str(chain_file(tmp_path, depth))],
                capture_output=True, text=True, timeout=120,
                env={**os.environ, "PYTHONPATH": str(src)})
            code, peaks[depth] = map(int, run.stderr.split()[-2:])
            assert code == 0
        assert abs(peaks[30] - peaks[10]) < 2048  # kB

    @pytest.mark.parametrize("command", [["estimate"], ["test", "--which", "coeff"],
                                         ["test", "--which", "fixed"]],
                             ids=["estimate", "test-coeff", "test-fixed"])
    def test_overflowing_fit_is_degenerate_json(self, tmp_path, capsys, command):
        # the residual squares overflow: sigma2 is inf and the covariance nan
        path = write(tmp_path, emit_lineage(*overflowing_leaves()))
        assert main([command[0], str(path), *command[1:]]) == 2
        captured = capsys.readouterr()
        out = json.loads(captured.out, parse_constant=_reject_constant)
        assert out.get("bar", out)["error"] == "DegenerateVariance"
        assert captured.err == ""

    def test_depth_one_has_no_gw_block(self, tmp_path, capsys):
        path = write(tmp_path, "index,value\n1,1.0\n2,0.5\n3,0.25\n")
        assert main(["estimate", str(path)]) == 2
        out = json.loads(capsys.readouterr().out)
        assert out["gw"]["error"] == "InsufficientData"
        assert out["bar"]["error"] == "SingularDesign"


_BAR_PARAMETERS = {
    "a": 1.6474342193532578, "b": 0.2521996573253169, "c": 1.1572583891788106,
    "d": 0.2996889455714591, "sigma2": 0.5627110612622549, "rho": 0.281398152646874}
_PHAT = [0.0, 0.0, 0.2222222222222222, 0.7777777777777778,
         0.1111111111111111, 0.0, 0.1111111111111111, 0.7777777777777778]
_ZHAT = [0.47368421052631576, 0.47368421052631576]
# stdout of each command on simulate_fixture's lineage (depth 7, seed 4), read
# as json.dumps(..., indent=2) prints it: every key, its place and each digit
ONE_TREE_JSON = {
    "gw": {
        "test": "gw_mean", "statistic": 0.17999999999999944, "df": 1,
        "p_value": 0.671373240540873, "n_Tstar": 19,
        "estimates": {"m_hat": 0.11111111111111094, "variance": 1.3031550068587108,
                      "phat": _PHAT, "zhat": _ZHAT, "mother_counts": [9, 9]},
        "warnings": []},
    "coeff": {
        "test": "coefficient", "statistic": 3.8418127698609736, "df": 2,
        "p_value": 0.14647413999225609, "n_Tstar": 19,
        "estimates": {**_BAR_PARAMETERS, "diff": [0.4901758301744472, -0.04748928824614218]},
        "warnings": []},
    "fixed": {
        "test": "fixed_point", "statistic": 2.387335780018585, "df": 1,
        "p_value": 0.1223219384761866, "n_Tstar": 19,
        "estimates": {**_BAR_PARAMETERS, "fixed_point_even": 2.203040203834119,
                      "fixed_point_odd": 1.6524919631936157, "diff": 0.5505482406405033,
                      "variance": 2.4122974188950854},
        "warnings": []},
    "estimate": {
        "depth": 7, "n_observed": 33,
        "gw": {"phat": _PHAT, "mother_counts": [9, 9], "zhat": _ZHAT},
        "bar": {**_BAR_PARAMETERS, "cov": [
            [8.07296380437916, -3.4876696215023957, 3.259949948092812, -1.4713462599000893],
            [-3.4876696215023957, 1.6526514549807088, -1.4862511038587742, 0.7357048108706459],
            [3.259949948092812, -1.4862511038587742, 8.566880970394347, -3.7916416169003027],
            [-1.4713462599000893, 0.7357048108706459, -3.7916416169003027, 1.8111114897671399]],
            "warnings": []}},
}


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

    @pytest.mark.parametrize("which", sorted(ONE_TREE_JSON))
    def test_one_tree_json_is_pinned(self, tmp_path, capsys, which):
        path = str(simulate_fixture(tmp_path))
        argv = ["estimate", path] if which == "estimate" else ["test", path, "--which", which]
        assert main(argv) == 0
        assert capsys.readouterr().out == json.dumps(ONE_TREE_JSON[which], indent=2) + "\n"

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

    def test_overflowing_moments_are_singular(self, tmp_path, capsys):
        path = write(tmp_path, HUGE)
        assert main(["test", str(path), "--which", "fixed"]) == 2
        out = json.loads(capsys.readouterr().out)
        assert out["error"] == "SingularDesign"

    def test_unknown_test_is_usage_error(self, tmp_path):
        path = simulate_fixture(tmp_path)
        assert main(["test", str(path), "--which", "anova"]) == 1

    def test_missing_subcommand_is_usage_error(self):
        assert main([]) == 1


def mixed_directory(tmp_path):
    """Good, unreadable, malformed, shallow and degenerate lineage files."""
    simulate_fixture(tmp_path, "a_good.csv", depth=7, seed=1)
    (tmp_path / "b_unreadable.csv").write_bytes(b"index,value\n1,0.5\n2,\xff\xfe\n")
    write(tmp_path, "index,value\n1,0.5\n2,x\n", name="c_malformed.csv")
    simulate_fixture(tmp_path, "d_shallow.csv", depth=2, seed=3)
    write(tmp_path, HUGE, name="e_huge.csv")
    write(tmp_path, "index,value\n" + "".join(f"{k},1.0\n" for k in range(1, 16)),
          name="f_constant.csv")
    write(tmp_path, emit_lineage(*overflowing_leaves()), name="g_leaves.csv")
    chain = zip((1, 2, 5, 10, 21, 42, 85), (0.3, -1.2, 0.8, 2.1, -0.4, 0.9, 1.7))
    write(tmp_path, "index,value\n" + "".join(f"{k},{v}\n" for k, v in chain),
          name="h_chain.csv")  # no sister pair
    (tmp_path / "i_sub.csv").mkdir()
    simulate_fixture(tmp_path, "j_good.csv", depth=8, seed=2)
    write(tmp_path, "index,value\n1,0.5\n4,1.0\n", name="k_orphan.csv")
    write(tmp_path, CANCELLING, name="l_cancel.csv")
    return tmp_path


_SINGULAR = "design matrix for type 0 daughters is numerically singular (cond ~ inf)"
_NO_VARIANCE = "estimated variance is degenerate: mean-difference variance 0"
# each --which's stderr line for the degenerate files of mixed_directory
_DEGENERATE = {
    "gw": {"e_huge": _NO_VARIANCE, "f_constant": _NO_VARIANCE, "g_leaves": _NO_VARIANCE,
           "h_chain": _NO_VARIANCE, "l_cancel": _NO_VARIANCE},
    "coeff": {"e_huge": _SINGULAR, "f_constant": _SINGULAR, "g_leaves":
              "estimated variance is degenerate: covariance of (a - c, b - d): lmax inf, det nan",
              "l_cancel": _SINGULAR},
    "fixed": {"e_huge": _SINGULAR, "f_constant": _SINGULAR,
              "g_leaves": "estimated variance is degenerate: fixed-point variance nan",
              "l_cancel": _SINGULAR},
}


class TestBatch:
    @pytest.mark.parametrize("which", sorted(_DEGENERATE))
    def test_stderr_lines_in_file_order(self, tmp_path, capsys, which):
        d = mixed_directory(tmp_path)
        assert main(["batch", str(d), "--which", which]) == 0
        reasons = {
            "b_unreadable": "line 3: not UTF-8 (invalid start byte)",
            "c_malformed": "line 3: could not convert string to float: 'x'",
            "d_shallow": "skipped, depth 2 < --min-generations 3",
            "i_sub": f"[Errno 21] Is a directory: '{d / 'i_sub.csv'}'",
            "k_orphan": "cell 4 is observed but its mother 2 is not",
            **_DEGENERATE[which],
        }
        expected = "".join(f"{d / name}.csv: {reasons[name]}\n" for name in sorted(reasons))
        captured = capsys.readouterr()
        assert captured.err == expected
        rows = [ln.split(",") for ln in captured.out.splitlines()[1:]]
        assert [r[0] for r in rows] == ["a_good.csv", "e_huge.csv", "f_constant.csv",
                                        "g_leaves.csv", "h_chain.csv", "j_good.csv",
                                        "l_cancel.csv"]
        assert [r[0][:-4] for r in rows if r[2] == "nan"] == sorted(_DEGENERATE[which])

    @pytest.mark.parametrize("which", sorted(_DEGENERATE))
    def test_rows_equal_the_test_command(self, tmp_path, capsys, which):
        d = mixed_directory(tmp_path)
        assert main(["batch", str(d), "--which", which]) == 0
        rows = [ln.split(",") for ln in capsys.readouterr().out.splitlines()[1:]]
        for name, _, p in rows:
            code = main(["test", str(d / name), "--which", which])
            out = json.loads(capsys.readouterr().out)
            if p == "nan":
                assert code == 2 and "error" in out
            else:
                assert code == 0 and out["p_value"].hex() == float(p).hex()

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
        shallow = tmp_path / "shallow.csv"
        assert f"{shallow}: skipped, depth 2 < --min-generations 3" in captured.err.splitlines()

    @pytest.mark.parametrize("kind", ["missing", "file"])
    def test_not_a_directory_is_usage_error(self, tmp_path, capsys, kind):
        path = tmp_path / "nonexistent"
        if kind == "file":
            path = simulate_fixture(tmp_path, "a.csv", depth=7, seed=1)
        assert main(["batch", str(path), "--which", "fixed"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: not a directory\n"

    def test_unreadable_files_do_not_stop_the_batch(self, tmp_path, capsys):
        simulate_fixture(tmp_path, "a.csv", depth=7, seed=1)
        (tmp_path / "bad.csv").write_bytes(b"index,value\n1,0.5\n2,\xff\xfe\n")
        (tmp_path / "sub.csv").mkdir()
        assert main(["batch", str(tmp_path), "--which", "gw"]) == 0
        captured = capsys.readouterr()
        assert [ln.split(",")[0] for ln in captured.out.splitlines()] == ["file", "a.csv"]
        err = captured.err.splitlines()
        assert f"{tmp_path / 'bad.csv'}: line 3: not UTF-8 (invalid start byte)" in err
        assert any(ln.startswith(f"{tmp_path / 'sub.csv'}: ") and "Is a directory" in ln
                   for ln in err)

    def test_degenerate_rows_print_nan(self, tmp_path, capsys):
        write(tmp_path, "index,value\n" +
              "".join(f"{k},{1.0}\n" for k in range(1, 16)))
        assert main(["batch", str(tmp_path), "--which", "coeff",
                     "--min-generations", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].endswith(",nan")

    def test_overflowing_moments_print_nan(self, tmp_path, capsys):
        write(tmp_path, HUGE, name="huge.csv")
        assert main(["batch", str(tmp_path), "--which", "fixed"]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[1:] == ["huge.csv,fixed_point,nan"]
        assert "singular" in captured.err

    @pytest.mark.parametrize("which,test", [("fixed", "fixed_point"), ("coeff", "coefficient")])
    def test_non_finite_statistic_prints_nan(self, tmp_path, capsys, which, test):
        tree, values = overflowing_leaves()
        write(tmp_path, emit_lineage(tree, values), name="leaves.csv")
        assert main(["batch", str(tmp_path), "--which", which]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[1:] == [f"leaves.csv,{test},nan"]
        assert "variance is degenerate" in captured.err

    def test_nan_moments_print_nan(self, tmp_path, capsys):
        write(tmp_path, CANCELLING, name="cancel.csv")
        assert main(["batch", str(tmp_path), "--which", "fixed"]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[1:] == ["cancel.csv,fixed_point,nan"]
        assert "singular" in captured.err

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

    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys):
        cfg = write(tmp_path, "# tiny run\nreplicas = 5\nreplica=5\n", name="mc.cfg")
        assert main(["mc", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {cfg}:3: unknown key 'replica'\n"

    def test_malformed_config_is_usage_error(self, tmp_path):
        cfg = write(tmp_path, "just words\n", name="mc.cfg")
        assert main(["mc", "--config", str(cfg)]) == 1

    @pytest.mark.parametrize("line,reason", [
        ("gw_null_law0 = 0.5,0.5", "gw_null_law0: expected 4 comma-separated probabilities"),
        ("replicas = ten", "replicas: invalid literal for int() with base 10: 'ten'"),
        ("gw_alt_law1 = 0.04,0.08,0.08,0.8", "gw_alt_law1: given without gw_alt_law0"),
        # values that parse but that McConfig's field checks reject
        ("which_test = anova",
         "which_test: must be one of ('gw_mean', 'coefficient', 'fixed_point')"),
        ("generations = 9,7", "generations: must be one or more, strictly ascending within 1..30"),
        ("thresholds = 1.5", "thresholds: must be one or more distinct values in (0, 1)"),
        # a model parameter that is not finite
        ("bar_null = nan,0.5,0.5,0.5,1,0.5",
         "bar_null: model parameters must be finite, got (nan, 0.5, 0.5, 0.5, 1.0, 0.5)"),
        # the byte 0xff, which is not UTF-8
        ("replicas = 5\udcff", "not UTF-8 (invalid start byte)"),
    ])
    def test_bad_config_value_names_its_line(self, tmp_path, capsys, line, reason):
        cfg = tmp_path / "mc.cfg"
        cfg.write_bytes(f"# tiny run\ngenerations = 7\n{line}\n".encode("utf-8", "surrogateescape"))
        assert main(["mc", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {cfg}:3: {reason}\n"

    @pytest.mark.parametrize("value", ["two", ""])
    def test_bad_workers_env_var_is_named(self, monkeypatch, capsys, value):
        monkeypatch.setenv("BARLINEAGE_WORKERS", value)
        assert main(["mc", "--table", "1", "--replicas", "4", "--generations", "7"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: BARLINEAGE_WORKERS: not an integer: {value!r}\n"

    def test_bad_workers_flag_is_usage_error(self, capsys):
        assert main(["mc", "--workers", "two"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        last = captured.err.splitlines()[-1]
        assert last == "error: argument --workers: invalid int value: 'two'"

    def test_matches_library_run(self, tmp_path, capsys):
        from barlineage import emit_table, run_table, table_config

        assert main(["mc", "--table", "2", "--replicas", "15",
                     "--generations", "7,8", "--seed", "7"]) == 0
        cli_text = capsys.readouterr().out
        cfg = table_config(2, replicas=15, master_seed=7, generations=(7, 8))
        assert cli_text == emit_table(run_table(cfg))
