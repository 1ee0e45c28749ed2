"""Golden bytes of emitted size/power tables.

The texts below were recorded from ``barlineage mc`` at 30 replicas over
generations 7 and 8 with seed 29.  Any change that moves a p-value
across a threshold, or the formatting of a row, breaks them; a refactor
of the replica path or of the config plumbing must keep them exact.
"""

import contextlib
import io

import pytest

from barlineage.cli import main

ARGS = ["mc", "--replicas", "30", "--generations", "7,8", "--seed", "29"]

TABLE1_CSV = """\
generation,hypothesis,threshold,rejection_pct,n_used,n_extinct,n_degenerate
7,H0,0.05,3.6,28,2,0
7,H0,0.01,0.0,28,2,0
7,H0,0.001,0.0,28,2,0
7,H1,0.05,38.5,26,4,0
7,H1,0.01,11.5,26,4,0
7,H1,0.001,0.0,26,4,0
8,H0,0.05,13.8,29,1,0
8,H0,0.01,6.9,29,1,0
8,H0,0.001,0.0,29,1,0
8,H1,0.05,53.6,28,2,0
8,H1,0.01,25.0,28,2,0
8,H1,0.001,3.6,28,2,0
"""

TABLE2_CSV = """\
generation,hypothesis,threshold,rejection_pct,n_used,n_extinct,n_degenerate
7,H0,0.05,7.1,28,2,0
7,H0,0.01,3.6,28,2,0
7,H0,0.001,0.0,28,2,0
7,H1,0.05,7.7,26,4,0
7,H1,0.01,3.8,26,4,0
7,H1,0.001,0.0,26,4,0
8,H0,0.05,3.4,29,1,0
8,H0,0.01,0.0,29,1,0
8,H0,0.001,0.0,29,1,0
8,H1,0.05,28.6,28,2,0
8,H1,0.01,7.1,28,2,0
8,H1,0.001,3.6,28,2,0
"""

TABLE3_CSV = """\
generation,hypothesis,threshold,rejection_pct,n_used,n_extinct,n_degenerate
7,H0,0.05,3.6,28,2,0
7,H0,0.01,3.6,28,2,0
7,H0,0.001,0.0,28,2,0
7,H1,0.05,3.8,26,4,0
7,H1,0.01,0.0,26,4,0
7,H1,0.001,0.0,26,4,0
8,H0,0.05,6.9,29,1,0
8,H0,0.01,0.0,29,1,0
8,H0,0.001,0.0,29,1,0
8,H1,0.05,21.4,28,2,0
8,H1,0.01,3.6,28,2,0
8,H1,0.001,0.0,28,2,0
"""

TABLE2_JSON = """\
[
  {
    "generation": 7,
    "hypothesis": "H0",
    "threshold": 0.05,
    "rejection_pct": 7.1,
    "n_used": 28,
    "n_extinct": 2,
    "n_degenerate": 0
  },
  {
    "generation": 7,
    "hypothesis": "H0",
    "threshold": 0.01,
    "rejection_pct": 3.6,
    "n_used": 28,
    "n_extinct": 2,
    "n_degenerate": 0
  },
  {
    "generation": 7,
    "hypothesis": "H0",
    "threshold": 0.001,
    "rejection_pct": 0.0,
    "n_used": 28,
    "n_extinct": 2,
    "n_degenerate": 0
  },
  {
    "generation": 7,
    "hypothesis": "H1",
    "threshold": 0.05,
    "rejection_pct": 7.7,
    "n_used": 26,
    "n_extinct": 4,
    "n_degenerate": 0
  },
  {
    "generation": 7,
    "hypothesis": "H1",
    "threshold": 0.01,
    "rejection_pct": 3.8,
    "n_used": 26,
    "n_extinct": 4,
    "n_degenerate": 0
  },
  {
    "generation": 7,
    "hypothesis": "H1",
    "threshold": 0.001,
    "rejection_pct": 0.0,
    "n_used": 26,
    "n_extinct": 4,
    "n_degenerate": 0
  },
  {
    "generation": 8,
    "hypothesis": "H0",
    "threshold": 0.05,
    "rejection_pct": 3.4,
    "n_used": 29,
    "n_extinct": 1,
    "n_degenerate": 0
  },
  {
    "generation": 8,
    "hypothesis": "H0",
    "threshold": 0.01,
    "rejection_pct": 0.0,
    "n_used": 29,
    "n_extinct": 1,
    "n_degenerate": 0
  },
  {
    "generation": 8,
    "hypothesis": "H0",
    "threshold": 0.001,
    "rejection_pct": 0.0,
    "n_used": 29,
    "n_extinct": 1,
    "n_degenerate": 0
  },
  {
    "generation": 8,
    "hypothesis": "H1",
    "threshold": 0.05,
    "rejection_pct": 28.6,
    "n_used": 28,
    "n_extinct": 2,
    "n_degenerate": 0
  },
  {
    "generation": 8,
    "hypothesis": "H1",
    "threshold": 0.01,
    "rejection_pct": 7.1,
    "n_used": 28,
    "n_extinct": 2,
    "n_degenerate": 0
  },
  {
    "generation": 8,
    "hypothesis": "H1",
    "threshold": 0.001,
    "rejection_pct": 3.6,
    "n_used": 28,
    "n_extinct": 2,
    "n_degenerate": 0
  }
]
"""

# preset 2 spelled out key by key (gw_alt stays None as in the preset)
PRESET2_CONFIG = """\
which_test = coefficient
gw_null_law0 = 0.04,0.08,0.08,0.8
gw_null_law1 = 0.04,0.08,0.08,0.8
bar_null = 0.5,0.5,0.5,0.5,1.0,0.5
bar_alt = 0.5,0.5,0.5,0.4,1.0,0.5
generations = 7,8
replicas = 30
thresholds = 0.05,0.01,0.001
master_seed = 29
"""


def run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0
    return buf.getvalue()


@pytest.mark.parametrize("table,expected", [
    (1, TABLE1_CSV), (2, TABLE2_CSV), (3, TABLE3_CSV),
])
def test_preset_csv_bytes(table, expected):
    assert run(ARGS + ["--table", str(table)]) == expected


def test_preset_json_bytes():
    assert run(ARGS + ["--table", "2", "--format", "json"]) == TABLE2_JSON


def test_config_file_spelling_out_preset(tmp_path):
    cfg = tmp_path / "preset2.cfg"
    cfg.write_text(PRESET2_CONFIG, encoding="utf-8")
    assert run(["mc", "--config", str(cfg)]) == TABLE2_CSV


def test_flags_over_file_over_preset(tmp_path):
    # the file overrides the preset's replicas, generations and seed, and
    # the flags override the file back to the golden settings
    cfg = tmp_path / "override.cfg"
    cfg.write_text("replicas = 5\ngenerations = 9\nmaster_seed = 1\n", encoding="utf-8")
    assert run(ARGS + ["--table", "3", "--config", str(cfg)]) == TABLE3_CSV
    # a key no flag sets keeps the file's value over the preset's
    cfg.write_text("thresholds = 0.05\n", encoding="utf-8")
    header, *rows = TABLE3_CSV.splitlines(keepends=True)
    expected = header + "".join(r for r in rows if r.split(",")[2] == "0.05")
    assert run(ARGS + ["--table", "3", "--config", str(cfg)]) == expected
