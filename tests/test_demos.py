"""The documented demo scripts run to completion.

Demo 03 is left out: it runs a 200-replica power table.
"""

import contextlib
import io
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["01_simulate_and_inspect.py", "02_estimate_and_test.py"])
def test_demo_runs(name):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert buf.getvalue().strip()
