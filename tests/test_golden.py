"""The shipped configs' study outputs, byte for byte as checked in under ``tests/golden/``.

See ``golden_outputs.py`` for how to rewrite the files and how another numpy
than the pinned one is treated.
"""

import numpy as np
import pytest

from golden_outputs import GOLDEN_DIR, PINNED_NUMPY, cli_runs, run_cli

RUNS = ("propulsion", "budget-sweep", "airspeed-sweep", "solve", "solve-mlp", "ablation")


@pytest.mark.skipif(np.__version__ != PINNED_NUMPY,
                    reason=f"golden outputs hold for numpy {PINNED_NUMPY}, not {np.__version__}")
@pytest.mark.parametrize("run", RUNS)
def test_cli_writes_the_golden_bytes(run, tmp_path, request):
    args, files = cli_runs(tmp_path)[run]
    if run == "ablation":  # the run that criterion 11 checks too
        written = request.getfixturevalue("shipped_ablation_csv").parent
    else:
        run_cli(args)
        written = tmp_path
    for name in files:
        assert (written / name).read_bytes() == (GOLDEN_DIR / name).read_bytes(), name
