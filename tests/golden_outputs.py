"""The shipped configs' study outputs, checked in under ``tests/golden/``.

``test_golden.py`` regenerates each file through ``cli.main`` and compares
bytes.  A change that moves an output on purpose rewrites the files with

    PYTHONPATH=src python tests/golden_outputs.py

from the repository root; the diff then shows exactly which values moved.

The files hold for numpy 2.4.6, the version CI pins.  Another numpy may round
the last bits of a rate, a sum or a trained network differently, so under it
the byte compare is skipped, with both versions named.  The ``bemt`` verb is
left out: its last bits may differ across numpy builds and CPUs, and it is
checked against ``tests/bemt_oracle.py`` at stated tolerances instead.  So is
``surrogate-fit``: its closed-form fit rests on numpy's elementwise ``power``,
sums and divisions, which are not verified to round alike on every CPU.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from hapalloc import cli

TESTS_DIR = Path(__file__).resolve().parent
CONFIG_DIR = TESTS_DIR.parent / "configs"
GOLDEN_DIR = TESTS_DIR / "golden"
PINNED_NUMPY = "2.4.6"


def cli_runs(out: Path) -> dict[str, tuple[list[str], tuple[str, ...]]]:
    """Per run, the ``cli.main`` arguments that write golden files into the directory ``out``, and those files."""
    solve_mlp = json.loads((CONFIG_DIR / "solve.json").read_text())
    solve_mlp.update(backend="mlp", scenario_path=str(CONFIG_DIR / "scenario_sweep.json"))
    solve_mlp_path = out / "solve_mlp_config.json"
    solve_mlp_path.write_text(json.dumps(solve_mlp))
    runs = {
        "propulsion": (["propulsion", "--config", CONFIG_DIR / "platform.json", "--v0", "10",
                        "--out", out / "propulsion.csv"], ("propulsion.csv",)),
        "budget-sweep": (["sweep", "--config", CONFIG_DIR / "sweep_budget.json", "--out", out / "budget.csv",
                          "--svg", out / "budget.svg"], ("budget.csv", "budget.svg")),
        "airspeed-sweep": (["sweep", "--config", CONFIG_DIR / "sweep_airspeed.json", "--out", out / "airspeed.csv",
                            "--svg", out / "airspeed.svg"], ("airspeed.csv", "airspeed.svg")),
        "solve": (["solve", "--config", CONFIG_DIR / "solve.json", "--out", out / "solve.json"], ("solve.json",)),
        "solve-mlp": (["solve", "--config", solve_mlp_path, "--out", out / "solve_mlp.json"], ("solve_mlp.json",)),
        "ablation": (["ablation", "--config", CONFIG_DIR / "ablation.json", "--out", out / "ablation.csv"],
                     ("ablation.csv",)),
    }
    return {run: ([str(a) for a in args], files) for run, (args, files) in runs.items()}


def run_cli(args: list[str]) -> None:
    if cli.main(args) != cli.EXIT_OK:
        raise RuntimeError(f"hapalloc {' '.join(args)} failed")


def main() -> None:
    if np.__version__ != PINNED_NUMPY:
        raise SystemExit(f"golden outputs are written with numpy {PINNED_NUMPY}, not {np.__version__}")
    GOLDEN_DIR.mkdir(exist_ok=True)
    for args, _ in cli_runs(GOLDEN_DIR).values():
        run_cli(args)
    (GOLDEN_DIR / "solve_mlp_config.json").unlink()


if __name__ == "__main__":
    main()
