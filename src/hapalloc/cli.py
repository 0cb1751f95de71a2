"""Command-line entry points for the propulsion model and the allocation solvers.

Verbs: propulsion, bemt, surrogate-fit, solve, sweep, ablation.  ``bemt`` and
``surrogate-fit`` take flags only; the others take --config <json>, and
``propulsion`` also --v0.  Each takes an optional --out path; seeds come from
the config only.  Exit codes: 0 success, 2 config error, 3 power-budget
infeasibility.  ``main`` alone maps library errors to them, with one stderr
line.  Exit 2 takes ``ConfigError``, ``ConditioningError`` (users
too close, or more users than array elements), ``SurrogateRangeError``,
``SurrogateFitError`` and ``TrainingError`` (a diverged training).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import bemt as bemt_mod
from . import harness, propulsion
from .beamforming import ConditioningError
from .channel import load_scenario, scenario_from_dict
from .config import (
    Atmosphere,
    BudgetInfeasibleError,
    ConfigError,
    as_integer,
    isa_properties,
    ledger_from_dict,
    platform_from_dict,
    reject_unknown_keys,
    rf_budget,
)
from .neuro import TrainConfig, TrainingError
from .q3e import check_stage2_range, q3e, scenario_beamformer, solution_to_dict

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3


_SCENARIO_KEYS = ("scenario", "scenario_path")


def _read_json(path, keys=None) -> dict:
    """Read a JSON config object; with ``keys``, reject any other top-level key."""
    try:
        cfg = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    if keys is not None:
        reject_unknown_keys(cfg, keys, f"config {path}")
    return cfg


def _positive(name: str, value, zero_ok: bool = False) -> float:
    """``value`` as a finite float above zero (or equal to it with ``zero_ok``)."""
    try:
        x = float(value)
    except (TypeError, ValueError):
        x = math.nan
    if not (math.isfinite(x) and (x > 0.0 or (zero_ok and x == 0.0))):
        kind = "non-negative" if zero_ok else "positive"
        raise ConfigError(f"{name} must be a finite {kind} number, got {value!r}")
    return x


def _integer(name: str, value) -> int:
    try:
        return as_integer(name, value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{name} must be an integer, got {value!r}") from exc


def _required(cfg: dict, key: str, what: str):
    if key not in cfg:
        raise ConfigError(f"{what} config needs '{key}'")
    return cfg[key]


def _atmosphere(altitude, name: str = "altitude_m") -> Atmosphere:
    try:
        return isa_properties(altitude)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def _seeds(cfg: dict, default: list[int]) -> list[int]:
    """The config's ``seeds``, a non-empty list of integers, or ``default`` without the key."""
    seeds = cfg.get("seeds", default)
    if not isinstance(seeds, list) or not seeds:
        raise ConfigError(f"'seeds' must be a list of at least one seed, got {seeds!r}")
    return [_integer("seeds", s) for s in seeds]


def _increasing_grid(grid, zero_ok: bool = False) -> list[float]:
    """The sweep grid's values, each checked, then checked to strictly increase."""
    values = [_positive("grid", x, zero_ok) for x in grid]
    for a, b in zip(values, values[1:]):
        if b <= a:
            raise ConfigError(f"sweep grid must be strictly increasing, got {b!r} after {a!r}")
    return values


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        try:
            Path(out).write_text(text)
        except OSError as exc:
            raise ConfigError(f"cannot write output {out}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _cmd_propulsion(args) -> int:
    cfg = _read_json(args.config, ("platform", "altitude_m"))
    geom = platform_from_dict(_required(cfg, "platform", "propulsion"))
    atm = _atmosphere(cfg.get("altitude_m", 20000.0))
    if args.v0 is None:
        raise ConfigError("propulsion needs --v0 (m/s)")
    table = harness.run_airspeed_sweep(geom, atm, [_positive("--v0", args.v0)])
    _write_or_print(harness.table_to_csv(table), args.out)
    return EXIT_OK


def _cmd_bemt(args) -> int:
    if args.spec is None or args.v0 is None or args.ns is None:
        raise ConfigError("bemt needs --spec <dir>, --v0 (m/s) and --ns (rev/s)")
    try:
        spec = bemt_mod.load_spec_dir(args.spec)
    except (OSError, TypeError, ValueError, KeyError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot load propeller spec {args.spec}: {exc}") from exc
    v0, n_s = _positive("--v0", args.v0), _positive("--ns", args.ns)
    atm = _atmosphere(args.altitude, "--altitude")
    try:
        op = bemt_mod.propeller_performance(spec, v0, n_s, atm)
    except bemt_mod.SectionError as exc:
        raise ConfigError(f"no operating point at v0 = {v0} m/s, n_s = {n_s} rev/s: {exc}") from exc
    table = harness.ReportTable(("t_p_n", "p_p_w", "eta_p"), [[op.thrust, op.shaft_power, op.eta_p]])
    _write_or_print(harness.table_to_csv(table), args.out)
    return EXIT_OK


def _cmd_surrogate_fit(args) -> int:
    if args.samples is None:
        samples = propulsion.reference_samples()
    else:
        try:
            samples = propulsion.read_samples_csv(args.samples)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read samples {args.samples}: {exc}") from exc
    coeffs = propulsion.fit_inverse_power_surrogate(samples)
    table = harness.ReportTable(("c", "alpha", "beta", "rmse", "n_samples"),
                                [[coeffs.c, coeffs.alpha, coeffs.beta, coeffs.rmse, coeffs.n_samples]])
    _write_or_print(harness.table_to_csv(table), args.out)
    return EXIT_OK


def _budget_from_config(cfg: dict, scenario, ledger) -> float:
    """The RF budget: ``p_tot_w``, or what the propulsion chain leaves of the ledger at the scenario's altitude."""
    if "platform" in cfg:
        geom = platform_from_dict(cfg["platform"])
        atm = _atmosphere(scenario.altitude_m, "scenario altitude_m")
        v0 = _positive("v0_mps", cfg.get("v0_mps", 10.0))
        return rf_budget(ledger, propulsion.propulsion_power(atm, geom, v0, propulsion.reference_coeffs()))
    if "p_tot_w" not in cfg:
        raise ConfigError("solve config needs 'p_tot_w' or a 'platform' block")
    return _positive("p_tot_w", cfg["p_tot_w"], zero_ok=True)


def _scenario_and_ledger(cfg: dict, config_file, what: str):
    """The config's scenario and ledger, whose RF chain count ``n_t`` must be the array's element count.

    A ``scenario_path`` is relative to the directory of ``config_file`` (the config's own path) unless absolute.
    """
    if "scenario_path" in cfg:
        if "scenario" in cfg:
            raise ConfigError("config gives both 'scenario' and 'scenario_path': give one")
        path = cfg["scenario_path"]
        if not isinstance(path, str):
            raise ConfigError(f"scenario_path must be a path, got {path!r}")
        scenario = load_scenario(Path(config_file).parent / path)
    elif "scenario" in cfg:
        scenario = scenario_from_dict(cfg["scenario"])
    else:
        raise ConfigError("config needs 'scenario' or 'scenario_path'")
    ledger = ledger_from_dict(_required(cfg, "ledger", what))
    array = scenario.array
    if ledger.n_t != array.n_t:
        raise ConfigError(f"ledger n_t is {ledger.n_t} RF chains, but the array has "
                          f"{array.n_x} x {array.n_y} = {array.n_t} elements")
    return scenario, ledger


def _cmd_solve(args) -> int:
    cfg = _read_json(args.config)
    backend = cfg.get("backend", "numeric")
    if backend not in ("numeric", "mlp"):
        raise ConfigError(f"backend must be 'numeric' or 'mlp', got {backend!r}")
    # the keys the budget source and backend read: any other key would be ignored
    source = ("platform", "v0_mps") if "platform" in cfg else ("p_tot_w",)
    keys = (*_SCENARIO_KEYS, "ledger", "backend", *source, *(("seed",) if backend == "mlp" else ()))
    reject_unknown_keys(cfg, keys, f"config {args.config} (budget from '{source[0]}', {backend} backend)")
    scenario, ledger = _scenario_and_ledger(cfg, args.config, "solve")
    p_tot = _budget_from_config(cfg, scenario, ledger)
    bf = scenario_beamformer(scenario)
    check_stage2_range(scenario, bf, p_tot, ledger)
    train_cfg = TrainConfig(seed=_integer("seed", cfg.get("seed", 0))) if backend == "mlp" else None
    sol = q3e(scenario, bf, p_tot, ledger, cfg=train_cfg, backend=backend)
    doc = solution_to_dict(sol)
    doc["p_tot_w"] = p_tot
    _write_or_print(json.dumps(doc, indent=2) + "\n", args.out)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = _read_json(args.config)
    kind = cfg.get("kind")
    grid = cfg.get("grid")
    if not isinstance(grid, list) or not grid:
        raise ConfigError("sweep config needs a non-empty 'grid' list")
    if kind == "airspeed":
        reject_unknown_keys(cfg, ("kind", "grid", "platform", "altitude_m"), f"config {args.config}")
        geom = platform_from_dict(_required(cfg, "platform", "airspeed sweep"))
        atm = _atmosphere(cfg.get("altitude_m", 20000.0))
        table = harness.run_airspeed_sweep(geom, atm, _increasing_grid(grid))
    elif kind == "rf_budget":
        keys = ("kind", "grid", *_SCENARIO_KEYS, "ledger", "backends", "seeds")
        reject_unknown_keys(cfg, keys, f"config {args.config}")
        scenario, ledger = _scenario_and_ledger(cfg, args.config, "rf_budget sweep")
        backends = cfg.get("backends", list(harness.BUDGET_BACKENDS))
        if not isinstance(backends, list) or not backends:
            raise ConfigError(f"'backends' must be a non-empty list, got {backends!r}")
        table = harness.run_budget_sweep(
            scenario, ledger, _increasing_grid(grid, zero_ok=True), backends=tuple(backends),
            seeds=_seeds(cfg, [0]),
        )
    else:
        raise ConfigError("sweep 'kind' must be 'airspeed' or 'rf_budget'")
    _write_or_print(harness.table_to_csv(table), args.out)
    if args.svg:
        _write_or_print(harness.table_to_svg(table), args.svg)
    return EXIT_OK


def _cmd_ablation(args) -> int:
    cfg = _read_json(args.config, (*_SCENARIO_KEYS, "ledger", "p_tot_w", "seeds", "max_epochs"))
    scenario, ledger = _scenario_and_ledger(cfg, args.config, "ablation")
    p_tot = _positive("p_tot_w", _required(cfg, "p_tot_w", "ablation"), zero_ok=True)
    seeds = _seeds(cfg, list(range(harness.ABLATION_MIN_SEEDS)))
    max_epochs = _integer("max_epochs", cfg.get("max_epochs", TrainConfig.max_epochs))
    table = harness.run_ablation(scenario, ledger, p_tot, seeds=seeds, max_epochs=max_epochs)
    _write_or_print(harness.table_to_csv(table), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hapalloc",
        description="Platform propulsion power model and QoS-first RF power allocation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("propulsion", help="drag, efficiency, and propulsion power at one airspeed")
    p.add_argument("--config", required=True, help="platform JSON config")
    p.add_argument("--v0", help="airspeed, m/s")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_propulsion)

    p = sub.add_parser("bemt", help="propeller thrust, shaft power, and efficiency")
    p.add_argument("--spec", help="propeller spec directory")
    p.add_argument("--v0", help="airspeed, m/s")
    p.add_argument("--ns", help="rotational speed, rev/s")
    p.add_argument("--altitude", default=20000.0, help="altitude, m (default 20000)")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_bemt)

    p = sub.add_parser("surrogate-fit", help="fit the inverse-power efficiency surrogate")
    p.add_argument("--samples", help="efficiency samples CSV (default: the reference samples)")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_surrogate_fit)

    p = sub.add_parser("solve", help="run the two-stage allocation on one scenario")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("sweep", help="airspeed or RF-budget sweep to CSV (and SVG)")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.add_argument("--svg", help="also write an SVG line chart here")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("ablation", help="neural-backend ablation table")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_ablation)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ConditioningError, propulsion.SurrogateRangeError, propulsion.SurrogateFitError,
            TrainingError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BudgetInfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
