"""Command-line entry points for the propulsion model and the allocation solvers.

Verbs: propulsion, bemt, surrogate-fit, solve, sweep, ablation.  Each takes
--config <json> plus verb-specific flags and an optional --out path.  Exit
codes: 0 success, 2 config error (one ``config error:`` line, including
users too close for zero forcing, an RF budget whose rates or communication
power overflow, and a neural training that diverges), 3 power-budget
infeasibility.  Seeds come from the config only.
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
    load_platform_config,
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


def _atmosphere(altitude) -> Atmosphere:
    try:
        return isa_properties(altitude)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"altitude: {exc}") from exc


def _seeds(raw, default=(0,)) -> list[int]:
    if raw is None:
        return list(default)
    seeds = [_integer("seed", s) for s in (raw if isinstance(raw, list) else [raw])]
    if not seeds:
        raise ConfigError("seeds must list at least one seed")
    return seeds


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
    geom, _, altitude = load_platform_config(args.config)
    atm = _atmosphere(altitude)
    if args.v0 is None:
        raise ConfigError("propulsion needs --v0 (m/s)")
    v0 = _positive("--v0", args.v0)
    try:
        table = harness.run_airspeed_sweep(geom, atm, [v0], propulsion.reference_coeffs())
    except propulsion.SurrogateRangeError as exc:
        raise ConfigError(str(exc)) from exc
    _write_or_print(harness.table_to_csv(table), args.out)
    return EXIT_OK


def _cmd_bemt(args) -> int:
    cfg = _read_json(args.config, ("spec_dir", "v0_mps", "ns_rps", "altitude_m")) if args.config else {}
    spec_dir = args.spec or cfg.get("spec_dir")
    v0 = args.v0 if args.v0 is not None else cfg.get("v0_mps")
    n_s = args.ns if args.ns is not None else cfg.get("ns_rps")
    altitude = args.altitude if args.altitude is not None else cfg.get("altitude_m", 20000.0)
    if spec_dir is None or v0 is None or n_s is None:
        raise ConfigError("bemt needs --spec <dir>, --v0 (m/s), and --ns (rev/s), "
                          "via flags or the JSON config")
    try:
        spec = bemt_mod.load_spec_dir(spec_dir)
    except (OSError, TypeError, ValueError, KeyError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot load propeller spec {spec_dir}: {exc}") from exc
    v0, n_s = _positive("--v0/v0_mps", v0), _positive("--ns/ns_rps", n_s)
    atm = _atmosphere(altitude)
    try:
        op = bemt_mod.propeller_performance(spec, v0, n_s, atm)
    except bemt_mod.SectionError as exc:
        raise ConfigError(f"no operating point at v0 = {v0} m/s, n_s = {n_s} rev/s: {exc}") from exc
    text = "t_p_n,p_p_w,eta_p\n" + f"{op.thrust!r},{op.shaft_power!r},{op.eta_p!r}\n"
    _write_or_print(text, args.out)
    return EXIT_OK


def _cmd_surrogate_fit(args) -> int:
    cfg = _read_json(args.config, ("samples_csv",)) if args.config else {}
    if "samples_csv" in cfg:
        path = cfg["samples_csv"]
        if not isinstance(path, str):
            raise ConfigError(f"samples_csv must be a path, got {path!r}")
        try:
            samples = propulsion.read_samples_csv(path)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read samples {path}: {exc}") from exc
    else:
        samples = propulsion.reference_samples()
    try:
        coeffs = propulsion.fit_inverse_power_surrogate(samples)
    except propulsion.SurrogateFitError as exc:
        raise ConfigError(str(exc)) from exc
    text = (
        "c,alpha,beta,rmse,n_samples\n"
        + f"{coeffs.c!r},{coeffs.alpha!r},{coeffs.beta!r},{coeffs.rmse!r},{coeffs.n_samples}\n"
    )
    _write_or_print(text, args.out)
    return EXIT_OK


def _budget_from_config(cfg: dict) -> tuple[float, object]:
    """(RF budget, ledger) from an explicit value or the propulsion chain."""
    if "platform" in cfg:
        geom = platform_from_dict(cfg["platform"])
        ledger = ledger_from_dict(_required(cfg, "ledger", "solve"))
        atm = _atmosphere(cfg.get("altitude_m", 20000.0))
        v0 = _positive("v0_mps", cfg.get("v0_mps", 10.0))
        try:
            p_prop = propulsion.propulsion_power(atm, geom, v0, propulsion.reference_coeffs())
        except propulsion.SurrogateRangeError as exc:
            raise ConfigError(str(exc)) from exc
        return rf_budget(ledger, p_prop), ledger
    if "ledger" not in cfg or "p_tot_w" not in cfg:
        raise ConfigError("solve config needs 'p_tot_w' and 'ledger', or a 'platform' block")
    return _positive("p_tot_w", cfg["p_tot_w"], zero_ok=True), ledger_from_dict(cfg["ledger"])


def _scenario_from_config(cfg: dict, base: Path):
    if "scenario_path" in cfg:
        path = cfg["scenario_path"]
        if not isinstance(path, str):
            raise ConfigError(f"scenario_path must be a path, got {path!r}")
        return load_scenario(base / path)
    if "scenario" not in cfg:
        raise ConfigError("config needs 'scenario' or 'scenario_path'")
    return scenario_from_dict(cfg["scenario"])


def _cmd_solve(args) -> int:
    keys = (*_SCENARIO_KEYS, "ledger", "p_tot_w", "platform", "altitude_m", "v0_mps", "backend", "seed")
    cfg = _read_json(args.config, keys)
    scenario = _scenario_from_config(cfg, Path(args.config).parent)
    p_tot, ledger = _budget_from_config(cfg)
    backend = cfg.get("backend", "numeric")
    if backend not in ("numeric", "mlp"):
        raise ConfigError(f"backend must be 'numeric' or 'mlp', got {backend!r}")
    bf = scenario_beamformer(scenario)
    check_stage2_range(scenario, bf, p_tot, ledger)
    train_cfg = TrainConfig(seed=_seeds(cfg.get("seed"), default=(0,))[0]) if backend == "mlp" else None
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
        keys = ("kind", "grid", "platform", "altitude_m", "legacy_eta_p")
        reject_unknown_keys(cfg, keys, f"config {args.config}")
        geom = platform_from_dict(cfg["platform"]) if "platform" in cfg else None
        if geom is None:
            raise ConfigError("airspeed sweep needs a 'platform' block")
        atm = _atmosphere(cfg.get("altitude_m", 20000.0))
        grid = _increasing_grid(grid)
        legacy_eta_p = _positive("legacy_eta_p", cfg.get("legacy_eta_p", 0.73))
        if legacy_eta_p > 1.0:
            raise ConfigError(f"legacy_eta_p must be in (0, 1], got {legacy_eta_p!r}")
        try:
            table = harness.run_airspeed_sweep(geom, atm, grid, legacy_eta_p=legacy_eta_p)
        except propulsion.SurrogateRangeError as exc:
            raise ConfigError(str(exc)) from exc
    elif kind == "rf_budget":
        keys = ("kind", "grid", *_SCENARIO_KEYS, "ledger", "backends", "seeds")
        reject_unknown_keys(cfg, keys, f"config {args.config}")
        scenario = _scenario_from_config(cfg, Path(args.config).parent)
        ledger = ledger_from_dict(_required(cfg, "ledger", "rf_budget sweep"))
        backends = cfg.get("backends", list(harness.BUDGET_BACKENDS))
        if not isinstance(backends, list) or not backends:
            raise ConfigError(f"'backends' must be a non-empty list, got {backends!r}")
        unknown = [b for b in backends if b not in harness.BUDGET_BACKENDS]
        if unknown:
            raise ConfigError(f"unknown backend(s) {', '.join(map(repr, unknown))}")
        table = harness.run_budget_sweep(
            scenario, ledger, _increasing_grid(grid, zero_ok=True), backends=tuple(backends),
            seeds=_seeds(cfg.get("seeds")),
        )
    else:
        raise ConfigError("sweep 'kind' must be 'airspeed' or 'rf_budget'")
    _write_or_print(harness.table_to_csv(table), args.out)
    if args.svg:
        try:
            harness.emit_report(table, "svg", args.svg)
        except OSError as exc:
            raise ConfigError(str(exc)) from exc
    return EXIT_OK


def _cmd_ablation(args) -> int:
    cfg = _read_json(args.config, (*_SCENARIO_KEYS, "ledger", "p_tot_w", "seeds", "max_epochs"))
    scenario = _scenario_from_config(cfg, Path(args.config).parent)
    ledger = ledger_from_dict(_required(cfg, "ledger", "ablation"))
    p_tot = _positive("p_tot_w", _required(cfg, "p_tot_w", "ablation"), zero_ok=True)
    seeds = cfg.get("seeds", list(range(harness.ABLATION_MIN_SEEDS)))
    if not isinstance(seeds, list):
        raise ConfigError(f"ablation 'seeds' must be a list, got {seeds!r}")
    seeds = [_integer("seeds", s) for s in seeds]
    table = harness.run_ablation(
        scenario, ledger, p_tot, seeds=seeds, max_epochs=_integer("max_epochs", cfg.get("max_epochs", 2000))
    )
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
    p.add_argument("--v0", type=float, help="airspeed, m/s")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_propulsion)

    p = sub.add_parser("bemt", help="propeller thrust, shaft power, and efficiency")
    p.add_argument("--spec", help="propeller spec directory")
    p.add_argument("--v0", type=float, help="airspeed, m/s")
    p.add_argument("--ns", type=float, help="rotational speed, rev/s")
    p.add_argument("--altitude", type=float, default=None)
    p.add_argument("--config", help="JSON with spec_dir, v0_mps, ns_rps, altitude_m")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_bemt)

    p = sub.add_parser("surrogate-fit", help="fit the inverse-power efficiency surrogate")
    p.add_argument("--config", help="JSON with optional samples_csv path")
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
    except (ConfigError, ConditioningError, TrainingError) as exc:  # bad config, co-located users, divergence
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BudgetInfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
