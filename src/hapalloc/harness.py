"""Experiment sweeps, the ablation runner, and CSV/SVG report emission.

Sweeps evaluate a grid of airspeeds (propulsion model columns) or RF budgets
(per-backend satisfaction ratio and EE) and return fixed-schema tables whose
CSV form is byte-stable for a given config and seed set.  Each sweep writes
what it computed at every grid value, one row per value (and backend), and
hands the SVG emitter its curves as ``(name, xs, ys)`` series.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import neuro, propulsion
from .beamforming import ZfBeamformer
from .channel import Scenario
from .config import Atmosphere, ConfigError, PlatformGeometry, PowerLedger
from .q3e import (
    Q3eSolution,
    _mlp_solution,
    baseline_max_sum_rate,
    baseline_qos_only,
    check_stage2_range,
    q3e,
    scenario_beamformer,
    stage2_problem,
)

AIRSPEED_HEADERS = ["v0_mps", "t_n", "cdv", "re", "eta_hat", "p_prop_w", "p_prop_legacy_w"]
BUDGET_HEADERS = ["p_tot_w", "backend", "satisfaction", "ee_bps_per_w", "rf_spent_w"]
ABLATION_HEADERS = ["variant", "feasibility_pct", "mean_overshoot_w", "mean_ee_bps_per_w"]

BUDGET_BACKENDS = ("q3e-numeric", "q3e-mlp", "max-sum-rate", "qos-only")
ABLATION_MIN_SEEDS = 10
LEGACY_ETA_P = 0.73  # the fixed propeller efficiency of the legacy propulsion model


@dataclass(frozen=True)
class ReportTable:
    """Fixed-header table, with the ``(name, xs, ys)`` curves the SVG emitter plots (none: no chart)."""

    headers: tuple[str, ...]
    rows: list[list]
    series: tuple[tuple[str, list, list], ...] = ()
    x_label: str = ""
    y_label: str = ""


def run_airspeed_sweep(geom: PlatformGeometry, atm: Atmosphere, grid) -> ReportTable:
    """Propulsion columns over an airspeed grid, plus the fixed-efficiency model.

    The surrogate column uses ``propulsion.reference_coeffs()``, the legacy
    column the constant propeller efficiency ``LEGACY_ETA_P``, for
    side-by-side deviation against the airspeed-dependent surrogate.  One row
    per airspeed, in grid order; the chart plots both power columns.
    """
    coeffs = propulsion.reference_coeffs()
    rows = []
    for v0 in grid:
        v0 = float(v0)
        re = propulsion.reynolds(atm, v0, geom.length_l)
        cdv = propulsion.hull_drag_coefficient(geom.slenderness, re)
        drag = propulsion.aerodynamic_drag(atm, geom, v0)
        eta = propulsion.surrogate_efficiency(coeffs, v0)
        power = propulsion.propulsion_power(atm, geom, v0, coeffs)
        legacy = drag * v0 / (LEGACY_ETA_P * geom.motor_eff_etam)
        rows.append([v0, drag, cdv, re, eta, power, legacy])
    v0s = [r[0] for r in rows]
    return ReportTable(
        headers=tuple(AIRSPEED_HEADERS),
        rows=rows,
        series=(("p_prop_w", v0s, [r[5] for r in rows]), ("p_prop_legacy_w", v0s, [r[6] for r in rows])),
        x_label="airspeed (m/s)",
        y_label="propulsion power (W)",
    )


def _distinct(what: str, values) -> list:
    """``values`` as a list; raises ConfigError naming the first value that repeats."""
    values = list(values)
    for i, v in enumerate(values):
        if v in values[:i]:
            raise ConfigError(f"{what} must not repeat, but {v!r} appears more than once")
    return values


def _means(sols: list[Q3eSolution], k: int) -> tuple[float, float, float]:
    """(satisfaction, mean EE, mean RF spend) of one backend's solutions at one budget, in list order."""
    sat = float(np.mean([len(s.q_set) / k for s in sols]))
    ee = float(np.mean([s.ee for s in sols]))
    rf = float(np.mean([s.rf_spent for s in sols]))
    return sat, ee, rf


def _solve_backend(
    backend: str, scenario: Scenario, bf: ZfBeamformer, p_tot: float, ledger: PowerLedger
) -> Q3eSolution:
    """One non-neural backend's solution at one budget."""
    if backend == "q3e-numeric":
        return q3e(scenario, bf, p_tot, ledger, backend="numeric")
    if backend == "max-sum-rate":
        return baseline_max_sum_rate(scenario, bf, p_tot, ledger)
    return baseline_qos_only(scenario, bf, p_tot, ledger)


def _mlp_solutions(scenario: Scenario, bf: ZfBeamformer, ledger: PowerLedger, grid, seeds) -> list[list[Q3eSolution]]:
    """The q3e-mlp backend's solutions, one per seed in seed order, at each budget of ``grid``.

    Each solution is what ``q3e(backend="mlp")`` returns for its budget and
    seed.  Each run of consecutive budgets whose stage-2 problems share a
    face (``PowerProblem.shares_face``) trains in one ``neuro.train_many``
    pool, jobs in budget-then-seed order, so a diverging training raises the
    error of the first diverging (budget, seed) in grid order.
    """
    problems = [stage2_problem(scenario, bf, p_tot, ledger) for p_tot in grid]
    cfgs = [neuro.TrainConfig(seed=s) for s in seeds]
    sols: list[list] = [[None] * len(cfgs) for _ in problems]
    start = 0
    while start < len(problems):
        stop = start + 1
        while stop < len(problems) and problems[stop].shares_face(problems[start]):
            stop += 1
        jobs = [(problems[i], cfg) for i in range(start, stop) for cfg in cfgs]
        for j, net in neuro.train_many(jobs):
            i, s = divmod(j, len(cfgs))
            sols[start + i][s] = _mlp_solution(problems[start + i], net)
        start = stop
    return sols


def run_budget_sweep(
    scenario: Scenario,
    ledger: PowerLedger,
    grid,
    backends=BUDGET_BACKENDS,
    seeds=(0,),
) -> ReportTable:
    """Per-backend satisfaction ratio and EE over an RF-budget grid.

    Rows come out in grid-then-backend order; q3e-mlp averages over
    ``seeds``.  The chart plots each backend's satisfaction ratio against
    the budget.  Raises ConfigError, before any training, for an unknown
    backend, a repeated backend or seed, or a budget out of range
    (``check_stage2_range``).
    """
    backends = _distinct("sweep backends", backends)
    unknown = [b for b in backends if b not in BUDGET_BACKENDS]
    if unknown:
        raise ConfigError(f"unknown backend(s) {', '.join(map(repr, unknown))}")
    seeds = _distinct("sweep seeds", (int(s) for s in seeds))
    bf = scenario_beamformer(scenario)
    grid = [float(x) for x in grid]
    for p_tot in grid:
        check_stage2_range(scenario, bf, p_tot, ledger)

    k = scenario.n_users
    mlp = _mlp_solutions(scenario, bf, ledger, grid, seeds) if "q3e-mlp" in backends else None
    results = [
        {
            b: _means(mlp[i] if b == "q3e-mlp" else [_solve_backend(b, scenario, bf, p_tot, ledger)], k)
            for b in backends
        }
        for i, p_tot in enumerate(grid)
    ]

    rows = [[p_tot, b, *by_backend[b]] for p_tot, by_backend in zip(grid, results) for b in backends]
    return ReportTable(
        headers=tuple(BUDGET_HEADERS),
        rows=rows,
        series=tuple((b, grid, [by_backend[b][0] for by_backend in results]) for b in backends),
        x_label="RF power budget (W)",
        y_label="QoS satisfaction ratio",
    )


def run_ablation(
    scenario: Scenario,
    ledger: PowerLedger,
    p_tot: float,
    seeds,
    max_epochs: int = neuro.TrainConfig.max_epochs,
) -> ReportTable:
    """Train the neural backend with and without its budget cap.

    Two variants per seed: the full trainer ("full", its water level capped
    at the budget's, exactly ``q3e(backend="mlp")``) and the uncapped level
    ("no-scale", G(s) = s: the level, and so the spend, may pass the
    budget).  Reported per variant: percentage of seeds whose final output
    respects the RF budget, the mean budget overshoot in watts, and the mean
    EE over the feasible runs.
    """
    seeds = _distinct("ablation seeds", (int(s) for s in seeds))
    if len(seeds) < ABLATION_MIN_SEEDS:
        raise ConfigError(f"ablation needs at least {ABLATION_MIN_SEEDS} seeds, got {len(seeds)}")
    bf = scenario_beamformer(scenario)
    check_stage2_range(scenario, bf, p_tot, ledger)
    problem = stage2_problem(scenario, bf, p_tot, ledger)

    variants = [("full", True), ("no-scale", False)]
    cfgs = [
        neuro.TrainConfig(seed=seed, max_epochs=max_epochs, project_scaling=scaling)
        for _, scaling in variants
        for seed in seeds
    ]
    trained = {
        i: neuro.trained_coefficients(net, problem, scaling=cfgs[i].project_scaling)
        for i, net in neuro.train_many((problem, cfg) for cfg in cfgs)
    }
    coefficients = iter([trained[i] for i in range(len(cfgs))])
    rows = []
    for name, _ in variants:
        feasible, overshoot, ees = [], [], []
        for _ in seeds:
            p = next(coefficients)
            spent = problem.rf_spent(p)
            ok = spent <= p_tot * (1.0 + 1e-9) + 1e-12
            feasible.append(ok)
            excess = max(0.0, spent - p_tot)
            overshoot.append(0.0 if excess <= p_tot * 1e-12 else excess)
            if ok:
                ees.append(problem.objective(p))
        mean_ee = float(np.mean(ees)) if ees else float("nan")
        rows.append(
            [name, 100.0 * float(np.mean(feasible)), float(np.mean(overshoot)), mean_ee]
        )
    return ReportTable(headers=tuple(ABLATION_HEADERS), rows=rows)


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------


def table_to_csv(table: ReportTable) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(table.headers)
    for row in table.rows:
        writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    return buf.getvalue()


_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def table_to_svg(table: ReportTable) -> str:
    """Self-contained 960x540 line chart, one polyline per series of ``table.series``."""
    series = table.series
    if not series:
        raise ValueError("table carries no series; cannot emit SVG")
    all_x = [x for _, xs, _ in series for x in xs]
    all_y = [y for _, _, ys in series for y in ys]
    x_lo, x_hi = min(all_x), max(all_x)
    y_lo, y_hi = min(all_y), max(all_y)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    left, right, top, bottom = 80.0, 930.0, 30.0, 480.0

    def px(x):
        return left + (x - x_lo) / (x_hi - x_lo) * (right - left)

    def py(y):
        return bottom - (y - y_lo) / (y_hi - y_lo) * (bottom - top)

    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 960 540" '
        'font-family="sans-serif" font-size="14">',
        '<rect x="0" y="0" width="960" height="540" fill="white"/>',
        f'<line x1="{left}" y1="{bottom}" x2="{right}" y2="{bottom}" stroke="black"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{bottom}" stroke="black"/>',
        f'<text x="{(left + right) / 2:.1f}" y="525" text-anchor="middle">'
        f"{table.x_label}</text>",
        f'<text x="20" y="{(top + bottom) / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 20 {(top + bottom) / 2:.1f})">'
        f"{table.y_label}</text>",
        f'<text x="{left}" y="{bottom + 20:.1f}" text-anchor="middle">{x_lo:g}</text>',
        f'<text x="{right}" y="{bottom + 20:.1f}" text-anchor="middle">{x_hi:g}</text>',
        f'<text x="{left - 8}" y="{bottom:.1f}" text-anchor="end">{y_lo:g}</text>',
        f'<text x="{left - 8}" y="{top + 5:.1f}" text-anchor="end">{y_hi:g}</text>',
    ]
    for i, (name, xs, ys) in enumerate(series):
        color = _SVG_COLORS[i % len(_SVG_COLORS)]
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="2" points="{pts}"/>')
        parts.append(
            f'<text x="{right - 180}" y="{top + 20 + 18 * i:.1f}" fill="{color}">{name}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def emit_report(table: ReportTable, fmt: str, path: str | Path) -> Path:
    """Write a table as CSV or SVG; returns the path written."""
    if not table.rows:
        raise ValueError("refusing to emit an empty table")
    path = Path(path)
    try:
        if fmt == "csv":
            path.write_text(table_to_csv(table))
        elif fmt == "svg":
            path.write_text(table_to_svg(table))
        else:
            raise ValueError(f"unknown report format {fmt!r}")
    except OSError as exc:
        raise OSError(f"cannot write report to {path}: {exc}") from exc
    return path
