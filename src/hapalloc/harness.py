"""Experiment sweeps, the ablation runner, and CSV/SVG report emission.

Sweeps evaluate a grid of airspeeds (propulsion model columns) or RF budgets
(per-backend satisfaction ratio and EE) and return fixed-schema tables whose
CSV form is byte-stable for a given config and seed set.  Trend assertions
(propulsion power strictly increasing with airspeed; satisfied-user ratio
non-decreasing with budget) run inside the sweep and fail loudly.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import propulsion
from .beamforming import ZfBeamformer
from .channel import Scenario
from .config import Atmosphere, ConfigError, PlatformGeometry, PowerLedger
from .q3e import baseline_max_sum_rate, baseline_qos_only, check_stage2_range, q3e, scenario_beamformer, stage2_problem

AIRSPEED_HEADERS = ["v0_mps", "t_n", "cdv", "re", "eta_hat", "p_prop_w", "p_prop_legacy_w"]
BUDGET_HEADERS = ["p_tot_w", "backend", "satisfaction", "ee_bps_per_w", "rf_spent_w"]
ABLATION_HEADERS = ["variant", "feasibility_pct", "mean_overshoot_w", "mean_ee_bps_per_w"]

BUDGET_BACKENDS = ("q3e-numeric", "q3e-mlp", "max-sum-rate", "qos-only")
ABLATION_MIN_SEEDS = 10
ABLATION_ANNEAL_EVERY = 30  # epochs between halvings of the barrier weight


@dataclass(frozen=True)
class ReportTable:
    """Fixed-header table with optional plot hints for the SVG emitter."""

    headers: tuple[str, ...]
    rows: list[list]
    x_column: str = ""
    y_column: str = ""
    group_column: str = ""
    y_columns: tuple[str, ...] = ()
    x_label: str = ""
    y_label: str = ""


def run_airspeed_sweep(
    geom: PlatformGeometry,
    atm: Atmosphere,
    grid,
    coeffs: propulsion.SurrogateCoeffs | None = None,
    legacy_eta_p: float = 0.73,
) -> ReportTable:
    """Propulsion columns over an airspeed grid, plus the fixed-efficiency model.

    The legacy column uses a constant propeller efficiency, for side-by-side
    deviation against the airspeed-dependent surrogate.  Raises if the
    surrogate-model power is not strictly increasing along the grid.
    """
    coeffs = coeffs or propulsion.reference_coeffs()
    rows = []
    prev_power = -np.inf
    for v0 in grid:
        v0 = float(v0)
        re = propulsion.reynolds(atm, v0, geom.length_l)
        cdv = propulsion.hull_drag_coefficient(geom.slenderness, re)
        drag = propulsion.aerodynamic_drag(atm, geom, v0)
        eta = propulsion.surrogate_efficiency(coeffs, v0)
        power = propulsion.propulsion_power(atm, geom, v0, coeffs)
        legacy = drag * v0 / (legacy_eta_p * geom.motor_eff_etam)
        if power <= prev_power:
            raise AssertionError(
                f"propulsion power not strictly increasing at v0={v0} m/s"
            )
        prev_power = power
        rows.append([v0, drag, cdv, re, eta, power, legacy])
    return ReportTable(
        headers=tuple(AIRSPEED_HEADERS),
        rows=rows,
        x_column="v0_mps",
        y_columns=("p_prop_w", "p_prop_legacy_w"),
        x_label="airspeed (m/s)",
        y_label="propulsion power (W)",
    )


def _solve_backend(
    backend: str,
    scenario: Scenario,
    bf: ZfBeamformer,
    p_tot: float,
    ledger: PowerLedger,
    seeds,
) -> tuple[float, float, float]:
    """(satisfaction, mean EE, mean RF spend) for one backend at one budget."""
    k = scenario.n_users
    if backend == "q3e-numeric":
        sols = [q3e(scenario, bf, p_tot, ledger, backend="numeric")]
    elif backend == "q3e-mlp":
        from .neuro import TrainConfig  # deferred import keeps baseline paths light

        sols = [
            q3e(scenario, bf, p_tot, ledger, cfg=TrainConfig(seed=int(s)), backend="mlp")
            for s in seeds
        ]
    elif backend == "max-sum-rate":
        sols = [baseline_max_sum_rate(scenario, bf, p_tot, ledger)]
    elif backend == "qos-only":
        sols = [baseline_qos_only(scenario, bf, p_tot, ledger)]
    else:
        raise ValueError(f"unknown backend {backend!r}")
    sat = float(np.mean([len(s.q_set) / k for s in sols]))
    ee = float(np.mean([s.ee for s in sols]))
    rf = float(np.mean([s.rf_spent for s in sols]))
    return sat, ee, rf


def run_budget_sweep(
    scenario: Scenario,
    ledger: PowerLedger,
    grid,
    backends=BUDGET_BACKENDS,
    seeds=(0,),
) -> ReportTable:
    """Per-backend satisfaction ratio and EE over an RF-budget grid.

    Rows come out in grid-then-backend order.  Raises ConfigError for a
    budget out of range (``check_stage2_range``), and AssertionError if the
    lexicographic solver's satisfaction ratio ever decreases along the grid,
    or if the sum-rate baseline ever satisfies more users.
    """
    bf = scenario_beamformer(scenario)
    grid = [float(x) for x in grid]
    for p_tot in grid:
        check_stage2_range(scenario, bf, p_tot, ledger)

    results = [
        {b: _solve_backend(b, scenario, bf, p_tot, ledger, seeds) for b in backends} for p_tot in grid
    ]

    rows = []
    prev_sat = -1.0
    for p_tot, by_backend in zip(grid, results):
        if "q3e-numeric" in by_backend:
            sat = by_backend["q3e-numeric"][0]
            if sat < prev_sat - 1e-12:
                raise AssertionError(f"satisfaction ratio decreased at budget {p_tot} W")
            prev_sat = sat
            if "max-sum-rate" in by_backend and by_backend["max-sum-rate"][0] > sat + 1e-12:
                raise AssertionError(
                    f"sum-rate baseline satisfied more users than the QoS-first "
                    f"solver at budget {p_tot} W"
                )
        for b in backends:
            sat, ee, rf = by_backend[b]
            rows.append([p_tot, b, sat, ee, rf])
    return ReportTable(
        headers=tuple(BUDGET_HEADERS),
        rows=rows,
        x_column="p_tot_w",
        y_column="satisfaction",
        group_column="backend",
        x_label="RF power budget (W)",
        y_label="QoS satisfaction ratio",
    )


def run_ablation(
    scenario: Scenario,
    ledger: PowerLedger,
    p_tot: float,
    seeds,
    max_epochs: int = 2000,
) -> ReportTable:
    """Train the neural backend with and without its safety modules.

    Three variants per seed: the full trainer, barrier terms off
    ("no-soft-loss"), and budget rescaling off ("no-scale", clamp only).
    Reported per variant: percentage of seeds whose final output respects
    the RF budget, the mean budget overshoot in watts, and the mean EE over
    the feasible runs.

    The barrier weight anneals every ``ABLATION_ANNEAL_EVERY`` epochs, faster
    than the early-stopping patience, so every variant keeps improving past
    its first stall; in particular the weakening barrier lets the unprojected
    variant escape toward its true (infeasible) optimum instead of being held
    at the budget by the barrier wall alone.
    """
    from . import neuro

    seeds = [int(s) for s in seeds]
    if len(seeds) < ABLATION_MIN_SEEDS:
        raise ConfigError(f"ablation needs at least {ABLATION_MIN_SEEDS} seeds, got {len(seeds)}")
    bf = scenario_beamformer(scenario)
    check_stage2_range(scenario, bf, p_tot, ledger)
    problem = stage2_problem(scenario, bf, p_tot, ledger)

    variants = [
        ("full", True, True),
        ("no-soft-loss", True, False),
        ("no-scale", False, True),
    ]
    rows = []
    for name, scaling, soft in variants:
        feasible, overshoot, ees = [], [], []
        for seed in seeds:
            cfg = neuro.TrainConfig(
                seed=seed,
                max_epochs=max_epochs,
                project_scaling=scaling,
                use_soft_loss=soft,
                anneal_every=ABLATION_ANNEAL_EVERY,
            )
            net = neuro.train(problem, cfg)
            p = neuro.trained_coefficients(net, problem, scaling=scaling)
            spent = float(np.sum(problem.w_norms_sq * p**2))  # rf_spent's (c * p) * p can differ in the last bit
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


def _svg_series(table: ReportTable) -> list[tuple[str, list, list]]:
    """(name, xs, ys) per plotted series, from the table's plot hints."""
    col = {h: i for i, h in enumerate(table.headers)}
    xi = col[table.x_column]
    series = []
    if table.group_column:
        gi, yi = col[table.group_column], col[table.y_column]
        for row in table.rows:
            name = str(row[gi])
            match = next((s for s in series if s[0] == name), None)
            if match is None:
                match = (name, [], [])
                series.append(match)
            match[1].append(float(row[xi]))
            match[2].append(float(row[yi]))
    else:
        for name in table.y_columns:
            yi = col[name]
            xs = [float(r[xi]) for r in table.rows]
            ys = [float(r[yi]) for r in table.rows]
            series.append((name, xs, ys))
    return series


def table_to_svg(table: ReportTable) -> str:
    """Self-contained 960x540 line chart, one polyline per series."""
    if not table.x_column:
        raise ValueError("table carries no plot hints; cannot emit SVG")
    series = _svg_series(table)
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
        f"{table.x_label or table.x_column}</text>",
        f'<text x="20" y="{(top + bottom) / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 20 {(top + bottom) / 2:.1f})">'
        f"{table.y_label or table.y_column}</text>",
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
