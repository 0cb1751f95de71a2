"""Blade-element-momentum analysis of an isolated propeller.

Per spanwise section, blade-element forces are balanced against momentum
theory through the axial induction factor with a Prandtl-style tip-loss
correction; thrust and shaft power then follow from Simpson quadrature of
the sectional loading, and efficiency is thrust * airspeed / shaft power.

Conventions: the zero-induction inflow angle is phi0 = atan(v0 / (2 pi n_s r)),
the induced inflow angle is phi = atan(v0 (1 + a) / (2 pi n_s r)), and the
tip-loss factor is evaluated at phi0.  Sections where the tip-loss factor
underflows contribute zero loading (removable singularity at the tip).

All stations of an operating point are solved together as arrays, each by
one bracketed root-find in the inflow angle (Chandrupatla's method, after
Ning, Wind Energy 17(9), 2014) on the residual between the blade-element
and the kinematic induction factor, with end values from the bracket check.
All brackets step until the last one stops; each root is frozen at its stop.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .config import Atmosphere, as_integer

KP_FLOOR = 1e-6  # below this the section is treated as unloaded tip boundary
N_NODES = 101  # spanwise quadrature stations (odd, as composite Simpson needs)
_ROOT_WIDTH = 1e-15  # a root-finder bracket stops once narrower than this


class SectionError(RuntimeError):
    """A spanwise section has no propulsive solution."""

    def __init__(self, message: str, r: float | None = None):
        self.r = r
        super().__init__(message if r is None else f"{message} (r = {r:.4f} m)")


class SectionConvergenceError(SectionError):
    """The inflow-angle residual has no propulsive root to bracket."""

    def __init__(self, r: float):
        super().__init__("no propulsive root of the inflow-angle residual", r)


@dataclass(frozen=True)
class PropellerSpec:
    """Blade geometry plus the sectional airfoil polar.

    ``chord_fn`` and ``pitch_fn`` map radius (m) to local chord (m) and
    geometric pitch (rad); ``polar`` maps angle of attack (rad) to a
    (c_l, c_d) pair.  All three are elementwise on float arrays: the solver
    calls them with a 1-D array of radii or angles and expects arrays of the
    same shape back (``polar`` returns two, newly allocated).  Use numpy
    ufuncs, not ``math``.  Table-backed specs are built with ``from_tables``
    or the CSV loaders, which interpolate linearly and clamp at the ends.
    """

    n_blades: int
    r_hub: float
    r_tip: float
    chord_fn: Callable[[np.ndarray], np.ndarray]
    pitch_fn: Callable[[np.ndarray], np.ndarray]
    polar: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]

    def __post_init__(self):
        if self.n_blades < 1:
            raise ValueError("blade count must be >= 1")
        if not (0.0 < self.r_hub < self.r_tip):
            raise ValueError("require 0 < r_hub < r_tip")

    @classmethod
    def from_tables(cls, n_blades, r, chord, pitch_rad, alpha_rad, cl, cd):
        r = np.asarray(r, float)
        chord = np.asarray(chord, float)
        pitch = np.asarray(pitch_rad, float)
        alpha = np.asarray(alpha_rad, float)
        cl = np.asarray(cl, float)
        cd = np.asarray(cd, float)
        if np.any(chord <= 0):
            raise ValueError("chord must be positive along the span")
        if not (np.all(np.diff(r) > 0) and np.all(np.diff(alpha) > 0)):
            raise ValueError("table radii and angles of attack must strictly increase")

        def chord_fn(x):
            return np.interp(x, r, chord)

        def pitch_fn(x):
            return np.interp(x, r, pitch)

        def polar(a):
            return np.interp(a, alpha, cl), np.interp(a, alpha, cd)

        return cls(
            n_blades=int(n_blades),
            r_hub=float(r[0]),
            r_tip=float(r[-1]),
            chord_fn=chord_fn,
            pitch_fn=pitch_fn,
            polar=polar,
        )


@dataclass(frozen=True)
class SectionState:
    """Converged flow state of one blade section (inside the solver, of every station as arrays)."""

    r: float
    phi: float  # inflow angle incl. induction, rad
    alpha: float  # angle of attack, rad
    a_a: float  # axial induction factor
    sigma: float  # local solidity N_b b / (2 pi r)
    k_p: float  # tip-loss factor
    cl: float
    cd: float


@dataclass(frozen=True)
class PropellerOperatingPoint:
    v0: float
    n_s: float  # rotational speed, rev/s
    thrust: float  # N
    shaft_power: float  # W
    eta_p: float


def _tip_loss(n_b: int, r: np.ndarray, r_tip: float, phi0: np.ndarray) -> np.ndarray:
    """Prandtl tip-loss factor (2/pi) acos(exp(-N_b (R - r) / (2 r sin phi0))), elementwise in r and phi0
    (unchecked: the caller keeps 0 < r <= r_tip and 0 < phi0 < pi/2)."""
    return (2.0 / math.pi) * np.arccos(np.exp(-n_b * (r_tip - r) / (2.0 * r * np.sin(phi0))))


def _find_root(fn, x1: np.ndarray, f1: np.ndarray, x2: np.ndarray, f2: np.ndarray) -> np.ndarray:
    """Chandrupatla's root-finder on elementwise fn over brackets [x1, x2] with f1 = fn(x1), f2 = fn(x2).

    Each step takes the inverse quadratic interpolation through the last
    three points where that is safe, else the bracket midpoint, and keeps
    every new point at least half the stop width inside the bracket
    (Chandrupatla, Adv. Eng. Softw. 28(3), 1997; the method of scipy's
    ``elementwise.find_root``).  A bracket stops at an exact zero or once
    narrower than ``_ROOT_WIDTH``, after at most 200 steps, and returns its
    end with the smaller |fn|.  Every bracket steps until the last one stops;
    a root is frozen when its bracket stops, and the stopped bracket's later
    steps, which may divide by zero (call under ``np.errstate``), are dropped.
    Each f1 and f2 must be nonzero, the two of opposite signs: a live far end
    is then never a zero, which would have stopped its bracket when it was
    the newest point.  Each step computes each difference once.
    """
    root, live, n_live = np.empty_like(x1), np.ones(x1.size, bool), x1.size
    x3, f3, t, d, pos1 = x2, f2, 0.5, x2 - x1, f1 > 0  # x1 is the newest point
    for _ in range(200):
        if not n_live:
            return root
        x = x1 + t * d
        f = fn(x)
        pos = f > 0
        same = pos == pos1  # x replaces x1; else x1 becomes the far end
        x3, f3 = np.where(same, x1, x2), np.where(same, f1, f2)
        x2, f2 = np.where(same, x2, x1), np.where(same, f2, f1)
        x1, f1, pos1, d = x, f, pos, x2 - x
        ad = np.abs(d)
        stop = live & ((f1 == 0.0) | (ad < _ROOT_WIDTH))
        n_stop = np.count_nonzero(stop)
        if n_stop:
            np.copyto(root, np.where(np.abs(f1) <= np.abs(f2), x1, x2), where=stop)
            live &= ~stop
            n_live -= n_stop
        # x1 - x2 = -d and f2 - f3 = -f32 exactly, so these are the textbook quotients bit for bit
        f12, f32 = f1 - f2, f3 - f2
        xi, ph = d / (x2 - x3), f12 / f32
        q = 1.0 - ph
        iqi = (ph * ph < xi) & (q * q < 1.0 - xi)  # false on nan, so inf ends bisect
        t = f1 / f12 * f3 / f32 + (x3 - x1) / d * f1 / (f3 - f1) * f2 / f32
        t_min = 0.5 * _ROOT_WIDTH / ad
        t = np.minimum(np.maximum(np.where(iqi, t, 0.5), t_min), 1.0 - t_min)
    np.copyto(root, np.where(np.abs(f1) <= np.abs(f2), x1, x2), where=live)
    return root


# the residual evaluates the branches its masks discard, and stopped brackets keep stepping: both may divide by 0
@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _solve_stations(spec: PropellerSpec, v0: float, n_s: float, r: np.ndarray) -> SectionState:
    """``solve_section`` at every radius in ``r``, in lockstep under per-station masks.

    Returns a SectionState of arrays.  If a station has no solution, the
    error of the first such station in ``r``'s order is raised.
    """
    if not (0.0 < v0 < math.inf and 0.0 < n_s < math.inf):
        raise ValueError("airspeed and rotational speed must be positive and finite")

    omega_r = 2.0 * math.pi * n_s * r
    phi0 = np.arctan2(v0, omega_r)
    # phi0 rounds to 0 or pi/2 once v0 / (2 pi n_s r) under- or overflows
    edge = ~((0.0 < phi0) & (phi0 < math.pi / 2))
    errors = {i: SectionError("zero-induction inflow angle at 0 or pi/2", float(r[i]))
              for i in np.flatnonzero(edge).tolist()}
    k_p = np.zeros(r.size)
    k_p[~edge] = _tip_loss(spec.n_blades, r[~edge], spec.r_tip, phi0[~edge])  # both callers keep r in [r_hub, r_tip]
    loaded = ~(k_p < KP_FLOOR)
    theta = spec.pitch_fn(r)
    sigma = spec.n_blades * spec.chord_fn(r) / (2.0 * math.pi * r)

    def section_at(phi, theta):
        """(c_l, c_d, sin phi, section force) at inflow angles phi of stations with pitch theta."""
        cl, cd = spec.polar(theta - phi)
        sin_phi = np.sin(phi)
        return cl, cd, sin_phi, cl * np.cos(phi) - cd * sin_phi

    # Unloaded stations keep the zero-induction state.
    phi, a_a = phi0.copy(), np.zeros(r.size)
    cl, cd, _, force0 = section_at(phi0, theta)
    nonpropulsive = loaded & (force0 <= 0.0)
    for i in np.flatnonzero(nonpropulsive).tolist():
        errors[i] = SectionError("non-propulsive section at zero induction", float(r[i]))

    # Root-finding on the inflow-angle residual a_alg(phi) - a_kin(phi).  The
    # momentum ratio is monotone increasing in phi and the section force
    # monotone decreasing, so the residual is +inf below the momentum pole
    # (ratio <= 1), -inf past the force zero, and falls through zero once in
    # between: [phi0, phi_cap] brackets the propulsive root; the residual is -inf at phi_cap.
    todo = np.flatnonzero(loaded & ~nonpropulsive)
    theta_t, k_p4, sigma_t, omega_t = theta[todo], 4.0 * k_p[todo], sigma[todo], omega_r[todo]

    def residual_fn(phi):
        _, _, sin_phi, force = section_at(phi, theta_t)
        rat = k_p4 * sin_phi**2 / (sigma_t * force)
        a_alg = 1.0 / (rat - 1.0)
        a_kin = np.tan(phi) * omega_t / v0 - 1.0
        return np.where(force <= 0.0, -math.inf, np.where(rat <= 1.0, math.inf, a_alg - a_kin))

    phi_lo, phi_cap = phi0[todo], np.full(todo.size, math.pi / 2 - 1e-9)
    f_lo = residual_fn(phi_lo)
    bracketed = (section_at(phi_cap, theta_t)[3] < 0.0) & (f_lo > 0.0)
    errors.update((i, SectionConvergenceError(float(r[i]))) for i in todo[~bracketed].tolist())
    if errors:
        raise errors[min(errors)]
    phi_star = _find_root(residual_fn, phi_lo, f_lo, phi_cap, np.full(todo.size, -math.inf))
    phi[todo] = phi_star
    a_a[todo] = np.tan(phi_star) * omega_t / v0 - 1.0
    cl[todo], cd[todo], _, _ = section_at(phi_star, theta_t)
    k_p = np.where(loaded, k_p, 0.0)
    return SectionState(r=r, phi=phi, alpha=theta - phi, a_a=a_a, sigma=sigma, k_p=k_p, cl=cl, cd=cd)


def solve_section(spec: PropellerSpec, v0: float, n_s: float, r: float) -> SectionState:
    """Solve the coupled inflow-angle/induction balance at radius r.

    A bracketing root-finder (Chandrupatla's method) finds the inflow angle
    in [phi0, pi/2 - 1e-9] where the blade-element induction factor equals
    the kinematic one; the bracket closes below 1e-15 rad.  A section with no
    sign change there raises ``SectionConvergenceError``.  Sections with a
    vanishing tip-loss factor return the unloaded tip boundary state instead
    of evaluating the (singular) balance.  This is the one-station case of
    the solver ``propeller_performance`` uses.
    """
    if not (spec.r_hub <= r <= spec.r_tip):
        raise ValueError(f"radius {r} outside blade span [{spec.r_hub}, {spec.r_tip}]")
    st = _solve_stations(spec, v0, n_s, np.array([float(r)]))
    return SectionState(**{name: float(value[0]) for name, value in vars(st).items()})


def _simpson(values: np.ndarray, h: float) -> float:
    # a sequential cumsum adds in index order, not pairwise as np.sum; 0.0 + maps an all -0.0 slice to 0.0
    acc = values[0] + values[-1]
    acc += 4.0 * (0.0 + np.cumsum(values[1:-1:2])[-1])
    acc += 2.0 * (0.0 + np.cumsum(values[2:-1:2])[-1])
    return acc * h / 3.0


def propeller_performance(spec: PropellerSpec, v0: float, n_s: float, atm: Atmosphere) -> PropellerOperatingPoint:
    """Integrate sectional loading into thrust, shaft power, and efficiency.

    Composite Simpson quadrature over ``N_NODES`` spanwise stations.
    Stations cluster toward the tip via the substitution
    r = R - (R - r0) u^2: the tip-loss factor varies like sqrt(R - r) there,
    and the transform restores a smooth integrand so node doubling converges
    fast.  Section errors propagate: a blade that is partly outside the
    propulsive regime has no valid operating point.
    """
    span = spec.r_tip - spec.r_hub
    u = np.linspace(0.0, 1.0, N_NODES)  # u = 0 at the tip, 1 at the hub
    h = 1.0 / (N_NODES - 1)
    r = np.minimum(np.maximum(spec.r_tip - span * u * u, spec.r_hub), spec.r_tip)  # roundoff guard
    st = _solve_stations(spec, v0, n_s, r)
    sin_phi, cos_phi = np.sin(st.phi), np.cos(st.phi)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        common = spec.chord_fn(r) * (1.0 + st.a_a) ** 2 / sin_phi**2
    loaded = ~(st.k_p < KP_FLOOR)  # unloaded tip boundary stations carry no loading
    if not np.isfinite(common[loaded]).all():
        raise SectionError("sectional loading overflows: the airspeed is too small for the rotational speed")
    jacobian = 2.0 * span * u
    f_thrust = np.where(loaded, (st.cl * cos_phi - st.cd * sin_phi) * common, 0.0) * jacobian
    f_power = np.where(loaded, (st.cl * sin_phi + st.cd * cos_phi) * common * r, 0.0) * jacobian

    thrust = float(0.5 * atm.rho * v0 * v0 * spec.n_blades * _simpson(f_thrust, h))
    power = float(math.pi * n_s * atm.rho * v0 * v0 * spec.n_blades * _simpson(f_power, h))
    if power <= 0.0:
        raise SectionError("non-positive integrated shaft power")
    if not (math.isfinite(thrust) and math.isfinite(power)):
        raise SectionError("integrated thrust or shaft power is not finite")
    return PropellerOperatingPoint(
        v0=v0, n_s=n_s, thrust=thrust, shaft_power=power, eta_p=thrust * v0 / power
    )


# ---------------------------------------------------------------------------
# spec-directory I/O
# ---------------------------------------------------------------------------

POLAR_CSV_HEADER = ["alpha_deg", "cl", "cd"]
GEOMETRY_CSV_HEADER = ["r_m", "chord_m", "pitch_deg"]


def _read_csv(path: Path, expected_header: list[str]) -> np.ndarray:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != expected_header:
            raise ValueError(f"{path}: expected header {expected_header}, got {header}")
        rows = [[float(x) for x in row] for row in reader if row]
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return np.asarray(rows)


def load_spec_dir(path: str | Path) -> PropellerSpec:
    """Load a propeller from a directory with propeller.json, geometry.csv, polar.csv.

    ``propeller.json`` holds {"n_blades": int}; ``geometry.csv`` has header
    ``r_m,chord_m,pitch_deg`` (ascending radius, first/last rows set the hub
    and tip); ``polar.csv`` has header ``alpha_deg,cl,cd``.
    """
    path = Path(path)
    meta = json.loads((path / "propeller.json").read_text())
    geom = _read_csv(path / "geometry.csv", GEOMETRY_CSV_HEADER)
    polar = _read_csv(path / "polar.csv", POLAR_CSV_HEADER)
    return PropellerSpec.from_tables(
        n_blades=as_integer("n_blades", meta["n_blades"]),
        r=geom[:, 0],
        chord=geom[:, 1],
        pitch_rad=np.radians(geom[:, 2]),
        alpha_rad=np.radians(polar[:, 0]),
        cl=polar[:, 1],
        cd=polar[:, 2],
    )

