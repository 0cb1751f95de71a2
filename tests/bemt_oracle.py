"""Scalar reference for ``hapalloc.bemt``: one section at a time, in plain floats.

This is the per-station solver that ``hapalloc.bemt`` replaced with its array
solver.  It evaluates the same formulas in the same order with ``math`` on
Python floats, one radius at a time, and builds its bracket independently:
it bisects for the force zero and the momentum pole first and then bisects
the inflow residual between them, where the array solver runs one
Chandrupatla root-find over [phi0, pi/2 - 1e-9].  The array solver must
reproduce its errors and unloaded tips bit for bit; the roots agree to
within the 1e-15 bracket width.  The spec's callables are called on scalars
and their results cast to float.  It also holds the closed-form induction
balance ``axial_induction``, the inflow-angle residual ``inflow_residual``,
the analytic test propeller ``default_test_propeller``, and
``write_spec_dir``, which samples a spec onto the spec-directory tables that
``hapalloc.bemt.load_spec_dir`` reads.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from hapalloc.bemt import (
    GEOMETRY_CSV_HEADER,
    KP_FLOOR,
    POLAR_CSV_HEADER,
    PropellerOperatingPoint,
    PropellerSpec,
    SectionConvergenceError,
    SectionError,
    SectionState,
    tip_loss,
)


def _polar(spec, alpha):
    cl, cd = spec.polar(alpha)
    return float(cl), float(cd)


def _zero_loading_state(spec, r, phi0):
    theta = float(spec.pitch_fn(r))
    cl, cd = _polar(spec, theta - phi0)
    return SectionState(
        r=r,
        phi=phi0,
        alpha=theta - phi0,
        a_a=0.0,
        sigma=spec.n_blades * float(spec.chord_fn(r)) / (2.0 * math.pi * r),
        k_p=0.0,
        cl=cl,
        cd=cd,
    )


def axial_induction(sigma: float, phi: float, c_l: float, c_d: float, k_p: float) -> float:
    """Axial induction factor from the blade-element/momentum balance.

    a = (4 K_p sin^2(phi) / (sigma [c_l cos(phi) - c_d sin(phi)]) - 1)^-1.
    Raises SectionError when the section force is non-propulsive
    (c_l cos(phi) <= c_d sin(phi)) or the balance degenerates.
    """
    force = c_l * math.cos(phi) - c_d * math.sin(phi)
    if force <= 0.0:
        raise SectionError("non-propulsive section: c_l cos(phi) <= c_d sin(phi)")
    ratio = 4.0 * k_p * math.sin(phi) ** 2 / (sigma * force)
    if ratio == 1.0:
        raise SectionError("momentum balance degenerate (ratio exactly 1)")
    return 1.0 / (ratio - 1.0)


def solve_section(spec, v0: float, n_s: float, r: float) -> SectionState:
    """Bisection on the inflow angle between the momentum pole and the force zero."""
    if v0 <= 0 or n_s <= 0:
        raise ValueError("airspeed and rotational speed must be positive")
    if not (spec.r_hub <= r <= spec.r_tip):
        raise ValueError(f"radius {r} outside blade span [{spec.r_hub}, {spec.r_tip}]")

    omega_r = 2.0 * math.pi * n_s * r
    phi0 = math.atan2(v0, omega_r)
    k_p = tip_loss(spec.n_blades, r, spec.r_tip, phi0)
    if k_p < KP_FLOOR:
        return _zero_loading_state(spec, r, phi0)

    theta = float(spec.pitch_fn(r))
    chord = float(spec.chord_fn(r))
    sigma = spec.n_blades * chord / (2.0 * math.pi * r)

    def section_at(phi):
        alpha = theta - phi
        cl, cd = _polar(spec, alpha)
        force = cl * math.cos(phi) - cd * math.sin(phi)
        return alpha, cl, cd, force

    def ratio_at(phi, force):
        return 4.0 * k_p * math.sin(phi) ** 2 / (sigma * force)

    _, _, _, force0 = section_at(phi0)
    if force0 <= 0.0:
        raise SectionError("non-propulsive section at zero induction", r)

    def build_state(a, phi):
        alpha, cl, cd, _ = section_at(phi)
        return SectionState(
            r=r, phi=phi, alpha=alpha, a_a=a, sigma=sigma, k_p=k_p, cl=cl, cd=cd
        )

    def bisect(fn, lo, hi, iters=200):
        flo = fn(lo)
        for _ in range(iters):
            mid = 0.5 * (lo + hi)
            fm = fn(mid)
            if fm == 0.0 or hi - lo < 1e-15:
                return mid
            if (fm > 0) == (flo > 0):
                lo, flo = mid, fm
            else:
                hi = mid
        return 0.5 * (lo + hi)

    phi_cap = math.pi / 2 - 1e-9
    _, _, _, force_cap = section_at(phi_cap)
    if force_cap >= 0.0:
        raise SectionConvergenceError(r)
    phi_zero = bisect(lambda p: section_at(p)[3], phi0, phi_cap)

    def ratio_minus_one(phi):
        _, _, _, force = section_at(phi)
        if force <= 0.0:
            return math.inf
        return ratio_at(phi, force) - 1.0

    if ratio_minus_one(phi0) > 0.0:
        phi_lo = phi0
    else:
        pole = bisect(ratio_minus_one, phi0, phi_zero)
        phi_lo = pole + 1e-12

    def residual_fn(phi):
        return inflow_residual(spec, v0, n_s, r, phi)

    phi_hi = phi_zero - 1e-12
    if not (residual_fn(phi_lo) > 0.0 and residual_fn(phi_hi) < 0.0):
        raise SectionConvergenceError(r)
    phi_star = bisect(residual_fn, phi_lo, phi_hi)
    a_star = math.tan(phi_star) * omega_r / v0 - 1.0
    return build_state(a_star, phi_star)


def inflow_residual(spec, v0: float, n_s: float, r: float, phi: float) -> float:
    """The inflow-angle residual a_alg(phi) - a_kin(phi) at radius r that the root-finders bracket.

    It is +inf below the momentum pole and -inf past the force zero, and
    falls through zero at the propulsive root that ``solve_section`` bisects.
    """
    omega_r = 2.0 * math.pi * n_s * r
    k_p = tip_loss(spec.n_blades, r, spec.r_tip, math.atan2(v0, omega_r))
    sigma = spec.n_blades * float(spec.chord_fn(r)) / (2.0 * math.pi * r)
    cl, cd = _polar(spec, float(spec.pitch_fn(r)) - phi)
    force = cl * math.cos(phi) - cd * math.sin(phi)
    if force <= 0.0:
        return -math.inf
    rat = 4.0 * k_p * math.sin(phi) ** 2 / (sigma * force)
    if rat <= 1.0:
        return math.inf
    return 1.0 / (rat - 1.0) - (math.tan(phi) * omega_r / v0 - 1.0)


def _loading(state: SectionState, chord: float) -> tuple[float, float]:
    if state.k_p < KP_FLOOR:
        return 0.0, 0.0
    sin_phi = math.sin(state.phi)
    cos_phi = math.cos(state.phi)
    common = chord * (1.0 + state.a_a) ** 2 / sin_phi**2
    f_thrust = (state.cl * cos_phi - state.cd * sin_phi) * common
    f_power = (state.cl * sin_phi + state.cd * cos_phi) * common * state.r
    return f_thrust, f_power


def _simpson(values: np.ndarray, h: float) -> float:
    acc = values[0] + values[-1]
    acc += 4.0 * sum(values[1:-1:2])
    acc += 2.0 * sum(values[2:-1:2])
    return acc * h / 3.0


def stations(spec, n_nodes: int = 101) -> list[float]:
    """The tip-clustered quadrature radii, tip first."""
    span = spec.r_tip - spec.r_hub
    return [
        float(min(max(spec.r_tip - span * ui * ui, spec.r_hub), spec.r_tip))
        for ui in np.linspace(0.0, 1.0, n_nodes)
    ]


def propeller_performance(spec, v0, n_s, atm, n_nodes: int = 101) -> PropellerOperatingPoint:
    """Per-station loop: solve each section, then Simpson-integrate its loading."""
    span = spec.r_tip - spec.r_hub
    u = np.linspace(0.0, 1.0, n_nodes)
    h = 1.0 / (n_nodes - 1)
    f_thrust = np.empty(n_nodes)
    f_power = np.empty(n_nodes)
    for i, (ui, r) in enumerate(zip(u, stations(spec, n_nodes))):
        state = solve_section(spec, v0, n_s, r)
        ft, fp = _loading(state, float(spec.chord_fn(r)))
        jacobian = 2.0 * span * ui
        f_thrust[i] = ft * jacobian
        f_power[i] = fp * jacobian

    thrust = float(0.5 * atm.rho * v0 * v0 * spec.n_blades * _simpson(f_thrust, h))
    power = float(math.pi * n_s * atm.rho * v0 * v0 * spec.n_blades * _simpson(f_power, h))
    if power <= 0.0:
        raise SectionError("non-positive integrated shaft power")
    return PropellerOperatingPoint(
        v0=v0, n_s=n_s, thrust=thrust, shaft_power=power, eta_p=thrust * v0 / power
    )


def default_test_propeller() -> PropellerSpec:
    """Three-blade 3 m test propeller with analytic section properties.

    Linear chord taper 0.35 -> 0.12 m and linear twist 35 -> 12 deg over
    r in [0.3, 3] m, thin-airfoil style polar c_l = 2 pi sin(a) cos(a),
    c_d = 0.008 + 0.01 a^2.  This is a test fixture: only blade count and
    tip radius correspond to the reference platform's propellers.
    """
    r_hub, r_tip = 0.3, 3.0

    def chord_fn(r):
        t = (r - r_hub) / (r_tip - r_hub)
        return 0.35 + (0.12 - 0.35) * t

    def pitch_fn(r):
        t = (r - r_hub) / (r_tip - r_hub)
        return np.radians(35.0 + (12.0 - 35.0) * t)

    def polar(alpha):
        return 2.0 * np.pi * np.sin(alpha) * np.cos(alpha), 0.008 + 0.01 * np.square(alpha)

    return PropellerSpec(
        n_blades=3, r_hub=r_hub, r_tip=r_tip, chord_fn=chord_fn, pitch_fn=pitch_fn, polar=polar
    )


def write_spec_dir(path: str | Path, spec: PropellerSpec, n_geom: int = 28, n_polar: int = 36) -> None:
    """Sample a spec's closures onto tables and write the directory format."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    (path / "propeller.json").write_text(json.dumps({"n_blades": spec.n_blades}) + "\n")
    with open(path / "geometry.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(GEOMETRY_CSV_HEADER)
        for r in np.linspace(spec.r_hub, spec.r_tip, n_geom):
            writer.writerow([f"{r:.6f}", f"{spec.chord_fn(r):.6f}", f"{math.degrees(spec.pitch_fn(r)):.6f}"])
    with open(path / "polar.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(POLAR_CSV_HEADER)
        for a in np.linspace(math.radians(-15.0), math.radians(20.0), n_polar):
            cl, cd = spec.polar(a)
            writer.writerow([f"{math.degrees(a):.6f}", f"{cl:.8f}", f"{cd:.8f}"])
