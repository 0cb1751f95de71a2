"""Hull drag, the propeller-efficiency surrogate, and the propulsion power model.

The efficiency surrogate is an inverse-power law eta(v0) = c - alpha * v0**-beta
fitted to airspeed/efficiency sample pairs (in production these come from CFD
runs of the installed propeller; the repo ships a synthetic reference set, see
``reference_samples``).  Propulsion power is drag * airspeed divided by the
propeller and motor efficiencies.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import Atmosphere, PlatformGeometry

# Coefficients of the shipped surrogate for the reference 140 m x 34 m hull
# with hull-mounted propellers: eta(v0) = 0.73 - 0.2 * v0**-0.45.
REFERENCE_COEFFS_C = 0.73
REFERENCE_COEFFS_ALPHA = 0.2
REFERENCE_COEFFS_BETA = 0.45

# The synthetic reference samples: that surrogate plus seeded Gaussian noise.
REFERENCE_NOISE_SIGMA = 2e-3
REFERENCE_SAMPLES_SEED = 7

# Fit-range floor: the surrogate diverges as v0 -> 0 and the sample grid
# starts at 1 m/s, so evaluation below 1 m/s is rejected.
V0_FLOOR = 1.0

_BETA_SEARCH_LO = 0.05
_BETA_SEARCH_HI = 3.0
_BETA_TOL = 1e-8


class SurrogateRangeError(ValueError):
    """Airspeed outside the model's range: below the surrogate's fit floor,
    outside its (0, 1) efficiency band, or so high that the power overflows."""


class SurrogateFitError(ValueError):
    """Sample set too small or degenerate to identify the surrogate."""


@dataclass(frozen=True)
class EfficiencySample:
    """One airspeed/efficiency pair from the installed-propeller data set."""

    v0: float  # airspeed, m/s
    eta_p: float  # propeller efficiency, dimensionless

    def __post_init__(self):
        if not (0.0 < self.v0 < np.inf):
            raise ValueError("sample airspeed must be finite and positive")
        if not (0.0 < self.eta_p < 1.0):
            raise ValueError("sample efficiency must be in (0, 1)")


@dataclass(frozen=True)
class SurrogateCoeffs:
    """Inverse-power efficiency surrogate eta(v0) = c - alpha * v0**-beta."""

    c: float
    alpha: float
    beta: float
    rmse: float = 0.0
    n_samples: int = 0

    def __post_init__(self):
        if not (0.0 < self.c <= 1.0):
            raise ValueError("asymptote c must be in (0, 1]")
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError("alpha and beta must be positive")


def reference_coeffs() -> SurrogateCoeffs:
    """Surrogate coefficients for the reference platform."""
    return SurrogateCoeffs(
        c=REFERENCE_COEFFS_C, alpha=REFERENCE_COEFFS_ALPHA, beta=REFERENCE_COEFFS_BETA
    )


def reynolds(atm: Atmosphere, v0: float, length_m: float) -> float:
    """Reynolds number rho * v0 * l / mu of the hull at airspeed v0."""
    if v0 <= 0 or length_m <= 0:
        raise ValueError("airspeed and length must be positive")
    return atm.rho * v0 * length_m / atm.mu


def hull_drag_coefficient(epsilon: float, re: float) -> float:
    """Volumetric hull drag coefficient from slenderness and Reynolds number.

    C_DV = (0.18 e^(3/10) + 0.27 e^(-6/5) + 1.08 e^(-27/10)) / Re^(1/6).
    """
    if epsilon <= 0 or re <= 0:
        raise ValueError("slenderness and Reynolds number must be positive")
    shape = (
        0.18 * epsilon ** (3.0 / 10.0)
        + 0.27 * epsilon ** (-6.0 / 5.0)
        + 1.08 * epsilon ** (-27.0 / 10.0)
    )
    return shape / re ** (1.0 / 6.0)


def aerodynamic_drag(atm: Atmosphere, geom: PlatformGeometry, v0: float) -> float:
    """Aerodynamic drag 0.5 rho v0^2 C_DV Omega^(2/3) K_F of the hull, in newtons."""
    if v0 <= 0:
        raise ValueError("airspeed must be positive")
    re = reynolds(atm, v0, geom.length_l)
    cdv = hull_drag_coefficient(geom.slenderness, re)
    return 0.5 * atm.rho * v0 * v0 * cdv * geom.volume_omega ** (2.0 / 3.0) * geom.tail_correction_kf


def surrogate_efficiency(coeffs: SurrogateCoeffs, v0: float) -> float:
    """Installed-propeller efficiency at airspeed v0 from the fitted surrogate."""
    if v0 < V0_FLOOR:
        raise SurrogateRangeError(
            f"airspeed {v0} m/s below surrogate fit floor {V0_FLOOR} m/s"
        )
    eta = coeffs.c - coeffs.alpha * v0 ** (-coeffs.beta)
    if not (0.0 < eta < 1.0):
        raise SurrogateRangeError(f"surrogate efficiency {eta} outside (0, 1) at v0={v0}")
    return eta


def _linear_subfit(v0, eta, beta):
    """Least-squares (c, alpha, sse) of eta = c - alpha * v0**-beta at fixed beta, as the closed-form centred
    regression on x = -v0**-beta.  A column of betas, shape (m, 1), gives m fits in one call.  Where every x
    coincides, the fit is the constant one: alpha 0, c = mean(eta)."""
    x = -(v0 ** -beta)
    x_bar, y_bar = x.mean(axis=-1, keepdims=True), eta.mean()
    dx, dy = x - x_bar, eta - y_bar
    sxx = (dx * dx).sum(axis=-1, keepdims=True)
    alpha = (dx * dy).sum(axis=-1, keepdims=True) / np.where(sxx > 0.0, sxx, np.inf)  # sum(dx dy) is 0 where sxx is
    sse = np.square(dy - alpha * dx).sum(axis=-1)
    return (y_bar - alpha * x_bar)[..., 0], alpha[..., 0], sse


def fit_inverse_power_surrogate(samples: list[EfficiencySample]) -> SurrogateCoeffs:
    """Fit eta(v0) = c - alpha * v0**-beta to the sample set by least squares.

    For fixed beta the subproblem in (c, alpha) is linear least squares, solved
    in closed form, so beta alone is searched: each round scans 60 betas of a
    bracket in one ``_linear_subfit`` call and narrows the bracket to the best
    one's neighbours, from [0.05, 3] until it is narrower than 1e-8 (six
    rounds); beta is the last round's best.

    Raises SurrogateFitError with fewer than 4 samples, when all sample
    airspeeds coincide, when the smallest is so small that v0**-beta
    overflows, or when the fit leaves the region c in (0, 1], alpha > 0.
    """
    if len(samples) < 4:
        raise SurrogateFitError(f"need at least 4 samples, got {len(samples)}")
    v0 = np.array([s.v0 for s in samples], dtype=float)
    eta = np.array([s.eta_p for s in samples], dtype=float)
    if np.ptp(v0) == 0.0:
        raise SurrogateFitError("all samples share one airspeed; beta unidentifiable")
    if v0.min() < np.finfo(float).max ** (-1.0 / _BETA_SEARCH_HI):  # v0**-beta would overflow
        raise SurrogateFitError(f"sample airspeed {v0.min()} m/s is too small to fit: v0**-beta overflows")

    lo, hi = _BETA_SEARCH_LO, _BETA_SEARCH_HI
    while hi - lo > _BETA_TOL:  # scan 60 betas, then keep the best one's neighbours as the next bracket
        grid = np.linspace(lo, hi, 60)
        i = int(np.argmin(_linear_subfit(v0, eta, grid[:, None])[2]))
        lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
    beta = float(grid[i])
    c, alpha, sse = _linear_subfit(v0, eta, beta)
    c, alpha = float(c), float(alpha)
    rmse = float(np.sqrt(sse / len(samples)))
    if not (0.0 < c <= 1.0) or alpha <= 0:
        raise SurrogateFitError(
            f"fit left the physical region (c={c:.4g}, alpha={alpha:.4g}); "
            "check the sample set"
        )
    return SurrogateCoeffs(c=c, alpha=alpha, beta=beta, rmse=rmse, n_samples=len(samples))


def propulsion_power(
    atm: Atmosphere, geom: PlatformGeometry, v0: float, coeffs: SurrogateCoeffs
) -> float:
    """Propulsion power T * v0 / (eta_p(v0) * eta_m) at airspeed v0, in watts."""
    drag = aerodynamic_drag(atm, geom, v0)
    eta_p = surrogate_efficiency(coeffs, v0)
    power = drag * v0 / (eta_p * geom.motor_eff_etam)
    if not (math.isfinite(power) and power > 0.0):
        raise SurrogateRangeError(f"propulsion power is not finite and positive at v0={v0} m/s, got {power!r} W")
    return power


# ---------------------------------------------------------------------------
# sample-set I/O
# ---------------------------------------------------------------------------

SAMPLE_CSV_HEADER = ["v0_mps", "eta_p"]


def read_samples_csv(path: str | Path) -> list[EfficiencySample]:
    """Read an efficiency sample set from CSV with header ``v0_mps,eta_p``.

    Raises ValueError on another header, a row that is not two numbers, or
    a sample outside the valid range.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != SAMPLE_CSV_HEADER:
            raise ValueError(f"expected header {SAMPLE_CSV_HEADER}, got {header}")
        return [EfficiencySample(v0=float(v0), eta_p=float(eta)) for v0, eta in filter(None, reader)]


def reference_samples() -> list[EfficiencySample]:
    """Synthetic 25-point sample set on v0 = 1..25 m/s.

    Generated from the reference surrogate plus Gaussian noise of sigma
    ``REFERENCE_NOISE_SIGMA``, seeded with ``REFERENCE_SAMPLES_SEED``; stands
    in for the proprietary CFD sample table so the full fitting workflow
    stays exercisable.
    """
    rng = np.random.default_rng(REFERENCE_SAMPLES_SEED)
    v0 = np.arange(1.0, 26.0)
    coeffs = reference_coeffs()
    eta = coeffs.c - coeffs.alpha * v0 ** (-coeffs.beta) + REFERENCE_NOISE_SIGMA * rng.standard_normal(25)
    return [EfficiencySample(v0=float(v), eta_p=float(e)) for v, e in zip(v0, eta)]
