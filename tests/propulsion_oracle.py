"""Closed-form reference for ``hapalloc.propulsion.propulsion_power``."""

from __future__ import annotations

from hapalloc.config import Atmosphere, PlatformGeometry
from hapalloc.propulsion import SurrogateCoeffs, surrogate_efficiency


def propulsion_power_expanded(
    atm: Atmosphere, geom: PlatformGeometry, v0: float, coeffs: SurrogateCoeffs
) -> float:
    """Propulsion power with drag, Reynolds number, and slenderness expanded out.

    Algebraically identical to ``hapalloc.propulsion.propulsion_power``; an
    independent evaluation path for the tests:

        0.5 rho^(5/6) v0^(17/6) mu^(1/6) Omega^(2/3) K_F / eta_m
        * (0.18 l^(2/15) d^(-3/10) + 0.27 l^(-41/30) d^(6/5)
           + 1.08 l^(-43/15) d^(27/10)) / eta_p(v0)
    """
    eta_p = surrogate_efficiency(coeffs, v0)
    l, d = geom.length_l, geom.width_d
    shape = (
        0.18 * l ** (2.0 / 15.0) * d ** (-3.0 / 10.0)
        + 0.27 * l ** (-41.0 / 30.0) * d ** (6.0 / 5.0)
        + 1.08 * l ** (-43.0 / 15.0) * d ** (27.0 / 10.0)
    )
    return (
        0.5
        * atm.rho ** (5.0 / 6.0)
        * v0 ** (17.0 / 6.0)
        * atm.mu ** (1.0 / 6.0)
        * geom.volume_omega ** (2.0 / 3.0)
        * geom.tail_correction_kf
        / geom.motor_eff_etam
        * shape
        / eta_p
    )
