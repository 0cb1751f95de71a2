"""Shared domain types, standard-atmosphere lookup, and the platform power ledger.

All quantities are SI: watts, meters, kilograms, seconds.  Types are frozen
dataclasses and every operation is a pure function, so everything here is
safe to evaluate concurrently.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class ConfigError(ValueError):
    """Raised when a JSON config is missing keys or fails validation."""


class BudgetInfeasibleError(ValueError):
    """Platform power sinks exceed the total supply.

    Carries the shortfall in watts so callers can report how much power
    is missing instead of silently clamping the budget to zero.
    """

    def __init__(self, deficit_w: float):
        self.deficit_w = float(deficit_w)
        super().__init__(f"power budget infeasible: deficit of {self.deficit_w:.3f} W")


@dataclass(frozen=True)
class Atmosphere:
    """Ambient air state at a given altitude."""

    altitude_m: float
    rho: float  # air density, kg/m^3
    mu: float  # dynamic viscosity, Pa*s

    def __post_init__(self):
        if not (0.0 <= self.altitude_m <= 32000.0):
            raise ValueError(f"altitude {self.altitude_m} m outside [0, 32000]")
        if self.rho <= 0 or self.mu <= 0:
            raise ValueError("rho and mu must be positive")


@dataclass(frozen=True)
class PlatformGeometry:
    """Hull dimensions and the scalar efficiencies of the airship platform."""

    length_l: float  # hull length, m
    width_d: float  # hull width, m
    volume_omega: float  # hull volume, m^3
    tail_correction_kf: float  # tail drag correction factor, >= 1
    motor_eff_etam: float  # motor efficiency in (0, 1]

    def __post_init__(self):
        if not (self.length_l > self.width_d > 0):
            raise ValueError("require length > width > 0")
        if self.volume_omega <= 0:
            raise ValueError("hull volume must be positive")
        if self.tail_correction_kf < 1.0:
            raise ValueError("tail correction factor must be >= 1")
        if not (0.0 < self.motor_eff_etam <= 1.0):
            raise ValueError("motor efficiency must be in (0, 1]")

    @property
    def slenderness(self) -> float:
        """Length-over-width ratio governing the hull drag coefficient."""
        return self.length_l / self.width_d


@dataclass(frozen=True)
class PowerLedger:
    """All non-RF power sinks plus the PA inefficiency of the transmit chain."""

    p_hap: float  # total platform supply, W
    p_payload: float  # payload sinks, W
    p_standby: float  # thermal/housekeeping sinks, W
    p_rfc: float  # per-RF-chain front-end power, W
    p_lo: float  # local oscillator power, W
    p_bb: float  # baseband processing power, W
    xi: float  # power-amplifier inefficiency factor, >= 1
    n_t: int  # antenna (= RF chain) count

    def __post_init__(self):
        for name in ("p_hap", "p_payload", "p_standby", "p_rfc", "p_lo", "p_bb", "xi", "n_t"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        for name in ("p_hap", "p_payload", "p_standby", "p_rfc", "p_lo", "p_bb"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.xi < 1.0:
            raise ValueError("PA inefficiency factor must be >= 1")
        if self.n_t < 0:
            raise ValueError("antenna count must be >= 0")


# Standard-atmosphere rows at 1 km spacing.  Values derive from the 1976
# standard atmosphere (geopotential formulas + Sutherland viscosity); the
# 20 km row is pinned to the stratospheric constants used throughout the
# rest of the package so reproductions are bit-stable.  The 11-19 km rows
# share the isothermal-layer viscosity with the 20 km row.
_ISA_TABLE = np.array(
    [
        (0.0, 1.225, 1.78938e-5),
        (1000.0, 1.11164, 1.75785e-5),
        (2000.0, 1.00649, 1.72596e-5),
        (3000.0, 0.909122, 1.69372e-5),
        (4000.0, 0.819129, 1.66111e-5),
        (5000.0, 0.736116, 1.62812e-5),
        (6000.0, 0.659697, 1.59474e-5),
        (7000.0, 0.589501, 1.56096e-5),
        (8000.0, 0.525167, 1.52677e-5),
        (9000.0, 0.466348, 1.49216e-5),
        (10000.0, 0.412706, 1.45711e-5),
        (11000.0, 0.363918, 1.4216e-5),
        (12000.0, 0.310828, 1.4216e-5),
        (13000.0, 0.265483, 1.4216e-5),
        (14000.0, 0.226753, 1.4216e-5),
        (15000.0, 0.193673, 1.4216e-5),
        (16000.0, 0.16542, 1.4216e-5),
        (17000.0, 0.141287, 1.4216e-5),
        (18000.0, 0.120676, 1.4216e-5),
        (19000.0, 0.103071, 1.4216e-5),
        (20000.0, 0.08803, 1.4216e-5),
        (21000.0, 0.0748735, 1.4271e-5),
        (22000.0, 0.0637272, 1.43258e-5),
        (23000.0, 0.0542801, 1.43805e-5),
        (24000.0, 0.0462672, 1.44351e-5),
        (25000.0, 0.0394657, 1.44896e-5),
        (26000.0, 0.0336882, 1.45439e-5),
        (27000.0, 0.0287768, 1.45982e-5),
        (28000.0, 0.0245987, 1.46524e-5),
        (29000.0, 0.021042, 1.47064e-5),
        (30000.0, 0.0180119, 1.47604e-5),
        (31000.0, 0.0154287, 1.48142e-5),
        (32000.0, 0.013225, 1.48679e-5),
    ]
)


def isa_properties(altitude_m: float) -> Atmosphere:
    """Look up standard-atmosphere density and viscosity at an altitude.

    Linear interpolation between 1 km table rows.  Exact table altitudes
    return the row values unchanged, so 20 km reproduces the pinned
    stratospheric constants bit-for-bit.

    Raises ValueError if the altitude falls outside [0, 32000] m.
    """
    alt = float(altitude_m)
    if not (0.0 <= alt <= 32000.0):
        raise ValueError(f"altitude {alt} m outside ISA table range [0, 32000] m")
    rho = float(np.interp(alt, _ISA_TABLE[:, 0], _ISA_TABLE[:, 1]))
    mu = float(np.interp(alt, _ISA_TABLE[:, 0], _ISA_TABLE[:, 2]))
    return Atmosphere(altitude_m=alt, rho=rho, mu=mu)


def static_comm_power(ledger: PowerLedger) -> float:
    """Static circuit power: per-chain RF front ends plus LO and baseband."""
    return ledger.n_t * ledger.p_rfc + ledger.p_lo + ledger.p_bb


def rf_budget(ledger: PowerLedger, p_prop_w: float) -> float:
    """RF transmit-power budget left after propulsion and static sinks.

    The supply minus propulsion, payload, standby, and static circuit
    power, divided by the PA inefficiency.  A negative numerator raises
    BudgetInfeasibleError carrying the deficit in watts; infeasibility is
    an explicit error rather than a clamp so modeling mistakes surface.
    """
    numerator = (
        ledger.p_hap - p_prop_w - ledger.p_payload - ledger.p_standby
        - static_comm_power(ledger)
    )
    if numerator < 0:
        raise BudgetInfeasibleError(-numerator)
    return numerator / ledger.xi


def comm_power(rf_spent: float, ledger: PowerLedger) -> float:
    """Communication power drawn for an RF transmit spend: xi * spend plus static power.

    The one place the formula is written; every solver's EE denominator is
    this value.
    """
    return ledger.xi * rf_spent + static_comm_power(ledger)


def as_integer(name: str, value) -> int:
    """``value`` as an int; a value with a fractional part (12.7) is a ValueError, not truncated."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def platform_from_dict(d: dict) -> PlatformGeometry:
    try:
        return PlatformGeometry(
            length_l=float(d["l"]),
            width_d=float(d["d"]),
            volume_omega=float(d["omega"]),
            tail_correction_kf=float(d["kf"]),
            motor_eff_etam=float(d["eta_m"]),
        )
    except KeyError as exc:
        raise ConfigError(f"platform config missing key: {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid platform config: {exc}") from exc


def ledger_from_dict(d: dict) -> PowerLedger:
    try:
        return PowerLedger(
            p_hap=float(d["p_hap"]),
            p_payload=float(d["p_payload"]),
            p_standby=float(d["p_standby"]),
            p_rfc=float(d["p_rfc"]),
            p_lo=float(d["p_lo"]),
            p_bb=float(d["p_bb"]),
            xi=float(d["xi"]),
            n_t=as_integer("n_t", d["n_t"]),
        )
    except KeyError as exc:
        raise ConfigError(f"ledger config missing key: {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:  # int(inf) overflows
        raise ConfigError(f"invalid ledger config: {exc}") from exc


def reject_unknown_keys(raw: dict, allowed, where) -> None:
    """Raise ConfigError naming every top-level key of ``raw`` outside ``allowed``."""
    unknown = sorted(set(raw) - set(allowed))
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {', '.join(map(repr, unknown))}")


def load_platform_config(path: str | Path) -> tuple[PlatformGeometry, PowerLedger, float]:
    """Read the platform JSON config: {"platform": {...}, "ledger": {...}, "altitude_m": x}."""
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read platform config {path}: {exc}") from exc
    if not isinstance(raw, dict) or "platform" not in raw or "ledger" not in raw:
        raise ConfigError(f"platform config {path} must contain 'platform' and 'ledger'")
    reject_unknown_keys(raw, ("platform", "ledger", "altitude_m"), f"platform config {path}")
    geom = platform_from_dict(raw["platform"])
    ledger = ledger_from_dict(raw["ledger"])
    try:
        altitude = float(raw.get("altitude_m", 20000.0))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"platform config {path}: altitude_m must be a number, got {raw['altitude_m']!r}") from exc
    return geom, ledger, altitude
