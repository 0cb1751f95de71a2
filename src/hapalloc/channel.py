"""Planar-array response vectors, the link budget, and the scenario config.

The downlink channel of user k factorizes as h_k = v_k g_k: a deterministic
unit-norm steering vector from the user's departure angles times a complex
Rician gain with mean power gamma_k and factor kappa_k.  Beamforming runs on
the statistical quantities (v_k, gamma_k) only, so this module draws no
fading; the Monte Carlo check of the rate model lives with the tests.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import ConfigError, as_integer

SPEED_OF_LIGHT = 3.0e8  # m/s
BOLTZMANN = 1.380649e-23  # J/K
MAX_ARRAY_ELEMENTS = 4096  # largest planar array (64 x 64) a scenario may configure


@dataclass(frozen=True)
class ArrayGeometry:
    """Uniform planar array: element counts, spacings, and carrier."""

    n_x: int
    n_y: int
    spacing_x: float  # m
    spacing_y: float  # m
    carrier_hz: float

    def __post_init__(self):
        if self.n_x < 1 or self.n_y < 1:
            raise ValueError("element counts must be >= 1")
        if float(self.n_t) > MAX_ARRAY_ELEMENTS:  # float() overflows past the float range
            raise ValueError(f"array of {self.n_x} x {self.n_y} elements exceeds {MAX_ARRAY_ELEMENTS}")
        if self.spacing_x <= 0 or self.spacing_y <= 0 or self.carrier_hz <= 0:
            raise ValueError("spacings and carrier frequency must be positive")
        if not all(np.isfinite(2.0 * np.pi * self.carrier_hz * d) for d in (self.spacing_x, self.spacing_y)):
            raise ValueError("steering phase 2 pi f_c spacing is not finite")

    @property
    def n_t(self) -> int:
        return self.n_x * self.n_y

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_hz

    @classmethod
    def half_wavelength(cls, n_x: int, n_y: int, carrier_hz: float) -> "ArrayGeometry":
        lam = SPEED_OF_LIGHT / carrier_hz
        return cls(n_x=n_x, n_y=n_y, spacing_x=lam / 2, spacing_y=lam / 2, carrier_hz=carrier_hz)


def spatial_angles(theta_x: float, theta_y: float) -> tuple[float, float]:
    """Spatial-angle pair (u_x, u_y) from departure angles in radians."""
    return np.sin(theta_y) * np.cos(theta_x), np.cos(theta_y)


@dataclass(frozen=True)
class UserLink:
    """Per-user geometry, mean channel power, fading factor, and QoS target."""

    theta_x: float  # departure angle, rad
    theta_y: float  # departure angle, rad
    gamma: float  # mean channel power, linear
    kappa: float  # Rician factor, linear
    qos_rate: float  # target rate, bps
    u_x: float = field(init=False)
    u_y: float = field(init=False)

    def __post_init__(self):
        if not (math.isfinite(self.theta_x) and math.isfinite(self.theta_y) and 0.0 < self.gamma < math.inf
                and 0.0 <= self.kappa < math.inf and 0.0 <= self.qos_rate < math.inf):
            raise ValueError("user angles must be finite, the mean channel power finite and positive, "
                             "and the Rician factor and QoS rate finite and >= 0")
        ux, uy = spatial_angles(self.theta_x, self.theta_y)
        object.__setattr__(self, "u_x", float(ux))
        object.__setattr__(self, "u_y", float(uy))


def axis_response(n_d: int, spacing: float, u: float, f_c: float) -> np.ndarray:
    """Unit-norm response of one array axis for spatial angle u.

    Entry m is exp(-j 2 pi f_c spacing u m / c) / sqrt(n_d).
    """
    if n_d < 1:
        raise ValueError("element count must be >= 1")
    m = np.arange(n_d)
    phase = -2.0 * np.pi * f_c * spacing * u / SPEED_OF_LIGHT
    return np.exp(1j * phase * m) / np.sqrt(n_d)


def upa_response(arr: ArrayGeometry, link: UserLink) -> np.ndarray:
    """Unit-norm planar-array steering vector: Kronecker product of the axes."""
    vx = axis_response(arr.n_x, arr.spacing_x, link.u_x, arr.carrier_hz)
    vy = axis_response(arr.n_y, arr.spacing_y, link.u_y, arr.carrier_hz)
    return np.kron(vx, vy)


def mean_channel_power(arr: ArrayGeometry, g_tx_db: float, g_rx_db: float, altitude_m: float) -> float:
    """Mean channel power: antenna gains, array gain, and free-space loss.

    gamma = G_tx G_rx N_t (c / (4 pi f_c h))^2 with gains in dB and the
    platform altitude as the link distance.
    """
    if altitude_m <= 0:
        raise ValueError("altitude must be positive")
    g_lin = 10.0 ** (g_tx_db / 10.0) * 10.0 ** (g_rx_db / 10.0)
    fs = SPEED_OF_LIGHT / (4.0 * np.pi * arr.carrier_hz * altitude_m)
    return g_lin * arr.n_t * fs * fs


def thermal_noise_floor(bw_hz: float, noise_figure_db: float = 7.0, temp_k: float = 290.0) -> float:
    """Receiver noise power: k_B T B raised by the noise figure."""
    return BOLTZMANN * temp_k * bw_hz * 10.0 ** (noise_figure_db / 10.0)


# ---------------------------------------------------------------------------
# scenario configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    """An array plus a user population and the noise/bandwidth context."""

    array: ArrayGeometry
    users: tuple[UserLink, ...]
    bw_hz: float
    n0_w: float

    def __post_init__(self):
        if not self.users:
            raise ValueError("scenario needs at least one user")
        if not (0.0 < self.bw_hz < math.inf and 0.0 < self.n0_w < math.inf):
            raise ValueError("bandwidth and noise power must be finite and positive")

    @property
    def n_users(self) -> int:
        return len(self.users)

    def steering_vectors(self) -> list[np.ndarray]:
        return [upa_response(self.array, u) for u in self.users]

    def gammas(self) -> np.ndarray:
        return np.array([u.gamma for u in self.users])

    def qos_rates(self) -> np.ndarray:
        return np.array([u.qos_rate for u in self.users])


def scenario_from_dict(raw: dict) -> Scenario:
    """Build a scenario from the JSON schema.

    {"array": {"nx", "ny", "spacing_wavelengths", "fc_hz"},
     "users": [{"theta_x_deg", "theta_y_deg", "qos_mbps", "kappa_db",
                optional "gamma"}],
     "bw_hz": number, optional "n0_w", "g_tx_db", "g_rx_db", "altitude_m"}

    Unless overridden per user, mean channel powers come from the link
    budget at the given altitude; the noise floor defaults to the thermal
    value for the configured bandwidth.
    """
    try:
        a = raw["array"]
        fc = float(a["fc_hz"])
        if not fc > 0:
            raise ValueError(f"carrier frequency must be positive, got {fc!r}")
        lam = SPEED_OF_LIGHT / fc
        spacing = float(a.get("spacing_wavelengths", 0.5)) * lam
        arr = ArrayGeometry(
            n_x=as_integer("nx", a["nx"]), n_y=as_integer("ny", a["ny"]),
            spacing_x=spacing, spacing_y=spacing, carrier_hz=fc,
        )
        bw = float(raw["bw_hz"])
        altitude = float(raw.get("altitude_m", 20000.0))
        gamma_default = mean_channel_power(
            arr, float(raw.get("g_tx_db", 3.0)), float(raw.get("g_rx_db", 3.0)), altitude
        )
        n0 = float(raw["n0_w"]) if "n0_w" in raw else thermal_noise_floor(bw)
        users = []
        for u in raw["users"]:
            users.append(
                UserLink(
                    theta_x=np.radians(float(u["theta_x_deg"])),
                    theta_y=np.radians(float(u["theta_y_deg"])),
                    gamma=float(u.get("gamma", gamma_default)),
                    kappa=10.0 ** (float(u.get("kappa_db", 12.0)) / 10.0),
                    qos_rate=float(u["qos_mbps"]) * 1e6,
                )
            )
        return Scenario(array=arr, users=tuple(users), bw_hz=bw, n0_w=n0)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:  # OverflowError: nx * ny past float range
        raise ConfigError(f"invalid scenario config: {exc}") from exc


def load_scenario(path: str | Path) -> Scenario:
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read scenario {path}: {exc}") from exc
    return scenario_from_dict(raw)
