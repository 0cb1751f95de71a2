"""Zero-forcing beamformer construction and the surrogate rate model.

With W = V (V^H V)^-1 the steering directions are exactly decoupled
(V^H W = I), so each user's surrogate rate depends only on its own power
coefficient: R_k = B_w log2(1 + gamma_k p_k^2 / N_0) = 2 B_w log2(h_k), with
h_k = hypot(1, x_k) and x_k = sqrt(gamma_k / N_0) p_k.  The rate and its
derivative are written once, here, and never form the SNR x_k^2, so neither
overflows unless its value does.  Rates are bps throughout; convert to Mbps
only at the presentation layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

CONDITION_LIMIT = 1e8


class ConditioningError(ValueError):
    """Steering matrix too ill-conditioned for zero forcing."""

    def __init__(self, condition: float):
        self.condition = float(condition)
        super().__init__(
            f"steering Gram matrix condition number {self.condition:.3e} exceeds "
            f"{CONDITION_LIMIT:.0e}; user directions are (nearly) collinear, or users outnumber array elements"
        )


@dataclass(frozen=True)
class ZfBeamformer:
    """Zero-forcing beam columns with their squared norms."""

    w_columns: np.ndarray  # (N_t, K) complex
    w_norms_sq: np.ndarray  # (K,) real
    gram_condition: float

    @property
    def n_users(self) -> int:
        return self.w_columns.shape[1]


@dataclass(frozen=True)
class RateModel:
    """Bandwidth, noise power, and per-user mean channel powers."""

    bw_hz: float
    n0_w: float
    gammas: np.ndarray

    def __post_init__(self):
        if self.bw_hz <= 0 or self.n0_w <= 0:
            raise ValueError("bandwidth and noise power must be positive")
        if np.any(np.asarray(self.gammas) <= 0):
            raise ValueError("mean channel powers must be positive")

    @cached_property
    def snr_root(self) -> np.ndarray:  # sqrt(gamma_k / N_0), so that x_k = snr_root_k p_k
        return np.sqrt(self.gammas) / np.sqrt(self.n0_w)

    @cached_property
    def slope_peak(self) -> np.ndarray:  # the largest rate derivative, B_w sqrt(gamma_k / N_0) / ln 2, at x_k = 1
        return self.bw_hz * self.snr_root / np.log(2.0)


def zf_beamformer(steering) -> ZfBeamformer:
    """Build W = V (V^H V)^-1 from a list of steering vectors.

    The Gram system is solved (not explicitly inverted).  Raises
    ConditioningError when the Gram condition number exceeds 1e8: more users
    than antennas, another rank deficiency, or near-collinear user clusters.
    """
    v = np.column_stack([np.asarray(s, dtype=complex) for s in steering])
    gram = v.conj().T @ v
    cond = float(np.linalg.cond(gram))
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        raise ConditioningError(cond)
    w = v @ np.linalg.solve(gram, np.eye(v.shape[1], dtype=complex))
    norms_sq = np.real(np.einsum("ij,ij->j", w.conj(), w))
    return ZfBeamformer(w_columns=w, w_norms_sq=norms_sq, gram_condition=cond)


def surrogate_rates(p, model: RateModel) -> np.ndarray:
    """Per-user rate bound B_w log2(1 + gamma_k p_k^2 / N_0) = 2 B_w log2(h_k), in bps."""
    return model.bw_hz * (2.0 * np.log2(np.hypot(1.0, model.snr_root * np.asarray(p, dtype=float))))


def rate_slopes(p, model: RateModel) -> np.ndarray:
    """Per-user rate derivatives dR_k/dp_k = slope_peak_k (2 x_k / h_k) / h_k, in bps per unit coefficient."""
    x = model.snr_root * np.asarray(p, dtype=float)
    h = np.hypot(1.0, x)
    return model.slope_peak * (2.0 * (x / h / h))


def min_power_coefficients(qos_bps, model: RateModel) -> np.ndarray:
    """Smallest coefficients meeting the QoS rates: sqrt(N_0 (2^(r_k/B) - 1) / gamma_k)."""
    q = np.asarray(qos_bps, dtype=float)
    return np.sqrt(model.n0_w * (2.0**(q / model.bw_hz) - 1.0) / model.gammas)

