"""Monte Carlo reference for the rate model of ``hapalloc``.

The solvers use the deterministic surrogate rate B log2(1 + gamma p^2 / N_0)
of a zero-forced user.  Here the channel is drawn instead: a complex Rician
gain g with mean power gamma and factor kappa, the channel h = v g, the
instantaneous SINR of a beam set, and the ergodic rate averaged over draws.
By Jensen's inequality the surrogate bounds the ergodic rate from above.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from hapalloc.channel import ArrayGeometry, UserLink, upa_response


@dataclass(frozen=True)
class ChannelDraw:
    """One small-scale realization: gain g and channel vector h = v * g."""

    g: complex
    h: np.ndarray


def sample_rician(gamma: float, kappa: float, seed, size: int | None = None):
    """Draw complex Rician gains with mean power gamma and K-factor kappa.

    g = sqrt(gamma kappa / (kappa + 1)) + sqrt(gamma / (kappa + 1)) CN(0, 1).
    The line-of-sight phase is fixed at zero: the surrogate rate depends only
    on |g|^2 statistics, and a fixed phase keeps draws reproducible.  Pass a
    seed or an existing numpy Generator; ``size=None`` returns a scalar.
    """
    if gamma <= 0:
        raise ValueError("mean channel power must be positive")
    if kappa < 0:
        raise ValueError("Rician factor must be >= 0")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    n = 1 if size is None else size
    scatter = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2.0)
    g = np.sqrt(gamma * kappa / (kappa + 1.0)) + np.sqrt(gamma / (kappa + 1.0)) * scatter
    return complex(g[0]) if size is None else g


def channel_draw(arr: ArrayGeometry, link: UserLink, seed) -> ChannelDraw:
    """One instantaneous channel h = v * g."""
    g = sample_rician(link.gamma, link.kappa, seed)
    return ChannelDraw(g=g, h=upa_response(arr, link) * g)


def instantaneous_sinr(beams, h_k: np.ndarray, n0: float) -> float:
    """SINR of one user for a set of beams under channel realization h_k."""
    if n0 <= 0:
        raise ValueError("noise power must be positive")
    beams = [np.asarray(b) for b in beams]
    powers = [abs(np.vdot(b, h_k)) ** 2 for b in beams]
    return powers[0] / (sum(powers[1:]) + n0)


def ergodic_rate_mc(
    arr: ArrayGeometry, link: UserLink, beams, bw_hz: float, n0: float, draws: int, seed
) -> tuple[float, float]:
    """Monte Carlo ergodic rate of the first beam's user: (mean bps, std error).

    ``beams`` lists the user's own beam first, interferers after.
    """
    rng = np.random.default_rng(seed)
    v = upa_response(arr, link)
    g = sample_rician(link.gamma, link.kappa, rng, size=draws)
    beams = [np.asarray(b) for b in beams]
    cross = np.array([np.vdot(b, v) for b in beams])
    sig = np.abs(cross[0]) ** 2 * np.abs(g) ** 2
    interference = np.sum(np.abs(cross[1:]) ** 2) * np.abs(g) ** 2 if len(beams) > 1 else 0.0
    rates = bw_hz * np.log2(1.0 + sig / (interference + n0))
    return float(np.mean(rates)), float(np.std(rates, ddof=1) / np.sqrt(draws))
