"""Generated allocation instances for the dense-alloc workload.

The user sampler is the reference-array generator of the test suite
(``tests/conftest.random_scenario``), copied so the benchmark does not
import test code: seeded departure angles on a 12 x 12 half-wavelength
array at 2.1 GHz with a minimum spatial-angle separation, QoS targets drawn
from {30, 45, 60} Mbps, and the link-budget mean channel power.
"""

from __future__ import annotations

import numpy as np

from hapalloc.channel import ArrayGeometry, Scenario, UserLink, mean_channel_power
from hapalloc.config import PowerLedger

CARRIER_HZ = 2.1e9
KAPPA_12DB = 10.0 ** 1.2


def reference_ledger(p_hap: float = 9000.0) -> PowerLedger:
    return PowerLedger(
        p_hap=p_hap, p_payload=100.0, p_standby=100.0,
        p_rfc=0.338, p_lo=0.005, p_bb=0.2, xi=2.0, n_t=144,
    )


def spread_angles(k: int, rng: np.random.Generator, min_sep: float = 0.25):
    """Departure angles whose spatial-angle pairs keep a minimum L1 separation.

    The separation halves every 200 rejected draws so dense user counts
    cannot stall the sampler.
    """
    out = []
    rejects = 0
    sep = min_sep
    while len(out) < k:
        tx = rng.uniform(-60.0, 60.0)
        ty = rng.uniform(20.0, 70.0)
        ux = np.sin(np.radians(ty)) * np.cos(np.radians(tx))
        uy = np.cos(np.radians(ty))
        if all(abs(ux - a) + abs(uy - b) > sep for a, b in out):
            out.append((ux, uy))
            yield np.radians(tx), np.radians(ty)
        else:
            rejects += 1
            if rejects % 200 == 0:
                sep *= 0.5


def random_scenario(
    k: int,
    seed: int,
    n0: float = 2.2e-11,
    qos_choices=(30e6, 45e6, 60e6),
    gamma_spread: float = 1.0,
) -> Scenario:
    """Well-separated random user set on the reference array."""
    array = ArrayGeometry.half_wavelength(12, 12, CARRIER_HZ)
    gamma = mean_channel_power(array, 3.0, 3.0, 20000.0)
    rng = np.random.default_rng(seed)
    qos = rng.choice(qos_choices, size=k)
    mults = rng.uniform(1.0 / gamma_spread, gamma_spread, size=k) if gamma_spread > 1 else np.ones(k)
    users = [
        UserLink(tx, ty, float(gamma * mults[i]), KAPPA_12DB, float(qos[i]))
        for i, (tx, ty) in enumerate(spread_angles(k, rng))
    ]
    return Scenario(array=array, users=tuple(users), bw_hz=1e7, n0_w=n0)
