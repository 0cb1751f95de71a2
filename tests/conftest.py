"""Shared fixtures and scenario builders for the test suite."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

from hapalloc.beamforming import RateModel
from hapalloc.channel import ArrayGeometry, Scenario, UserLink, mean_channel_power
from hapalloc.config import PlatformGeometry, PowerLedger, comm_power
from hapalloc.q3e import PowerProblem

REPO_ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = REPO_ROOT / "configs"

CARRIER_HZ = 2.1e9
REFERENCE_ARRAY = ArrayGeometry.half_wavelength(12, 12, CARRIER_HZ)
REFERENCE_GAMMA = mean_channel_power(REFERENCE_ARRAY, 3.0, 3.0, 20000.0)
KAPPA_12DB = 10.0 ** 1.2

TESTS_DIR = Path(__file__).resolve().parent

# Efficiency samples whose airspeeds are a few ulps apart: at some scan betas every v0**-beta rounds to one
# value, so the surrogate fit's linear subfit is the constant one there, and the fit leaves the physical region.
NEAR_DEGENERATE_SAMPLES = [
    pytest.param(list(zip([5.0 + k * math.ulp(5.0) for k in range(4)], (0.5, 0.51, 0.52, 0.53))), id="ulps-above-5"),
    pytest.param(list(zip([1.0, 1.0, 1.0, 1.0 + math.ulp(1.0)], (0.5, 0.51, 0.52, 0.53))), id="ulp-above-1"),
]

# Every warning raised while a test in this directory runs fails that test, so
# an overflow or a NaN is caught instead of printed. The one exception: hypothesis
# imports libcst to print a failing example as a patch, and libcst warns on import.
WARNINGS_AS_ERRORS = pytest.mark.filterwarnings(
    "error",
    "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning",
)


def pytest_collection_modifyitems(items) -> None:
    for item in items:
        if item.path.is_relative_to(TESTS_DIR):
            item.add_marker(WARNINGS_AS_ERRORS)


@pytest.fixture
def platform() -> PlatformGeometry:
    return PlatformGeometry(
        length_l=140.0, width_d=34.0, volume_omega=85000.0,
        tail_correction_kf=1.12, motor_eff_etam=0.85,
    )


@pytest.fixture
def ledger() -> PowerLedger:
    return reference_ledger()


def reference_ledger(p_hap: float = 9000.0) -> PowerLedger:
    return PowerLedger(
        p_hap=p_hap, p_payload=100.0, p_standby=100.0,
        p_rfc=0.338, p_lo=0.005, p_bb=0.2, xi=2.0, n_t=144,
    )


def projector_problem(c, mask, budget: float) -> PowerProblem:
    """A full-QoS problem whose users are all free, with beam costs ``c``, floors ``mask`` and ``budget``:
    a face on which to test ``PowerProblem.project``."""
    k = len(c)
    return PowerProblem(RateModel(1e7, 2.2e-11, np.ones(k)), np.asarray(c, dtype=float),
                        np.asarray(mask, dtype=float), budget, reference_ledger(), tuple(range(k)), True)


def total_comm_power(p, w_norms_sq, ledger: PowerLedger) -> float:
    """``comm_power`` of the RF spend sum_k p_k^2 ||w_k||^2 of beams b_k = p_k w_k."""
    p = np.asarray(p, dtype=float)
    c = np.asarray(w_norms_sq, dtype=float)
    if p.shape != c.shape:
        raise ValueError("coefficient and beam-norm vectors must have equal length")
    return comm_power(float(np.sum(c * p * p)), ledger)


def spread_angles(k: int, rng: np.random.Generator, min_sep: float = 0.25):
    """Departure angles whose spatial-angle pairs keep a minimum L1 separation.

    The separation threshold relaxes every 200 rejected draws so dense user
    counts cannot stall the sampler; the zero-forcing conditioning guard
    still protects downstream users of the scenario.
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
    rng = np.random.default_rng(seed)
    qos = rng.choice(qos_choices, size=k)
    mults = rng.uniform(1.0 / gamma_spread, gamma_spread, size=k) if gamma_spread > 1 else np.ones(k)
    users = [
        UserLink(tx, ty, float(REFERENCE_GAMMA * mults[i]), KAPPA_12DB, float(qos[i]))
        for i, (tx, ty) in enumerate(spread_angles(k, rng))
    ]
    return Scenario(array=REFERENCE_ARRAY, users=tuple(users), bw_hz=1e7, n0_w=n0)


def sweep_scenario() -> Scenario:
    """The shipped nine-user budget-sweep scenario."""
    from hapalloc.channel import scenario_from_dict

    raw = json.loads((CONFIG_DIR / "scenario_sweep.json").read_text())
    return scenario_from_dict(raw)


def ablation_config() -> dict:
    return json.loads((CONFIG_DIR / "ablation.json").read_text())


def golden_section_max(fn, lo: float, hi: float, iters: int = 200) -> float:
    """Independent 1-D maximizer used as a solver oracle."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1, x2 = b - invphi * (b - a), a + invphi * (b - a)
    f1, f2 = fn(x1), fn(x2)
    for _ in range(iters):
        if f1 > f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = fn(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = fn(x2)
    return max(fn(0.5 * (a + b)), fn(lo), fn(hi))


@pytest.fixture(scope="session")
def shipped_ablation_csv(tmp_path_factory) -> Path:
    """The ablation CSV that ``hapalloc ablation`` writes for the shipped config (seeds 0-11, 2000 epochs)."""
    from golden_outputs import cli_runs, run_cli

    args, (name,) = cli_runs(tmp_path_factory.mktemp("ablation"))["ablation"]
    run_cli(args)
    return Path(args[-1]).parent / name
