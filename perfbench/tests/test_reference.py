"""The stage-2 reference optimum against scipy, the package's rate model and its solver."""

import importlib
import json
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize

from hapalloc.beamforming import RateModel, min_power_coefficients, surrogate_rates
from hapalloc.channel import scenario_from_dict
from hapalloc.config import ledger_from_dict, static_comm_power
from reference import stage2_objective, stage2_optimum
from scenarios import random_scenario, reference_ledger
from workloads import independent_costs

q3e_mod = importlib.import_module("hapalloc.q3e")
CONFIGS = Path(__file__).resolve().parents[2] / "configs"


def _sweep_scenario():
    return scenario_from_dict(json.loads((CONFIGS / "scenario_sweep.json").read_text()))


# (scenario factory, budget in W, expected regime)
CASES = {
    "sweep-K9-full": (_sweep_scenario, 400.0, True),
    "sweep-K9-partial": (_sweep_scenario, 100.0, False),
    "K16-full": (lambda: random_scenario(16, 0), 2.0e5, True),
    "K24-partial": (lambda: random_scenario(24, 1), 1000.0, False),
    "K32-seed2-200W-partial": (lambda: random_scenario(32, 2), 200.0, False),
}


def _scipy_optimum(scenario, bf, p_tot, ledger):
    """max N(x)/D(x) over the free users in x = p^2 with SLSQP, as an independent oracle."""
    model = RateModel(scenario.bw_hz, scenario.n0_w, scenario.gammas())
    p_min = min_power_coefficients(scenario.qos_rates(), model)
    c = np.asarray(bf.w_norms_sq, dtype=float)
    part = q3e_mod.feasibility_partition(p_min, c, p_tot)
    free = np.ones(len(c), dtype=bool)
    if part.full_feasible:
        floor, budget, pinned = p_min[free] ** 2, p_tot, 0.0
    else:
        free[list(part.satisfied_set)] = False
        floor, budget = np.zeros(int(free.sum())), part.residual_budget
        pinned = float(np.sum(c[~free] * p_min[~free] ** 2))
    cf, g = c[free], model.gammas[free]
    fixed = static_comm_power(ledger) + ledger.xi * pinned
    slack = budget - float(np.sum(cf * floor))

    def ee(x):
        return np.sum(model.bw_hz * np.log2(1.0 + g * x / model.n0_w)) / (ledger.xi * np.sum(cf * x) + fixed)

    best = -np.inf
    for share in (1e-3, 1e-2, 0.1, 0.5, 0.9):  # starts spending this share of the slack
        x0 = floor + share * slack / (len(cf) * cf)
        scale = float(np.mean(x0))  # x = scale * y keeps the variables O(1)
        ref = ee(x0)
        res = minimize(
            lambda y: -ee(scale * y) / ref, x0 / scale, method="SLSQP",
            bounds=[(f / scale, None) for f in floor],
            constraints=[{"type": "ineq", "fun": lambda y: 1.0 - np.sum(cf * scale * y) / budget}],
            options={"ftol": 1e-15, "maxiter": 2000},
        )
        best = max(best, ee(scale * res.x))
    return best


@pytest.mark.parametrize("case", CASES)
def test_reference_matches_scipy(case):
    make, p_tot, full = CASES[case]
    scenario = make()
    ledger = reference_ledger()
    bf = q3e_mod.scenario_beamformer(scenario)
    opt = stage2_optimum(scenario, bf, p_tot, ledger)
    assert opt.full_qos is full
    oracle = _scipy_optimum(scenario, bf, p_tot, ledger)
    assert opt.objective >= oracle * (1.0 - 1e-9)
    assert opt.objective <= oracle * (1.0 + 1e-6)


@pytest.mark.parametrize("case", CASES)
def test_reference_is_feasible_and_consistent_with_the_rate_model(case):
    make, p_tot, _ = CASES[case]
    scenario = make()
    ledger = reference_ledger()
    bf = q3e_mod.scenario_beamformer(scenario)
    opt = stage2_optimum(scenario, bf, p_tot, ledger)
    model = RateModel(scenario.bw_hz, scenario.n0_w, scenario.gammas())
    c = bf.w_norms_sq
    spend = float(np.sum(c * opt.p**2))
    assert spend <= p_tot * (1.0 + 1e-9)
    rates = surrogate_rates(opt.p, model)
    users = np.ones(len(c), dtype=bool)
    if not opt.full_qos:
        users[list(opt.q_set)] = False
    assert np.all(rates[list(opt.q_set)] >= scenario.qos_rates()[list(opt.q_set)] * (1.0 - 1e-9))
    ee = float(np.sum(rates[users])) / (ledger.xi * spend + static_comm_power(ledger))
    assert ee == pytest.approx(opt.objective, rel=1e-12)
    assert abs(opt.residual) <= 1e-9 * float(np.sum(rates[users]))


@pytest.mark.parametrize("case", CASES)
def test_numeric_stage2_never_beats_the_reference(case):
    make, p_tot, _ = CASES[case]
    scenario = make()
    ledger = reference_ledger()
    bf = q3e_mod.scenario_beamformer(scenario)
    sol = q3e_mod.q3e(scenario, bf, p_tot, ledger, backend="numeric")
    assert stage2_objective(sol) <= stage2_optimum(scenario, bf, p_tot, ledger).objective * (1.0 + 1e-9)


def test_sweep_ledger_matches_the_reference_ledger():
    cfg = json.loads((CONFIGS / "sweep_budget.json").read_text())
    assert ledger_from_dict(cfg["ledger"]) == reference_ledger()


@pytest.mark.parametrize("k,seed", [(9, None), (16, 3), (32, 2)])
def test_independent_costs_match_the_package(k, seed):
    scenario = _sweep_scenario() if seed is None else random_scenario(k, seed)
    bf = q3e_mod.scenario_beamformer(scenario)
    model = RateModel(scenario.bw_hz, scenario.n0_w, scenario.gammas())
    p_min = min_power_coefficients(scenario.qos_rates(), model)
    np.testing.assert_allclose(independent_costs(scenario), bf.w_norms_sq * p_min**2, rtol=1e-9)
