"""Acceptance suite: one test per release criterion, printed pass/fail lines.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; each test asserts the criterion at its stated tolerance.
"""

import itertools
import math
import time

import numpy as np
import pytest

import bemt_oracle
import neuro_oracle as oracle
from channel_oracle import ergodic_rate_mc, sample_rician
from conftest import (
    ablation_config,
    golden_section_max,
    random_scenario,
    reference_ledger,
    sweep_scenario,
)
from hapalloc import bemt, neuro
from hapalloc.beamforming import (
    RateModel,
    min_power_coefficients,
    surrogate_rates,
    zf_beamformer,
)
from hapalloc.channel import upa_response
from hapalloc.config import PlatformGeometry, isa_properties, static_comm_power
from hapalloc.harness import run_ablation, run_budget_sweep
from hapalloc.propulsion import (
    EfficiencySample,
    SurrogateCoeffs,
    fit_inverse_power_surrogate,
    propulsion_power,
    reference_coeffs,
    surrogate_efficiency,
)
from hapalloc.q3e import (
    feasibility_partition,
    project_capped,
    q3e,
    scenario_beamformer,
    stage2_problem,
)
from propulsion_oracle import propulsion_power_expanded

LEDGER = reference_ledger()
PLATFORM = PlatformGeometry(140.0, 34.0, 85000.0, 1.12, 0.85)
ATM = isa_properties(20000.0)


def report(n, text):
    print(f"PASS criterion {n}: {text}")


def full_ee(problem, p):
    return problem.objective(np.asarray(p, dtype=float))


def test_criterion_01_propulsion_formula_fidelity():
    start = time.monotonic()
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(100):
        geom = PlatformGeometry(
            length_l=float(rng.uniform(60, 250)),
            width_d=float(rng.uniform(10, 50)),
            volume_omega=float(rng.uniform(2e4, 3e5)),
            tail_correction_kf=float(rng.uniform(1.0, 1.3)),
            motor_eff_etam=float(rng.uniform(0.6, 1.0)),
        )
        atm = isa_properties(float(rng.uniform(0, 32000)))
        coeffs = SurrogateCoeffs(
            c=float(rng.uniform(0.5, 0.9)),
            alpha=float(rng.uniform(0.05, 0.3)),
            beta=float(rng.uniform(0.2, 1.0)),
        )
        v0 = float(rng.uniform(1.0, 25.0))
        a = propulsion_power(atm, geom, v0, coeffs)
        b = propulsion_power_expanded(atm, geom, v0, coeffs)
        worst = max(worst, abs(a - b) / a)
    assert worst < 1e-10

    import mpmath as mp

    mp.mp.dps = 40
    rho, mu = mp.mpf("0.08803"), mp.mpf("1.4216e-5")
    l, d, v0 = mp.mpf(140), mp.mpf(34), mp.mpf(10)
    shape = (
        mp.mpf("0.18") * l ** (mp.mpf(2) / 15) * d ** (-mp.mpf(3) / 10)
        + mp.mpf("0.27") * l ** (-mp.mpf(41) / 30) * d ** (mp.mpf(6) / 5)
        + mp.mpf("1.08") * l ** (-mp.mpf(43) / 15) * d ** (mp.mpf(27) / 10)
    )
    eta = -mp.mpf("0.2") * v0 ** (-mp.mpf(9) / 20) + mp.mpf("0.73")
    oracle = float(
        mp.mpf("0.5") * rho ** (mp.mpf(5) / 6) * v0 ** (mp.mpf(17) / 6) * mu ** (mp.mpf(1) / 6)
        * mp.mpf(85000) ** (mp.mpf(2) / 3) * mp.mpf("1.12") / mp.mpf("0.85") * shape / eta
    )
    got = propulsion_power(ATM, PLATFORM, 10.0, reference_coeffs())
    assert abs(got - oracle) / oracle < 1e-6
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(1, f"both propulsion forms agree to {worst:.2e}; "
              f"reference point {got:.1f} W matches oracle to 1e-6 ({elapsed:.2f}s)")


def test_criterion_02_surrogate_recovery():
    start = time.monotonic()
    v0 = np.arange(1.0, 26.0)
    clean = [EfficiencySample(float(v), 0.73 - 0.2 * float(v) ** -0.45) for v in v0]
    fit = fit_inverse_power_surrogate(clean)
    assert abs(fit.c - 0.73) < 1e-6
    assert abs(fit.alpha - 0.2) < 1e-6
    assert abs(fit.beta - 0.45) < 1e-6

    rng = np.random.default_rng(17)
    noisy = [
        EfficiencySample(float(v), float(0.73 - 0.2 * v**-0.45 + 2e-3 * rng.standard_normal()))
        for v in v0
    ]
    noisy_fit = fit_inverse_power_surrogate(noisy)
    assert 1e-3 <= noisy_fit.rmse <= 4e-3
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(2, f"noiseless recovery to 1e-6, noisy RMSE {noisy_fit.rmse:.2e} in [1e-3, 4e-3] "
              f"({elapsed:.2f}s)")


def test_criterion_03_superlinear_growth_substitute():
    # The published CFD-deviation figures need unpublished CFD data; the
    # substituted model-internal properties are asserted instead.
    grid = np.arange(1.0, 25.05, 0.1)
    powers = [propulsion_power(ATM, PLATFORM, float(v), reference_coeffs()) for v in grid]
    assert all(b > a for a, b in zip(powers, powers[1:]))
    p10 = propulsion_power(ATM, PLATFORM, 10.0, reference_coeffs())
    p25 = propulsion_power(ATM, PLATFORM, 25.0, reference_coeffs())
    assert p25 / p10 > 2.5**2.5
    assert surrogate_efficiency(reference_coeffs(), 1.0) == pytest.approx(0.53, rel=1e-12)
    assert surrogate_efficiency(reference_coeffs(), 25.0) == pytest.approx(0.683015, abs=5e-6)
    report(3, f"propulsion power strictly increasing, P(25)/P(10) = {p25 / p10:.2f} > "
              f"{2.5**2.5:.2f}; efficiency endpoints 0.53 / 0.6830")


def test_criterion_04_bemt_internal_consistency():
    spec = bemt_oracle.default_test_propeller()
    worst_resid = 0.0
    for v0, n_s in ((5.0, 12.0), (10.0, 12.0), (15.0, 12.0)):
        for r in np.linspace(spec.r_hub, spec.r_tip, 150):
            st = bemt.solve_section(spec, v0, n_s, float(r))
            if st.k_p < bemt.KP_FLOOR:
                continue
            phi = math.atan2(v0 * (1 + st.a_a), 2 * math.pi * n_s * st.r)
            resid = abs(bemt_oracle.axial_induction(st.sigma, phi, st.cl, st.cd, st.k_p) - st.a_a)
            worst_resid = max(worst_resid, resid)
    assert worst_resid < 1e-6

    base = bemt.propeller_performance(spec, 10.0, 12.0, ATM, n_nodes=101)
    fine = bemt.propeller_performance(spec, 10.0, 12.0, ATM, n_nodes=201)
    dt = abs(base.thrust - fine.thrust) / base.thrust
    dp = abs(base.shaft_power - fine.shaft_power) / base.shaft_power
    assert dt < 1e-3 and dp < 1e-3
    assert base.eta_p == pytest.approx(base.thrust * base.v0 / base.shaft_power, rel=1e-12)
    report(4, f"worst section residual {worst_resid:.1e} < 1e-6; node doubling moves "
              f"thrust {dt:.1e}, power {dp:.1e}; efficiency identity holds to 1e-12")


def test_criterion_05_zero_forcing_correctness():
    worst = 0.0
    for seed in range(100):
        sc = random_scenario(9, seed=1000 + seed)
        v = np.column_stack(sc.steering_vectors())
        bf = zf_beamformer(sc.steering_vectors())
        worst = max(worst, float(np.abs(v.conj().T @ bf.w_columns - np.eye(9)).max()))
    assert worst < 1e-9

    v1 = np.zeros(4, dtype=complex)
    v1[0] = 1.0
    v2 = np.zeros(4, dtype=complex)
    v2[0], v2[1] = 0.5, np.sqrt(0.75)
    bf = zf_beamformer([v1, v2])
    assert abs(bf.w_norms_sq[0] - 4.0 / 3.0) < 1e-9
    assert abs(bf.w_norms_sq[1] - 4.0 / 3.0) < 1e-9
    report(5, f"V^H W = I to {worst:.1e} over 100 random 9-user arrays; "
              f"correlated pair norm = 4/3 to 1e-9")


def test_criterion_06_greedy_optimality_certificate():
    start = time.monotonic()
    rng = np.random.default_rng(6)
    for _ in range(200):
        k = int(rng.integers(2, 11))
        costs = rng.uniform(0.05, 5.0, k)
        budget = float(rng.uniform(0.2, 1.2) * costs.sum())
        part = feasibility_partition(np.sqrt(costs), np.ones(k), budget)
        best = 0
        for r in range(k, 0, -1):
            if any(
                sum(costs[i] for i in sub) <= budget
                for sub in itertools.combinations(range(k), r)
            ):
                best = r
                break
        assert len(part.satisfied_set) == best
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    report(6, f"greedy prefix matches brute-force max cardinality on 200 instances "
              f"({elapsed:.1f}s)")


def test_criterion_07_projector_contract():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        k = int(rng.integers(1, 9))
        c = rng.uniform(0.5, 3.0, k)
        mask = np.where(rng.random(k) < 0.5, rng.uniform(0.0, 0.8, k), 0.0)
        budget = float(np.sum(c * mask**2) * (1.0 + rng.uniform(0.05, 2.0)) + 1e-9)
        raw = rng.uniform(-0.5, 3.0, k)
        out = project_capped(raw, mask, c, budget)
        spend = float(np.sum(c * out**2))
        assert np.all(out >= mask - 1e-12)
        assert spend <= budget * (1.0 + 1e-12)
        if float(np.sum(c * np.maximum(raw, mask) ** 2)) > budget:
            assert abs(spend - budget) / budget < 1e-9
        again = project_capped(out, mask, c, budget)
        assert np.max(np.abs(again - out)) < 1e-12
    report(7, "1000 random projections feasible, budget-tight on the scaling branch, "
              "and idempotent")


def test_criterion_08_solver_versus_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(8)
    worst_numeric, worst_mlp = 0.0, 0.0
    for seed in range(20):
        k = int(rng.integers(1, 4))
        sc = random_scenario(k, seed=200 + seed, gamma_spread=2.0)
        bf = scenario_beamformer(sc)
        model = RateModel(sc.bw_hz, sc.n0_w, sc.gammas())
        p_min = min_power_coefficients(sc.qos_rates(), model)
        budget = float(np.sum(bf.w_norms_sq * p_min**2)) * float(rng.uniform(1.2, 4.0))
        problem = stage2_problem(sc, bf, budget, LEDGER)
        c = bf.w_norms_sq

        if k == 1:
            oracle = golden_section_max(
                lambda p: full_ee(problem, [p]), float(p_min[0]), float(np.sqrt(budget / c[0]))
            )
        else:
            oracle = 0.0
            n = 40
            axes = [np.linspace(p_min[i], np.sqrt(budget / c[i]), n) for i in range(k)]
            for combo in itertools.product(*axes):
                p = np.array(combo)
                if float(np.sum(c * p * p)) <= budget * (1 + 1e-12):
                    oracle = max(oracle, full_ee(problem, p))

        s_num = q3e(sc, bf, budget, LEDGER, backend="numeric")
        s_mlp = q3e(sc, bf, budget, LEDGER, cfg=neuro.TrainConfig(seed=seed), backend="mlp")
        worst_numeric = max(worst_numeric, (oracle - s_num.ee) / oracle)
        worst_mlp = max(worst_mlp, (oracle - s_mlp.ee) / oracle)
    assert worst_numeric < 0.01
    assert worst_mlp < 0.05
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    report(8, f"worst oracle gap: numeric {worst_numeric:.2e} (< 1%), learned "
              f"{worst_mlp:.2e} (< 5%) over 20 instances ({elapsed:.0f}s)")


def test_criterion_09_gradient_check_with_negative_control():
    worst = 0.0
    for seed in range(10):
        sc = random_scenario(2, seed=400 + seed)
        bf = scenario_beamformer(sc)
        model = RateModel(sc.bw_hz, sc.n0_w, sc.gammas())
        p_min = min_power_coefficients(sc.qos_rates(), model)
        budget = float(np.sum(bf.w_norms_sq * p_min**2)) * 2.0
        problem = stage2_problem(sc, bf, budget, LEDGER)
        net = neuro.network_for(problem, neuro.TrainConfig(seed=seed, hidden=(16, 8)))
        lam = 1e4
        err = oracle.gradient_check(
            net, lambda n: oracle.training_loss_and_grads(n, problem, lam), sample=100, seed=seed
        )
        worst = max(worst, err)
    assert worst < 1e-4

    def corrupted(n):
        loss, gw, gb = oracle.training_loss_and_grads(n, problem, lam)
        gw = [g.copy() for g in gw]
        gw[0][0, 0] += 1.0 + abs(gw[0][0, 0])
        return loss, gw, gb

    sabotage = oracle.gradient_check(net, corrupted, sample=10**9, seed=0)
    assert sabotage > 1e-2
    report(9, f"backprop matches finite differences to {worst:.1e} on 10 nets; "
              f"sabotaged gradient detected at {sabotage:.1e}")


def test_criterion_10_budget_sweep_trends():
    start = time.monotonic()
    sc = sweep_scenario()
    grid = list(range(70, 401, 10))
    table = run_budget_sweep(
        sc, LEDGER, grid,
        backends=("q3e-numeric", "q3e-mlp", "max-sum-rate", "qos-only"),
        seeds=(0,),
    )
    col = {h: i for i, h in enumerate(table.headers)}
    series = {}
    for row in table.rows:
        series.setdefault(row[col["backend"]], []).append(
            (row[col["p_tot_w"]], row[col["satisfaction"]], row[col["ee_bps_per_w"]])
        )
    q3e_sat = [s for _, s, _ in series["q3e-numeric"]]
    q3e_ee = [e for _, _, e in series["q3e-numeric"]]
    max_sat = [s for _, s, _ in series["max-sum-rate"]]
    qos_ee = [e for _, _, e in series["qos-only"]]

    # (a) QoS-first satisfaction non-decreasing and reaching full coverage
    assert all(b >= a for a, b in zip(q3e_sat, q3e_sat[1:]))
    assert q3e_sat[-1] == 1.0
    # (b) sum-rate baseline never ahead, with a sub-1.0 plateau over a wide range
    assert all(m <= q + 1e-12 for m, q in zip(max_sat, q3e_sat))
    plateau_value = max_sat[-1]
    assert plateau_value < 1.0
    plateau_points = sum(1 for s in max_sat if s == plateau_value)
    assert plateau_points >= 10  # at least a 100 W stretch of the grid
    # (c) lexicographic solver at least as energy-efficient as the QoS-only policy
    assert all(q >= b - 1e-9 for q, b in zip(q3e_ee, qos_ee))
    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    first_full = grid[q3e_sat.index(1.0)]
    report(10, f"satisfaction rises to 1.0 at {first_full} W; sum-rate baseline plateaus at "
               f"{plateau_value:.3f} over {plateau_points} grid points; QoS-first EE "
               f"dominates the QoS-only policy everywhere ({elapsed:.0f}s)")


def test_criterion_11_ablation_structure():
    cfg = ablation_config()
    from hapalloc.channel import scenario_from_dict

    sc = scenario_from_dict(cfg["scenario"])
    table = run_ablation(sc, LEDGER, float(cfg["p_tot_w"]), seeds=range(12), max_epochs=2000)
    rows = {row[0]: row[1:] for row in table.rows}
    assert rows["full"][0] == 100.0
    assert rows["no-soft-loss"][0] == 100.0
    assert rows["no-scale"][0] < 100.0
    assert rows["no-soft-loss"][2] <= rows["full"][2]
    report(11, f"projection-on rows 100% feasible; no-scale row at "
               f"{rows['no-scale'][0]:.0f}% with mean overshoot {rows['no-scale'][1]:.2f} W; "
               f"mean EE no-soft-loss <= full "
               f"({rows['no-soft-loss'][2]:.4e} <= {rows['full'][2]:.4e})")


def test_criterion_12_monte_carlo_validation():
    gamma = 1.852e-10
    for kappa in (0.0, 10.0**1.2):
        g = sample_rician(gamma, kappa, seed=12, size=100_000)
        assert np.mean(np.abs(g) ** 2) == pytest.approx(gamma, rel=0.02)

    from conftest import REFERENCE_ARRAY
    from hapalloc.channel import UserLink

    rng = np.random.default_rng(12)
    for i in range(20):
        link = UserLink(
            np.radians(float(rng.uniform(-60, 60))),
            np.radians(float(rng.uniform(20, 70))),
            gamma, 10.0**1.2, 3e7,
        )
        v = upa_response(REFERENCE_ARRAY, link)
        p = float(rng.uniform(0.02, 0.5))
        n0 = 2.2e-11
        model = RateModel(1e7, n0, np.array([gamma]))
        bound = surrogate_rates([p], model)[0]
        mc, se = ergodic_rate_mc(REFERENCE_ARRAY, link, [p * v], 1e7, n0, draws=4000, seed=500 + i)
        assert mc <= bound + 3.0 * se
    report(12, "Rician mean power within 2% at 1e5 draws; deterministic rate bound "
               "dominates the Monte Carlo ergodic rate on 20 instances")
