import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import golden_section_max, random_scenario, reference_ledger, sweep_scenario, total_comm_power
from hapalloc.beamforming import RateModel, min_power_coefficients, surrogate_rates
from hapalloc.config import PowerLedger, comm_power, static_comm_power
from hapalloc.q3e import (
    baseline_max_sum_rate,
    baseline_qos_only,
    feasibility_partition,
    project_capped,
    q3e,
    scenario_beamformer,
    solution_to_dict,
    solve_full_qos,
    solve_partial_qos,
    stage2_problem,
)

LEDGER = reference_ledger()


def scenario_problem(sc):
    bf = scenario_beamformer(sc)
    model = RateModel(sc.bw_hz, sc.n0_w, sc.gammas())
    p_min = min_power_coefficients(sc.qos_rates(), model)
    return bf, model, p_min


def full_ee(sc, bf, p, ledger=LEDGER):
    model = RateModel(sc.bw_hz, sc.n0_w, sc.gammas())
    p = np.asarray(p, dtype=float)
    p_com = ledger.xi * float(np.sum(bf.w_norms_sq * p * p)) + static_comm_power(ledger)
    return float(np.sum(surrogate_rates(p, model))) / p_com


class TestFeasibilityPartition:
    def test_three_user_reference_case(self):
        # costs {1, 2, 5} with budget 4: the two cheapest fit, one watt remains
        part = feasibility_partition([1.0, np.sqrt(2.0), np.sqrt(5.0)], [1.0, 1.0, 1.0], 4.0)
        assert part.satisfied_set == (0, 1)
        assert part.residual_budget == pytest.approx(1.0)
        assert not part.full_feasible
        # brute-force certificate over all 8 subsets
        costs = [1.0, 2.0, 5.0]
        best = max(
            len(sub)
            for r in range(4)
            for sub in itertools.combinations(range(3), r)
            if sum(costs[i] for i in sub) <= 4.0
        )
        assert len(part.satisfied_set) == best == 2

    def test_everything_affordable(self):
        part = feasibility_partition([0.5, 0.5], [1.0, 1.0], 10.0)
        assert part.full_feasible
        assert part.satisfied_set == (0, 1)
        assert part.residual_budget == pytest.approx(9.5)

    def test_nothing_affordable(self):
        part = feasibility_partition([10.0, 20.0], [1.0, 1.0], 5.0)
        assert part.satisfied_set == ()
        assert part.residual_budget == 5.0

    def test_tie_break_is_by_index(self):
        part = feasibility_partition([1.0, 1.0, 1.0], [1.0, 1.0, 1.0], 2.0)
        assert part.order_g == (0, 1, 2)
        assert part.satisfied_set == (0, 1)

    def test_greedy_is_cardinality_optimal(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            k = int(rng.integers(2, 9))
            costs = rng.uniform(0.1, 5.0, k)
            budget = float(rng.uniform(0.5, costs.sum()))
            part = feasibility_partition(np.sqrt(costs), np.ones(k), budget)
            best = 0
            for r in range(k + 1):
                for sub in itertools.combinations(range(k), r):
                    if sum(costs[i] for i in sub) <= budget:
                        best = max(best, r)
            assert len(part.satisfied_set) == best


class TestProjectCapped:
    def test_feasible_input_unchanged(self):
        p = np.array([0.5, 0.7])
        out = project_capped(p, np.zeros(2), np.ones(2), 10.0)
        assert np.array_equal(out, p)

    def test_symmetric_scaling_case(self):
        out = project_capped([2.0, 2.0], [0.0, 0.0], [1.0, 1.0], 4.0)
        assert np.allclose(out, np.sqrt(2.0))
        assert np.sum(out**2) == pytest.approx(4.0, rel=1e-12)

    def test_masked_scaling_case(self):
        out = project_capped([2.0, 2.0], [1.0, 0.0], [1.0, 1.0], 3.0)
        assert out[0] == pytest.approx(np.sqrt(1.0 + 3.0 * 2.0 / 7.0), rel=1e-12)
        assert out[1] == pytest.approx(np.sqrt(4.0 * 2.0 / 7.0), rel=1e-12)
        assert np.sum(out**2) == pytest.approx(3.0, rel=1e-12)

    def test_unaffordable_mask_rejected(self):
        with pytest.raises(ValueError):
            project_capped([1.0], [3.0], [1.0], 4.0)

    def test_random_triples_feasibility_equality_idempotence(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            k = int(rng.integers(1, 8))
            c = rng.uniform(0.5, 3.0, k)
            mask = np.where(rng.random(k) < 0.5, rng.uniform(0.0, 0.8, k), 0.0)
            budget = float(np.sum(c * mask**2) * (1.0 + rng.uniform(0.05, 2.0)) + 1e-6)
            raw = rng.uniform(-0.5, 3.0, k)
            out = project_capped(raw, mask, c, budget)
            spend = float(np.sum(c * out**2))
            assert np.all(out >= mask - 1e-12)
            assert spend <= budget * (1.0 + 1e-12)
            clamped_spend = float(np.sum(c * np.maximum(raw, mask) ** 2))
            if clamped_spend > budget:
                assert spend == pytest.approx(budget, rel=1e-9)
            again = project_capped(out, mask, c, budget)
            assert np.allclose(again, out, atol=1e-12)


class TestEeAndGradient:
    """The one EE gradient both backends use, against central differences of ``objective``."""

    @pytest.mark.parametrize("partial", [False, True])
    def test_matches_objective_and_finite_differences(self, partial):
        sc = random_scenario(4, seed=17)
        bf, _, p_min = scenario_problem(sc)
        costs = np.sort(bf.w_norms_sq * p_min**2)
        budget = float(costs[0] + 0.5 * costs[1]) if partial else 1.6 * float(np.sum(costs))
        prob = stage2_problem(sc, bf, budget, LEDGER)
        assert prob.full_qos is not partial
        p = np.where(prob.free, 1.3 * np.maximum(prob.p_min, 0.1 * np.sqrt(budget / bf.w_norms_sq)), prob.pinned_p)
        ee, grad, rf = prob.ee_and_gradient(p)
        assert ee == prob.objective(p)
        assert rf == prob.rf_spent(p)
        assert np.all(grad[~prob.free] == 0.0)
        for i in np.flatnonzero(prob.free):
            h = 1e-6 * p[i]
            up, dn = p.copy(), p.copy()
            up[i] += h
            dn[i] -= h
            fd = (prob.objective(up) - prob.objective(dn)) / (2.0 * h)
            assert grad[i] == pytest.approx(fd, rel=1e-6, abs=1e-9 * abs(ee) / p[i])


class TestSolveFullQos:
    def test_single_user_matches_golden_section(self):
        for seed in range(5):
            sc = random_scenario(1, seed=60 + seed)
            bf, model, p_min = scenario_problem(sc)
            budget = float(bf.w_norms_sq[0] * p_min[0] ** 2 * (1.5 + seed))
            sol = solve_full_qos(stage2_problem(sc, bf, budget, LEDGER))
            oracle = golden_section_max(
                lambda p: full_ee(sc, bf, [p]),
                p_min[0],
                float(np.sqrt(budget / bf.w_norms_sq[0])),
            )
            assert sol.ee >= oracle * (1.0 - 0.005)

    def test_zero_slack_pins_to_minimum(self):
        sc = random_scenario(3, seed=71)
        bf, model, p_min = scenario_problem(sc)
        budget = float(np.sum(bf.w_norms_sq * p_min**2))
        sol = solve_full_qos(stage2_problem(sc, bf, budget, LEDGER))
        assert np.allclose(sol.p, p_min, atol=1e-9)

    def test_three_user_grid_oracle(self):
        sc = random_scenario(3, seed=72)
        bf, model, p_min = scenario_problem(sc)
        c = bf.w_norms_sq
        budget = float(np.sum(c * p_min**2)) * 2.0
        sol = solve_full_qos(stage2_problem(sc, bf, budget, LEDGER))
        best = 0.0
        n = 60
        for i in np.linspace(p_min[0], np.sqrt(budget / c[0]), n):
            for j in np.linspace(p_min[1], np.sqrt(budget / c[1]), n):
                used = c[0] * i * i + c[1] * j * j
                rem = budget - used - c[2] * p_min[2] ** 2
                if rem < 0:
                    continue
                for k in np.linspace(p_min[2], np.sqrt((budget - used) / c[2]), n):
                    val = full_ee(sc, bf, [i, j, k])
                    if val > best:
                        best = val
        assert sol.ee >= best * (1.0 - 0.01)

    def test_requires_feasible_partition(self):
        sc = random_scenario(2, seed=73)
        bf = scenario_beamformer(sc)
        with pytest.raises(ValueError):
            solve_full_qos(stage2_problem(sc, bf, 0.0, LEDGER))


class TestSolvePartialQos:
    def _tight_partition(self, sc, frac=0.5):
        bf, model, p_min = scenario_problem(sc)
        costs = bf.w_norms_sq * p_min**2
        order = np.argsort(costs)
        budget = float(costs[order[0]] + frac * costs[order[1]])
        return bf, model, p_min, feasibility_partition(p_min, bf.w_norms_sq, budget), budget

    def test_single_free_user_matches_oracle(self):
        sc = random_scenario(2, seed=81)
        bf, model, p_min, part, budget = self._tight_partition(sc)
        sol = solve_partial_qos(stage2_problem(sc, bf, budget, LEDGER))
        free = [k for k in range(2) if k not in part.satisfied_set][0]
        pin = part.satisfied_set[0]
        c = bf.w_norms_sq

        def partial_obj(pf):
            p = np.zeros(2)
            p[pin] = p_min[pin]
            p[free] = pf
            model_rates = surrogate_rates(p, model)
            p_com = LEDGER.xi * float(np.sum(c * p * p)) + static_comm_power(LEDGER)
            return float(model_rates[free]) / p_com

        oracle = golden_section_max(
            partial_obj, 0.0, float(np.sqrt(part.residual_budget / c[free]))
        )
        got = float(sol.rates[free]) / sol.p_com
        assert got >= oracle * (1.0 - 0.005)
        assert sol.p[pin] == pytest.approx(p_min[pin], rel=1e-12)

    def test_zero_residual_gives_unsatisfied_nothing(self):
        sc = random_scenario(2, seed=82)
        bf, model, p_min = scenario_problem(sc)
        costs = bf.w_norms_sq * p_min**2
        order = np.argsort(costs)
        budget = float(costs[order[0]])
        part = feasibility_partition(p_min, bf.w_norms_sq, budget)
        sol = solve_partial_qos(stage2_problem(sc, bf, budget, LEDGER))
        free = [k for k in range(2) if k not in part.satisfied_set][0]
        assert sol.p[free] == 0.0
        assert sol.rates[free] == 0.0

    def test_empty_satisfied_set_against_grid(self):
        sc = random_scenario(2, seed=83)
        bf, model, p_min = scenario_problem(sc)
        c = bf.w_norms_sq
        budget = float(np.min(c * p_min**2)) * 0.5
        part = feasibility_partition(p_min, c, budget)
        assert part.satisfied_set == ()
        sol = solve_partial_qos(stage2_problem(sc, bf, budget, LEDGER))
        best = 0.0
        n = 80
        for i in np.linspace(0.0, np.sqrt(budget / c[0]), n):
            rem = budget - c[0] * i * i
            if rem < 0:
                continue
            for j in np.linspace(0.0, np.sqrt(rem / c[1]), n):
                best = max(best, full_ee(sc, bf, [i, j]))
        assert sol.ee >= best * (1.0 - 0.01)


class TestQ3eOrchestrator:
    def test_huge_budget_satisfies_everyone(self):
        sc = random_scenario(5, seed=91)
        bf = scenario_beamformer(sc)
        sol = q3e(sc, bf, 1e5, LEDGER)
        assert sol.q_set == tuple(range(5))
        assert sol.solver_tag == "numeric"

    def test_budget_below_cheapest_user(self):
        sc = random_scenario(3, seed=92)
        bf, model, p_min = scenario_problem(sc)
        budget = float(np.min(bf.w_norms_sq * p_min**2)) * 0.9
        sol = q3e(sc, bf, budget, LEDGER)
        assert sol.q_set == ()
        assert sol.rf_spent <= budget + 1e-9

    def test_satisfied_count_monotone_in_budget(self):
        sc = random_scenario(6, seed=93)
        bf, model, p_min = scenario_problem(sc)
        total = float(np.sum(bf.w_norms_sq * p_min**2))
        counts = [
            len(q3e(sc, bf, float(b), LEDGER).q_set)
            for b in np.linspace(0.1 * total, 1.5 * total, 12)
        ]
        assert all(b >= a for a, b in zip(counts, counts[1:]))
        assert counts[-1] == 6

    def test_solution_invariants(self):
        sc = random_scenario(4, seed=94)
        bf, model, p_min = scenario_problem(sc)
        budget = float(np.sum(bf.w_norms_sq * p_min**2)) * 0.7
        sol = q3e(sc, bf, budget, LEDGER)
        assert sol.rf_spent <= budget + 1e-9
        for k in sol.q_set:
            assert sol.p[k] >= p_min[k] - 1e-9
        assert np.allclose(sol.rates, surrogate_rates(sol.p, model), rtol=1e-12)
        assert sol.p_com == pytest.approx(
            LEDGER.xi * sol.rf_spent + static_comm_power(LEDGER), rel=1e-12
        )

    def test_unknown_backend_rejected(self):
        sc = random_scenario(2, seed=95)
        bf = scenario_beamformer(sc)
        with pytest.raises(ValueError):
            q3e(sc, bf, 10.0, LEDGER, backend="annealing")

    def test_cfg_must_fit_the_backend(self):
        from hapalloc.neuro import TrainConfig

        sc = random_scenario(2, seed=95)
        bf = scenario_beamformer(sc)
        with pytest.raises(TypeError):
            q3e(sc, bf, 10.0, LEDGER, cfg={"max_epochs": 100}, backend="mlp")
        with pytest.raises(TypeError):
            q3e(sc, bf, 10.0, LEDGER, cfg=TrainConfig(), backend="numeric")

    def test_export_schema(self):
        sc = random_scenario(2, seed=96)
        bf = scenario_beamformer(sc)
        doc = solution_to_dict(q3e(sc, bf, 50.0, LEDGER))
        assert set(doc) == {
            "p", "q_set", "rates_bps", "ee_bps_per_w", "rf_spent_w", "solver_tag", "iterations",
        }

    def test_mlp_export_reports_the_training_log(self):
        from hapalloc import neuro

        sc = random_scenario(2, seed=96)
        bf = scenario_beamformer(sc)
        cfg = neuro.TrainConfig(seed=0, max_epochs=300, patience=40)
        sol = q3e(sc, bf, 50.0, LEDGER, cfg=cfg, backend="mlp")
        diag = sol.diagnostics
        assert 0 < diag["best_epoch"] <= diag["iterations"] <= cfg.max_epochs
        assert diag["iterations"] - diag["best_epoch"] <= cfg.patience
        assert 0.0 <= diag["max_budget_overshoot"] <= 1e-9
        assert solution_to_dict(sol)["iterations"] == diag["iterations"]


class TestBaselineMaxSumRate:
    def test_symmetric_users_split_equally(self):
        sc = random_scenario(3, seed=101)
        bf = scenario_beamformer(sc)
        # symmetrize: identical gammas and unit costs
        bf_sym = type(bf)(w_columns=bf.w_columns, w_norms_sq=np.ones(3), gram_condition=1.0)
        sol = baseline_max_sum_rate(sc, bf_sym, 30.0, LEDGER)
        assert np.allclose(sol.p, sol.p[0], rtol=1e-6)
        assert sol.rf_spent == pytest.approx(30.0, rel=1e-9)

    def test_two_user_grid_oracle(self):
        sc = random_scenario(2, seed=102, gamma_spread=2.0)
        bf = scenario_beamformer(sc)
        model = RateModel(sc.bw_hz, sc.n0_w, sc.gammas())
        c = bf.w_norms_sq
        budget = 40.0
        sol = baseline_max_sum_rate(sc, bf, budget, LEDGER)
        best = 0.0
        for x in np.linspace(0.0, budget, 400):
            p = np.sqrt(np.array([x / c[0], (budget - x) / c[1]]))
            best = max(best, float(np.sum(surrogate_rates(p, model))))
        assert float(np.sum(sol.rates)) >= best * (1.0 - 0.005)

    def test_large_budget_approaches_cost_weighted_equality(self):
        sc = random_scenario(3, seed=103)
        bf = scenario_beamformer(sc)
        sol = baseline_max_sum_rate(sc, bf, 1e6, LEDGER)
        spends = bf.w_norms_sq * sol.p**2
        assert np.max(spends) / np.min(spends) < 1.001

    @settings(max_examples=60, deadline=None)
    @given(
        log_budget=st.floats(-300.0, 9.0),
        k=st.integers(2, 32),
        seed=st.integers(0, 10_000),
        shipped=st.booleans(),
    )
    def test_spend_never_exceeds_the_budget(self, log_budget, k, seed, shipped):
        sc = sweep_scenario() if shipped else random_scenario(k, seed=seed)
        p_tot = 10.0**log_budget
        assert baseline_max_sum_rate(sc, scenario_beamformer(sc), p_tot, LEDGER).rf_spent <= p_tot


class TestBaselineQosOnly:
    def test_same_satisfied_count_as_q3e(self):
        sc = random_scenario(5, seed=111)
        bf, model, p_min = scenario_problem(sc)
        total = float(np.sum(bf.w_norms_sq * p_min**2))
        for frac in (0.2, 0.5, 0.8, 1.3):
            a = q3e(sc, bf, frac * total, LEDGER)
            b = baseline_qos_only(sc, bf, frac * total, LEDGER)
            assert len(a.q_set) == len(b.q_set)

    def test_q3e_never_less_efficient(self):
        for seed in range(20):
            sc = random_scenario(int(np.random.default_rng(seed).integers(2, 5)), seed=120 + seed)
            bf, model, p_min = scenario_problem(sc)
            total = float(np.sum(bf.w_norms_sq * p_min**2))
            budget = total * 1.5  # fully feasible face
            a = q3e(sc, bf, budget, LEDGER)
            b = baseline_qos_only(sc, bf, budget, LEDGER)
            assert b.ee <= a.ee + 1e-9

    def test_zero_residual_matches_q3e_exactly(self):
        sc = random_scenario(3, seed=112)
        bf, model, p_min = scenario_problem(sc)
        budget = float(np.sum(bf.w_norms_sq * p_min**2))
        a = q3e(sc, bf, budget, LEDGER)
        b = baseline_qos_only(sc, bf, budget, LEDGER)
        assert np.allclose(a.p, b.p, atol=1e-12)

    def test_spends_entire_budget_when_someone_is_served(self):
        sc = random_scenario(4, seed=113)
        bf, model, p_min = scenario_problem(sc)
        budget = float(np.sum(bf.w_norms_sq * p_min**2)) * 1.4
        sol = baseline_qos_only(sc, bf, budget, LEDGER)
        assert sol.rf_spent == pytest.approx(budget, rel=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(budget=st.floats(5e307, float(np.finfo(float).max)))
    @example(budget=1.7e308)
    def test_spend_is_finite_and_within_a_budget_near_the_float_maximum(self, budget):
        # the closed-form headroom's discriminant overflows here; the spend must not
        sc = sweep_scenario()
        sol = baseline_qos_only(sc, scenario_beamformer(sc), budget, LEDGER)
        assert len(sol.q_set) == sc.n_users
        assert budget * (1.0 - 1e-12) <= sol.rf_spent <= budget


class TestArgmaxInvariance:
    def test_cost_and_budget_scaling_leaves_rates_unchanged(self):
        # with no static power the EE objective scales by 1/c under
        # (w_norms, budget) -> (c*w_norms, c*budget), so the optimizer's
        # coefficient iterates are identical
        sc = random_scenario(3, seed=131)
        bf, model, p_min = scenario_problem(sc)
        no_static = PowerLedger(9000.0, 0, 0, 0, 0, 0, 2.0, 0)
        budget = float(np.sum(bf.w_norms_sq * p_min**2)) * 1.8
        base = solve_full_qos(stage2_problem(sc, bf, budget, no_static))
        for c in (2.0, 3.0):
            scaled_bf = type(bf)(
                w_columns=bf.w_columns, w_norms_sq=c * bf.w_norms_sq, gram_condition=1.0
            )
            part = feasibility_partition(p_min, scaled_bf.w_norms_sq, c * budget)
            assert sorted(part.satisfied_set) == [0, 1, 2]
            sol = solve_full_qos(stage2_problem(sc, scaled_bf, c * budget, no_static))
            assert np.allclose(sol.rates, base.rates, rtol=1e-9)
            assert sol.ee == pytest.approx(base.ee / c, rel=1e-9)

    def test_partition_invariance_holds_for_any_ledger(self):
        sc = random_scenario(6, seed=132)
        bf, model, p_min = scenario_problem(sc)
        budget = float(np.sum(bf.w_norms_sq * p_min**2)) * 0.6
        base = feasibility_partition(p_min, bf.w_norms_sq, budget)
        for c in (2.0, 3.0, 7.5):
            scaled = feasibility_partition(p_min, c * bf.w_norms_sq, c * budget)
            assert scaled.satisfied_set == base.satisfied_set
            assert scaled.order_g == base.order_g


def greedy_prefix(costs, p_tot: float) -> tuple[int, ...]:
    """Cheapest-first (ties by index) users whose running cost total fits the budget."""
    q, total = [], 0.0
    for k in sorted(range(len(costs)), key=lambda k: (costs[k], k)):
        total += costs[k]
        if total > p_tot:
            break
        q.append(k)
    return tuple(sorted(q))


class TestSolutionProperties:
    """What every solver's solution record must keep, over random K and both regimes."""

    @settings(max_examples=30, deadline=None)
    @given(
        k=st.integers(2, 16),
        seed=st.integers(0, 10_000),
        full=st.booleans(),
        frac=st.floats(0.02, 0.98),
    )
    def test_comm_power_ee_budget_and_satisfied_set(self, k, seed, full, frac):
        sc = random_scenario(k, seed=seed)
        bf, model, p_min = scenario_problem(sc)
        c = bf.w_norms_sq
        costs = c * p_min**2
        # below the full QoS cost, or comfortably above it
        p_tot = float(np.sum(costs)) * (1.0 + 2.0 * frac if full else frac)
        assert stage2_problem(sc, bf, p_tot, LEDGER).full_qos is full
        numeric = q3e(sc, bf, p_tot, LEDGER)
        qos_only = baseline_qos_only(sc, bf, p_tot, LEDGER)
        max_rate = baseline_max_sum_rate(sc, bf, p_tot, LEDGER)
        for sol in (numeric, qos_only, max_rate):
            assert sol.p_com == comm_power(sol.rf_spent, LEDGER)
            assert sol.ee == float(np.sum(sol.rates)) / sol.p_com
            assert sol.rf_spent <= p_tot * (1.0 + 1e-9)
        for sol in (numeric, qos_only):
            assert sol.p_com == total_comm_power(sol.p, c, LEDGER)
            assert sol.q_set == greedy_prefix(costs, p_tot)
        # the water-filling spend is sum c_k x_k with p_k = sqrt(x_k), equal to
        # sum c_k p_k^2 up to rounding
        assert max_rate.p_com == pytest.approx(total_comm_power(max_rate.p, c, LEDGER), rel=1e-12)
