import contextlib
import dataclasses
import io
import itertools
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    CONFIG_DIR,
    golden_section_max,
    projector_problem,
    random_scenario,
    reference_ledger,
    sweep_scenario,
    total_comm_power,
)
from q3e_oracle import max_sum_rate_bisection, stage2_optimum_bisection, water_fill_bisection
from hapalloc import cli, config, neuro
from hapalloc.beamforming import RateModel, min_power_coefficients, surrogate_rates
from hapalloc.channel import scenario_from_dict
from hapalloc.config import ConfigError, PowerLedger, comm_power, static_comm_power
from hapalloc.q3e import (
    PowerProblem,
    baseline_max_sum_rate,
    baseline_qos_only,
    check_stage2_range,
    feasibility_partition,
    q3e,
    scenario_beamformer,
    solution_to_dict,
    solve_full_qos,
    solve_partial_qos,
    stage2_problem,
)

LEDGER = reference_ledger()
FLOAT_MAX = float(np.finfo(float).max)
LOG10_FLOAT_MAX = float(np.log10(FLOAT_MAX))


def budget_scenario(log_budget: float, k: int, seed: int, shipped: bool):
    """The shipped sweep scenario or a random K-user one, and the budget 10**log_budget W."""
    p_tot = min(10.0 ** (log_budget - 1.0) * 10.0, FLOAT_MAX)  # a product past the float range is inf; ** raises
    return (sweep_scenario() if shipped else random_scenario(k, seed=seed)), p_tot


def scenario_problem(sc):
    bf = scenario_beamformer(sc)
    model = RateModel(sc.bw_hz, sc.n0_w, sc.gammas())
    p_min = min_power_coefficients(sc.qos_rates(), model)
    return bf, model, p_min


def reported_spend(costs, users) -> float:
    """The users' summed cost as ``PowerProblem.rf_spent`` sums it: in index order, 0 for everyone else."""
    p = np.zeros(len(costs))
    p[list(users)] = 1.0
    return float((costs * p * p).sum())


@st.composite
def costs_and_prefix_budget(draw):
    """Float costs, and a budget equal to a cheapest-first prefix's cost summed in cost order or as it is spent."""
    costs = np.array(draw(st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=40)))
    prefix = np.lexsort((np.arange(len(costs)), costs))[: draw(st.integers(1, len(costs)))]
    p_tot = float(np.cumsum(costs[prefix])[-1]) if draw(st.booleans()) else reported_spend(costs, prefix)
    return costs.tolist(), p_tot


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
        for budget in (0.0, 1.0, 2.0, 3.0):
            part = feasibility_partition([1.0, 1.0, 1.0], [1.0, 1.0, 1.0], budget)
            assert part.satisfied_set == (0, 1, 2)[: int(budget)]

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

    @settings(max_examples=200, deadline=None)
    @given(case=costs_and_prefix_budget())
    # the running cost total in cost order, 1.0 + 1.4699... + 2.3146..., rounds 1 ulp above this budget
    @example(case=([1.4699230459481833, 2.314620106514441, 1.0], sum([1.4699230459481833, 2.314620106514441, 1.0])))
    def test_admits_the_longest_prefix_whose_spend_fits(self, case):
        costs, p_tot = np.array(case[0]), case[1]
        part = feasibility_partition(np.ones(len(costs)), costs, p_tot)
        m = len(part.satisfied_set)
        cheapest = np.lexsort((np.arange(len(costs)), costs))
        assert part.satisfied_set == tuple(int(i) for i in cheapest[:m])
        assert reported_spend(costs, cheapest[:m]) <= p_tot
        if m < len(costs):
            assert reported_spend(costs, cheapest[: m + 1]) > p_tot
        assert part.full_feasible is (m == len(costs))
        assert 0.0 <= part.residual_budget <= p_tot


def regime_budget(costs, full: bool, frac: float) -> float:
    """A budget below the users' summed minimum cost, or comfortably above it."""
    return float(np.sum(costs)) * (1.0 + 2.0 * frac if full else frac)


def face_by_hand(sc, bf, p_tot: float):
    """The stage-2 face built from stage 1's partition field by field: free mask, pinned coefficients,
    and the free users' beam costs, floors and floor cost."""
    _, _, p_min = scenario_problem(sc)
    part = feasibility_partition(p_min, bf.w_norms_sq, p_tot)
    k = len(p_min)
    free = np.ones(k, dtype=bool)
    pinned = np.zeros(k)
    if part.full_feasible:
        lower = p_min.copy()
    else:
        free[list(part.satisfied_set)] = False
        pinned[~free] = p_min[~free]
        lower = np.zeros(k)
    c_free, floor = bf.w_norms_sq[free], lower[free]
    return free, pinned, c_free, floor, float((c_free * floor * floor).sum())


class TestPowerProblemRecord:
    """The face ``PowerProblem`` derives from its inputs, over K <= 32 and both regimes."""

    @settings(max_examples=40, deadline=None)
    @given(k=st.integers(1, 32), seed=st.integers(0, 10_000), full=st.booleans(), frac=st.floats(0.02, 0.98))
    def test_derived_face_matches_the_face_built_by_hand(self, k, seed, full, frac):
        sc = random_scenario(k, seed=seed)
        bf, _, p_min = scenario_problem(sc)
        p_tot = regime_budget(bf.w_norms_sq * p_min**2, full, frac)
        prob = stage2_problem(sc, bf, p_tot, LEDGER)
        free, pinned, c_free, floor, floor_cost = face_by_hand(sc, bf, p_tot)
        pairs = [(prob.free, free), (prob.pinned_p, pinned), (prob.c_free, c_free), (prob.floor, floor)]
        for derived, by_hand in pairs:
            assert derived.dtype == by_hand.dtype and np.array_equal(derived, by_hand)
        assert prob.floor_cost == floor_cost
        with pytest.raises(dataclasses.FrozenInstanceError):
            prob.free = free

    @settings(max_examples=40, deadline=None)
    @given(
        k=st.integers(1, 32),
        seed=st.integers(0, 10_000),
        regimes=st.tuples(st.booleans(), st.booleans()),
        fracs=st.tuples(st.floats(0.02, 0.98), st.floats(0.02, 0.98)),
    )
    def test_problems_share_a_face_exactly_when_satisfied_set_and_regime_match(self, k, seed, regimes, fracs):
        sc = random_scenario(k, seed=seed)
        bf, _, p_min = scenario_problem(sc)
        a, b = (stage2_problem(sc, bf, regime_budget(bf.w_norms_sq * p_min**2, full, frac), LEDGER)
                for full, frac in zip(regimes, fracs))
        same = (a.satisfied_set, a.full_qos) == (b.satisfied_set, b.full_qos)
        assert a.shares_face(b) is same and b.shares_face(a) is same

    @settings(max_examples=20, deadline=None)
    @given(
        k=st.integers(1, 32),
        seed=st.integers(0, 10_000),
        full=st.booleans(),
        frac=st.floats(0.02, 0.98),
        factor=st.floats(0.1, 10.0),
    )
    def test_neural_step_reads_the_rows_budgets_not_the_problems(self, k, seed, full, frac, factor):
        sc = random_scenario(k, seed=seed)
        bf, _, p_min = scenario_problem(sc)
        a = stage2_problem(sc, bf, regime_budget(bf.w_norms_sq * p_min**2, full, frac), LEDGER)
        b = dataclasses.replace(a, budget=a.budget * factor)
        assert a.shares_face(b)
        net = neuro.network_for(a, neuro.TrainConfig())
        # each row's fill height, whichever problem stands for the face
        height = np.array([a.fill_height, b.fill_height])
        features = np.repeat(neuro.problem_features(a)[None], 2, axis=0)
        results = []
        for problem in (a, b):
            params = np.repeat(net.params[None], 2, axis=0)
            grads = np.zeros_like(params)
            out = neuro._step(
                *neuro._layer_views(params, net.layer_widths), problem, features, height, np.array([True, False]),
                *neuro._layer_views(grads, net.layer_widths),
            )
            results.append((*out, grads))
        assert all(np.array_equal(x, y) for x, y in zip(*results))


class TestProjectCapped:
    """``PowerProblem.project`` (clamp to the floors, then scale radially in p^2 onto the budget), on faces with
    any beam costs and floors."""

    def test_feasible_input_unchanged(self):
        p = np.array([0.5, 0.7])
        out = projector_problem(np.ones(2), np.zeros(2), 10.0).project(p)
        assert np.array_equal(out, p)

    def test_symmetric_scaling_case(self):
        out = projector_problem([1.0, 1.0], [0.0, 0.0], 4.0).project(np.array([2.0, 2.0]))
        assert np.allclose(out, np.sqrt(2.0))
        assert np.sum(out**2) == pytest.approx(4.0, rel=1e-12)

    def test_masked_scaling_case(self):
        out = projector_problem([1.0, 1.0], [1.0, 0.0], 3.0).project(np.array([2.0, 2.0]))
        assert out[0] == pytest.approx(np.sqrt(1.0 + 3.0 * 2.0 / 7.0), rel=1e-12)
        assert out[1] == pytest.approx(np.sqrt(4.0 * 2.0 / 7.0), rel=1e-12)
        assert np.sum(out**2) == pytest.approx(3.0, rel=1e-12)

    def test_random_triples_feasibility_equality_idempotence(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            k = int(rng.integers(1, 8))
            c = rng.uniform(0.5, 3.0, k)
            mask = np.where(rng.random(k) < 0.5, rng.uniform(0.0, 0.8, k), 0.0)
            budget = float(np.sum(c * mask**2) * (1.0 + rng.uniform(0.05, 2.0)) + 1e-6)
            raw = rng.uniform(-0.5, 3.0, k)
            face = projector_problem(c, mask, budget)
            out = face.project(raw)
            spend = float(np.sum(c * out**2))
            assert np.all(out >= mask - 1e-12)
            assert spend <= budget * (1.0 + 1e-12)
            clamped_spend = float(np.sum(c * np.maximum(raw, mask) ** 2))
            if clamped_spend > budget:
                assert spend == pytest.approx(budget, rel=1e-9)
            again = face.project(out)
            assert np.allclose(again, out, atol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        users=st.lists(
            st.tuples(
                st.floats(0.5, 3.0),  # beam cost c_k
                st.one_of(st.just(0.0), st.floats(0.0, 0.8)),  # floor
                st.floats(-0.5, 3.0),  # raw coefficient
            ),
            min_size=1,
            max_size=7,
        ),
        headroom=st.floats(0.05, 2.0),
    )
    def test_feasibility_equality_and_idempotence_property(self, users, headroom):
        c, mask, raw = (np.array(column) for column in zip(*users))
        budget = float(np.sum(c * mask**2) * (1.0 + headroom) + 1e-6)
        face = projector_problem(c, mask, budget)
        out = face.project(raw)
        spend = float(np.sum(c * out**2))
        assert np.all(out >= mask - 1e-12)
        assert spend <= budget * (1.0 + 1e-12)
        if float(np.sum(c * np.maximum(raw, mask) ** 2)) > budget:
            assert spend == pytest.approx(budget, rel=1e-9)
        assert np.allclose(face.project(out), out, atol=1e-12)

    def test_projects_the_free_users_and_keeps_the_pinned_ones(self):
        sc = random_scenario(5, seed=3)
        bf, _, p_min = scenario_problem(sc)
        prob = stage2_problem(sc, bf, regime_budget(bf.w_norms_sq * p_min**2, False, 0.5), LEDGER)
        assert not prob.free.all()
        out = prob.project(np.full(len(prob.c_free), 1e3))
        assert np.array_equal(out[~prob.free], prob.p_min[~prob.free])
        assert float(np.sum(prob.c_free * out[prob.free] ** 2)) == pytest.approx(prob.budget, rel=1e-12)


class TestOneFormForAVectorAndAStack:
    """Stage 2's arithmetic on one vector equals row 0 of a stack whose first row is that vector, byte for byte.

    Every pooled training row reproduces a lone training bit for bit only
    while this holds.
    """

    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(1, 32),
        seed=st.integers(0, 10_000),
        full=st.booleans(),
        frac=st.floats(0.02, 0.98),
        spend=st.one_of(st.just(1.0), st.floats(1e-3, 0.999), st.floats(1e2, 1e6)),  # at, below, far above budget
        draw_seed=st.integers(0, 2**32 - 1),
    )
    def test_vector_equals_row_zero_of_a_stack(self, k, seed, full, frac, spend, draw_seed):
        sc = random_scenario(k, seed=seed)
        bf, _, p_min = scenario_problem(sc)
        prob = stage2_problem(sc, bf, regime_budget(bf.w_norms_sq * p_min**2, full, frac), LEDGER)
        c, budget = prob.c_free, prob.budget
        rng = np.random.default_rng(draw_seed)

        def draw(level):  # free-user coefficients spending ``level`` times the budget
            direction = rng.uniform(0.05, 1.0, len(c))
            return direction * np.sqrt(level * budget / float(np.sum(c * direction**2)))

        def same_bytes(vector_result, row):
            assert np.shape(vector_result) == np.shape(row)
            assert np.asarray(vector_result).tobytes() == np.asarray(row).tobytes()

        p_free = draw(spend)
        y = prob.c_free * p_free * p_free
        height = spend * prob.fill_height  # a water level at, below or far above the budget's
        level_row = prob.level_ee(np.array([height]))

        # a one-row stack, and a pool-sized one whose other rows overspend
        for rows in ([p_free], [p_free, *(draw(10.0) for _ in range(neuro.POOL_SLOTS - 1))]):
            stack_free = np.array(rows)
            stack_y = prob.c_free * stack_free * stack_free
            for vector_result, stack_result in zip(prob.spend_ee(y), prob.spend_ee(stack_y)):
                same_bytes(vector_result, stack_result[0])
            heights = np.array([height, *(10.0 * prob.fill_height for _ in rows[1:])])
            for one_row, stack_result in zip(level_row, prob.level_ee(heights)):
                same_bytes(one_row[0], stack_result[0])


class TestEeAndGradient:
    """The numeric backend's EE gradient (``PowerProblem.gradient``), against central differences of ``objective``."""

    @pytest.mark.parametrize("partial", [False, True])
    def test_matches_objective_and_finite_differences(self, partial):
        sc = random_scenario(4, seed=17)
        bf, _, p_min = scenario_problem(sc)
        costs = np.sort(bf.w_norms_sq * p_min**2)
        budget = float(costs[0] + 0.5 * costs[1]) if partial else 1.6 * float(np.sum(costs))
        prob = stage2_problem(sc, bf, budget, LEDGER)
        assert prob.full_qos is not partial
        p = np.where(prob.free, 1.3 * np.maximum(prob.p_min, 0.1 * np.sqrt(budget / bf.w_norms_sq)), prob.pinned_p)
        ee, grad = prob.objective(p), prob.gradient(p)
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

    @settings(max_examples=25, deadline=None)
    @given(
        k=st.integers(2, 8),
        seed=st.integers(0, 2**32 - 1),
        fractions=st.lists(st.floats(0.05, 1.5), min_size=1, max_size=5),
    )
    def test_satisfied_count_monotone_in_budget_property(self, k, seed, fractions):
        sc = random_scenario(k, seed=seed)
        bf, model, p_min = scenario_problem(sc)
        total = float(np.sum(bf.w_norms_sq * p_min**2))
        counts = [len(q3e(sc, bf, f * total, LEDGER).q_set) for f in sorted(fractions) + [1.5]]
        assert counts == sorted(counts)
        assert counts[-1] == k

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
        cfg = neuro.TrainConfig(seed=0, max_epochs=300)
        sol = q3e(sc, bf, 50.0, LEDGER, cfg=cfg, backend="mlp")
        diag = sol.diagnostics
        assert set(diag) == {"iterations", "best_epoch", "ee_ceiling"}
        assert 0 < diag["best_epoch"] <= diag["iterations"] <= cfg.max_epochs
        assert diag["iterations"] - diag["best_epoch"] <= neuro.PATIENCE
        assert sol.rf_spent <= 50.0 + 1e-9
        assert solution_to_dict(sol)["iterations"] == diag["iterations"]
        problem = stage2_problem(sc, bf, 50.0, LEDGER)
        assert diag["ee_ceiling"] == problem.ee_ceiling  # a bound on the solution's optimality gap
        assert problem.objective(sol.p) <= diag["ee_ceiling"] <= stage2_optimum_bisection(problem) * (1.0 + 1e-9)


def mlp_gap(sc, bf, p_tot: float, seed: int) -> float:
    """The relative gap of ``q3e(backend="mlp")``'s stage-2 objective to the bisected optimum."""
    problem = stage2_problem(sc, bf, p_tot, LEDGER)
    sol = q3e(sc, bf, p_tot, LEDGER, cfg=neuro.TrainConfig(seed=seed), backend="mlp")
    optimum = stage2_optimum_bisection(problem)
    return (optimum - problem.objective(sol.p)) / optimum


class TestMlpOnTheShippedSweep:
    """The mlp backend reaches stage 2's optimum on the shipped sweep scenario: restarting Adam's momentum when the
    EE falls keeps it from carrying the level past the optimum and stalling there."""

    @pytest.mark.parametrize("p_tot", [2308.6314627286024, 4000.0])  # the shipped solve's budget, and far above it
    def test_far_full_qos_budgets(self, p_tot):
        sc = sweep_scenario()
        bf = scenario_beamformer(sc)
        assert all(mlp_gap(sc, bf, p_tot, seed) <= 1e-9 for seed in range(5))

    def test_every_shipped_budget(self):
        sc = sweep_scenario()
        bf = scenario_beamformer(sc)
        doc = json.loads((CONFIG_DIR / "sweep_budget.json").read_text())
        assert config.ledger_from_dict(doc["ledger"]) == LEDGER
        assert all(mlp_gap(sc, bf, float(p_tot), 0) <= 1e-9 for p_tot in doc["grid"])


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
        log_budget=st.floats(-300.0, LOG10_FLOAT_MAX),
        k=st.integers(2, 32),
        seed=st.integers(0, 10_000),
        shipped=st.booleans(),
    )
    @example(log_budget=31.2, k=2, seed=0, shipped=True)  # above the old bisection bracket's largest level
    @example(log_budget=LOG10_FLOAT_MAX, k=2, seed=0, shipped=True)
    def test_spend_never_exceeds_the_budget(self, log_budget, k, seed, shipped):
        # and falls short of it by at most 1e-12 relative once any user is active
        sc, p_tot = budget_scenario(log_budget, k, seed, shipped)
        sol = baseline_max_sum_rate(sc, scenario_beamformer(sc), p_tot, LEDGER)
        assert sol.rf_spent <= p_tot
        if np.any(sol.p > 0.0):
            assert p_tot * (1.0 - 1e-12) <= sol.rf_spent

    @settings(max_examples=60, deadline=None)
    @given(
        log_budget=st.floats(-3.0, 25.0),
        k=st.integers(2, 32),
        seed=st.integers(0, 10_000),
        shipped=st.booleans(),
    )
    def test_matches_the_bisection_oracle(self, log_budget, k, seed, shipped):
        # from 1e-3 W, where the oracle's spend 1/(nu c ln 2) - N_0/gamma keeps its
        # precision, to 1e25 W, where its water-level bracket still holds
        sc, p_tot = budget_scenario(log_budget, k, seed, shipped)
        bf = scenario_beamformer(sc)
        sol = baseline_max_sum_rate(sc, bf, p_tot, LEDGER)
        p, q_set = max_sum_rate_bisection(sc, bf, p_tot)
        np.testing.assert_allclose(sol.p, p, rtol=1e-9, atol=0.0)
        assert sol.q_set == q_set


def level_head_ees(prob, draw_seed: int, n: int, uncapped: bool) -> np.ndarray:
    """The EE training reads (``PowerProblem.level_ee``) and ``objective`` at the coefficients
    (``coefficients_at``), at ``n`` random levels of the head on ``prob``: from the lowest breakpoint to the
    budget's level, or three times as high when uncapped."""
    rng = np.random.default_rng(draw_seed)
    top = rng.uniform(0.0, 3.0 if uncapped else 1.0, n) * prob.fill_height
    _, ee, _ = prob.level_ee(top)
    return np.concatenate([ee, [prob.objective(prob.coefficients_at(t)) for t in top]])


class TestEeCeiling:
    """``PowerProblem.ee_ceiling`` against Dinkelbach with bisection inner solves, over K <= 32 in both
    regimes, at binding and interior budgets and without a budget; and the water-fill it takes where the budget
    binds (``PowerProblem.fill_height``), on faces with any floors."""

    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(1, 32),
        seed=st.integers(0, 10_000),
        full=st.booleans(),
        log_headroom=st.floats(-4.0, 2.0),  # full QoS: the budget's excess over the QoS cost, relative
        frac=st.floats(0.02, 0.98),  # partial QoS: the budget as a fraction of the QoS cost
        uncapped=st.booleans(),
        draw_seed=st.integers(0, 2**16),
    )
    @example(k=9, seed=0, full=True, log_headroom=2.0, frac=0.5, uncapped=False, draw_seed=0)  # interior
    @example(k=9, seed=0, full=True, log_headroom=-4.0, frac=0.5, uncapped=False, draw_seed=0)  # binding
    @example(k=9, seed=0, full=False, log_headroom=0.0, frac=0.5, uncapped=False, draw_seed=0)  # binding
    @example(k=9, seed=0, full=False, log_headroom=0.0, frac=0.5, uncapped=True, draw_seed=0)
    def test_sound_and_tight(self, k, seed, full, log_headroom, frac, uncapped, draw_seed):
        sc = random_scenario(k, seed=seed)
        bf, _, p_min = scenario_problem(sc)
        costs = bf.w_norms_sq * p_min**2
        p_tot = float(costs.sum()) * (1.0 + 10.0**log_headroom if full else frac)
        budgeted = prob = stage2_problem(sc, bf, p_tot, LEDGER)
        assert prob.full_qos is full
        if uncapped:
            prob = dataclasses.replace(prob, budget=math.inf)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ceiling = prob.ee_ceiling
        optimum = stage2_optimum_bisection(prob)
        assert optimum <= ceiling <= optimum * (1.0 + 1e-9)
        # and it bounds the EE of every output of the level head, which is what training reads
        assert level_head_ees(budgeted, draw_seed, 20, uncapped).max() <= ceiling

    @settings(max_examples=30, deadline=None)
    @given(k=st.integers(1, 12), seed=st.integers(0, 10_000), log_frac=st.floats(-16.0, -6.0),
           uncapped=st.booleans(), draw_seed=st.integers(0, 2**16))
    def test_bounds_the_rounded_ee_at_tiny_residual_budgets(self, k, seed, log_frac, uncapped, draw_seed):
        # there each rate's log2(hypot(1, x)) is mostly rounding, which the ceiling's absolute term covers
        sc = random_scenario(k, seed=seed)
        bf, _, p_min = scenario_problem(sc)
        p_tot = float(np.sum(bf.w_norms_sq * p_min**2)) * 10.0**log_frac
        budgeted = prob = stage2_problem(sc, bf, p_tot, LEDGER)
        assert not prob.full_qos
        if uncapped:
            prob = dataclasses.replace(prob, budget=math.inf)
        assert level_head_ees(budgeted, draw_seed, 200, uncapped).max() <= prob.ee_ceiling

    def test_zero_communication_power_leaves_patience_alone(self):
        sc = random_scenario(3, seed=5)
        no_static = PowerLedger(9000.0, 0, 0, 0, 0, 0, 2.0, 0)
        prob = stage2_problem(sc, scenario_beamformer(sc), 0.0, no_static)
        assert prob.ee_ceiling == math.inf

    def test_zero_residual_budget(self):
        # partial QoS with nothing left to spend: the capped face's optimum is EE 0 (its ceiling only the
        # rates' rounding), the uncapped one's is not
        sc = random_scenario(4, seed=7)
        prob = stage2_problem(sc, scenario_beamformer(sc), 0.0, LEDGER)
        assert not prob.full_qos and prob.budget == 0.0
        uncapped = dataclasses.replace(prob, budget=math.inf)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            optimum = stage2_optimum_bisection(uncapped)
            assert 0.0 < prob.ee_ceiling <= 1e-12 * optimum
            assert optimum <= uncapped.ee_ceiling <= optimum * (1.0 + 1e-9)

    @settings(max_examples=100, deadline=None)
    @given(
        users=st.lists(st.tuples(st.floats(1e-3, 1e3), st.one_of(st.just(0.0), st.floats(1e-3, 1e3))),
                       min_size=1, max_size=32),
        log_headroom=st.floats(-12.0, 3.0),
    )
    def test_water_fill_with_lower_bounds(self, users, log_headroom):
        noise, floor_spend = (np.array(column) for column in zip(*users))
        budget = float(floor_spend.sum()) + 10.0**log_headroom * float(np.sum(floor_spend + noise))
        # a full-QoS face whose users' noise spends c_k N_0 / gamma_k are ``noise`` and whose floors' spends are
        # ``floor_spend``, each to within an ulp
        k = len(noise)
        face = PowerProblem(RateModel(1e7, 1.0, np.ones(k)), noise, np.sqrt(floor_spend / noise), budget, LEDGER,
                            tuple(range(k)), True)
        floors, lower, _ = face.spend_terms
        y = lower + face.above_floors(face.fill_height)
        assert np.all(y >= lower) and float(y.sum()) <= budget
        # users above their lower bound sit at the bisected level, the others' breakpoints at or above it; to
        # 1e-12 of the budget, as the lower bounds' spend rounds, and of the level, as the bisection's does
        level = water_fill_bisection(floors, budget, lower)
        tol = 1e-12 * (budget + level)
        active = y > lower
        assert np.all(np.abs((y + floors)[active] - level) <= tol)
        assert np.all((lower + floors)[~active] >= level - tol)


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

    @settings(max_examples=60, deadline=None)
    @given(
        log_budget=st.floats(-300.0, LOG10_FLOAT_MAX),
        k=st.integers(2, 32),
        seed=st.integers(0, 10_000),
        shipped=st.booleans(),
    )
    @example(log_budget=float(np.log10(1.7e308)), k=2, seed=0, shipped=True)
    def test_spend_is_finite_and_within_a_budget_near_the_float_maximum(self, log_budget, k, seed, shipped):
        # the closed-form headroom's discriminant overflows near the float maximum,
        # and the unscaled closed form overshot ordinary budgets by up to 2 ulps
        sc, p_tot = budget_scenario(log_budget, k, seed, shipped)
        bf, model, p_min = scenario_problem(sc)
        sol = baseline_qos_only(sc, bf, p_tot, LEDGER)
        assert sol.q_set == greedy_prefix(bf.w_norms_sq * p_min * p_min, p_tot)
        assert sol.rf_spent <= p_tot
        if sol.q_set:
            assert p_tot * (1.0 - 1e-12) <= sol.rf_spent

    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(2, 32),
        seed=st.integers(0, 10_000),
        shipped=st.booleans(),
        prefix=st.integers(0, 31),
        cost_order=st.booleans(),
        headroom=st.one_of(st.just(0.0), st.floats(-14.0, -2.0).map(lambda e: 10.0**e)),
    )
    @example(k=4, seed=0, shipped=False, prefix=3, cost_order=True, headroom=0.0)
    def test_spend_within_a_budget_just_above_a_satisfied_prefix(self, k, seed, shipped, prefix, cost_order, headroom):
        # a headroom small against the budget cancelled in -b + sqrt(b^2 - 4 a c0).  At no
        # headroom the budget is a prefix's cost summed in cost order, which can round below
        # the same floors summed in index order, as the spend sums them
        sc = sweep_scenario() if shipped else random_scenario(k, seed=seed)
        bf, model, p_min = scenario_problem(sc)
        costs = bf.w_norms_sq * p_min * p_min
        cheapest = np.lexsort((np.arange(len(costs)), costs))[: prefix % len(costs) + 1]
        prefix_cost = float(np.cumsum(costs[cheapest])[-1]) if cost_order else reported_spend(costs, cheapest)
        p_tot = prefix_cost * (1.0 + headroom)
        sol = baseline_qos_only(sc, bf, p_tot, LEDGER)
        assert p_tot * (1.0 - 1e-12) <= sol.rf_spent <= p_tot


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
        budget = float(np.sum(bf.w_norms_sq * p_min**2))
        for frac in (0.6, 1.5):  # a partial satisfied set, then every user in cost order
            base = feasibility_partition(p_min, bf.w_norms_sq, frac * budget)
            for c in (2.0, 3.0, 7.5):
                scaled = feasibility_partition(p_min, c * bf.w_norms_sq, c * frac * budget)
                assert scaled.satisfied_set == base.satisfied_set


def greedy_prefix(costs, p_tot: float) -> tuple[int, ...]:
    """The longest cheapest-first (ties by index) prefix of users whose spend, summed as
    ``PowerProblem.rf_spent`` sums it, fits the budget; ``costs`` are stage 1's c * p_min * p_min."""
    costs = np.asarray(costs, dtype=float)
    order = sorted(range(len(costs)), key=lambda k: (costs[k], k))
    n = max(n for n in range(len(costs) + 1) if reported_spend(costs, order[:n]) <= p_tot)
    return tuple(sorted(order[:n]))


def test_greedy_prefix_sums_as_the_spend_does():
    # the running total in cost order, 1.0 + 1.4699... + 2.3146..., rounds 1 ulp above the
    # Python sum; the oracle admitted (0, 2) where stage 1 admits every user
    costs = [1.4699230459481833, 2.314620106514441, 1.0]
    part = feasibility_partition(np.ones(3), costs, sum(costs))
    assert greedy_prefix(costs, sum(costs)) == tuple(sorted(part.satisfied_set)) == (0, 1, 2)


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
        costs = c * p_min * p_min
        # below the full QoS cost, or comfortably above it
        p_tot = float(np.sum(costs)) * (1.0 + 2.0 * frac if full else frac)
        assert stage2_problem(sc, bf, p_tot, LEDGER).full_qos is full
        numeric = q3e(sc, bf, p_tot, LEDGER)
        qos_only = baseline_qos_only(sc, bf, p_tot, LEDGER)
        max_rate = baseline_max_sum_rate(sc, bf, p_tot, LEDGER)
        for sol in (numeric, qos_only, max_rate):
            assert sol.rates.tobytes() == surrogate_rates(sol.p, model).tobytes()
            assert sol.rf_spent == (c * sol.p * sol.p).sum()
            assert sol.p_com == comm_power(sol.rf_spent, LEDGER)
            assert sol.p_com == total_comm_power(sol.p, c, LEDGER)
            assert sol.ee == float(np.sum(sol.rates)) / sol.p_com
            assert sol.rf_spent <= p_tot * (1.0 + 1e-9)
            assert (sol.p[list(sol.q_set)] >= p_min[list(sol.q_set)]).all()  # user k satisfied: p_k >= p_min,k
        for sol in (numeric, qos_only):
            assert sol.q_set == greedy_prefix(costs, p_tot)
        assert max_rate.q_set == tuple(np.flatnonzero(max_rate.p >= p_min))


def scenario_doc(sc) -> dict:
    """A scenario config that ``scenario_from_dict`` reads back as ``sc``, up to the rounding of angles."""
    arr = sc.array
    return {
        "array": {"nx": arr.n_x, "ny": arr.n_y, "spacing_wavelengths": arr.spacing_x / arr.wavelength,
                  "fc_hz": arr.carrier_hz},
        "users": [{"theta_x_deg": float(np.degrees(u.theta_x)), "theta_y_deg": float(np.degrees(u.theta_y)),
                   "qos_mbps": u.qos_rate / 1e6, "kappa_db": 10.0 * float(np.log10(u.kappa)), "gamma": u.gamma}
                  for u in sc.users],
        "bw_hz": sc.bw_hz,
        "n0_w": sc.n0_w,
    }


class TestStage2Range:
    """Budgets up to the float maximum: what ``check_stage2_range`` accepts solves finitely within
    the budget, and what it rejects the CLI turns into exit 2 with one line."""

    @pytest.mark.parametrize("k", [2, 4, 8])
    @pytest.mark.parametrize("p_tot", [5e307, 1e308, 1.79e308])
    def test_baselines_keep_finite_rates_near_the_float_maximum(self, k, p_tot):
        # the SNR gamma p^2 / N_0 overflowed here, and warned
        sc = random_scenario(k, seed=3)
        bf = scenario_beamformer(sc)
        for sol in (baseline_qos_only(sc, bf, p_tot, LEDGER), baseline_max_sum_rate(sc, bf, p_tot, LEDGER)):
            assert np.isfinite(sol.rates).all() and sol.rf_spent <= p_tot

    def test_zero_communication_power_is_not_an_error(self):
        # with no static power the EE gradient at zero spend divides by zero: an inf or NaN that
        # ends the start, not a ZeroDivisionError (nor a RuntimeWarning, as the old 0/0 gave)
        sc = random_scenario(3, seed=5)
        bf = scenario_beamformer(sc)
        no_static = PowerLedger(9000.0, 0, 0, 0, 0, 0, 2.0, 0)
        for p_tot in (0.0, 1e-3):
            sol = q3e(sc, bf, p_tot, no_static)
            assert np.isfinite(sol.ee) and sol.rf_spent <= p_tot * (1.0 + 1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        log_budget=st.one_of(st.floats(-300.0, LOG10_FLOAT_MAX), st.floats(307.0, LOG10_FLOAT_MAX)),
        k=st.integers(2, 32),
        seed=st.integers(0, 10_000),
    )
    @example(log_budget=float(np.log10(5e307)), k=2, seed=3)
    @example(log_budget=308.0, k=4, seed=3)
    @example(log_budget=LOG10_FLOAT_MAX, k=8, seed=3)
    @example(log_budget=-4.0, k=23, seed=0)  # a line-search trial's headroom-to-excess ratio is subnormal
    def test_accepted_budgets_solve_finitely_and_rejected_ones_exit_2(self, log_budget, k, seed):
        doc = scenario_doc(random_scenario(k, seed=seed))
        sc = scenario_from_dict(doc)
        bf = scenario_beamformer(sc)
        p_tot = min(10.0 ** (log_budget - 1.0) * 10.0, FLOAT_MAX)
        try:
            check_stage2_range(sc, bf, p_tot, LEDGER)
        except ConfigError:
            config = {"scenario": doc, "ledger": dataclasses.asdict(LEDGER), "p_tot_w": p_tot}
            err = io.StringIO()
            with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
                path = Path(tmp) / "solve.json"
                path.write_text(json.dumps(config))
                assert cli.main(["solve", "--config", str(path)]) == cli.EXIT_CONFIG
            assert err.getvalue().startswith("config error: ") and err.getvalue().count("\n") == 1
            return
        problem = stage2_problem(sc, bf, p_tot, LEDGER)
        with warnings.catch_warnings():  # the training ceilings of both projectors
            warnings.simplefilter("error")
            ceilings = problem.ee_ceiling, dataclasses.replace(problem, budget=math.inf).ee_ceiling
        assert all(0.0 <= bound < math.inf for bound in ceilings)
        assert problem.objective(q3e(sc, bf, p_tot, LEDGER).p) <= ceilings[0]
        # the numeric projector's scaled spend is not shrunk below the budget, so it rounds up to ~K ulps over
        overspend = {"numeric": 1e-12, "qos_only": 0.0, "max_sum_rate": 0.0}
        for sol in (q3e(sc, bf, p_tot, LEDGER), baseline_qos_only(sc, bf, p_tot, LEDGER),
                    baseline_max_sum_rate(sc, bf, p_tot, LEDGER)):
            assert np.isfinite(sol.rates).all() and np.isfinite(sol.ee)
            assert sol.rf_spent <= p_tot * (1.0 + overspend[sol.solver_tag])
            assert np.isfinite(sol.rf_spent) and np.isfinite(problem.objective(sol.p))
            assert np.isfinite(problem.gradient(sol.p)).all()
