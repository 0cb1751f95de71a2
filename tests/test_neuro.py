import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import neuro_oracle as oracle
from conftest import golden_section_max, random_scenario, reference_ledger
from q3e_oracle import water_fill_bisection
from hapalloc import neuro
from hapalloc.beamforming import RateModel, min_power_coefficients, surrogate_rates
from hapalloc.config import PowerLedger, static_comm_power
from hapalloc.q3e import PowerProblem, scenario_beamformer, stage2_problem

LEDGER = reference_ledger()


def build_problem(k=2, seed=0, budget_mult=2.0, partial=False):
    sc = random_scenario(k, seed=seed)
    bf = scenario_beamformer(sc)
    model = RateModel(sc.bw_hz, sc.n0_w, sc.gammas())
    p_min = min_power_coefficients(sc.qos_rates(), model)
    costs = bf.w_norms_sq * p_min**2
    if partial:
        order = np.argsort(costs)
        budget = float(costs[order[0]] + 0.4 * costs[order[1]])
    else:
        budget = float(np.sum(costs)) * budget_mult
    problem = stage2_problem(sc, bf, budget, LEDGER)
    assert problem.full_qos is not partial
    return sc, problem


class TestMlpForward:
    def test_zero_network_gives_constant_positive_output(self):
        net = neuro.init_network((4, 3), seed=0)
        net.weights[0][:] = 0.0
        net.biases[0][:] = 0.0
        out = neuro.mlp_forward(net, np.array([1.0, -2.0, 0.5, 3.0]))
        expected = np.log(2.0) ** 2  # squared softplus of zero
        assert np.allclose(out, expected)

    def test_single_hidden_unit_hand_computation(self):
        net = neuro.init_network((1, 1, 1), seed=0)
        net.weights[0][:] = 2.0
        net.biases[0][:] = -1.0
        net.weights[1][:] = 0.5
        net.biases[1][:] = 0.25
        x = np.array([1.5])
        hidden = max(2.0 * 1.5 - 1.0, 0.0)
        z = 0.5 * hidden + 0.25
        expected = np.logaddexp(0.0, z) ** 2
        assert neuro.mlp_forward(net, x)[0] == pytest.approx(expected, rel=1e-14)

    def test_outputs_finite_and_nonnegative(self):
        rng = np.random.default_rng(1)
        net = neuro.init_network((7, 64, 64, 32, 32, 3), seed=5)
        for _ in range(20):
            out = neuro.mlp_forward(net, rng.normal(scale=10.0, size=7))
            assert np.all(np.isfinite(out))
            assert np.all(out >= 0.0)

    def test_dimension_mismatch_rejected(self):
        net = neuro.init_network((4, 3), seed=0)
        with pytest.raises(ValueError):
            neuro.mlp_forward(net, np.ones(5))

    def test_parameter_count(self):
        net = neuro.init_network((7, 64, 64, 32, 32, 3), seed=0)
        widths = (7, 64, 64, 32, 32, 3)
        assert net.params.shape == (sum(a * b + b for a, b in zip(widths[:-1], widths[1:])),)


def head_network(problem, z: float, capped: bool = True) -> neuro.MlpNetwork:
    """A network for ``problem`` whose head outputs ``z`` whatever its features: zero head weights, bias z."""
    net = neuro.network_for(problem, neuro.TrainConfig(project_scaling=capped))
    net.biases[-1][:] = z
    return net


@st.composite
def faces(draw, k_max=32):
    """A stage-2 face of up to ``k_max`` random users in either regime, at a budget from just past the floors'
    cost to far above it, or with no slack at all: full QoS at exactly the QoS cost, or no residual budget."""
    k = draw(st.integers(1, k_max))
    sc = random_scenario(k, seed=draw(st.integers(0, 10_000)))
    bf = scenario_beamformer(sc)
    p_min = min_power_coefficients(sc.qos_rates(), RateModel(sc.bw_hz, sc.n0_w, sc.gammas()))
    costs = bf.w_norms_sq * p_min * p_min  # as stage 1 computes them
    full = draw(st.booleans())
    if draw(st.booleans()):  # no slack: the summed cost of every user, or of the cheapest few
        order = np.argsort(costs, kind="stable")
        m = k if full else draw(st.integers(0, k - 1))
        p = np.zeros(k)
        p[order[:m]] = 1.0
        budget = float((costs * p * p).sum())  # as stage 1 sums a prefix's cost
    elif full:
        budget = float(costs.sum()) * (1.0 + 10.0 ** draw(st.floats(-12.0, 6.0)))
    else:
        budget = float(costs.sum()) * draw(st.floats(1e-12, 0.999))
    problem = stage2_problem(sc, bf, budget, LEDGER)
    assert problem.full_qos is full
    return problem


def level_coefficients(problem, t: float) -> np.ndarray:
    """All users' coefficients at the water level at height ``t`` above the lowest breakpoint."""
    return problem.coefficients_at(t)


def coefficient_ee(problem, t: float) -> float:
    """``objective`` at ``level_coefficients``."""
    return problem.objective(level_coefficients(problem, t))


def assert_level_gradient_is_the_objectives(problem, fracs=(0.3, 0.6, 0.9)):
    """The closed-form dEE/dt against central differences of ``objective`` in coefficient space, at heights
    ``fracs`` of the budget's, to 1e-6 of the rate term n B / (ln 2 L D) or of the derivative."""
    rise, low = problem.breakpoints
    for frac in fracs:
        t = frac * problem.fill_height
        assert np.min(np.abs(t - rise)) > 1e-3 * (low + t)  # away from the breakpoints
        h = 1e-6 * (low + t)
        y, _, (d_ee,) = problem.level_ee(np.array([t]))
        fd = (coefficient_ee(problem, t + h) - coefficient_ee(problem, t - h)) / (2.0 * h)
        (denom,) = problem.spend_ee(y)[1]
        slope = np.count_nonzero(rise < t) * float(problem.rate_model.bw_hz) / (math.log(2.0) * (low + t)) / denom
        assert abs(d_ee - fd) <= 1e-6 * max(abs(d_ee), slope)


class TestLosses:
    """The training loss is the negative EE of the level's water-fill, with a closed-form gradient in the level."""

    def test_full_qos_gradient_against_finite_differences(self):
        _, prob = build_problem(k=3, seed=12)
        assert_level_gradient_is_the_objectives(prob)

    def test_partial_qos_gradient_against_finite_differences(self):
        _, prob = build_problem(k=3, seed=13, partial=True)
        assert_level_gradient_is_the_objectives(prob)

    def test_loss_finite_on_the_budget_surface(self):
        # the budget's own level, where G(s) = 1, spends what the water-fill of the budget spends
        _, prob = build_problem(k=2, seed=11)
        t = np.array([prob.fill_height])
        y, ee, d_ee = prob.level_ee(t)
        assert np.isfinite(ee).all() and np.isfinite(d_ee).all()
        d, lower, _ = prob.spend_terms
        assert np.array_equal(y[0], lower + prob.above_floors(prob.fill_height))
        # users above their floors sit at the bisected water level of the budget, the others at or below it
        level = water_fill_bisection(d, prob.budget, lower)
        active = y[0] > lower
        assert active.any() and np.allclose((y[0] + d)[active], level, rtol=1e-12, atol=0.0)
        assert np.all((lower + d)[~active] >= level * (1.0 - 1e-12))
        assert float(y.sum()) <= prob.budget

    def test_shared_evaluation_matches_the_references(self):
        # the EE and spend training reads, at a stack of levels, against objective and the spend of the coefficients
        for partial in (False, True):
            _, prob = build_problem(k=3, seed=16, partial=partial)
            t = np.linspace(0.0, 1.0, 9) * prob.fill_height
            y, ee, _ = prob.level_ee(t)
            for row, (level, spend) in enumerate(zip(t, y)):
                p = level_coefficients(prob, level)
                assert ee[row] == pytest.approx(prob.objective(p), rel=1e-12, abs=0.0)
                assert spend.sum() == pytest.approx(float(np.sum(prob.c_free * p[prob.free] ** 2)), rel=1e-12, abs=0.0)


class TestLevelHead:
    """The head's map from its output to a water level, its spends and the closed-form EE gradient."""

    @settings(max_examples=60, deadline=None)
    @given(problem=faces(), z=st.floats(-750.0, 750.0))
    @example(problem=build_problem(k=3, seed=12)[1], z=750.0)
    @example(problem=build_problem(k=3, seed=13, partial=True)[1], z=-750.0)
    def test_every_output_is_on_the_face_and_within_the_budget(self, problem, z):
        t = problem.fill_height * neuro._level(neuro._softplus(np.array([z])) ** 2, True)[0]
        y, ee, d_ee = problem.level_ee(t)
        assert np.all(y >= problem.spend_terms[1]) and np.isfinite(ee).all() and np.isfinite(d_ee).all()
        p = neuro.trained_coefficients(head_network(problem, z), problem)
        free = p[problem.free]
        assert np.isfinite(p).all() and np.all(free >= problem.floor)
        assert np.array_equal(p[~problem.free], problem.p_min[~problem.free])
        assert float((problem.c_free * free * free).sum()) <= problem.budget
        assert float(y.sum()) <= problem.budget

    @settings(max_examples=60, deadline=None)
    @given(problem=faces(), gap=st.integers(0, 31), frac=st.floats(0.1, 0.9))
    def test_level_gradient_is_the_central_difference(self, problem, gap, frac):
        # at a level between two breakpoints at least 1% of the level apart, or past the highest one, where EE
        # is smooth in the level; the step is 1e-6 of the level
        rise, low = problem.breakpoints
        edges = np.unique(rise)
        top = edges[-1] + max(edges[-1], low)
        gaps = [(a, b) for a, b in zip(edges, [*edges[1:], top]) if b - a >= 1e-2 * (low + b)]
        a, b = gaps[gap % len(gaps)]
        t = a + frac * (b - a)
        h = 1e-6 * (low + t)
        _, ee, d_ee = problem.level_ee(np.array([t, t - h, t + h]))
        _, denom = problem.spend_ee(problem.spend_terms[1] + problem.above_floors(np.array([t])))
        n = np.count_nonzero(rise < t)  # the users above their floors
        slope = n * float(problem.rate_model.bw_hz) / (math.log(2.0) * (low + t)) / denom[0]
        assert abs(d_ee[0] - (ee[2] - ee[1]) / (2.0 * h)) <= 1e-6 * max(abs(d_ee[0]), slope)


class TestTrain:
    def test_single_user_toy_matches_oracle(self):
        sc, prob = build_problem(k=1, seed=20, budget_mult=3.0)
        net = neuro.train(prob, neuro.TrainConfig(seed=0))
        p = neuro.trained_coefficients(net, prob)
        c = prob.w_norms_sq[0]

        def ee(x):
            rates = surrogate_rates(np.array([x]), prob.rate_model)
            return float(rates[0]) / (LEDGER.xi * c * x * x + static_comm_power(LEDGER))

        oracle = golden_section_max(ee, float(prob.p_min[0]), float(np.sqrt(prob.budget / c)))
        assert prob.objective(p) >= oracle * (1.0 - 0.01)

    def test_training_is_deterministic(self):
        _, prob = build_problem(k=2, seed=21)
        cfg = neuro.TrainConfig(seed=3, max_epochs=200)
        a = neuro.train(prob, cfg)
        b = neuro.train(prob, cfg)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)
        assert a.log.best_epoch == b.log.best_epoch
        assert a.log.best_ee == b.log.best_ee

    def test_every_projected_iterate_is_feasible(self, monkeypatch):
        _, prob = build_problem(k=3, seed=22, budget_mult=1.2)
        level_ee, spends = PowerProblem.level_ee, []

        def logged(face, t):
            out = level_ee(face, t)
            spends.append(float(out[0].sum()))
            return out

        monkeypatch.setattr(PowerProblem, "level_ee", logged)
        net = neuro.train(prob, neuro.TrainConfig(seed=1, max_epochs=400))
        assert len(spends) == net.log.stopped_epoch
        assert max(spends) - prob.budget <= 1e-9

    def test_early_stopping_within_patience(self):
        _, prob = build_problem(k=2, seed=23)
        cfg = neuro.TrainConfig(seed=0, max_epochs=2000)
        net = neuro.train(prob, cfg)
        assert net.log.stopped_epoch - net.log.best_epoch <= neuro.PATIENCE
        assert net.log.stopped_epoch <= cfg.max_epochs

    def test_gains_below_min_gain_do_not_extend_training(self, monkeypatch):
        # over the shipped ablation's 36 trainings, the epochs that gain less than
        # MIN_GAIN relative EE per new best are about two fifths of the training
        from conftest import ablation_config
        from hapalloc.channel import scenario_from_dict
        from hapalloc.harness import run_ablation

        cfg_doc = ablation_config()
        sc = scenario_from_dict(cfg_doc["scenario"])
        train_many = neuro.train_many

        def ablation():
            logs = []

            def logged(jobs):
                for i, net in train_many(jobs):
                    logs.append(net.log)
                    yield i, net

            with mock.patch.object(neuro, "train_many", logged):
                table = run_ablation(sc, LEDGER, cfg_doc["p_tot_w"], seeds=cfg_doc["seeds"])
            assert len(logs) == 2 * len(cfg_doc["seeds"])
            return {row[0]: row for row in table.rows}, logs

        shipped, shipped_logs = ablation()
        assert all(stops_as_documented(log) for log in shipped_logs)
        monkeypatch.setattr(neuro, "MIN_GAIN", 0.0)
        every_gain, every_gain_logs = ablation()
        shipped_epochs = sum(log.stopped_epoch for log in shipped_logs)
        assert shipped_epochs <= 0.75 * sum(log.stopped_epoch for log in every_gain_logs)
        assert shipped["full"][3] == pytest.approx(every_gain["full"][3], rel=1e-9, abs=0.0)

    def test_first_update_is_one_adam_step_on_the_checked_gradient(self, monkeypatch):
        # the gradient that TestGradientCheck verifies is the one training applies
        monkeypatch.setattr(neuro, "PATIENCE", 1)
        _, prob = build_problem(k=3, seed=12)
        cfg = neuro.TrainConfig(seed=0, max_epochs=2)
        start = neuro.network_for(prob, cfg)
        _, grads_w, grads_b = oracle.training_loss_and_grads(start, prob)
        net = neuro.train(prob, cfg)
        assert net.log.best_epoch == 2  # the returned checkpoint is the one after one update
        for p0, g, p1 in zip(
            [*start.weights, *start.biases], [*grads_w, *grads_b], [*net.weights, *net.biases]
        ):
            # at epoch 1 the moment sums are g and g * g, the step factor is STEP_SIZE and the shifted
            # epsilon ADAM_EPS, and sqrt(g * g) is |g|: the update is exactly this
            step = g * neuro.STEP_SIZE / (np.abs(g) + neuro.ADAM_EPS)
            assert np.array_equal(p1, p0 - step)

    def test_adam_step_is_textbook_adam_to_rounding(self):
        # gradients from 1e-100 to 1e100 in magnitude, about 10% exact zeros, two columns always zero
        steps, rows, cols = 2000, 2, 64
        rng = np.random.default_rng(5)
        g = rng.choice([-1.0, 1.0], size=(steps, rows, cols)) * 10.0 ** rng.uniform(-100, 100, (steps, rows, cols))
        g[rng.random(g.shape) < 0.1] = 0.0
        g[:, :, :2] = 0.0
        params, m, v, tmp = np.zeros((4, rows, cols))
        worst = 0.0
        for t, (grads, textbook) in enumerate(zip(g, oracle.textbook_adam_updates(g)), start=1):
            params[...] = 0.0
            neuro._adam_step(params, grads.copy(), m, v, tmp, [t] * rows)
            worst = max(worst, float(np.abs(-params - textbook).max()))
            assert not params[:, :2].any()  # an all-zero gradient history gives an exact zero update
        assert worst <= 1e-14 * neuro.STEP_SIZE

    def test_trained_networks_share_no_buffers(self):
        _, prob = build_problem(k=2, seed=21)
        cfg = neuro.TrainConfig(seed=3, max_epochs=200)
        a = neuro.train(prob, cfg)
        b = neuro.train(prob, cfg)
        assert not np.shares_memory(a.params, b.params)
        for view in [*a.weights, *a.biases]:
            assert np.shares_memory(view, a.params)
        assert a.params.tobytes() == b.params.tobytes()
        a.biases[0][0] += 1.0  # a write through a view lands in the flat buffer
        assert a.params.tobytes() != b.params.tobytes()
        before = b.params.copy()
        a.weights[0][...] += 1.0
        a.biases[-1][...] = 0.0
        assert np.array_equal(b.params, before)
        assert not np.array_equal(a.params, before)

    def test_divergent_training_raises(self, monkeypatch):
        # the first update's parameters near 1e154 overflow the next forward pass
        monkeypatch.setattr(neuro, "STEP_SIZE", 1e154)
        _, prob = build_problem(k=2, seed=24)
        cfg = neuro.TrainConfig(seed=7, max_epochs=60)
        with pytest.raises(neuro.TrainingError) as err:
            neuro.train(prob, cfg)
        # the message names what a user can change, not the step size no config sets
        assert err.value.seed == 7
        assert "seed 7" in str(err.value) and "budget" in str(err.value)
        assert "step size" not in str(err.value)

    def test_unprojected_training_violates_tight_budget(self):
        # with the rescaling off, most seeds end beyond the budget
        from conftest import ablation_config
        from hapalloc.channel import scenario_from_dict

        cfg_doc = ablation_config()
        sc = scenario_from_dict(cfg_doc["scenario"])
        prob = stage2_problem(sc, scenario_beamformer(sc), cfg_doc["p_tot_w"], LEDGER)
        assert prob.full_qos
        cfgs = [
            neuro.TrainConfig(seed=seed, max_epochs=2000, project_scaling=False)
            for seed in range(20)
        ]
        violations = 0
        for _, net in neuro.train_many((prob, cfg) for cfg in cfgs):
            p = neuro.trained_coefficients(net, prob, scaling=False)
            if prob.rf_spent(p) > cfg_doc["p_tot_w"] * (1 + 1e-9):
                violations += 1
        assert violations > 6  # > 30% of 20 seeds

    def test_trained_not_far_below_numeric(self):
        from hapalloc.q3e import q3e

        rng = np.random.default_rng(9)
        for i in range(8):
            k = int(rng.integers(1, 5))
            sc = random_scenario(k, seed=300 + i)
            bf = scenario_beamformer(sc)
            model = RateModel(sc.bw_hz, sc.n0_w, sc.gammas())
            p_min = min_power_coefficients(sc.qos_rates(), model)
            budget = float(np.sum(bf.w_norms_sq * p_min**2)) * float(rng.uniform(1.2, 3.0))
            numeric = q3e(sc, bf, budget, LEDGER, backend="numeric")
            learned = q3e(sc, bf, budget, LEDGER, cfg=neuro.TrainConfig(seed=i), backend="mlp")
            assert learned.ee >= 0.95 * numeric.ee


def stops_as_documented(log: neuro.TrainingLog) -> bool:
    """Whether a training that did not reach ``max_epochs`` stopped where its log says it must: at its best
    epoch once its best EE is within ``MIN_GAIN`` of its ceiling, else ``PATIENCE`` epochs later."""
    certified = log.best_ee * (1.0 + neuro.MIN_GAIN) >= log.ceiling
    return log.stopped_epoch == log.best_epoch + (0 if certified else neuro.PATIENCE)


def lone_error(jobs) -> neuro.TrainingError | None:
    """The error of the first ``(problem, cfg)`` job whose lone training diverges."""
    for problem, cfg in jobs:
        try:
            oracle.train_alone(problem, cfg)
        except neuro.TrainingError as exc:
            return exc
    return None


def pooled(jobs, width: int) -> list[neuro.MlpNetwork]:
    """``train_many``'s networks in ``jobs``' order, trained in a pool of ``width`` slots."""
    with mock.patch.object(neuro, "POOL_SLOTS", width):
        nets = dict(neuro.train_many(jobs))
    assert sorted(nets) == list(range(len(jobs)))
    return [nets[i] for i in range(len(jobs))]


train_configs = st.builds(
    neuro.TrainConfig,
    max_epochs=st.integers(51, 300),
    seed=st.integers(0, 2**16),
    project_scaling=st.booleans(),
)


class TestTrainMany:
    """A pool of trainings must reproduce each configuration's lone training bit for bit."""

    @settings(max_examples=12, deadline=None)
    @given(
        k=st.integers(1, 6),
        scenario_seed=st.integers(0, 10_000),
        full=st.booleans(),
        satisfied=st.integers(0, 5),
        fracs=st.lists(st.floats(0.05, 0.95), min_size=1, max_size=4),
        # up to two more jobs than slots, so a full-width pool also refills freed rows
        cfgs=st.lists(train_configs, min_size=1, max_size=neuro.POOL_SLOTS + 2),
    )
    # a partial-QoS face with two pinned users, where the uncapped rows end past their budgets
    @example(k=5, scenario_seed=3, full=False, satisfied=2, fracs=[0.5, 0.95], cfgs=[
        neuro.TrainConfig(max_epochs=120, seed=seed, project_scaling=scaling)
        for seed in (0, 1, 2) for scaling in (True, False)
    ])
    # ceiling stops: every capped and uncapped job on a full-QoS face, then one of each on a partial-QoS face
    @example(k=2, scenario_seed=21, full=True, satisfied=0, fracs=[0.5, 0.95], cfgs=[
        neuro.TrainConfig(max_epochs=150, seed=seed, project_scaling=scaling)
        for seed in (0, 1) for scaling in (True, False)
    ])
    @example(k=3, scenario_seed=3, full=False, satisfied=2, fracs=[0.5, 0.95], cfgs=[
        neuro.TrainConfig(max_epochs=150, seed=seed, project_scaling=scaling)
        for seed in (0, 1) for scaling in (True, False)
    ])
    # momentum restarts: every job, capped or uncapped, sees its EE fall 3 to 7 times, and ten jobs refill the pool
    @example(k=4, scenario_seed=0, full=True, satisfied=0, fracs=[0.2, 0.9], cfgs=[
        neuro.TrainConfig(max_epochs=300, seed=seed, project_scaling=scaling)
        for seed in range(5) for scaling in (True, False)
    ])
    def test_every_pooled_network_is_its_lone_training(self, k, scenario_seed, full, satisfied, fracs, cfgs):
        # the jobs' problems are one face at up to four budgets: full QoS, or partial QoS
        # with the same cheapest users satisfied (none of them when satisfied % k is 0)
        sc = random_scenario(k, seed=scenario_seed)
        bf = scenario_beamformer(sc)
        p_min = min_power_coefficients(sc.qos_rates(), RateModel(sc.bw_hz, sc.n0_w, sc.gammas()))
        costs = np.sort(bf.w_norms_sq * p_min**2)
        m = satisfied % k
        budgets = [float(costs.sum()) * (1.0 + 2.0 * f) if full else float(costs[:m].sum()) + f * float(costs[m])
                   for f in fracs]
        problems = [stage2_problem(sc, bf, budget, LEDGER) for budget in budgets]
        assert all(prob.full_qos is full and prob.shares_face(problems[0]) for prob in problems)
        jobs = [(problems[i % len(problems)], cfg) for i, cfg in enumerate(cfgs)]
        lone = [oracle.train_alone(prob, cfg) for prob, cfg in jobs]
        for width in sorted({1, 2, neuro.POOL_SLOTS}):
            for alone, net in zip(lone, pooled(jobs, width)):
                assert net.params.tobytes() == alone.params.tobytes()
                assert net.log == alone.log
                assert net.layer_widths == alone.layer_widths

    def test_the_shipped_ablation_trains_as_it_does_alone(self):
        # nine users: numpy sums eight or more terms pairwise, so here a row sum
        # taken in another order than the lone 1-D sum would show; twelve jobs
        # fill a full-width pool and then refill its freed rows
        from conftest import ablation_config
        from hapalloc.channel import scenario_from_dict

        cfg_doc = ablation_config()
        sc = scenario_from_dict(cfg_doc["scenario"])
        prob = stage2_problem(sc, scenario_beamformer(sc), cfg_doc["p_tot_w"], LEDGER)
        cfgs = [
            neuro.TrainConfig(seed=seed, max_epochs=300, project_scaling=scaling)
            for scaling in (True, False) for seed in range(6)
        ]
        assert len(cfgs) > neuro.POOL_SLOTS
        jobs = [(prob, cfg) for cfg in cfgs]
        for alone, net in zip([oracle.train_alone(prob, cfg) for cfg in cfgs], pooled(jobs, neuro.POOL_SLOTS)):
            assert net.params.tobytes() == alone.params.tobytes()
            assert net.log == alone.log

    def test_zero_communication_power(self):
        # budget 0 and no static power: the EE and its gradient are 0 in both the 1-D and the row form
        sc = random_scenario(3, seed=5)
        no_static = PowerLedger(9000.0, 0, 0, 0, 0, 0, 2.0, 0)
        prob = stage2_problem(sc, scenario_beamformer(sc), 0.0, no_static)
        jobs = [(prob, neuro.TrainConfig(seed=seed, max_epochs=60)) for seed in range(3)]
        for alone, net in zip([oracle.train_alone(*job) for job in jobs], pooled(jobs, neuro.POOL_SLOTS)):
            assert net.params.tobytes() == alone.params.tobytes()
            assert net.log == alone.log

    @pytest.mark.parametrize("width", [1, 2, neuro.POOL_SLOTS])
    def test_raises_the_error_of_the_first_diverging_config_in_list_order(self, monkeypatch, width):
        # at 1e153 two capped levels jump to the budget's (past the optimum, so short of the ceiling), where the
        # EE stops changing: no restart stops the momentum, which carries the head on until its squared softplus
        # overflows, seed 3's at epoch 32 and seed 5's at epoch 7
        monkeypatch.setattr(neuro, "STEP_SIZE", 1e153)
        _, prob = build_problem(k=2, seed=24, budget_mult=3.0)
        jobs = [(prob, neuro.TrainConfig(seed=seed, max_epochs=60)) for seed in (3, 5)]
        first, later = (lone_error([job]) for job in jobs)
        assert later.epoch < first.epoch
        expected = lone_error(jobs)
        with mock.patch.object(neuro, "POOL_SLOTS", width):
            with pytest.raises(neuro.TrainingError) as err:
                dict(neuro.train_many(jobs))
        assert (err.value.epoch, err.value.seed, str(err.value)) == (expected.epoch, expected.seed, str(expected))
        assert err.value.seed == 3

    def test_jobs_on_different_faces_are_rejected(self):
        _, full = build_problem(k=3, seed=21)
        cfg = neuro.TrainConfig(seed=0, max_epochs=60)
        for other in (build_problem(k=3, seed=21, partial=True)[1], build_problem(k=3, seed=22)[1]):
            assert not other.shares_face(full)
            with pytest.raises(ValueError, match="one stage-1 face"):
                list(neuro.train_many([(full, cfg), (other, cfg)]))

    def test_an_empty_list_trains_nothing(self):
        _, prob = build_problem(k=2, seed=21)
        assert list(neuro.train_many([])) == []

    def test_networks_come_out_as_their_trainings_stop(self):
        _, prob = build_problem(k=2, seed=22)  # the first job trains for 145 epochs, the second to its cap of 60
        cfgs = [neuro.TrainConfig(seed=0, max_epochs=300), neuro.TrainConfig(seed=1, max_epochs=60)]
        with mock.patch.object(neuro, "POOL_SLOTS", 2):
            order = [i for i, _ in neuro.train_many((prob, cfg) for cfg in cfgs)]
        assert order == [1, 0]


class TestCeilingStop:
    """Stopping a training once its best EE reaches its EE ceiling moves no checkpoint."""

    def test_the_ceiling_moves_no_checkpoint(self, monkeypatch):
        # the shipped ablation with three seeds per variant, and sweep budgets on three faces (two partial-QoS, one
        # full), trained with their ceilings and with patience alone; all of these reach their ceilings, except the
        # sweep's far budgets, whose trainings stall at the QoS-only point and stop by patience
        from conftest import ablation_config, sweep_scenario
        from hapalloc.channel import scenario_from_dict

        cfg_doc = ablation_config()
        sc = scenario_from_dict(cfg_doc["scenario"])
        ablation = stage2_problem(sc, scenario_beamformer(sc), cfg_doc["p_tot_w"], LEDGER)
        pools = [[(ablation, neuro.TrainConfig(seed=seed, project_scaling=scaling))
                  for scaling in (True, False) for seed in range(3)]]
        sweep = sweep_scenario()
        bf = scenario_beamformer(sweep)
        for budgets in ((80.0, 90.0), (120.0, 140.0), (230.0, 300.0), (1e8, 1e20)):
            problems = [stage2_problem(sweep, bf, budget, LEDGER) for budget in budgets]
            assert problems[0].shares_face(problems[1])
            pools.append([(problem, neuro.TrainConfig()) for problem in problems])

        def trained():
            return [net for jobs in pools for net in pooled(jobs, neuro.POOL_SLOTS)]

        bounded = trained()
        monkeypatch.setattr(neuro, "_ceiling", lambda problem, cfg: math.inf)
        patient = trained()
        for net, alone in zip(bounded, patient):
            assert net.params.tobytes() == alone.params.tobytes()
            assert (net.log.best_ee, net.log.best_epoch) == (alone.log.best_ee, alone.log.best_epoch)
            assert stops_as_documented(net.log) and stops_as_documented(alone.log)
            assert alone.log.stopped_epoch == alone.log.best_epoch + neuro.PATIENCE
        certified = [net.log.stopped_epoch == net.log.best_epoch for net in bounded]
        assert 0 < sum(certified) < len(bounded)


class TestCheckpointIo:
    def test_loaded_network_owns_a_bit_exact_flat_buffer(self, tmp_path):
        # a network rebuilt from dumped parameters gets its own flat buffer and views into it
        _, prob = build_problem(k=3, seed=51, partial=True)
        net = neuro.train(prob, neuro.TrainConfig(seed=1, max_epochs=120))
        path = tmp_path / "net.json"
        path.write_text(json.dumps({"layer_widths": list(net.layer_widths),
                                    "params": net.params.tolist()}))
        doc = json.loads(path.read_text())
        back = neuro.MlpNetwork(layer_widths=tuple(doc["layer_widths"]),
                                params=np.asarray(doc["params"], dtype=float))
        assert back.params.tobytes() == net.params.tobytes()
        back.biases[0][0] += 1.0
        assert back.params.tobytes() != net.params.tobytes()
        assert not np.shares_memory(back.params, net.params)


class TestGradientCheck:
    def test_backprop_matches_finite_differences(self, monkeypatch):
        monkeypatch.setattr(neuro, "HIDDEN", (16, 8))
        worst = 0.0
        for seed in range(10):
            _, prob = build_problem(k=2, seed=30 + seed, partial=seed % 2 == 1)
            net = neuro.network_for(prob, neuro.TrainConfig(seed=seed))
            err = oracle.gradient_check(
                net, lambda n: oracle.training_loss_and_grads(n, prob), sample=100, seed=seed
            )
            worst = max(worst, err)
        assert worst < 1e-4

    def test_uncapped_backprop_matches_finite_differences(self, monkeypatch):
        monkeypatch.setattr(neuro, "HIDDEN", (16, 8))
        worst = 0.0
        for seed in range(4):
            _, prob = build_problem(k=2, seed=30 + seed, partial=seed % 2 == 1)
            net = neuro.network_for(prob, neuro.TrainConfig(seed=seed, project_scaling=False))
            err = oracle.gradient_check(
                net, lambda n: oracle.training_loss_and_grads(n, prob, capped=False), sample=100, seed=seed
            )
            worst = max(worst, err)
        assert worst < 1e-4

    def test_sabotaged_gradient_is_detected(self, monkeypatch):
        monkeypatch.setattr(neuro, "HIDDEN", (16, 8))
        _, prob = build_problem(k=2, seed=41)
        net = neuro.network_for(prob, neuro.TrainConfig(seed=0))

        def corrupted(n):
            loss, gw, gb = oracle.training_loss_and_grads(n, prob)
            gw = [g.copy() for g in gw]
            gw[0][0, 0] += 1.0 + abs(gw[0][0, 0])
            return loss, gw, gb

        err = oracle.gradient_check(net, corrupted, sample=10**9, seed=0)
        assert err > 1e-2

    def test_minimal_network_is_extra_precise(self):
        _, prob = build_problem(k=2, seed=42)
        net = neuro.init_network((3 * 2 + 1, 1), seed=0)
        err = oracle.gradient_check(
            net, lambda n: oracle.training_loss_and_grads(n, prob), sample=10**9, seed=0
        )
        assert err < 1e-6
