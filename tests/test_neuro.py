import json

import numpy as np
import pytest

import neuro_oracle as oracle
from conftest import golden_section_max, random_scenario, reference_ledger
from hapalloc import neuro
from hapalloc.beamforming import RateModel, min_power_coefficients, surrogate_rates
from hapalloc.config import static_comm_power
from hapalloc.harness import ABLATION_ANNEAL_EVERY
from hapalloc.q3e import scenario_beamformer, stage2_problem

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


class TestLosses:
    def test_zero_barrier_weight_is_negative_ee(self):
        _, prob = build_problem(k=3, seed=10)
        lam = 0.0
        p = prob.p_min * 1.4
        assert oracle.loss_full_qos(p, prob, lam) == pytest.approx(-prob.objective(p), rel=1e-14)

    def test_loss_finite_on_the_budget_surface(self):
        _, prob = build_problem(k=2, seed=11)
        lam = 0.5
        from hapalloc.q3e import project_capped

        p = project_capped(prob.p_min * 100.0, prob.p_min, prob.w_norms_sq, prob.budget)
        loss = oracle.loss_full_qos(p, prob, lam)
        assert np.isfinite(loss)

    def test_full_qos_gradient_against_finite_differences(self):
        _, prob = build_problem(k=3, seed=12)
        lam = 1e5
        p = prob.p_min * 1.5  # strictly interior point
        grad = oracle.loss_gradient(p, prob, lam)
        for i in range(3):
            h = 1e-6 * max(1.0, abs(p[i]))
            up, dn = p.copy(), p.copy()
            up[i] += h
            dn[i] -= h
            fd = (oracle.loss_full_qos(up, prob, lam) - oracle.loss_full_qos(dn, prob, lam)) / (2 * h)
            assert abs(grad[i] - fd) / max(abs(grad[i]), 1e-12) < 1e-4

    def test_partial_qos_gradient_against_finite_differences(self):
        _, prob = build_problem(k=3, seed=13, partial=True)
        lam = 1e5
        p = np.where(prob.free, 0.2 * np.sqrt(prob.budget / prob.w_norms_sq), prob.pinned_p)
        grad = oracle.loss_gradient(p, prob, lam)
        for i in np.flatnonzero(prob.free):
            h = 1e-6 * max(1.0, abs(p[i]))
            up, dn = p.copy(), p.copy()
            up[i] += h
            dn[i] -= h
            fd = (
                oracle.loss_partial_qos(up, prob, lam) - oracle.loss_partial_qos(dn, prob, lam)
            ) / (2 * h)
            assert abs(grad[i] - fd) / max(abs(grad[i]), 1e-12) < 1e-4

    def test_partial_loss_ignores_pinned_coordinates(self):
        _, prob = build_problem(k=3, seed=14, partial=True)
        lam = 0.3
        p = np.where(prob.free, 0.1, prob.pinned_p)
        base = oracle.loss_partial_qos(p, prob, lam)
        for i in np.flatnonzero(~prob.free):
            q = p.copy()
            q[i] += 1.7
            assert oracle.loss_partial_qos(q, prob, lam) == base

    def test_shared_evaluation_matches_the_references(self):
        for partial in (False, True):
            _, prob = build_problem(k=3, seed=16, partial=partial)
            lam = 0.3
            if partial:
                p = np.where(prob.free, 0.2 * np.sqrt(prob.budget / prob.w_norms_sq), prob.pinned_p)
            else:
                p = prob.p_min * 1.3
            ee, loss, grad, spend = neuro._evaluate(p, p[prob.free], prob, lam, neuro.BARRIER_EPS)
            assert ee == prob.objective(p)
            assert loss == pytest.approx(oracle.instance_loss(p, prob, lam), rel=1e-12)
            assert spend == float(np.sum(prob.w_norms_sq[prob.free] * p[prob.free] ** 2))
            unbarriered = neuro._evaluate(p, p[prob.free], prob, 0.0, neuro.BARRIER_EPS)[2]
            assert np.array_equal(unbarriered, -prob.ee_and_gradient(p)[1])

    def test_partial_zero_barrier(self):
        _, prob = build_problem(k=2, seed=15, partial=True)
        lam = 0.0
        p = np.where(prob.free, 0.15, prob.pinned_p)
        assert oracle.loss_partial_qos(p, prob, lam) == pytest.approx(
            -prob.objective(p), rel=1e-14
        )


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
        cfg = neuro.TrainConfig(seed=3, max_epochs=200, patience=40)
        a = neuro.train(prob, cfg)
        b = neuro.train(prob, cfg)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)
        assert a.log.best_epoch == b.log.best_epoch
        assert a.log.best_ee == b.log.best_ee

    def test_every_projected_iterate_is_feasible(self):
        _, prob = build_problem(k=3, seed=22, budget_mult=1.2)
        net = neuro.train(prob, neuro.TrainConfig(seed=1, max_epochs=400, patience=60))
        assert net.log.max_budget_overshoot <= 1e-9

    def test_early_stopping_within_patience(self):
        _, prob = build_problem(k=2, seed=23)
        cfg = neuro.TrainConfig(seed=0, max_epochs=2000, patience=50)
        net = neuro.train(prob, cfg)
        assert net.log.stopped_epoch - net.log.best_epoch <= cfg.patience
        assert net.log.stopped_epoch <= cfg.max_epochs

    def test_first_update_is_one_adam_step_on_the_checked_gradient(self):
        # the gradient that TestGradientCheck verifies is the one training applies
        _, prob = build_problem(k=3, seed=12)
        cfg = neuro.TrainConfig(seed=0, max_epochs=2, patience=1)
        start = neuro.network_for(prob, cfg)
        lam = neuro.BARRIER_WEIGHT * neuro._ee_scale(prob)
        _, grads_w, grads_b = oracle.training_loss_and_grads(start, prob, lam, neuro.BARRIER_EPS)
        net = neuro.train(prob, cfg)
        assert net.log.best_epoch == 2  # the returned checkpoint is the one after one update
        for p0, g, p1 in zip(
            [*start.weights, *start.biases], [*grads_w, *grads_b], [*net.weights, *net.biases]
        ):
            b1, b2 = neuro.ADAM_BETA1, neuro.ADAM_BETA2
            m = (1.0 - b1) * g
            v = (1.0 - b2) * g * g
            step = cfg.step_size * (m / (1.0 - b1)) / (np.sqrt(v / (1.0 - b2)) + neuro.ADAM_EPS)
            assert np.array_equal(p1, p0 - step)

    def test_trained_networks_share_no_buffers(self):
        _, prob = build_problem(k=2, seed=21)
        cfg = neuro.TrainConfig(seed=3, max_epochs=200, patience=40)
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

    def test_divergent_training_raises(self):
        _, prob = build_problem(k=2, seed=24)
        cfg = neuro.TrainConfig(seed=0, step_size=1e25, max_epochs=50, patience=10)
        with pytest.raises(neuro.TrainingError):
            neuro.train(prob, cfg)

    def test_unprojected_training_violates_tight_budget(self):
        # with the rescaling off, most seeds end beyond the budget
        from conftest import ablation_config
        from hapalloc.channel import scenario_from_dict

        cfg_doc = ablation_config()
        sc = scenario_from_dict(cfg_doc["scenario"])
        prob = stage2_problem(sc, scenario_beamformer(sc), cfg_doc["p_tot_w"], LEDGER)
        assert prob.full_qos
        violations = 0
        for seed in range(20):
            cfg = neuro.TrainConfig(
                seed=seed, max_epochs=2000, project_scaling=False, anneal_every=ABLATION_ANNEAL_EVERY
            )
            net = neuro.train(prob, cfg)
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


class TestCheckpointIo:
    def test_loaded_network_owns_a_bit_exact_flat_buffer(self, tmp_path):
        # a network rebuilt from dumped parameters gets its own flat buffer and views into it
        _, prob = build_problem(k=3, seed=51, partial=True)
        net = neuro.train(prob, neuro.TrainConfig(seed=1, max_epochs=120, patience=30))
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
    def test_backprop_matches_finite_differences(self):
        worst = 0.0
        for seed in range(10):
            _, prob = build_problem(k=2, seed=30 + seed)
            cfg = neuro.TrainConfig(seed=seed, hidden=(16, 8))
            net = neuro.network_for(prob, cfg)
            lam = 1e4
            err = oracle.gradient_check(
                net, lambda n: oracle.training_loss_and_grads(n, prob, lam), sample=100, seed=seed
            )
            worst = max(worst, err)
        assert worst < 1e-4

    def test_sabotaged_gradient_is_detected(self):
        _, prob = build_problem(k=2, seed=41)
        net = neuro.network_for(prob, neuro.TrainConfig(seed=0, hidden=(16, 8)))
        lam = 1e4

        def corrupted(n):
            loss, gw, gb = oracle.training_loss_and_grads(n, prob, lam)
            gw = [g.copy() for g in gw]
            gw[0][0, 0] += 1.0 + abs(gw[0][0, 0])
            return loss, gw, gb

        err = oracle.gradient_check(net, corrupted, sample=10**9, seed=0)
        assert err > 1e-2

    def test_minimal_network_is_extra_precise(self):
        _, prob = build_problem(k=2, seed=42)
        net = neuro.init_network((3 * 2 + 1, 2), seed=0)
        lam = 1e4
        err = oracle.gradient_check(
            net, lambda n: oracle.training_loss_and_grads(n, prob, lam), sample=10**9, seed=0
        )
        assert err < 1e-6

