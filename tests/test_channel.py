import json

import numpy as np
import pytest

from channel_oracle import channel_draw, ergodic_rate_mc, instantaneous_sinr, sample_rician
from conftest import KAPPA_12DB, REFERENCE_ARRAY, REFERENCE_GAMMA, random_scenario
from hapalloc.channel import (
    ArrayGeometry,
    Scenario,
    UserLink,
    axis_response,
    load_scenario,
    mean_channel_power,
    scenario_from_dict,
    spatial_angles,
    thermal_noise_floor,
    upa_response,
)
from hapalloc.config import ConfigError


def make_link(tx_deg, ty_deg, qos=30e6, gamma=REFERENCE_GAMMA, kappa=KAPPA_12DB):
    return UserLink(np.radians(tx_deg), np.radians(ty_deg), gamma, kappa, qos)


class TestAxisResponse:
    def test_broadside_is_uniform(self):
        v = axis_response(8, 0.07, 0.0, 2.1e9)
        assert np.allclose(v, np.full(8, 1 / np.sqrt(8)))

    def test_single_element(self):
        assert np.allclose(axis_response(1, 0.07, 0.5, 2.1e9), [1.0])

    def test_half_wavelength_phase_step(self):
        lam = 3e8 / 2.1e9
        v = axis_response(12, lam / 2, 0.5, 2.1e9)
        # spacing u = lambda/4 -> successive phase -pi/2
        steps = v[1:] / v[:-1]
        assert np.allclose(steps, np.exp(-1j * np.pi / 2), atol=1e-12)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)


class TestUpaResponse:
    def test_broadside(self):
        # theta_x = theta_y = pi/2 zeroes both spatial angles
        link = UserLink(np.pi / 2, np.pi / 2, REFERENCE_GAMMA, 1.0, 1e6)
        v = upa_response(REFERENCE_ARRAY, link)
        assert np.allclose(v, np.full(144, 1 / 12.0), atol=1e-9)

    def test_two_by_two_hand_expansion(self):
        arr = ArrayGeometry(2, 2, 0.07, 0.07, 2.1e9)
        link = make_link(30.0, 50.0)
        vx = axis_response(2, 0.07, link.u_x, 2.1e9)
        vy = axis_response(2, 0.07, link.u_y, 2.1e9)
        expected = np.array(
            [vx[0] * vy[0], vx[0] * vy[1], vx[1] * vy[0], vx[1] * vy[1]]
        )
        assert np.allclose(upa_response(arr, link), expected, atol=1e-14)

    def test_axis_order_swap_preserves_gram(self):
        links = [make_link(-20.0, 30.0), make_link(25.0, 55.0), make_link(50.0, 40.0)]
        v_xy = [upa_response(REFERENCE_ARRAY, u) for u in links]
        v_yx = [
            np.kron(
                axis_response(12, REFERENCE_ARRAY.spacing_y, u.u_y, 2.1e9),
                axis_response(12, REFERENCE_ARRAY.spacing_x, u.u_x, 2.1e9),
            )
            for u in links
        ]
        gram_a = np.array([[np.vdot(a, b) for b in v_xy] for a in v_xy])
        gram_b = np.array([[np.vdot(a, b) for b in v_yx] for a in v_yx])
        assert np.allclose(gram_a, gram_b, atol=1e-12)

    def test_unit_norm_over_random_draws(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            link = make_link(float(rng.uniform(-60, 60)), float(rng.uniform(20, 70)))
            assert abs(np.linalg.norm(upa_response(REFERENCE_ARRAY, link)) - 1.0) < 1e-12

    def test_spatial_angle_convention(self):
        ux, uy = spatial_angles(np.radians(30.0), np.radians(50.0))
        assert ux == pytest.approx(np.sin(np.radians(50)) * np.cos(np.radians(30)))
        assert uy == pytest.approx(np.cos(np.radians(50)))


class TestMeanChannelPower:
    def test_reference_link_budget(self):
        got = mean_channel_power(REFERENCE_ARRAY, 3.0, 3.0, 20000.0)
        assert got == pytest.approx(1.8521949369e-10, rel=1e-9)

    def test_isotropic_single_antenna_is_free_space(self):
        arr = ArrayGeometry(1, 1, 0.07, 0.07, 2.1e9)
        fs = (3e8 / (4 * np.pi * 2.1e9 * 20000.0)) ** 2
        assert mean_channel_power(arr, 0.0, 0.0, 20000.0) == pytest.approx(fs, rel=1e-12)

    def test_inverse_square_in_altitude(self):
        near = mean_channel_power(REFERENCE_ARRAY, 3.0, 3.0, 20000.0)
        far = mean_channel_power(REFERENCE_ARRAY, 3.0, 3.0, 40000.0)
        assert far == pytest.approx(near / 4.0, rel=1e-12)

    def test_thermal_floor_default(self):
        # k_B * 290 K * 10 MHz * 7 dB noise figure
        assert thermal_noise_floor(1e7) == pytest.approx(2.0067e-13, rel=1e-4)


class TestSampleRician:
    def test_los_limit_is_deterministic(self):
        g = sample_rician(REFERENCE_GAMMA, 1e14, seed=0)
        assert abs(g) ** 2 == pytest.approx(REFERENCE_GAMMA, rel=1e-6)
        g9 = sample_rician(REFERENCE_GAMMA, 1e9, seed=0)
        assert abs(g9) ** 2 == pytest.approx(REFERENCE_GAMMA, rel=1e-3)

    def test_rayleigh_mean_power(self):
        g = sample_rician(2.5, 0.0, seed=42, size=100_000)
        assert np.mean(np.abs(g) ** 2) == pytest.approx(2.5, rel=0.02)

    def test_reference_rician_factor_mean_power(self):
        g = sample_rician(REFERENCE_GAMMA, KAPPA_12DB, seed=7, size=100_000)
        assert np.mean(np.abs(g) ** 2) == pytest.approx(REFERENCE_GAMMA, rel=0.02)

    def test_independent_generator_cross_check(self):
        # same statistic from a separately coded Rician draw on another bit stream
        kappa, gamma, n = KAPPA_12DB, 1.7, 100_000
        rng = np.random.Generator(np.random.Philox(99))
        los = np.sqrt(gamma * kappa / (kappa + 1))
        scatter = rng.normal(size=n) + 1j * rng.normal(size=n)
        oracle = np.mean(np.abs(los + np.sqrt(gamma / (2 * (kappa + 1))) * scatter) ** 2)
        ours = np.mean(np.abs(sample_rician(gamma, kappa, seed=123, size=n)) ** 2)
        assert ours == pytest.approx(oracle, rel=0.02)

    def test_moment_estimate_of_k_factor(self):
        g = sample_rician(1.0, KAPPA_12DB, seed=5, size=100_000)
        mu = np.mean(g)
        k_hat = abs(mu) ** 2 / np.mean(np.abs(g - mu) ** 2)
        assert k_hat == pytest.approx(KAPPA_12DB, rel=0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_rician(-1.0, 1.0, seed=0)
        with pytest.raises(ValueError):
            sample_rician(1.0, -0.5, seed=0)


class TestInstantaneousSinr:
    def test_single_user_unit_sinr(self):
        link = make_link(10.0, 40.0)
        v = upa_response(REFERENCE_ARRAY, link)
        n0 = 2.2e-11
        g = np.sqrt(REFERENCE_GAMMA)  # pure LOS draw
        p = np.sqrt(n0) / (abs(g))
        sinr = instantaneous_sinr([p * v], v * g, n0)
        assert sinr == pytest.approx(1.0, rel=1e-12)

    def test_zero_forcing_kills_interference(self):
        from hapalloc.q3e import scenario_beamformer

        sc = random_scenario(4, seed=31)
        bf = scenario_beamformer(sc)
        v0 = sc.steering_vectors()[0]
        h = v0 * np.sqrt(sc.users[0].gamma)  # LOS realization
        beams = [bf.w_columns[:, k] for k in (0, 1, 2, 3)]
        signal = abs(np.vdot(beams[0], h)) ** 2
        interference = sum(abs(np.vdot(b, h)) ** 2 for b in beams[1:])
        assert interference < 1e-10 * signal
        sinr = instantaneous_sinr(beams, h, sc.n0_w)
        assert sinr == pytest.approx(signal / sc.n0_w, rel=1e-9)

    def test_matches_naive_reimplementation(self):
        rng = np.random.default_rng(77)
        h = rng.normal(size=8) + 1j * rng.normal(size=8)
        b1 = rng.normal(size=8) + 1j * rng.normal(size=8)
        b2 = rng.normal(size=8) + 1j * rng.normal(size=8)
        n0 = 0.37
        naive_sig = abs(np.sum(np.conj(b1) * h)) ** 2
        naive_int = abs(np.sum(np.conj(b2) * h)) ** 2
        assert instantaneous_sinr([b1, b2], h, n0) == pytest.approx(
            naive_sig / (naive_int + n0), rel=1e-12
        )

    def test_noise_must_be_positive(self):
        with pytest.raises(ValueError):
            instantaneous_sinr([np.ones(2)], np.ones(2), 0.0)


class TestJensenBound:
    def test_surrogate_dominates_ergodic_rate(self):
        from hapalloc.beamforming import RateModel, surrogate_rates

        rng = np.random.default_rng(19)
        for i in range(20):
            link = make_link(float(rng.uniform(-60, 60)), float(rng.uniform(20, 70)))
            v = upa_response(REFERENCE_ARRAY, link)
            p = float(rng.uniform(0.02, 0.5))
            n0 = 2.2e-11
            model = RateModel(1e7, n0, np.array([link.gamma]))
            bound = surrogate_rates([p], model)[0]
            mc, se = ergodic_rate_mc(REFERENCE_ARRAY, link, [p * v], 1e7, n0, draws=4000, seed=100 + i)
            assert mc <= bound + 3.0 * se


class TestScenarioIo:
    def test_round_trip(self, tmp_path):
        doc = {
            "array": {"nx": 4, "ny": 3, "spacing_wavelengths": 0.5, "fc_hz": 2.1e9},
            "users": [
                {"theta_x_deg": 10.0, "theta_y_deg": 40.0, "qos_mbps": 30, "kappa_db": 12.0},
                {"theta_x_deg": -25.0, "theta_y_deg": 60.0, "qos_mbps": 60, "kappa_db": 9.0},
            ],
            "bw_hz": 1e7,
        }
        path = tmp_path / "sc.json"
        path.write_text(json.dumps(doc))
        sc = load_scenario(path)
        assert sc.array.n_t == 12
        assert sc.n_users == 2
        assert sc.users[0].qos_rate == 30e6
        assert sc.n0_w == pytest.approx(thermal_noise_floor(1e7))
        assert sc.users[1].kappa == pytest.approx(10**0.9)

    def test_channel_draw_shape(self):
        link = make_link(5.0, 45.0)
        draw = channel_draw(REFERENCE_ARRAY, link, seed=3)
        assert draw.h.shape == (144,)
        assert np.allclose(draw.h, upa_response(REFERENCE_ARRAY, link) * draw.g)

    def test_bad_config_raises(self):
        with pytest.raises(ConfigError):
            scenario_from_dict({"users": []})

    def test_scenario_validation(self):
        with pytest.raises(ValueError):
            Scenario(array=REFERENCE_ARRAY, users=(), bw_hz=1e7, n0_w=1e-13)
