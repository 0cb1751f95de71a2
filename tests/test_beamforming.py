import math

import numpy as np
import pytest

from conftest import random_scenario, reference_ledger
from hapalloc.beamforming import (
    ConditioningError,
    RateModel,
    min_power_coefficients,
    surrogate_rates,
    zf_beamformer,
)
from hapalloc.config import PowerLedger, static_comm_power
from hapalloc.q3e import _solution_from

MODEL = RateModel(bw_hz=1e7, n0_w=2.01e-13, gammas=np.array([1.852e-10]))
NO_STATIC = PowerLedger(p_hap=1e3, p_payload=0.0, p_standby=0.0, p_rfc=0.0, p_lo=0.0, p_bb=0.0, xi=1.0, n_t=0)


class TestZfBeamformer:
    def test_orthonormal_steering_is_identity(self):
        v = [np.eye(6)[:, k].astype(complex) for k in range(3)]
        bf = zf_beamformer(v)
        assert np.allclose(bf.w_columns, np.column_stack(v))
        assert np.allclose(bf.w_norms_sq, 1.0)

    def test_correlated_pair_norm(self):
        v1 = np.zeros(4, dtype=complex)
        v1[0] = 1.0
        v2 = np.zeros(4, dtype=complex)
        v2[0], v2[1] = 0.5, np.sqrt(0.75)
        bf = zf_beamformer([v1, v2])
        assert bf.w_norms_sq[0] == pytest.approx(4.0 / 3.0, abs=1e-9)
        assert bf.w_norms_sq[1] == pytest.approx(4.0 / 3.0, abs=1e-9)

    def test_duplicate_steering_rejected(self):
        v = np.ones(4, dtype=complex) / 2.0
        with pytest.raises(ConditioningError):
            zf_beamformer([v, v])

    def test_decoupling_on_random_scenarios(self):
        for seed in range(10):
            sc = random_scenario(5, seed=seed)
            v = np.column_stack(sc.steering_vectors())
            bf = zf_beamformer(sc.steering_vectors())
            err = np.abs(v.conj().T @ bf.w_columns - np.eye(5)).max()
            assert err < 1e-9

    def test_cross_terms_vanish_for_any_coefficients(self):
        sc = random_scenario(4, seed=44)
        v = sc.steering_vectors()
        bf = zf_beamformer(v)
        rng = np.random.default_rng(1)
        p = rng.uniform(0.1, 3.0, 4)
        for j in range(4):
            for k in range(4):
                if j == k:
                    continue
                cross = abs(np.vdot(v[j], p[k] * bf.w_columns[:, k])) ** 2
                assert cross < 1e-18 * max(p[k] ** 2, 1.0)

    def test_too_many_users_rejected(self):
        # more users than antennas leave the Gram matrix rank-deficient: its condition check rejects it
        v = [np.eye(2)[:, 0].astype(complex), np.eye(2)[:, 1].astype(complex)]
        with pytest.raises(ConditioningError, match="outnumber array elements"):
            zf_beamformer(v + [np.ones(2, dtype=complex) / np.sqrt(2)])
        with pytest.raises(ConditioningError):  # one antenna: the condition number is inf
            zf_beamformer([np.ones(1, dtype=complex), np.ones(1, dtype=complex)])


class TestSurrogateRate:
    def test_zero_power(self):
        assert surrogate_rates([0.0], MODEL)[0] == 0.0

    def test_seven_snr_is_three_bits(self):
        p = np.sqrt(7.0 * MODEL.n0_w / 1.852e-10)
        assert surrogate_rates([p], MODEL)[0] == pytest.approx(30e6, rel=1e-12)

    def test_reference_value(self):
        assert surrogate_rates([0.1], MODEL)[0] == pytest.approx(33524662.2093, rel=1e-9)

    def test_strictly_increasing(self):
        rates = surrogate_rates(np.linspace(0.0, 1.0, 50), MODEL)
        assert np.all(np.diff(rates) > 0)


class TestMinPowerCoefficient:
    def test_zero_target(self):
        assert min_power_coefficients([0.0], MODEL)[0] == 0.0

    def test_reference_value(self):
        got = min_power_coefficients([30e6], MODEL)[0]
        assert got == pytest.approx(0.087161873687, rel=1e-9)

    def test_round_trip_through_rate(self):
        rng = np.random.default_rng(6)
        qos = rng.uniform(1e6, 1.2e8, 100)
        model = RateModel(MODEL.bw_hz, MODEL.n0_w, rng.uniform(1e-11, 1e-9, 100))
        p = min_power_coefficients(qos, model)
        assert surrogate_rates(p, model) == pytest.approx(qos, rel=1e-9)

    def test_gamma_scaling(self):
        base = min_power_coefficients([30e6], MODEL)[0]
        doubled = RateModel(MODEL.bw_hz, MODEL.n0_w, np.array([2 * 1.852e-10]))
        assert min_power_coefficients([30e6], doubled)[0] == pytest.approx(base / np.sqrt(2.0), rel=1e-12)

    def test_monotone_in_target(self):
        ps = min_power_coefficients(np.linspace(0.0, 9e7, 40), MODEL)
        assert np.all(np.diff(ps) > 0)

    def test_vectorized_variant_agrees(self):
        # against the closed form sqrt(N_0 (2^(r/B) - 1) / gamma), one user at a time
        model = RateModel(1e7, 2.01e-13, np.array([1.852e-10, 3.7e-10]))
        got = min_power_coefficients(np.array([30e6, 60e6]), model)
        want = [math.sqrt(2.01e-13 * (2.0 ** (q / 1e7) - 1.0) / g) for q, g in ((30e6, 1.852e-10), (60e6, 3.7e-10))]
        assert np.allclose(got, want, rtol=1e-14)


class TestEnergyEfficiency:
    """EE as every solution record computes it: sum rate over communication power, bps/W."""

    def _ee(self, rates, rf_w, ledger=NO_STATIC):
        rates = np.asarray(rates, dtype=float)
        return _solution_from(np.zeros(rates.size), rates, rf_w, ledger, (), "test", {}).ee

    def test_zero_rates(self):
        assert self._ee(np.zeros(4), 100.0) == 0.0

    def test_reference_order_of_magnitude(self):
        # 300 Mbps over 100 W -> 3 Mbps/W
        assert self._ee([1e8, 1e8, 1e8], 100.0) == pytest.approx(3e6)

    def test_linearity(self):
        rates = np.array([1e7, 3e7])
        assert self._ee(2 * rates, 50.0) == pytest.approx(2 * self._ee(rates, 50.0))

    def test_zero_comm_power_gives_zero_ee(self):
        assert self._ee(np.ones(2), 0.0) == 0.0
        # static circuit power alone keeps the denominator positive
        assert self._ee([1e8], 0.0, reference_ledger()) == pytest.approx(1e8 / static_comm_power(reference_ledger()))


class TestRateModelValidation:
    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            RateModel(0.0, 1e-13, np.array([1e-10]))
        with pytest.raises(ValueError):
            RateModel(1e7, 1e-13, np.array([-1e-10]))

    def test_vector_rates(self):
        model = RateModel(1e7, 2.01e-13, np.array([1.852e-10, 1.852e-10]))
        got = surrogate_rates(np.array([0.1, 0.0]), model)
        assert got[0] == pytest.approx(33524662.2093, rel=1e-9)
        assert got[1] == 0.0
