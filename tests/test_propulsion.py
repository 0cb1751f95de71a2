import numpy as np
import pytest

from hapalloc.config import PlatformGeometry, isa_properties
from hapalloc.propulsion import (
    EfficiencySample,
    SurrogateCoeffs,
    SurrogateFitError,
    SurrogateRangeError,
    aerodynamic_drag,
    fit_inverse_power_surrogate,
    hull_drag_coefficient,
    parse_samples_csv,
    propulsion_power,
    read_samples_csv,
    reference_coeffs,
    reference_samples,
    reynolds,
    surrogate_efficiency,
    write_samples_csv,
)
from propulsion_oracle import propulsion_power_expanded

ATM_20KM = isa_properties(20000.0)


def mp_hull_cdv(eps, re):
    """High-precision oracle for the hull drag coefficient."""
    import mpmath as mp

    mp.mp.dps = 40
    eps, re = mp.mpf(eps), mp.mpf(re)
    num = (
        mp.mpf("0.18") * eps ** (mp.mpf(3) / 10)
        + mp.mpf("0.27") * eps ** (-mp.mpf(6) / 5)
        + mp.mpf("1.08") * eps ** (-mp.mpf(27) / 10)
    )
    return float(num / re ** (mp.mpf(1) / 6))


class TestReynolds:
    def test_reference_point(self):
        # 0.08803 * 10 * 140 / 1.4216e-5, hand-checked
        assert reynolds(ATM_20KM, 10.0, 140.0) == pytest.approx(8.66924592009e6, rel=1e-10)

    def test_linearity_in_airspeed(self):
        assert reynolds(ATM_20KM, 20.0, 140.0) == pytest.approx(
            2.0 * reynolds(ATM_20KM, 10.0, 140.0), rel=1e-14
        )

    def test_unit_airspeed(self):
        assert reynolds(ATM_20KM, 1.0, 140.0) == pytest.approx(8.66924592009e5, rel=1e-10)


class TestHullDragCoefficient:
    def test_high_precision_oracle(self):
        eps = 140.0 / 34.0
        re = reynolds(ATM_20KM, 10.0, 140.0)
        assert hull_drag_coefficient(eps, re) == pytest.approx(mp_hull_cdv(eps, re), rel=1e-13)
        assert hull_drag_coefficient(eps, re) == pytest.approx(0.0243, rel=2e-3)

    def test_unit_inputs(self):
        assert hull_drag_coefficient(1.0, 1.0) == pytest.approx(1.53, rel=1e-14)

    def test_reynolds_sixth_root_scaling(self):
        base = hull_drag_coefficient(4.0, 1e6)
        assert hull_drag_coefficient(4.0, 64.0 * 1e6) == pytest.approx(base / 2.0, rel=1e-13)

    def test_homogeneity_property(self):
        rng = np.random.default_rng(2)
        for k in (2.0, 3.0):
            for _ in range(10):
                eps = float(rng.uniform(1.5, 8.0))
                re = float(rng.uniform(1e5, 1e8))
                assert hull_drag_coefficient(eps, k**6 * re) == pytest.approx(
                    hull_drag_coefficient(eps, re) / k, rel=1e-12
                )


class TestAerodynamicDrag:
    def test_reference_platform_at_10mps(self, platform):
        import mpmath as mp

        mp.mp.dps = 40
        re = reynolds(ATM_20KM, 10.0, 140.0)
        cdv = mp_hull_cdv(140.0 / 34.0, re)
        oracle = 0.5 * 0.08803 * 100.0 * cdv * float(mp.mpf(85000) ** (mp.mpf(2) / 3)) * 1.12
        assert aerodynamic_drag(ATM_20KM, platform, 10.0) == pytest.approx(oracle, rel=1e-12)
        assert aerodynamic_drag(ATM_20KM, platform, 10.0) == pytest.approx(231.6, rel=1e-3)

    def test_vanishes_continuously_at_low_airspeed(self, platform):
        with pytest.raises(ValueError):
            aerodynamic_drag(ATM_20KM, platform, 0.0)
        assert aerodynamic_drag(ATM_20KM, platform, 1e-6) < 1e-9

    def test_tail_correction_proportionality(self, platform):
        plain = PlatformGeometry(140.0, 34.0, 85000.0, 1.0, 0.85)
        ratio = aerodynamic_drag(ATM_20KM, platform, 10.0) / aerodynamic_drag(ATM_20KM, plain, 10.0)
        assert ratio == pytest.approx(1.12, rel=1e-14)


class TestSurrogateEfficiency:
    def test_floor_point(self):
        assert surrogate_efficiency(reference_coeffs(), 1.0) == pytest.approx(0.53, rel=1e-14)

    def test_reference_values(self):
        assert surrogate_efficiency(reference_coeffs(), 25.0) == pytest.approx(
            0.683015242276, rel=1e-11
        )
        assert surrogate_efficiency(reference_coeffs(), 10.0) == pytest.approx(
            0.659037322153, rel=1e-11
        )

    def test_below_fit_range_rejected(self):
        with pytest.raises(SurrogateRangeError):
            surrogate_efficiency(reference_coeffs(), 0.5)

    def test_monotone_increasing(self):
        vals = [surrogate_efficiency(reference_coeffs(), v) for v in np.arange(1.0, 25.1, 0.1)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_coefficient_validation(self):
        with pytest.raises(ValueError):
            SurrogateCoeffs(c=1.2, alpha=0.2, beta=0.45)
        with pytest.raises(ValueError):
            SurrogateCoeffs(c=0.7, alpha=-0.1, beta=0.45)


class TestSurrogateFit:
    def test_exact_recovery_from_noiseless_samples(self):
        v0 = np.arange(1.0, 26.0)
        samples = [EfficiencySample(float(v), 0.73 - 0.2 * float(v) ** -0.45) for v in v0]
        fit = fit_inverse_power_surrogate(samples)
        assert fit.c == pytest.approx(0.73, abs=1e-6)
        assert fit.alpha == pytest.approx(0.2, abs=1e-6)
        assert fit.beta == pytest.approx(0.45, abs=1e-6)
        assert fit.rmse < 1e-9

    def test_noisy_fit_rmse_band(self):
        rng = np.random.default_rng(17)
        v0 = np.arange(1.0, 26.0)
        eta = 0.73 - 0.2 * v0**-0.45 + 2e-3 * rng.standard_normal(25)
        fit = fit_inverse_power_surrogate(
            [EfficiencySample(float(v), float(e)) for v, e in zip(v0, eta)]
        )
        assert 1e-3 <= fit.rmse <= 4e-3

    def test_too_few_samples(self):
        samples = [EfficiencySample(v, 0.6) for v in (1.0, 2.0, 3.0)]
        with pytest.raises(SurrogateFitError):
            fit_inverse_power_surrogate(samples)

    def test_degenerate_airspeeds(self):
        samples = [EfficiencySample(2.0, e) for e in (0.5, 0.55, 0.6, 0.65)]
        with pytest.raises(SurrogateFitError):
            fit_inverse_power_surrogate(samples)

    def test_shipped_reference_set(self):
        samples = reference_samples()
        assert len(samples) == 25
        fit = fit_inverse_power_surrogate(samples)
        assert 1e-3 <= fit.rmse <= 4e-3
        assert fit.beta == pytest.approx(0.45, abs=0.1)


class TestPropulsionPower:
    def test_reference_point_against_high_precision_oracle(self, platform):
        # independent evaluation of the expanded closed form at 40 digits
        import mpmath as mp

        mp.mp.dps = 40
        rho, mu = mp.mpf("0.08803"), mp.mpf("1.4216e-5")
        l, d = mp.mpf(140), mp.mpf(34)
        v0 = mp.mpf(10)
        shape = (
            mp.mpf("0.18") * l ** (mp.mpf(2) / 15) * d ** (-mp.mpf(3) / 10)
            + mp.mpf("0.27") * l ** (-mp.mpf(41) / 30) * d ** (mp.mpf(6) / 5)
            + mp.mpf("1.08") * l ** (-mp.mpf(43) / 15) * d ** (mp.mpf(27) / 10)
        )
        eta = -mp.mpf("0.2") * v0 ** (-mp.mpf(9) / 20) + mp.mpf("0.73")
        oracle = float(
            mp.mpf("0.5") * rho ** (mp.mpf(5) / 6) * v0 ** (mp.mpf(17) / 6)
            * mu ** (mp.mpf(1) / 6) * mp.mpf(85000) ** (mp.mpf(2) / 3)
            * mp.mpf("1.12") / mp.mpf("0.85") * shape / eta
        )
        got = propulsion_power(ATM_20KM, platform, 10.0, reference_coeffs())
        assert got == pytest.approx(oracle, rel=1e-6)
        assert got == pytest.approx(4133.86, rel=1e-4)

    def test_drag_form_and_expanded_form_agree(self):
        rng = np.random.default_rng(23)
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
            assert abs(a - b) / a < 1e-10

    def test_ideal_efficiency_reduces_to_drag_times_speed(self):
        geom = PlatformGeometry(140.0, 34.0, 85000.0, 1.12, 1.0)
        coeffs = SurrogateCoeffs(c=1.0, alpha=1e-12, beta=0.45)
        got = propulsion_power(ATM_20KM, geom, 10.0, coeffs)
        want = aerodynamic_drag(ATM_20KM, geom, 10.0) * 10.0
        assert got == pytest.approx(want, rel=1e-9)

    def test_strictly_increasing_over_fit_range(self, platform):
        grid = np.arange(1.0, 25.05, 0.1)
        powers = [propulsion_power(ATM_20KM, platform, float(v), reference_coeffs()) for v in grid]
        assert all(b > a for a, b in zip(powers, powers[1:]))

    def test_superlinear_growth(self, platform):
        p10 = propulsion_power(ATM_20KM, platform, 10.0, reference_coeffs())
        p25 = propulsion_power(ATM_20KM, platform, 25.0, reference_coeffs())
        assert p25 / p10 > 2.5**2.5


class TestSampleCsv:
    def test_round_trip(self, tmp_path):
        samples = reference_samples()
        path = tmp_path / "samples.csv"
        write_samples_csv(path, samples)
        back = read_samples_csv(path)
        assert [(s.v0, s.eta_p) for s in back] == [(s.v0, s.eta_p) for s in samples]

    def test_header_enforced(self):
        with pytest.raises(ValueError):
            parse_samples_csv("speed,eff\n1.0,0.5\n")

    def test_sample_validation(self):
        with pytest.raises(ValueError):
            EfficiencySample(v0=-1.0, eta_p=0.5)
        with pytest.raises(ValueError):
            EfficiencySample(v0=1.0, eta_p=1.2)
