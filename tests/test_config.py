import numpy as np
import pytest

from conftest import total_comm_power
from hapalloc.config import (
    Atmosphere,
    BudgetInfeasibleError,
    PlatformGeometry,
    PowerLedger,
    isa_properties,
    rf_budget,
    static_comm_power,
)


class TestIsaProperties:
    def test_stratospheric_row_is_pinned(self):
        atm = isa_properties(20000.0)
        assert atm.rho == 0.08803
        assert atm.mu == 1.4216e-5

    def test_sea_level_matches_published_table(self):
        # oracle: published 1976 standard-atmosphere sea-level density
        assert isa_properties(0.0).rho == pytest.approx(1.225, rel=1e-12)

    def test_interpolation_between_rows(self):
        lo, mid, hi = isa_properties(20000.0), isa_properties(20500.0), isa_properties(21000.0)
        assert hi.rho < mid.rho < lo.rho

    def test_density_monotone_decreasing(self):
        rhos = [isa_properties(h).rho for h in np.arange(0.0, 32001.0, 250.0)]
        assert all(b < a for a, b in zip(rhos, rhos[1:]))

    @pytest.mark.parametrize("alt", [-1.0, 32001.0, 1e6])
    def test_out_of_range_rejected(self, alt):
        with pytest.raises(ValueError):
            isa_properties(alt)

    def test_atmosphere_invariants(self):
        with pytest.raises(ValueError):
            Atmosphere(altitude_m=1000.0, rho=-1.0, mu=1e-5)
        with pytest.raises(ValueError):
            Atmosphere(altitude_m=40000.0, rho=1.0, mu=1e-5)


class TestPowerLedger:
    def test_static_comm_power_hand_arithmetic(self, ledger):
        # 144 * 0.338 + 0.005 + 0.2
        assert static_comm_power(ledger) == pytest.approx(48.877, rel=1e-12)

    def test_zero_chain_case(self):
        led = PowerLedger(100, 0, 0, 0.338, 0.005, 0.2, 1.0, 0)
        assert static_comm_power(led) == pytest.approx(0.205)

    def test_single_chain(self):
        led = PowerLedger(100, 0, 0, 1.0, 0.0, 0.0, 1.0, 1)
        assert static_comm_power(led) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            PowerLedger(100, -1, 0, 0, 0, 0, 1.0, 1)
        with pytest.raises(ValueError):
            PowerLedger(100, 0, 0, 0, 0, 0, 0.5, 1)


class TestRfBudget:
    def test_reference_numbers(self):
        led = PowerLedger(5000.0, 100.0, 100.0, 0.338, 0.005, 0.2, 2.0, 144)
        # (5000 - 4134.6 - 100 - 100 - 48.877) / 2
        assert rf_budget(led, 4134.6) == pytest.approx(308.2615, rel=1e-12)

    def test_zero_numerator_boundary(self):
        led = PowerLedger(100.0, 10.0, 10.0, 0.0, 0.0, 0.0, 2.0, 0)
        assert rf_budget(led, 80.0) == 0.0

    def test_infeasible_reports_deficit(self):
        led = PowerLedger(100.0, 10.0, 10.0, 0.0, 0.0, 0.0, 2.0, 0)
        with pytest.raises(BudgetInfeasibleError) as err:
            rf_budget(led, 95.0)
        assert err.value.deficit_w == pytest.approx(15.0)

    def test_affine_decreasing_in_propulsion_power(self):
        rng = np.random.default_rng(11)
        for _ in range(3):
            led = PowerLedger(
                p_hap=float(rng.uniform(5000, 20000)),
                p_payload=float(rng.uniform(0, 200)),
                p_standby=float(rng.uniform(0, 200)),
                p_rfc=0.338, p_lo=0.005, p_bb=0.2,
                xi=float(rng.uniform(1.0, 4.0)), n_t=int(rng.integers(1, 200)),
            )
            p0, p1 = 100.0, 900.0
            slope = (rf_budget(led, p1) - rf_budget(led, p0)) / (p1 - p0)
            assert slope == pytest.approx(-1.0 / led.xi, rel=1e-9)


class TestTotalCommPower:
    def test_zero_coefficients_leave_static_term(self, ledger):
        p = np.zeros(9)
        assert total_comm_power(p, np.ones(9), ledger) == static_comm_power(ledger)

    def test_unit_case(self):
        led = PowerLedger(100, 0, 0, 0.0, 0.0, 0.0, 2.0, 0)
        assert total_comm_power([1.0, 1.0], [1.0, 1.0], led) == pytest.approx(4.0)

    def test_quadratic_scaling_is_exact(self, ledger):
        rng = np.random.default_rng(3)
        p = rng.uniform(0.1, 2.0, 6)
        c = rng.uniform(0.9, 1.5, 6)
        # power-of-two coefficient scaling is exact once the static term is out
        no_static = PowerLedger(ledger.p_hap, 0, 0, 0, 0, 0, ledger.xi, 0)
        assert total_comm_power(2.0 * p, c, no_static) == 4.0 * total_comm_power(p, c, no_static)
        base = total_comm_power(p, c, ledger) - static_comm_power(ledger)
        scaled = total_comm_power(2.0 * p, c, ledger) - static_comm_power(ledger)
        assert scaled == pytest.approx(4.0 * base, rel=1e-12)

    def test_length_mismatch_rejected(self, ledger):
        with pytest.raises(ValueError):
            total_comm_power([1.0], [1.0, 2.0], ledger)


class TestConfigLoading:
    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            PlatformGeometry(34.0, 140.0, 85000.0, 1.12, 0.85)
