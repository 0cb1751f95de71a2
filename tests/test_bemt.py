import math
from dataclasses import astuple, fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bemt_oracle as oracle
from bemt_oracle import axial_induction, default_test_propeller, write_spec_dir
from conftest import CONFIG_DIR
from hapalloc import bemt
from hapalloc.bemt import (
    KP_FLOOR,
    PropellerSpec,
    SectionConvergenceError,
    SectionError,
    load_spec_dir,
    propeller_performance,
    solve_section,
    tip_loss,
)
from hapalloc.config import isa_properties

SPEC = default_test_propeller()
TABLE = load_spec_dir(CONFIG_DIR / "propeller")
SPECS = {"default": SPEC, "table": TABLE}
ATM = isa_properties(20000.0)


def section_residual(spec, state, v0, n_s):
    """Substitute a returned state back into the induction balance."""
    phi = math.atan2(v0 * (1.0 + state.a_a), 2.0 * math.pi * n_s * state.r)
    return abs(axial_induction(state.sigma, phi, state.cl, state.cd, state.k_p) - state.a_a)


class TestTipLoss:
    def test_tip_limit_is_zero(self):
        assert tip_loss(3, 3.0, 3.0, 0.3) == 0.0

    def test_reference_point(self):
        import mpmath as mp

        mp.mp.dps = 40
        arg = -mp.mpf(3) * mp.mpf("1.5") / (2 * mp.mpf("1.5") * mp.sin(mp.mpf("0.3")))
        oracle = float(2 / mp.pi * mp.acos(mp.e**arg))
        assert tip_loss(3, 1.5, 3.0, 0.3) == pytest.approx(oracle, rel=1e-13)

    def test_many_blade_asymptote(self):
        assert tip_loss(50, 1.5, 3.0, 0.3) > 0.99

    def test_input_validation(self):
        with pytest.raises(ValueError):
            tip_loss(3, 0.0, 3.0, 0.3)
        with pytest.raises(ValueError):
            tip_loss(3, 1.0, 3.0, 2.0)


class TestAxialInduction:
    def test_bracket_equals_two_gives_unity(self):
        # arrange sigma * force = 2 k_p sin^2(phi)
        phi, k_p, sigma, cd = 0.3, 0.9, 0.1, 0.0
        cl = 2.0 * k_p * math.sin(phi) ** 2 / (sigma * math.cos(phi))
        assert axial_induction(sigma, phi, cl, cd, k_p) == pytest.approx(1.0, rel=1e-14)

    def test_reference_point(self):
        got = axial_induction(0.1, 0.25, 0.8, 0.02, 0.95)
        assert got == pytest.approx(0.49505519691, rel=1e-10)

    def test_non_propulsive_rejected(self):
        phi = 0.4
        cd = 1.0
        cl = cd * math.tan(phi)  # force exactly zero
        with pytest.raises(SectionError):
            axial_induction(0.1, phi, cl, cd, 0.9)


class TestSolveSection:
    def test_mid_blade_reference_case(self):
        st = solve_section(SPEC, 10.0, 5.0, 0.7 * 3.0)
        assert 0.0 < st.a_a < 0.5
        assert section_residual(SPEC, st, 10.0, 5.0) < 1e-6

    def test_matches_independent_bisection(self):
        v0, n_s, r = 10.0, 5.0, 2.1
        st = solve_section(SPEC, v0, n_s, r)
        # oracle: bisect the scalar residual a - a_alg(phi(a)) on a bracket
        theta = SPEC.pitch_fn(r)
        sigma = SPEC.n_blades * SPEC.chord_fn(r) / (2 * math.pi * r)
        phi0 = math.atan2(v0, 2 * math.pi * n_s * r)
        k_p = tip_loss(SPEC.n_blades, r, SPEC.r_tip, phi0)

        def resid(a):
            phi = math.atan2(v0 * (1 + a), 2 * math.pi * n_s * r)
            cl, cd = SPEC.polar(theta - phi)
            return a - axial_induction(sigma, phi, cl, cd, k_p)

        lo, hi = 0.2, 0.6
        assert resid(lo) < 0 < resid(hi)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if resid(mid) < 0:
                lo = mid
            else:
                hi = mid
        assert st.a_a == pytest.approx(0.5 * (lo + hi), abs=1e-5)

    def test_residual_small_across_span_and_operating_points(self):
        for v0, n_s in ((5.0, 12.0), (10.0, 12.0), (15.0, 12.0), (10.0, 5.0)):
            for r in np.linspace(SPEC.r_hub, SPEC.r_tip, 60):
                if v0 == 10.0 and n_s == 5.0 and r < 0.45:
                    continue  # root leaves the propulsive regime at this advance ratio
                st = solve_section(SPEC, v0, n_s, float(r))
                if st.k_p < KP_FLOOR:
                    continue
                assert section_residual(SPEC, st, v0, n_s) < 1e-6

    def test_tip_returns_unloaded_boundary_state(self):
        st = solve_section(SPEC, 10.0, 5.0, SPEC.r_tip)
        assert st.k_p == 0.0
        assert st.a_a == 0.0

    def test_near_tip_sections_converge(self):
        for r in (2.97, 2.999, 2.99999):
            st = solve_section(SPEC, 10.0, 5.0, r)
            assert section_residual(SPEC, st, 10.0, 5.0) < 1e-6

    def test_non_propulsive_root_raises(self):
        # at this advance ratio the root twist sits below the inflow angle
        with pytest.raises(SectionError):
            solve_section(SPEC, 10.0, 5.0, 0.31)

    def test_out_of_span_rejected(self):
        with pytest.raises(ValueError):
            solve_section(SPEC, 10.0, 5.0, 3.5)


class TestPropellerPerformance:
    def test_efficiency_is_thrust_speed_over_power(self):
        op = propeller_performance(SPEC, 10.0, 12.0, ATM)
        assert op.eta_p == pytest.approx(op.thrust * op.v0 / op.shaft_power, rel=1e-14)
        assert 0.0 < op.eta_p < 1.0

    def test_quadrature_halving_changes_little(self):
        full = propeller_performance(SPEC, 10.0, 12.0, ATM, n_nodes=101)
        half = propeller_performance(SPEC, 10.0, 12.0, ATM, n_nodes=51)
        assert abs(full.thrust - half.thrust) / full.thrust < 1e-3
        assert abs(full.shaft_power - half.shaft_power) / full.shaft_power < 1e-3

    def test_richardson_node_doubling(self):
        base = propeller_performance(SPEC, 10.0, 12.0, ATM, n_nodes=101)
        fine = propeller_performance(SPEC, 10.0, 12.0, ATM, n_nodes=201)
        assert abs(base.thrust - fine.thrust) / base.thrust < 1e-3
        assert abs(base.shaft_power - fine.shaft_power) / base.shaft_power < 1e-3

    def test_independent_quadrature_oracle(self):
        # trapezoid rule at 4x the node count, same tip-clustered substitution
        op = propeller_performance(SPEC, 10.0, 12.0, ATM, n_nodes=101)
        span = SPEC.r_tip - SPEC.r_hub
        u = np.linspace(0.0, 1.0, 405)
        ft, fp = [], []
        for ui in u:
            r = min(max(SPEC.r_tip - span * ui * ui, SPEC.r_hub), SPEC.r_tip)
            st = solve_section(SPEC, 10.0, 12.0, float(r))
            if st.k_p < KP_FLOOR:
                ft.append(0.0)
                fp.append(0.0)
                continue
            common = SPEC.chord_fn(r) * (1 + st.a_a) ** 2 / math.sin(st.phi) ** 2
            jac = 2.0 * span * ui
            ft.append((st.cl * math.cos(st.phi) - st.cd * math.sin(st.phi)) * common * jac)
            fp.append((st.cl * math.sin(st.phi) + st.cd * math.cos(st.phi)) * common * st.r * jac)
        thrust = 0.5 * ATM.rho * 100.0 * 3 * np.trapezoid(ft, u)
        power = math.pi * 12.0 * ATM.rho * 100.0 * 3 * np.trapezoid(fp, u)
        assert op.thrust == pytest.approx(thrust, rel=1e-4)
        assert op.shaft_power == pytest.approx(power, rel=1e-4)

    def test_drag_lowers_efficiency(self):
        def polar_with_cd(cd_const):
            def polar(a):
                return 2.0 * np.pi * np.sin(a) * np.cos(a), np.full_like(a, cd_const)
            return polar

        clean = PropellerSpec(3, SPEC.r_hub, SPEC.r_tip, SPEC.chord_fn, SPEC.pitch_fn, polar_with_cd(0.0))
        draggy = PropellerSpec(3, SPEC.r_hub, SPEC.r_tip, SPEC.chord_fn, SPEC.pitch_fn, polar_with_cd(0.02))
        eta_clean = propeller_performance(clean, 10.0, 12.0, ATM).eta_p
        eta_draggy = propeller_performance(draggy, 10.0, 12.0, ATM).eta_p
        assert eta_clean > eta_draggy

    def test_efficiency_rises_then_flattens(self):
        etas = [propeller_performance(SPEC, v, 12.0, ATM).eta_p for v in (5.0, 10.0, 15.0)]
        assert etas[0] < etas[1] < etas[2]
        assert etas[2] - etas[1] < etas[1] - etas[0]  # growth slows toward the plateau

    def test_thrust_falls_as_advance_ratio_rises(self):
        thrusts = [propeller_performance(SPEC, v, 12.0, ATM).thrust for v in (5.0, 10.0, 15.0)]
        assert thrusts[0] > thrusts[1] > thrusts[2]

    def test_section_loading_collapses_toward_windmill(self):
        loads = []
        for v0 in (16.0, 19.0, 22.0):
            st = solve_section(SPEC, v0, 5.0, 0.85 * 3.0)
            loads.append(
                (st.cl * math.cos(st.phi) - st.cd * math.sin(st.phi))
                * (1 + st.a_a) ** 2 / math.sin(st.phi) ** 2
            )
        assert loads[0] > loads[1] > loads[2] > 0.0

    def test_even_node_count_rejected(self):
        with pytest.raises(ValueError):
            propeller_performance(SPEC, 10.0, 12.0, ATM, n_nodes=100)

    def test_section_errors_propagate(self):
        with pytest.raises(SectionError):
            propeller_performance(SPEC, 10.0, 5.0, ATM)


# The array solver finds phi* with Chandrupatla's method and the oracle bisects;
# both stop inside a bracket narrower than 1e-15 around the same sign change,
# so their roots agree to within two such widths (4e-15 leaves a margin for
# rounding in the residual).  What is computed from phi* then agrees to 1e-13
# relative; everything else (errors, unloaded tips) is compared bit for bit.
PHI_ATOL = 4e-15
OUTPUT_RTOL = 1e-13


def outcome(solver, spec, v0, n_s):
    """(None, (T, P, eta)) or (error type, message)."""
    try:
        op = solver(spec, v0, n_s, ATM)
    except SectionError as exc:
        return type(exc), str(exc)
    return None, (op.thrust, op.shaft_power, op.eta_p)


def assert_same_outcome(got, want):
    """The same error class and message, or T, P and eta within OUTPUT_RTOL of the oracle's."""
    if got[0] is None and want[0] is None:
        assert got[1] == pytest.approx(want[1], rel=OUTPUT_RTOL, abs=0.0)
    else:
        assert got == want


def assert_roots_change_sign(spec, v0, n_s):
    """At every loaded station the residual is 0 at phi*, or changes sign across [phi* - 1e-15, phi* + 1e-15]."""
    radii = oracle.stations(spec)
    batch = bemt._solve_stations(spec, v0, n_s, np.array(radii))
    rooted = np.flatnonzero(batch.k_p >= KP_FLOOR).tolist()
    assert len(rooted) > len(radii) // 2
    for i in rooted:
        phi, r = float(batch.phi[i]), radii[i]
        below, at, above = (oracle.inflow_residual(spec, v0, n_s, r, x) for x in (phi - 1e-15, phi, phi + 1e-15))
        assert at == 0.0 or below > 0.0 > above, (r, below, at, above)


class TestArraySolverMatchesScalarOracle:
    """The lockstep array solver against the per-station scalar solver in tests/bemt_oracle.py."""

    @pytest.mark.parametrize("spec_name", sorted(SPECS))
    @pytest.mark.parametrize("v0, n_s", [(15.0, 12.0), (10.0, 12.0), (4.0, 9.0), (22.0, 25.0)])
    def test_operating_point_is_bit_identical(self, spec_name, v0, n_s):
        spec = SPECS[spec_name]
        got = outcome(propeller_performance, spec, v0, n_s)
        assert_same_outcome(got, outcome(oracle.propeller_performance, spec, v0, n_s))
        assert got[0] is None

    @pytest.mark.parametrize("spec_name", sorted(SPECS))
    def test_stations_are_bit_identical_on_both_paths(self, spec_name):
        spec = SPECS[spec_name]
        v0, n_s = 15.0, 12.0
        radii = oracle.stations(spec)
        want = [oracle.solve_section(spec, v0, n_s, r) for r in radii]
        batch = bemt._solve_stations(spec, v0, n_s, np.array(radii))
        # the one-station path is the batch path bit for bit
        assert repr([astuple(solve_section(spec, v0, n_s, r)) for r in radii]) == repr(
            list(zip(*(getattr(batch, f.name).tolist() for f in fields(batch))))
        )
        rooted = [i for i, w in enumerate(want) if w.k_p >= KP_FLOOR]
        unloaded = [i for i in range(len(radii)) if i not in rooted]
        for f in fields(batch):
            got = getattr(batch, f.name)
            assert repr(got[unloaded].tolist()) == repr([getattr(want[i], f.name) for i in unloaded]), f.name
            ref = np.array([getattr(want[i], f.name) for i in rooted])
            if f.name in ("phi", "alpha"):
                np.testing.assert_allclose(got[rooted], ref, rtol=0.0, atol=PHI_ATOL, err_msg=f.name)
            else:
                np.testing.assert_allclose(got[rooted], ref, rtol=OUTPUT_RTOL, atol=0.0, err_msg=f.name)

    @pytest.mark.parametrize("spec_name", sorted(SPECS))
    @pytest.mark.parametrize("v0, n_s", [(15.0, 12.0), (4.0, 9.0), (22.0, 25.0)])
    def test_root_is_certified_by_a_sign_change(self, spec_name, v0, n_s):
        assert_roots_change_sign(SPECS[spec_name], v0, n_s)

    @given(
        spec_name=st.sampled_from(sorted(SPECS)),
        v0=st.floats(1.0, 30.0),
        advance=st.floats(0.02, 0.18),
    )
    @settings(max_examples=15, deadline=None)
    def test_root_is_certified_by_a_sign_change_anywhere(self, spec_name, v0, advance):
        spec = SPECS[spec_name]
        assert_roots_change_sign(spec, v0, v0 / (advance * 2.0 * spec.r_tip))

    @pytest.mark.parametrize("spec_name", sorted(SPECS))
    def test_infeasible_point_raises_the_same_error(self, spec_name):
        spec = SPECS[spec_name]
        got = outcome(propeller_performance, spec, 40.0, 1.0)
        assert got == outcome(oracle.propeller_performance, spec, 40.0, 1.0)
        assert got == (SectionError, "non-propulsive section at zero induction (r = 2.9997 m)")

    def test_non_convergent_point_raises_the_same_error(self):
        def flat_polar(a):  # lift without drag: the section force never reaches zero
            return np.ones_like(a), np.zeros_like(a)

        spec = PropellerSpec(3, SPEC.r_hub, SPEC.r_tip, SPEC.chord_fn, SPEC.pitch_fn, flat_polar)
        got = outcome(propeller_performance, spec, 10.0, 12.0)
        assert got == outcome(oracle.propeller_performance, spec, 10.0, 12.0)
        assert got[0] is SectionConvergenceError

    def test_square_is_python_power(self):
        # x * x rounds differently from Python's x ** 2 (libm pow) on about 0.1% of inputs
        x = np.random.default_rng(0).uniform(-1.5, 1.5, 20_000)
        assert repr(bemt._sq(x).tolist()) == repr([v**2 for v in x.tolist()])

    @given(
        spec_name=st.sampled_from(sorted(SPECS)),
        v0=st.floats(1.0, 30.0),
        advance=st.floats(0.02, 0.18),
    )
    @settings(max_examples=15, deadline=None)
    def test_propulsive_region_is_bit_identical(self, spec_name, v0, advance):
        spec = SPECS[spec_name]
        n_s = v0 / (advance * 2.0 * spec.r_tip)
        assert_same_outcome(outcome(propeller_performance, spec, v0, n_s),
                            outcome(oracle.propeller_performance, spec, v0, n_s))


class TestSpecDirIo:
    def test_round_trip_matches_analytic_spec(self, tmp_path):
        write_spec_dir(tmp_path / "prop", SPEC)
        loaded = load_spec_dir(tmp_path / "prop")
        a = propeller_performance(SPEC, 10.0, 12.0, ATM)
        b = propeller_performance(loaded, 10.0, 12.0, ATM)
        assert b.thrust == pytest.approx(a.thrust, rel=2e-3)
        assert b.eta_p == pytest.approx(a.eta_p, rel=2e-3)

    def test_bad_header_rejected(self, tmp_path):
        d = tmp_path / "prop"
        write_spec_dir(d, SPEC)
        (d / "polar.csv").write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            load_spec_dir(d)
