import math
from dataclasses import astuple, fields

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
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
)
from hapalloc.config import isa_properties

SPEC = default_test_propeller()
tip_loss = bemt._tip_loss
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
        assert tip_loss(3, np.array([1.5, 3.0]), 3.0, np.array([0.3, 0.3]))[1] == 0.0

    def test_reference_point(self):
        import mpmath as mp

        mp.mp.dps = 40
        arg = -mp.mpf(3) * mp.mpf("1.5") / (2 * mp.mpf("1.5") * mp.sin(mp.mpf("0.3")))
        want = float(2 / mp.pi * mp.acos(mp.e**arg))
        assert tip_loss(3, 1.5, 3.0, 0.3) == pytest.approx(want, rel=1e-13)
        # elementwise on arrays, against the scalar oracle; within about 0.3 m of
        # the tip acos(exp(-eps)) magnifies a last-bit difference in exp by 1/(2 eps)
        r, phi0 = np.meshgrid(np.linspace(0.3, 2.7, 25), np.linspace(0.05, 1.5, 30))
        want = [oracle.tip_loss(3, x, 3.0, p) for x, p in zip(r.ravel().tolist(), phi0.ravel().tolist())]
        np.testing.assert_allclose(tip_loss(3, r, 3.0, phi0).ravel(), want, rtol=OUTPUT_RTOL, atol=0.0)

    def test_many_blade_asymptote(self):
        assert tip_loss(50, 1.5, 3.0, 0.3) > 0.99


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

    @pytest.mark.parametrize("v0, n_s", [(math.nan, 5.0), (10.0, math.nan), (math.inf, 5.0), (10.0, math.inf)])
    def test_non_finite_operating_point_rejected(self, v0, n_s):
        with pytest.raises(ValueError, match="positive and finite"):
            propeller_performance(SPEC, v0, n_s, ATM)

    def test_quadrature_halving_changes_little(self, monkeypatch):
        full = propeller_performance(SPEC, 10.0, 12.0, ATM)
        monkeypatch.setattr(bemt, "N_NODES", 51)
        half = propeller_performance(SPEC, 10.0, 12.0, ATM)
        assert abs(full.thrust - half.thrust) / full.thrust < 1e-3
        assert abs(full.shaft_power - half.shaft_power) / full.shaft_power < 1e-3

    def test_richardson_node_doubling(self, monkeypatch):
        base = propeller_performance(SPEC, 10.0, 12.0, ATM)
        monkeypatch.setattr(bemt, "N_NODES", 201)
        fine = propeller_performance(SPEC, 10.0, 12.0, ATM)
        assert abs(base.thrust - fine.thrust) / base.thrust < 1e-3
        assert abs(base.shaft_power - fine.shaft_power) / base.shaft_power < 1e-3

    def test_independent_quadrature_oracle(self):
        # trapezoid rule at 4x the node count, same tip-clustered substitution
        op = propeller_performance(SPEC, 10.0, 12.0, ATM)
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


def find_roots(f, x1, x2, solver=bemt._find_root):
    """solver (``_find_root`` by default) on f under the solver's floating-point settings: the roots, and the points
    of each step."""
    steps = []

    def fn(x):
        steps.append(x.copy())
        return f(x)

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return solver(fn, x1, f(x1), x2, f(x2)), steps


# One bracket of a lockstep set: (x1, width, x2 below x1, root's place in [0, 1], residual shape, sign, offset,
# far region at inf).  An int width counts ulps of x1.  At place 0.5 the root is the first step's point, so that
# step hits it exactly unless the offset moves the zero.  Near 1e6 adjacent floats are wider than _ROOT_WIDTH, so
# a bracket whose zero is not a float there steps to the 200-step cap.
BRACKET = st.tuples(
    st.one_of(st.floats(-20.0, 20.0), st.floats(1e6 - 1.0, 1e6 + 1.0)),
    st.one_of(st.integers(1, 8), st.floats(1e-12, 3.0)),
    st.booleans(),
    st.one_of(st.just(0.5), st.floats(0.0, 1.0)),
    st.sampled_from(["linear", "tanh", "exp", "cubic"]),
    st.sampled_from([1.0, -1.0]),
    st.sampled_from((0.0,) * 6 + (1e-11, -1e-11)),  # one bracket in four has its zero offset
    st.booleans(),
)
SHAPES = {"linear": lambda z: z, "tanh": np.tanh, "exp": lambda z: np.exp(z) - 1.0, "cubic": lambda z: z * z * z}


def lockstep_set(brackets):
    """(residual, x1, x2) of the drawn brackets whose entry residuals are nonzero and of opposite signs."""
    in_ulps = np.array([isinstance(b[1], int) for b in brackets])
    x1, width, below, place, shape, sign, offset, far_inf = (np.array(col) for col in zip(*brackets))
    step = np.where(in_ulps, width * np.abs(np.spacing(x1)), width)
    x2 = np.where(below, x1 - step, x1 + step)
    root = x1 + place * (x2 - x1)
    cut = root + 0.5 * (x2 - root)  # past it, toward x2, a far-inf bracket's residual is inf of x2's sign
    far = sign * np.copysign(np.inf, x2 - x1)

    def residual(x):
        z = x - root
        value = np.select([shape == name for name in SHAPES], [f(z) for f in SHAPES.values()]) * sign + offset
        return np.where(far_inf & ((x - cut) * (x2 - x1) > 0.0), far, value)

    with np.errstate(over="ignore", invalid="ignore"):
        f1, f2 = residual(x1), residual(x2)
    keep = (f1 != 0.0) & (f2 != 0.0) & ((f1 > 0.0) != (f2 > 0.0))
    if keep.all():
        return residual, x1, x2
    sub = [b for b, k in zip(brackets, keep.tolist()) if k]
    return lockstep_set(sub) if sub else None


class TestFindRoot:
    """The lockstep root-finder against each bracket solved alone."""

    # bracket 0 lands on the exact zero x = 0 on its first step; the others stop on different steps
    TARGETS = np.array([0.0, 2.0, 20.0, 0.5, 7.0])
    X1 = np.array([-1.0, -1.0, -1.0, 0.0, 1.5])
    X2 = np.array([1.0, 3.0, 3.0, 2.0, 2.0])

    def test_lockstep_equals_each_bracket_alone(self):
        together, _ = find_roots(lambda x: x * x * x - self.TARGETS, self.X1, self.X2)
        counts = []
        for i in range(self.TARGETS.size):
            a = self.TARGETS[i:i + 1]
            alone, steps = find_roots(lambda x: x * x * x - a, self.X1[i:i + 1], self.X2[i:i + 1])
            assert alone.tobytes() == together[i:i + 1].tobytes(), i
            counts.append(len(steps))
        assert counts[0] == 1 and together[0] == 0.0
        assert len(set(counts)) >= 3, counts
        np.testing.assert_allclose(together**3, self.TARGETS, rtol=1e-14, atol=0.0)

    def test_stopped_bracket_is_frozen(self):
        together, steps = find_roots(lambda x: x * x * x - self.TARGETS, self.X1, self.X2)
        later = [x[0] for x in steps[1:]]  # bracket 0's points after its exact zero
        assert len(later) > 1 and all(x != 0.0 for x in later)
        assert together[0] == 0.0

    def test_step_cap_returns_the_end_with_the_smaller_residual(self):
        # near 1e6 adjacent floats are 2**-33 ~ 1.2e-10 apart, wider than _ROOT_WIDTH, and
        # (x - 1e6) - c is a multiple of 2**-33 minus c: never exactly zero
        c = np.array([1e-11, 1e-10])
        ulp = np.spacing(1e6)
        roots, steps = find_roots(lambda x: (x - 1e6) - c, np.full(2, 1e6 - 1.0), np.full(2, 1e6 + 1.0))
        assert len(steps) == 200
        assert ulp > bemt._ROOT_WIDTH
        # |f(1e6)| = 1e-11 < |f(1e6 + ulp)| for the first, the other way round for the second
        assert roots.tolist() == [1e6, 1e6 + ulp]

    @given(brackets=st.lists(BRACKET, min_size=1, max_size=40))
    @example(brackets=[(-1.0, 2.0, False, 0.5, "linear", 1.0, 0.0, False)])  # the first step hits the root
    @example(brackets=[(1e6, 2.0, True, 0.25, "linear", -1.0, 1e-11, True)])  # the 200-step cap
    @example(brackets=[(0.3, 3, False, 0.5, "cubic", 1.0, 0.0, True), (2.0, 1.5, True, 0.7, "tanh", -1.0, 0.0, False)])
    @settings(max_examples=300, deadline=None)
    def test_each_step_returns_the_reference_bits(self, brackets):
        # the reference is the step as first written, with each difference computed where it is used
        drawn = lockstep_set(brackets)
        assume(drawn is not None)
        residual, x1, x2 = drawn
        got, got_steps = find_roots(residual, x1, x2)
        want, want_steps = find_roots(residual, x1, x2, solver=oracle._find_root)
        assert got.tobytes() == want.tobytes()
        assert len(got_steps) == len(want_steps)

    @pytest.mark.parametrize("seed", range(4))
    def test_benchmark_grid_is_the_reference_root_finders(self, seed, monkeypatch):
        # the (v0, n_s) points of perfbench's propeller-grid workload at this seed
        rng = np.random.default_rng(seed)
        points = []
        for v0 in (2.0 + 2.0 * i for i in range(8)):
            for j in (0.04 + 0.028 * k for k in range(6)):
                v = v0 + rng.uniform(-0.5, 0.5)
                points.append((v, v / ((j + rng.uniform(-0.004, 0.004)) * 2.0 * TABLE.r_tip)))

        def grid():
            ops = (propeller_performance(TABLE, v0, n_s, ATM) for v0, n_s in points)
            return repr([(op.thrust, op.shaft_power, op.eta_p) for op in ops])

        got = grid()
        monkeypatch.setattr(bemt, "_find_root", oracle._find_root)
        assert got == grid()


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

    @given(
        spec_name=st.sampled_from(sorted(SPECS)),
        v0=st.floats(1.0, 30.0),
        advance=st.floats(0.04, 0.185),
    )
    @settings(max_examples=20, deadline=None)
    def test_stations_in_lockstep_equal_each_station_alone(self, spec_name, v0, advance):
        spec = SPECS[spec_name]
        n_s = v0 / (advance * 2.0 * spec.r_tip)
        radii = np.array(oracle.stations(spec))
        alone = []
        for i in range(radii.size):
            try:
                alone.append(bemt._solve_stations(spec, v0, n_s, radii[i:i + 1]))
            except SectionError as exc:
                alone.append((type(exc), str(exc)))
        try:
            batch = bemt._solve_stations(spec, v0, n_s, radii)
        except SectionError as exc:
            assert (type(exc), str(exc)) == next(a for a in alone if isinstance(a, tuple))
            return
        for f in fields(batch):
            got = getattr(batch, f.name)
            assert got.tobytes() == b"".join(getattr(a, f.name).tobytes() for a in alone), f.name

    @given(
        values=st.integers(2, 100).flatmap(lambda n: st.lists(st.floats(), min_size=2 * n + 1, max_size=2 * n + 1)),
        h=st.floats(1e-3, 1.0),
    )
    @example(values=[-0.0] * 5, h=1.0)  # Python's sum starts from 0, so it returns 0.0 here, not -0.0
    @settings(max_examples=200, deadline=None)
    def test_simpson_adds_as_the_oracle_does(self, values, h):
        with np.errstate(invalid="ignore", over="ignore"):
            got, want = bemt._simpson(np.array(values), h), oracle._simpson(np.array(values), h)
        # which NaN an add of two NaNs returns is up to the compiled loop, so NaN matches any NaN
        assert np.float64(got).tobytes() == np.float64(want).tobytes() or (math.isnan(got) and math.isnan(want))

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
        # radii or angles out of order: np.interp would return undefined values
        for name in ("geometry.csv", "polar.csv"):
            write_spec_dir(d, SPEC)
            rows = (d / name).read_text().splitlines()
            rows[3], rows[4] = rows[4], rows[3]
            (d / name).write_text("\n".join(rows) + "\n")
            with pytest.raises(ValueError, match="strictly increase"):
                load_spec_dir(d)
