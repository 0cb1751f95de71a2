"""Lexicographic QoS-then-energy-efficiency power allocation under zero forcing.

Stage 1 maximizes the number of QoS-satisfied users: per-user minimum RF
costs ||p_min,k w_k||^2 are additive, so the longest cheapest-first prefix
whose spend fits the budget is an optimal satisfied set.  Stage 2 maximizes
energy efficiency on the resulting feasible face: over all coefficients when
every user fits (full satisfaction), or over the leftover users and leftover
budget when not (satisfied users stay pinned at their minimum coefficients
and their spend still counts in the communication power).

``stage2_problem`` runs stage 1 and builds the stage-2 ``PowerProblem``;
every solver, baseline and the ablation start from it, and ``_solution_from``
records any coefficient vector on it as a ``Q3eSolution``.  User k is
satisfied when p_k >= p_min,k: all but the max-sum-rate baseline report
stage 1's set, whose users sit pinned or floored at p_min.  The stage-2
arithmetic of both backends is written here once, on ``beamforming``'s rates
and their derivatives.  The numeric backend is projected gradient ascent on
the free-user EE (``PowerProblem.objective``, its ``gradient`` and the
projector ``project``).  ``PowerProblem`` is also the one place that knows
the floored water-fill on the face in spend units (``spend_terms``,
``breakpoints``): the level that spends the budget (``fill_height``), the
spends above the floors at a level (``above_floors``), the coefficients
there (``coefficients_at``) and their EE and its derivative in the level
(``level_ee``, on ``spend_ee``).  The neural backend (``neuro``) trains on
it, one water level per instance; the EE ceiling and the max-sum-rate
baseline take the fill at ``fill_height``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import neuro
from .beamforming import (
    RateModel,
    ZfBeamformer,
    min_power_coefficients,
    rate_slopes,
    surrogate_rates,
    zf_beamformer,
)
from .channel import Scenario
from .config import ConfigError, PowerLedger, comm_power


_MAX_ITERS = 5000  # projected-gradient iterations per start
_STEP_TOLERANCE = 1e-9  # stop a start once a step gains less EE than this, relatively
_LN2 = math.log(2.0)
_CEILING_MARGIN = 1e-12  # ``ee_ceiling``'s relative widening: the rounding of the EE as training computes it


@dataclass(frozen=True)
class FeasibilityPartition:
    """Greedy satisfiable-user prefix and the leftover budget."""

    satisfied_set: tuple[int, ...]  # users in ascending min-cost order, ties by index
    residual_budget: float  # W left after pinning the satisfied set
    full_feasible: bool


@dataclass(frozen=True)
class Q3eSolution:
    """Allocated coefficients with their rates, EE, and solver diagnostics."""

    p: np.ndarray
    q_set: tuple[int, ...]
    rates: np.ndarray  # bps, all users
    ee: float  # bps/W
    p_com: float  # W
    rf_spent: float  # W
    solver_tag: str
    diagnostics: dict = field(default_factory=dict)


@dataclass(frozen=True)
class PowerProblem:
    """One EE-maximization instance on the feasible face stage 1 leaves.

    Built by ``stage2_problem``.  It stores only stage 2's inputs and derives
    the face from them once, in read-only cached attributes.  Communication
    power always counts all spend.
    """

    rate_model: RateModel
    w_norms_sq: np.ndarray
    p_min: np.ndarray
    budget: float  # budget available to the free users, W
    ledger: PowerLedger
    satisfied_set: tuple[int, ...]  # stage 1's QoS-satisfied users, cheapest first
    full_qos: bool  # True: all users free and bounded below by p_min

    @cached_property
    def free(self) -> np.ndarray:  # the optimized users, also the EE numerator's: all, or the unsatisfied ones
        return self.full_qos | ~np.isin(np.arange(self.n_users), self.satisfied_set)

    @cached_property
    def pinned_p(self) -> np.ndarray:  # the pinned users' minimum coefficients, 0 where free
        return np.where(self.free, 0.0, self.p_min)

    @cached_property
    def c_free(self) -> np.ndarray:  # the free users' beam costs
        return self.w_norms_sq[self.free]

    @cached_property
    def floor(self) -> np.ndarray:  # the free users' floors: their minimum coefficients under full QoS, else 0
        return self.p_min if self.full_qos else np.zeros(len(self.c_free))

    @cached_property
    def floor_cost(self) -> float:  # the floors' RF cost
        return float((self.c_free * self.floor * self.floor).sum())

    @property
    def n_users(self) -> int:
        return len(self.w_norms_sq)

    def assemble(self, p_free: np.ndarray) -> np.ndarray:
        p = self.pinned_p.copy()
        p[self.free] = p_free
        return p

    def rf_spent(self, p: np.ndarray) -> float:
        return float((self.w_norms_sq * p * p).sum())

    def shares_face(self, other: PowerProblem) -> bool:
        """Whether ``other`` differs from this problem only in ``budget``: the same stage-1 face (satisfied
        set and regime) of the same beams, rate model, minimum coefficients and ledger."""
        if other is self:
            return True
        m, n = self.rate_model, other.rate_model
        arrays = [(m.gammas, n.gammas), (self.w_norms_sq, other.w_norms_sq), (self.p_min, other.p_min)]
        return (
            (self.full_qos, self.satisfied_set, self.ledger, m.bw_hz, m.n0_w)
            == (other.full_qos, other.satisfied_set, other.ledger, n.bw_hz, n.n0_w)
            and all(np.array_equal(a, b) for a, b in arrays)
        )

    def _ee_terms(self, p: np.ndarray):
        """The free users' rate sum and the communication power at ``p``."""
        numer = surrogate_rates(p, self.rate_model)[self.free].sum()
        return numer, comm_power(self.rf_spent(p), self.ledger)

    def objective(self, p: np.ndarray) -> float:
        """EE restricted to the free users, bps/W; 0 when the communication power is 0."""
        numer, denom = self._ee_terms(p)
        return numer / denom if denom > 0.0 else 0.0

    def gradient(self, p: np.ndarray) -> np.ndarray:
        """The gradient of ``objective`` in ``p``, zero on pinned users."""
        numer, denom = self._ee_terms(p)
        # at zero communication power the EE and its gradient are 0: the quotient rule divides by inf there
        denom = math.inf if denom == 0.0 else denom
        ee = numer / denom if denom > 0.0 else 0.0  # 0, not NaN, at a NaN power
        # the quotient rule as N'/D - (N/D)(D'/D), with D' = 2 xi c p: neither D^2 nor N D' is formed
        grad = rate_slopes(p, self.rate_model) / denom - ee * (self.ledger.xi / denom * 2.0 * (self.w_norms_sq * p))
        grad[~self.free] = 0.0
        return grad

    @cached_property
    def spend_terms(self) -> tuple[np.ndarray, np.ndarray, float]:
        """The face in spend units y_k = c_k p_k^2 of the free users: their noise spends d_k = c_k N_0 / gamma_k
        (user k's rate is B log2(1 + y_k / d_k)), their floors' spends lower_k = c_k floor_k^2, and the pinned
        users' spend."""
        m, c = self.rate_model, self.c_free
        return c * m.n0_w / m.gammas[self.free], c * self.floor * self.floor, self.rf_spent(self.pinned_p)

    @cached_property
    def breakpoints(self) -> tuple[np.ndarray, float]:
        """Each free user's breakpoint lower_k + d_k above the lowest one, b_min, and b_min: at a water level
        b_min + t, the floored water-fill y_k = max(lower_k, b_min + t - d_k) is lower_k + max(0, t - rise_k)."""
        d, lower, _ = self.spend_terms
        breaks = lower + d
        low = breaks.min()
        return breaks - low, float(low)

    @cached_property
    def fill_height(self) -> float:
        """The height above the lowest breakpoint of the water level that spends the budget, in closed form.

        With the rises sorted, the level over the m lowest is (the budget above the floors + their sum) / m,
        and the m whose level exceeds the m-th rise are active.  Measuring from the lowest breakpoint keeps a
        budget far below it from being lost to cancellation.  The height is shrunk by a few ulps per active
        user, and by the floors' rounding, so that the rounded spend stays within the budget; with zero floors
        every step adds or subtracts an exact zero.
        """
        lower_cost = np.sum(self.spend_terms[1])
        rise = np.sort(self.breakpoints[0])
        levels = (self.budget - lower_cost + np.cumsum(rise)) / np.arange(1, len(rise) + 1)
        m = max(1, int(np.count_nonzero(levels > rise)))
        eps = np.finfo(float).eps
        return levels[m - 1] * (1.0 - 8.0 * m * eps) - 8.0 * len(rise) * eps * lower_cost / m

    def above_floors(self, t):
        """The free users' spends above their floors at the water level at height ``t`` above the lowest
        breakpoint: max(0, t - rise_k), one row per entry of an array ``t``."""
        return np.maximum(0.0, np.asarray(t)[..., None] - self.breakpoints[0])

    def coefficients_at(self, t: float) -> np.ndarray:
        """All users' coefficients at the water level at height ``t``: a free user at
        sqrt(floor^2 + its spend above the floor / c), exactly at its floor below the level."""
        return self.assemble(np.sqrt(self.floor * self.floor + self.above_floors(t) / self.c_free))

    def level_ee(self, t: np.ndarray):
        """The free users' spends, the EE (``spend_ee``) and dEE/dt at each height of ``t``, one row per entry:
        dEE/dt = n (B / (ln 2 L) - EE xi) / D over the n users above their floors at the level L = b_min + t.
        At zero communication power the EE and its derivative are 0."""
        rise, low = self.breakpoints
        y = self.spend_terms[1] + self.above_floors(t)
        numer, denom = self.spend_ee(y)
        denom = np.where(denom == 0.0, np.inf, denom)
        ee = numer / denom
        active = np.count_nonzero(t[:, None] > rise, axis=1)
        d_ee = active * (float(self.rate_model.bw_hz) / (_LN2 * (low + t)) - ee * self.ledger.xi) / denom
        return y, ee, d_ee

    def spend_ee(self, y: np.ndarray):
        """The free-user EE's numerator and denominator at free-user spends ``y``, per row of a stack."""
        d, _, pinned = self.spend_terms
        return float(self.rate_model.bw_hz) * np.log1p(y / d).sum(axis=-1) / _LN2, \
            comm_power(pinned + y.sum(axis=-1), self.ledger)

    @cached_property
    def ee_ceiling(self) -> float:
        """An upper bound on the free-user EE at every point of this face, bps/W, as ``objective`` or ``spend_ee``
        rounds it.

        In spend units (``spend_terms``) the free users' rates are concave and
        the communication power D is affine, so Dinkelbach's method reaches the
        optimum EE*.  Its inner problem F(lambda) = max N(y) - lambda D(y) is
        the floored water-fill y_k = max(lower_k, L - d_k) at L = B / (ln 2
        lambda xi) (``above_floors``), or, where that overspends, at the
        budget's level (``fill_height``).  lambda, the EE of a point of the
        face, rises to the EE of each inner solution until it stops rising.
        For lambda <= EE*, every point of the face has EE <= lambda + F(lambda)
        / D_min, where D_min is D at the face's least spend (floors and pinned
        users).  Where the budget binds, F is bounded by Lagrange duality at
        the water-fill's multiplier nu: its value there plus nu times the spend
        the fill leaves short of the budget, which makes up the fill's shrink
        to first order.  The ceiling is that bound widened by
        ``_CEILING_MARGIN`` and by the rates' absolute rounding, or inf when
        D_min is 0.  A budget of inf bounds the unbudgeted face {p >= floor}.
        """
        xi, bw = self.ledger.xi, float(self.rate_model.bw_hz)
        d, lower, pinned = self.spend_terms
        d_min = comm_power(pinned + float(lower.sum()), self.ledger)
        if not d_min > 0.0:
            return math.inf
        if self.budget < math.inf:
            fill = lower + self.above_floors(self.fill_height)
            fill_level = float(np.min(fill + d))  # y + d is the level above a lower bound, at least it elsewhere
            fill_slack = self.budget - float(fill.sum())
            start = lower
        else:
            start = lower + d  # EE > 0 in both regimes

        def numer_denom(y):  # N(y) and D(y), as Python floats
            return tuple(float(x) for x in self.spend_ee(y))

        numer, denom = numer_denom(start)
        lam = numer / denom
        while True:
            level = bw / (_LN2 * lam * xi) if lam > 0.0 else math.inf  # Python floats: no overflow warning
            y, dual = lower + self.above_floors(level - self.breakpoints[1]), 0.0
            if not y.sum() <= self.budget:  # the budget binds: its multiplier nu times the fill's slack
                y, dual = fill, max(bw / (_LN2 * fill_level) - lam * xi, 0.0) * fill_slack
            numer, denom = numer_denom(y)
            gain = numer - lam * denom + dual
            if not numer / denom > lam:
                break
            lam = numer / denom
        # each rate's log2 of hypot(1, x) rounds by up to an ulp of 1 even where x is tiny: an absolute term
        return (lam + max(gain, 0.0) / d_min) * (1.0 + _CEILING_MARGIN) + 4.0 * len(d) * bw * math.ulp(1.0) / d_min

    def project(self, p_free: np.ndarray) -> np.ndarray:
        """All users' coefficients, the free users' ``p_free`` projected onto {p >= floor, spend <= budget}.

        Clamped to ``floor``, then, unless its spend p_0 fits, scaled radially in p^2 onto the budget: each
        square keeps its share (p^2 - floor^2) / (p_0 - p_m) of the spend above the floors' cost p_m, times
        the headroom budget - p_m, whose ratio to p_0 - p_m can be subnormal.  With no headroom, or p_0 - p_m
        0, inf or NaN, the point is the floor.
        """
        p_hat = np.maximum(p_free, self.floor)
        p_0 = (self.c_free * p_hat * p_hat).sum()
        if not p_0 <= self.budget:
            floor, p_m = self.floor, self.floor_cost
            headroom, excess = self.budget - p_m, p_0 - p_m
            share = (p_hat * p_hat - floor * floor) / excess if headroom > 0.0 and 0.0 < excess < math.inf else 0.0
            p_hat = np.sqrt(floor * floor + share * headroom)
        return self.assemble(p_hat)


def feasibility_partition(p_mins, w_norms_sq, p_tot: float) -> FeasibilityPartition:
    """Greedy maximal satisfiable set under the RF budget.

    Users are ordered by ascending minimum RF cost (ties broken by index,
    so the order is deterministic); the satisfied set is the longest prefix
    whose spend fits the budget.  Each prefix's spend is summed as
    ``PowerProblem.rf_spent`` sums it, as one C-ordered row in index order
    with 0 for the other users.  It never falls as the prefix grows, so the
    number of prefixes that fit is the longest one's length.
    """
    p_min = np.asarray(p_mins, dtype=float)
    c = np.asarray(w_norms_sq, dtype=float)
    if p_min.shape != c.shape:
        raise ValueError("p_min and beam-norm vectors must have equal length")
    if p_tot < 0:
        raise ValueError("budget must be >= 0")
    costs = c * p_min * p_min
    order = np.lexsort((np.arange(len(costs)), costs))
    prefix_spend = np.where(np.argsort(order) < np.arange(1, len(costs) + 1)[:, None], costs, 0.0).sum(axis=1)
    m = int(np.count_nonzero(prefix_spend <= p_tot))
    prefix_cost = float(np.cumsum(costs[order])[m - 1]) if m > 0 else 0.0
    return FeasibilityPartition(
        satisfied_set=tuple(int(i) for i in order[:m]),
        residual_budget=max(p_tot - prefix_cost, 0.0),
        full_feasible=(m == len(costs)),
    )


def stage2_problem(
    scenario: Scenario, beamformer: ZfBeamformer, p_tot: float, ledger: PowerLedger
) -> PowerProblem:
    """Stage 1 for a scenario, and the stage-2 problem on the face it leaves.

    Stage 1 is the per-user minimum coefficients and the greedy satisfiable
    set (``feasibility_partition``).  When every user fits (full QoS), all
    coefficients are optimized above their minima on the whole budget;
    otherwise (partial QoS) the satisfied users are pinned at their minima
    and the others share the residual budget from zero up.
    """
    model = RateModel(scenario.bw_hz, scenario.n0_w, scenario.gammas())
    p_min = min_power_coefficients(scenario.qos_rates(), model)
    partition = feasibility_partition(p_min, beamformer.w_norms_sq, p_tot)
    return PowerProblem(
        rate_model=model,
        w_norms_sq=np.asarray(beamformer.w_norms_sq, dtype=float),
        p_min=p_min,
        budget=float(p_tot) if partition.full_feasible else partition.residual_budget,
        ledger=ledger,
        satisfied_set=partition.satisfied_set,
        full_qos=partition.full_feasible,
    )


def check_stage2_range(scenario: Scenario, beamformer: ZfBeamformer, p_tot: float, ledger: PowerLedger) -> None:
    """Raise ConfigError if a stage-2 quantity at this budget overflows.

    Rates, their derivatives and the EE gradient form no intermediate larger than the terms below
    (``beamforming``, ``PowerProblem.gradient``), each bounded on the feasible set by its value
    with every user at its own ceiling sqrt(p_tot / c_k), or by the rate derivative's peak.
    """
    m = RateModel(scenario.bw_hz, scenario.n0_w, scenario.gammas())
    c = np.asarray(beamformer.w_norms_sq, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.isfinite(min_power_coefficients(scenario.qos_rates(), m)).all():
            raise ConfigError("a QoS rate is out of range: its minimum coefficient N_0 (2^(r/B) - 1) / gamma overflows")
        terms = [np.sum(surrogate_rates(np.sqrt(p_tot) / np.sqrt(c), m)),  # the EE numerator: up to 2048 B per user
                 comm_power(p_tot, ledger),  # the EE denominator: xi p_tot plus the static power
                 m.slope_peak,  # bounds N' in the EE gradient N'/D - (N/D)(D'/D): B sqrt(gamma / N_0) / ln 2
                 p_tot + np.sum(c * m.n0_w / m.gammas)]  # the sum-rate water level: the budget plus every floor
    if not all(np.isfinite(t).all() for t in terms):
        raise ConfigError(f"RF budget {p_tot!r} W is out of range: a rate, the water level or the communication "
                          "power it allows overflows (check the budget, bandwidth, noise, channel and ledger values)")


def _ascend(problem: PowerProblem) -> Q3eSolution:
    """Projected gradient ascent with backtracking line search, multi-start.

    Returns the solution at the best start's end point; its ``iterations``
    diagnostic counts the iterations of all starts.
    """
    best_p = None
    best_val = -np.inf
    total_iters = 0
    # a trial far outside the feasible set can overflow the projector's spend: it projects to NaN (no gain) or the floor
    with np.errstate(over="ignore", invalid="ignore"):
        for start in _numeric_starts(problem):
            p = problem.project(start)
            val = problem.objective(p)
            step = 1.0
            for _ in range(_MAX_ITERS):
                total_iters += 1
                grad = problem.gradient(p)[problem.free]
                gnorm = float(np.linalg.norm(grad))
                if gnorm == 0.0:
                    break
                t = step / gnorm
                for _ in range(50):
                    cand = problem.project(p[problem.free] + t * grad)
                    cand_val = problem.objective(cand)
                    if cand_val > val:
                        break
                    t *= 0.5
                else:  # no trial improved
                    break
                rel = (cand_val - val) / max(abs(val), 1e-300)
                p, val = cand, cand_val
                step = max(t * gnorm * 2.0, 1e-12)
                if rel < _STEP_TOLERANCE:
                    break
            if val > best_val:
                best_val, best_p = val, p
    return _solution_from(problem, best_p, problem.satisfied_set, "numeric", {"iterations": total_iters})


def _solution_from(problem: PowerProblem, p, q_set, tag: str, diag: dict) -> Q3eSolution:
    """Solution record for coefficients ``p`` on ``problem``'s beams, rate model and ledger.

    EE is every user's rate over the communication power, 0 when that power is 0.
    """
    rates = surrogate_rates(p, problem.rate_model)
    rf = problem.rf_spent(p)
    p_com = comm_power(rf, problem.ledger)
    return Q3eSolution(
        p=p,
        q_set=tuple(sorted(int(i) for i in q_set)),
        rates=rates,
        ee=float(np.sum(rates)) / p_com if p_com > 0 else 0.0,
        p_com=p_com,
        rf_spent=rf,
        solver_tag=tag,
        diagnostics=diag,
    )


def _numeric_starts(problem: PowerProblem) -> list[np.ndarray]:
    c, floor = problem.c_free, problem.floor
    starts = [floor]
    if problem.budget > 0:
        spread = np.sqrt(problem.budget / (len(c) * c))
        starts.append(np.maximum(spread, floor))
        # equal-headroom full spend above the floor (the qos-only layout)
        starts.append(_equal_headroom(floor, c, problem.budget))
    return starts


def _equal_headroom(p_base: np.ndarray, c: np.ndarray, budget: float) -> np.ndarray:
    """p_k = base_k + delta / sqrt(c_k), spending the budget less a few ulps per user so rounding cannot exceed it.

    delta = -2 c0 / (b + sqrt(b^2 - 4 a c0)) solves a delta^2 + b delta + c0 = 0
    (a users) without cancelling at a small headroom, in units of sqrt(budget)
    so that no term overflows.
    """
    a = float(len(c))
    budget = budget * (1.0 - 8.0 * a * np.finfo(float).eps)
    base_cost = float(np.sum(c * p_base * p_base))
    if budget <= base_cost or a == 0:
        return p_base.copy()
    root = np.sqrt(budget)
    b = 2.0 * float(np.sum(np.sqrt(c) * p_base)) / root
    c0 = (base_cost - budget) / budget
    delta = root * -2.0 * c0 / (b + np.sqrt(b * b - 4.0 * a * c0))
    return p_base + delta / np.sqrt(c)


def solve_full_qos(problem: PowerProblem) -> Q3eSolution:
    """Maximize system EE with every user held at or above its QoS minimum."""
    if not problem.full_qos:
        raise ValueError("full-satisfaction solver requires a fully feasible partition")
    return _ascend(problem)


def solve_partial_qos(problem: PowerProblem) -> Q3eSolution:
    """Maximize leftover-user EE on the residual budget, satisfied users pinned (their spend still counts)."""
    if problem.full_qos:
        raise ValueError("partial-satisfaction solver requires an infeasible partition")
    return _ascend(problem)


def q3e(
    scenario: Scenario,
    beamformer: ZfBeamformer,
    p_tot: float,
    ledger: PowerLedger,
    cfg=None,
    backend: str = "numeric",
) -> Q3eSolution:
    """Two-stage allocation: maximize satisfied users, then energy efficiency.

    ``backend`` selects the stage-2 optimizer: "numeric" (projected gradient
    ascent, no ``cfg``) or "mlp" (the constrained-trained network from
    ``neuro``; ``cfg`` is a ``neuro.TrainConfig``, or None for its defaults).
    """
    if backend == "mlp":
        cfg = neuro.TrainConfig() if cfg is None else cfg
        if not isinstance(cfg, neuro.TrainConfig):
            raise TypeError(f"mlp backend cfg must be a neuro.TrainConfig, not {type(cfg).__name__}")
    elif backend != "numeric":
        raise ValueError(f"unknown backend {backend!r}; expected 'numeric' or 'mlp'")
    elif cfg is not None:
        raise TypeError("the numeric backend takes no cfg")

    problem = stage2_problem(scenario, beamformer, p_tot, ledger)
    if backend == "numeric":
        return (solve_full_qos if problem.full_qos else solve_partial_qos)(problem)
    return _mlp_solution(problem, neuro.train(problem, cfg))


def _mlp_solution(problem: PowerProblem, net) -> Q3eSolution:
    """The mlp backend's solution from ``net``, a ``neuro.MlpNetwork`` trained on ``problem``."""
    p = neuro.trained_coefficients(net, problem)
    diag = {
        "iterations": net.log.stopped_epoch,
        "best_epoch": net.log.best_epoch,
        "ee_ceiling": net.log.ceiling,  # bounds the stage-2 objective's optimality gap
    }
    return _solution_from(problem, p, problem.satisfied_set, "mlp", diag)


def baseline_max_sum_rate(
    scenario: Scenario, beamformer: ZfBeamformer, p_tot: float, ledger: PowerLedger
) -> Q3eSolution:
    """Sum-rate maximization under the budget (water-filling), no QoS stage.

    In x_k = p_k^2 the problem is concave with one linear constraint; the
    KKT solution spends c_k x_k = max(0, level - c_k N_0 / gamma_k) on user k:
    ``PowerProblem.coefficients_at`` its ``fill_height`` on the face where every
    user is free with a zero floor.  ``q_set`` holds the users with
    p_k >= p_min,k.
    """
    face = replace(stage2_problem(scenario, beamformer, p_tot, ledger), budget=float(p_tot), satisfied_set=(),
                   full_qos=False)
    p = face.coefficients_at(face.fill_height)
    return _solution_from(face, p, np.flatnonzero(p >= face.p_min), "max_sum_rate", {})


def baseline_qos_only(
    scenario: Scenario, beamformer: ZfBeamformer, p_tot: float, ledger: PowerLedger
) -> Q3eSolution:
    """Greedy QoS stage, then the residual spread as equal per-user headroom.

    Shares stage 1 with the lexicographic solver but has no EE objective:
    the satisfied users take equal headroom delta/sqrt(c_k) above their
    minimum coefficients (``_equal_headroom``), so that the whole budget is
    spent, to within a few ulps below it.
    """
    problem = stage2_problem(scenario, beamformer, p_tot, ledger)
    c = problem.w_norms_sq
    q = problem.satisfied_set
    p = np.zeros(problem.n_users)
    if q:
        idx = np.array(q, dtype=int)
        p[idx] = _equal_headroom(problem.p_min[idx], c[idx], p_tot)
    return _solution_from(problem, p, q, "qos_only", {})


def solution_to_dict(sol: Q3eSolution) -> dict:
    """JSON-ready export of a solution."""
    return {
        "p": [float(x) for x in sol.p],
        "q_set": list(sol.q_set),
        "rates_bps": [float(r) for r in sol.rates],
        "ee_bps_per_w": sol.ee,
        "rf_spent_w": sol.rf_spent,
        "solver_tag": sol.solver_tag,
        "iterations": int(sol.diagnostics.get("iterations", 0)),
    }


def scenario_beamformer(scenario: Scenario) -> ZfBeamformer:
    """Zero-forcing beamformer for a scenario's steering vectors."""
    return zf_beamformer(scenario.steering_vectors())
