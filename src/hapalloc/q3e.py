"""Lexicographic QoS-then-energy-efficiency power allocation under zero forcing.

Stage 1 maximizes the number of QoS-satisfied users: per-user minimum RF
costs ||p_min,k w_k||^2 are additive, so the cheapest-first prefix that fits
the budget is an optimal satisfied set.  Stage 2 maximizes energy efficiency
on the resulting feasible face: over all coefficients when every user fits
(full satisfaction), or over the leftover users and leftover budget when not
(satisfied users stay pinned at their minimum coefficients and their spend
still counts in the communication power).

``stage2_problem`` runs stage 1 and builds the stage-2 ``PowerProblem``;
every solver, baseline and the ablation start from it, and
``_solution_from`` turns any coefficient vector into a ``Q3eSolution``
(communication power from ``config.comm_power``, EE over all users).  The
stage-2 arithmetic of both backends is written here once: the free-user EE
(``PowerProblem.objective``), its gradient (``PowerProblem.ee_and_gradient``)
and the capped-simplex projector's budget scaling (``_scale_to_budget``).
The numeric backend is projected gradient ascent on that EE; the neural
backend (``neuro``) trains through the same EE gradient and scaling step and
adds only its barrier terms and the projector's Jacobian.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .beamforming import (
    RateModel,
    ZfBeamformer,
    min_power_coefficients,
    surrogate_rates,
    zf_beamformer,
)
from .channel import Scenario
from .config import ConfigError, PowerLedger, comm_power


_MAX_ITERS = 5000  # projected-gradient iterations per start
_STEP_TOLERANCE = 1e-9  # stop a start once a step gains less EE than this, relatively


@dataclass(frozen=True)
class FeasibilityPartition:
    """Greedy satisfiable-user prefix and the leftover budget."""

    satisfied_set: tuple[int, ...]  # prefix of order_g, greedy order
    order_g: tuple[int, ...]  # all users, ascending min-cost order
    residual_budget: float  # W left after pinning the satisfied set
    min_cost_per_user: np.ndarray  # ||p_min,k w_k||^2 per user, W
    full_feasible: bool
    p_min: np.ndarray  # per-user minimum coefficients
    p_tot: float  # the RF budget the partition was built for


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

    Built by ``stage2_problem``.  ``free`` users are optimized and make up
    the EE numerator (everyone for full satisfaction); the rest, the
    satisfied set in the partial regime, sit pinned at their minimum
    coefficients.  Communication power always counts all spend.
    """

    rate_model: RateModel
    w_norms_sq: np.ndarray
    p_min: np.ndarray
    budget: float  # budget available to the free users, W
    ledger: PowerLedger
    free: np.ndarray  # bool mask of optimized users, also the EE numerator's users
    lower_bound: np.ndarray  # per-user floor for the free users
    pinned_p: np.ndarray  # coefficients of non-free users (0 where free)
    satisfied_set: tuple[int, ...]  # stage 1's QoS-satisfied users, cheapest first
    full_qos: bool  # True: all users bounded below by p_min (barrier on each)

    @property
    def n_users(self) -> int:
        return len(self.w_norms_sq)

    def assemble(self, p_free: np.ndarray) -> np.ndarray:
        p = self.pinned_p.copy()
        p[self.free] = p_free
        return p

    def rf_spent(self, p: np.ndarray) -> float:
        return float((self.w_norms_sq * p * p).sum())

    def _ee_terms(self, p: np.ndarray) -> tuple[float, float, float]:
        """The free users' rate sum, the RF spend and the communication power at ``p``."""
        rf = self.rf_spent(p)
        return float(surrogate_rates(p, self.rate_model)[self.free].sum()), rf, comm_power(rf, self.ledger)

    def objective(self, p: np.ndarray) -> float:
        """EE restricted to the free users, bps/W; 0 when the communication power is 0."""
        numer, _, denom = self._ee_terms(p)
        return numer / denom if denom > 0.0 else 0.0

    def ee_and_gradient(self, p: np.ndarray) -> tuple[float, np.ndarray, float]:
        """``objective`` at ``p``, its gradient in ``p`` (zero on pinned users) and the RF spend."""
        m = self.rate_model
        numer, rf, denom = self._ee_terms(p)
        d_numer = 2.0 * m.bw_hz * m.gammas * p / (np.log(2.0) * (m.n0_w + m.gammas * p * p))
        d_denom = 2.0 * self.ledger.xi * self.w_norms_sq * p
        grad = (d_numer * denom - numer * d_denom) / (denom * denom)
        grad[~self.free] = 0.0
        return (numer / denom if denom > 0.0 else 0.0), grad, rf


def feasibility_partition(p_mins, w_norms_sq, p_tot: float) -> FeasibilityPartition:
    """Greedy maximal satisfiable set under the RF budget.

    Users are ordered by ascending minimum RF cost (ties broken by index,
    so the order is deterministic); the satisfied set is the longest prefix
    whose cumulative cost fits the budget.
    """
    p_min = np.asarray(p_mins, dtype=float)
    c = np.asarray(w_norms_sq, dtype=float)
    if p_min.shape != c.shape:
        raise ValueError("p_min and beam-norm vectors must have equal length")
    if p_tot < 0:
        raise ValueError("budget must be >= 0")
    costs = c * p_min * p_min
    order = np.lexsort((np.arange(len(costs)), costs))
    cumulative = np.cumsum(costs[order])
    m = int(np.searchsorted(cumulative, p_tot, side="right"))
    prefix_cost = float(cumulative[m - 1]) if m > 0 else 0.0
    return FeasibilityPartition(
        satisfied_set=tuple(int(i) for i in order[:m]),
        order_g=tuple(int(i) for i in order),
        residual_budget=p_tot - prefix_cost,
        min_cost_per_user=costs,
        full_feasible=(m == len(costs)),
        p_min=p_min,
        p_tot=float(p_tot),
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
    k = len(partition.p_min)
    free = np.ones(k, dtype=bool)
    pinned = np.zeros(k)
    if partition.full_feasible:
        budget, lower = partition.p_tot, partition.p_min.copy()
    else:
        free[list(partition.satisfied_set)] = False
        pinned[~free] = partition.p_min[~free]
        budget, lower = partition.residual_budget, np.zeros(k)
    return PowerProblem(
        rate_model=model,
        w_norms_sq=np.asarray(beamformer.w_norms_sq, dtype=float),
        p_min=partition.p_min,
        budget=budget,
        ledger=ledger,
        free=free,
        lower_bound=lower,
        pinned_p=pinned,
        satisfied_set=partition.satisfied_set,
        full_qos=partition.full_feasible,
    )


def check_stage2_range(scenario: Scenario, beamformer: ZfBeamformer, p_tot: float, ledger: PowerLedger) -> None:
    """Raise ConfigError if the minimum coefficients, or any term of ``PowerProblem.ee_and_gradient``, overflow.

    On the feasible set each term is bounded by its value with every user at
    its own ceiling sqrt(p_tot / c_k), the rate derivative by its peak
    B sqrt(gamma_k / N_0) / ln 2.
    """
    m = RateModel(scenario.bw_hz, scenario.n0_w, scenario.gammas())
    c = np.asarray(beamformer.w_norms_sq, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.isfinite(min_power_coefficients(scenario.qos_rates(), m)).all():
            raise ConfigError("a QoS rate is out of range: its minimum coefficient N_0 (2^(r/B) - 1) / gamma overflows")
        p_max = np.sqrt(p_tot) / np.sqrt(c)
        numer = float(np.sum(surrogate_rates(p_max, m)))
        denom = comm_power(p_tot, ledger)
        d_numer = m.bw_hz * np.sqrt(m.gammas / m.n0_w) / np.log(2.0)
        d_denom = 2.0 * ledger.xi * c * p_max
        terms = [numer, denom * denom, 2.0 * m.bw_hz * m.gammas * p_max, d_numer * denom, numer * d_denom]
    if not all(np.isfinite(t).all() for t in terms):
        raise ConfigError(f"RF budget {p_tot!r} W is out of range: a rate or the communication power it allows "
                          "overflows (check the budget, bandwidth, noise, channel and ledger values)")


def project_capped(p_raw, p_min_mask, w_norms_sq, p_tot: float) -> np.ndarray:
    """Project raw coefficients onto {p >= mask, sum c_k p_k^2 <= budget}.

    Coefficients are first clamped to the mask; if the clamped point is
    affordable it is returned unchanged, otherwise the squared coefficients
    are interpolated between the mask point and the clamped point with
    alpha = (budget - mask cost) / (clamped cost - mask cost), which meets
    the budget with equality.  The mask itself must be affordable.
    """
    p_raw = np.asarray(p_raw, dtype=float)
    m = np.asarray(p_min_mask, dtype=float)
    c = np.asarray(w_norms_sq, dtype=float)
    p_m = float(np.sum(c * m * m))
    if p_m > p_tot * (1.0 + 1e-12) + 1e-300:
        raise ValueError(f"mask cost {p_m} exceeds budget {p_tot}; mask unaffordable")
    p_hat = np.maximum(p_raw, m)
    p_0 = float(np.sum(c * p_hat * p_hat))
    if p_0 <= p_tot:
        return p_hat
    return _scale_to_budget(p_hat, m, p_tot, p_0, p_m)[0]


def _scale_to_budget(p_hat, mask, budget: float, p_0: float, p_m: float) -> tuple[np.ndarray, float]:
    """The projector's scaling step: squared coefficients interpolated from ``mask`` (cost ``p_m``)
    to ``p_hat`` (cost ``p_0``) by alpha = (budget - p_m) / (p_0 - p_m) in [0, 1]; returns (point, alpha)."""
    alpha = min(1.0, max(0.0, (budget - p_m) / (p_0 - p_m)))
    return np.sqrt(mask * mask + alpha * (p_hat * p_hat - mask * mask)), alpha


def _project_free(problem: PowerProblem, p_free: np.ndarray) -> np.ndarray:
    return project_capped(
        p_free,
        problem.lower_bound[problem.free],
        problem.w_norms_sq[problem.free],
        problem.budget,
    )


def _ascend(problem: PowerProblem) -> Q3eSolution:
    """Projected gradient ascent with backtracking line search, multi-start.

    Returns the solution at the best start's end point; its ``iterations``
    diagnostic counts the iterations of all starts.
    """
    best_p = None
    best_val = -np.inf
    total_iters = 0
    for start in _numeric_starts(problem):
        p_free = _project_free(problem, np.asarray(start, dtype=float))
        p = problem.assemble(p_free)
        val = problem.objective(p)
        step = 1.0
        for _ in range(_MAX_ITERS):
            total_iters += 1
            grad = problem.ee_and_gradient(p)[1][problem.free]
            gnorm = float(np.linalg.norm(grad))
            if gnorm == 0.0:
                break
            t = step / gnorm
            accepted = False
            for _ in range(50):
                cand_free = _project_free(problem, p[problem.free] + t * grad)
                cand = problem.assemble(cand_free)
                cand_val = problem.objective(cand)
                if cand_val > val:
                    accepted = True
                    break
                t *= 0.5
            if not accepted:
                break
            rel = (cand_val - val) / max(abs(val), 1e-300)
            p, val = cand, cand_val
            step = max(t * gnorm * 2.0, 1e-12)
            if rel < _STEP_TOLERANCE:
                break
        if val > best_val:
            best_val, best_p = val, p
    rates = surrogate_rates(best_p, problem.rate_model)
    diag = {"iterations": total_iters, "backend": "numeric"}
    return _solution_from(
        best_p, rates, problem.rf_spent(best_p), problem.ledger, problem.satisfied_set, "numeric", diag
    )


def _solution_from(p, rates, rf: float, ledger: PowerLedger, q_set, tag: str, diag: dict) -> Q3eSolution:
    """Solution record for coefficients ``p`` with RF spend ``rf``.

    EE is every user's rate over the communication power, 0 when that power is 0.
    """
    p_com = comm_power(rf, ledger)
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
    c = problem.w_norms_sq[problem.free]
    floor = problem.lower_bound[problem.free]
    n = len(c)
    starts = [floor.copy()]
    if n > 0 and problem.budget > 0:
        spread = np.sqrt(problem.budget / (n * c))
        starts.append(np.maximum(spread, floor))
        # equal-headroom full spend above the floor (the qos-only layout)
        starts.append(_equal_headroom(floor, c, problem.budget))
    return starts


def _equal_headroom(p_base: np.ndarray, c: np.ndarray, budget: float) -> np.ndarray:
    """p_k = base_k + delta / sqrt(c_k) with the total cost meeting the budget."""
    base_cost = float(np.sum(c * p_base * p_base))
    if budget <= base_cost or len(c) == 0:
        return p_base.copy()
    a = float(len(c))
    b = 2.0 * float(np.sum(np.sqrt(c) * p_base))
    c0 = base_cost - budget
    delta = (-b + np.sqrt(b * b - 4.0 * a * c0)) / (2.0 * a)
    if not np.isfinite(delta):
        # b * b or 4 a c0 overflowed near the float maximum: solve in units of
        # sqrt(budget), and shrink delta by a few ulps per user so that the
        # rounding of the spend cannot take it over the budget. Temporary: this
        # form is right at every budget, and replaces the one above (which can
        # overshoot by 2 ulps) when the exact stage 2 moves the outputs anyway
        root = np.sqrt(budget)
        b, c0 = b / root, c0 / budget
        delta = root * (-b + np.sqrt(b * b - 4.0 * a * c0)) / (2.0 * a) * (1.0 - 8.0 * a * np.finfo(float).eps)
    return p_base + delta / np.sqrt(c)


def solve_full_qos(problem: PowerProblem) -> Q3eSolution:
    """Maximize system EE with every user held at or above its QoS minimum."""
    if not problem.full_qos:
        raise ValueError("full-satisfaction solver requires a fully feasible partition")
    return _ascend(problem)


def solve_partial_qos(problem: PowerProblem) -> Q3eSolution:
    """Maximize leftover-user EE on the residual budget, satisfied users pinned.

    The EE numerator covers only the users outside the satisfied set; the
    pinned users' spend still counts in the communication power.
    """
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
        from . import neuro  # deferred: neuro depends on this module

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
    net = neuro.train(problem, cfg)
    p = neuro.trained_coefficients(net, problem)
    diag = {
        "backend": "mlp",
        "iterations": net.log.stopped_epoch,
        "best_epoch": net.log.best_epoch,
        "max_budget_overshoot": net.log.max_budget_overshoot,
    }
    rates = surrogate_rates(p, problem.rate_model)
    return _solution_from(p, rates, problem.rf_spent(p), ledger, problem.satisfied_set, "mlp", diag)


def baseline_max_sum_rate(
    scenario: Scenario, beamformer: ZfBeamformer, p_tot: float, ledger: PowerLedger
) -> Q3eSolution:
    """Sum-rate maximization under the budget (water-filling), no QoS stage.

    In x_k = p_k^2 the problem is concave with one linear constraint; the
    KKT solution is x_k = max(0, 1/(nu c_k ln 2) - N_0/gamma_k) with the
    water level nu bisected until the budget is met.  The allocation is the
    one at the bracket's feasible end, so the reported spend sum_k c_k x_k
    never exceeds ``p_tot``.
    """
    model = RateModel(scenario.bw_hz, scenario.n0_w, scenario.gammas())
    c = np.asarray(beamformer.w_norms_sq, dtype=float)
    floor = model.n0_w / model.gammas

    def spend(nu):
        x = np.maximum(0.0, 1.0 / (nu * c * np.log(2.0)) - floor)
        return float(np.sum(c * x)), x

    x = np.zeros_like(c)  # feasible if no water level tried is
    if p_tot > 0:
        lo, hi = 1e-30, 1e30
        for _ in range(200):
            nu = np.sqrt(lo * hi)
            s, x_nu = spend(nu)
            if s > p_tot:
                lo = nu
            else:
                hi, x = nu, x_nu
    p = np.sqrt(x)
    rates = surrogate_rates(p, model)
    q = [k for k in range(len(p)) if rates[k] >= scenario.qos_rates()[k] * (1.0 - 1e-12)]
    return _solution_from(p, rates, float(np.sum(c * x)), ledger, q, "max_sum_rate", {})


def baseline_qos_only(
    scenario: Scenario, beamformer: ZfBeamformer, p_tot: float, ledger: PowerLedger
) -> Q3eSolution:
    """Greedy QoS stage, then the residual spread as equal per-user headroom.

    Shares stage 1 with the lexicographic solver but has no EE objective:
    leftover budget is spent on the satisfied users with equal headroom
    delta/sqrt(c_k) so the budget is consumed exactly.
    """
    problem = stage2_problem(scenario, beamformer, p_tot, ledger)
    c = problem.w_norms_sq
    q = problem.satisfied_set
    p = np.zeros(problem.n_users)
    if q:
        idx = np.array(q, dtype=int)
        p[idx] = _equal_headroom(problem.p_min[idx], c[idx], p_tot)
    rates = surrogate_rates(p, problem.rate_model)
    return _solution_from(p, rates, problem.rf_spent(p), ledger, q, "qos_only", {})


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
