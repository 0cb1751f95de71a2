"""Bisection references for ``hapalloc.q3e``'s water-filling and its stage-2 optimum.

``max_sum_rate_bisection`` is the water-filling solver that the closed-form
water level replaced: 200 geometric bisection steps on the water level nu in
[1e-30, 1e30], keeping the allocation at the bracket's feasible end.  It is
an independent evaluation path only where that bracket holds the level
(budgets up to about 1e25 W on the test scenarios) and where the budget is
not far below every user's floor c_k N_0 / gamma_k, since it computes each
spend as 1/(nu c_k ln 2) - N_0/gamma_k and loses the difference to
cancellation there.

``water_fill_bisection`` finds the level of a water-fill with per-user lower
bounds by bisection on the level itself.  ``stage2_optimum_bisection`` is
Dinkelbach's method on a ``PowerProblem``'s face as
``perfbench/reference.py`` runs it: in x = p^2, each inner problem
max N(x) - lambda D(x) is a floored water-fill whose budget multiplier is
found by bisection, where ``PowerProblem.ee_ceiling`` solves it in closed
form on breakpoints.
"""

from __future__ import annotations

import math

import numpy as np

from hapalloc.beamforming import RateModel
from hapalloc.config import static_comm_power

LN2 = math.log(2.0)


def max_sum_rate_bisection(scenario, beamformer, p_tot: float) -> tuple[np.ndarray, tuple[int, ...]]:
    """Coefficients of the sum-rate water-filling at ``p_tot``, by bisection, and the users they satisfy:
    those with p_k >= p_min,k = sqrt(N_0 (2^(r_k / B) - 1) / gamma_k)."""
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
    qos, n0, bw = scenario.qos_rates(), scenario.n0_w, scenario.bw_hz
    q = tuple(k for k in range(len(p)) if p[k] >= math.sqrt(n0 * (2.0 ** (qos[k] / bw) - 1.0) / model.gammas[k]))
    return p, q


def water_fill_bisection(floors: np.ndarray, budget: float, lower: np.ndarray) -> float:
    """The level at which max(lower_k, level - floor_k) spends ``budget``, by 200 bisection steps on the level.

    The bracket runs from the lowest breakpoint lower_k + floor_k (spend sum(lower) <= budget) to the
    highest plus the budget; the level returned is the bracket's feasible end.
    """
    breaks = lower + floors
    lo, hi = float(breaks.min()), float(breaks.max()) + budget
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if float(np.sum(np.maximum(lower, mid - floors))) > budget:
            hi = mid
        else:
            lo = mid
    return lo


def stage2_optimum_bisection(problem, max_iters: int = 100) -> float:
    """The optimal ``objective`` of ``problem`` on its face {p >= floor, free users' spend <= budget}, bps/W.

    A budget of inf drops the spend constraint.  Dinkelbach's iterates start
    at the floors' EE, or, without a budget, at x_k = floor_k^2 + N_0 / gamma_k,
    whose EE is positive in both regimes.
    """
    model, free = problem.rate_model, problem.free
    c, n0g = problem.w_norms_sq[free], model.n0_w / model.gammas[free]
    floor, budget, xi, bw = problem.floor ** 2, problem.budget, problem.ledger.xi, model.bw_hz
    pinned_spend = float(np.sum(problem.w_norms_sq[~free] * problem.p_min[~free] ** 2))
    fixed = static_comm_power(problem.ledger) + xi * pinned_spend

    def ee(x):
        return float(np.sum(bw * np.log2(1.0 + x / n0g))) / (xi * float(np.sum(c * x)) + fixed)

    def fill(lam, nu):
        return np.maximum(floor, bw / (LN2 * (lam * xi + nu) * c) - n0g)

    def water_fill(lam):  # argmax N(x) - lam D(x) over the floors and the budget
        if lam > 0.0:
            x = fill(lam, 0.0)
            if float(np.sum(c * x)) <= budget:
                return x
        lo, hi = 1e-30, 1e30  # spend(lo) > budget >= spend(hi)
        for _ in range(400):
            mid = math.sqrt(lo * hi)
            if float(np.sum(c * fill(lam, mid))) > budget:
                lo = mid
            else:
                hi = mid
            if hi <= lo * (1.0 + 4e-16):
                break
        return fill(lam, hi)

    lam = ee(floor if math.isfinite(budget) else floor + n0g)
    for _ in range(max_iters):
        nxt = ee(water_fill(lam))
        if nxt <= lam:
            break
        lam = nxt
    return lam
