"""Exact optimum of the stage-2 problem, used to score how close a solver gets.

Stage 2 of ``hapalloc.q3e`` maximizes

    EE(p) = sum_{k in O} B log2(1 + gamma_k p_k^2 / N0) / (xi sum_k c_k p_k^2 + P_static)

over the free users' coefficients, with a per-user floor and a budget on the
free users' spend (c_k = ||w_k||^2).  Full regime: every user is free, the
floor is p_min and O is everyone.  Partial regime: the greedy satisfied set
is pinned at p_min (its spend still counts in the denominator), the free
users have floor 0, the budget is the residual, and O is the free users.

In x = p^2 the numerator is concave and the denominator affine, so
Dinkelbach's method is globally optimal.  Each inner problem
max N(x) - lam D(x) is a floored water-filling,

    x_k = max(floor_k, B / (ln2 (lam xi + nu) c_k) - N0 / gamma_k),

with the budget multiplier nu >= 0 found by bisection.  Only public pieces of
the package are used: ``feasibility_partition``, ``RateModel``,
``min_power_coefficients`` and ``static_comm_power``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from hapalloc.beamforming import RateModel, min_power_coefficients
from hapalloc.config import static_comm_power
from hapalloc.q3e import feasibility_partition

LN2 = math.log(2.0)


@dataclass(frozen=True)
class Stage2Optimum:
    """Optimal stage-2 coefficients, objective and Dinkelbach certificate."""

    p: np.ndarray  # all users; pinned users at p_min, others optimal
    objective: float  # optimal stage-2 EE, bps/W
    full_qos: bool
    q_set: tuple[int, ...]  # greedy satisfied set (all users when full)
    residual: float  # F(lam*) = max_x N - lam* D at the returned lam*
    iterations: int  # Dinkelbach iterations


@dataclass(frozen=True)
class _Stage2Problem:
    bw: float
    noise_over_gamma: np.ndarray  # N0 / gamma_k, free users
    c: np.ndarray  # beam costs, free users
    floor: np.ndarray  # x floors, free users
    budget: float  # spend available to the free users, W
    xi: float
    fixed_power: float  # static power plus xi * pinned spend, W

    def numerator(self, x: np.ndarray) -> float:
        return float(np.sum(self.bw * np.log2(1.0 + x / self.noise_over_gamma)))

    def denominator(self, x: np.ndarray) -> float:
        return self.xi * float(np.sum(self.c * x)) + self.fixed_power

    def water_fill(self, lam: float) -> np.ndarray:
        """argmax N(x) - lam D(x) over the floors and the budget."""

        def fill(nu):
            return np.maximum(self.floor, self.bw / (LN2 * (lam * self.xi + nu) * self.c) - self.noise_over_gamma)

        if lam > 0.0:
            x = fill(0.0)
            if float(np.sum(self.c * x)) <= self.budget:
                return x
        lo, hi = 1e-30, 1e30  # spend(lo) > budget >= spend(hi)
        for _ in range(400):
            mid = math.sqrt(lo * hi)
            if float(np.sum(self.c * fill(mid))) > self.budget:
                lo = mid
            else:
                hi = mid
            if hi <= lo * (1.0 + 4e-16):
                break
        return fill(hi)


def _stage2_problem(scenario, beamformer, p_tot: float, ledger):
    model = RateModel(scenario.bw_hz, scenario.n0_w, scenario.gammas())
    p_min = min_power_coefficients(scenario.qos_rates(), model)
    c_all = np.asarray(beamformer.w_norms_sq, dtype=float)
    part = feasibility_partition(p_min, c_all, p_tot)
    free = np.ones(len(p_min), dtype=bool)
    if part.full_feasible:
        floor = p_min * p_min
        budget = float(p_tot)
        pinned_spend = 0.0
        q_set = tuple(range(len(p_min)))
    else:
        free[list(part.satisfied_set)] = False
        floor = np.zeros(int(np.sum(free)))
        budget = float(part.residual_budget)
        pinned_spend = float(np.sum(c_all[~free] * p_min[~free] ** 2))
        q_set = tuple(sorted(part.satisfied_set))
    problem = _Stage2Problem(
        bw=float(scenario.bw_hz),
        noise_over_gamma=model.n0_w / model.gammas[free],
        c=c_all[free],
        floor=floor,
        budget=budget,
        xi=float(ledger.xi),
        fixed_power=static_comm_power(ledger) + ledger.xi * pinned_spend,
    )
    return problem, p_min, free, part.full_feasible, q_set


def stage2_optimum(scenario, beamformer, p_tot: float, ledger, max_iters: int = 100) -> Stage2Optimum:
    """Globally optimal stage-2 solution for one instance."""
    problem, p_min, free, full_qos, q_set = _stage2_problem(scenario, beamformer, p_tot, ledger)
    x = problem.floor.copy()
    lam = problem.numerator(x) / problem.denominator(x)
    residual = 0.0
    iters = 0
    for iters in range(1, max_iters + 1):
        x_new = problem.water_fill(lam)
        residual = problem.numerator(x_new) - lam * problem.denominator(x_new)
        lam_new = problem.numerator(x_new) / problem.denominator(x_new)
        if lam_new <= lam:
            break
        converged = lam_new - lam <= 1e-15 * lam_new
        x, lam = x_new, lam_new
        if converged:
            break
    p = np.where(free, 0.0, p_min)
    p[free] = np.sqrt(x)
    return Stage2Optimum(
        p=p, objective=lam, full_qos=full_qos, q_set=q_set,
        residual=float(residual), iterations=iters,
    )


def stage2_objective(solution) -> float:
    """Stage-2 EE of a solution from its public fields.

    Rates of the users outside ``q_set`` in the partial regime, or of all
    users when every user is satisfied, over the communication power.
    """
    k = len(solution.rates)
    if len(solution.q_set) == k:
        numerator = float(np.sum(solution.rates))
    else:
        outside = np.ones(k, dtype=bool)
        outside[list(solution.q_set)] = False
        numerator = float(np.sum(solution.rates[outside]))
    return numerator / solution.p_com


def relative_gap(achieved: float, optimum: float) -> float:
    """(optimum - achieved) / optimum, 0 when both are 0."""
    if optimum <= 0.0:
        return 0.0
    return (optimum - achieved) / optimum
