"""Bisection reference for ``hapalloc.q3e.baseline_max_sum_rate``.

``max_sum_rate_bisection`` is the water-filling solver that the closed-form
water level replaced: 200 geometric bisection steps on the water level nu in
[1e-30, 1e30], keeping the allocation at the bracket's feasible end.  It is
an independent evaluation path only where that bracket holds the level
(budgets up to about 1e25 W on the test scenarios) and where the budget is
not far below every user's floor c_k N_0 / gamma_k, since it computes each
spend as 1/(nu c_k ln 2) - N_0/gamma_k and loses the difference to
cancellation there.
"""

from __future__ import annotations

import numpy as np

from hapalloc.beamforming import RateModel, surrogate_rates


def max_sum_rate_bisection(scenario, beamformer, p_tot: float) -> tuple[np.ndarray, tuple[int, ...]]:
    """Coefficients and QoS-satisfied users of the sum-rate water-filling at ``p_tot``, by bisection."""
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
    q = tuple(k for k in range(len(p)) if rates[k] >= scenario.qos_rates()[k] * (1.0 - 1e-12))
    return p, q
