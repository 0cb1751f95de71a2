"""Reference barrier losses and a finite-difference gradient check for ``hapalloc.neuro``.

``neuro._evaluate`` computes the training loss's gradient in one vectorized
pass, without the loss itself.  The losses here are written one log term at
a time, and ``gradient_check`` compares backprop through the whole pipeline
against central differences of them.
"""

from __future__ import annotations

import math

import numpy as np

from hapalloc import neuro
from hapalloc.q3e import PowerProblem

EPS = neuro.BARRIER_EPS


def _safe_log(x: float, eps: float) -> float:
    return math.log(max(x, eps))


def loss_full_qos(p, problem: PowerProblem, lam: float, eps: float = EPS) -> float:
    """Negative EE plus ``lam`` times barriers on the per-user floors and the budget slack.

    Every log argument is evaluated as ln(max(x, eps)) so the loss stays
    finite when a slack touches zero.
    """
    p = np.asarray(p, dtype=float)
    ee = problem.objective(p)
    slack = problem.budget - problem.rf_spent(p)
    logs = sum(_safe_log(pk - mk + eps, eps) for pk, mk in zip(p, problem.p_min))
    logs += _safe_log(slack + eps, eps)
    return -ee - lam * logs


def loss_partial_qos(p, problem: PowerProblem, lam: float, eps: float = EPS) -> float:
    """Negative leftover-user EE plus ``lam`` times a barrier on the residual-budget slack.

    Pinned users are read from the problem, not from ``p``, so the loss
    depends only on the free coordinates.
    """
    p = np.asarray(p, dtype=float)
    q = problem.assemble(p[problem.free])
    ee = problem.objective(q)
    free_spend = float(np.sum(problem.w_norms_sq[problem.free] * q[problem.free] ** 2))
    slack = problem.budget - free_spend
    return -ee - lam * _safe_log(slack + eps, eps)


def instance_loss(p, problem: PowerProblem, lam: float, eps: float = EPS) -> float:
    return (loss_full_qos if problem.full_qos else loss_partial_qos)(p, problem, lam, eps)


def loss_gradient(p, problem: PowerProblem, lam: float, eps: float = EPS) -> np.ndarray:
    """The trainer's analytic d(loss)/dp; zero on pinned coordinates."""
    p = np.asarray(p, dtype=float)
    return neuro._evaluate(p, p[problem.free], problem, lam, eps)[1]


def training_loss_and_grads(net: neuro.MlpNetwork, problem: PowerProblem, lam: float, eps: float = EPS):
    """Full-pipeline loss (forward, project, barrier loss) and its parameter grads.

    The grads come from the same step that ``neuro.train`` runs each epoch;
    the loss is the reference ``instance_loss`` at the projected point, so a
    finite-difference check compares the two independently written forms.
    """
    grads_w, grads_b = neuro._layer_views(np.zeros_like(net.params), net.layer_widths)
    _, p, _, _ = neuro._step(
        net, problem, neuro.problem_features(problem), lam, eps, True, grads_w, grads_b,
    )
    return instance_loss(p, problem, lam, eps), grads_w, grads_b


def gradient_check(net: neuro.MlpNetwork, loss_and_grads, sample: int = 100, seed: int = 0) -> float:
    """Max relative error between backprop and central finite differences.

    ``loss_and_grads(net)`` must return (loss, weight grads, bias grads).
    A random sample of parameters is perturbed by +-1e-6 (scaled by the
    parameter magnitude) and the analytic gradient compared against the
    central difference; the worst relative error over the sample is
    returned, with the analytic magnitude floored at 1e-12.
    """
    _, grads_w, grads_b = loss_and_grads(net)
    params = [(("w", i), net.weights[i]) for i in range(len(net.weights))]
    params += [(("b", i), net.biases[i]) for i in range(len(net.biases))]
    flat = [(tag, arr, j) for tag, arr in params for j in range(arr.size)]
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(flat), size=min(sample, len(flat)), replace=False)

    worst = 0.0
    for idx in picks:
        (kind, layer), arr, j = flat[idx]
        orig = arr.flat[j]
        h = 1e-6 * max(1.0, abs(orig))
        arr.flat[j] = orig + h
        lp, _, _ = loss_and_grads(net)
        arr.flat[j] = orig - h
        lm, _, _ = loss_and_grads(net)
        arr.flat[j] = orig
        fd = (lp - lm) / (2.0 * h)
        analytic = (grads_w if kind == "w" else grads_b)[layer].flat[j]
        err = abs(analytic - fd) / max(abs(analytic), 1e-12)
        worst = max(worst, err)
    return worst
