"""Reference losses, a finite-difference gradient check and a lone-training oracle for ``hapalloc.neuro``.

``neuro._evaluate`` computes the training loss's gradient in one vectorized
pass, without the loss itself.  The losses here are written one log term at
a time, and ``gradient_check`` compares backprop through the whole pipeline
against central differences of them.

``train_alone`` is the per-configuration training loop that ``neuro.train_many``
replaced: one network, one epoch at a time, on 1-D arrays.  The pool must
reproduce it bit for bit, parameters and ``TrainingLog`` alike, including
the stop once the best EE reaches the problem's EE ceiling.

``textbook_adam_updates`` is Adam as Kingma & Ba's Algorithm 1 writes it,
with normalised moments and explicit bias corrections, against which the
trainer's folded update is checked.
"""

from __future__ import annotations

import dataclasses
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
    """The trainer's analytic d(loss)/dp, evaluated as a pool of one; zero on pinned coordinates."""
    p = np.asarray(p, dtype=float)[None]
    return neuro._evaluate(p, problem, np.array([lam]), np.array([problem.budget]), eps)[1][0]


def training_loss_and_grads(net: neuro.MlpNetwork, problem: PowerProblem, lam: float, eps: float = EPS):
    """Full-pipeline loss (forward, project, barrier loss) and its parameter grads.

    The grads come from the pooled step that ``neuro.train_many`` runs each
    epoch, with ``net`` as its one slot; the loss is the reference
    ``instance_loss`` at the projected point, so a finite-difference check
    compares the two independently written forms.
    """
    grads = np.zeros((1, net.params.size))
    weights, biases = neuro._layer_views(net.params[None], net.layer_widths)
    grads_w, grads_b = neuro._layer_views(grads, net.layer_widths)
    _, p, _, _ = neuro._step(
        weights, biases, problem, neuro.problem_features(problem)[None], np.array([lam]),
        np.array([problem.budget]), eps, np.array([True]), grads_w, grads_b,
    )
    return instance_loss(p[0], problem, lam, eps), *neuro._layer_views(grads[0], net.layer_widths)


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


def textbook_adam_updates(grad_steps):
    """Yield Adam's update for each gradient in ``grad_steps``, from zero moments at t = 1.

    m and v are the normalised moment estimates; m_hat and v_hat divide out
    their bias before the step, as in Algorithm 1 of Kingma & Ba (2015).
    """
    b1, b2 = neuro.ADAM_BETA1, neuro.ADAM_BETA2
    m = v = 0.0
    for t, g in enumerate(grad_steps, start=1):
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1**t)
        v_hat = v / (1.0 - b2**t)
        yield neuro.STEP_SIZE * m_hat / (np.sqrt(v_hat) + neuro.ADAM_EPS)


# ---------------------------------------------------------------------------
# lone training: one configuration, one epoch at a time, on 1-D arrays
# ---------------------------------------------------------------------------


def _forward_trace_alone(net: neuro.MlpNetwork, x: np.ndarray):
    """Forward pass returning the raw coefficients and the activation cache."""
    pre, post = [], [x]
    h = x
    n_layers = len(net.weights)
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = h @ w + b
        pre.append(z)
        h = np.maximum(z, 0.0) if i < n_layers - 1 else z
        post.append(h)
    sp = neuro._softplus(pre[-1])
    return sp * sp, (pre, post, sp)


def _backward_alone(net: neuro.MlpNetwork, cache, d_p_tilde: np.ndarray, grads_w, grads_b) -> None:
    """Backprop from d(loss)/d(p_tilde) into per-layer weight/bias gradient views."""
    pre, post, sp = cache
    sigmoid = 1.0 / (1.0 + np.exp(-pre[-1]))
    delta = d_p_tilde * 2.0 * sp * sigmoid
    for i in range(len(net.weights) - 1, -1, -1):
        np.multiply(post[i][:, None], delta, out=grads_w[i])
        grads_b[i][...] = delta
        if i > 0:
            delta = (delta @ net.weights[i].T) * (pre[i - 1] > 0.0)


def _evaluate_alone(p: np.ndarray, p_free: np.ndarray, problem: PowerProblem, lam: float, eps: float):
    """EE, d(loss)/dp and the free users' spend at one coefficient vector."""
    c = problem.w_norms_sq
    ee, grad, rf = problem.ee_and_gradient(p)
    np.negative(grad, out=grad)
    free_spend = float((c[problem.free] * p_free**2).sum())
    if lam > 0 and problem.full_qos:
        x = p - problem.p_min + eps
        grad -= lam * np.where(x > eps, 1.0 / np.maximum(x, eps), 0.0)
        slack = problem.budget - rf + eps
        if slack > eps:
            grad += lam * 2.0 * c * p / slack
    elif lam > 0:
        slack = problem.budget - free_spend + eps
        if slack > eps:
            grad += lam * 2.0 * c * p / slack
            grad[~problem.free] = 0.0
    return ee, grad, free_spend


def _project_with_grad_alone(problem: PowerProblem, p_tilde: np.ndarray, scaling: bool):
    """Projected free coefficients and the closure mapping d(loss)/dp to d(loss)/dp_tilde."""
    mask, c, budget = problem.floor, problem.c_free, problem.budget
    p_tilde = p_tilde[problem.free]
    clamped = p_tilde > mask
    p_hat = np.maximum(p_tilde, mask)
    p_0 = float((c * p_hat * p_hat).sum())
    if not scaling or p_0 <= budget:
        return p_hat, lambda d_p: d_p * clamped

    p_m = float((c * mask * mask).sum())
    p, (alpha,) = problem.scale_to_budget(p_hat, budget, p_0)

    def backward(d_p):
        safe_p = np.where(p > 0.0, p, 1.0)
        diag = np.where(p > 0.0, alpha * p_hat / safe_p, math.sqrt(alpha))
        s = float(np.where(p > 0.0, d_p * (p_hat * p_hat - mask * mask) / (2.0 * safe_p), 0.0).sum())
        d_alpha = -2.0 * alpha * c * p_hat / (p_0 - p_m)
        return (d_p * diag + s * d_alpha) * clamped

    return p, backward


def _step_alone(net, problem: PowerProblem, features, lam: float, eps: float, scaling: bool, grads_w, grads_b):
    free = problem.free
    p_tilde, cache = _forward_trace_alone(net, features)
    p_free, proj_backward = _project_with_grad_alone(problem, p_tilde, scaling)
    p = problem.assemble(p_free)
    ee, d_p, free_spend = _evaluate_alone(p, p_free, problem, lam, eps)
    d_p_tilde = np.zeros(p_tilde.shape)
    d_p_tilde[free] = proj_backward(d_p[free])
    _backward_alone(net, cache, d_p_tilde, grads_w, grads_b)
    return p_tilde, ee, free_spend


def train_alone(problem: PowerProblem, cfg: neuro.TrainConfig) -> neuro.MlpNetwork:
    """Train one configuration by itself: what ``neuro.train_many`` must reproduce bit for bit."""
    net = neuro.network_for(problem, cfg)
    features = neuro.problem_features(problem)
    ee_scale = neuro._ee_scale(problem)
    b1, b2 = neuro.ADAM_BETA1, neuro.ADAM_BETA2

    grads = np.zeros_like(net.params)
    grads_w, grads_b = neuro._layer_views(grads, net.layer_widths)
    m1 = np.zeros_like(net.params)
    v1 = np.zeros_like(net.params)
    step = np.empty_like(net.params)
    tmp = np.empty_like(net.params)

    # a clamp-only training's iterates keep p >= floor but may spend past the budget
    bounded = problem if cfg.project_scaling else dataclasses.replace(problem, budget=math.inf)
    log = neuro.TrainingLog(ceiling=bounded.ee_ceiling)
    best_params = None
    epoch = 0
    for epoch in range(1, cfg.max_epochs + 1):
        lam = neuro.BARRIER_WEIGHT * 0.5 ** ((epoch - 1) // cfg.anneal_every) if cfg.use_soft_loss else 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            p_tilde, val, free_spend = _step_alone(
                net, problem, features, lam * ee_scale, neuro.BARRIER_EPS, cfg.project_scaling, grads_w, grads_b,
            )
        if not (np.isfinite(p_tilde).all() and math.isfinite(val)):
            raise neuro.TrainingError(epoch, cfg.seed)
        log.max_budget_overshoot = max(log.max_budget_overshoot, free_spend - problem.budget)
        if val > log.best_ee * (1.0 + neuro.MIN_GAIN):
            log.best_ee, log.best_epoch = val, epoch
            best_params = net.params.copy()

        # Adam on unnormalised moment sums, the bias corrections folded into the step factor a and epsilon e
        s = math.sqrt((1.0 - b2) / (1.0 - b2**epoch))
        a, e = neuro.STEP_SIZE * (1.0 - b1) / ((1.0 - b1**epoch) * s), neuro.ADAM_EPS / s
        m1 *= b1
        m1 += grads
        v1 *= b2
        np.multiply(grads, grads, out=tmp)
        v1 += tmp
        np.sqrt(v1, out=tmp)
        tmp += e
        np.multiply(m1, a, out=step)
        step /= tmp
        net.params -= step

        if epoch - log.best_epoch >= neuro.PATIENCE or log.best_ee * (1.0 + neuro.MIN_GAIN) >= log.ceiling:
            break

    net.params[:] = best_params
    log.stopped_epoch = epoch
    net.log = log
    return net
