"""A finite-difference gradient check and a lone-training oracle for ``hapalloc.neuro``.

``neuro._step`` computes the EE's gradient in the head's water level in
closed form and backprops it through the network.  ``training_loss_and_grads``
pairs that gradient with the negative EE of the coefficients the network
outputs (``neuro.trained_coefficients``, read through ``PowerProblem.objective``
in coefficient space), and ``gradient_check`` compares the two by central
differences.

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
from hapalloc.config import comm_power
from hapalloc.q3e import PowerProblem

LN2 = math.log(2.0)


def training_loss_and_grads(net: neuro.MlpNetwork, problem: PowerProblem, capped: bool = True):
    """The negative EE of the network's coefficients and the parameter grads training applies.

    The grads come from the pooled step that ``neuro.train_many`` runs each
    epoch, with ``net`` as its one slot; the loss is ``objective`` at
    ``trained_coefficients``, so a finite-difference check compares the
    closed-form level gradient against the EE of the coefficients.
    """
    grads = np.zeros((1, net.params.size))
    weights, biases = neuro._layer_views(net.params[None], net.layer_widths)
    grads_w, grads_b = neuro._layer_views(grads, net.layer_widths)
    neuro._step(weights, biases, problem, neuro.problem_features(problem)[None], np.array([problem.fill_height]),
                np.array([capped]), grads_w, grads_b)
    loss = -problem.objective(neuro.trained_coefficients(net, problem, scaling=capped))
    return loss, *neuro._layer_views(grads[0], net.layer_widths)


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
    """Forward pass returning the squared softplus output and the activation cache."""
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


def _backward_alone(net: neuro.MlpNetwork, cache, d_s: np.ndarray, grads_w, grads_b) -> None:
    """Backprop from d(loss)/ds into per-layer weight/bias gradient views."""
    pre, post, sp = cache
    sigmoid = 1.0 / (1.0 + np.exp(-pre[-1]))
    delta = d_s * 2.0 * sp * sigmoid
    for i in range(len(net.weights) - 1, -1, -1):
        np.multiply(post[i][:, None], delta, out=grads_w[i])
        grads_b[i][...] = delta
        if i > 0:
            delta = (delta @ net.weights[i].T) * (pre[i - 1] > 0.0)


def _step_alone(net, problem: PowerProblem, features, capped: bool, grads_w, grads_b):
    """Output and EE at the network's level, and d(-EE)/d(params) into the grad views."""
    d, lower, pinned = problem.spend_terms
    rise, low = problem.breakpoints
    height = problem.fill_height
    s, cache = _forward_trace_alone(net, features)
    g, dg = (-np.expm1(-s), np.exp(-s)) if capped else (s, 1.0)
    t = height * g  # the level's height above the lowest breakpoint, shape (1,)
    y = lower + np.maximum(0.0, t - rise)
    numer = float(problem.rate_model.bw_hz) * np.log1p(y / d).sum() / LN2
    denom = comm_power(pinned + y.sum(), problem.ledger)
    denom = math.inf if denom == 0.0 else denom
    ee = numer / denom
    active = int(np.count_nonzero(t > rise))
    d_ee = active * (float(problem.rate_model.bw_hz) / (LN2 * (low + t)) - ee * problem.ledger.xi) / denom
    _backward_alone(net, cache, -(d_ee * height * dg), grads_w, grads_b)
    return s, float(ee)


def train_alone(problem: PowerProblem, cfg: neuro.TrainConfig) -> neuro.MlpNetwork:
    """Train one configuration by itself: what ``neuro.train_many`` must reproduce bit for bit."""
    net = neuro.network_for(problem, cfg)
    features = neuro.problem_features(problem)
    b1, b2 = neuro.ADAM_BETA1, neuro.ADAM_BETA2

    grads = np.zeros_like(net.params)
    grads_w, grads_b = neuro._layer_views(grads, net.layer_widths)
    m1 = np.zeros_like(net.params)
    v1 = np.zeros_like(net.params)
    step = np.empty_like(net.params)
    tmp = np.empty_like(net.params)

    # an uncapped level keeps y >= lower but may spend past the budget
    bounded = problem if cfg.project_scaling else dataclasses.replace(problem, budget=math.inf)
    log = neuro.TrainingLog(ceiling=bounded.ee_ceiling)
    best_params = None
    last_ee = -math.inf
    epoch = 0
    for epoch in range(1, cfg.max_epochs + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            s, val = _step_alone(net, problem, features, cfg.project_scaling, grads_w, grads_b)
        if not (np.isfinite(s).all() and math.isfinite(val)):
            raise neuro.TrainingError(epoch, cfg.seed)
        if val < last_ee:  # the EE fell: restart the momentum
            m1[:] = 0.0
        last_ee = val
        if val > log.best_ee * (1.0 + neuro.MIN_GAIN):
            log.best_ee, log.best_epoch = val, epoch
            best_params = net.params.copy()

        # Adam on unnormalised moment sums, the bias corrections folded into the step factor a and epsilon e
        r = math.sqrt((1.0 - b2) / (1.0 - b2**epoch))
        a, e = neuro.STEP_SIZE * (1.0 - b1) / ((1.0 - b1**epoch) * r), neuro.ADAM_EPS / r
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
