"""Feed-forward network trained per allocation instance, with hand-rolled backprop.

The network maps the instance's sufficient statistics (normalized channel
powers, QoS spectral efficiencies, beam costs, and the budget scale) to raw
power coefficients.  Every forward pass is pushed through the capped-simplex
projector before the loss is evaluated, so all iterates are feasible; the
loss is the negative EE objective plus log-barrier terms on the constraint
slacks.  Optimization is Adam with early stopping on the true (barrier-free)
EE of the projected output, and the best checkpoint is returned.

The EE, its gradient and the projector's budget scaling are ``q3e``'s
(``PowerProblem.ee_and_gradient``, ``q3e._scale_to_budget``); this module
adds the barrier terms, the projector's Jacobian-vector product and the
backward pass through the network.  Gradients flow through the projector's
smooth scaling branch; the clamp max(p, m) passes no gradient on the
clamped side (subgradient convention).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import ConfigError
from .q3e import PowerProblem, _scale_to_budget, project_capped

DEFAULT_HIDDEN = (64, 64, 32, 32)
BARRIER_WEIGHT = 1e-2  # initial log-barrier weight, in units of the instance's EE scale
BARRIER_EPS = 1e-6  # slack floor inside the log terms
ADAM_BETA1 = 0.9  # decay of the first-moment estimate
ADAM_BETA2 = 0.999  # decay of the second-moment estimate
ADAM_EPS = 1e-8  # added to the root of the second moment


class TrainingError(RuntimeError):
    """Training produced a non-finite loss."""

    def __init__(self, epoch: int):
        self.epoch = epoch
        super().__init__(f"non-finite loss at epoch {epoch}: the neural backend diverged "
                         "(a step size, budget or scenario value out of its range)")


@dataclass
class TrainingLog:
    """Where training stopped, where the best checkpoint sat, and the worst
    budget overshoot observed across all projected iterates."""

    best_epoch: int = 0
    stopped_epoch: int = 0
    best_ee: float = -np.inf
    max_budget_overshoot: float = 0.0


@dataclass
class MlpNetwork:
    """Fully connected stack: ReLU on every layer except the last.

    All parameters live in one flat buffer, ``params``: layer by layer, the
    row-major weight matrix followed by the bias.  ``weights`` and ``biases``
    are views into it, so writing through them updates ``params``.
    """

    layer_widths: tuple[int, ...]
    params: np.ndarray
    log: TrainingLog | None = None
    weights: list[np.ndarray] = field(init=False, repr=False, compare=False)
    biases: list[np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.weights, self.biases = _layer_views(self.params, self.layer_widths)


def _param_count(widths) -> int:
    return sum(w_in * w_out + w_out for w_in, w_out in zip(widths[:-1], widths[1:]))


def _layer_views(flat: np.ndarray, layer_widths) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-layer weight and bias views into a buffer laid out like ``MlpNetwork.params``."""
    widths = tuple(layer_widths)
    if flat.shape != (_param_count(widths),):
        raise ValueError(f"flat buffer of shape {flat.shape} does not fit layer widths {widths}")
    weights, biases = [], []
    at = 0
    for w_in, w_out in zip(widths[:-1], widths[1:]):
        weights.append(flat[at:at + w_in * w_out].reshape(w_in, w_out))
        at += w_in * w_out
        biases.append(flat[at:at + w_out])
        at += w_out
    return weights, biases


@dataclass(frozen=True)
class TrainConfig:
    max_epochs: int = 2000
    patience: int = 50
    step_size: float = 1e-3
    seed: int = 0
    hidden: tuple[int, ...] = DEFAULT_HIDDEN
    anneal_every: int = 200  # halve the barrier weight this often
    project_scaling: bool = True  # False: clamp only, no budget rescale (ablation)
    use_soft_loss: bool = True  # False: drop the barrier terms (ablation)

    def __post_init__(self):
        if self.patience <= 0:
            raise ConfigError(f"patience must be positive, got {self.patience}")
        if self.max_epochs <= self.patience:
            raise ConfigError(
                f"max_epochs ({self.max_epochs}) must exceed the early-stopping patience ({self.patience})"
            )
        if self.step_size <= 0:
            raise ConfigError("step size must be positive")
        if self.seed < 0:
            raise ConfigError(f"seeds must be non-negative, got {self.seed}")


def init_network(layer_widths, seed: int = 0) -> MlpNetwork:
    """Symmetric uniform fan-in initialization, seeded for determinism."""
    widths = tuple(int(w) for w in layer_widths)
    net = MlpNetwork(layer_widths=widths, params=np.zeros(_param_count(widths)))
    rng = np.random.default_rng(seed)
    for w, b in zip(net.weights, net.biases):
        bound = 1.0 / math.sqrt(w.shape[0])
        w[...] = rng.uniform(-bound, bound, size=w.shape)
        b[...] = rng.uniform(-bound, bound, size=b.shape)
    return net


def _softplus(z):
    return np.logaddexp(0.0, z)


def _forward_trace(net: MlpNetwork, x: np.ndarray):
    """Forward pass returning the raw coefficients and the activation cache."""
    x = np.asarray(x, dtype=float)
    if x.shape != (net.layer_widths[0],):
        raise ValueError(
            f"feature length {x.shape} does not match input width {net.layer_widths[0]}"
        )
    pre, post = [], [x]
    h = x
    n_layers = len(net.weights)
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = h @ w + b
        pre.append(z)
        h = np.maximum(z, 0.0) if i < n_layers - 1 else z
        post.append(h)
    sp = _softplus(pre[-1])
    p_tilde = sp * sp  # squared softplus keeps outputs positive with smooth gradients
    return p_tilde, (pre, post, sp)


def mlp_forward(net: MlpNetwork, features) -> np.ndarray:
    """Raw nonnegative power coefficients for one instance's features."""
    p_tilde, _ = _forward_trace(net, features)
    return p_tilde


def _backward(net: MlpNetwork, cache, d_p_tilde: np.ndarray, grads_w, grads_b) -> None:
    """Backprop from d(loss)/d(p_tilde) into per-layer weight/bias gradient views."""
    pre, post, sp = cache
    sigmoid = 1.0 / (1.0 + np.exp(-pre[-1]))
    delta = d_p_tilde * 2.0 * sp * sigmoid  # through the squared softplus
    for i in range(len(net.weights) - 1, -1, -1):
        np.multiply(post[i][:, None], delta, out=grads_w[i])  # outer product
        grads_b[i][...] = delta
        if i > 0:
            delta = (delta @ net.weights[i].T) * (pre[i - 1] > 0.0)


def problem_features(problem: PowerProblem) -> np.ndarray:
    """Sufficient statistics of an instance: 3 per-user features plus the budget scale."""
    m = problem.rate_model
    gammas = np.asarray(m.gammas, dtype=float)
    c = np.asarray(problem.w_norms_sq, dtype=float)
    # spectral-efficiency targets implied by the minimum coefficients
    r_bits = np.log2(1.0 + gammas * problem.p_min**2 / m.n0_w)
    p_ref = float(np.sum(c * problem.p_min**2))
    scale = problem.budget / max(p_ref, 1e-30) if p_ref > 0 else 1.0
    return np.concatenate([gammas / gammas.max(), r_bits, c / c.max(), [scale]])


def network_for(problem: PowerProblem, cfg: TrainConfig) -> MlpNetwork:
    """Network sized for the instance, with its raw output started mid-slack.

    The final-layer bias is set so the initial raw coefficients sit above the
    clamp masks and strictly inside the budget (half the budget slack split
    equally in squared-coefficient space).  Both boundaries are gradient
    dead zones: the clamp passes nothing on the clamped side, and once the
    raw output overshoots the budget the scaling branch pins the projected
    point to the budget surface, where the radial gradient component
    vanishes.  Starting mid-slack keeps the interior barrier wall effective.
    """
    k = problem.n_users
    net = init_network((3 * k + 1, *cfg.hidden, k), seed=cfg.seed)
    targets = np.maximum(problem.lower_bound, 0.0).astype(float)
    free = problem.free
    n_free = max(int(np.sum(free)), 1)
    mask_cost = float(np.sum(problem.w_norms_sq[free] * problem.lower_bound[free] ** 2))
    slack = max(problem.budget - mask_cost, 0.0)
    targets[free] = np.sqrt(
        problem.lower_bound[free] ** 2 + 0.5 * slack / (n_free * problem.w_norms_sq[free])
    )
    targets = np.maximum(targets, 1e-3)
    y = np.sqrt(targets)  # want softplus(z) = sqrt(target) exactly
    net.weights[-1][:] = 0.0  # zero output head makes the start point exact
    net.biases[-1][:] = np.log(np.expm1(y))
    return net


# ---------------------------------------------------------------------------
# barrier loss
# ---------------------------------------------------------------------------


def _evaluate(p: np.ndarray, p_free: np.ndarray, problem: PowerProblem, lam: float, eps: float):
    """EE, barrier loss and d(loss)/dp at ``p``.

    ``p_free`` is ``p[problem.free]``.  The loss is the negative EE minus
    ``lam`` times the log-barrier terms, each log argument floored at ``eps``:
    under full QoS one per user on p_k - p_min,k and one on the budget slack;
    under partial QoS one on the free users' budget slack.  EE and its
    gradient are ``PowerProblem.ee_and_gradient``'s.  The gradient is zero
    on pinned coordinates.  Returns (EE, loss, gradient, free users' spend).
    """
    c = problem.w_norms_sq
    ee, grad, rf = problem.ee_and_gradient(p)
    np.negative(grad, out=grad)
    free_spend = float((c[problem.free] * p_free**2).sum())
    if problem.full_qos:
        x = p - problem.p_min + eps
        slack = problem.budget - rf + eps
        logs = float(np.log(np.maximum(x, eps)).sum()) + math.log(max(slack, eps))
        if lam > 0:
            grad -= lam * np.where(x > eps, 1.0 / np.maximum(x, eps), 0.0)
            if slack > eps:
                grad += lam * 2.0 * c * p / slack
    else:
        slack = problem.budget - free_spend + eps
        logs = math.log(max(slack, eps))
        if lam > 0 and slack > eps:
            grad += lam * 2.0 * c * p / slack
            grad[~problem.free] = 0.0
    return ee, -ee - lam * logs, grad, free_spend


# ---------------------------------------------------------------------------
# projection with gradient
# ---------------------------------------------------------------------------


def _project_with_grad(problem: PowerProblem, p_tilde: np.ndarray, scaling: bool):
    """Project the free users' entries of ``p_tilde``.

    Returns the projected coefficients and a closure mapping d(loss)/dp back to d(loss)/dp_tilde.
    """
    mask, c, budget = problem.lower_bound[problem.free], problem.w_norms_sq[problem.free], problem.budget
    p_tilde = p_tilde[problem.free]
    clamped = p_tilde > mask  # gradient passes only where the clamp is inactive
    p_hat = np.maximum(p_tilde, mask)
    p_0 = float((c * p_hat * p_hat).sum())
    if not scaling or p_0 <= budget:
        p = p_hat

        def backward(d_p):
            return d_p * clamped

        return p, backward

    p_m = float((c * mask * mask).sum())
    p, alpha = _scale_to_budget(p_hat, mask, budget, p_0, p_m)

    def backward(d_p):
        safe_p = np.where(p > 0.0, p, 1.0)
        # diagonal term: dp_k/dp_hat_k at fixed alpha
        diag = np.where(p > 0.0, alpha * p_hat / safe_p, math.sqrt(alpha))
        # coupling through alpha's dependence on every clamped coefficient
        s = float(np.where(p > 0.0, d_p * (p_hat * p_hat - mask * mask) / (2.0 * safe_p), 0.0).sum())
        d_alpha = -2.0 * alpha * c * p_hat / (p_0 - p_m)
        return (d_p * diag + s * d_alpha) * clamped

    return p, backward


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


def _ee_scale(problem: PowerProblem) -> float:
    """Per-instance EE scale so the default barrier weight is meaningful."""
    c = problem.w_norms_sq[problem.free]
    floor = problem.lower_bound[problem.free]
    n = max(len(c), 1)
    spread = np.sqrt(problem.budget / (n * c)) if problem.budget > 0 else floor
    p_free = project_capped(np.maximum(spread, floor), floor, c, problem.budget)
    ref = problem.objective(problem.assemble(p_free))
    return ref if ref > 0 else 1.0


def _step(net: MlpNetwork, problem: PowerProblem, features: np.ndarray, lam: float, eps: float,
          scaling: bool, grads_w, grads_b):
    """One full-instance pass: what ``train`` runs each epoch.

    Forward pass, projection, one evaluation of EE, loss and d(loss)/dp at
    the projected point, then backprop into the gradient views ``grads_w``
    and ``grads_b``.  Returns the raw output, the projected coefficients of
    all users, the EE, the loss and the free users' spend.
    """
    free = problem.free
    p_tilde, cache = _forward_trace(net, features)
    p_free, proj_backward = _project_with_grad(problem, p_tilde, scaling)
    p = problem.assemble(p_free)
    ee, loss, d_p, free_spend = _evaluate(p, p_free, problem, lam, eps)
    d_p_tilde = np.zeros(p_tilde.shape)
    d_p_tilde[free] = proj_backward(d_p[free])
    _backward(net, cache, d_p_tilde, grads_w, grads_b)
    return p_tilde, p, ee, loss, free_spend


def train(problem: PowerProblem, cfg: TrainConfig | None = None) -> MlpNetwork:
    """Optimize the network on one instance with in-loop feasibility projection.

    Each epoch is one full-instance step: forward pass, projection, barrier
    loss, Adam update.  The barrier weight is halved every ``anneal_every``
    epochs and internally rescaled by the instance's EE magnitude so the
    configured weight is unit-free.  Early stopping tracks the barrier-free
    EE of the projected output and the best checkpoint is returned.

    Adam runs on the flat parameter buffer: each of its elementwise
    operations is one call over all layers at once.
    """
    cfg = cfg or TrainConfig()
    net = network_for(problem, cfg)
    features = problem_features(problem)
    ee_scale = _ee_scale(problem)
    b1, b2 = ADAM_BETA1, ADAM_BETA2

    grads = np.zeros_like(net.params)
    grads_w, grads_b = _layer_views(grads, net.layer_widths)
    m1 = np.zeros_like(net.params)
    v1 = np.zeros_like(net.params)
    step = np.empty_like(net.params)
    tmp = np.empty_like(net.params)

    log = TrainingLog()
    best_val = -np.inf
    best_epoch = 0
    best_params = None
    epoch = 0
    for epoch in range(1, cfg.max_epochs + 1):
        lam = BARRIER_WEIGHT * 0.5 ** ((epoch - 1) // cfg.anneal_every)
        if not cfg.use_soft_loss:
            lam = 0.0

        # divergence is detected explicitly below, so transient overflow in a
        # diverging pass is expected rather than a numerics bug
        with np.errstate(over="ignore", invalid="ignore"):
            p_tilde, _, val, loss, free_spend = _step(
                net, problem, features, lam * ee_scale, BARRIER_EPS,
                cfg.project_scaling, grads_w, grads_b,
            )
        if not (np.isfinite(p_tilde).all() and math.isfinite(loss)):
            raise TrainingError(epoch)
        log.max_budget_overshoot = max(log.max_budget_overshoot, free_spend - problem.budget)
        if val > best_val:
            best_val = val
            best_epoch = epoch
            best_params = net.params.copy()

        m1 *= b1
        np.multiply(grads, 1.0 - b1, out=tmp)
        m1 += tmp
        v1 *= b2
        np.multiply(grads, 1.0 - b2, out=tmp)
        tmp *= grads
        v1 += tmp
        np.divide(m1, 1.0 - b1**epoch, out=step)  # m_hat
        np.divide(v1, 1.0 - b2**epoch, out=tmp)  # v_hat
        np.sqrt(tmp, out=tmp)
        tmp += ADAM_EPS
        step *= cfg.step_size
        step /= tmp
        net.params -= step

        if epoch - best_epoch >= cfg.patience:
            break

    if best_params is not None:
        net.params[:] = best_params
    log.best_epoch = best_epoch
    log.stopped_epoch = epoch
    log.best_ee = best_val
    net.log = log
    return net


def trained_coefficients(net: MlpNetwork, problem: PowerProblem, scaling: bool = True) -> np.ndarray:
    """Projected coefficient vector produced by a trained network."""
    p_tilde = mlp_forward(net, problem_features(problem))
    return problem.assemble(_project_with_grad(problem, p_tilde, scaling)[0])

