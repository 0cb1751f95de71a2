"""Feed-forward network trained per allocation instance, with hand-rolled backprop.

The network maps the instance's sufficient statistics (normalized channel
powers, QoS spectral efficiencies, beam costs, and the budget scale) to raw
power coefficients.  Every forward pass is pushed through the projector
(clamp to the floors, then scale radially in p^2 onto the budget) before the
loss is evaluated, so all iterates are feasible; the loss is the negative EE
objective plus log-barrier terms on the constraint slacks.  Optimization is
Adam, its bias corrections folded into the step size (``_adam_step``), with
early stopping on the true (barrier-free) EE of the projected output, and
the best checkpoint is returned.  An epoch counts as a new best only if it
beats the best EE by more than ``MIN_GAIN`` (1e-10) relative: on the shipped
ablation that stops the trainings about a third sooner, and moves their EE
by at most about 5e-11 relative.  Training stops at the first of three:
``PATIENCE`` epochs without a new best, ``max_epochs``, or a best EE within
``MIN_GAIN`` of the training's EE ceiling (``PowerProblem.ee_ceiling``, an
upper bound on the EE of every point its projector returns), past which no
epoch can be a new best, so that stop moves no checkpoint.

The EE, its gradient and the projector's budget scaling are ``PowerProblem``'s
(``ee_and_gradient``, ``scale_to_budget``; one form for a vector or a stack);
this module adds the barrier terms, the projector's Jacobian-vector product
and the backward pass through the network.
Gradients flow through the projector's smooth scaling branch; the clamp
max(p, m) passes no gradient on the clamped side (subgradient convention).

Trainings run in a pool (``train_many``): their networks are rows of stacked
arrays, and each row reproduces a lone training bit for bit.  A pool's
problems share one stage-1 face (``PowerProblem.shares_face``) and may differ
in budget, so one pool serves several configurations of one instance or one
instance at several budgets.  Any one of the problems stands for the face:
an epoch reads the free users, floors and pinned coefficients from it and
each row's budget from the pool.  Every row runs the same numpy calls: a term
a row skips adds zero to it, and sums run on ``compress``ed C-ordered rows.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from .beamforming import surrogate_rates
from .config import ConfigError

if TYPE_CHECKING: from .q3e import PowerProblem  # noqa: E701  (annotations only: q3e imports this module)

HIDDEN = (64, 64, 32, 32)  # hidden-layer widths (sizing measured in CHANGES.md)
PATIENCE = 50  # epochs without a new best EE before training stops
MIN_GAIN = 1e-10  # relative EE gain an epoch needs to count as a new best (cost measured in CHANGES.md)
STEP_SIZE = 1e-3  # Adam step size
POOL_SLOTS = 8  # jobs train_many trains side by side (width sweep in BENCH_pool_width.json)
BARRIER_WEIGHT = 3e-4  # initial log-barrier weight, in units of the instance's EE scale
BARRIER_EPS = 1e-6  # slack floor inside the log terms
ADAM_BETA1 = 0.9  # decay of the first-moment estimate
ADAM_BETA2 = 0.999  # decay of the second-moment estimate
ADAM_EPS = 1e-8  # added to the root of the second moment
_EXPM1_MAX = 700.0  # np.expm1 overflows just above 709.78


class TrainingError(RuntimeError):
    """Training produced a non-finite loss."""

    def __init__(self, epoch: int, seed: int):
        self.epoch, self.seed = epoch, seed
        super().__init__(f"non-finite loss at epoch {epoch} of the training with seed {seed}: the neural backend "
                         "diverged (check the RF budget and the scenario's and ledger's values, or try another seed)")


@dataclass
class TrainingLog:
    """Where training stopped, where the best checkpoint sat, and the worst
    budget overshoot observed across all projected iterates.

    ``best_epoch`` is the last epoch whose EE beat the best before it by
    more than ``MIN_GAIN`` relative; a later epoch with a smaller gain moves
    neither it nor the checkpoint.  ``ceiling`` bounds the EE of every point
    the training's projector can return, so it also bounds the network's
    optimality gap (``_ceiling``; inf when patience alone applies); once
    ``best_ee`` is within ``MIN_GAIN`` of it, training stops at ``best_epoch``.
    """

    best_epoch: int = 0
    stopped_epoch: int = 0
    best_ee: float = -np.inf
    max_budget_overshoot: float = 0.0
    ceiling: float = math.inf


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
    """Per-layer weight and bias views into a buffer laid out like ``MlpNetwork.params``.

    A 2-D ``flat`` holds one such buffer per row; its views are stacks of
    weights (rows, in, out) and biases (rows, out).
    """
    widths = tuple(layer_widths)
    if flat.shape[-1:] != (_param_count(widths),) or flat.ndim > 2:
        raise ValueError(f"flat buffer of shape {flat.shape} does not fit layer widths {widths}")
    lead = flat.shape[:-1]
    weights, biases = [], []
    at = 0
    for w_in, w_out in zip(widths[:-1], widths[1:]):
        weights.append(flat[..., at:at + w_in * w_out].reshape(*lead, w_in, w_out))
        at += w_in * w_out
        biases.append(flat[..., at:at + w_out])
        at += w_out
    return weights, biases


@dataclass(frozen=True)
class TrainConfig:
    max_epochs: int = 2000
    seed: int = 0
    # every training halves the barrier weight this often; no verb sets it, and it stays a field only
    # because perfbench's ablation re-solve passes 30, which must equal this default
    anneal_every: int = 30
    project_scaling: bool = True  # False: clamp only, no budget rescale (ablation)
    use_soft_loss: bool = True  # False: drop the barrier terms (ablation)

    def __post_init__(self):
        if self.max_epochs <= PATIENCE:
            raise ConfigError(
                f"max_epochs ({self.max_epochs}) must exceed the early-stopping patience ({PATIENCE})"
            )
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


def _softplus_inverse(y: np.ndarray) -> np.ndarray:
    """z with softplus(z) = y > 0: log(expm1(y)), or y + log1p(-exp(-y)) above
    ``_EXPM1_MAX``, where expm1 would overflow."""
    z = y + np.log1p(-np.exp(-y))
    small = y <= _EXPM1_MAX
    z[small] = np.log(np.expm1(y[small]))
    return z


def _forward_trace(weights, biases, x: np.ndarray):
    """Forward pass of a stack of networks (``_layer_views`` of stacked rows), one feature vector per row of ``x``.

    Returns the raw coefficients, one row per network, and the activation
    cache.  Each layer is one batched ``np.matmul``: a vector-matrix product
    per network, the same product a lone network makes.
    """
    h = x
    pre, post = [], [x]
    n_layers = len(weights)
    for i, (w, b) in enumerate(zip(weights, biases)):
        z = np.matmul(h[..., None, :], w)[:, 0] + b
        pre.append(z)
        h = np.maximum(z, 0.0) if i < n_layers - 1 else z
        post.append(h)
    sp = _softplus(pre[-1])
    p_tilde = sp * sp  # squared softplus keeps outputs positive with smooth gradients
    return p_tilde, (pre, post, sp)


def mlp_forward(net: MlpNetwork, features) -> np.ndarray:
    """Raw nonnegative power coefficients for one instance's features."""
    x = np.asarray(features, dtype=float)
    if x.shape != (net.layer_widths[0],):
        raise ValueError(
            f"feature length {x.shape} does not match input width {net.layer_widths[0]}"
        )
    p_tilde, _ = _forward_trace(*_layer_views(net.params[None], net.layer_widths), x[None])
    return p_tilde[0]


def _backward(weights, cache, d_p_tilde: np.ndarray, grads_w, grads_b) -> None:
    """Backprop from d(loss)/d(p_tilde), one row per network, into stacked gradient views.

    The weight gradients are outer products, written by ``np.einsum``.  It
    writes +0.0 where a product is -0.0; Adam's moments, and so the
    parameters, come out the same either way.
    """
    pre, post, sp = cache
    sigmoid = 1.0 / (1.0 + np.exp(-pre[-1]))
    delta = d_p_tilde * 2.0 * sp * sigmoid  # through the squared softplus
    for i in range(len(weights) - 1, -1, -1):
        np.einsum("si,sj->sij", post[i], delta, out=grads_w[i])
        grads_b[i][...] = delta
        if i > 0:
            delta = np.matmul(delta[:, None, :], weights[i].transpose(0, 2, 1))[:, 0] * (pre[i - 1] > 0.0)


def problem_features(problem: PowerProblem) -> np.ndarray:
    """Sufficient statistics of an instance: 3 per-user features plus the budget scale."""
    m, c = problem.rate_model, problem.w_norms_sq
    r_bits = surrogate_rates(problem.p_min, m) / m.bw_hz  # spectral efficiencies at the minimum coefficients
    p_ref = float(np.sum(c * problem.p_min**2))
    scale = problem.budget / max(p_ref, 1e-30) if p_ref > 0 else 1.0
    return np.concatenate([m.gammas / m.gammas.max(), r_bits, c / c.max(), [scale]])


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
    net = init_network((3 * k + 1, *HIDDEN, k), seed=cfg.seed)
    c, floor = problem.c_free, problem.floor
    # the mask cost summed as c * floor**2, which rounds apart from ``floor_cost``
    slack = max(problem.budget - float(np.sum(c * floor**2)), 0.0)
    targets = np.full(k, 1e-3)
    targets[problem.free] = np.maximum(np.sqrt(floor**2 + 0.5 * slack / (len(c) * c)), 1e-3)
    y = np.sqrt(targets)  # want softplus(z) = sqrt(target) exactly
    net.weights[-1][:] = 0.0  # zero output head makes the start point exact
    net.biases[-1][:] = _softplus_inverse(y)
    return net


# ---------------------------------------------------------------------------
# barrier loss
# ---------------------------------------------------------------------------


def _evaluate(p: np.ndarray, problem: PowerProblem, lam: np.ndarray, budget: np.ndarray, eps: float):
    """EE and d(loss)/dp at each row of ``p`` (slots, users), with ``lam`` and ``budget`` the rows' barrier
    weights and budgets.

    ``problem`` is any problem of the pool's face: each row's budget is
    ``budget``'s entry, never ``problem.budget``.

    A row's loss is its negative EE minus its ``lam`` times the log-barrier
    terms, each log argument floored at ``eps``: under full QoS one per user
    on p_k - p_min,k and one on the budget slack; under partial QoS one on
    the free users' budget slack.  Only its gradient is computed: with every
    log argument floored, the loss at a finite ``p`` is finite exactly when
    the EE is, which is all training checks.  EE and its gradient are
    ``PowerProblem.ee_and_gradient``'s.  The gradient is zero on pinned
    coordinates.  Returns per-row EE, gradient and free users' spend.
    Every row runs the same calls: a row with ``lam`` 0 adds zero terms, and a row at or
    past its wall divides the wall term by inf (zero, with no divide warning).  An added
    +0 may turn a -0 entry into +0, which Adam's moments cannot tell apart.
    """
    ee, grad, rf = problem.ee_and_gradient(p)
    np.negative(grad, out=grad)
    free_spend = (problem.c_free * p.compress(problem.free, axis=1) ** 2).sum(axis=1)
    lam = lam[:, None]
    if problem.full_qos:
        x = p - problem.p_min + eps
        grad -= lam * np.where(x > eps, 1.0 / np.maximum(x, eps), 0.0)
        slack = budget - rf + eps
    else:
        slack = budget - free_spend + eps
    wall = lam * 2.0 * problem.w_norms_sq * p / np.where(slack > eps, slack, np.inf)[:, None]
    grad += np.where(problem.free, wall, 0.0)
    return ee, grad, free_spend


# ---------------------------------------------------------------------------
# projection with gradient
# ---------------------------------------------------------------------------


def _project_with_grad(problem: PowerProblem, p_tilde: np.ndarray, scaling: np.ndarray, budget: np.ndarray):
    """Project the free users' entries of each row of ``p_tilde`` (slots, users) onto ``problem``'s face.

    A row is rescaled onto its entry of ``budget`` only where ``scaling`` (one
    flag per row) is set and its clamped point overspends; ``problem.budget``
    is never read, so any problem of the pool's face serves.  Returns the
    projected free coefficients and a closure mapping d(loss)/dp back to
    d(loss)/dp_tilde.
    """
    mask, c, p_m = problem.floor, problem.c_free, problem.floor_cost
    p_tilde = p_tilde.compress(problem.free, axis=1)  # C-ordered rows, unlike p_tilde[:, free]
    clamped = p_tilde > mask  # gradient passes only where the clamp is inactive
    p = np.maximum(p_tilde, mask)
    p_0 = (c * p * p).sum(axis=1)
    rows = np.flatnonzero(scaling & ~(p_0 <= budget))
    if not rows.size:
        return p, lambda d_p: d_p * clamped

    p_hat, p_0 = p[rows], p_0[rows]
    p_s, alpha = problem.scale_to_budget(p_hat, budget[rows], p_0)
    p = p.copy()
    p[rows] = p_s
    p_0 = p_0[:, None]

    def backward(d_p):
        d = d_p * clamped
        d_p = d_p[rows]
        safe_p = np.where(p_s > 0.0, p_s, 1.0)
        # diagonal term: dp_k/dp_hat_k at fixed alpha
        diag = np.where(p_s > 0.0, alpha * p_hat / safe_p, np.sqrt(alpha))
        # coupling through alpha's dependence on every clamped coefficient
        s = np.where(p_s > 0.0, d_p * (p_hat * p_hat - mask * mask) / (2.0 * safe_p), 0.0).sum(axis=1)
        d_alpha = -2.0 * alpha * c * p_hat / (p_0 - p_m)
        d[rows] = (d_p * diag + s[:, None] * d_alpha) * clamped[rows]
        return d

    return p, backward


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


def _ee_scale(problem: PowerProblem) -> float:
    """Per-instance EE scale so the default barrier weight is meaningful."""
    c = problem.c_free
    spread = np.sqrt(problem.budget / (len(c) * c)) if problem.budget > 0 else problem.floor
    ref = problem.objective(problem.project(spread))
    return ref if ref > 0 else 1.0


def _ceiling(problem: PowerProblem, cfg: TrainConfig) -> float:
    """The EE ceiling of every point a training of ``cfg`` on ``problem`` projects to: the problem's, or,
    for a clamp-only training (no budget scaling), that of its face without the budget."""
    return (problem if cfg.project_scaling else replace(problem, budget=math.inf)).ee_ceiling


def _step(weights, biases, problem: PowerProblem, features: np.ndarray, lam: np.ndarray, budget: np.ndarray,
          eps: float, scaling: np.ndarray, grads_w, grads_b):
    """One full-instance pass for every slot of a pool: what ``train_many`` runs each epoch.

    ``weights`` and ``biases`` are stacked layer views (``_layer_views`` of a
    2-D buffer); ``features``, ``lam``, ``budget`` and ``scaling`` hold each
    slot's feature vector, barrier weight, budget and projector flag.
    ``problem`` is any problem of the pool's face: each slot's budget is
    ``budget``'s entry, never ``problem.budget``.
    Forward pass, projection, one evaluation of EE and d(loss)/dp at the
    projected point, then backprop into the stacked gradient views
    ``grads_w`` and ``grads_b``.  Returns, per slot, the raw output, the
    projected coefficients of all users, the EE and the free users' spend.
    Every face takes one path: pinned coefficients are assembled into each
    row, and their gradient entries dropped before the projector's backward.
    """
    p_tilde, cache = _forward_trace(weights, biases, features)
    p_free, proj_backward = _project_with_grad(problem, p_tilde, scaling, budget)
    p = np.repeat(problem.pinned_p[None], len(p_free), axis=0)  # PowerProblem.assemble, row by row
    p[:, problem.free] = p_free
    ee, d_p, free_spend = _evaluate(p, problem, lam, budget, eps)
    d_p_tilde = np.zeros(p_tilde.shape)
    d_p_tilde[:, problem.free] = proj_backward(d_p.compress(problem.free, axis=1))
    _backward(weights, cache, d_p_tilde, grads_w, grads_b)
    return p_tilde, p, ee, free_spend


@dataclass
class _Slot:
    """A job in the pool: its position in ``train_many``'s list, its configuration and its progress."""

    index: int
    cfg: TrainConfig
    net: MlpNetwork  # holds the best checkpoint
    ee_scale: float  # the job's problem's ``_ee_scale``
    epoch: int = 0
    log: TrainingLog = field(default_factory=TrainingLog)

    def barrier_weight(self) -> float:
        """This epoch's barrier weight: halved every ``anneal_every`` epochs, in units of ``ee_scale``."""
        if not self.cfg.use_soft_loss:
            return 0.0
        return BARRIER_WEIGHT * 0.5 ** ((self.epoch - 1) // self.cfg.anneal_every) * self.ee_scale


def _adam_step(params, grads, m, v, tmp, epochs) -> None:
    """One Adam update of each row of ``params`` from its row of ``grads``, row i at epoch ``epochs[i]`` (from 1).

    Adam with its bias corrections folded into the step size (Kingma & Ba
    2015, sec. 2): ``m`` and ``v`` hold unnormalised moment sums
    M <- b1 M + g and V <- b2 V + g^2, and p -= (M a) / (sqrt(V) + e) with
    s = sqrt((1 - b2) / (1 - b2^t)), a = STEP_SIZE (1 - b1) / ((1 - b1^t) s)
    and e = ADAM_EPS / s, per row as Python floats (at t = 1, exactly
    STEP_SIZE and ADAM_EPS for the shipped constants).  One division and one
    square root per parameter; ``grads`` and ``tmp`` are overwritten.
    """
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    s = [math.sqrt((1.0 - b2) / (1.0 - b2**t)) for t in epochs]
    a = np.array([STEP_SIZE * (1.0 - b1) / ((1.0 - b1**t) * r) for t, r in zip(epochs, s)])[:, None]
    e = np.array([ADAM_EPS / r for r in s])[:, None]
    m *= b1
    m += grads
    v *= b2
    np.multiply(grads, grads, out=tmp)
    v += tmp
    np.sqrt(v, out=tmp)
    tmp += e
    np.multiply(m, a, out=grads)
    grads /= tmp
    params -= grads


def train_many(jobs) -> Iterator[tuple[int, MlpNetwork]]:
    """Train one network per ``(problem, cfg)`` job; yields (position in ``jobs``, network) pairs.

    Each epoch is one full-instance step: forward pass, projection, barrier
    loss gradient, Adam update (``_adam_step``).  The barrier weight is halved
    every ``anneal_every`` epochs and internally rescaled by the instance's EE
    magnitude so the configured weight is unit-free.  Early stopping tracks
    the barrier-free EE of the projected output and the best checkpoint is
    returned.  An epoch is a new best only if its EE exceeds the best by
    more than ``MIN_GAIN`` relative (EE is never negative, so the product
    form holds at the initial -inf and at 0); training stops ``PATIENCE``
    epochs after the last new best, at ``max_epochs``, or at once when the
    best EE is within ``MIN_GAIN`` of the job's EE ceiling (``_ceiling``,
    taken once as the job enters the pool): no later epoch could be a new
    best, so the checkpoint is final.

    The jobs' problems must share one stage-1 face (``PowerProblem.shares_face``):
    they may differ only in budget.  Otherwise the first ``next`` raises
    ``ValueError``.  Up to ``POOL_SLOTS`` jobs train side by side.  Their
    parameters, gradients, Adam moments, feature vectors and budgets are
    rows of stacked arrays, so one set of numpy calls runs an epoch of every
    slot.  Each slot keeps its own epoch count, barrier weight and early
    stopping; when its job stops, the next job takes the row.  A row sees
    exactly the floating-point operations of a lone training (the batched
    products are one vector-matrix product per row, sums run along C-ordered
    rows, the budget enters only elementwise, and Adam's bias corrections
    enter as per-slot scalars ``a`` and ``e``, Python floats from the slot's
    epoch), so every network and its ``TrainingLog`` are bit-identical to
    training that job alone.

    Networks are yielded as their trainings stop, so the pool holds at most
    ``POOL_SLOTS`` of them.  Once the jobs before the first one in ``jobs``
    that diverges have been yielded, raises the ``TrainingError`` that job
    raises when trained alone.
    """
    jobs = list(jobs)
    if not jobs:
        return
    face = jobs[0][0]  # the pool's face: only its budget differs from the other jobs' problems
    if not all(problem.shares_face(face) for problem, _ in jobs):
        raise ValueError("train_many's problems must share one stage-1 face: they may differ only in budget")
    widths = (3 * face.n_users + 1, *HIDDEN, face.n_users)
    capacity = min(POOL_SLOTS, len(jobs))
    params, grads, m1, v1, tmp = np.zeros((5, capacity, _param_count(widths)))
    features = np.zeros((capacity, widths[0]))
    budget = np.zeros(capacity)

    queue = deque(enumerate(jobs))
    slots: list[_Slot] = []
    failure: _Slot | None = None  # the diverged slot earliest in ``jobs``
    view_rows = -1
    while queue or slots:
        while queue and len(slots) < capacity:
            index, (problem, cfg) = queue.popleft()
            row = len(slots)
            slot = _Slot(index, cfg, network_for(problem, cfg), _ee_scale(problem),
                         log=TrainingLog(ceiling=_ceiling(problem, cfg)))
            params[row] = slot.net.params
            m1[row] = 0.0
            v1[row] = 0.0
            features[row] = problem_features(problem)
            budget[row] = problem.budget
            slots.append(slot)
            view_rows = -1
        n = len(slots)
        if n != view_rows:
            weights, biases = _layer_views(params[:n], widths)
            grads_w, grads_b = _layer_views(grads[:n], widths)
            scaling = np.array([slot.cfg.project_scaling for slot in slots])
            view_rows = n
        for slot in slots:
            slot.epoch += 1
        lam = np.array([slot.barrier_weight() for slot in slots])

        # divergence is detected explicitly below, so transient overflow in a
        # diverging pass is expected rather than a numerics bug
        with np.errstate(over="ignore", invalid="ignore"):
            p_tilde, _, val, free_spend = _step(
                weights, biases, face, features[:n], lam, budget[:n], BARRIER_EPS, scaling, grads_w, grads_b,
            )
        finite = (np.isfinite(p_tilde).all(axis=1) & np.isfinite(val)).tolist()
        overshoot = (free_spend - budget[:n]).tolist()
        val = val.tolist()

        done = []
        for row, slot in enumerate(slots):
            log = slot.log
            if not finite[row]:
                if failure is None or slot.index < failure.index:
                    failure = slot
                done.append(row)
                continue
            log.max_budget_overshoot = max(log.max_budget_overshoot, overshoot[row])
            if val[row] > log.best_ee * (1.0 + MIN_GAIN):
                log.best_ee, log.best_epoch = val[row], slot.epoch
                slot.net.params[:] = params[row]
            if (slot.epoch - log.best_epoch >= PATIENCE or slot.epoch == slot.cfg.max_epochs
                    or log.best_ee * (1.0 + MIN_GAIN) >= log.ceiling):
                log.stopped_epoch = slot.epoch
                slot.net.log = log
                done.append(row)
        if failure is not None:  # jobs after the first divergence in ``jobs`` need not train on
            queue = deque(item for item in queue if item[0] < failure.index)
            done = [row for row, slot in enumerate(slots) if row in done or slot.index > failure.index]
        for row in reversed(done):  # fill each freed row from the last one
            if slots[row].net.log is not None:
                yield slots[row].index, slots[row].net
            last = len(slots) - 1
            if row != last:
                for a in (params, grads, m1, v1, features, budget):
                    a[row] = a[last]
                slots[row] = slots[last]
            slots.pop()
            view_rows = -1

        n = len(slots)
        if n:
            _adam_step(params[:n], grads[:n], m1[:n], v1[:n], tmp[:n], [slot.epoch for slot in slots])

    if failure is not None:
        raise TrainingError(failure.epoch, failure.cfg.seed)


def train(problem: PowerProblem, cfg: TrainConfig | None = None) -> MlpNetwork:
    """Optimize the network on one instance with in-loop feasibility projection: a pool of one."""
    return next(train_many([(problem, cfg or TrainConfig())]))[1]


def trained_coefficients(net: MlpNetwork, problem: PowerProblem, scaling: bool = True) -> np.ndarray:
    """Projected coefficient vector produced by a trained network."""
    p_tilde = mlp_forward(net, problem_features(problem))
    p_free = _project_with_grad(problem, p_tilde[None], np.array([scaling]), np.array([problem.budget]))[0]
    return problem.assemble(p_free[0])
