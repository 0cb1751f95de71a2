"""Feed-forward network trained per allocation instance to emit one water level, with hand-rolled backprop.

The network maps the instance's sufficient statistics (normalized channel
powers, QoS spectral efficiencies, beam costs, and the budget scale) to one
output s = softplus(z)^2, and s to a water level on the stage-1 face: the
height t = (L_B - b_min) G(s) above the face's lowest breakpoint b_min,
where L_B is the level that spends the budget (``PowerProblem.fill_height``)
and G(s) = 1 - e^-s < 1.  The free users' spends are the floored water-fill
at that level, y_k = lower_k + max(0, t - rise_k)
(``PowerProblem.above_floors``), so every output is on the face and within
the budget by construction: no projector, no barrier.  Stage 2's optimum on
a face is such a fill (``PowerProblem.ee_ceiling``), so the head loses
nothing.  The loss is the negative EE of the fill; its derivative in the
level is the closed form dEE/dL = n (B / (ln 2 L) - EE xi) / D over the n
users above their floors (both ``PowerProblem.level_ee``), chained through G
and the squared softplus.  A clamp-only training
(``TrainConfig.project_scaling`` False, the ablation) takes G(s) = s, so its
level may pass L_B and its spend the budget.

Optimization is Adam, its bias corrections folded into the step size
(``_adam_step``) and its momentum restarted whenever the EE falls (O'Donoghue
& Candès 2015), lest it carry the level past the optimum onto G's flat tail;
the best checkpoint is returned.  An epoch counts as a new best only if it
beats the best EE by more than ``MIN_GAIN`` (1e-10) relative.  Training stops
at the first of three: ``PATIENCE`` epochs without a new best, ``max_epochs``,
or a best EE within ``MIN_GAIN`` of the training's EE ceiling
(``PowerProblem.ee_ceiling``, an upper bound on the EE of every point the head
can output), past which no epoch can be a new best, so that stop moves no
checkpoint.

Trainings run in pools (``train_many``): their networks are rows of stacked
arrays, and each row reproduces a lone training bit for bit.  A pool's
problems share one stage-1 face (``PowerProblem.shares_face``) and may differ
in budget, so one pool serves several configurations of one instance or one
instance at several budgets; ``train_many`` opens a pool for each run of
consecutive jobs on one face.  Any one of a pool's problems stands for the
face: an epoch reads the fill's EE from it (``PowerProblem.level_ee``) and
each row's fill height from the pool.  Every row runs the same numpy calls,
and sums run on C-ordered rows.
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
STEP_SIZE = 4e-3  # Adam step size (chosen on epochs and gaps in BENCH_step_size.json)
POOL_SLOTS = 8  # jobs train_many trains side by side (width sweep in BENCH_pool_width.json)
ADAM_BETA1 = 0.9  # decay of the first-moment estimate
ADAM_BETA2 = 0.999  # decay of the second-moment estimate
ADAM_EPS = 1e-8  # added to the root of the second moment
_LN2 = math.log(2.0)


class TrainingError(RuntimeError):
    """Training produced a non-finite loss."""

    def __init__(self, epoch: int, seed: int):
        self.epoch, self.seed = epoch, seed
        super().__init__(f"non-finite loss at epoch {epoch} of the training with seed {seed}: the neural backend "
                         "diverged (check the RF budget and the scenario's and ledger's values, or try another seed)")


@dataclass
class TrainingLog:
    """Where training stopped and where the best checkpoint sat.

    ``best_epoch`` is the last epoch whose EE beat the best before it by
    more than ``MIN_GAIN`` relative; a later epoch with a smaller gain moves
    neither it nor the checkpoint.  ``ceiling`` bounds the EE of every point
    the training's head can output, so it also bounds the network's
    optimality gap (``_ceiling``; inf when patience alone applies); once
    ``best_ee`` is within ``MIN_GAIN`` of it, training stops at ``best_epoch``.
    """

    best_epoch: int = 0
    stopped_epoch: int = 0
    best_ee: float = -np.inf
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
    # unused: the level head has no barrier to anneal; it stays a field only because perfbench's ablation
    # re-solve passes 30, the value it had
    anneal_every: int = 30
    project_scaling: bool = True  # False: the level is not capped at the budget's (ablation)

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


def _forward_trace(weights, biases, x: np.ndarray):
    """Forward pass of a stack of networks (``_layer_views`` of stacked rows), one feature vector per row of ``x``.

    Returns the squared softplus of the last layer's output, one row per
    network, and the activation cache.  Each layer is one batched
    ``np.matmul``: a vector-matrix product per network, the same product a
    lone network makes.
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
    return sp * sp, (pre, post, sp)  # squared softplus keeps outputs positive with smooth gradients


def mlp_forward(net: MlpNetwork, features) -> np.ndarray:
    """The network's nonnegative outputs for one instance's features."""
    x = np.asarray(features, dtype=float)
    if x.shape != (net.layer_widths[0],):
        raise ValueError(
            f"feature length {x.shape} does not match input width {net.layer_widths[0]}"
        )
    out, _ = _forward_trace(*_layer_views(net.params[None], net.layer_widths), x[None])
    return out[0]


def _backward(weights, cache, d_out: np.ndarray, grads_w, grads_b) -> None:
    """Backprop from d(loss)/d(output), one row per network, into stacked gradient views.

    The weight gradients are outer products, written by ``np.einsum``.  It
    writes +0.0 where a product is -0.0; Adam's moments, and so the
    parameters, come out the same either way.
    """
    pre, post, sp = cache
    sigmoid = 1.0 / (1.0 + np.exp(-pre[-1]))
    delta = d_out * 2.0 * sp * sigmoid  # through the squared softplus
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
    """Network sized for the instance, its level started halfway: G(s) = 1/2, or s = 1/2 when uncapped.

    The head's weights start at zero and its bias where the squared softplus
    gives that s, so every seed starts from the same level.
    """
    net = init_network((3 * problem.n_users + 1, *HIDDEN, 1), seed=cfg.seed)
    s = _LN2 if cfg.project_scaling else 0.5
    net.weights[-1][:] = 0.0
    net.biases[-1][:] = math.log(math.expm1(math.sqrt(s)))  # the inverse softplus of sqrt(s)
    return net


# ---------------------------------------------------------------------------
# the level head
# ---------------------------------------------------------------------------


def _level(s: np.ndarray, capped):
    """G(s) and G'(s), per row: 1 - e^-s, below 1, where ``capped``, else s."""
    return np.where(capped, -np.expm1(-s), s), np.where(capped, np.exp(-s), 1.0)


def _ceiling(problem: PowerProblem, cfg: TrainConfig) -> float:
    """The EE ceiling of every point a training of ``cfg`` on ``problem`` can output: the problem's, or,
    for an uncapped level, that of its face without the budget."""
    return (problem if cfg.project_scaling else replace(problem, budget=math.inf)).ee_ceiling


def _step(weights, biases, face: PowerProblem, features: np.ndarray, height: np.ndarray, capped: np.ndarray,
          grads_w, grads_b):
    """One full-instance pass for every slot of a pool: what ``train_many`` runs each epoch.

    ``weights`` and ``biases`` are stacked layer views (``_layer_views`` of a
    2-D buffer); ``features``, ``height`` and ``capped`` hold each slot's
    feature vector, budget fill height (``PowerProblem.fill_height``) and
    whether its level is capped.  ``face`` is any problem of the pool's face.
    Forward pass, the level's EE and backprop of d(-EE)/ds into ``grads_w``
    and ``grads_b``; returns each slot's network output s and its EE.
    """
    s, cache = _forward_trace(weights, biases, features)
    g, dg = _level(s[:, 0], capped)
    _, ee, d_ee = face.level_ee(height * g)
    _backward(weights, cache, -(d_ee * height * dg)[:, None], grads_w, grads_b)
    return s, ee


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


@dataclass
class _Slot:
    """A job in the pool: its position in ``train_many``'s list, its configuration and its progress."""

    index: int
    cfg: TrainConfig
    net: MlpNetwork  # holds the best checkpoint
    epoch: int = 0
    log: TrainingLog = field(default_factory=TrainingLog)
    last_ee: float = -math.inf  # the EE of the slot's previous epoch


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

    Each epoch is one full-instance step (``_step``) and one Adam update
    (``_adam_step``), from a zeroed first moment if the EE fell (the momentum
    restart).  Early stopping tracks the EE of the level's fill and the best
    checkpoint is returned.  An epoch is a new best only if its EE exceeds the
    best by more than ``MIN_GAIN`` relative (EE is never negative, so the
    product form holds at the initial -inf and at 0); training stops
    ``PATIENCE`` epochs after the last new best, at ``max_epochs``, or at once
    when the best EE is within ``MIN_GAIN`` of the job's EE ceiling
    (``_ceiling``, taken once as the job enters the pool, with its fill
    height): no later epoch could be a new best, so the checkpoint is final.

    Jobs train in pools, one pool at a time: each run of consecutive jobs
    whose problems share one stage-1 face (``PowerProblem.shares_face``: they
    differ only in budget) is one pool, opened, with arrays sized for that
    face, once the pool before it has drained.  Up to ``POOL_SLOTS`` jobs of a
    pool train side by side.  Their parameters, gradients, Adam moments,
    feature vectors and fill heights are rows of stacked arrays, so one set
    of numpy calls runs an epoch of every slot.  Each slot keeps its own
    epoch count, momentum restarts and early stopping; when its job stops,
    the pool's next job takes the row.  A row sees
    exactly the floating-point operations of a lone training (the batched
    products are one vector-matrix product per row, sums run along C-ordered
    rows, the fill height enters only elementwise, and Adam's bias
    corrections enter as per-slot scalars ``a`` and ``e``, Python floats from
    the slot's epoch), so every network and its ``TrainingLog`` are
    bit-identical to training that job alone.

    Networks are yielded as their trainings stop, so the pool holds at most
    ``POOL_SLOTS`` of them.  Once the jobs before the first one in ``jobs``
    that diverges have been yielded, raises the ``TrainingError`` that job
    raises when trained alone.
    """
    queue = deque(enumerate(jobs))
    slots: list[_Slot] = []
    failure: _Slot | None = None  # the diverged slot earliest in ``jobs``
    view_rows = -1
    run = 0  # the open pool's jobs still queued
    while queue or slots:
        if not slots and not run:  # open a pool for the queued jobs up to the first on another face
            face = queue[0][1][0]  # the pool's face: only its budget differs from the other jobs' problems
            run = next((i for i, (_, (problem, _)) in enumerate(queue) if not problem.shares_face(face)), len(queue))
            widths = (3 * face.n_users + 1, *HIDDEN, 1)
            capacity = min(POOL_SLOTS, run)
            params, grads, m1, v1, tmp = np.zeros((5, capacity, _param_count(widths)))
            features = np.zeros((capacity, widths[0]))
            height = np.zeros(capacity)
        while run and len(slots) < capacity:
            run -= 1
            index, (problem, cfg) = queue.popleft()
            row = len(slots)
            slot = _Slot(index, cfg, network_for(problem, cfg), log=TrainingLog(ceiling=_ceiling(problem, cfg)))
            params[row] = slot.net.params
            m1[row] = 0.0
            v1[row] = 0.0
            features[row] = problem_features(problem)
            height[row] = problem.fill_height
            slots.append(slot)
            view_rows = -1
        n = len(slots)
        if n != view_rows:
            weights, biases = _layer_views(params[:n], widths)
            grads_w, grads_b = _layer_views(grads[:n], widths)
            capped = np.array([slot.cfg.project_scaling for slot in slots])
            view_rows = n
        for slot in slots:
            slot.epoch += 1

        # divergence is detected explicitly below, so transient overflow in a
        # diverging pass is expected rather than a numerics bug
        with np.errstate(over="ignore", invalid="ignore"):
            s, val = _step(weights, biases, face, features[:n], height[:n], capped, grads_w, grads_b)
        finite = (np.isfinite(s[:, 0]) & np.isfinite(val)).tolist()
        val = val.tolist()

        done = []
        for row, slot in enumerate(slots):
            log = slot.log
            if not finite[row]:
                if failure is None or slot.index < failure.index:
                    failure = slot
                done.append(row)
                continue
            if val[row] < slot.last_ee:  # the EE fell: restart the momentum
                m1[row] = 0.0
            slot.last_ee = val[row]
            if val[row] > log.best_ee * (1.0 + MIN_GAIN):
                log.best_ee, log.best_epoch = val[row], slot.epoch
                slot.net.params[:] = params[row]
            if (slot.epoch - log.best_epoch >= PATIENCE or slot.epoch == slot.cfg.max_epochs
                    or log.best_ee * (1.0 + MIN_GAIN) >= log.ceiling):
                log.stopped_epoch = slot.epoch
                slot.net.log = log
                done.append(row)
        if failure is not None:  # queued jobs come after every slot in ``jobs``, so after the divergence: none trains
            queue.clear()
            run = 0
            done = [row for row, slot in enumerate(slots) if row in done or slot.index > failure.index]
        for row in reversed(done):  # fill each freed row from the last one
            if slots[row].net.log is not None:
                yield slots[row].index, slots[row].net
            last = len(slots) - 1
            if row != last:
                for a in (params, grads, m1, v1, features, height):
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
    """Optimize the network on one instance: a pool of one."""
    return next(train_many([(problem, cfg or TrainConfig())]))[1]


def trained_coefficients(net: MlpNetwork, problem: PowerProblem, scaling: bool = True) -> np.ndarray:
    """All users' coefficients (``PowerProblem.coefficients_at``) at the water level a trained network outputs;
    with ``scaling`` False, uncapped."""
    (g,), _ = _level(mlp_forward(net, problem_features(problem)), scaling)
    return problem.coefficients_at(problem.fill_height * g)
