"""Predictive models and training.

Maps beneficiary features to per-arm transition tensors and trains them
under four losses: MSE, NLL, the simulation-based decision loss
(Whittle planning + Monte Carlo rollouts), and the decomposed decision
loss (analytic dual layer). Everything is plain numpy with hand-derived
gradients; the models are small enough that this is both fast and exact.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from . import dec_layer
from .dec_layer import RegularizerConfig, SolverConfig, solve_stack
from .mdp import (
    ENGAGEMENT,
    NumericError,
    RewardSpec,
    checked_transitions,
    run_tasks,
    solve_policies,
    whittle_gradients,
    whittle_indices,
)
from .planning import Cohort, SimulationResult, rollout, simulation_horizon, whittle_act
from .datasets import Dataset, transition_counts

logger = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Predictive models


@dataclass(frozen=True)
class ModelSpec:
    """Architecture: `layers` ReLU hidden layers of width `hidden_dim`; linear at layers=0."""

    layers: int = 0
    hidden_dim: int = 64

    def __post_init__(self):
        # [hidden_dim] * layers is empty for a negative count, and a zero width
        # builds empty layers whose init divides by sqrt(0)
        for name, least in (("layers", 0), ("hidden_dim", 1)):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < least:
                raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")


class PredictiveModel:
    """Feature -> transition-tensor predictor with manual backprop.

    Emits one logit per (s, a, s') triple and normalizes each (s, a) row
    with a softmax, so predictions are valid stochastic tensors by
    construction. All parameters live in one vector, `theta`, which
    model files store; `backward` returns dL/dθ in the same layout.
    """

    def __init__(
        self,
        spec: ModelSpec,
        feature_dim: int,
        num_states: int,
        seed: int = 0,
        theta: np.ndarray | None = None,
    ):
        """A model of `spec`, its θ drawn from `seed`, or copied from `theta`
        (laid out like θ) with nothing drawn."""
        self.feature_dim = feature_dim
        self.num_states = num_states
        dims = [feature_dim] + [spec.hidden_dim] * spec.layers + [num_states * 2 * num_states]
        # θ's layout: every weight matrix, then every bias, each raveled in C order
        shapes = list(zip(dims[:-1], dims[1:])) + [(fan_out,) for fan_out in dims[1:]]
        ends = np.cumsum([np.prod(shape) for shape in shapes]).tolist()
        self._layout = list(zip(map(slice, [0] + ends[:-1], ends), shapes))
        self.theta = np.zeros(ends[-1])
        if theta is not None:
            self.set_theta(theta)
            return
        rng = np.random.default_rng(seed)
        for W in self._layers(self.theta)[0]:
            W[...] = rng.standard_normal(W.shape) * 0.01 / np.sqrt(W.shape[0])

    def _layers(self, vector: np.ndarray) -> tuple[list, list]:
        """(weights, biases) of a vector laid out like θ, as views into it; built per
        call, never stored, so that an unpickled model's layers follow its θ."""
        views = [vector[part].reshape(shape) for part, shape in self._layout]
        half = len(views) // 2
        return views[:half], views[half:]

    # -- forward / backward ------------------------------------------------

    def forward(self, features: np.ndarray):
        """Returns ((N, S, 2, S) tensors, cache for backward).

        The tensors are a view of (S, 2, S', N) memory, arms last, and the
        softmax reduces over the S' axis of that memory.
        """
        x = np.asarray(features, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.feature_dim:
            raise ValueError(
                f"expected features of shape (N, {self.feature_dim}), got {x.shape}"
            )
        weights, biases = self._layers(self.theta)
        activations = [x]
        h = x
        for W, b in zip(weights[:-1], biases[:-1]):
            h = np.maximum(h @ W + b, 0.0)
            activations.append(h)
        s = self.num_states
        logits = np.matmul(weights[-1].T, h.T)  # (S*2*S', N)
        logits += biases[-1][:, None]
        probs = logits.reshape(s, 2, s, -1)
        probs -= probs.max(axis=2, keepdims=True)
        np.exp(probs, out=probs)
        probs /= probs.sum(axis=2, keepdims=True)
        return probs.transpose(3, 0, 1, 2), (activations, probs)

    def backward(self, cache, grad_tensors: np.ndarray) -> np.ndarray:
        """dL/dθ given dL/dtensors, one vector laid out like θ.

        grad_tensors is (N, S, 2, S); a view of (S, 2, S', N) memory, as
        PolicySolve.gradient returns, is read without a copy.
        """
        activations, probs = cache
        grad_probs = np.ascontiguousarray(grad_tensors.transpose(1, 2, 3, 0))
        grad_logits = grad_probs * probs
        inner = grad_logits.sum(axis=2, keepdims=True)
        np.subtract(grad_probs, inner, out=grad_logits)
        grad_logits *= probs
        weights = self._layers(self.theta)[0]
        g = grad_logits.reshape(weights[-1].shape[1], -1).T  # (N, S*2*S')
        grad = np.empty_like(self.theta)
        grad_w, grad_b = self._layers(grad)
        for layer in range(len(weights) - 1, -1, -1):
            np.matmul(activations[layer].T, g, out=grad_w[layer])
            g.sum(axis=0, out=grad_b[layer])
            if layer > 0:
                g = (g @ weights[layer].T) * (activations[layer] > 0)
        return grad

    def set_theta(self, theta: np.ndarray) -> None:
        """Copy a parameter vector laid out like θ into the model."""
        if np.shape(theta) != self.theta.shape:
            raise ValueError(f"theta of shape {np.shape(theta)}, the model's {self.theta.shape}")
        self.theta[...] = theta


# ---------------------------------------------------------------------------
# Losses. Each returns (value, dL/dtensors) so training can chain
# model.backward; decision losses are returns (to maximize).


def mse_loss(pred: np.ndarray, truth: np.ndarray) -> tuple[float, np.ndarray]:
    pred = np.asarray(pred, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if pred.shape != truth.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {truth.shape}")
    diff = pred - truth
    value = float(np.mean(diff * diff))
    return value, 2.0 * diff / diff.size


def nll_loss(pred: np.ndarray, counts: np.ndarray) -> tuple[float, np.ndarray]:
    """Negative log likelihood of observed (N, S, 2, S) transition counts under the predictions."""
    pred = np.asarray(pred, dtype=float)
    if pred.shape != counts.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {counts.shape}")
    clipped = np.clip(pred, 1e-12, None)
    value = float(-np.sum(counts * np.log(clipped)))
    grad = -counts / clipped
    return value, grad


# -- SIM-DFL ----------------------------------------------------------------

TEMPERATURE = 0.1  # tau of the soft top-B selection


def _soft_top_b_probs(
    scores: np.ndarray, budget: float, out: np.ndarray | None = None, work: np.ndarray | None = None
) -> np.ndarray:
    """Soft top-B marginals p_i = sigmoid((w_i - theta) / tau), with theta
    chosen per row so that sum_i p_i = B, for 0 < B < N.

    Safeguarded Newton per row on h(theta) = log sum_i p_i - log B, whose
    slope is -sum_i p_i (1 - p_i) / (tau sum_i p_i). The bracket runs from
    the (floor(B)+1)-th largest score - 40 tau, where sum p > B, to the
    ceil(B)-th largest + 40 tau, where sum p < B. One `np.partition` at the
    first gives both: the second is the same score when B is fractional,
    and otherwise the least score above the kth. Newton starts at the
    midpoint of those two scores, bisects when a step leaves the bracket,
    and stops a row once |sum p - B| <= 1e-12 B, after at most 60 sweeps.

    Every sweep runs over all rows; a finished row keeps its theta, so it
    recomputes the same p. `out` and `work`, arrays of the scores' shape,
    take the marginals and the scratch space when given.
    """
    n = scores.shape[1]
    k_lo = n - int(np.floor(budget)) - 1
    part = np.partition(scores, k_lo, axis=1)
    low = part[:, k_lo]
    high = low if n - int(np.ceil(budget)) == k_lo else part[:, k_lo + 1:].min(axis=1)
    lo = low - 40.0 * TEMPERATURE
    hi = high + 40.0 * TEMPERATURE
    theta = 0.5 * (low + high)
    p = np.empty(scores.shape) if out is None else out
    z = np.empty(scores.shape) if work is None else work
    # a row whose p are all 0 or 1 has no slope: its inf or nan step bisects
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(60):
            np.subtract(scores, theta[:, None], out=z)
            z /= TEMPERATURE
            _sigmoid(z, out=p, work=z)
            mass = p.sum(axis=1)
            going = ~(np.abs(mass - budget) <= 1e-12 * budget)
            if not going.any():
                break
            # a finished row keeps its theta, lo and hi
            too_big = mass > budget
            lo = np.where(going & too_big, theta, lo)
            hi = np.where(going & ~too_big, theta, hi)
            np.subtract(1, p, out=z)
            z *= p
            step = theta + TEMPERATURE * mass * np.log(mass / budget) / z.sum(axis=1)
            step = np.where((lo < step) & (step < hi), step, 0.5 * (lo + hi))
            theta = np.where(going, step, theta)
    return p


def _sigmoid(x: np.ndarray, out: np.ndarray | None = None, work: np.ndarray | None = None):
    """1/(1+exp(-x)) for x >= 0 and exp(x)/(1+exp(x)) below, without a mask.

    `out` and `work`, arrays of x's shape, take the result and the
    denominator when given; work may be x itself.
    """
    num = np.minimum(x, 0, out=out)
    np.exp(num, out=num)
    den = np.abs(x, out=work)
    np.negative(den, out=den)
    np.exp(den, out=den)
    den += 1
    return np.divide(num, den, out=num)


def _score_term(
    actions: np.ndarray,
    p: np.ndarray,
    out: np.ndarray | None = None,
    work: np.ndarray | None = None,
) -> np.ndarray:
    """d log P(actions | w) / dw for 0/1 actions drawn from the soft top-B marginals p.

    With sigma'_i = p_i (1 - p_i) and dtheta/dw_i = sigma'_i / sum_k sigma'_k,
    the sigma' of the Bernoulli likelihood cancels:
    ((a - p) - dtheta/dw * sum_k (a_k - p_k)) / tau. The actions may be
    bool. `out` and `work`, arrays of p's shape, take the result and the
    scratch space when given.
    """
    dtheta_dw = np.subtract(1.0, p, out=work)
    dtheta_dw *= p
    dtheta_dw /= np.maximum(dtheta_dw.sum(axis=1, keepdims=True), 1e-12)
    excess = np.subtract(actions, p, out=out)
    dtheta_dw *= excess.sum(axis=1, keepdims=True)
    excess -= dtheta_dw
    excess /= TEMPERATURE
    return excess


def sim_dfl_loss(
    pred: np.ndarray, cohort: Cohort, trajectories: int, seed: int
) -> tuple[float, np.ndarray]:
    """Simulated decision loss of the Whittle top-B policy (a return).

    The policy's Whittle indices come from the predictions; `rollout`
    steps the true dynamics. Each step samples actions from a
    temperature-smoothed top-B selection of the current-state indices
    (every arm acts when B >= N, and then the gradient is zero). The
    gradient combines the score-function term of those samples with the
    implicit derivatives of the Whittle indices. Sampling is
    common-random-number coupled through the seed. Every step works in
    the same (trajectories, N) arrays, made once per call.
    """
    pred = np.asarray(pred, dtype=float)
    if pred.shape != cohort.tensors.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {cohort.tensors.shape}")
    if trajectories < 1:
        raise ValueError(f"trajectories must be at least 1, got {trajectories}")
    n, num_states = pred.shape[0], pred.shape[1]
    wi, wi_grads = whittle_gradients(pred, cohort.setup)
    rng = np.random.default_rng(seed)
    score_wi = np.zeros((trajectories, n, num_states))  # d log P / d WI[i, s]
    # row-major codes S*i + s of (arm, state) into the flat indices
    flat_wi, arm_codes = wi.ravel(), num_states * np.arange(n)
    codes = np.empty((trajectories, n), dtype=np.intp)
    scores, p, work, u = (np.empty((trajectories, n)) for _ in range(4))
    actions, in_state = (np.empty((trajectories, n), dtype=bool) for _ in range(2))

    def act(states):
        np.add(states, arm_codes, out=codes)
        flat_wi.take(codes, out=scores, mode="clip")  # every code is in range
        _soft_top_b_probs(scores, cohort.budget, out=p, work=work)
        np.less(rng.random(out=u), p, out=actions)
        term = _score_term(actions, p, out=u, work=scores)
        # each (trajectory, arm) sits in one state. The term is finite, so
        # the other states add +-0.0 to sums that are never -0.0: no bit moves
        for s in range(num_states):
            np.equal(states, s, out=in_state)
            np.multiply(term, in_state, out=work)
            score_wi[..., s] += work
        return actions

    returns, _ = rollout(cohort, trajectories, rng, np.ones_like if cohort.budget >= n else act)
    centered = returns - returns.mean()  # baseline reduces estimator variance
    grad_wi = np.einsum("t,tis->is", centered, score_wi) / trajectories
    # written batch-last, as PolicySolve.gradient writes, for model.backward
    grad_pred = np.einsum("is,isjak->jaki", grad_wi, wi_grads)
    return float(returns.mean()), grad_pred.transpose(3, 0, 1, 2)


# ---------------------------------------------------------------------------
# Training


LOSSES = ("mse", "nll", "sim-dfl", "fast-dec-dfl")
PATIENCE = 10  # validation epochs without improvement before training stops


@dataclass(frozen=True)
class LossSpec:
    name: str  # one of LOSSES
    trajectories: int = 100
    alpha: float = 1.0

    def __post_init__(self):
        if self.name not in LOSSES:
            raise ValueError(f"unknown loss {self.name!r}")
        if self.trajectories < 1:
            raise ValueError(f"trajectories must be at least 1, got {self.trajectories}")
        # the layer's config rejects it too, but only once training has started
        if not 0.0 < self.alpha < np.inf:
            raise ValueError(f"alpha must be finite and positive, got {self.alpha}")

    @property
    def maximize(self) -> bool:
        return self.name in ("sim-dfl", "fast-dec-dfl")


@dataclass(frozen=True)
class TrainingConfig:
    loss: LossSpec
    learning_rate: float = 1e-2
    epochs: int = 50
    seed: int = 0
    model: ModelSpec = field(default_factory=ModelSpec)

    def __post_init__(self):
        if not 0.0 < self.learning_rate < np.inf:
            raise ValueError(f"learning rate must be finite and positive, got {self.learning_rate}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be at least 1, got {self.epochs}")
        if self.seed < 0:
            raise ValueError(f"seed must be at least 0, got {self.seed}")


@dataclass
class DatasetSplits:
    train: list[Cohort]
    val: list[Cohort]
    train_trajectories: list[np.ndarray] | None = None  # per-cohort transition counts
    val_trajectories: list[np.ndarray] | None = None


def dataset_splits(dataset: Dataset) -> DatasetSplits:
    """The train and val cohorts of a dataset, with each cohort's transition counts."""

    def counts(split):
        return [
            transition_counts(dataset.trajectories[i], dataset.manifest.states)
            for i in dataset.split_assignment[split]
        ]

    return DatasetSplits(
        train=dataset.cohort_objects("train"),
        val=dataset.cohort_objects("val"),
        train_trajectories=counts("train"),
        val_trajectories=counts("val"),
    )


class TrainingDiverged(NumericError):
    pass


class Adam:
    """Adaptive per-parameter step sizes; the standard first/second moment scheme."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, lr: float):
        self.lr = lr
        self.m = None
        self.v = None
        self.t = 0

    def step(self, theta: np.ndarray, grad: np.ndarray) -> None:
        """One update of the moments and of theta, all in place."""
        if self.m is None:
            self.m = np.zeros_like(theta)
            self.v = np.zeros_like(theta)
        self.t += 1
        self.m *= self.beta1
        self.m += (1 - self.beta1) * grad
        self.v *= self.beta2
        self.v += (1 - self.beta2) * grad * grad
        m_hat = self.m / (1 - self.beta1 ** self.t)
        v_hat = self.v / (1 - self.beta2 ** self.t)
        theta -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def _cohort_loss(
    model: PredictiveModel,
    cohort: Cohort,
    counts: np.ndarray | None,
    spec: LossSpec,
    seed: int,
) -> tuple[float, np.ndarray, tuple]:
    tensors, cache = model.forward(cohort.features)
    name = spec.name
    if name == "mse":
        value, grad = mse_loss(tensors, cohort.tensors)
    elif name == "nll":
        if counts is None:
            raise ValueError("nll loss needs transition counts")
        value, grad = nll_loss(tensors, counts)
    elif name == "fast-dec-dfl":
        reg = RegularizerConfig(alpha=spec.alpha)
        cfg = SolverConfig(budget=cohort.budget, gamma=cohort.setup.gamma)
        value, grad = dec_layer.dec_dfl_loss(
            tensors, cohort.tensors, reg, cfg, cohort.setup, true_returns=cohort.true_returns
        )
    else:  # sim-dfl, the one name left that LossSpec accepts
        value, grad = sim_dfl_loss(tensors, cohort, spec.trajectories, seed)
    return value, grad, cache


def run_epoch(
    model: PredictiveModel,
    optimizer: Adam | None,
    cohorts: list[Cohort],
    trajectories: list[np.ndarray] | None,
    spec: LossSpec,
    seed: int,
) -> float:
    """One pass over the cohorts; updates parameters if an optimizer is given.

    `trajectories` holds each cohort's transition counts (only NLL reads
    them). Returns the mean loss value across cohorts.
    """
    total = 0.0
    sign = -1.0 if spec.maximize else 1.0
    for k, cohort in enumerate(cohorts):
        counts = trajectories[k] if trajectories is not None else None
        value, grad_tensors, cache = _cohort_loss(model, cohort, counts, spec, seed + 7919 * k)
        if not np.isfinite(value):
            raise TrainingDiverged(f"non-finite loss {value} on cohort {k}")
        total += value
        if optimizer is not None:
            optimizer.step(model.theta, model.backward(cache, sign * grad_tensors))
    return total / max(len(cohorts), 1)


def train(
    config: TrainingConfig, data: DatasetSplits
) -> tuple[PredictiveModel, list[dict], float]:
    """Gradient training with validation-based early stopping.

    Decision losses are ascended, MSE/NLL descended. Returns the model with
    the parameters of the best validation epoch, the log (one record per
    (epoch, split) with the seconds of its own pass, each tagged with the
    run's lr and seed), and that epoch's validation value.
    """
    if not data.train:
        raise ValueError("empty training split")
    if not data.val:
        raise ValueError("empty validation split")
    feature_dim = data.train[0].features.shape[1]
    num_states = data.train[0].num_states
    model = PredictiveModel(config.model, feature_dim, num_states, seed=config.seed)
    optimizer = Adam(config.learning_rate)
    spec = config.loss
    log: list[dict] = []
    tags = {"lr": config.learning_rate, "seed": config.seed}
    best_score, best_value = np.inf, np.nan
    best_theta = model.theta.copy()
    stale = 0
    for epoch in range(config.epochs):
        start = time.perf_counter()
        train_value = run_epoch(
            model, optimizer, data.train, data.train_trajectories, spec, config.seed + epoch
        )
        trained = time.perf_counter()
        val_value = run_epoch(
            model, None, data.val, data.val_trajectories, spec, config.seed
        )
        elapsed, val_elapsed = trained - start, time.perf_counter() - trained
        passes = (("train", train_value, elapsed), ("val", val_value, val_elapsed))
        for split, value, seconds in passes:
            log.append({"epoch": epoch, "split": split, "loss": spec.name, "value": value,
                        "seconds": seconds, **tags})
        logger.debug(
            "lr=%g seed=%d epoch %d: train %.6g in %.3f s, val %.6g in %.3f s",
            config.learning_rate, config.seed, epoch, train_value, elapsed, val_value, val_elapsed,
        )
        score = -val_value if spec.maximize else val_value
        if score < best_score - 1e-12:
            best_score, best_value = score, val_value
            best_theta = model.theta.copy()
            stale = 0
        else:
            stale += 1
            if stale > PATIENCE:
                break
    model.set_theta(best_theta)
    logger.info(
        "lr=%g seed=%d: %s best val %.6g after %d epochs",
        config.learning_rate, config.seed, spec.name, best_value, epoch + 1,
    )
    return model, log, best_value


# ---------------------------------------------------------------------------
# Decision-quality evaluation

EVAL_ALPHA = 1e-3  # entropy weight of the decomposed evaluation solve


@dataclass(frozen=True)
class DQReport:
    joint_dq: float | None
    joint_dq_se: float | None  # standard error of joint_dq over the rollouts
    decomposed_dq: float
    never_act_dq: float
    perfect_joint_dq: float | None
    perfect_joint_dq_se: float | None
    perfect_decomposed_dq: float
    normalized_joint_dq: float | None
    normalized_decomposed_dq: float | None


def _checked_predictions(predictions, cohorts: list[Cohort], explicit: bool) -> list[np.ndarray]:
    """The predictions as float arrays, one per cohort, each shaped like its
    cohort's (N, S, 2, S) tensors; explicit ones must pass
    checked_transitions too (a model's are a softmax of finite logits).
    Anything else raises ValueError."""
    if len(predictions) != len(cohorts):
        raise ValueError(f"got {len(predictions)} predictions for {len(cohorts)} cohorts")
    arrays = [np.asarray(pred, dtype=float) for pred in predictions]
    for k, (pred, cohort) in enumerate(zip(arrays, cohorts)):
        if pred.shape != cohort.tensors.shape:
            raise ValueError(
                f"prediction {k} has shape {pred.shape}, its cohort {cohort.tensors.shape}"
            )
        if explicit:
            checked_transitions(pred, 1, f"prediction {k}")
    return arrays


def _decomposed_dq(predictions: list[np.ndarray], cohorts: list[Cohort]) -> tuple[list, list]:
    """Decomposed DQ of every prediction and of every cohort's truth.

    The truth's value is the perfect-decomposed anchor. Cohorts that share
    N, S, gamma and initial distribution form one group: its predictions
    are solved by one solve_policies call, and its C predicted and C
    anchor problems by one solve_stack of 2C problems. Returns the two
    per-cohort value lists.
    """
    groups: dict[tuple, list[int]] = {}
    for k, cohort in enumerate(cohorts):
        setup = cohort.setup
        key = (cohort.tensors.shape, setup.gamma, setup.initial_dist.tobytes())
        groups.setdefault(key, []).append(k)
    reg = RegularizerConfig(alpha=EVAL_ALPHA)
    values, anchors = [0.0] * len(cohorts), [0.0] * len(cohorts)
    for members in groups.values():
        count, n_arms = len(members), cohorts[members[0]].num_arms
        # the group's predictions joined along the arm axis of (S, 2, S', C*N) memory
        joined = np.concatenate([predictions[k].transpose(1, 2, 3, 0) for k in members], axis=-1)
        solved = solve_policies(joined.transpose(3, 0, 1, 2), cohorts[members[0]].setup)
        # the group's (P, C*N) returns, split by cohort
        j_pred = solved.returns(RewardSpec(ENGAGEMENT)).reshape(-1, count, n_arms)
        j_true = np.stack([cohorts[k].true_returns[0] for k in members])
        j_budget = np.stack([cohorts[k].true_returns[1] for k in members])
        # 2C problems: the predictions, then the anchors on the truth
        true_twice = np.concatenate([j_true, j_true])
        cfgs = [SolverConfig(cohorts[k].budget, cohorts[k].setup.gamma) for k in members]
        start = time.perf_counter()
        sol = solve_stack(
            np.concatenate([j_pred.swapaxes(0, 1), j_true]),
            np.concatenate([j_budget, j_budget]),
            reg,
            cfgs * 2,
        )
        seconds = time.perf_counter() - start
        solved_values = (sol.z_star * true_twice).reshape(2 * count, -1).sum(axis=1).tolist()
        for k, value, anchor in zip(members, solved_values, solved_values[count:]):
            values[k], anchors[k] = value, anchor
        logger.debug(
            "decomposed eval solve of %d cohorts (%d problems): %d rounds, evaluations sum %d "
            "max %d, lambda* in [%.6g, %.6g], least slack %.3g, solved in %.3f s",
            count, 2 * count, sol.rounds, sol.evaluations.sum(), sol.evaluations.max(),
            sol.lambda_star.min(), sol.lambda_star.max(), sol.slack_xi.min(), seconds,
        )
    return values, anchors


def _joint_pass(
    pred: np.ndarray, cohort: Cohort, trajectories: int, seed: int
) -> tuple[list[SimulationResult], float]:
    """The predicted and the perfect Whittle top-B policy of one cohort,
    rolled out in one `rollout` pass: they share its draws, and each gets
    what its one-act `rollout` gives it from the same seed. Returns both
    results and the rollout's wall seconds."""
    budget, shape = int(round(cohort.budget)), (cohort.num_arms, cohort.num_states)
    indices = (whittle_indices(t, cohort.setup) for t in (pred, cohort.tensors))
    acts = [whittle_act(wi, budget, shape) for wi in indices]
    start = time.perf_counter()
    returns, budget_used = rollout(cohort, trajectories, np.random.default_rng(seed), *acts)
    results = [SimulationResult.of(r, b) for r, b in zip(returns, budget_used)]
    return results, time.perf_counter() - start


def evaluate_dq(
    model: PredictiveModel | None,
    cohorts: list[Cohort],
    trajectories: int = 1000,
    seed: int = 0,
    predictions: list[np.ndarray] | None = None,
) -> DQReport:
    """Joint and decomposed decision quality with never-act / perfect anchors.

    Either a model or explicit predictions must be given: exactly one
    array per cohort, shaped like that cohort's (N, S, 2, S) tensors, or
    ValueError; explicit predictions must pass checked_transitions too. An
    empty cohort list, whose means are undefined, raises ValueError too.
    Normalized values rescale so never-act maps to 0 and planning with the
    true tensors maps to 1; a degenerate rescale is reported as None. The
    decomposed columns come from one stacked dual solve per group of
    cohorts that share N, S, gamma and initial distribution, with each
    cohort's predicted and perfect-decomposed problems in the same stack
    (_decomposed_dq; a DEBUG record per solve gives its solver
    diagnostics and wall seconds); a cohort's values are those of solving
    it alone. The joint columns are means over cohorts of rollout
    estimates, with standard errors sqrt(sum_k se_k^2) / n. Cohort k's
    predicted and perfect Whittle top-B policies roll out in one `rollout`
    pass from seed + k (_joint_pass), and each gets the values that its
    one-act `rollout` gives it from that seed. The passes are mdp.run_tasks,
    so memory holds up to mdp.WORKERS passes at once; the results are
    summed, and a DEBUG record per pass (its size, seconds and budget use)
    is logged, in cohort order from the calling thread, so no output
    depends on the thread count. `mdp`'s WARNING of not-indexable arms may
    come from a pool thread. The decomposed solve runs first, on the
    calling thread, so that `Cohort.true_returns` is solved there and not
    in a pass.
    trajectories=0 skips the (slow) simulated joint evaluation and reports
    None for the joint columns, and starts no thread.
    """
    if trajectories < 0:
        raise ValueError(f"trajectories must be nonnegative, got {trajectories}")
    if seed < 0:
        raise ValueError(f"seed must be at least 0, got {seed}")
    if not cohorts:
        raise ValueError("no cohorts to evaluate")
    explicit = predictions is not None
    if not explicit:
        if model is None:
            raise ValueError("need a model or explicit predictions")
        predictions = [model.forward(c.features)[0] for c in cohorts]
    predictions = _checked_predictions(predictions, cohorts, explicit)
    dec_values, dec_anchors = _decomposed_dq(predictions, cohorts)
    joint = decomposed = never = perfect_joint = perfect_dec = 0.0
    joint_var = perfect_joint_var = 0.0
    passes = run_tasks(lambda k: _joint_pass(predictions[k], cohorts[k], trajectories, seed + k),
                       len(cohorts) if trajectories > 0 else 0)
    for k, (cohort, ((result, perfect), seconds)) in enumerate(zip(cohorts, passes)):
        logger.debug(
            "joint pass of cohort %d (predicted and perfect Whittle top-B): %d trajectories "
            "x %d steps in %.3f s, mean discounted budget used %.6g and %.6g of "
            "B/(1-gamma) = %.6g",
            k, trajectories, simulation_horizon(cohort.setup, cohort.num_arms), seconds,
            result.mean_budget_used, perfect.mean_budget_used,
            cohort.budget / (1 - cohort.setup.gamma),
        )
        joint += result.mean_return
        joint_var += result.std_error**2
        perfect_joint += perfect.mean_return
        perfect_joint_var += perfect.std_error**2
    for k, cohort in enumerate(cohorts):
        decomposed += dec_values[k]
        never += float(cohort.true_returns[0][0].sum())
        perfect_dec += dec_anchors[k]
    n = len(cohorts)
    joint, decomposed, never = joint / n, decomposed / n, never / n
    perfect_joint, perfect_dec = perfect_joint / n, perfect_dec / n
    joint_se, perfect_joint_se = joint_var**0.5 / n, perfect_joint_var**0.5 / n
    if trajectories == 0:
        joint = perfect_joint = joint_se = perfect_joint_se = None

    def _norm(value, perfect):
        if value is None:
            return None
        span = perfect - never
        if abs(span) < 1e-9:
            return None
        return (value - never) / span

    return DQReport(
        joint_dq=joint,
        joint_dq_se=joint_se,
        decomposed_dq=decomposed,
        never_act_dq=never,
        perfect_joint_dq=perfect_joint,
        perfect_joint_dq_se=perfect_joint_se,
        perfect_decomposed_dq=perfect_dec,
        normalized_joint_dq=_norm(joint, perfect_joint),
        normalized_decomposed_dq=_norm(decomposed, perfect_dec),
    )
