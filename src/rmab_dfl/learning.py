"""Predictive models and training.

Maps beneficiary features to per-arm transition tensors and trains them
under four losses: MSE, NLL, the simulation-based decision loss
(Whittle planning + Monte Carlo rollouts), and the decomposed decision
loss (analytic dual layer). Everything is plain numpy with hand-derived
gradients; the models are small enough that this is both fast and exact.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import dec_layer
from .dec_layer import RegularizerConfig, ReturnsTable, SolverConfig, forward_pass
from .mdp import (
    ENGAGEMENT,
    NumericError,
    RewardSpec,
    WhittleTable,
    solve_policies,
    whittle_gradients,
    whittle_indices,
)
from .planning import Cohort, SimulationResult, WhittleTopB, rollout, simulate_joint
from .datasets import Dataset, transition_counts


# ---------------------------------------------------------------------------
# Predictive models


@dataclass(frozen=True)
class ModelSpec:
    """Architecture: linear, or an MLP with `layers` hidden layers of width `hidden_dim`."""

    kind: str = "linear"  # "linear" | "mlp"
    layers: int = 2
    hidden_dim: int = 64


class PredictiveModel:
    """Feature -> transition-tensor predictor with manual backprop.

    Emits one logit per (s, a, s') triple and normalizes each (s, a) row
    with a softmax, so predictions are valid stochastic tensors by
    construction.
    """

    def __init__(self, spec: ModelSpec, feature_dim: int, num_states: int, seed: int = 0):
        self.spec = spec
        self.feature_dim = feature_dim
        self.num_states = num_states
        out_dim = num_states * 2 * num_states
        if spec.kind == "linear":
            dims = [feature_dim, out_dim]
        elif spec.kind == "mlp":
            dims = [feature_dim] + [spec.hidden_dim] * spec.layers + [out_dim]
        else:
            raise ValueError(f"unknown architecture {spec.kind!r}")
        rng = np.random.default_rng(seed)
        self.weights = [
            rng.standard_normal((fan_in, fan_out)) * 0.01 / np.sqrt(fan_in)
            for fan_in, fan_out in zip(dims[:-1], dims[1:])
        ]
        self.biases = [np.zeros(fan_out) for fan_out in dims[1:]]

    # -- forward / backward ------------------------------------------------

    def forward(self, features: np.ndarray):
        """Returns ((N, S, 2, S) tensors, cache for backward)."""
        x = np.asarray(features, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.feature_dim:
            raise ValueError(
                f"expected features of shape (N, {self.feature_dim}), got {x.shape}"
            )
        activations = [x]
        h = x
        for W, b in zip(self.weights[:-1], self.biases[:-1]):
            h = np.maximum(h @ W + b, 0.0)
            activations.append(h)
        logits = h @ self.weights[-1] + self.biases[-1]
        s = self.num_states
        logits4 = logits.reshape(-1, s, 2, s)
        shifted = logits4 - logits4.max(axis=-1, keepdims=True)
        exp = np.exp(shifted)
        tensors = exp / exp.sum(axis=-1, keepdims=True)
        return tensors, (activations, tensors)

    def backward(self, cache, grad_tensors: np.ndarray):
        """Parameter gradients given dL/dtensors."""
        activations, tensors = cache
        inner = np.sum(grad_tensors * tensors, axis=-1, keepdims=True)
        grad_logits = tensors * (grad_tensors - inner)
        g = grad_logits.reshape(activations[-1].shape[0], -1)
        grad_w = [None] * len(self.weights)
        grad_b = [None] * len(self.biases)
        for layer in range(len(self.weights) - 1, -1, -1):
            grad_w[layer] = activations[layer].T @ g
            grad_b[layer] = g.sum(axis=0)
            if layer > 0:
                g = (g @ self.weights[layer].T) * (activations[layer] > 0)
        return grad_w, grad_b

    # -- parameter vector helpers -----------------------------------------

    def get_theta(self) -> np.ndarray:
        parts = [w.ravel() for w in self.weights] + [b.ravel() for b in self.biases]
        return np.concatenate(parts)

    def set_theta(self, theta: np.ndarray) -> None:
        offset = 0
        for arrs in (self.weights, self.biases):
            for i, a in enumerate(arrs):
                arrs[i] = theta[offset : offset + a.size].reshape(a.shape).copy()
                offset += a.size
        if offset != theta.size:
            raise ValueError("theta size mismatch")


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


def _soft_top_b_probs(scores: np.ndarray, budget: float) -> np.ndarray:
    """Soft top-B marginals p_i = sigmoid((w_i - theta) / tau), with theta
    chosen per row so that sum_i p_i = B < N.
    """
    lo = scores.min(axis=1) - 40.0 * TEMPERATURE
    hi = scores.max(axis=1) + 40.0 * TEMPERATURE
    for _ in range(60):
        theta = 0.5 * (lo + hi)
        p = _sigmoid((scores - theta[:, None]) / TEMPERATURE)
        too_big = p.sum(axis=1) > budget
        lo = np.where(too_big, theta, lo)
        hi = np.where(too_big, hi, theta)
    theta = 0.5 * (lo + hi)
    return _sigmoid((scores - theta[:, None]) / TEMPERATURE)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # 1/(1+exp(-x)) for x >= 0 and exp(x)/(1+exp(x)) below, without a mask
    return np.exp(np.minimum(x, 0)) / (1 + np.exp(-np.abs(x)))


def _score_term(actions: np.ndarray, p: np.ndarray) -> np.ndarray:
    """d log P(actions | w) / dw for 0/1 actions drawn from the soft top-B marginals p.

    With sigma'_i = p_i (1 - p_i) and dtheta/dw_i = sigma'_i / sum_k sigma'_k,
    the sigma' of the Bernoulli likelihood cancels:
    ((a - p) - dtheta/dw * sum_k (a_k - p_k)) / tau.
    """
    sig_prime = p * (1.0 - p)
    dtheta_dw = sig_prime / np.clip(sig_prime.sum(axis=1, keepdims=True), 1e-12, None)
    excess = actions - p
    return (excess - dtheta_dw * excess.sum(axis=1, keepdims=True)) / TEMPERATURE


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
    common-random-number coupled through the seed.
    """
    pred = np.asarray(pred, dtype=float)
    n, num_states = pred.shape[0], pred.shape[1]
    wi = whittle_indices(pred, cohort.setup)
    wi_grads = whittle_gradients(pred, cohort.setup, wi)
    rng = np.random.default_rng(seed)
    traj_idx, arm_idx = np.arange(trajectories)[:, None], np.arange(n)
    score_wi = np.zeros((trajectories, n, num_states))  # d log P / d WI[i, s]

    def act(states):
        p = _soft_top_b_probs(wi[arm_idx, states], cohort.budget)
        actions = (rng.random(size=p.shape) < p).astype(int)
        # each (trajectory, arm) sits in one state, so no index repeats
        score_wi[traj_idx, arm_idx, states] += _score_term(actions, p)
        return actions

    returns, _ = rollout(cohort, trajectories, rng, np.ones_like if cohort.budget >= n else act)
    centered = returns - returns.mean()  # baseline reduces estimator variance
    grad_wi = np.einsum("t,tis->is", centered, score_wi) / trajectories
    grad_pred = np.einsum("is,isjak->ijak", grad_wi, wi_grads)
    return float(returns.mean()), grad_pred


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

    def step(self, theta: np.ndarray, grad: np.ndarray) -> np.ndarray:
        if self.m is None:
            self.m = np.zeros_like(theta)
            self.v = np.zeros_like(theta)
        self.t += 1
        self.m = self.beta1 * self.m + (1 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1 - self.beta2) * grad * grad
        m_hat = self.m / (1 - self.beta1 ** self.t)
        v_hat = self.v / (1 - self.beta2 ** self.t)
        return theta - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


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
    elif name == "sim-dfl":
        value, grad = sim_dfl_loss(tensors, cohort, spec.trajectories, seed)
    else:  # pragma: no cover
        raise ValueError(name)
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
            grad_w, grad_b = model.backward(cache, sign * grad_tensors)
            flat = np.concatenate(
                [g.ravel() for g in grad_w] + [g.ravel() for g in grad_b]
            )
            model.set_theta(optimizer.step(model.get_theta(), flat))
    return total / max(len(cohorts), 1)


def train(
    config: TrainingConfig, data: DatasetSplits
) -> tuple[PredictiveModel, list[dict], float]:
    """Gradient training with validation-based early stopping.

    Decision losses are ascended, MSE/NLL descended. Returns the model with
    the parameters of the best validation epoch, the log (one record per
    (epoch, split), each tagged with the run's lr and seed), and that
    epoch's validation value.
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
    best_theta = model.get_theta()
    stale = 0
    for epoch in range(config.epochs):
        start = time.perf_counter()
        train_value = run_epoch(
            model, optimizer, data.train, data.train_trajectories, spec, config.seed + epoch
        )
        elapsed = time.perf_counter() - start
        val_value = run_epoch(
            model, None, data.val, data.val_trajectories, spec, config.seed
        )
        log.append(
            {
                "epoch": epoch,
                "split": "train",
                "loss": spec.name,
                "value": train_value,
                "seconds": elapsed,
                **tags,
            }
        )
        log.append(
            {"epoch": epoch, "split": "val", "loss": spec.name, "value": val_value,
             "seconds": 0.0, **tags}
        )
        score = -val_value if spec.maximize else val_value
        if score < best_score - 1e-12:
            best_score, best_value = score, val_value
            best_theta = model.get_theta()
            stale = 0
        else:
            stale += 1
            if stale > PATIENCE:
                break
    model.set_theta(best_theta)
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


def _decomposed_dq(j_pred: np.ndarray, cohort: Cohort) -> float:
    """True return of the decomposed solve on the (N, P) predicted returns."""
    cfg = SolverConfig(budget=cohort.budget, gamma=cohort.setup.gamma)
    reg = RegularizerConfig(kind="entropy", alpha=EVAL_ALPHA)
    j_true, j_budget = cohort.true_returns
    tables = ReturnsTable(j_pred=j_pred, j_true=j_true, j_budget=j_budget)
    sol = forward_pass(tables, reg, cfg)
    return float(np.sum(sol.z_star * tables.j_true))


def _joint_dq(pred: np.ndarray, cohort: Cohort, trajectories: int, seed: int) -> SimulationResult:
    tables = [WhittleTable(wi=wi) for wi in whittle_indices(pred, cohort.setup)]
    policy = WhittleTopB(tables=tables, budget=int(round(cohort.budget)))
    return simulate_joint(cohort, policy, trajectories, seed)


def evaluate_dq(
    model: PredictiveModel | None,
    cohorts: list[Cohort],
    trajectories: int = 1000,
    seed: int = 0,
    predictions: list[np.ndarray] | None = None,
) -> DQReport:
    """Joint and decomposed decision quality with never-act / perfect anchors.

    Either a model or explicit per-cohort prediction arrays must be given.
    Normalized values rescale so never-act maps to 0 and planning with the
    true tensors maps to 1; a degenerate rescale is reported as None. The
    joint columns are means over cohorts of rollout estimates, with
    standard errors sqrt(sum_k se_k^2) / n. trajectories=0 skips the (slow)
    simulated joint evaluation and reports None for the joint columns.
    """
    if trajectories < 0:
        raise ValueError(f"trajectories must be nonnegative, got {trajectories}")
    if predictions is None:
        if model is None:
            raise ValueError("need a model or explicit predictions")
        predictions = [model.forward(c.features)[0] for c in cohorts]
    joint = decomposed = never = perfect_joint = perfect_dec = 0.0
    joint_var = perfect_joint_var = 0.0
    for k, cohort in enumerate(cohorts):
        pred = predictions[k]
        if trajectories > 0:
            result = _joint_dq(pred, cohort, trajectories, seed + k)
            joint += result.mean_return
            joint_var += result.std_error**2
        j_pred = solve_policies(pred, cohort.setup).returns(RewardSpec(ENGAGEMENT))
        decomposed += _decomposed_dq(j_pred, cohort)
        j_true = cohort.true_returns[0]
        never += float(j_true[:, 0].sum())
        if trajectories > 0:
            result = _joint_dq(cohort.tensors, cohort, trajectories, seed + k)
            perfect_joint += result.mean_return
            perfect_joint_var += result.std_error**2
        perfect_dec += _decomposed_dq(j_true, cohort)
    n = max(len(cohorts), 1)
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
