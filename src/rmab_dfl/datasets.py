"""Synthetic cohort generation, trajectory-based transition estimation,
and the on-disk dataset format.

A dataset is one self-describing JSON file: a manifest block plus
per-cohort records (features, true transition tensors, trajectories).
In memory the records stack into three arrays with a leading cohort axis.
Floats are serialized with shortest-round-trip repr, so write-then-read
is exact.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .mdp import MAX_STATES, DiscountedSetup
from .planning import Cohort

FORMAT_VERSION = 1


@dataclass(frozen=True)
class DatasetManifest:
    cohorts: int = 100
    arms_per_cohort: int = 100
    budget: float = 10.0
    states: int = 2
    gamma: float = 0.9
    feature_dim: int = 16
    seed: int = 0
    trajectory_len: int = 10
    split_sizes: tuple[int, int, int] = (20, 20, 60)
    feature_layers: int = 8
    feature_hidden: int = 1000
    feature_activation: str = "tanh"  # pinned; unstated upstream
    feature_gain: float = 3.0  # weight std = gain / sqrt(fan_in); >1 saturates tanh
    trajectory_actions: str = "uniform"  # action policy when rolling trajectories

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must lie in (0, 1), got {self.gamma}")
        if not 0.0 < self.budget <= self.arms_per_cohort:
            raise ValueError(
                f"budget must lie in (0, arms_per_cohort={self.arms_per_cohort}], got {self.budget}"
            )
        # the joint policies act on round(budget) arms per step
        if self.budget != int(self.budget):
            raise ValueError(f"budget must be a whole number of arms per step, got {self.budget}")
        if sum(self.split_sizes) != self.cohorts:
            raise ValueError("split sizes must sum to the cohort count")
        train, val, test = self.split_sizes
        if train < 1 or val < 1 or test < 0:
            raise ValueError(f"train and val need at least 1 cohort each, got {self.split_sizes}")
        if self.feature_dim < 1:
            raise ValueError(f"feature_dim must be at least 1, got {self.feature_dim}")
        if not 2 <= self.states <= MAX_STATES:
            raise ValueError(f"states must lie in [2, {MAX_STATES}], got {self.states}")
        # the generator only implements these; any other value would mislabel the data
        if (self.feature_activation, self.trajectory_actions) != ("tanh", "uniform"):
            raise ValueError("feature_activation must be 'tanh' and trajectory_actions 'uniform'")


@dataclass
class Dataset:
    manifest: DatasetManifest
    split_assignment: dict[str, list[int]]
    features: np.ndarray  # (C, N, feature_dim)
    tensors: np.ndarray  # (C, N, S, 2, S)
    trajectories: np.ndarray  # (C, N, 2 * L + 1) interleaved s0, a0, s1, ...

    def cohort_objects(self, split: str) -> list[Cohort]:
        """Materialize the Cohort objects of a split."""
        m = self.manifest
        setup = DiscountedSetup(m.gamma, np.full(m.states, 1.0 / m.states))
        return [
            Cohort(features=self.features[i], tensors=self.tensors[i], budget=m.budget, setup=setup)
            for i in self.split_assignment[split]
        ]


def _feature_network_weights(manifest: DatasetManifest, rng: np.random.Generator):
    """Random feedforward net mapping flattened tensors to features."""
    dims = (
        [manifest.states * 2 * manifest.states]
        + [manifest.feature_hidden] * (manifest.feature_layers - 1)
        + [manifest.feature_dim]
    )
    return [
        rng.standard_normal((fan_in, fan_out)) * (manifest.feature_gain / np.sqrt(fan_in))
        for fan_in, fan_out in zip(dims[:-1], dims[1:])
    ]


def _apply_feature_network(flat: np.ndarray, weights) -> np.ndarray:
    h = flat
    for W in weights[:-1]:
        h = np.tanh(h @ W)
    return h @ weights[-1]


def _roll_trajectory(
    tensor: np.ndarray, length: int, rng: np.random.Generator
) -> np.ndarray:
    num_states = tensor.shape[0]
    out = np.empty(2 * length + 1, dtype=int)
    state = rng.integers(num_states)
    out[0] = state
    for t in range(length):
        action = int(rng.integers(2))
        next_state = rng.choice(num_states, p=tensor[state, action])
        out[2 * t + 1] = action
        out[2 * t + 2] = next_state
        state = next_state
    return out


def _split_assignment(manifest: DatasetManifest) -> dict[str, list[int]]:
    """The cohort ids of each split: a permutation seeded by the manifest seed."""
    split_rng = np.random.default_rng(np.random.SeedSequence([manifest.seed, 1]))
    perm = split_rng.permutation(manifest.cohorts)
    a, b, _ = manifest.split_sizes
    return {
        "train": sorted(int(i) for i in perm[:a]),
        "val": sorted(int(i) for i in perm[a : a + b]),
        "test": sorted(int(i) for i in perm[a + b :]),
    }


def generate_synthetic(manifest: DatasetManifest) -> Dataset:
    """Deterministic synthetic dataset per the manifest.

    Transition rows are uniform on the simplex (Dirichlet(1)); features
    push the flattened tensor through a fixed random tanh network;
    trajectories roll the true dynamics under uniform random actions.
    """
    root = np.random.SeedSequence(manifest.seed)
    net_rng = np.random.default_rng(root.spawn(1)[0])
    weights = _feature_network_weights(manifest, net_rng)
    cohort_seeds = root.spawn(manifest.cohorts + 1)[1:]
    c, n, s = manifest.cohorts, manifest.arms_per_cohort, manifest.states
    features = np.empty((c, n, manifest.feature_dim))
    tensors = np.empty((c, n, s, 2, s))
    trajectories = np.empty((c, n, 2 * manifest.trajectory_len + 1), dtype=int)
    for k in range(c):
        rng = np.random.default_rng(cohort_seeds[k])
        tensors[k] = rng.dirichlet(np.ones(s), size=(n, s, 2))
        features[k] = _apply_feature_network(tensors[k].reshape(n, -1), weights)
        for i in range(n):
            trajectories[k, i] = _roll_trajectory(tensors[k, i], manifest.trajectory_len, rng)
    return Dataset(
        manifest=manifest,
        split_assignment=_split_assignment(manifest),
        features=features,
        tensors=tensors,
        trajectories=trajectories,
    )


def atomic_replace(path: Path, write) -> None:
    """Call write(binary file) on a temp file beside path, then rename it over path."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_dataset(dataset: Dataset, path: str | Path) -> None:
    """Write the dataset atomically: a failed write leaves any old file intact."""
    payload = {
        "format_version": FORMAT_VERSION,
        "manifest": asdict(dataset.manifest),
        "split_assignment": dataset.split_assignment,
        "cohorts": [
            {"features": f.tolist(), "tensors": t.tolist(), "trajectories": traj.tolist()}
            for f, t, traj in zip(dataset.features, dataset.tensors, dataset.trajectories)
        ],
    }
    atomic_replace(Path(path), lambda fh: fh.write(json.dumps(payload).encode()))


def _stack_cohorts(cohorts, key: str, dtype, shape: tuple[int, ...]) -> np.ndarray:
    """One field of every cohort record as one array of the manifest's shape."""
    try:
        stacked = np.array([rec[key] for rec in cohorts], dtype=dtype)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed dataset: cannot stack the cohorts' {key!r}: {exc!r}") from exc
    if stacked.shape != shape:
        raise ValueError(f"malformed dataset: {key} has shape {stacked.shape}, not {shape}")
    return stacked


def load_dataset(path: str | Path) -> Dataset:
    """Read a dataset file; a malformed one raises ValueError."""
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, dict):
        raise ValueError("malformed dataset: expected a JSON object")
    if payload.get("format_version") != FORMAT_VERSION:
        raise ValueError(f"unsupported dataset format version {payload.get('format_version')}")
    try:
        fields = dict(payload["manifest"])
        fields["split_sizes"] = tuple(fields["split_sizes"])
        m = DatasetManifest(**fields)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed dataset manifest: {exc!r}") from exc
    splits = _split_assignment(m)
    if payload.get("split_assignment") != splits:
        raise ValueError("malformed dataset: split_assignment differs from the manifest's split")
    cohorts, c, n, s = payload.get("cohorts"), m.cohorts, m.arms_per_cohort, m.states
    features = _stack_cohorts(cohorts, "features", float, (c, n, m.feature_dim))
    tensors = _stack_cohorts(cohorts, "tensors", float, (c, n, s, 2, s))
    trajectories = _stack_cohorts(cohorts, "trajectories", int, (c, n, 2 * m.trajectory_len + 1))
    states, actions = trajectories[..., ::2], trajectories[..., 1::2]
    if not np.isfinite(features).all():
        raise ValueError("malformed dataset: features must be finite")
    if not ((tensors >= 0).all() and np.abs(tensors.sum(axis=-1) - 1.0).max() <= 1e-9):
        raise ValueError("malformed dataset: tensor rows must lie on the probability simplex")
    if not (((states >= 0) & (states < s)).all() and ((actions == 0) | (actions == 1)).all()):
        raise ValueError("malformed dataset: a trajectory holds a state or action out of range")
    return Dataset(manifest=m, split_assignment=splits, features=features, tensors=tensors,
                   trajectories=trajectories)


def transition_counts(sequences: np.ndarray, num_states: int) -> np.ndarray:
    """N(s, a, s') per arm from (N, 2 * L + 1) interleaved state/action sequences."""
    seqs = np.asarray(sequences, dtype=int)
    counts = np.zeros((seqs.shape[0], num_states, 2, num_states))
    arm = np.arange(seqs.shape[0])[:, None]
    np.add.at(counts, (arm, seqs[:, :-1:2], seqs[:, 1::2], seqs[:, 2::2]), 1.0)
    return counts


def estimate_from_trajectories(counts: np.ndarray, prior_strength: float) -> np.ndarray:
    """(N, S, 2, S) transition estimates from (N, S, 2, S) counts, smoothed toward the pooled prior.

    T_i(s, a, s') = (alpha * P_pop(s'|s,a) + N_i(s,a,s')) / row total, where
    P_pop pools every arm's counts (uniform on a row no arm observed).
    """
    if prior_strength < 0:
        raise ValueError("prior_strength must be nonnegative")
    pooled = counts.sum(axis=0)
    row_totals = pooled.sum(axis=-1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        p_pop = np.where(row_totals > 0, pooled / row_totals, 1.0 / counts.shape[-1])
    numer = prior_strength * p_pop + counts
    denom = numer.sum(axis=-1, keepdims=True)
    if np.any(denom == 0):
        raise ValueError("undefined row: no observations and zero prior strength")
    return numer / denom


def discretize_engagement(listen_seconds, threshold: float = 30.0) -> np.ndarray:
    """Binary engagement states: 1 iff the listen time strictly exceeds the threshold."""
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    seconds = np.asarray(list(listen_seconds), dtype=float)
    if seconds.size and np.any(seconds < 0):
        raise ValueError("listen durations must be nonnegative")
    return (seconds > threshold).astype(int)
