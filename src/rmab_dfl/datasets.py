"""Synthetic cohort generation, trajectory-based transition estimation,
and the on-disk dataset format.

A dataset is one self-describing JSON file: a manifest block plus
per-cohort records (features, true transition tensors, trajectories).
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

from .mdp import MAX_STATES, DiscountedSetup, TransitionTensor
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
        if self.feature_dim < 1:
            raise ValueError(f"feature_dim must be at least 1, got {self.feature_dim}")
        if not 2 <= self.states <= MAX_STATES:
            raise ValueError(f"states must lie in [2, {MAX_STATES}], got {self.states}")
        # the generator only implements these; any other value would mislabel the data
        if (self.feature_activation, self.trajectory_actions) != ("tanh", "uniform"):
            raise ValueError("feature_activation must be 'tanh' and trajectory_actions 'uniform'")


@dataclass
class CohortRecord:
    features: np.ndarray  # (N, feature_dim)
    tensors: np.ndarray  # (N, S, 2, S)
    trajectories: np.ndarray  # (N, 2 * L + 1) interleaved s0, a0, s1, ...


@dataclass
class Dataset:
    manifest: DatasetManifest
    cohorts: list[CohortRecord]
    split_assignment: dict[str, list[int]]

    def cohort_objects(self, split: str | None = None) -> list[Cohort]:
        """Materialize Cohort objects for a split (or all cohorts)."""
        m = self.manifest
        setup = DiscountedSetup(m.gamma, np.full(m.states, 1.0 / m.states))
        idx = (
            range(len(self.cohorts))
            if split is None
            else self.split_assignment[split]
        )
        return [
            Cohort(
                features=self.cohorts[i].features,
                tensors=self.cohorts[i].tensors,
                budget=m.budget,
                setup=setup,
            )
            for i in idx
        ]

    def trajectories_for(self, split: str) -> list[np.ndarray]:
        return [self.cohorts[i].trajectories for i in self.split_assignment[split]]


def _feature_network_weights(manifest: DatasetManifest, rng: np.random.Generator):
    """Random feedforward net mapping flattened tensors to features."""
    dims = (
        [manifest.states * 2 * manifest.states]
        + [manifest.feature_hidden] * (manifest.feature_layers - 1)
        + [manifest.feature_dim]
    )
    weights = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        W = rng.standard_normal((fan_in, fan_out)) * (
            manifest.feature_gain / np.sqrt(fan_in)
        )
        b = np.zeros(fan_out)
        weights.append((W, b))
    return weights


def _apply_feature_network(flat: np.ndarray, weights) -> np.ndarray:
    h = flat
    for W, b in weights[:-1]:
        h = np.tanh(h @ W + b)
    W, b = weights[-1]
    return h @ W + b


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
    records = []
    for c in range(manifest.cohorts):
        rng = np.random.default_rng(cohort_seeds[c])
        n, s = manifest.arms_per_cohort, manifest.states
        tensors = rng.dirichlet(np.ones(s), size=(n, s, 2))
        flat = tensors.reshape(n, -1)
        features = _apply_feature_network(flat, weights)
        trajectories = np.stack(
            [_roll_trajectory(tensors[i], manifest.trajectory_len, rng) for i in range(n)]
        )
        records.append(CohortRecord(features=features, tensors=tensors, trajectories=trajectories))
    split_rng = np.random.default_rng(np.random.SeedSequence([manifest.seed, 1]))
    perm = split_rng.permutation(manifest.cohorts)
    a, b, _ = manifest.split_sizes
    split_assignment = {
        "train": sorted(int(i) for i in perm[:a]),
        "val": sorted(int(i) for i in perm[a : a + b]),
        "test": sorted(int(i) for i in perm[a + b :]),
    }
    return Dataset(manifest=manifest, cohorts=records, split_assignment=split_assignment)


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
            {
                "features": rec.features.tolist(),
                "tensors": rec.tensors.tolist(),
                "trajectories": rec.trajectories.tolist(),
            }
            for rec in dataset.cohorts
        ],
    }
    atomic_replace(Path(path), lambda fh: fh.write(json.dumps(payload).encode()))


def load_dataset(path: str | Path) -> Dataset:
    payload = json.loads(Path(path).read_text())
    if payload.get("format_version") != FORMAT_VERSION:
        raise ValueError(f"unsupported dataset format version {payload.get('format_version')}")
    manifest_dict = payload["manifest"]
    manifest_dict["split_sizes"] = tuple(manifest_dict["split_sizes"])
    manifest = DatasetManifest(**manifest_dict)
    cohorts = [
        CohortRecord(
            features=np.array(rec["features"], dtype=float),
            tensors=np.array(rec["tensors"], dtype=float),
            trajectories=np.array(rec["trajectories"], dtype=int),
        )
        for rec in payload["cohorts"]
    ]
    return Dataset(
        manifest=manifest,
        cohorts=cohorts,
        split_assignment={k: list(v) for k, v in payload["split_assignment"].items()},
    )


@dataclass
class TrajectoryData:
    """Transition counts of observed per-arm trajectories, with their pooled prior."""

    counts: np.ndarray  # (N, S, 2, S)
    p_pop: np.ndarray  # (S, 2, S) pooled prior


def transition_counts(sequences, num_states: int) -> np.ndarray:
    """N(s, a, s') per arm from interleaved state/action sequences."""
    n = len(sequences)
    counts = np.zeros((n, num_states, 2, num_states))
    for i, seq in enumerate(sequences):
        seq = np.asarray(seq, dtype=int)
        s, a, s_next = seq[:-1:2], seq[1::2], seq[2::2]
        np.add.at(counts[i], (s, a, s_next), 1.0)
    return counts


def trajectory_data(sequences, num_states: int) -> TrajectoryData:
    """Counts plus the pooled-population prior across all arms."""
    counts = transition_counts(sequences, num_states)
    pooled = counts.sum(axis=0)
    row_totals = pooled.sum(axis=-1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        p_pop = np.where(row_totals > 0, pooled / row_totals, 1.0 / num_states)
    return TrajectoryData(counts=counts, p_pop=p_pop)


def estimate_from_trajectories(
    trajs: TrajectoryData, prior_strength: float
) -> list[TransitionTensor]:
    """Per-arm transition estimates smoothed toward the pooled prior.

    T_i(s, a, s') = (alpha * P_pop(s'|s,a) + N(s,a,s')) / row total.
    """
    if prior_strength < 0:
        raise ValueError("prior_strength must be nonnegative")
    numer = prior_strength * trajs.p_pop[None] + trajs.counts
    denom = numer.sum(axis=-1, keepdims=True)
    if np.any(denom == 0):
        raise ValueError("undefined row: no observations and zero prior strength")
    return [TransitionTensor(t) for t in numer / denom]


def discretize_engagement(listen_seconds, threshold: float = 30.0) -> np.ndarray:
    """Binary engagement states: 1 iff the listen time strictly exceeds the threshold."""
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    seconds = np.asarray(list(listen_seconds), dtype=float)
    if seconds.size and np.any(seconds < 0):
        raise ValueError("listen durations must be nonnegative")
    return (seconds > threshold).astype(int)
