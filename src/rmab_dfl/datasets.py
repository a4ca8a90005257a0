"""Synthetic cohort generation, trajectory transition counts, and the
on-disk dataset format.

A dataset is one self-describing JSON file: a manifest block plus
per-cohort records (features, true transition tensors, trajectories).
In memory the records stack into three arrays with a leading cohort axis.
Floats are serialized with shortest-round-trip repr, so write-then-read
is exact, and the file is written one cohort's record at a time; a record
read back becomes arrays as soon as it is parsed, so the parsed lists of
only one record are held at a time.

A cohort's trajectories are rolled for all its arms at once, from the
same PCG64 words, and so to the same values, as drawing each arm's start
state, actions and next states one step at a time with
`Generator.integers` and `Generator.choice`. That rests on how numpy
turns words into those draws (checked on numpy 2.4.6); the per-step rule
is kept in the tests as the oracle, so a numpy upgrade that changes it
fails there.
"""

from __future__ import annotations

import json
import logging
import os
import tempfile
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import mdp
from .mdp import MAX_STATES, DiscountedSetup, checked_transitions
from .planning import Cohort

FORMAT_VERSION = 1

# the mode open() gives a new file, read once: reading the umask sets it (to 0o077 meanwhile)
_UMASK = os.umask(0o077)
os.umask(_UMASK)
_FILE_MODE = 0o666 & ~_UMASK

logger = logging.getLogger(__name__)


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
        # a manifest read from JSON may hold 2.0 or true where an integer
        # belongs, or true or a string where a real number does, and one that
        # holds a numpy integer cannot be written as JSON
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int" and type(value) is not int:
                raise ValueError(f"{f.name} must be an integer, got {value!r}")
            if f.type == "float" and (type(value) is bool or not isinstance(value, (int, float))):
                raise ValueError(f"{f.name} must be a real number, got {value!r}")
        if len(self.split_sizes) != 3 or any(type(size) is not int for size in self.split_sizes):
            raise ValueError(
                f"split_sizes must be three integers (train, val, test), got {self.split_sizes!r}"
            )
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
        for name in ("seed", "trajectory_len"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be at least 0, got {getattr(self, name)}")
        if self.feature_layers < 1:
            raise ValueError(f"feature_layers must be at least 1, got {self.feature_layers}")
        if self.feature_hidden < 1:
            raise ValueError(f"feature_hidden must be at least 1, got {self.feature_hidden}")
        if not 0.0 < self.feature_gain < np.inf:
            raise ValueError(f"feature_gain must be positive and finite, got {self.feature_gain}")
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
    weights = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        W = rng.standard_normal((fan_in, fan_out))
        W *= manifest.feature_gain / np.sqrt(fan_in)  # in place: one matrix per layer at a time
        weights.append(W)
    return weights


def _blas_is_serial(environ) -> bool:
    """Whether the first of OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS and
    OMP_NUM_THREADS that is set is "1". Any other value reads as threaded,
    so a serial BLAS may be misread, never a threaded one; that changes only
    whether the feature network fans out, never a byte."""
    names = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
    first_set = next((environ[name] for name in names if name in environ), None)
    return first_set == "1"


# Read once at import. The row blocks run on mdp's pool only when BLAS runs
# one thread: two callers that each ask BLAS for every CPU are slower than
# one. A block makes the same BLAS calls on any thread, so no byte moves.
_SERIAL_BLAS = _blas_is_serial(os.environ)
# At most this many workers run the blocks, each on its own pair of
# activation buffers, so generation holds two pairs of about 8 MB buffers
# at most, whatever the CPU count. Two is the one count measured (on 2 CPUs).
_FEATURE_WORKERS = 2

# Bytes of each of a worker's two activation buffers (8 MB): a cohort
# goes through the network in blocks of rows that fit them.
_FEATURE_BLOCK_BYTES = 1 << 23
# Row blocks start on multiples of this many rows.
_FEATURE_BLOCK_ALIGN = 64


def _feature_blocks(n: int, hidden: int) -> list[int]:
    """The bounds of the row blocks a cohort of n arms goes through the network in.

    Each output row of a matrix product depends only on its own input row,
    so blocks give the bits of one pass over all rows as long as BLAS runs
    each block as it runs the whole. So the blocks are as even as possible,
    never full blocks and a remainder of a few rows: a single row goes
    through gemv and a few rows through OpenBLAS's small-matrix kernels,
    which sum in another order. And they start on multiples of 64 rows,
    because gemv (feature_dim = 1) takes its rows in groups from the start.
    """
    blocks = -(-n // max(1, _FEATURE_BLOCK_BYTES // (8 * hidden)))
    align = _FEATURE_BLOCK_ALIGN
    return [n * i // blocks // align * align for i in range(blocks)] + [n]


def _apply_feature_network(rows, weights, buffers, out: np.ndarray) -> None:
    """Push one block of rows through the net into out.

    The hidden layers alternate between two buffers of at least the block's rows.
    """
    h = rows
    for layer, W in enumerate(weights[:-1]):
        buf = buffers[layer % 2, : len(rows)]
        h = np.tanh(np.matmul(h, W, out=buf), out=buf)
    np.matmul(h, weights[-1], out=out)


_LOW = np.uint64(0xFFFFFFFF)


def _roll_trajectories(tensors: np.ndarray, length: int, rng: np.random.Generator) -> np.ndarray:
    """(N, 2L+1) trajectories of one cohort's (N, S, 2, S) arms under uniform random actions.

    The values are those of the per-step rule run arm after arm: draw
    s0 = rng.integers(S), then L times a = rng.integers(2) and
    s' = rng.choice(S, p=T[s, a]). The PCG64 words are read at once and
    decoded as numpy decodes them:
    - a 32-bit draw takes the low half of a fresh word, or the high half
      the generator holds from the 32-bit draw before it;
    - a double takes a whole word w as (w >> 11)·2⁻⁵³, and choice searches
      the normalized cumulative row for it;
    - integers(k) is Lemire's (u·k) >> 32, redrawn while the low 32 bits
      of u·k are below 2³² mod k (never for k = 2 or 4).
    The generator ends past the words read, so it must not be used after.
    """
    n, s = tensors.shape[:2]
    state = rng.bit_generator.state
    held = state["has_uint32"]  # 1: the first 32-bit draw is the high half the generator holds
    threshold = (1 << 32) % s
    words = np.array([state["uinteger"] << 32] * held, dtype=np.uint64)
    starts = np.ones(n, dtype=np.int64)  # 32-bit draws per start state, redraws included
    while True:
        # the draws in stream order: per arm its start draws, then an action and a double per step
        per_arm = starts + 2 * length
        is_u32 = np.ones(int(per_arm.sum()), dtype=bool)
        first_step = np.cumsum(per_arm) - 2 * length
        is_u32[(first_step[:, None] + 2 * np.arange(length) + 1).ravel()] = False
        # 32-bit draws pair up on words, low half first; a held half pairs with words[0]
        half = np.cumsum(is_u32)[is_u32] - 1 + held
        high = half % 2 == 1
        fresh = ~is_u32  # the draws that read a new word
        fresh[is_u32] = ~high
        word = np.cumsum(fresh) - 1 + held
        if word.size and word[-1] >= words.size:
            words = np.concatenate([words, rng.bit_generator.random_raw(word[-1] + 1 - words.size)])
        pair_word = np.concatenate([np.zeros(held, dtype=int), word[is_u32 & fresh]])
        u32_words = words[pair_word[half // 2]]
        u32 = np.where(high, u32_words >> np.uint64(32), u32_words & _LOW)
        last_start = np.cumsum(starts + length) - length - 1  # the accepted start draw
        scaled = u32[last_start] * np.uint64(s)
        rejected = np.flatnonzero((scaled & _LOW) < threshold)
        if not rejected.size:
            break
        starts[rejected[0]] += 1
    actions = (u32[last_start[:, None] + 1 + np.arange(length)] >> np.uint64(31)).astype(int)
    uniforms = (words[word[~is_u32]] >> np.uint64(11)).reshape(n, length) * (1.0 / 2.0**53)
    cdf = np.cumsum(tensors, axis=-1)
    cdf = (cdf / cdf[..., -1:]).reshape(n * s * 2, s)
    row_of_arm = np.arange(n) * (2 * s)
    out = np.empty((n, 2 * length + 1), dtype=int)
    out[:, 0] = current = (scaled >> np.uint64(32)).astype(int)
    for t in range(length):
        rows = cdf[row_of_arm + 2 * current + actions[:, t]]
        current = np.count_nonzero(rows <= uniforms[:, t, None], axis=1)  # searchsorted 'right'
        out[:, 2 * t + 1] = actions[:, t]
        out[:, 2 * t + 2] = current
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

    Every cohort's tensors and trajectories are drawn first, in cohort
    order. The network draws nothing, so its (cohort, start, stop) row
    blocks then run in any order: when BLAS runs one thread (_SERIAL_BLAS),
    as min(_FEATURE_WORKERS, mdp.WORKERS, blocks) strided mdp.run_tasks
    tasks, and in order on this thread otherwise. Each task has its own pair
    of activation buffers, allocated on this thread: allocated on the pool
    threads, they raised perfbench's paper-scale peak RSS by 3 MB.
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
        trajectories[k] = _roll_trajectories(tensors[k], manifest.trajectory_len, rng)
    bounds = _feature_blocks(n, manifest.feature_hidden)
    blocks = [(k, start, stop) for k in range(c) for start, stop in zip(bounds[:-1], bounds[1:])]
    workers = min(_FEATURE_WORKERS, mdp.WORKERS, len(blocks)) if _SERIAL_BLAS else 1
    shape = (min(manifest.feature_layers - 1, 2), max(np.diff(bounds)), manifest.feature_hidden)
    buffers = [np.empty(shape) for _ in range(workers)]
    flat = tensors.reshape(c, n, -1)

    def run(w):
        for k, start, stop in blocks[w::workers]:
            _apply_feature_network(flat[k, start:stop], weights, buffers[w], features[k, start:stop])

    mdp.run_tasks(run, workers)
    return Dataset(
        manifest=manifest,
        split_assignment=_split_assignment(manifest),
        features=features,
        tensors=tensors,
        trajectories=trajectories,
    )


def atomic_replace(path: Path, write) -> None:
    """Call write(binary file) on a temp file beside path, then rename it over
    path, with the mode open() would give a new file (mkstemp makes it 0600)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            write(fh)
        os.chmod(tmp, _FILE_MODE)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_dataset(dataset: Dataset, path: str | Path) -> None:
    """Write the dataset atomically: a failed write leaves any old file intact."""
    head = {
        "format_version": FORMAT_VERSION,
        "manifest": asdict(dataset.manifest),
        "split_assignment": dataset.split_assignment,
        "cohorts": [],
    }

    def write(fh):
        # the bytes of json.dumps on the whole payload, one cohort's record at a time
        fh.write(json.dumps(head).removesuffix("]}").encode())
        records = zip(dataset.features, dataset.tensors, dataset.trajectories)
        for k, (f, t, traj) in enumerate(records):
            record = {"features": f.tolist(), "tensors": t.tolist(), "trajectories": traj.tolist()}
            fh.write(((", " if k else "") + json.dumps(record)).encode())
        fh.write(b"]}")

    atomic_replace(Path(path), write)


def _stack_cohorts(cohorts, key: str, dtype, shape: tuple[int, ...]) -> np.ndarray:
    """One field of every cohort record as one dtype array of the manifest's shape.

    Values are checked, not cast: int takes integers, float integers or
    floats, and anything else (a string, a bool, 0.6 for int) raises ValueError.
    """
    try:
        stacked = np.array([rec[key] for rec in cohorts])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed dataset: cannot stack the cohorts' {key!r}: {exc!r}") from exc
    if stacked.dtype.kind not in ("iuf" if dtype is float else "i"):
        raise ValueError(
            f"malformed dataset: {key} holds {stacked.dtype} values, not {dtype.__name__}"
        )
    if stacked.shape != shape:
        raise ValueError(f"malformed dataset: {key} has shape {stacked.shape}, not {shape}")
    return stacked.astype(dtype, copy=False)


_RECORD_KEYS = {"features", "tensors", "trajectories"}


def _record_as_arrays(pairs: list) -> dict:
    """json's object_pairs_hook: a cohort record's values as arrays once it is parsed.

    Any other object stays the dict it parses to, and a value numpy cannot
    convert (a ragged list) stays as parsed, for `_stack_cohorts` to reject
    with the message it gives for lists; duplicate keys resolve last-wins.
    """
    obj = dict(pairs)
    if obj.keys() == _RECORD_KEYS:
        for key, value in obj.items():
            try:
                obj[key] = np.array(value)
            except (TypeError, ValueError):
                pass
    return obj


def load_dataset(path: str | Path) -> Dataset:
    """Read a dataset file; a malformed one raises ValueError."""
    payload = json.loads(Path(path).read_text(), object_pairs_hook=_record_as_arrays)
    if not isinstance(payload, dict):
        raise ValueError("malformed dataset: expected a JSON object")
    if payload.get("format_version") != FORMAT_VERSION:
        raise ValueError(f"unsupported dataset format version {payload.get('format_version')}")
    try:
        given = dict(payload["manifest"])
        given["split_sizes"] = tuple(given["split_sizes"])
        m = DatasetManifest(**given)
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
    checked_transitions(tensors, batch_dims=2, name="malformed dataset: tensors")
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

