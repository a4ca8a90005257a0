"""Per-arm MDP primitives: transition tensors, the policy action bits,
exact policy evaluation, return gradients, and Whittle indices.

Each arm is a small MDP with binary actions (act / don't act). All
evaluation is exact (direct linear solves of the Bellman equations), so
none of the downstream machinery needs Monte Carlo rollouts. The returns
engine, solve_policies, solves every policy of every arm at once; Whittle
indices and their gradients are read off its values. Work independent across
arms runs on arm blocks (run_arm_blocks), on threads (run_tasks) once it is
large enough, with the same bits on any number of CPUs. Its oracles live in
tests/oracles.py, on plain arrays and apart from this package: scalar
np.linalg.solve returns and return gradients, and value iteration; the
Whittle indices are checked by value iteration on the subsidized Bellman
equation (acting and staying passive are worth the same at each index).
"""

from __future__ import annotations

import logging
import os
import string
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

logger = logging.getLogger(__name__)

MAX_STATES = 12  # 2^|S| per-arm policy tables must stay small

ENGAGEMENT = "engagement"
BUDGET = "budget"


class CapacityError(ValueError):
    """Raised when an instance exceeds the supported problem size."""


class NumericError(RuntimeError):
    """Raised when a numeric routine fails to converge or is ill-posed."""


def checked_transitions(tensors, batch_dims: int, name: str = "transition tensors") -> np.ndarray:
    """`batch_dims` axes of (|S|, 2, |S|) transition tensors as a float array,
    where tensors[..., s, a, s'] is the probability of s -> s' under action a.

    The one check of tensors entering the package: every entry finite and
    in [0, 1 + 1e-12], every (s, a) row summing to 1 within 1e-9, and
    2 <= |S| <= MAX_STATES. Anything else raises ValueError naming `name`
    (CapacityError above MAX_STATES).
    """
    probs = np.asarray(tensors, dtype=float)
    shape = probs.shape
    if probs.ndim != batch_dims + 3 or shape[-2] != 2 or shape[-3] != shape[-1]:
        raise ValueError(f"{name}: expected {batch_dims} batch axes and (S, 2, S), got {shape}")
    if shape[-1] > MAX_STATES:
        raise CapacityError(f"{name}: {shape[-1]} states exceeds the maximum of {MAX_STATES}")
    if shape[-1] < 2:
        raise ValueError(f"{name}: need at least 2 states, got {shape[-1]}")
    # NaN propagates through min and max, so it fails both bounds
    if not (probs.min(initial=0.0) >= 0.0 and probs.max(initial=1.0) <= 1.0 + 1e-12):
        raise ValueError(f"{name}: probabilities must be finite and lie in [0, 1]")
    if np.abs(probs.sum(axis=-1) - 1.0).max(initial=0.0) > 1e-9:
        raise ValueError(f"{name}: every (s, a) row must sum to 1 within 1e-9")
    return probs


@dataclass(frozen=True)
class TransitionTensor:
    """One arm's (|S|, 2, |S|) transition probabilities, checked by checked_transitions."""

    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "probs", checked_transitions(self.probs, batch_dims=0))

    @property
    def num_states(self) -> int:
        return self.probs.shape[0]


@dataclass(frozen=True)
class RewardSpec:
    """Reward definition: engagement pays s/(|S|-1), budget pays the action bit."""

    kind: str = ENGAGEMENT

    def __post_init__(self):
        if self.kind not in (ENGAGEMENT, BUDGET):
            raise ValueError(f"unknown reward kind {self.kind!r}")

    def per_step(self, num_states: int, actions: np.ndarray) -> np.ndarray:
        """Per-state reward vector under the given action assignment."""
        if self.kind == ENGAGEMENT:
            return engagement_rewards(num_states)
        return np.asarray(actions, dtype=float)


def engagement_rewards(num_states: int) -> np.ndarray:
    """State rewards s/(|S|-1)."""
    return np.arange(num_states, dtype=float) / (num_states - 1)


@dataclass(frozen=True)
class DiscountedSetup:
    """Discount factor, initial-state distribution, and simulation truncation tolerance."""

    gamma: float
    initial_dist: np.ndarray
    horizon_tol: ClassVar[float] = 1e-3

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise NumericError(f"gamma must lie in (0, 1), got {self.gamma}")
        dist = np.asarray(self.initial_dist, dtype=float)
        object.__setattr__(self, "initial_dist", dist)
        if dist.ndim != 1 or np.any(dist < -1e-12) or abs(dist.sum() - 1.0) > 1e-9:
            raise ValueError("initial_dist must be a probability vector summing to 1 within 1e-9")


def uniform_setup(num_states: int, gamma: float) -> DiscountedSetup:
    return DiscountedSetup(gamma, np.full(num_states, 1.0 / num_states))


def policy_action_matrix(num_states: int) -> np.ndarray:
    """(2^|S|, |S|) matrix of action bits, row j = policy j."""
    if not 2 <= num_states <= MAX_STATES:
        raise CapacityError(f"num_states must be in [2, {MAX_STATES}], got {num_states}")
    policies = np.arange(2 ** num_states)[:, None]
    return (policies >> np.arange(num_states)[None, :]) & 1


# Entries of I - gamma*T_pi factored at once (2 MB). Arms are solved in
# chunks this small so that each elimination step runs in cache; it also
# bounds the transient factor (one 12-state arm, 4.7 MB, is a chunk alone).
_CHUNK_ENTRIES = 1 << 18
# Least entries per worker for which per-arm work other than the engine's
# chunks is split into arm blocks across threads; all paper-scale work is below.
_SPLIT_ENTRIES = 1 << 16

# Threads for work that is independent across arms or cohorts: one per CPU
# this process may run on, read once at import.
if hasattr(os, "sched_getaffinity"):
    WORKERS = len(os.sched_getaffinity(0))
else:
    WORKERS = os.cpu_count() or 1

_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()
_pool_thread = threading.local()  # .marked on the pool's threads


def _drop_pool() -> None:
    """Forget the pool in a forked child: the child's copy has no threads to
    run its tasks, and its lock may be held by a parent thread."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_pool)


def run_tasks(task, count: int) -> list:
    """[task(0), ..., task(count - 1)], run on the package's one pool of
    WORKERS threads, created on first use and dropped in forked children.

    They run inline, in order, when count is 1, when WORKERS < 2, or when
    this is a pool thread, so tasks may fan out again without deadlock.
    Once a task raises, no queued task starts; the first task to raise, in
    task order, re-raises here once no task is left running, and so does
    an interrupt of this thread.
    """
    if count < 2 or WORKERS < 2 or getattr(_pool_thread, "marked", False):
        return [task(k) for k in range(count)]
    state = threading.Condition()
    running, stop = 0, False

    def run(k):
        nonlocal running, stop
        _pool_thread.marked = True
        with state:
            if stop:  # a task raised, or the caller has left
                return None
            running += 1
        try:
            return task(k)
        except BaseException:
            with state:
                stop = True
            raise
        finally:
            with state:
                running -= 1
                state.notify()

    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(WORKERS, thread_name_prefix="rmab-dfl-arms")
        pool = _pool
    futures = []
    try:  # a task queued by a submit that raises is waited for too
        for k in range(count):
            futures.append(pool.submit(run, k))
        return [future.result() for future in futures]
    finally:
        with state:
            stop = True
            state.wait_for(lambda: running == 0)


def arm_blocks(n_arms: int, entries: int) -> int:
    """How many arm blocks `entries` of work spread evenly over n_arms arms
    splits into: 1 (run inline) unless each of up to WORKERS blocks, every
    one of at least 2 arms, gets at least _SPLIT_ENTRIES entries.

    Two arms keep the arm axis innermost in every block, so each arm's sums
    over policies run in the same order as over all arms; in a block of one
    arm numpy would sum the policy axis pairwise, which rounds differently.
    """
    workers = min(WORKERS, n_arms // 2)
    if workers < 2 or entries < workers * _SPLIT_ENTRIES:
        return 1
    return workers


def run_arm_blocks(work, blocks: int, *arrays) -> None:
    """work(*parts) for `blocks` consecutive blocks of arms, whose lengths
    differ by at most one, where parts are the views of `arrays` (arms on
    their last axis; None passes as None) that hold the block's arms.

    One block runs inline and gets `arrays` themselves; more run as
    run_tasks. work must write only into its own parts: then the outputs do
    not depend on the blocks or the thread count.
    """
    if blocks == 1:
        work(*arrays)
        return
    size, longer = divmod(arrays[0].shape[-1], blocks)

    def block(k):
        arms = slice(k * size + min(k, longer), (k + 1) * size + min(k + 1, longer))
        work(*(None if array is None else array[..., arms] for array in arrays))

    run_tasks(block, blocks)


@dataclass(frozen=True)
class PolicySolve:
    """Every deterministic policy of every arm, solved from one factorization.

    Arrays are batch-last. occupancy[s, j, i] is the initial-state-weighted
    discounted occupancy d = mu0^T (I - gamma T_pi)^{-1} of state s under
    policy j on arm i; values[s, j, i], when requested, is V_pi(s) under the
    reward given to solve_policies.
    """

    gamma: float
    actions: np.ndarray  # (P, S) action bits, row j = policy j
    occupancy: np.ndarray  # (S, P, N)
    values: np.ndarray | None = None  # (S, P, N)

    def returns(self, R: RewardSpec) -> np.ndarray:
        """(P, N) returns d . r_pi of every policy under reward R."""
        num_states = self.actions.shape[1]
        rewards = np.broadcast_to(R.per_step(num_states, self.actions), self.actions.shape)
        return np.einsum("sjn,js->jn", self.occupancy, rewards)

    def gradient(self, policy_weights: np.ndarray) -> np.ndarray:
        """(N, S, 2, S): sum_j policy_weights[j, i] * dJ_i(pi_j)/dT_i(s, a, s'),
        a view of (S, 2, S', N) memory, arms last.

        The closed form gamma * d(s) * V(s') on the action each policy
        takes in s, contracted over the policies taking action a in s. With
        the policy axis split into its action bits (policy_action_matrix's
        order: bit s of j is j's action in s), those policies are a slice.
        The contractions run on arm blocks (run_arm_blocks), across threads
        once each block gets at least _SPLIT_ENTRIES occupancy entries; each
        arm's sums run in the same order in any block of 2 or more arms, so
        no output depends on the CPU count.
        """
        if self.values is None:
            raise ValueError("return gradients need the values: solve with values=R")
        num_states, _, n_arms = self.values.shape
        by_bits = (num_states,) + (2,) * num_states + (-1,)  # bit s on axis S - s
        policy_weights = np.asarray(policy_weights, dtype=float)
        bits = string.ascii_uppercase[:num_states]
        grad = np.empty((num_states, 2, num_states, n_arms))

        def contract(occupancy, weights, values, grad):
            weighted = (occupancy * (self.gamma * weights)).reshape(by_bits)
            values = values.reshape(by_bits)
            for s in range(num_states):
                k = num_states - 1 - s
                others = bits[:k] + bits[k + 1 :]
                for a in (0, 1):
                    taking_a = (slice(None),) * k + (a,)
                    np.einsum(f"{others}n,t{others}n->tn", weighted[s][taking_a],
                              values[(slice(None),) + taking_a], out=grad[s, a])

        run_arm_blocks(contract, arm_blocks(n_arms, self.occupancy.size),
                       self.occupancy, policy_weights, self.values, grad)
        return grad.transpose(3, 0, 1, 2)


def _factor_in_place(M: np.ndarray) -> None:
    """LU of a batch-last stack of (S, S) matrices, in place.

    Afterwards M holds U on and above the diagonal and the multipliers of
    the unit lower-triangular L below it.

    No pivoting: every I - gamma*T_pi is strictly row diagonally dominant
    with margin 1 - gamma, because the rows of T_pi sum to 1 and gamma < 1.
    Each Schur complement keeps that margin, so every pivot is at least
    1 - gamma and the growth factor of elimination is at most 2.
    """
    for k in range(M.shape[0] - 1):
        M[k + 1 :, k] /= M[k, k]
        M[k + 1 :, k + 1 :] -= M[k + 1 :, k, None] * M[k, None, k + 1 :]


def _solve_right(LU: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """x with (L U) x = rhs, batch-last."""
    x = np.array(np.broadcast_to(rhs, LU.shape[1:]))
    num_states = LU.shape[0]
    for k in range(num_states - 1):
        x[k + 1 :] -= LU[k + 1 :, k] * x[k]
    for k in range(num_states - 1, -1, -1):
        x[k] /= LU[k, k]
        x[:k] -= LU[:k, k] * x[k]
    return x


def _solve_left(LU: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """x with x^T (L U) = rhs^T, i.e. U^T L^T x = rhs, batch-last."""
    x = np.array(np.broadcast_to(rhs, LU.shape[1:]))
    num_states = LU.shape[0]
    for k in range(num_states):
        x[k] /= LU[k, k]
        x[k + 1 :] -= LU[k, k + 1 :] * x[k]
    for k in range(num_states - 1, 0, -1):
        x[:k] -= LU[k, :k] * x[k]
    return x


def solve_policies(
    tensors: np.ndarray, setup: DiscountedSetup, values: RewardSpec | None = None
) -> PolicySolve:
    """Solve all 2^|S| deterministic policies of every arm at once.

    tensors has shape (N, |S|, 2, |S|) and setup.initial_dist (|S|,), or
    ValueError; a view of (S, 2, S', N) memory, as PredictiveModel.forward
    gives, is read in memory order. I - gamma*T_pi of every (policy, arm)
    pair is stacked batch-last and factored once; one left solve gives the
    occupancy, from which the returns under any reward follow, and values=R
    adds one right solve for V under R, which return gradients need. Arms
    are factored and solved in chunks of about _CHUNK_ENTRIES matrix
    entries; more than one chunk runs across threads (run_arm_blocks).
    Each arm's solve is elementwise over arms, so no output depends on the
    chunking or the CPU count.
    """
    tensors = np.asarray(tensors, dtype=float)
    n_arms, num_states = tensors.shape[0], tensors.shape[1]
    if setup.initial_dist.shape != (num_states,):
        raise ValueError(f"initial_dist has shape {setup.initial_dist.shape}, "
                         f"not ({num_states},) for {num_states}-state arms")
    actions = policy_action_matrix(num_states)
    n_policies = actions.shape[0]
    # scaled[s, a, t, i] = -gamma * T_i(s, a, t), contiguous over arms
    scaled = np.multiply(tensors.transpose(1, 2, 3, 0), -setup.gamma, order="C")
    s = np.arange(num_states)
    by_policy = (s[:, None, None], actions.T[:, None, :], s[None, :, None])
    initial = setup.initial_dist[:, None, None]
    if values is not None:
        rewards = np.broadcast_to(values.per_step(num_states, actions), actions.shape)
        rewards = rewards.T[:, :, None]
    occupancy = np.empty((num_states, n_policies, n_arms))
    V = None if values is None else np.empty_like(occupancy)

    def solve(scaled, occupancy, V):
        M = scaled[by_policy]  # (S, S, P, chunk): -gamma * T_pi
        for k in range(num_states):
            M[k, k] += 1.0
        _factor_in_place(M)
        occupancy[...] = _solve_left(M, initial)
        if V is not None:
            V[...] = _solve_right(M, rewards)

    chunk = max(1, _CHUNK_ENTRIES // (num_states * num_states * n_policies))
    run_arm_blocks(solve, max(1, -(-n_arms // chunk)), scaled, occupancy, V)
    return PolicySolve(gamma=setup.gamma, actions=actions, occupancy=occupancy, values=V)


def returns_on_truth(truth: np.ndarray, setup: DiscountedSetup) -> tuple[np.ndarray, np.ndarray]:
    """(j_true, j_budget): (P, N) engagement and budget returns of every
    policy on the true transitions, from one solve."""
    solved = solve_policies(truth, setup)
    return solved.returns(RewardSpec(ENGAGEMENT)), solved.returns(RewardSpec(BUDGET))


@dataclass(frozen=True)
class WhittleTable:
    """Per-state Whittle indices of one arm (same scale as the reward)."""

    wi: np.ndarray = field(default_factory=lambda: np.zeros(0))


_WHITTLE_TOL = 1e-8  # width of each index's final bisection bracket
_MAX_BISECTIONS = 200  # so that a tolerance below float resolution raises, not spins


def _acting_vs_passive(reduce, a, b, subsidy):
    """reduce (np.max or np.argmax) over the policies acting, then over those
    passive, in each arm's indexed state, of the (N, S, P) lines a + m*b at
    the (N, S) subsidies m."""
    lines = a + subsidy[..., None] * b
    acting = policy_action_matrix(lines.shape[1]).T == 1
    return [reduce(np.where(m, lines, -np.inf), axis=-1) for m in (acting, ~acting)]


def _whittle_solve(tensors, setup: DiscountedSetup):
    """The subsidy lines of every arm and the Whittle indices they give.

    The engine is solved once from each start state e_y. With a subsidy m
    paid per passive step, policy j of arm i is worth a[i, y, j] + m *
    b[i, y, j] at y: a is its engagement value, b its discounted count of
    passive steps. f_s(m), the best line in s of a policy acting in s minus
    that of one passive in s, has the sign of Q*(s, act) - Q*(s, passive),
    so the index of s, where the two are worth the same, is its root (Gast,
    Gaujal & Khun, arXiv 2203.05207). One bisection on +-1/(1-gamma) finds
    all N*S roots, ties resolving toward the lower subsidy. Roots at the
    bracket top (not indexable) are logged once, with their count and up
    to 5 of the (arm, state) pairs. Returns (occupancy, a, b, wi), with
    occupancy[y] the (S, P, N) occupancy from e_y and a, b (N, S, P).
    """
    tensors, tol = np.asarray(tensors, dtype=float), _WHITTLE_TOL
    num_states = tensors.shape[1]
    actions = policy_action_matrix(num_states)
    occupancy = np.empty((num_states, num_states, len(actions), len(tensors)))
    for y, start in enumerate(np.eye(num_states)):
        occupancy[y] = solve_policies(tensors, DiscountedSetup(setup.gamma, start)).occupancy
    a = np.einsum("yxjn,x->yjn", occupancy, engagement_rewards(num_states)).transpose(2, 0, 1)
    b = np.einsum("yxjn,jx->yjn", occupancy, 1.0 - actions).transpose(2, 0, 1)
    bound = 1.0 / (1.0 - setup.gamma)  # engagement rewards lie in [0, 1]
    lo, hi = np.full(a.shape[:2], -bound), np.full(a.shape[:2], bound)
    for _ in range(_MAX_BISECTIONS):
        open_ = hi - lo > tol
        if not open_.any():
            break
        mid = 0.5 * (lo + hi)
        act, passive = _acting_vs_passive(np.max, a, b, mid)
        higher = act - passive > 1e-14  # acting still strictly better: subsidy too low
        lo, hi = np.where(open_ & higher, mid, lo), np.where(open_ & ~higher, mid, hi)
    if np.any(hi - lo > tol):
        raise NumericError(f"Whittle bisection did not reach tol {tol} in {_MAX_BISECTIONS} steps")
    at_top = np.argwhere(hi >= bound - tol)
    if len(at_top):
        logger.warning("%d (arm, state) pairs may not be indexable: acting optimal at the "
                       "bracket top, such as %s", len(at_top),
                       ", ".join(f"({i}, {s})" for i, s in at_top[:5].tolist()))
    value = 0.5 * (lo + hi)
    return occupancy, a, b, np.where(np.abs(value) <= tol, 0.0, value)


def whittle_indices(tensors, setup: DiscountedSetup) -> np.ndarray:
    """(N, S) Whittle index of every state of every arm, engagement reward,
    by _whittle_solve's bisection to within _WHITTLE_TOL."""
    return _whittle_solve(tensors, setup)[3]


def whittle_gradients(tensors, setup: DiscountedSetup) -> tuple[np.ndarray, np.ndarray]:
    """(wi, grad): whittle_indices and grad[i, s] = d wi[i, s] / d T_i(x, a, y),
    (N, S, S, 2, S) and a view of (S, 2, S, N, S) memory, from the same lines.

    By implicit differentiation at the root of f_s, dWI/dT = -(df/dT) / (df/dm)
    with df/dm = b_act(s) - b_passive(s) for the best acting and best passive
    policies there. Each adds gamma * d(x) * V(y) from e_s, under the
    subsidized values a + WI*b, on the action it takes in x. A degenerate
    root (|df/dm| < 1e-12) gets a zero gradient.
    """
    occupancy, a, b, wi = _whittle_solve(tensors, setup)
    n, num_states = wi.shape
    arm, state = np.arange(n)[:, None], np.arange(num_states)
    best = _acting_vs_passive(np.argmax, a, b, wi)  # (N, S) policy ids
    slope = b[arm, state, best[0]] - b[arm, state, best[1]]
    scale = np.divide(-1.0, slope, out=np.zeros_like(slope), where=np.abs(slope) >= 1e-12)
    acting = policy_action_matrix(num_states) == 1
    grad = np.zeros((num_states, 2, num_states, n, num_states)).transpose(3, 4, 0, 1, 2)
    for j, weight in zip(best, (scale, -scale)):
        d = occupancy[state, :, j, arm] * (setup.gamma * weight)[..., None]  # (N, S, x) from e_s
        V = a[arm, :, j] + b[arm, :, j] * wi[..., None]  # (N, S, y) at subsidy wi
        term = d[..., None] * V[..., None, :]
        acts = acting[j][..., None]  # (N, S, x, 1): j acts in x
        grad[..., 1, :] += np.where(acts, term, 0.0)
        grad[..., 0, :] += np.where(acts, 0.0, term)
    return wi, grad


def whittle_index(T: TransitionTensor, R: RewardSpec, setup: DiscountedSetup) -> WhittleTable:
    """Whittle indices of one arm: the N=1 view of whittle_indices."""
    if R.kind != ENGAGEMENT:
        raise ValueError(f"Whittle indices need the engagement reward, not {R.kind!r}")
    return WhittleTable(wi=whittle_indices(T.probs[None], setup)[0])
