"""Per-arm MDP primitives: transition tensors, policy enumeration, exact
policy evaluation, return gradients, and Whittle indices.

Each arm is a small MDP with binary actions (act / don't act). All
evaluation is exact (direct linear solves of the Bellman equations), so
none of the downstream machinery needs Monte Carlo rollouts. The returns
engine, solve_policies, solves every policy of every arm at once; the
scalar get_returns / returns_gradient and value_iteration are the
independent oracles it is tested against.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

logger = logging.getLogger(__name__)

MAX_STATES = 12  # 2^|S| per-arm policy tables must stay small

ENGAGEMENT = "engagement"
BUDGET = "budget"


class CapacityError(ValueError):
    """Raised when an instance exceeds the supported problem size."""


class NumericError(RuntimeError):
    """Raised when a numeric routine fails to converge or is ill-posed."""


@dataclass(frozen=True)
class TransitionTensor:
    """Per-arm transition probabilities with shape (|S|, 2, |S|).

    probs[s, a, s'] is the probability of moving to s' from s under
    action a. Rows must lie on the probability simplex.
    """

    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "probs", probs)
        if probs.ndim != 3 or probs.shape[1] != 2 or probs.shape[0] != probs.shape[2]:
            raise ValueError(f"expected shape (S, 2, S), got {probs.shape}")
        if probs.shape[0] > MAX_STATES:
            raise CapacityError(
                f"{probs.shape[0]} states exceeds the supported maximum of {MAX_STATES}"
            )
        if np.any(probs < -1e-12) or np.any(probs > 1 + 1e-12):
            raise ValueError("transition probabilities must lie in [0, 1]")
        row_sums = probs.sum(axis=-1)
        if np.max(np.abs(row_sums - 1.0)) > 1e-9:
            raise ValueError("every (s, a) row must sum to 1 within 1e-9")

    @property
    def num_states(self) -> int:
        return self.probs.shape[0]

    @property
    def num_actions(self) -> int:
        return 2


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
    """State rewards s/(|S|-1); a single state pays 0."""
    if num_states == 1:
        return np.zeros(1)
    return np.arange(num_states, dtype=float) / (num_states - 1)


@dataclass(frozen=True)
class DiscountedSetup:
    """Discount factor, initial-state distribution, and simulation truncation tolerance."""

    gamma: float
    initial_dist: np.ndarray
    horizon_tol: float = 1e-3

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise NumericError(f"gamma must lie in (0, 1), got {self.gamma}")
        dist = np.asarray(self.initial_dist, dtype=float)
        object.__setattr__(self, "initial_dist", dist)
        if dist.ndim != 1 or np.any(dist < -1e-12) or abs(dist.sum() - 1.0) > 1e-9:
            raise ValueError("initial_dist must be a probability vector summing to 1 within 1e-9")

    @property
    def num_states(self) -> int:
        return self.initial_dist.shape[0]


def uniform_setup(num_states: int, gamma: float, horizon_tol: float = 1e-3) -> DiscountedSetup:
    return DiscountedSetup(gamma, np.full(num_states, 1.0 / num_states), horizon_tol)


@dataclass(frozen=True)
class PerArmPolicy:
    """Deterministic state -> {0,1} map; bit s of `index` is the action in state s."""

    index: int
    num_states: int

    def __post_init__(self):
        if not 0 <= self.index < 2 ** self.num_states:
            raise ValueError(f"policy index {self.index} out of range for {self.num_states} states")

    @property
    def actions(self) -> np.ndarray:
        return np.array([(self.index >> s) & 1 for s in range(self.num_states)], dtype=int)

    def action_of(self, state: int) -> int:
        return (self.index >> state) & 1


def enumerate_policies(num_states: int) -> list[PerArmPolicy]:
    """All 2^|S| deterministic per-arm policies, indexed bitwise."""
    if not 1 <= num_states <= MAX_STATES:
        raise CapacityError(f"num_states must be in [1, {MAX_STATES}], got {num_states}")
    return [PerArmPolicy(j, num_states) for j in range(2 ** num_states)]


def policy_action_matrix(num_states: int) -> np.ndarray:
    """(2^|S|, |S|) matrix of action bits, row j = policy j."""
    if not 1 <= num_states <= MAX_STATES:
        raise CapacityError(f"num_states must be in [1, {MAX_STATES}], got {num_states}")
    policies = np.arange(2 ** num_states)[:, None]
    return (policies >> np.arange(num_states)[None, :]) & 1


def _policy_chain(T: TransitionTensor, actions: np.ndarray) -> np.ndarray:
    s = np.arange(T.num_states)
    return T.probs[s, actions, :]


def _value_function(T_pi: np.ndarray, rewards: np.ndarray, gamma: float) -> np.ndarray:
    num_states = T_pi.shape[0]
    try:
        return np.linalg.solve(np.eye(num_states) - gamma * T_pi, rewards)
    except np.linalg.LinAlgError as exc:  # only reachable if gamma >= 1
        raise NumericError("singular Bellman system") from exc


def get_returns(
    T: TransitionTensor, R: RewardSpec, pi: PerArmPolicy, setup: DiscountedSetup
) -> float:
    """Exact infinite-horizon discounted return of a deterministic policy.

    Solves V = (I - gamma * T_pi)^{-1} r and averages V over the
    initial-state distribution.
    """
    actions = pi.actions
    T_pi = _policy_chain(T, actions)
    rewards = R.per_step(T.num_states, actions)
    V = _value_function(T_pi, rewards, setup.gamma)
    return float(setup.initial_dist @ V)


def get_budget_usage(T: TransitionTensor, pi: PerArmPolicy, setup: DiscountedSetup) -> float:
    """Expected discounted count of act-actions under the policy."""
    return get_returns(T, RewardSpec(BUDGET), pi, setup)


def returns_gradient(
    T: TransitionTensor, R: RewardSpec, pi: PerArmPolicy, setup: DiscountedSetup
) -> np.ndarray:
    """dJ/dT(s, a, s') for every transition entry.

    Entries for the action the policy never takes in a state are zero.
    Uses the closed form gamma * d(s) * V(s') where d is the
    initial-state-weighted discounted occupancy of the policy chain.
    """
    actions = pi.actions
    T_pi = _policy_chain(T, actions)
    rewards = R.per_step(T.num_states, actions)
    gamma = setup.gamma
    V = _value_function(T_pi, rewards, gamma)
    occupancy = np.linalg.solve(np.eye(T.num_states) - gamma * T_pi.T, setup.initial_dist)
    grad = np.zeros_like(T.probs)
    grad[np.arange(T.num_states), actions, :] = gamma * np.outer(occupancy, V)
    return grad


def stack_tensors(tensors) -> np.ndarray:
    """(N, S, 2, S) array from an array or a sequence of tensors / arrays."""
    if isinstance(tensors, np.ndarray):
        return tensors
    return np.stack(
        [t.probs if isinstance(t, TransitionTensor) else np.asarray(t) for t in tensors]
    )


# Entries of I - gamma*T_pi factored at once (2 MB). Arms are solved in
# chunks this small so that each elimination step runs in cache; it also
# bounds the transient factor (one 12-state arm, 4.7 MB, is a chunk alone).
_CHUNK_ENTRIES = 1 << 18


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
        """(N, P) returns d . r_pi of every policy under reward R."""
        num_states = self.actions.shape[1]
        rewards = np.broadcast_to(R.per_step(num_states, self.actions), self.actions.shape)
        return np.ascontiguousarray(np.einsum("sjn,js->nj", self.occupancy, rewards))

    def gradient(self, policy_weights: np.ndarray) -> np.ndarray:
        """(N, S, 2, S): sum_j policy_weights[i, j] * dJ_i(pi_j)/dT_i(s, a, s').

        The closed form of returns_gradient, gamma * d(s) * V(s') on the
        action each policy takes in s, contracted over policies.
        """
        if self.values is None:
            raise ValueError("return gradients need the values: solve with values=R")
        weighted = self.occupancy * (self.gamma * np.asarray(policy_weights, dtype=float).T)
        acted = weighted * self.actions.T[:, :, None]  # (S, P, N)
        weighted -= acted  # what remains is the passive action's share
        n_arms, num_states = self.occupancy.shape[2], self.occupancy.shape[0]
        grad = np.empty((n_arms, num_states, 2, num_states))
        grad[:, :, 1, :] = np.einsum("sjn,tjn->nst", acted, self.values)
        grad[:, :, 0, :] = np.einsum("sjn,tjn->nst", weighted, self.values)
        return grad


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

    tensors has shape (N, |S|, 2, |S|). I - gamma*T_pi of every (policy,
    arm) pair is stacked batch-last and factored once; one left solve gives
    the occupancy, from which the returns under any reward follow, and
    values=R adds one right solve for V under R, which return gradients need.
    """
    tensors = stack_tensors(tensors).astype(float, copy=False)
    n_arms, num_states = tensors.shape[0], tensors.shape[1]
    actions = policy_action_matrix(num_states)
    n_policies = actions.shape[0]
    # scaled[s, t, a, i] = -gamma * T_i(s, a, t), contiguous over arms
    scaled = np.ascontiguousarray(tensors.transpose(1, 3, 2, 0)) * -setup.gamma
    s = np.arange(num_states)
    by_policy = (s[:, None, None], s[None, :, None], actions.T[:, None, :])
    initial = setup.initial_dist[:, None, None]
    if values is not None:
        rewards = np.broadcast_to(values.per_step(num_states, actions), actions.shape)
        rewards = rewards.T[:, :, None]
    occupancy = np.empty((num_states, n_policies, n_arms))
    V = None if values is None else np.empty_like(occupancy)
    chunk = max(1, _CHUNK_ENTRIES // (num_states * num_states * n_policies))
    for start in range(0, n_arms, chunk):
        arms = slice(start, start + chunk)
        M = scaled[by_policy + (arms,)]  # (S, S, P, chunk): -gamma * T_pi
        for k in range(num_states):
            M[k, k] += 1.0
        _factor_in_place(M)
        occupancy[:, :, arms] = _solve_left(M, initial)
        if V is not None:
            V[:, :, arms] = _solve_right(M, rewards)
    return PolicySolve(gamma=setup.gamma, actions=actions, occupancy=occupancy, values=V)


def batched_policy_returns(
    tensors: np.ndarray, R: RewardSpec, setup: DiscountedSetup
) -> np.ndarray:
    """(N, 2^|S|) returns of every deterministic policy for every arm.

    tensors has shape (N, |S|, 2, |S|). A view of solve_policies.
    """
    return solve_policies(tensors, setup).returns(R)


def batched_returns_gradients(
    tensors: np.ndarray,
    policy_weights: np.ndarray,
    R: RewardSpec,
    setup: DiscountedSetup,
) -> np.ndarray:
    """Weighted sum over policies of per-policy return gradients.

    Returns (N, |S|, 2, |S|) with entry sum_j policy_weights[i, j] *
    dJ_i(pi_j)/dT_i(s, a, s'). Used to chain a loss gradient w.r.t. the
    per-policy returns back onto predicted transition entries. A view of
    solve_policies.
    """
    return solve_policies(tensors, setup, values=R).gradient(policy_weights)


@dataclass(frozen=True)
class WhittleTable:
    """Per-state Whittle indices of one arm (same scale as the reward)."""

    wi: np.ndarray = field(default_factory=lambda: np.zeros(0))


def _optimal_subsidized_values(
    T: TransitionTensor, rewards: np.ndarray, subsidy: float, gamma: float
) -> np.ndarray:
    """Q(s, a) of the optimal policy of the subsidy-lambda single-arm problem.

    The passive action earns the subsidy on top of the state reward.
    Solved exactly by policy iteration (small state spaces only).
    """
    num_states = T.num_states
    actions = np.zeros(num_states, dtype=int)
    eye = np.eye(num_states)
    for _ in range(2 ** num_states + 1):
        r_pi = rewards + subsidy * (1 - actions)
        T_pi = _policy_chain(T, actions)
        V = np.linalg.solve(eye - gamma * T_pi, r_pi)
        Q = rewards[:, None] + subsidy * np.array([1.0, 0.0])[None, :] + gamma * (T.probs @ V)
        # stable improvement: keep the current action on exact ties
        new_actions = np.where(Q[:, 1] > Q[:, 0] + 1e-14, 1, 0)
        if np.array_equal(new_actions, actions):
            return Q
        actions = new_actions
    return Q


def whittle_index(
    T: TransitionTensor,
    R: RewardSpec,
    setup: DiscountedSetup,
    tol: float = 1e-8,
    max_iters: int = 200,
) -> WhittleTable:
    """Whittle index of every state by binary search on the passive subsidy.

    For each state, finds the subsidy at which acting and staying passive
    are equally valuable in the subsidized single-arm problem. Indexability
    is assumed; bracket inconsistencies are logged, not fatal.
    """
    num_states = T.num_states
    rewards = R.per_step(num_states, np.zeros(num_states, dtype=int))
    gamma = setup.gamma
    r_max = float(np.max(np.abs(rewards))) if np.any(rewards) else 1.0
    bound = r_max / (1.0 - gamma)
    wi = np.zeros(num_states)
    for s in range(num_states):
        lo, hi = -bound, bound
        for _ in range(max_iters):
            if hi - lo <= tol:
                break
            mid = 0.5 * (lo + hi)
            Q = _optimal_subsidized_values(T, rewards, mid, gamma)
            if Q[s, 1] > Q[s, 0] + 1e-14:
                lo = mid  # acting still strictly better: subsidy too low
            else:
                hi = mid  # ties resolve toward the lower subsidy
        if hi - lo > tol:
            raise NumericError(
                f"Whittle binary search did not converge for state {s}: "
                f"bracket [{lo}, {hi}], tol {tol}"
            )
        if hi >= bound - tol:
            logger.warning("arm may not be indexable: acting optimal at bracket top (state %d)", s)
        value = 0.5 * (lo + hi)
        wi[s] = 0.0 if abs(value) <= tol else value
    return WhittleTable(wi=wi)


def value_iteration(
    T: TransitionTensor,
    R: RewardSpec,
    pi: PerArmPolicy,
    setup: DiscountedSetup,
    residual: float = 1e-10,
    max_iters: int = 1_000_000,
) -> float:
    """Policy evaluation by fixed-point iteration; oracle for get_returns."""
    actions = pi.actions
    T_pi = _policy_chain(T, actions)
    rewards = R.per_step(T.num_states, actions)
    V = np.zeros(T.num_states)
    for _ in range(max_iters):
        V_next = rewards + setup.gamma * (T_pi @ V)
        if np.max(np.abs(V_next - V)) < residual:
            V = V_next
            break
        V = V_next
    return float(setup.initial_dist @ V)
