"""Joint-policy planning and evaluation.

Whittle top-B action selection and the one Monte Carlo rollout on the
true dynamics, behind both the joint evaluation and the SIM-DFL
baseline. The brute-force joint solver of the tests is in
tests/oracles.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .mdp import (
    DiscountedSetup, WhittleTable, checked_transitions, engagement_rewards, returns_on_truth
)


@dataclass(frozen=True)
class Cohort:
    """Arms sharing a budget and discounting setup; checked_transitions checks the
    tensors, the features must be (N, d) and the start distribution (S,)."""

    features: np.ndarray  # (N, d)
    tensors: np.ndarray  # (N, S, 2, S) true transitions
    budget: float
    setup: DiscountedSetup

    def __post_init__(self):
        object.__setattr__(self, "features", np.asarray(self.features, dtype=float))
        object.__setattr__(self, "tensors", checked_transitions(self.tensors, 1, "cohort tensors"))
        if self.features.ndim != 2 or len(self.features) != self.num_arms:
            raise ValueError(f"features of shape {self.features.shape} for {self.num_arms} arms")
        if not 0 < self.budget <= self.num_arms:
            raise ValueError(f"budget must lie in (0, N={self.num_arms}]")
        if self.setup.initial_dist.shape != (self.num_states,):
            shape = self.setup.initial_dist.shape
            raise ValueError(f"initial_dist of shape {shape} for {self.num_states}-state arms")

    @property
    def num_arms(self) -> int:
        return self.tensors.shape[0]

    @property
    def num_states(self) -> int:
        return self.tensors.shape[1]

    @cached_property
    def true_returns(self) -> tuple[np.ndarray, np.ndarray]:
        """(P, N) j_true and j_budget of every per-arm policy on the true tensors.

        Solved on first use and kept, read-only: the true tensors never
        change, while training and evaluation read these tables every pass.
        """
        tables = returns_on_truth(self.tensors, self.setup)
        for table in tables:
            table.setflags(write=False)
        return tables


@dataclass(frozen=True)
class WhittleTopB:
    """Joint policy: act on the B arms with the largest current-state indices."""

    tables: list[WhittleTable]
    budget: int


@dataclass(frozen=True)
class FixedPerArmPolicy:
    """Joint policy: a fixed deterministic per-arm policy index for every arm."""

    policy_indices: np.ndarray  # (N,)


@dataclass(frozen=True)
class SimulationResult:
    mean_return: float
    std_error: float
    mean_budget_used: float

    @classmethod
    def of(cls, returns: np.ndarray, budget_used: np.ndarray) -> "SimulationResult":
        """Means of one policy's per-trajectory rollout values, and the
        standard error of the mean return (0 for a single trajectory)."""
        trajectories = len(returns)
        se = float(returns.std(ddof=1) / np.sqrt(trajectories)) if trajectories > 1 else 0.0
        return cls(
            mean_return=float(returns.mean()),
            std_error=se,
            mean_budget_used=float(budget_used.mean()),
        )


def top_b_actions(scores: np.ndarray, budget: int) -> np.ndarray:
    """0/1 actions on the `budget` largest scores along the last axis.

    Takes v, the B-th largest score, by `np.partition` and acts on every
    score >= v. Only when some row then holds more than B arms (ties at
    v) does it keep the scores above v and fill the rest with the lowest
    arm ids among the scores equal to v. A budget of at least the arm
    count acts on every arm, and a budget of zero or less on none.
    """
    scores = np.asarray(scores)
    n = scores.shape[-1]
    if budget >= n:
        return np.ones(scores.shape, dtype=int)
    if budget <= 0:
        return np.zeros(scores.shape, dtype=int)
    v = np.partition(scores, n - budget, axis=-1)[..., n - budget, None]
    chosen = scores >= v
    # every row holds at least B scores >= v, so a total above B per row
    # means some row holds more
    if np.count_nonzero(chosen) > budget * (chosen.size // n):
        tied = scores == v
        room = budget - np.sum(scores > v, axis=-1, keepdims=True)
        chosen = (scores > v) | (tied & (np.cumsum(tied, axis=-1) <= room))
    return chosen.astype(int)


def simulation_horizon(setup: DiscountedSetup, num_arms: int) -> int:
    """Steps until the discounted tail of num_arms unit rewards is below horizon_tol."""
    gamma = setup.gamma
    tail_cap = setup.horizon_tol
    horizon = int(np.ceil(np.log(tail_cap * (1 - gamma) / max(num_arms, 1e-12)) / np.log(gamma)))
    return max(horizon, 1)


def rollout(cohort: Cohort, trajectories: int, rng: np.random.Generator, *acts):
    """Roll joint policies out on the cohort's true dynamics, in one pass.

    Draws the initial states, then for `simulation_horizon` steps asks
    each `act(states)` for its (trajectories, N) 0/1 actions (int or
    bool, and the same array each step if the act likes: the pass is done
    with them before it asks again), adds the
    discounted engagement and action count, draws one uniform per
    (trajectory, arm) and samples every arm's next state from it. Returns
    the per-trajectory discounted (returns, budget_used): each (T,) for
    one act, and (K, T) for K acts.

    All acts share the initial states and each step's uniforms, and an
    act is asked before the step's uniforms are drawn. So one act may
    draw from `rng` (SIM-DFL's soft top-B does); when none does, every
    policy of the pass gets exactly the values of its own one-act
    rollout from the same generator state.

    The next state of an arm in state s under action a is the number of
    cumulative-probability entries of its (s, a) row that the uniform
    exceeds. The first S-1 entries of every row are kept as one flat
    (S-1, N*S*2) array, row 2*(S*i + s) + a, so a step gathers (T, N)
    values per entry with `take` and holds no (T, N, S) array. Each
    policy's states, the row indices and the uniforms are updated in
    place.
    """
    if not acts:
        raise ValueError("need at least one act")
    if trajectories < 1:
        raise ValueError("need at least one trajectory")
    n, num_states = cohort.num_arms, cohort.num_states
    setup = cohort.setup
    rewards = engagement_rewards(num_states)
    flat_cdf = np.cumsum(cohort.tensors, axis=-1).reshape(-1, num_states)[:, :-1].T.copy()
    row_base = 2 * num_states * np.arange(n)
    first = rng.choice(num_states, size=(trajectories, n), p=setup.initial_dist)
    states = [first] + [first.copy() for _ in acts[1:]]
    rows, u = np.empty_like(first), np.empty(first.shape)
    returns = np.zeros((len(acts), trajectories))
    budget_used = np.zeros((len(acts), trajectories))
    discount = 1.0
    for _ in range(simulation_horizon(setup, n)):
        actions = [act(s) for act, s in zip(acts, states)]
        rng.random(out=u)
        for k, (s, a) in enumerate(zip(states, actions)):
            returns[k] += discount * rewards.take(s).sum(axis=1)
            budget_used[k] += discount * a.sum(axis=1)
            np.multiply(s, 2, out=rows)
            rows += row_base
            rows += a
            # the rows are nondecreasing, so leaving out the last entry (about 1)
            # caps the count at S-1
            np.greater(u, flat_cdf[0].take(rows), out=s)
            for cdf in flat_cdf[1:]:
                s += u > cdf.take(rows)
        del actions, a  # so that the next step's acts do not sit beside them
        discount *= setup.gamma
    if len(acts) == 1:
        return returns[0], budget_used[0]
    return returns, budget_used


def whittle_act(wi: np.ndarray, budget: int):
    """`act` of Whittle top-B on the (N, S) indices `wi`, by integer ranks.

    One stable argsort of -wi ranks all N*S (arm, state) codes S*i + s:
    higher index first, and equal indices by code, so by arm id. Each step
    then passes the negated int32 ranks of the current codes to
    `top_b_actions`; they have no ties, so it picks the same arms as on
    the indices themselves (lowest arm id first among equal indices), and
    partitions integers instead of floats.
    """
    n, num_states = wi.shape
    neg_rank = np.empty(wi.size, dtype=np.int32)
    neg_rank[np.argsort(-wi, axis=None, kind="stable")] = -np.arange(wi.size, dtype=np.int32)
    arm_codes = num_states * np.arange(n)
    return lambda states: top_b_actions(neg_rank.take(arm_codes + states), budget)


def simulate_joint(cohort: Cohort, policy, trajectories: int, seed: int) -> SimulationResult:
    """Monte Carlo estimate of a joint policy's discounted return: the
    one-policy view of `rollout`.

    `WhittleTopB` acts on the B arms with the largest current-state indices
    (ties to the lowest arm id, by `whittle_act`), and must hold N tables
    of S finite indices. `FixedPerArmPolicy` acts by the bits of one
    per-arm policy index per arm, which must be N integers in [0, 2^S).
    Other input raises ValueError before any step. Deterministic for a
    fixed seed.
    """
    n, num_states = cohort.num_arms, cohort.num_states
    if isinstance(policy, WhittleTopB):
        wi = [np.asarray(table.wi, dtype=float) for table in policy.tables]
        if len(wi) != n or any(w.shape != (num_states,) for w in wi) or not np.isfinite(wi).all():
            raise ValueError(f"a WhittleTopB needs {n} tables of {num_states} finite indices")
        act = whittle_act(np.stack(wi), policy.budget)
    elif isinstance(policy, FixedPerArmPolicy):
        indices, top = np.asarray(policy.policy_indices), 2**num_states
        in_range = indices.dtype.kind in "iu" and np.all((indices >= 0) & (indices < top))
        if indices.shape != (n,) or not in_range:
            raise ValueError(f"policy_indices must be {n} integers in [0, {top})")

        def act(states):
            # bit s of a per-arm policy index is its action in state s
            return (indices >> states) & 1

    else:
        raise TypeError(f"unknown joint policy {type(policy).__name__}")
    return SimulationResult.of(*rollout(cohort, trajectories, np.random.default_rng(seed), act))
