"""Joint-policy planning and evaluation.

Whittle top-B action selection, the one Monte Carlo rollout on the true
dynamics (behind both the joint evaluation and the SIM-DFL baseline), the
uncorrected decomposed relaxation (budget checked on predictions, kept to
demonstrate how it overshoots), and the budget audit. The brute-force
joint solver of the tests is in tests/oracles.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dec_layer import (
    DualSolution,
    RegularizerConfig,
    ReturnsTable,
    SolverConfig,
    forward_pass,
    returns_on_truth,
)
from .mdp import (
    BUDGET,
    ENGAGEMENT,
    DiscountedSetup,
    RewardSpec,
    WhittleTable,
    engagement_rewards,
    solve_policies,
)

@dataclass(frozen=True)
class Cohort:
    """A set of arms sharing a budget and discounting setup."""

    features: np.ndarray  # (N, d)
    tensors: np.ndarray  # (N, S, 2, S) true transitions
    budget: float
    setup: DiscountedSetup

    def __post_init__(self):
        object.__setattr__(self, "features", np.asarray(self.features, dtype=float))
        object.__setattr__(self, "tensors", np.asarray(self.tensors, dtype=float))
        if not 0 < self.budget <= self.num_arms:
            raise ValueError(f"budget must lie in (0, N={self.num_arms}]")

    @property
    def num_arms(self) -> int:
        return self.tensors.shape[0]

    @property
    def num_states(self) -> int:
        return self.tensors.shape[1]

    @cached_property
    def true_returns(self) -> tuple[np.ndarray, np.ndarray]:
        """(j_true, j_budget) of every per-arm policy on the true tensors.

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
    if np.any(chosen.sum(axis=-1) > budget):
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


def rollout(cohort: Cohort, trajectories: int, rng: np.random.Generator, act):
    """Roll a joint policy out on the cohort's true dynamics.

    Draws the initial states, then for `simulation_horizon` steps asks
    `act(states)` (which may draw from `rng`) for the (trajectories, N) 0/1
    actions, adds the discounted engagement and action count, and samples
    every arm's next state. Returns the per-trajectory discounted
    (returns, budget_used).

    The next state of an arm in state s under action a is the number of
    cumulative-probability entries of its (s, a) row that a uniform draw
    exceeds. The first S-1 entries of every row are kept as one flat
    (S-1, N*S*2) array, row 2*(S*i + s) + a, so a step gathers (T, N)
    values per entry and holds no (T, N, S) array.
    """
    n, num_states = cohort.num_arms, cohort.num_states
    setup = cohort.setup
    rewards = engagement_rewards(num_states)
    flat_cdf = np.cumsum(cohort.tensors, axis=-1).reshape(-1, num_states)[:, :-1].T.copy()
    row_base = 2 * num_states * np.arange(n)
    states = rng.choice(num_states, size=(trajectories, n), p=setup.initial_dist)
    returns = np.zeros(trajectories)
    budget_used = np.zeros(trajectories)
    discount = 1.0
    for _ in range(simulation_horizon(setup, n)):
        actions = act(states)
        returns += discount * rewards[states].sum(axis=1)
        budget_used += discount * actions.sum(axis=1)
        u = rng.random(size=states.shape)
        rows = row_base + 2 * states + actions
        # the rows are nondecreasing, so leaving out the last entry (about 1)
        # caps the count at S-1
        states = np.zeros_like(states)
        for cdf in flat_cdf:
            states += u > cdf[rows]
        discount *= setup.gamma
    return returns, budget_used


def simulate_joint(cohort: Cohort, policy, trajectories: int, seed: int) -> SimulationResult:
    """Monte Carlo estimate of a joint policy's discounted return, by `rollout`.

    `WhittleTopB` acts on the B arms with the largest current-state indices.
    `FixedPerArmPolicy` acts by the bits of one per-arm policy index per
    arm, which must be N integers in [0, 2^S). Deterministic for a fixed
    seed.
    """
    if trajectories < 1:
        raise ValueError("need at least one trajectory")
    rng = np.random.default_rng(seed)
    n = cohort.num_arms
    if isinstance(policy, WhittleTopB):
        wi = np.stack([t.wi for t in policy.tables])  # (N, S)

        def act(states):
            return top_b_actions(wi[np.arange(n), states], policy.budget)

    elif isinstance(policy, FixedPerArmPolicy):
        indices, top = np.asarray(policy.policy_indices), 2 ** cohort.num_states
        in_range = indices.dtype.kind in "iu" and np.all((indices >= 0) & (indices < top))
        if indices.shape != (n,) or not in_range:
            raise ValueError(f"policy_indices must be {n} integers in [0, {top})")

        def act(states):
            # bit s of a per-arm policy index is its action in state s
            return (indices >> states) & 1

    else:
        raise TypeError(f"unknown joint policy {type(policy).__name__}")

    returns, budget_used = rollout(cohort, trajectories, rng, act)
    se = float(returns.std(ddof=1) / np.sqrt(trajectories)) if trajectories > 1 else 0.0
    return SimulationResult(
        mean_return=float(returns.mean()),
        std_error=se,
        mean_budget_used=float(budget_used.mean()),
    )


def uncorrected_policy(
    pred: np.ndarray,
    cfg: SolverConfig,
    setup: DiscountedSetup,
    reg: RegularizerConfig | None = None,
) -> DualSolution:
    """Decomposed solve with the budget usage evaluated on *predicted*
    transitions. Exists to reproduce the budget-overshoot failure mode;
    never use it for training.
    """
    if reg is None:
        reg = RegularizerConfig(kind="entropy", alpha=1e-3)
    solved = solve_policies(pred, setup)
    j_pred = solved.returns(RewardSpec(ENGAGEMENT))
    j_budget = solved.returns(RewardSpec(BUDGET))
    tables = ReturnsTable(j_pred=j_pred, j_true=j_pred, j_budget=j_budget)
    return forward_pass(tables, reg, cfg)


def budget_audit(cohort: Cohort, sol: DualSolution, per_step: bool = False) -> float:
    """Ratio of true-transition budget usage to the available budget.

    By default the denominator is the discounted cap B/(1-gamma), so a
    feasible corrected solution audits at <= 1. With per_step=True the
    denominator is the per-step budget B, the overshoot factor quoted for
    the mismatched-prediction failure case.
    """
    used = float(np.sum(sol.z_star * cohort.true_returns[1]))
    denom = cohort.budget if per_step else cohort.budget / (1.0 - cohort.setup.gamma)
    return used / denom

