"""Joint-policy planning and evaluation.

Whittle top-B action selection, the one Monte Carlo rollout on the true
dynamics (behind both the joint evaluation and the SIM-DFL baseline), the
uncorrected decomposed relaxation (budget checked on predictions, kept to
demonstrate how it overshoots), a brute-force product-space solver for
tiny instances, and the budget audit.
"""

from __future__ import annotations

import itertools
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
    CapacityError,
    DiscountedSetup,
    RewardSpec,
    WhittleTable,
    engagement_rewards,
    solve_policies,
)

MAX_JOINT_STATES = 4096


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
class DecomposedPolicy:
    """Joint policy: each trajectory samples one per-arm policy per arm from Z."""

    z: np.ndarray  # (N, 2^S)


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

    Ties at the B-th rank resolve toward the lowest arm id; a budget of at
    least the arm count acts on every arm.
    """
    actions = np.zeros(np.shape(scores), dtype=int)
    # stable sort on (-score, arm id): lowest id wins ties
    chosen = np.argsort(-np.asarray(scores), axis=-1, kind="stable")[..., :budget]
    np.put_along_axis(actions, chosen, 1, axis=-1)
    return actions


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
    """
    n, num_states = cohort.num_arms, cohort.num_states
    setup = cohort.setup
    rewards = engagement_rewards(num_states)
    cum_trans = np.cumsum(cohort.tensors, axis=-1)  # (N, S, 2, S)
    arm_idx = np.arange(n)
    states = rng.choice(num_states, size=(trajectories, n), p=setup.initial_dist)
    returns = np.zeros(trajectories)
    budget_used = np.zeros(trajectories)
    discount = 1.0
    for _ in range(simulation_horizon(setup, n)):
        actions = act(states)
        returns += discount * rewards[states].sum(axis=1)
        budget_used += discount * actions.sum(axis=1)
        u = rng.random(size=states.shape)
        cdf = cum_trans[arm_idx, states, actions, :]  # (traj, N, S)
        states = np.minimum((u[..., None] > cdf).sum(axis=-1), num_states - 1)
        discount *= setup.gamma
    return returns, budget_used


def simulate_joint(cohort: Cohort, policy, trajectories: int, seed: int) -> SimulationResult:
    """Monte Carlo estimate of a joint policy's discounted return, by `rollout`.

    `WhittleTopB` acts on the B arms with the largest current-state indices.
    `FixedPerArmPolicy` and `DecomposedPolicy` act by the bits of per-arm
    policy indices; a `DecomposedPolicy` first draws one per-arm policy per
    arm and trajectory from Z. Deterministic for a fixed seed.
    """
    if trajectories < 1:
        raise ValueError("need at least one trajectory")
    rng = np.random.default_rng(seed)
    n = cohort.num_arms
    if isinstance(policy, WhittleTopB):
        wi = np.stack([t.wi for t in policy.tables])  # (N, S)

        def act(states):
            return top_b_actions(wi[np.arange(n), states], policy.budget)

    else:
        if isinstance(policy, FixedPerArmPolicy):
            indices = np.asarray(policy.policy_indices)
        elif isinstance(policy, DecomposedPolicy):
            # one deterministic per-arm policy per trajectory (mixture semantics)
            indices = np.empty((trajectories, n), dtype=int)
            for i in range(n):
                indices[:, i] = rng.choice(
                    policy.z.shape[1], size=trajectories, p=policy.z[i] / policy.z[i].sum()
                )
        else:
            raise TypeError(f"unknown joint policy {type(policy).__name__}")

        def act(states):
            # bit s of a per-arm policy index is its action in state s
            return (indices >> states) & 1

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


def brute_force_joint(cohort: Cohort, budget: int) -> tuple[float, dict]:
    """Exact optimal joint deterministic stationary policy on the product
    state space with the per-state constraint sum_i a_i <= B.

    Value iteration to residual 1e-10. Only for tiny instances.
    """
    n, num_states = cohort.num_arms, cohort.num_states
    joint_states = num_states ** n
    if joint_states > MAX_JOINT_STATES:
        raise CapacityError(f"product state space {joint_states} exceeds {MAX_JOINT_STATES}")
    gamma = cohort.setup.gamma
    rewards = engagement_rewards(num_states)
    state_tuples = list(itertools.product(range(num_states), repeat=n))
    actions_feasible = [
        a for a in itertools.product((0, 1), repeat=n) if sum(a) <= budget
    ]
    # joint transition per (state, action): product of per-arm rows
    reward_vec = np.array([sum(rewards[s] for s in st) for st in state_tuples])
    trans = np.empty((len(actions_feasible), joint_states, joint_states))
    for ai, act in enumerate(actions_feasible):
        for si, st in enumerate(state_tuples):
            rows = [cohort.tensors[i, st[i], act[i], :] for i in range(n)]
            joint = rows[0]
            for r in rows[1:]:
                joint = np.outer(joint, r).reshape(-1)
            trans[ai, si, :] = joint
    V = np.zeros(joint_states)
    for _ in range(10_000_000):
        Q = reward_vec[None, :] + gamma * (trans @ V)
        V_next = Q.max(axis=0)
        if np.max(np.abs(V_next - V)) < 1e-10:
            V = V_next
            break
        V = V_next
    best_actions = Q.argmax(axis=0)
    init = cohort.setup.initial_dist
    joint_init = init
    for _ in range(n - 1):
        joint_init = np.outer(joint_init, init).reshape(-1)
    value = float(joint_init @ V)
    policy = {
        state_tuples[si]: actions_feasible[best_actions[si]] for si in range(joint_states)
    }
    return value, policy
