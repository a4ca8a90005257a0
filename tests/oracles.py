"""Scalar oracles for the package's fast paths, written on plain arrays.

Each function takes what it needs as numpy arrays and floats: a per-arm
transition array probs[s, a, s'] of shape (S, 2, S), a policy's action
bits (one per state), the discount gamma and the initial-state
distribution. Nothing here imports rmab_dfl (a test parses this file to
enforce it), so the engine, the dual layer and the joint planners are
checked against code that shares none of their types, reward rules or
solvers. SIM-DFL's soft top-B selection is checked against a
compacting Newton solve.
"""

from __future__ import annotations

import itertools

import numpy as np

MAX_JOINT_STATES = 4096


def _engagement(num_states: int) -> np.ndarray:
    """State rewards s/(S-1); a single state pays 0."""
    return np.arange(num_states) / max(num_states - 1, 1)


def _rewards(actions, kind: str = "engagement") -> np.ndarray:
    """Per-state reward of a policy: engagement pays s/(S-1), budget pays
    the action bit."""
    actions = np.asarray(actions)
    if kind == "budget":
        return actions.astype(float)
    if kind != "engagement":
        raise ValueError(f"unknown reward kind {kind!r}")
    return _engagement(actions.shape[0])


def _policy_chain(probs, actions) -> np.ndarray:
    probs = np.asarray(probs, dtype=float)
    return probs[np.arange(probs.shape[0]), np.asarray(actions), :]


def get_returns(probs, actions, gamma, initial_dist, kind: str = "engagement") -> float:
    """Exact discounted return of a deterministic policy: V = (I - gamma
    T_pi)^{-1} r by np.linalg.solve, averaged over the initial distribution."""
    T_pi = _policy_chain(probs, actions)
    V = np.linalg.solve(np.eye(T_pi.shape[0]) - gamma * T_pi, _rewards(actions, kind))
    return float(np.asarray(initial_dist) @ V)


def returns_gradient(probs, actions, gamma, initial_dist, kind: str = "engagement") -> np.ndarray:
    """(S, 2, S) dJ/dT(s, a, s'): gamma * d(s) * V(s') on the action the
    policy takes in s, zero on the other, where d is the initial-state
    weighted discounted occupancy of the policy chain."""
    actions = np.asarray(actions)
    T_pi = _policy_chain(probs, actions)
    eye = np.eye(T_pi.shape[0])
    V = np.linalg.solve(eye - gamma * T_pi, _rewards(actions, kind))
    occupancy = np.linalg.solve(eye - gamma * T_pi.T, np.asarray(initial_dist, dtype=float))
    grad = np.zeros(np.shape(probs))
    grad[np.arange(T_pi.shape[0]), actions, :] = gamma * np.outer(occupancy, V)
    return grad


def value_iteration(
    probs,
    actions,
    gamma,
    initial_dist,
    kind: str = "engagement",
    residual: float = 1e-10,
    max_iters: int = 1_000_000,
) -> float:
    """Policy evaluation by fixed-point iteration of V = r + gamma T_pi V,
    stopped once an update moves V by less than `residual`."""
    T_pi = _policy_chain(probs, actions)
    rewards = _rewards(actions, kind)
    V = np.zeros(T_pi.shape[0])
    for _ in range(max_iters):
        V_next = rewards + gamma * (T_pi @ V)
        if np.max(np.abs(V_next - V)) < residual:
            V = V_next
            break
        V = V_next
    return float(np.asarray(initial_dist) @ V)


def brute_force_joint(tensors, initial_dist, gamma, budget: int) -> tuple[float, dict]:
    """Exact optimal joint deterministic stationary policy of N arms
    (tensors of shape (N, S, 2, S), engagement reward) on the product state
    space, with at most `budget` arms acted on in every joint state.

    Value iteration to residual 1e-10; every arm starts from initial_dist
    independently. Returns the value and the joint policy as a dict from
    state tuples to action tuples. Only for tiny instances.
    """
    tensors = np.asarray(tensors, dtype=float)
    n, num_states = tensors.shape[0], tensors.shape[1]
    joint_states = num_states ** n
    if joint_states > MAX_JOINT_STATES:
        raise ValueError(f"product state space {joint_states} exceeds {MAX_JOINT_STATES}")
    rewards = _engagement(num_states)
    state_tuples = list(itertools.product(range(num_states), repeat=n))
    actions_feasible = [a for a in itertools.product((0, 1), repeat=n) if sum(a) <= budget]
    reward_vec = np.array([sum(rewards[s] for s in st) for st in state_tuples])
    # joint transition per (action, state): outer product of the per-arm rows
    trans = np.empty((len(actions_feasible), joint_states, joint_states))
    for ai, act in enumerate(actions_feasible):
        for si, st in enumerate(state_tuples):
            joint = tensors[0, st[0], act[0], :]
            for i in range(1, n):
                joint = np.outer(joint, tensors[i, st[i], act[i], :]).reshape(-1)
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
    init = np.asarray(initial_dist, dtype=float)
    joint_init = init
    for _ in range(n - 1):
        joint_init = np.outer(joint_init, init).reshape(-1)
    policy = {state_tuples[si]: actions_feasible[best_actions[si]] for si in range(joint_states)}
    return float(joint_init @ V), policy


def objective_value(j_pred, Z, alpha: float) -> float:
    """Entropy-regularized decomposed objective sum Z * j_pred + alpha * H(Z)."""
    Z = np.asarray(Z, dtype=float)
    Zc = np.clip(Z, 1e-300, None)
    return float(np.sum(Z * np.asarray(j_pred))) - alpha * float(np.sum(Z * np.log(Zc)))


def soft_top_b(scores, budget: float, tau: float) -> np.ndarray:
    """Soft top-B marginals sigmoid((w_i - theta) / tau) with sum_i p_i = B
    per row, for 0 < B < N: safeguarded Newton on log sum p - log B that
    drops each row from the sweeps once |sum p - B| <= 1e-12 B.

    The bracket comes from a two-kth `np.partition`: the
    (floor(B)+1)-th largest score - 40 tau and the ceil(B)-th largest +
    40 tau. Newton starts at their midpoint and bisects when a step
    leaves the bracket, for at most 60 sweeps. The sigmoid is
    exp(min(x, 0)) / (1 + exp(-|x|)).
    """
    scores = np.asarray(scores, dtype=float)
    n = scores.shape[1]
    k_hi, k_lo = n - int(np.ceil(budget)), n - int(np.floor(budget)) - 1
    part = np.partition(scores, (k_lo, k_hi), axis=1)
    lo = part[:, k_lo] - 40.0 * tau
    hi = part[:, k_hi] + 40.0 * tau
    theta = 0.5 * (part[:, k_lo] + part[:, k_hi])
    probs = np.empty(scores.shape)
    rows = np.arange(scores.shape[0])
    for _ in range(60):
        x = (scores[rows] - theta[:, None]) / tau
        p = np.exp(np.minimum(x, 0)) / (1 + np.exp(-np.abs(x)))
        mass = p.sum(axis=1)
        done = np.abs(mass - budget) <= 1e-12 * budget
        probs[rows[done]] = p[done]
        if done.all():
            return probs
        rows, p, mass, theta = rows[~done], p[~done], mass[~done], theta[~done]
        too_big = mass > budget
        lo = np.where(too_big, theta, lo[~done])
        hi = np.where(too_big, hi[~done], theta)
        with np.errstate(divide="ignore", invalid="ignore"):
            theta = theta + tau * mass * np.log(mass / budget) / np.sum(p * (1 - p), axis=1)
        theta = np.where((lo < theta) & (theta < hi), theta, 0.5 * (lo + hi))
    probs[rows] = p
    return probs
