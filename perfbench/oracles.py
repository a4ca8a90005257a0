"""Reference computations written apart from rmab_dfl, used to check its outputs.

Nothing here imports the package: returns come from fixed-point iteration
or from this file's own linear solves, the budget multiplier from this
file's own search on the residual, and Whittle indifference from this
file's own enumeration of the subsidized single-arm problem.
"""

from __future__ import annotations

import numpy as np


def state_rewards(num_states: int) -> np.ndarray:
    """Engagement reward s/(|S|-1) of each state."""
    return np.arange(num_states, dtype=float) / (num_states - 1)


def action_bits(num_states: int) -> np.ndarray:
    """(2^|S|, |S|) action of every deterministic policy; bit s is the action in state s."""
    return (np.arange(2**num_states)[:, None] >> np.arange(num_states)[None, :]) & 1


def _chains_and_rewards(tensors: np.ndarray, kind: str):
    """Per-policy chains (N, P, S, S) and reward vectors (P, S)."""
    num_states = tensors.shape[1]
    bits = action_bits(num_states)
    chains = tensors[:, np.arange(num_states)[None, :], bits, :]
    if kind == "engagement":
        rewards = np.broadcast_to(state_rewards(num_states), bits.shape)
    else:
        rewards = bits.astype(float)
    return chains, rewards


def returns_by_iteration(
    tensors: np.ndarray, gamma: float, kind: str, tol: float = 1e-13
) -> np.ndarray:
    """(N, P) discounted returns from a uniform start, by fixed-point iteration."""
    chains, rewards = _chains_and_rewards(tensors, kind)
    values = np.zeros(chains.shape[:3])
    for _ in range(100_000):
        nxt = rewards[None] + gamma * np.einsum("npst,npt->nps", chains, values)
        done = np.max(np.abs(nxt - values)) < tol
        values = nxt
        if done:
            break
    return values.mean(axis=-1)


def returns_by_solve(tensors: np.ndarray, gamma: float, kind: str) -> np.ndarray:
    """(N, P) discounted returns from a uniform start, by direct linear solves."""
    chains, rewards = _chains_and_rewards(tensors, kind)
    num_states = tensors.shape[1]
    system = np.eye(num_states) - gamma * chains
    rhs = np.broadcast_to(rewards[None, :, :, None], chains.shape[:3] + (1,))
    return np.linalg.solve(system, rhs)[..., 0].mean(axis=-1)


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def budget_residual(j_pred, j_budget, alpha: float, cap: float, lam: float) -> float:
    mix = softmax_rows((j_pred - lam * j_budget) / alpha)
    return float(np.sum(mix * j_budget) - cap)


def search_multiplier(j_pred, j_budget, alpha: float, cap: float) -> float | None:
    """Budget multiplier to machine precision, or None if no multiplier meets the cap.

    The residual is nonincreasing in the multiplier. The bracket doubles
    until the residual is nonpositive, then bisection runs until the
    midpoint can no longer be told apart from an endpoint.
    """
    if budget_residual(j_pred, j_budget, alpha, cap, 0.0) <= 0:
        return 0.0
    lo, hi = 0.0, 1.0
    while budget_residual(j_pred, j_budget, alpha, cap, hi) > 0:
        lo, hi = hi, 2.0 * hi
        if hi > 1e12:
            return None
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return hi
        if budget_residual(j_pred, j_budget, alpha, cap, mid) > 0:
            lo = mid
        else:
            hi = mid


def realized_return(pred, j_true, j_budget, gamma: float, alpha: float, cap: float) -> float:
    """DEC-DFL loss: true return of the optimal mixture for the predicted returns."""
    j_pred = returns_by_solve(pred, gamma, "engagement")
    lam = search_multiplier(j_pred, j_budget, alpha, cap)
    return float(np.sum(softmax_rows((j_pred - lam * j_budget) / alpha) * j_true))


def tangent_direction(rng: np.random.Generator, shape) -> np.ndarray:
    """Unit direction whose every (arm, s, a) row sums to zero, so it stays on the simplex."""
    d = rng.standard_normal(shape)
    d -= d.mean(axis=-1, keepdims=True)
    return d / np.linalg.norm(d)


def subsidized_q(tensor: np.ndarray, gamma: float, subsidy: float) -> np.ndarray:
    """(S, 2) optimal action values of one arm paid `subsidy` per passive step.

    The optimal value dominates every deterministic policy's value state by
    state, so it is the elementwise maximum over the enumerated policies.
    """
    num_states = tensor.shape[0]
    chains, _ = _chains_and_rewards(tensor[None], "engagement")
    bits = action_bits(num_states)
    base = state_rewards(num_states)
    rewards = base[None, :] + subsidy * (1 - bits)
    values = np.linalg.solve(np.eye(num_states) - gamma * chains[0], rewards[..., None])
    best = values[..., 0].max(axis=0)
    passive_pay = subsidy * np.array([1.0, 0.0])
    return base[:, None] + passive_pay[None, :] + gamma * tensor @ best
