"""Decomposed mixture-policy optimization layer.

Optimizes a per-arm mixture Z over all deterministic per-arm policies,
maximizing predicted return subject to an expected-budget constraint that
is evaluated on the true transitions. The entropy-regularized problem is
solved in the forward direction by bisection on the budget multiplier
(each inner maximization is a row softmax) and differentiated in closed
form through the KKT conditions. A slow reference solver doubles as the
correctness oracle and as the L2-regularized path: its inner maximization
is a damped Newton solve of the per-row KKT equations for entropy and
projected-gradient ascent for L2, never the softmax closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mdp import (
    NumericError,
    RewardSpec,
    DiscountedSetup,
    solve_policies,
    stack_tensors,
)
from .mdp import BUDGET, ENGAGEMENT

ENTROPY = "entropy"
L2 = "l2"


class InfeasibleBudgetError(NumericError):
    """Budget cannot be met even when acting is maximally discouraged."""


@dataclass(frozen=True)
class ReturnsTable:
    """Per-arm, per-policy returns: predicted objective, true objective, true budget usage."""

    j_pred: np.ndarray  # (N, P) returns under predicted transitions
    j_true: np.ndarray  # (N, P) returns under true transitions
    j_budget: np.ndarray  # (N, P) discounted budget usage on the constraint side

    def __post_init__(self):
        for name in ("j_pred", "j_true", "j_budget"):
            arr = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, arr)
        if not (self.j_pred.shape == self.j_true.shape == self.j_budget.shape):
            raise ValueError("returns tables must share a common (N, P) shape")
        if np.any(self.j_budget < -1e-9):
            raise ValueError("budget usage must be nonnegative")

    @property
    def num_arms(self) -> int:
        return self.j_pred.shape[0]

    @property
    def num_policies(self) -> int:
        return self.j_pred.shape[1]


@dataclass(frozen=True)
class RegularizerConfig:
    kind: str = ENTROPY
    alpha: float = 1.0

    def __post_init__(self):
        if self.kind not in (ENTROPY, L2):
            raise ValueError(f"unknown regularizer {self.kind!r}")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")


@dataclass(frozen=True)
class SolverConfig:
    budget: float
    gamma: float
    epsilon: float = 1e-6
    r_max: float = 1.0

    def __post_init__(self):
        if self.budget <= 0:
            raise ValueError("budget must be strictly positive (strict feasibility)")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")

    @property
    def budget_cap(self) -> float:
        """Total discounted budget B/(1-gamma), the constraint right-hand side."""
        return self.budget / (1.0 - self.gamma)

    @property
    def dual_bound(self) -> float:
        return self.r_max / (1.0 - self.gamma)


@dataclass(frozen=True)
class DualSolution:
    lambda_star: float
    slack_xi: float
    z_star: np.ndarray  # (N, P), rows on the simplex


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def mixture_at(tables: ReturnsTable, lam: float, reg: RegularizerConfig) -> np.ndarray:
    """Row softmax of (j_pred - lam * j_budget) / alpha."""
    if reg.kind != ENTROPY:
        raise ValueError("the closed-form inner solution holds for entropy regularization only")
    return _softmax_rows((tables.j_pred - lam * tables.j_budget) / reg.alpha)


def eval_lambda(
    tables: ReturnsTable, lam: float, reg: RegularizerConfig, cfg: SolverConfig
) -> tuple[float, np.ndarray]:
    """Budget residual and mixture at a candidate multiplier.

    residual = sum_ij Z_ij * j_budget_ij - B/(1-gamma); nonincreasing in
    lam, so a sign change brackets the optimal multiplier.
    """
    Z = mixture_at(tables, lam, reg)
    residual = float(np.sum(Z * tables.j_budget) - cfg.budget_cap)
    return residual, Z


def forward_pass(
    tables: ReturnsTable, reg: RegularizerConfig, cfg: SolverConfig
) -> DualSolution:
    """Bisection on the budget residual, from [-r_max, r_max]/(1-gamma).

    The root is unique by monotonicity; a negative root means the budget
    is slack and the multiplier clamps to 0. The budget is feasible exactly
    when the cheapest policy of every arm fits under the cap together; the
    top of the bracket then doubles until the residual there is <= 0.
    """
    if float(np.sum(tables.j_budget.min(axis=1))) > cfg.budget_cap:
        raise InfeasibleBudgetError(
            "budget infeasible: the least budget usage of every arm exceeds the cap"
        )
    lo, hi = -cfg.dual_bound, cfg.dual_bound
    residual_hi, _ = eval_lambda(tables, hi, reg, cfg)
    while residual_hi > 0:
        lo, hi = hi, 2.0 * hi
        if not np.isfinite(hi):
            raise NumericError("dual bracket grew without the budget residual turning <= 0")
        residual_hi, _ = eval_lambda(tables, hi, reg, cfg)
    while hi - lo > cfg.epsilon:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break  # bracket is at machine resolution
        residual_mid, _ = eval_lambda(tables, mid, reg, cfg)
        if residual_mid > 0:
            lo = mid
        else:
            hi = mid
    lam = max(0.5 * (lo + hi), 0.0)
    residual, Z = eval_lambda(tables, lam, reg, cfg)
    return DualSolution(lambda_star=lam, slack_xi=-residual, z_star=Z)


def _project_rows_to_simplex(Z: np.ndarray) -> np.ndarray:
    """Euclidean projection of each row onto the probability simplex."""
    n, p = Z.shape
    srt = np.sort(Z, axis=1)[:, ::-1]
    cumsum = np.cumsum(srt, axis=1) - 1.0
    ks = np.arange(1, p + 1)
    cond = srt - cumsum / ks > 0
    rho = p - 1 - np.argmax(cond[:, ::-1], axis=1)
    theta = cumsum[np.arange(n), rho] / (rho + 1)
    return np.maximum(Z - theta[:, None], 0.0)


def _regularizer_value(Z: np.ndarray, reg: RegularizerConfig) -> float:
    if reg.kind == ENTROPY:
        Zc = np.clip(Z, 1e-300, None)
        return float(-reg.alpha * np.sum(Z * np.log(Zc)))
    return float(-reg.alpha * np.sum(Z * Z))


def _regularizer_grad(Z: np.ndarray, reg: RegularizerConfig) -> np.ndarray:
    if reg.kind == ENTROPY:
        Zc = np.clip(Z, 1e-300, None)
        return -reg.alpha * (np.log(Zc) + 1.0)
    return -2.0 * reg.alpha * Z


def objective_value(tables: ReturnsTable, Z: np.ndarray, reg: RegularizerConfig) -> float:
    """Regularized objective sum Z * j_pred + Phi(Z)."""
    return float(np.sum(Z * tables.j_pred)) + _regularizer_value(Z, reg)


def _inner_maximize(
    tables: ReturnsTable,
    lam: float,
    reg: RegularizerConfig,
    Z0: np.ndarray,
    tol: float = 1e-8,
    max_iters: int = 12,
) -> np.ndarray:
    """Maximize the lagrangian's Z-block at a fixed multiplier, from Z0.

    Deliberately avoids the closed-form softmax so the reference solver
    stays an independent check on the fast path. For entropy, a damped
    Newton solve of the per-row KKT equations converges from the warm
    start. For L2, projected-gradient ascent with Barzilai-Borwein steps and
    an Armijo backtracking safeguard.
    """
    linear = tables.j_pred - lam * tables.j_budget
    if reg.kind == ENTROPY:
        return _newton_refine_rows(linear, reg.alpha, Z0)
    Z = np.clip(Z0, 1e-12, None)
    Z = Z / Z.sum(axis=1, keepdims=True)

    def value_of(z: np.ndarray) -> float:
        return float(np.sum(z * linear)) + _regularizer_value(z, reg)

    value = value_of(Z)
    grad = linear + _regularizer_grad(Z, reg)
    step = 1.0 / max(1.0, float(np.max(np.abs(grad))))
    Z_prev = grad_prev = None
    for _ in range(max_iters):
        # stationarity: unit-step projected gradient has stopped moving
        probe = _project_rows_to_simplex(Z + grad) - Z
        if np.max(np.abs(probe)) < tol:
            break
        if Z_prev is not None:
            dZ = Z - Z_prev
            dG = grad - grad_prev
            denom = -float(np.sum(dZ * dG))  # positive by concavity
            if denom > 1e-18:
                step = float(np.sum(dZ * dZ)) / denom
            step = min(max(step, 1e-12), 1e8)
        accepted = False
        for _ in range(100):
            Z_new = _project_rows_to_simplex(Z + step * grad)
            ascent = float(np.sum(grad * (Z_new - Z)))
            if ascent <= 0.0:
                break  # no ascent direction left at this scale
            new_value = value_of(Z_new)
            if new_value >= value + 1e-4 * ascent:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        Z_prev, grad_prev = Z, grad
        Z, value = Z_new, new_value
        grad = linear + _regularizer_grad(Z, reg)
    return Z


def _newton_refine_rows(
    linear: np.ndarray, alpha: float, Z: np.ndarray, iters: int = 100, tol: float = 1e-9
) -> np.ndarray:
    """Damped Newton on the per-row stationarity system of the entropy block.

    Solves linear - alpha*(log z + 1) - nu = 0, sum z = 1 for every row
    simultaneously; the diagonal Hessian makes each Newton step closed
    over rows. Steps are damped to keep z strictly positive.
    """
    # keep every coordinate revivable: a Newton step scales multiplicatively
    # with z, so an exactly-zero entry could never regain mass
    Z = np.clip(Z, 1e-12, None)
    Z = Z / Z.sum(axis=1, keepdims=True)
    nu = np.sum(Z * (linear - alpha * (np.log(Z) + 1.0)), axis=1)
    for _ in range(iters):
        F1 = linear - alpha * (np.log(Z) + 1.0) - nu[:, None]
        F2 = Z.sum(axis=1) - 1.0
        # stationary: F1 = 0 entrywise, except entries still decaying toward
        # masses too small to affect any downstream quantity
        settled = (np.abs(F1) < tol) | ((Z <= 1e-20) & (F1 < 0))
        if bool(settled.all()) and float(np.max(np.abs(F2))) < 1e-12:
            break
        # eliminate dz = (z/alpha)(F1 - dnu) against the row-sum equation
        zsum = Z.sum(axis=1)
        dnu = (np.sum(Z * F1, axis=1) / alpha + F2) / (zsum / alpha)
        dZ = (Z / alpha) * (F1 - dnu[:, None])
        # elementwise multiplicative trust region: growth is capped tightly
        # (overshoot is what destabilizes the solve) while decay may run
        # faster; starved coordinates home in geometrically without
        # throttling the rest of the row
        Z = np.clip(Z + dZ, Z * np.exp(-6.0), Z * np.exp(2.0))
        Z = np.clip(Z, 1e-300, None)
        nu = nu + dnu
    return Z


def solve_reference(
    tables: ReturnsTable,
    reg: RegularizerConfig,
    cfg: SolverConfig,
    dual_tol: float = 1e-9,
    max_outer: int = 200,
) -> DualSolution:
    """Slow reference solve: bisection on the multiplier, with the inner
    maximization over the product of simplices solved by _inner_maximize
    (damped Newton for entropy, projected-gradient ascent for L2).

    Handles both entropy and L2 regularization; the residual of the inner
    optimum is nonincreasing in the multiplier because the dual function
    of a concave program is convex.
    """
    n, p = tables.j_pred.shape
    Z0 = np.full((n, p), 1.0 / p)

    def residual_at(lam: float, Z_init: np.ndarray) -> tuple[float, np.ndarray]:
        Z = _inner_maximize(tables, lam, reg, Z_init)
        return float(np.sum(Z * tables.j_budget) - cfg.budget_cap), Z

    lo, hi = -cfg.dual_bound, cfg.dual_bound
    residual_zero, Z_zero = residual_at(0.0, Z0)
    if residual_zero <= 0:
        return DualSolution(lambda_star=0.0, slack_xi=-residual_zero, z_star=Z_zero)
    residual_hi, Z_hi = residual_at(hi, Z0)
    if residual_hi > 1e-9:
        raise InfeasibleBudgetError("budget infeasible at the dual bracket top")
    lo, Z = 0.0, Z_zero
    for _ in range(max_outer):
        if hi - lo <= dual_tol:
            break
        mid = 0.5 * (lo + hi)
        residual_mid, Z = residual_at(mid, Z)
        if residual_mid > 0:
            lo = mid
        else:
            hi = mid
    else:
        raise NumericError(f"reference dual bisection stalled: bracket [{lo}, {hi}]")
    lam = 0.5 * (lo + hi)
    residual, Z = residual_at(lam, Z)
    return DualSolution(lambda_star=lam, slack_xi=-residual, z_star=Z)


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.sum(a * b, axis=1)


def backward_pass(
    sol: DualSolution,
    tables: ReturnsTable,
    reg: RegularizerConfig,
    cfg: SolverConfig,
    upstream: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form gradients of a scalar loss through the entropy layer.

    upstream is dloss/dZ*. Differentiates the KKT system of the
    regularized program: the single budget row is eliminated against the
    N independent per-arm softmax blocks, so the work is O(N * P).
    Returns (dloss/dj_pred, dloss/dj_budget).
    """
    if reg.kind != ENTROPY:
        raise ValueError("closed-form backward pass requires entropy regularization")
    Z = sol.z_star
    G = tables.j_budget
    u = np.asarray(upstream, dtype=float)
    alpha = reg.alpha
    zu = _row_dot(Z, u)
    softmax_jvp = Z * (u - zu[:, None]) / alpha
    if sol.lambda_star <= 0.0:
        # slack budget: the constraint row is inactive and contributes nothing
        return softmax_jvp, np.zeros_like(Z)
    zg = _row_dot(Z, G)
    g_centered = G - zg[:, None]
    schur = float(np.sum(Z * G * G) - np.sum(zg * zg))  # sum of per-arm variances
    if abs(sol.lambda_star * schur) < 1e-12:
        return _backward_dense(sol, tables, reg, upstream, ridge=1e-10)
    coupling = float(np.sum(zg * zu) - np.sum(Z * G * u))  # -sum of per-arm covariances
    dlam_scale = coupling / schur
    grad_j_pred = softmax_jvp + (dlam_scale / alpha) * Z * g_centered
    grad_j_budget = (
        -sol.lambda_star * softmax_jvp
        + dlam_scale * Z
        - (sol.lambda_star * dlam_scale / alpha) * Z * g_centered
    )
    return grad_j_pred, grad_j_budget


def _backward_dense(
    sol: DualSolution,
    tables: ReturnsTable,
    reg: RegularizerConfig,
    upstream: np.ndarray,
    ridge: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Dense solve of the full KKT linear system; oracle for backward_pass.

    Builds the (N*P + N + 1) arrow system over the mixture block, the N
    row-sum multipliers, and the budget multiplier, then solves it
    directly. O((N*P)^3): only for small instances and fallbacks.
    """
    Z = sol.z_star
    n, p = Z.shape
    G = tables.j_budget.reshape(-1)
    z = Z.reshape(-1)
    u = np.asarray(upstream, dtype=float).reshape(-1)
    lam, xi = sol.lambda_star, sol.slack_xi
    dim = n * p + n + 1
    K = np.zeros((dim, dim))
    K[: n * p, : n * p] = np.diag(-reg.alpha / np.clip(z, 1e-300, None) - ridge)
    for i in range(n):
        rows = slice(i * p, (i + 1) * p)
        K[rows, n * p + i] = 1.0
        K[n * p + i, rows] = 1.0
    K[: n * p, -1] = lam * G
    K[-1, : n * p] = lam * G
    K[-1, -1] = -xi
    rhs = np.zeros(dim)
    rhs[: n * p] = -u
    d = np.linalg.solve(K, rhs)
    d_z = d[: n * p]
    d_lam = d[-1]
    grad_j_pred = d_z.reshape(n, p)
    grad_j_budget = -lam * (d_z - d_lam * z).reshape(n, p)
    return grad_j_pred, grad_j_budget


def returns_on_truth(truth: np.ndarray, setup: DiscountedSetup) -> tuple[np.ndarray, np.ndarray]:
    """(j_true, j_budget): engagement and budget returns of every policy
    on the true transitions, from one solve."""
    solved = solve_policies(truth, setup)
    return solved.returns(RewardSpec(ENGAGEMENT)), solved.returns(RewardSpec(BUDGET))


def build_returns_table(
    pred: np.ndarray,
    truth: np.ndarray,
    setup: DiscountedSetup,
    budget_on: str = "truth",
) -> ReturnsTable:
    """Assemble the three (N, P) return tables from transition tensors.

    budget_on="pred" evaluates the budget constraint on the predicted
    transitions (the uncorrected relaxation, kept for counterexamples).
    """
    pred_solve = solve_policies(pred, setup)
    j_true, j_budget = returns_on_truth(truth, setup)
    if budget_on == "pred":
        j_budget = pred_solve.returns(RewardSpec(BUDGET))
    return ReturnsTable(
        j_pred=pred_solve.returns(RewardSpec(ENGAGEMENT)), j_true=j_true, j_budget=j_budget
    )


def dec_dfl_loss(
    pred,
    truth,
    reg: RegularizerConfig,
    cfg: SolverConfig,
    setup: DiscountedSetup,
    true_returns: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[float, np.ndarray]:
    """Decomposed decision-quality loss and its gradient w.r.t. predictions.

    Runs the forward dual solve on the predicted-return table, scores the
    mixture on the true returns, and chains the closed-form layer backward
    pass through the per-policy return gradients onto predicted transition
    entries; returns and gradients of the predictions come from one solve.
    true_returns, the returns_on_truth tables of `truth` when the caller
    keeps them (Cohort.true_returns), saves solving the truth again.
    Returns (loss, (N, S, 2, S) gradient array).
    """
    pred_arr = stack_tensors(pred)
    truth_arr = stack_tensors(truth)
    if pred_arr.shape != truth_arr.shape:
        raise ValueError(f"shape mismatch: pred {pred_arr.shape} vs truth {truth_arr.shape}")
    if true_returns is None:
        true_returns = returns_on_truth(truth_arr, setup)
    j_true, j_budget = true_returns
    engagement = RewardSpec(ENGAGEMENT)
    pred_solve = solve_policies(pred_arr, setup, values=engagement)
    tables = ReturnsTable(j_pred=pred_solve.returns(engagement), j_true=j_true, j_budget=j_budget)
    sol = forward_pass(tables, reg, cfg)
    loss = float(np.sum(sol.z_star * tables.j_true))
    grad_j_pred, _ = backward_pass(sol, tables, reg, cfg, upstream=tables.j_true)
    return loss, pred_solve.gradient(grad_j_pred)
