"""Decomposed mixture-policy optimization layer.

Optimizes a per-arm mixture Z over all deterministic per-arm policies,
maximizing predicted return subject to an expected-budget constraint that
is evaluated on the true transitions. The entropy-regularized problem is
solved in the forward direction by a bracketed Newton iteration on the
budget multiplier (each inner maximization is a row softmax, and the
residual's slope is the summed per-arm variance of the budget usage) and
differentiated in closed form through the KKT conditions, eliminating the
single budget row against the per-arm blocks in O(N * P). A slow reference
solver is the correctness oracle: its inner maximization is a damped Newton
solve of the per-row KKT equations, never the softmax closed form.
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


@dataclass(frozen=True)
class RegularizerConfig:
    kind: str = ENTROPY
    alpha: float = 1.0

    def __post_init__(self):
        if self.kind != ENTROPY:
            raise ValueError(f"unknown regularizer {self.kind!r}; only {ENTROPY!r} is supported")
        if not 0.0 < self.alpha < np.inf:
            raise ValueError(f"alpha must be finite and positive, got {self.alpha}")


@dataclass(frozen=True)
class SolverConfig:
    budget: float
    gamma: float
    epsilon: float = 1e-6

    def __post_init__(self):
        if self.budget <= 0:
            raise ValueError("budget must be strictly positive (strict feasibility)")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")
        if not 0.0 < self.epsilon < np.inf:
            raise ValueError(f"epsilon must be finite and positive, got {self.epsilon}")

    @property
    def budget_cap(self) -> float:
        """Total discounted budget B/(1-gamma), the constraint right-hand side."""
        return self.budget / (1.0 - self.gamma)

    @property
    def dual_bound(self) -> float:
        # engagement rewards lie in [0, 1], so no return exceeds 1/(1-gamma)
        return 1.0 / (1.0 - self.gamma)


@dataclass(frozen=True)
class DualSolution:
    lambda_star: float
    slack_xi: float
    z_star: np.ndarray  # (N, P), rows on the simplex
    evaluations: int = 0  # residual evaluations the solve used


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Row softmax, computed in place in `logits`."""
    logits -= logits.max(axis=-1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=-1, keepdims=True)
    return logits


def mixture_at(tables: ReturnsTable, lam: float, reg: RegularizerConfig) -> np.ndarray:
    """Row softmax of (j_pred - lam * j_budget) / alpha."""
    return _softmax_rows((tables.j_pred - lam * tables.j_budget) / reg.alpha)


def eval_lambda(
    tables: ReturnsTable, lam: float, reg: RegularizerConfig, cfg: SolverConfig
) -> tuple[float, float, np.ndarray]:
    """Budget residual, its slope and the mixture at a candidate multiplier.

    residual = sum_ij Z_ij * j_budget_ij - B/(1-gamma), nonincreasing in
    lam, so a sign change brackets the optimal multiplier. Its slope is
    -sum_i Var_{Z_i}(j_budget_i) / alpha (the variance term of
    backward_pass), formed from the same products Z * j_budget.
    """
    Z = mixture_at(tables, lam, reg)
    used = Z * tables.j_budget
    row_used = np.einsum("ij->i", used)
    variance = float(np.vdot(used, tables.j_budget)) - float(row_used @ row_used)
    residual = float(np.sum(used)) - cfg.budget_cap
    return residual, -max(variance, 0.0) / reg.alpha, Z


def _check_feasible(tables: ReturnsTable, cfg: SolverConfig) -> None:
    """The budget is feasible exactly when the cheapest policy of every arm
    fits under the cap together."""
    if float(np.sum(tables.j_budget.min(axis=1))) > cfg.budget_cap:
        raise InfeasibleBudgetError(
            "budget infeasible: the least budget usage of every arm exceeds the cap"
        )


def _grow_bracket(evaluate, lo: float, hi: float) -> tuple[float, float, tuple]:
    """Double the top of the dual bracket [lo, hi] until the residual there is <= 0.

    evaluate(lam) returns a tuple led by the residual; the result is the
    grown bracket and evaluate(hi).
    """
    at_hi = evaluate(hi)
    while at_hi[0] > 0:
        lo, hi = hi, 2.0 * hi
        if not np.isfinite(hi):
            raise NumericError("dual bracket grew without the budget residual turning <= 0")
        at_hi = evaluate(hi)
    return lo, hi, at_hi


def forward_pass(
    tables: ReturnsTable, reg: RegularizerConfig, cfg: SolverConfig
) -> DualSolution:
    """Bracketed Newton solve of the budget residual for the multiplier.

    A budget that is slack at lam = 0 returns lam = 0 after one residual
    evaluation, and an infeasible one raises. Otherwise the top of the
    bracket [0, 1/(1-gamma)] doubles until the residual there is <= 0,
    and Newton steps with the exact slope from eval_lambda run inside it
    from lam = 0 (from the top if the bracket grew). They are safeguarded
    as in rtsafe (Numerical Recipes): a step is taken only if it lands
    inside the bracket and is at most half the step before last, and the
    bracket is bisected otherwise. At small alpha the residual is a
    staircase whose flat runs have slope 0; those cost bisection steps,
    never a false convergence. The solve ends at a feasible iterate
    (residual <= 0) whose Newton step is within epsilon, or when the
    bracket is narrower than epsilon, and returns the feasible end of the
    bracket, so the realized budget never exceeds the cap.
    """
    _check_feasible(tables, cfg)
    evaluations = 0

    def evaluate(lam: float) -> tuple[float, float, np.ndarray]:
        nonlocal evaluations
        evaluations += 1
        return eval_lambda(tables, lam, reg, cfg)

    residual, slope, Z = evaluate(0.0)
    if residual <= 0:
        return DualSolution(0.0, -residual, Z, evaluations)
    lo, hi, at_hi = _grow_bracket(evaluate, 0.0, cfg.dual_bound)
    lam = 0.0
    if lo > 0.0:  # the bracket grew: start from its top
        lam, (residual, slope, _) = hi, at_hi
    step = step_before = hi - lo
    eps = cfg.epsilon
    while hi - lo > eps and not (residual <= 0 and abs(residual) <= eps * abs(slope)):
        delta = -residual / slope if slope < 0 else np.inf  # the Newton step
        if 0 < delta <= eps:
            # where the residual is convex, Newton closes in from the
            # infeasible side: probe just past its point to land feasible
            nxt = lam + 1.01 * delta + 4.0 * np.spacing(lam)
        elif lo < lam + delta < hi and abs(delta) <= 0.5 * step_before:
            nxt = lam + delta
        else:
            delta = 0.5 * (hi - lo)
            nxt = lo + delta
        step_before, step = step, abs(delta)
        if not lo < nxt < hi:
            break  # the bracket is at machine resolution
        lam = nxt
        residual, slope, Z = evaluate(lam)
        if residual > 0:
            lo = lam
        else:
            hi, at_hi = lam, (residual, slope, Z)
    residual, _, Z = at_hi
    return DualSolution(hi, -residual, Z, evaluations)


def objective_value(tables: ReturnsTable, Z: np.ndarray, reg: RegularizerConfig) -> float:
    """Regularized objective sum Z * j_pred + alpha * H(Z)."""
    Zc = np.clip(Z, 1e-300, None)
    return float(np.sum(Z * tables.j_pred)) - reg.alpha * float(np.sum(Z * np.log(Zc)))


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
    maximization over the product of simplices solved by damped Newton on
    the per-row KKT equations (_newton_refine_rows), warm-started from the
    previous multiplier's mixture.

    The residual of the inner optimum is nonincreasing in the multiplier
    because the dual function of a concave program is convex. Feasibility
    and the growing bracket follow the same rule as forward_pass.
    """
    _check_feasible(tables, cfg)
    n, p = tables.j_pred.shape
    Z0 = np.full((n, p), 1.0 / p)

    def residual_at(lam: float, Z_init: np.ndarray) -> tuple[float, np.ndarray]:
        linear = tables.j_pred - lam * tables.j_budget
        Z = _newton_refine_rows(linear, reg.alpha, Z_init)
        return float(np.sum(Z * tables.j_budget) - cfg.budget_cap), Z

    residual_zero, Z_zero = residual_at(0.0, Z0)
    if residual_zero <= 0:
        return DualSolution(lambda_star=0.0, slack_xi=-residual_zero, z_star=Z_zero)
    lo, hi, _ = _grow_bracket(lambda lam: residual_at(lam, Z0), 0.0, cfg.dual_bound)
    Z = Z_zero
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


def backward_pass(
    sol: DualSolution,
    tables: ReturnsTable,
    reg: RegularizerConfig,
    cfg: SolverConfig,
    upstream: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form gradients of a scalar loss through the entropy layer.

    upstream is dloss/dZ*. Differentiates the KKT system of the
    regularized program: the N row-sum multipliers are eliminated against
    the diagonal mixture block, then the budget row (with its -xi corner)
    against the rest, so the work is O(N * P) at any multiplier.
    Returns (dloss/dj_pred, dloss/dj_budget).
    """
    Z = sol.z_star
    u = np.asarray(upstream, dtype=float)
    w = Z / reg.alpha
    u_centered = u - np.sum(Z * u, axis=1, keepdims=True)
    dz = w * u_centered
    lam = sol.lambda_star
    if lam <= 0.0:
        # slack budget: the constraint row is inactive and contributes nothing
        return dz, np.zeros_like(Z)
    G = tables.j_budget
    g_centered = G - np.sum(Z * G, axis=1, keepdims=True)
    coupling = float(np.sum(w * g_centered * u))
    variance = float(np.sum(w * g_centered * g_centered))
    dlam = lam * coupling / (sol.slack_xi - lam * lam * variance)
    dz += (lam * dlam) * w * g_centered
    return dz, -lam * (dz - dlam * Z)


def returns_on_truth(truth: np.ndarray, setup: DiscountedSetup) -> tuple[np.ndarray, np.ndarray]:
    """(j_true, j_budget): engagement and budget returns of every policy
    on the true transitions, from one solve."""
    solved = solve_policies(truth, setup)
    return solved.returns(RewardSpec(ENGAGEMENT)), solved.returns(RewardSpec(BUDGET))


def build_returns_table(
    pred: np.ndarray, truth: np.ndarray, setup: DiscountedSetup
) -> ReturnsTable:
    """Assemble the three (N, P) return tables from transition tensors;
    the budget side is evaluated on the true transitions."""
    j_true, j_budget = returns_on_truth(truth, setup)
    return ReturnsTable(
        j_pred=solve_policies(pred, setup).returns(RewardSpec(ENGAGEMENT)),
        j_true=j_true,
        j_budget=j_budget,
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
