"""Decomposed mixture-policy optimization layer.

Optimizes a per-arm mixture Z over all deterministic per-arm policies,
maximizing predicted return subject to an expected-budget constraint that
is evaluated on the true transitions. The entropy-regularized problem is
solved in the forward direction by a bracketed Newton iteration on the
budget multiplier (each inner maximization is a softmax over policies, and
the residual's slope is the summed per-arm variance of the budget usage) and
differentiated in closed form through the KKT conditions, eliminating the
single budget row against the per-arm blocks in O(N * P). Policy tables
are batch-last from the engine on: the forward solve runs on (C, P, N)
stacks of cohorts (solve_stack), one residual call per round for the whole
stack, and backward_pass takes one cohort's (P, N) arrays from it, as
dec_dfl_loss does. Where the entropy weight lets the logits spread past
700, a solve floors them at EXP_FLOOR to keep numpy's exp off its slow
subnormal path. A slow reference solver on (P, N) tables is the
correctness oracle: its inner maximization is a damped Newton solve of the
per-row KKT equations, never the softmax closed form; the regularized
objective the tests score mixtures by is in tests/oracles.py.

The (N, P) shim, ReturnsTable, build_returns_table, forward_pass and
DualSolution, holds .T views of that memory and exists only for the
benchmark in perfbench/; nothing else in the package uses it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mdp import (
    ENGAGEMENT, DiscountedSetup, NumericError, RewardSpec, arm_blocks, returns_on_truth,
    run_arm_blocks, solve_policies,
)

ENTROPY = "entropy"
EXP_FLOOR = -700.0  # least max-shifted logit a flooring solve exponentiates
_EXP_AT_FLOOR = math.exp(EXP_FLOOR)  # about 9.9e-305


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
    z_star: np.ndarray  # (N, P), rows on the simplex; a .T view of solve_stack's mixture


@dataclass(frozen=True)
class StackSolution:
    """Dual solutions of a stack of cohorts, batch-last: (C, P, N) mixtures."""

    lambda_star: np.ndarray  # (C,)
    slack_xi: np.ndarray  # (C,)
    z_star: np.ndarray  # (C, P, N), each column on the simplex
    evaluations: np.ndarray  # (C,) residual evaluations of each cohort
    doublings: np.ndarray  # (C,) bracket doublings of each cohort

    @property
    def rounds(self) -> int:
        """Stacked residual calls: the most evaluations of any cohort (0 if none)."""
        return int(self.evaluations.max(initial=0))


def _floors_logits(alpha: float, cfgs: list[SolverConfig]) -> bool:
    """Whether a solve's logits may spread past -EXP_FLOOR, so that _mixtures
    floors them. Engagement and budget returns lie in [0, dual_bound], so at
    a multiplier within the bound the logits spread at most
    (1 + bound) * bound / alpha: on at the eval's alpha = 1e-3, off at
    alpha = 1 with gamma = 0.9."""
    bound = max((cfg.dual_bound for cfg in cfgs), default=0.0)
    return (1.0 + bound) * bound / alpha > -EXP_FLOOR


def _mixtures(
    j_pred: np.ndarray, j_budget: np.ndarray, lam: np.ndarray, alpha: float, floor: bool,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Softmax over the policy axis of (j_pred - lam * j_budget) / alpha.

    The tables are (C, P, N) stacks and lam holds one multiplier per cohort.
    With floor set, the max-shifted logits are clamped at EXP_FLOOR = -700
    and exp(EXP_FLOOR) is subtracted after the exp, so every floored entry
    is exactly 0 and every other moves by at most 2 * exp(-700) (about
    2e-304: exp(-700) and the rounding of the subtraction).
    numpy's SIMD exp covers only inputs above about -707.7; below it
    (subnormal results down to -745, and 0 beyond) exp is 15-160 times
    slower, and at alpha = 1e-3 most logits lie there. -700 is inside the
    fast range with room to spare, and exp(-700) is a normal double that
    vanishes next to the row's largest entry, 1. The solve decides
    floor once from its inputs (_floors_logits), so a solve whose logits
    cannot reach -700 runs the plain softmax. out, if given, receives the
    mixture.
    """
    logits = np.multiply(lam[:, None, None], j_budget, out=out)
    np.subtract(j_pred, logits, out=logits)
    logits /= alpha
    logits -= np.maximum.reduce(logits, axis=1, keepdims=True)
    if floor:
        np.maximum(logits, EXP_FLOOR, out=logits)
    np.exp(logits, out=logits)
    if floor:
        logits -= _EXP_AT_FLOOR
    logits /= np.add.reduce(logits, axis=1, keepdims=True)
    return logits


def _centered(
    Z: np.ndarray, table: np.ndarray, out: tuple = (None, None)
) -> tuple[np.ndarray, np.ndarray]:
    """Each arm's Z-expectation of a table along the policy axis (the second
    to last, of one cohort's (P, N) arrays or of (C, P, N) stacks), and the
    table minus it, written into out's arrays where given.

    The one centring of the KKT elimination: the forward slope's variance
    and the backward pass's budget row and upstream all come from it.
    """
    mean = np.add.reduce(Z * table, axis=-2, keepdims=True, out=out[0])
    return mean, np.subtract(table, mean, out=out[1])


def _usage_moments(
    j_pred: np.ndarray, j_budget: np.ndarray, lam: np.ndarray, alpha: float, floor: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Expected budget usage, its variance and the mixture of every cohort of a stack.

    j_pred and j_budget are (C, P, N) stacks and lam holds one multiplier
    per cohort. The usage (C,) is sum_i E_{Z_i}[j_budget_i] and the
    variance (C,) is sum_i Var_{Z_i}(j_budget_i) = sum_ij Z_ij * g_ij^2
    over the centred table g, a dot of nonnegative terms that keeps its
    digits at small alpha, where the one-pass E[X^2] - E[X]^2 cancels.
    Every reduction runs within one cohort, so a cohort's values do not
    depend on the rest of the stack. floor is _mixtures'.

    The per-arm part (Z, each arm's mean usage and g^2) splits into arm
    blocks across threads (mdp.run_arm_blocks) once each block gets at
    least mdp._SPLIT_ENTRIES table entries, as at 10^4 arms; the blocks
    write into full (C, P, N) buffers. The sums over arms and the dot run
    here on the full arrays, so no output depends on the CPU count.
    """
    count, _, n_arms = j_pred.shape

    def per_arm(j_pred, j_budget, Z=None, mean=None, squares=None):
        Z = _mixtures(j_pred, j_budget, lam, alpha, floor, out=Z)
        mean, squares = _centered(Z, j_budget, out=(mean, squares))
        squares *= squares  # g^2
        return Z, mean, squares

    blocks = arm_blocks(n_arms, j_pred.size)
    if blocks == 1:  # no buffers: each new array reuses a freed temporary's warm memory
        Z, mean, squares = per_arm(j_pred, j_budget)
    else:
        Z, squares = np.empty(j_pred.shape), np.empty(j_pred.shape)
        mean = np.empty((count, 1, n_arms))
        run_arm_blocks(per_arm, blocks, j_pred, j_budget, Z, mean, squares)
    variance = Z.reshape(count, 1, -1) @ squares.reshape(count, -1, 1)  # one dot per cohort
    return np.add.reduce(mean.reshape(count, -1), axis=1), variance.reshape(count), Z


def _check_feasible(least_usage: float, cfg: SolverConfig) -> None:
    """The budget is feasible exactly when the cheapest policy of every arm
    fits under the cap together."""
    if least_usage > cfg.budget_cap:
        raise InfeasibleBudgetError(
            "budget infeasible: the least budget usage of every arm exceeds the cap"
        )


def _rtsafe(cfg: SolverConfig):
    """One cohort's bracketed Newton search for its multiplier, as a coroutine.

    It yields each multiplier to evaluate, is sent (residual, slope) there,
    and returns (lam*, bracket doublings). A budget that is slack at
    lam = 0 ends at lam = 0 after one evaluation. Otherwise the top of the
    bracket [0, 1/(1-gamma)] doubles until the residual there is <= 0,
    and Newton steps with the exact slope run inside it from lam = 0 (from
    the top if the bracket grew). They are safeguarded as in rtsafe
    (Numerical Recipes): a step is taken only if it lands inside the
    bracket and is at most half the step before last, and the bracket is
    bisected otherwise. At small alpha the residual is a staircase whose
    flat runs have slope 0; those cost bisection steps, never a false
    convergence. The search ends at a feasible iterate (residual <= 0)
    whose Newton step is within epsilon, or when the bracket is narrower
    than epsilon, and returns the feasible end of the bracket, so the
    realized budget never exceeds the cap.
    """
    residual, slope = yield 0.0
    if residual <= 0:
        return 0.0, 0
    lo, hi, doublings = 0.0, cfg.dual_bound, 0
    at_hi = yield hi
    while at_hi[0] > 0:
        lo, hi, doublings = hi, 2.0 * hi, doublings + 1
        if not np.isfinite(hi):
            raise NumericError("dual bracket grew without the budget residual turning <= 0")
        at_hi = yield hi
    lam = 0.0
    if lo > 0.0:  # the bracket grew: start from its top
        lam, (residual, slope) = hi, at_hi
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
        residual, slope = yield lam
        if residual > 0:
            lo = lam
        else:
            hi = lam
    return hi, doublings


def solve_stack(
    j_pred: np.ndarray, j_budget: np.ndarray, reg: RegularizerConfig, cfgs: list[SolverConfig]
) -> StackSolution:
    """Solve the decomposed problems of a stack of cohorts that share N and P.

    j_pred and j_budget are (C, P, N) stacks, cfgs one solver config (cap,
    dual bound, epsilon) per cohort. Each cohort runs its own _rtsafe
    search; each round evaluates the residuals of all cohorts still
    searching in one call. A cohort's solution is the one it gets when
    solved alone: its reductions never mix cohorts, and the stack floors
    the logits (_floors_logits) exactly when each of its cohorts would
    alone, unless their dual bounds differ. An infeasible cohort
    raises before any evaluation, and a non-finite residual (from a
    non-finite table entry) raises NumericError.
    """
    j_pred = np.ascontiguousarray(j_pred, dtype=float)
    j_budget = np.ascontiguousarray(j_budget, dtype=float)
    if j_pred.ndim != 3 or j_pred.shape != j_budget.shape or len(cfgs) != len(j_pred):
        raise ValueError("need (C, P, N) tables and one solver config per cohort")
    for least, cfg in zip(j_budget.min(axis=1).sum(axis=1).tolist(), cfgs):
        _check_feasible(least, cfg)
    count = len(cfgs)
    floor = _floors_logits(reg.alpha, cfgs)
    searches = [_rtsafe(cfg) for cfg in cfgs]
    lams = [search.send(None) for search in searches]
    lam_star, slack = [0.0] * count, [0.0] * count
    evaluations, doublings = [0] * count, [0] * count
    Z = np.empty_like(j_pred)
    active = list(range(count))
    jp, jb = j_pred, j_budget
    while active:
        lam = np.array([lams[c] for c in active])
        usage, variance, mix = _usage_moments(jp, jb, lam, reg.alpha, floor)
        moments = zip(active, usage.tolist(), variance.tolist())
        searching = []
        for k, (c, used, var) in enumerate(moments):
            evaluations[c] += 1
            # usage - cap is nonincreasing in lam, so a sign change brackets
            # lam*; its slope is the variance term of backward_pass
            residual, slope = used - cfgs[c].budget_cap, -var / reg.alpha
            # a NaN residual is never <= 0: the search would bisect to machine
            # resolution and return rows of Z it never wrote
            if not math.isfinite(residual):
                raise NumericError(f"cohort {c}: non-finite budget residual at lambda={lams[c]}")
            if residual <= 0:  # a feasible iterate is the new top of c's bracket
                Z[c], slack[c] = mix[k], -residual
            try:
                lams[c] = searches[c].send((residual, slope))
                searching.append(c)
            except StopIteration as done:
                lam_star[c], doublings[c] = done.value
        if searching and len(searching) < len(active):
            jp, jb = j_pred[searching], j_budget[searching]
        active = searching
    return StackSolution(
        np.array(lam_star), np.array(slack), Z, np.array(evaluations), np.array(doublings)
    )


def forward_pass(
    tables: ReturnsTable, reg: RegularizerConfig, cfg: SolverConfig
) -> DualSolution:
    """Bracketed Newton solve of the budget residual for the multiplier.

    The one-cohort view of solve_stack: the (N, P) tables go in as a
    (1, P, N) stack and the mixture comes back as an (N, P) view. The search is
    _rtsafe's: lam = 0 if the budget is slack there, an error if it is
    infeasible, and otherwise the feasible end of a safeguarded Newton
    bracket, so the realized budget never exceeds the cap.
    """
    stack = solve_stack(tables.j_pred.T[None], tables.j_budget.T[None], reg, [cfg])
    return DualSolution(float(stack.lambda_star[0]), float(stack.slack_xi[0]), stack.z_star[0].T)


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
    j_pred: np.ndarray,
    j_budget: np.ndarray,
    reg: RegularizerConfig,
    cfg: SolverConfig,
    dual_tol: float = 1e-9,
    max_outer: int = 200,
) -> tuple[float, float, np.ndarray]:
    """Slow reference solve of one cohort's (P, N) tables: bisection on the
    multiplier, with the inner maximization over the product of simplices
    solved by damped Newton on the per-row KKT equations
    (_newton_refine_rows), warm-started from the previous multiplier's
    mixture. Returns (lambda*, slack, (P, N) mixture).

    The residual of the inner optimum is nonincreasing in the multiplier
    because the dual function of a concave program is convex. Feasibility
    and the growing bracket follow the same rule as solve_stack.
    """
    # the Newton rows are arms: the solve runs on (N, P) views
    j_pred, j_budget = np.asarray(j_pred, dtype=float).T, np.asarray(j_budget, dtype=float).T
    _check_feasible(float(np.sum(j_budget.min(axis=1))), cfg)
    n, p = j_pred.shape
    Z0 = np.full((n, p), 1.0 / p)

    def residual_at(lam: float, Z_init: np.ndarray) -> tuple[float, np.ndarray]:
        Z = _newton_refine_rows(j_pred - lam * j_budget, reg.alpha, Z_init)
        return float(np.sum(Z * j_budget) - cfg.budget_cap), Z

    residual_zero, Z_zero = residual_at(0.0, Z0)
    if residual_zero <= 0:
        return 0.0, -residual_zero, Z_zero.T
    lo, hi = 0.0, cfg.dual_bound
    while residual_at(hi, Z0)[0] > 0:
        lo, hi = hi, 2.0 * hi
        if not np.isfinite(hi):
            raise NumericError("dual bracket grew without the budget residual turning <= 0")
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
    return lam, -residual, Z.T


def backward_pass(
    Z: np.ndarray, lam: float, xi: float, j_budget: np.ndarray, reg: RegularizerConfig,
    upstream: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form gradients of a scalar loss through the entropy layer.

    Z, lam and xi are one cohort's solution as solve_stack returns it
    (z_star[k], lambda_star[k], slack_xi[k]); Z, the budget table j_budget
    and upstream = dloss/dZ are (P, N). Differentiates the KKT system of
    the regularized program: the N column-sum multipliers are eliminated
    against the diagonal mixture block, then the budget row (with its -xi
    corner) against the rest, so the work is O(N * P) at any multiplier.
    The budget cap enters only through the slack xi. Returns
    (dloss/dj_pred, dloss/dj_budget), both (P, N).
    """
    u = np.asarray(upstream, dtype=float)
    w = Z / reg.alpha
    dz = w * _centered(Z, u)[1]
    if lam <= 0.0:
        # slack budget: the constraint row is inactive and contributes nothing
        return dz, np.zeros_like(Z)
    g_centered = _centered(Z, j_budget)[1]
    coupling = float(np.sum(w * g_centered * u))
    variance = float(np.sum(w * g_centered * g_centered))
    dlam = lam * coupling / (xi - lam * lam * variance)
    dz += (lam * dlam) * w * g_centered
    return dz, -lam * (dz - dlam * Z)


def build_returns_table(
    pred: np.ndarray, truth: np.ndarray, setup: DiscountedSetup
) -> ReturnsTable:
    """The three (N, P) return tables, .T views of the engine's (P, N)
    returns; the budget side is evaluated on the true transitions."""
    j_true, j_budget = returns_on_truth(truth, setup)
    return ReturnsTable(
        j_pred=solve_policies(pred, setup).returns(RewardSpec(ENGAGEMENT)).T,
        j_true=j_true.T,
        j_budget=j_budget.T,
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
    cfg.gamma must equal setup.gamma: the returns are discounted by one and
    the cap by the other. Returns (loss, (N, S, 2, S) gradient array).
    """
    if cfg.gamma != setup.gamma:
        raise ValueError(f"cfg.gamma {cfg.gamma} differs from setup.gamma {setup.gamma}")
    pred_arr = np.asarray(pred, dtype=float)
    truth_arr = np.asarray(truth, dtype=float)
    if pred_arr.shape != truth_arr.shape:
        raise ValueError(f"shape mismatch: pred {pred_arr.shape} vs truth {truth_arr.shape}")
    if true_returns is None:
        true_returns = returns_on_truth(truth_arr, setup)
    j_true, j_budget = true_returns
    engagement = RewardSpec(ENGAGEMENT)
    pred_solve = solve_policies(pred_arr, setup, values=engagement)
    sol = solve_stack(pred_solve.returns(engagement)[None], j_budget[None], reg, [cfg])
    Z = sol.z_star[0]
    grad_j_pred, _ = backward_pass(Z, sol.lambda_star[0], sol.slack_xi[0], j_budget, reg, j_true)
    return float(np.sum(Z * j_true)), pred_solve.gradient(grad_j_pred)
