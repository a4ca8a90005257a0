"""Counterexample and property checks behind `rmab-dfl verify`.

Six claims of the decomposed layer, each a function returning a report
dict (claim name, pass flag, measured values): the uncorrected layer's
budget overshoot and spurious optimum on fixed example arms, truthful
optimality under the reference solver, decomposed/joint mixture
equivalence by linear programming, forward-pass agreement with the
reference solver, and residual monotonicity. The acceptance suite calls
the same functions. The uncorrected relaxation (budget checked on the
predictions) and the budget audit live here, with the claims that use
them. scipy is imported only inside the two LP oracles.
"""

from __future__ import annotations

import itertools

import numpy as np

from .mdp import DiscountedSetup, NumericError
from .dec_layer import (
    DualSolution,
    RegularizerConfig,
    ReturnsTable,
    SolverConfig,
    build_returns_table,
    eval_lambda,
    forward_pass,
    returns_on_truth,
    solve_reference,
)
from .planning import Cohort


def uncorrected_policy(pred: np.ndarray, cfg: SolverConfig, setup: DiscountedSetup) -> DualSolution:
    """The layer at alpha=1e-3 with the budget usage evaluated on the
    *predicted* transitions. Exists to reproduce the budget-overshoot
    failure mode; never use it for training.
    """
    return forward_pass(build_returns_table(pred, pred, setup), RegularizerConfig(alpha=1e-3), cfg)


def budget_audit(cohort: Cohort, sol: DualSolution, per_step: bool = False) -> float:
    """Ratio of true-transition budget usage to the available budget.

    By default the denominator is the discounted cap B/(1-gamma), so a
    feasible corrected solution audits at <= 1. With per_step=True the
    denominator is the per-step budget B, the overshoot factor quoted for
    the mismatched-prediction failure case.
    """
    used = float(np.sum(sol.z_star * cohort.true_returns[1].T))
    denom = cohort.budget if per_step else cohort.budget / (1.0 - cohort.setup.gamma)
    return used / denom


def _example_instances():
    """The fixed 2-state arms used by the counterexample claims.

    t_opt: acting in state 0 moves you permanently to state 1 (highest
    possible action effect). t_absorbing: nothing you do matters; you end
    in state 0. t_good / t_bad: acting in state 0 helps, more reliably for
    the good arm; acting in state 1 never does anything.
    """
    t_opt = np.array([[[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [0.0, 1.0]]])
    t_absorbing = np.array([[[1.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [1.0, 0.0]]])
    t_good = np.array([[[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [1.0, 0.0]]])
    t_bad = np.array([[[1.0, 0.0], [0.5, 0.5]], [[1.0, 0.0], [1.0, 0.0]]])
    return t_opt, t_absorbing, t_good, t_bad


def check_budget_overshoot() -> dict:
    """Uncorrected layer on the best-case prediction vs an inert true arm:
    the audited per-step budget usage overshoots by 1/(1-gamma)^2 = 100.
    """
    gamma = 0.9
    t_opt, t_absorbing, _, _ = _example_instances()
    setup = DiscountedSetup(gamma, np.array([1.0, 0.0]))
    cfg = SolverConfig(budget=1.0 - gamma, gamma=gamma)
    sol = uncorrected_policy(t_opt[None], cfg, setup)
    cohort = Cohort(
        features=np.zeros((1, 1)), tensors=t_absorbing[None], budget=1.0 - gamma, setup=setup
    )
    ratio = budget_audit(cohort, sol, per_step=True)
    return {
        "claim": "budget-overshoot",
        "passed": bool(abs(ratio - 100.0) <= 1.0),
        "overshoot_ratio": ratio,
    }


def _uncorrected_loss(pred: np.ndarray, truth: np.ndarray, cfg: SolverConfig, setup) -> float:
    sol = uncorrected_policy(pred, cfg, setup)
    return float(np.sum(sol.z_star * returns_on_truth(truth, setup)[0].T))


def check_spurious_minimum() -> dict:
    """On the two-arm counterexample cohort, the uncorrected objective
    strictly prefers a wrong prediction over the truthful one.
    """
    gamma = 0.9
    t_opt, _, t_good, t_bad = _example_instances()
    setup = DiscountedSetup(gamma, np.array([1.0, 0.0]))
    cfg = SolverConfig(budget=1.0 / (1.0 + gamma), gamma=gamma)
    truth = np.stack([t_good, t_bad])
    loss_truthful = _uncorrected_loss(truth, truth, cfg, setup)
    loss_opt = _uncorrected_loss(np.stack([t_opt, t_opt]), truth, cfg, setup)
    gap = loss_opt - loss_truthful
    return {"claim": "spurious-minimum", "passed": bool(gap > 0), "loss_gap": gap}


def _random_cohort(rng, n: int, states: int = 2, gamma: float = 0.9):
    tensors = rng.dirichlet(np.ones(states), size=(n, states, 2))
    budget = float(rng.uniform(0.2, 0.8)) * n * (1 - gamma)
    setup = DiscountedSetup(gamma, np.full(states, 1.0 / states))
    return tensors, SolverConfig(budget=budget, gamma=gamma), setup


def check_truthful_optimality(seed: int, cohorts: int = 20, alternatives: int = 5) -> dict:
    """Corrected-layer objective: truthful prediction is never beaten by a
    random alternative prediction (up to solver tolerance).
    """
    rng = np.random.default_rng(seed)
    reg = RegularizerConfig(kind="entropy", alpha=1e-3)
    worst = np.inf
    for _ in range(cohorts):
        truth, cfg, setup = _random_cohort(rng, n=int(rng.integers(2, 6)))
        tables = build_returns_table(truth, truth, setup)
        sol = solve_reference(tables, reg, cfg, dual_tol=1e-8)
        truthful = float(np.sum(sol.z_star * tables.j_true))
        for _ in range(alternatives):
            other = rng.dirichlet(np.ones(truth.shape[1]), size=truth.shape[:-1])
            t2 = build_returns_table(other, truth, setup)
            s2 = solve_reference(t2, reg, cfg, dual_tol=1e-8)
            worst = min(worst, truthful - float(np.sum(s2.z_star * t2.j_true)))
    return {
        "claim": "truthful-optimality",
        "passed": bool(worst >= -1e-3),
        "worst_margin": worst,
    }


def decomposed_lp_value(tables: ReturnsTable, cfg: SolverConfig) -> float:
    """Unregularized decomposed optimum by linear programming."""
    from scipy.optimize import linprog  # only verify needs scipy; keep start-up light

    n, p = tables.j_pred.shape
    c = -tables.j_pred.reshape(-1)
    a_eq = np.zeros((n, n * p))
    for i in range(n):
        a_eq[i, i * p : (i + 1) * p] = 1.0
    res = linprog(
        c,
        A_ub=tables.j_budget.reshape(1, -1),
        b_ub=[cfg.budget_cap],
        A_eq=a_eq,
        b_eq=np.ones(n),
        bounds=(0, None),
        method="highs",
    )
    if not res.success:
        raise NumericError(f"decomposed LP failed: {res.message}")
    return -res.fun


def joint_mixture_lp_value(tables: ReturnsTable, cfg: SolverConfig) -> float:
    """Unregularized optimum over mixtures of joint (product) policies."""
    from scipy.optimize import linprog

    n, p = tables.j_pred.shape
    combos = list(itertools.product(range(p), repeat=n))
    j = np.array([sum(tables.j_pred[i, k[i]] for i in range(n)) for k in combos])
    g = np.array([sum(tables.j_budget[i, k[i]] for i in range(n)) for k in combos])
    res = linprog(
        -j,
        A_ub=g.reshape(1, -1),
        b_ub=[cfg.budget_cap],
        A_eq=np.ones((1, len(combos))),
        b_eq=[1.0],
        bounds=(0, None),
        method="highs",
    )
    if not res.success:
        raise NumericError(f"joint mixture LP failed: {res.message}")
    return -res.fun


def check_mixture_equivalence(seed: int, instances: int = 25) -> dict:
    """Optimizing per-arm mixtures is as good as optimizing one mixture
    over joint product policies.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(instances):
        truth, cfg, setup = _random_cohort(rng, n=2)
        tables = build_returns_table(truth, truth, setup)
        gap = abs(decomposed_lp_value(tables, cfg) - joint_mixture_lp_value(tables, cfg))
        worst = max(worst, gap)
    return {
        "claim": "mixture-equivalence",
        "passed": bool(worst <= 1e-6),
        "max_gap": worst,
    }


def check_dual_solver(seed: int, instances: int = 100) -> dict:
    """Fast bracketed-Newton forward pass agrees with the slow damped-Newton
    reference solve, and satisfies complementary slackness.
    """
    rng = np.random.default_rng(seed)
    reg = RegularizerConfig(kind="entropy", alpha=0.1)
    max_lam_err = max_z_err = max_slack = 0.0
    for _ in range(instances):
        truth, cfg, setup = _random_cohort(rng, n=int(rng.integers(2, 5)))
        cfg = SolverConfig(budget=cfg.budget, gamma=cfg.gamma, epsilon=1e-9)
        tables = build_returns_table(truth, truth, setup)
        fast = forward_pass(tables, reg, cfg)
        ref = solve_reference(tables, reg, cfg)
        max_lam_err = max(max_lam_err, abs(fast.lambda_star - ref.lambda_star))
        max_z_err = max(max_z_err, float(np.max(np.abs(fast.z_star - ref.z_star))))
        max_slack = max(max_slack, abs(fast.lambda_star * fast.slack_xi) / cfg.budget_cap)
    return {
        "claim": "dual-solver",
        "passed": bool(max_lam_err <= 2e-5 and max_z_err <= 1e-4 and max_slack <= 1e-6),
        "max_lambda_err": max_lam_err,
        "max_z_err": max_z_err,
        "max_rel_slack": max_slack,
    }


def check_residual_monotonicity(seed: int, draws: int = 10_000) -> dict:
    """Budget residual of the inner softmax solution never increases in
    the multiplier.
    """
    rng = np.random.default_rng(seed)
    violations = 0
    for _ in range(draws):
        n, p = int(rng.integers(1, 6)), int(2 ** rng.integers(1, 4))
        j_pred = rng.normal(scale=5.0, size=(n, p))
        j_budget = rng.uniform(0.0, 10.0, size=(n, p))
        tables = ReturnsTable(j_pred=j_pred, j_true=j_pred, j_budget=j_budget)
        reg = RegularizerConfig(kind="entropy", alpha=float(rng.uniform(0.01, 2.0)))
        cfg = SolverConfig(budget=1.0, gamma=0.9)
        lam_pair = np.sort(rng.uniform(-10.0, 10.0, size=2))
        r_lo, _, _ = eval_lambda(tables, lam_pair[0], reg, cfg)
        r_hi, _, _ = eval_lambda(tables, lam_pair[1], reg, cfg)
        if r_hi > r_lo + 1e-12:
            violations += 1
    return {
        "claim": "residual-monotonicity",
        "passed": violations == 0,
        "violations": violations,
        "draws": draws,
    }


def run_verification(seed: int) -> list[dict]:
    return [
        check_budget_overshoot(),
        check_spurious_minimum(),
        check_truthful_optimality(seed),
        check_mixture_equivalence(seed + 1),
        check_dual_solver(seed + 2),
        check_residual_monotonicity(seed + 3),
    ]
