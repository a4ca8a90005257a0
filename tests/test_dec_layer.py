"""Unit tests for the decomposed mixture-policy layer."""

import numpy as np
import pytest

from oracles import objective_value
from rmab_dfl import (
    DiscountedSetup,
    InfeasibleBudgetError,
    NumericError,
    RegularizerConfig,
    ReturnsTable,
    SolverConfig,
    backward_pass,
    build_returns_table,
    dec_dfl_loss,
    eval_lambda,
    forward_pass,
    solve_reference,
    uniform_setup,
)
from rmab_dfl import dec_layer, learning
from rmab_dfl.checks import uncorrected_policy
from rmab_dfl.dec_layer import DualSolution
from rmab_dfl.datasets import DatasetManifest, generate_synthetic
from rmab_dfl.mdp import BUDGET, RewardSpec, solve_policies


def _backward_dense(sol, tables, reg, upstream):
    """Dense solve of the full KKT linear system; oracle for backward_pass.

    Builds the (N*P + N + 1) arrow system over the mixture block, the N
    row-sum multipliers, and the budget multiplier (with its -xi corner),
    then solves it directly. O((N*P)^3): small instances only.
    """
    Z = sol.z_star
    n, p = Z.shape
    G = tables.j_budget.reshape(-1)
    z = Z.reshape(-1)
    u = np.asarray(upstream, dtype=float).reshape(-1)
    lam, xi = sol.lambda_star, sol.slack_xi
    dim = n * p + n + 1
    K = np.zeros((dim, dim))
    K[: n * p, : n * p] = np.diag(-reg.alpha / np.clip(z, 1e-300, None))
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


def _random_instance(rng, n=3, states=2, gamma=0.9):
    truth = rng.dirichlet(np.ones(states), size=(n, states, 2))
    budget = float(rng.uniform(0.2, 0.8)) * n * (1 - gamma)
    setup = uniform_setup(states, gamma)
    cfg = SolverConfig(budget=budget, gamma=gamma)
    return truth, cfg, setup


class TestConfigs:
    def test_budget_cap(self):
        cfg = SolverConfig(budget=0.5, gamma=0.9)
        assert cfg.budget_cap == pytest.approx(5.0)

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            SolverConfig(budget=0.0, gamma=0.9)

    def test_alpha_must_be_positive(self):
        for alpha in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                RegularizerConfig(alpha=alpha)

    def test_epsilon_must_be_finite_and_positive(self):
        for epsilon in (0.0, -1e-6, np.nan, np.inf):
            with pytest.raises(ValueError):
                SolverConfig(budget=1.0, gamma=0.9, epsilon=epsilon)

    def test_tables_shape_check(self):
        with pytest.raises(ValueError):
            ReturnsTable(
                j_pred=np.zeros((2, 4)), j_true=np.zeros((2, 4)), j_budget=np.zeros((2, 3))
            )


class TestInnerSolution:
    def test_mixture_is_row_softmax(self):
        rng = np.random.default_rng(0)
        tables = ReturnsTable(
            j_pred=rng.normal(size=(3, 4)),
            j_true=np.zeros((3, 4)),
            j_budget=rng.uniform(0, 5, size=(3, 4)),
        )
        reg = RegularizerConfig(alpha=0.7)
        lam = 1.3
        Z = eval_lambda(tables, lam, reg, SolverConfig(budget=1.0, gamma=0.9))[2]
        logits = (tables.j_pred - lam * tables.j_budget) / reg.alpha
        expected = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        assert np.allclose(Z, expected, atol=1e-12)
        assert np.allclose(Z.sum(axis=1), 1.0, atol=1e-12)

    def test_residual_decreases_in_lambda(self):
        rng = np.random.default_rng(1)
        tables = ReturnsTable(
            j_pred=rng.normal(size=(2, 4)),
            j_true=np.zeros((2, 4)),
            j_budget=rng.uniform(0, 5, size=(2, 4)),
        )
        reg = RegularizerConfig(alpha=0.5)
        cfg = SolverConfig(budget=0.5, gamma=0.9)
        lams = np.linspace(-5, 5, 50)
        residuals = [eval_lambda(tables, l, reg, cfg)[0] for l in lams]
        assert np.all(np.diff(residuals) <= 1e-12)

    def test_slope_matches_finite_difference(self):
        rng = np.random.default_rng(18)
        tables = ReturnsTable(
            j_pred=rng.normal(size=(5, 4)),
            j_true=np.zeros((5, 4)),
            j_budget=rng.uniform(0, 5, size=(5, 4)),
        )
        reg = RegularizerConfig(alpha=0.5)
        cfg = SolverConfig(budget=0.5, gamma=0.9)
        h = 1e-6
        _, slope, _ = eval_lambda(tables, 0.7, reg, cfg)
        central = (
            eval_lambda(tables, 0.7 + h, reg, cfg)[0] - eval_lambda(tables, 0.7 - h, reg, cfg)[0]
        ) / (2 * h)
        assert slope < 0
        assert slope == pytest.approx(central, rel=1e-6)


def _long_double_centred(Z, G):
    """G minus each row's Z-expectation, for (N, P) tables, in long double."""
    Z, G = Z.astype(np.longdouble), G.astype(np.longdouble)
    return G - np.sum(Z * G, axis=1, keepdims=True)


def _long_double_variance(Z, G):
    """sum_i Var_{Z_i}(G_i) of (N, P) tables, centred in long double."""
    g = _long_double_centred(Z, G)
    return np.sum(Z * g * g)


class TestSharedElimination:
    """The forward slope and the backward pass's budget pivot are one centred variance."""

    @pytest.mark.parametrize("alpha", [1e-3, 0.1, 1.0])
    def test_slope_is_centred_variance(self, alpha):
        # mixtures from spread to nearly pure: each row keeps one policy at
        # log-weight 0 and puts the others at least `gap` below it, so the
        # slope spans many orders of magnitude; E[X^2] - E[X]^2 loses its
        # digits on the small ones
        rng = np.random.default_rng(31)
        reg, cfg = RegularizerConfig(alpha=alpha), SolverConfig(budget=1.0, gamma=0.9)
        small = 0
        for _ in range(300):
            n, p = int(rng.integers(1, 60)), int(2 ** rng.integers(1, 5))
            j_budget = rng.uniform(0.0, 10.0, size=(n, p))
            log_weights = -(rng.uniform(0.0, 40.0) + rng.exponential(size=(n, p)))
            log_weights[np.arange(n), rng.integers(0, p, size=n)] = 0.0
            lam = float(rng.uniform(0.0, 5.0))
            tables = ReturnsTable(
                j_pred=lam * j_budget + alpha * log_weights, j_true=np.zeros((n, p)),
                j_budget=j_budget,
            )
            _, slope, Z = eval_lambda(tables, lam, reg, cfg)
            expected = -_long_double_variance(Z, j_budget) / alpha
            assert abs(slope - expected) <= 1e-12 * abs(expected)
            small += 1e-10 <= abs(slope) <= 1e-6
        if alpha == 1e-3:
            assert small >= 30

    @pytest.mark.parametrize("alpha", [1e-3, 0.1, 1.0])
    def test_forward_slope_is_backward_pivot(self, alpha):
        # backward_pass's multiplier step is dlam = lam * c / (xi - lam^2 * V)
        # for coupling c = sum (Z / alpha) * g * u and its budget pivot V.
        # Its outputs give dlam, since sum_ij (dz + dj_budget / lam) = N * dlam,
        # and a centred upstream keeps c well conditioned, so V is recovered
        # to a few ulps
        rng = np.random.default_rng(37)
        reg = RegularizerConfig(alpha=alpha)
        solved = 0
        for _ in range(30):
            truth, cfg, setup = _random_instance(rng, n=int(rng.integers(2, 40)), states=3)
            pred = rng.dirichlet(np.ones(3), size=truth.shape[:-1])
            tables = build_returns_table(pred, truth, setup)
            sol = forward_pass(tables, reg, cfg)
            lam, xi, Z = sol.lambda_star, sol.slack_xi, sol.z_star
            if lam == 0.0:
                continue
            solved += 1
            G = tables.j_budget
            u = G - np.sum(Z * G, axis=1, keepdims=True)
            dz, dj_budget = backward_pass(Z.T, lam, xi, G.T, reg, u.T)
            dlam = float(np.sum(dz + dj_budget / lam)) / len(Z)
            coupling = float(np.sum(Z * _long_double_centred(Z, G) * u) / alpha)
            pivot = (xi - lam * coupling / dlam) / lam**2
            _, slope, _ = eval_lambda(tables, lam, reg, cfg)
            assert abs(slope + pivot) <= 1e-13 * pivot
        assert solved >= 20


class TestForwardPass:
    def test_budget_met_at_optimum(self):
        rng = np.random.default_rng(2)
        truth, cfg, setup = _random_instance(rng)
        tables = build_returns_table(truth, truth, setup)
        sol = forward_pass(tables, RegularizerConfig(alpha=0.1), cfg)
        used = float(np.sum(sol.z_star * tables.j_budget))
        assert used <= cfg.budget_cap + 1e-4
        # complementary slackness
        assert abs(sol.lambda_star * sol.slack_xi) <= 1e-6 * cfg.budget_cap

    def test_slack_budget_gives_zero_multiplier(self):
        rng = np.random.default_rng(3)
        truth = rng.dirichlet(np.ones(2), size=(2, 2, 2))
        setup = uniform_setup(2, 0.9)
        cfg = SolverConfig(budget=2.0, gamma=0.9)  # budget covers always-acting
        tables = build_returns_table(truth, truth, setup)
        sol = forward_pass(tables, RegularizerConfig(alpha=0.1), cfg)
        assert sol.lambda_star == 0.0
        assert sol.evaluations == 1

    def test_infeasible_budget_raises(self):
        # force positive budget usage under every policy: acting usage is
        # 1/(1-gamma) per arm, cap far below the passive-policy floor of 0
        # cannot happen with nonnegative usage, so fake a strictly positive
        # minimum usage table instead
        tables = ReturnsTable(
            j_pred=np.zeros((1, 2)),
            j_true=np.zeros((1, 2)),
            j_budget=np.array([[5.0, 6.0]]),
        )
        cfg = SolverConfig(budget=0.1, gamma=0.9)  # cap = 1 < min usage 5
        with pytest.raises(InfeasibleBudgetError):
            forward_pass(tables, RegularizerConfig(alpha=0.1), cfg)


    def test_bracket_grows_for_feasible_tight_budget(self):
        # at alpha = 10 the multiplier that meets B = 1 lies above the
        # initial bracket top 1/(1-gamma) = 10, but never acting uses no
        # budget, so the instance is feasible and must be solved
        rng = np.random.default_rng(2024)
        truth = rng.dirichlet(np.ones(2), size=(100, 2, 2))
        setup = uniform_setup(2, 0.9)
        cfg = SolverConfig(budget=1.0, gamma=0.9)
        tables = build_returns_table(truth, truth, setup)
        sol = forward_pass(tables, RegularizerConfig(alpha=10.0), cfg)
        assert sol.lambda_star > cfg.dual_bound
        used = float(np.sum(sol.z_star * tables.j_budget))
        assert used <= cfg.budget_cap * (1 + 1e-6)


class TestNewtonDualSolve:
    """The bracketed Newton solve: feasible end, traps of the safeguard, work counts."""

    def test_budget_never_over_cap_on_random_instances(self):
        rng = np.random.default_rng(17)
        for k in range(500):
            alpha = (1e-3, 0.1, 1.0, 10.0)[k % 4]
            n = int(np.exp(rng.uniform(np.log(2), np.log(201))))
            states = int(rng.integers(2, 4))
            truth = rng.dirichlet(np.ones(states), size=(n, states, 2))
            pred = rng.dirichlet(np.ones(states), size=(n, states, 2))
            cfg = SolverConfig(budget=float(rng.uniform(0.05, 0.5)) * n, gamma=0.9)
            tables = build_returns_table(pred, truth, uniform_setup(states, 0.9))
            reg = RegularizerConfig(alpha=alpha)
            sol = forward_pass(tables, reg, cfg)
            assert sol.slack_xi >= 0.0
            assert float(np.sum(sol.z_star * tables.j_budget)) <= cfg.budget_cap * (1 + 1e-12)
            assert abs(sol.lambda_star - solve_reference(tables, reg, cfg).lambda_star) <= 2e-5

    def test_flat_residual_is_not_convergence(self):
        # at alpha = 1e-3 every row is one-hot at the bracket top, so the
        # residual's slope there is exactly 0 while the residual is
        # negative; bisection's 27 evaluations are the ceiling on this
        # staircase
        setup = uniform_setup(2, 0.9)
        cfg = SolverConfig(budget=10.0, gamma=0.9)
        reg = RegularizerConfig(alpha=1e-3)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            truth = rng.dirichlet(np.ones(2), size=(100, 2, 2))
            pred = rng.dirichlet(np.ones(2), size=(100, 2, 2))
            tables = build_returns_table(pred, truth, setup)
            residual_top, slope_top, _ = eval_lambda(tables, cfg.dual_bound, reg, cfg)
            assert residual_top < 0 and slope_top == 0.0
            sol = forward_pass(tables, reg, cfg)
            assert 0 < sol.evaluations <= 27
            assert abs(sol.lambda_star - solve_reference(tables, reg, cfg).lambda_star) <= 2e-5

    def test_newton_from_infeasible_side_ends_feasible(self):
        # the residual is convex left of the root here: a Newton step from
        # the infeasible side stops short of the root, so the solve has to
        # step past it to end on the feasible side
        rng = np.random.default_rng(51)
        n = int(rng.integers(2, 50))
        truth = rng.dirichlet(np.ones(2), size=(n, 2, 2))
        pred = rng.dirichlet(np.ones(2), size=(n, 2, 2))
        cfg = SolverConfig(budget=float(rng.uniform(0.05, 0.5)) * n, gamma=0.9)
        tables = build_returns_table(pred, truth, uniform_setup(2, 0.9))
        reg = RegularizerConfig(alpha=1.0)
        ref = solve_reference(tables, reg, cfg)
        start = ref.lambda_star - 0.05
        residual, slope, _ = eval_lambda(tables, start, reg, cfg)
        assert residual > 0
        assert eval_lambda(tables, start - residual / slope, reg, cfg)[0] > 0
        sol = forward_pass(tables, reg, cfg)
        assert sol.slack_xi >= 0.0
        assert abs(sol.lambda_star * sol.slack_xi) <= 1e-6 * cfg.budget_cap
        assert abs(sol.lambda_star - ref.lambda_star) <= 2e-5

    def test_budget_just_above_least_usage_solves(self):
        rng = np.random.default_rng(7)
        j_budget = rng.uniform(1.0, 10.0, size=(50, 4))
        tables = ReturnsTable(
            j_pred=rng.normal(size=(50, 4)), j_true=np.zeros((50, 4)), j_budget=j_budget
        )
        cap = 1.001 * float(j_budget.min(axis=1).sum())
        cfg = SolverConfig(budget=cap * (1 - 0.9), gamma=0.9)
        reg = RegularizerConfig(alpha=0.1)
        sol = forward_pass(tables, reg, cfg)
        assert sol.slack_xi >= 0.0
        assert abs(sol.lambda_star - solve_reference(tables, reg, cfg).lambda_star) <= 2e-5

    def test_evaluations_count_every_residual(self, monkeypatch):
        # every residual, alone or stacked, comes from one dec_layer._usage_moments call
        calls = []
        original = dec_layer._usage_moments
        monkeypatch.setattr(
            dec_layer, "_usage_moments", lambda *args: calls.append(args[2]) or original(*args)
        )
        rng = np.random.default_rng(2)
        truth, cfg, setup = _random_instance(rng, n=20)
        sol = forward_pass(build_returns_table(truth, truth, setup), RegularizerConfig(alpha=1.0), cfg)
        assert sol.lambda_star > 0.0
        assert sol.evaluations == len(calls)

    def test_evaluation_ceiling_at_scale_out(self):
        setup = uniform_setup(4, 0.9)
        cfg = SolverConfig(budget=1000.0, gamma=0.9)
        for seed in range(2):
            rng = np.random.default_rng(seed)
            truth = rng.dirichlet(np.ones(4), size=(10_000, 4, 2))
            pred = rng.dirichlet(np.ones(4), size=(10_000, 4, 2))
            tables = build_returns_table(pred, truth, setup)
            sol = forward_pass(tables, RegularizerConfig(alpha=1.0), cfg)
            assert 0 < sol.evaluations <= 12


def _stacked(tables_list):
    """(C, P, N) predicted-return and budget stacks of (N, P) tables."""
    return (
        np.stack([t.j_pred.T for t in tables_list]),
        np.stack([t.j_budget.T for t in tables_list]),
    )


class TestStackedSolve:
    """solve_stack: a cohort in a stack gets what it gets alone, one residual call a round."""

    def test_cohort_alone_equals_stacked(self):
        dataset = generate_synthetic(DatasetManifest())
        cohorts = dataset.cohort_objects("test")
        setup = cohorts[0].setup
        problems = [
            (build_returns_table(0.5 * c.tensors + 0.25, c.tensors, c.setup),
             SolverConfig(budget=c.budget, gamma=c.setup.gamma))
            for c in cohorts
        ]
        rng = np.random.default_rng(23)
        # same N and S as the paper cohorts, budgets from slack to tight
        for budget in (0.5, 1.0, 2.0, 5.0, 10.0, 40.0, 90.0):
            truth = rng.dirichlet(np.ones(2), size=(100, 2, 2))
            pred = rng.dirichlet(np.ones(2), size=(100, 2, 2))
            problems.append((build_returns_table(pred, truth, setup), SolverConfig(budget, 0.9)))
        j_pred, j_budget = _stacked([t for t, _ in problems])
        cfgs = [cfg for _, cfg in problems]
        for alpha in (1.0, 0.1, 1e-3):
            reg = RegularizerConfig(alpha=alpha)
            stack = dec_layer.solve_stack(j_pred, j_budget, reg, cfgs)
            assert stack.rounds == stack.evaluations.max()
            for k, (tables, cfg) in enumerate(problems):
                alone = dec_layer.solve_stack(j_pred[k : k + 1], j_budget[k : k + 1], reg, [cfg])
                single = forward_pass(tables, reg, cfg)
                stacked = stack.cohort(k)
                for sol in (alone.cohort(0), single):
                    assert sol.lambda_star == stacked.lambda_star
                    assert sol.slack_xi == stacked.slack_xi
                    assert sol.evaluations == stacked.evaluations
                    assert sol.doublings == stacked.doublings
                    assert np.array_equal(sol.z_star, stacked.z_star)

    def test_budget_never_over_cap_on_random_stacks(self):
        rng = np.random.default_rng(29)
        grown = 0
        for k in range(63):  # 504 instances in stacks of 8 that share N
            alpha = (1e-3, 0.1, 1.0, 10.0)[k % 4]
            n = int(np.exp(rng.uniform(np.log(2), np.log(201))))
            states = int(rng.integers(2, 4))
            problems = []
            for _ in range(8):
                truth = rng.dirichlet(np.ones(states), size=(n, states, 2))
                pred = rng.dirichlet(np.ones(states), size=(n, states, 2))
                # budgets down to 1% of the arms: at alpha = 10 the tightest
                # need a multiplier above the initial bracket top
                share = float(np.exp(rng.uniform(np.log(0.01), np.log(0.5))))
                cfg = SolverConfig(budget=share * n, gamma=0.9)
                problems.append((build_returns_table(pred, truth, uniform_setup(states, 0.9)), cfg))
            reg = RegularizerConfig(alpha=alpha)
            stack = dec_layer.solve_stack(
                *_stacked([t for t, _ in problems]), reg, [c for _, c in problems]
            )
            grown += int(np.count_nonzero(stack.doublings))
            for j, (tables, cfg) in enumerate(problems):
                sol = stack.cohort(j)
                assert sol.slack_xi >= 0.0
                assert float(np.sum(sol.z_star * tables.j_budget)) <= cfg.budget_cap * (1 + 1e-12)
                assert abs(sol.lambda_star - solve_reference(tables, reg, cfg).lambda_star) <= 2e-5
        assert grown > 0

    def test_doublings_count_bracket_growth(self):
        setup = uniform_setup(2, 0.9)
        cfg = SolverConfig(budget=1.0, gamma=0.9)
        truth = np.random.default_rng(2024).dirichlet(np.ones(2), size=(100, 2, 2))
        tables = build_returns_table(truth, truth, setup)
        grown = forward_pass(tables, RegularizerConfig(alpha=10.0), cfg)
        # lambda* is about 10.8: one doubling of the top 1/(1-gamma) = 10 brackets it
        assert cfg.dual_bound < grown.lambda_star < 2 * cfg.dual_bound
        assert grown.doublings == 1
        assert forward_pass(tables, RegularizerConfig(alpha=0.1), cfg).doublings == 0

    def test_non_finite_residual_raises(self):
        # a NaN residual is never <= 0: without the guard the search bisects to
        # machine resolution and hands back mixture rows it never wrote
        rng = np.random.default_rng(31)
        setup = uniform_setup(2, 0.9)
        tables = [
            build_returns_table(*rng.dirichlet(np.ones(2), size=(2, 5, 2, 2)), setup)
            for _ in range(3)
        ]
        j_pred, j_budget = _stacked(tables)
        j_pred[1, 2, 3] = np.nan
        for budget in (0.5, 2.0):
            cfgs = [SolverConfig(budget=budget, gamma=0.9)] * 3
            with pytest.raises(NumericError, match="cohort 1: non-finite budget residual"):
                dec_layer.solve_stack(j_pred, j_budget, RegularizerConfig(alpha=1e-3), cfgs)

    def test_infeasible_cohort_rejected(self):
        rng = np.random.default_rng(3)
        tables = [
            ReturnsTable(j_pred=rng.normal(size=(5, 4)), j_true=np.zeros((5, 4)),
                         j_budget=rng.uniform(1.0, 2.0, size=(5, 4)))
            for _ in range(2)
        ]
        cfgs = [SolverConfig(budget=1.0, gamma=0.9), SolverConfig(budget=0.01, gamma=0.9)]
        with pytest.raises(InfeasibleBudgetError):
            dec_layer.solve_stack(*_stacked(tables), RegularizerConfig(alpha=0.1), cfgs)
        with pytest.raises(ValueError):
            dec_layer.solve_stack(*_stacked(tables), RegularizerConfig(alpha=0.1), cfgs[:1])


class TestBatchLastLayout:
    """(N, P) tables and mixtures are .T views of the engine's and the solve's batch-last arrays."""

    def test_tables_and_mixture_are_views(self):
        rng = np.random.default_rng(59)
        truth, cfg, setup = _random_instance(rng, n=6, states=3)
        pred = rng.dirichlet(np.ones(3), size=truth.shape[:-1])
        tables = build_returns_table(pred, truth, setup)
        reg = RegularizerConfig(alpha=0.1)
        stack = dec_layer.solve_stack(tables.j_pred.T[None], tables.j_budget.T[None], reg, [cfg])
        mixtures = (forward_pass(tables, reg, cfg).z_star, stack.cohort(0).z_star)
        for view in (tables.j_pred, tables.j_true, tables.j_budget) + mixtures:
            assert view.shape == (6, 8)
            assert view.T.flags.c_contiguous and not view.flags.owndata
        assert np.shares_memory(mixtures[1], stack.z_star)
        assert np.array_equal(mixtures[0], mixtures[1])

    @pytest.mark.parametrize("alpha", [1e-3, 1.0])
    def test_loss_on_views_matches_c_order_copies(self, alpha, monkeypatch):
        rng = np.random.default_rng(61)
        truth, _, setup = _random_instance(rng, n=200, states=3)
        pred = rng.dirichlet(np.ones(3), size=truth.shape[:-1])
        cfg = SolverConfig(budget=20.0, gamma=0.9)
        reg = RegularizerConfig(alpha=alpha)
        loss, grad = dec_dfl_loss(pred, truth, reg, cfg, setup)

        def c_order(j_pred, j_true, j_budget):
            return ReturnsTable(*map(np.ascontiguousarray, (j_pred, j_true, j_budget)))

        monkeypatch.setattr(dec_layer, "ReturnsTable", c_order)
        copied_loss, copied_grad = dec_dfl_loss(pred, truth, reg, cfg, setup)
        assert loss == copied_loss
        assert np.max(np.abs(grad - copied_grad)) <= 1e-12 * np.max(np.abs(copied_grad))


def _plain_softmax(j_pred, j_budget, lam, alpha):
    """The unfloored max-shifted softmax of a (C, P, N) stack over its policy
    axis, on C-contiguous copies as solve_stack takes them (numpy sums a
    strided policy axis in another order)."""
    j_pred, j_budget = np.ascontiguousarray(j_pred), np.ascontiguousarray(j_budget)
    logits = (j_pred - lam[:, None, None] * j_budget) / alpha
    logits = logits - logits.max(axis=1, keepdims=True)
    return np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True), logits


def _floor_instances(rng, count, n=200, states=3):
    """Random (pred, truth) return tables and 0.9-discounted solver configs."""
    setup = uniform_setup(states, 0.9)
    problems = []
    for _ in range(count):
        truth = rng.dirichlet(np.ones(states), size=(n, states, 2))
        pred = rng.dirichlet(np.ones(states), size=(n, states, 2))
        cfg = SolverConfig(budget=float(rng.uniform(0.05, 0.5)) * n, gamma=0.9)
        problems.append((build_returns_table(pred, truth, setup), cfg))
    return problems


def _assert_eval_lambda_matches_rounds(problems, alpha, floors, monkeypatch):
    """Each round of a one-cohort solve_stack, whose logits are floored
    exactly when `floors`, has the bits of eval_lambda at its multiplier."""
    reg = RegularizerConfig(alpha=alpha)
    for tables, cfg in problems:
        rounds = []
        original = dec_layer._usage_moments

        def recording(*args):
            moments = original(*args)
            rounds.append((float(args[2][0]), moments, args[4]))
            return moments

        monkeypatch.setattr(dec_layer, "_usage_moments", recording)
        j_pred, j_budget = _stacked([tables])
        sol = dec_layer.solve_stack(j_pred, j_budget, reg, [cfg])
        monkeypatch.undo()
        assert sol.lambda_star[0] > 0.0 and len(rounds) == sol.evaluations[0] > 1
        for lam, (usage, variance, mix), floor in rounds:
            assert floor == floors
            residual, slope, Z = eval_lambda(tables, lam, reg, cfg)
            assert (residual, slope) == dec_layer._residual_and_slope(
                usage[0], variance[0], cfg.budget_cap, reg.alpha
            )
            assert np.array_equal(Z.T, mix[0])


class TestExpFloor:
    """The floor on the shifted logits: on where alpha lets them underflow, off at alpha = 1."""

    def test_floored_mixture_matches_plain_softmax(self):
        problems = _floor_instances(np.random.default_rng(41), 3)
        j_pred, j_budget = map(np.ascontiguousarray, _stacked([t for t, _ in problems]))
        # cohort 0's arm 0 prefers policy 2 by 5 units: a one-hot row at lam = 0
        j_pred[0, :, 0] = 0.0
        j_pred[0, 2, 0] = 5.0
        cfgs = [cfg for _, cfg in problems]
        assert dec_layer._floors_logits(1e-3, cfgs)
        # the floor's exp is a normal double, above the subnormal range where exp is slow
        assert np.exp(dec_layer.EXP_FLOOR) >= np.finfo(float).tiny
        for lam in ([0.0, 5.0, 10.0], [0.3, 2.0, 17.0]):
            lam = np.array(lam)
            Z = dec_layer._mixtures(j_pred, j_budget, lam, 1e-3, True)
            plain, logits = _plain_softmax(j_pred, j_budget, lam, 1e-3)
            assert np.mean(logits < -745) > 0.25  # most of exp's input is off its fast path
            # exp(-700), and the rounding of subtracting it from a larger entry
            assert np.max(np.abs(Z - plain)) <= 2 * np.exp(dec_layer.EXP_FLOOR)
            assert np.all(Z[logits <= dec_layer.EXP_FLOOR] == 0.0)
            assert np.array_equal(Z[0, :, 0], [0.0, 0.0, 1.0] + [0.0] * 5)

    def test_gate_is_off_at_unit_alpha(self):
        problems = _floor_instances(np.random.default_rng(43), 3)
        j_pred, j_budget = map(np.ascontiguousarray, _stacked([t for t, _ in problems]))
        cfgs = [cfg for _, cfg in problems]
        reg = RegularizerConfig(alpha=1.0)
        assert not dec_layer._floors_logits(reg.alpha, cfgs)
        lam = np.array([0.0, 4.0, 25.0])  # 25 is past the bracket top 10
        plain, _ = _plain_softmax(j_pred, j_budget, lam, reg.alpha)
        for k, (tables, cfg) in enumerate(problems):
            Z = eval_lambda(tables, float(lam[k]), reg, cfg)[2]
            assert np.array_equal(Z.T, plain[k])

    def test_eval_lambda_matches_stacked_rounds(self, monkeypatch):
        # eval_lambda and a one-cohort solve_stack decide the floor by the
        # same rule, so each of the solve's residuals has the same bits alone
        _assert_eval_lambda_matches_rounds(
            _floor_instances(np.random.default_rng(47), 4), 1e-3, True, monkeypatch
        )

    def test_eval_lambda_matches_stacked_rounds_on_c_order_tables(self, monkeypatch):
        # (N, P) tables in C order, not .T views of the engine's (P, N) memory:
        # eval_lambda reads them in the C order solve_stack copies them to
        rng = np.random.default_rng(59)
        problems = [
            (ReturnsTable(*map(np.ascontiguousarray, (t.j_pred, t.j_true, t.j_budget))), cfg)
            for t, cfg in _floor_instances(rng, 3, n=300, states=4)
        ]
        assert all(t.j_pred.flags.c_contiguous for t, _ in problems)
        _assert_eval_lambda_matches_rounds(problems, 0.1, True, monkeypatch)
        _assert_eval_lambda_matches_rounds(problems, 1.0, False, monkeypatch)

    def test_eval_outputs_equal_with_floor_off(self, monkeypatch):
        dataset = generate_synthetic(DatasetManifest(cohorts=8, split_sizes=(1, 1, 6)))
        cohorts = dataset.cohort_objects("test")
        rng = np.random.default_rng(53)
        preds = [rng.dirichlet(np.ones(2), size=c.tensors.shape[:-1]) for c in cohorts]
        assert dec_layer._floors_logits(
            learning.EVAL_ALPHA, [SolverConfig(c.budget, c.setup.gamma) for c in cohorts]
        )
        runs = []
        for floors in (dec_layer._floors_logits, lambda alpha, cfgs: False):
            solves = []
            monkeypatch.setattr(dec_layer, "_floors_logits", floors)
            monkeypatch.setattr(
                learning, "solve_stack",
                lambda *args: solves.append(dec_layer.solve_stack(*args)) or solves[-1],
            )
            report = learning.evaluate_dq(None, cohorts, trajectories=0, predictions=preds)
            monkeypatch.undo()
            runs.append((report, solves))
        (floored, floored_solves), (plain, plain_solves) = runs
        assert floored == plain  # every DQReport field
        [with_floor], [without] = floored_solves, plain_solves
        assert np.array_equal(with_floor.lambda_star, without.lambda_star)
        assert np.array_equal(with_floor.evaluations, without.evaluations)
        assert with_floor.rounds == without.rounds
        moved = np.max(np.abs(with_floor.z_star - without.z_star))
        assert moved <= 2 * np.exp(dec_layer.EXP_FLOOR)


class TestReferenceSolver:
    def test_agrees_with_forward_pass(self):
        rng = np.random.default_rng(4)
        reg = RegularizerConfig(alpha=0.1)
        for _ in range(5):
            truth, cfg, setup = _random_instance(rng, n=int(rng.integers(2, 5)))
            cfg = SolverConfig(budget=cfg.budget, gamma=cfg.gamma, epsilon=1e-9)
            tables = build_returns_table(truth, truth, setup)
            fast = forward_pass(tables, reg, cfg)
            ref = solve_reference(tables, reg, cfg)
            assert abs(fast.lambda_star - ref.lambda_star) <= 2e-5
            assert np.max(np.abs(fast.z_star - ref.z_star)) <= 1e-4

    def test_grown_bracket_matches_forward_pass(self):
        # feasible tight-budget instances (alpha = 10, B = 1) whose multiplier
        # lies above the initial bracket top: the oracle grows its bracket
        # like forward_pass
        setup = uniform_setup(2, 0.9)
        cfg = SolverConfig(budget=1.0, gamma=0.9, epsilon=1e-9)
        reg = RegularizerConfig(alpha=10.0)
        for seed in (2024, 2025, 2026):
            truth = np.random.default_rng(seed).dirichlet(np.ones(2), size=(100, 2, 2))
            tables = build_returns_table(truth, truth, setup)
            fast = forward_pass(tables, reg, cfg)
            ref = solve_reference(tables, reg, cfg)
            if seed == 2024:
                assert ref.lambda_star == pytest.approx(10.8002085, abs=1e-6)
            assert fast.lambda_star > cfg.dual_bound
            assert abs(fast.lambda_star - ref.lambda_star) <= 1e-8
            assert np.max(np.abs(fast.z_star - ref.z_star)) <= 1e-9

    def test_objective_not_below_feasible_candidates(self):
        rng = np.random.default_rng(6)
        truth, cfg, setup = _random_instance(rng, n=2)
        reg = RegularizerConfig(alpha=0.5)
        tables = build_returns_table(truth, truth, setup)
        sol = solve_reference(tables, reg, cfg, dual_tol=1e-9)
        best = objective_value(tables.j_pred, sol.z_star, reg.alpha)
        for _ in range(200):
            n, num_policies = tables.j_pred.shape
            cand = rng.dirichlet(np.ones(num_policies), size=n)
            if float(np.sum(cand * tables.j_budget)) <= cfg.budget_cap:
                assert objective_value(tables.j_pred, cand, reg.alpha) <= best + 1e-6


class TestBackwardPass:
    def test_matches_dense_kkt_solve(self):
        rng = np.random.default_rng(9)
        reg = RegularizerConfig(alpha=0.3)
        for _ in range(5):
            truth, cfg, setup = _random_instance(rng, n=3)
            cfg = SolverConfig(budget=cfg.budget, gamma=cfg.gamma, epsilon=1e-12)
            tables = build_returns_table(truth, truth, setup)
            sol = forward_pass(tables, reg, cfg)
            upstream = rng.normal(size=tables.j_pred.shape)
            fast = [g.T for g in backward_pass(sol.z_star.T, sol.lambda_star, sol.slack_xi,
                                               tables.j_budget.T, reg, upstream.T)]
            dense = _backward_dense(sol, tables, reg, upstream)
            assert np.max(np.abs(fast[0] - dense[0])) <= 1e-8
            assert np.max(np.abs(fast[1] - dense[1])) <= 1e-8

    def test_tiny_multiplier_keeps_slack_corner(self):
        # at lambda = 1e-13 the -xi corner of the KKT system dominates the
        # budget row; dropping it would blow the multiplier step up by 1/lambda
        rng = np.random.default_rng(16)
        tables = ReturnsTable(
            j_pred=rng.normal(size=(3, 4)),
            j_true=np.zeros((3, 4)),
            j_budget=rng.uniform(0, 10, size=(3, 4)),
        )
        reg = RegularizerConfig(alpha=1.0)
        cfg = SolverConfig(budget=1.0, gamma=0.9)
        lam = 1e-13
        sol = DualSolution(
            lambda_star=lam, slack_xi=3e-7, z_star=eval_lambda(tables, lam, reg, cfg)[2]
        )
        upstream = rng.normal(size=(3, 4))
        fast = [g.T for g in backward_pass(sol.z_star.T, lam, sol.slack_xi, tables.j_budget.T,
                                           reg, upstream.T)]
        dense = _backward_dense(sol, tables, reg, upstream)
        assert np.max(np.abs(fast[0] - dense[0])) <= 1e-10
        assert np.max(np.abs(fast[1] - dense[1])) <= 1e-10

    def test_slack_budget_kills_budget_gradient(self):
        rng = np.random.default_rng(10)
        truth = rng.dirichlet(np.ones(2), size=(2, 2, 2))
        setup = uniform_setup(2, 0.9)
        cfg = SolverConfig(budget=2.0, gamma=0.9)
        tables = build_returns_table(truth, truth, setup)
        reg = RegularizerConfig(alpha=0.5)
        sol = forward_pass(tables, reg, cfg)
        assert sol.lambda_star == 0.0
        _, g_budget = backward_pass(sol.z_star.T, sol.lambda_star, sol.slack_xi,
                                    tables.j_budget.T, reg, tables.j_true.T)
        assert np.all(g_budget == 0.0)

    def test_requires_entropy(self):
        # the closed-form backward holds for entropy only, and no other
        # regularizer can be configured
        with pytest.raises(ValueError):
            RegularizerConfig(kind="l2", alpha=1.0)


class TestLossWrapper:
    def test_loss_and_gradient_shapes(self):
        rng = np.random.default_rng(11)
        truth, cfg, setup = _random_instance(rng, n=3)
        pred = rng.dirichlet(np.ones(2), size=(3, 2, 2))
        loss, grad = dec_dfl_loss(pred, truth, RegularizerConfig(alpha=1.0), cfg, setup)
        assert np.isfinite(loss)
        assert grad.shape == pred.shape

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(12)
        truth, cfg, setup = _random_instance(rng, n=3)
        pred = rng.dirichlet(np.ones(2), size=(2, 2, 2))
        with pytest.raises(ValueError):
            dec_dfl_loss(pred, truth, RegularizerConfig(alpha=1.0), cfg, setup)

    def test_gamma_mismatch_rejected(self):
        # the returns would be discounted by setup.gamma and the cap by cfg.gamma
        rng = np.random.default_rng(14)
        truth, cfg, setup = _random_instance(rng, n=3)
        pred = rng.dirichlet(np.ones(2), size=(3, 2, 2))
        other = SolverConfig(budget=cfg.budget, gamma=0.5)  # setup.gamma is 0.9
        with pytest.raises(ValueError, match="gamma"):
            dec_dfl_loss(pred, truth, RegularizerConfig(alpha=1.0), other, setup)

    def test_budget_on_pred_changes_constraint_side(self):
        # the uncorrected relaxation checks the budget on the predictions
        rng = np.random.default_rng(13)
        truth, cfg, setup = _random_instance(rng, n=2)
        pred = rng.dirichlet(np.ones(2), size=(2, 2, 2))
        reg = RegularizerConfig(alpha=1e-3)
        on_truth = build_returns_table(pred, truth, setup)
        pred_budget = solve_policies(pred, setup).returns(RewardSpec(BUDGET)).T
        assert not np.allclose(on_truth.j_budget, pred_budget)
        uncorrected = uncorrected_policy(pred, cfg, setup)  # at alpha=1e-3, as reg
        on_pred = ReturnsTable(j_pred=on_truth.j_pred, j_true=on_truth.j_true, j_budget=pred_budget)
        assert np.array_equal(uncorrected.z_star, forward_pass(on_pred, reg, cfg).z_star)
        assert not np.allclose(uncorrected.z_star, forward_pass(on_truth, reg, cfg).z_star)


class TestArmBlocks:
    """The layer's per-arm work, split into arm blocks across threads, keeps every bit."""

    @pytest.mark.parametrize("alpha", [1.0, 1e-3])
    @pytest.mark.parametrize("states", [2, 3, 4])
    def test_split_keeps_bits(self, arm_threads, states, alpha):
        rng = np.random.default_rng(70 + states)
        setup = uniform_setup(states, 0.9)
        truth = rng.dirichlet(np.ones(states), size=(7, states, 2))
        preds = rng.dirichlet(np.ones(states), size=(3, 7, states, 2))
        stack = _stacked([build_returns_table(pred, truth, setup) for pred in preds])
        cfgs = [SolverConfig(budget=budget, gamma=0.9) for budget in (0.7, 1.4, 2.8)]
        reg = RegularizerConfig(alpha=alpha)
        outputs = []
        for workers in (1, 3):
            ran = arm_threads(workers, states)
            sol = dec_layer.solve_stack(*stack, reg, cfgs)
            loss, grad = dec_dfl_loss(preds[0], truth, reg, cfgs[0], setup)
            assert bool(ran) == (workers > 1)
            outputs.append((sol, loss, grad))
        (one, loss_one, grad_one), (three, loss_three, grad_three) = outputs
        assert one.rounds == three.rounds > 1
        for field in ("lambda_star", "slack_xi", "z_star", "evaluations", "doublings"):
            assert np.array_equal(getattr(one, field), getattr(three, field))
        assert loss_one == loss_three
        assert np.array_equal(grad_one, grad_three)
