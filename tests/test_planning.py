"""Unit tests for joint planning, simulation, and audits."""

import numpy as np
import pytest

from rmab_dfl import (
    Cohort,
    DecomposedPolicy,
    DiscountedSetup,
    FixedPerArmPolicy,
    RegularizerConfig,
    SolverConfig,
    WhittleTable,
    WhittleTopB,
    brute_force_joint,
    budget_audit,
    build_returns_table,
    forward_pass,
    simulate_joint,
    uncorrected_policy,
    top_b_actions,
    uniform_setup,
)
from rmab_dfl.mdp import ENGAGEMENT, CapacityError, RewardSpec, solve_policies
from rmab_dfl import planning
from rmab_dfl.planning import simulation_horizon


def _cohort(rng, n=3, states=2, gamma=0.9, budget=None):
    tensors = rng.dirichlet(np.ones(states), size=(n, states, 2))
    if budget is None:
        budget = 0.5 * n * (1 - gamma)
    setup = uniform_setup(states, gamma)
    return Cohort(features=np.zeros((n, 1)), tensors=tensors, budget=budget, setup=setup)


class TestTopB:
    def test_selects_highest_indices(self):
        assert top_b_actions(np.array([0.1, 0.9, 0.5]), budget=2).tolist() == [0, 1, 1]
        scores = np.array([[0.1, 0.9, 0.5], [0.7, -0.2, 0.3]])
        assert top_b_actions(scores, budget=2).tolist() == [[0, 1, 1], [1, 0, 1]]

    def test_ties_break_to_lowest_arm_id(self):
        assert top_b_actions(np.full(3, 0.5), budget=1).tolist() == [1, 0, 0]
        scores = np.array([[0.5, 0.5, 0.5], [0.1, 0.4, 0.4]])
        assert top_b_actions(scores, budget=1).tolist() == [[1, 0, 0], [0, 1, 0]]

    def test_budget_larger_than_arms(self):
        assert top_b_actions(np.array([0.5]), budget=5).tolist() == [1]
        assert top_b_actions(np.array([[-0.5, 0.5]] * 2), budget=5).tolist() == [[1, 1]] * 2


class TestSimulation:
    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(0)
        cohort = _cohort(rng)
        policy = FixedPerArmPolicy(policy_indices=np.zeros(3, dtype=int))
        a = simulate_joint(cohort, policy, trajectories=50, seed=7)
        b = simulate_joint(cohort, policy, trajectories=50, seed=7)
        assert a == b

    def test_decomposed_policy_matches_analytic_value(self):
        rng = np.random.default_rng(1)
        cohort = _cohort(rng, n=4)
        cfg = SolverConfig(budget=cohort.budget, gamma=cohort.setup.gamma)
        tables = build_returns_table(cohort.tensors, cohort.tensors, cohort.setup)
        sol = forward_pass(tables, RegularizerConfig(alpha=0.1), cfg)
        analytic = float(np.sum(sol.z_star * tables.j_true))
        result = simulate_joint(cohort, DecomposedPolicy(z=sol.z_star), 4000, seed=3)
        assert abs(result.mean_return - analytic) <= 3 * result.std_error + 0.05

    def test_never_act_matches_passive_returns(self):
        rng = np.random.default_rng(2)
        cohort = _cohort(rng)
        passive = solve_policies(cohort.tensors, cohort.setup).returns(RewardSpec(ENGAGEMENT))
        passive = passive[:, 0].sum()
        result = simulate_joint(
            cohort, FixedPerArmPolicy(np.zeros(3, dtype=int)), 4000, seed=5
        )
        assert abs(result.mean_return - passive) <= 3 * result.std_error + 0.05
        assert result.mean_budget_used == 0.0

    def test_whittle_policy_respects_budget(self):
        rng = np.random.default_rng(3)
        cohort = _cohort(rng, n=4, budget=2.0)
        tables = [WhittleTable(wi=rng.uniform(0, 1, size=2)) for _ in range(4)]
        result = simulate_joint(cohort, WhittleTopB(tables=tables, budget=2), 100, seed=1)
        cap = 2.0 / (1 - cohort.setup.gamma)
        assert result.mean_budget_used <= cap + 1e-9
        # top-B acts on exactly B arms at every one of the H rollout steps
        discounted_steps = sum(0.9**t for t in range(simulation_horizon(cohort.setup, 4)))
        assert abs(result.mean_budget_used - 2 * discounted_steps) <= 1e-9
        all_act = FixedPerArmPolicy(np.full(4, 2**2 - 1))
        result = simulate_joint(cohort, all_act, 100, seed=1)
        assert abs(result.mean_budget_used - 4 * discounted_steps) <= 1e-9

    def test_unknown_policy_rejected(self):
        rng = np.random.default_rng(4)
        cohort = _cohort(rng)
        with pytest.raises(TypeError):
            simulate_joint(cohort, object(), 10, seed=0)

    def test_needs_trajectories(self):
        rng = np.random.default_rng(4)
        cohort = _cohort(rng)
        with pytest.raises(ValueError):
            simulate_joint(cohort, FixedPerArmPolicy(np.zeros(3, dtype=int)), 0, seed=0)

    def test_horizon_truncation_is_tight(self):
        setup = uniform_setup(2, 0.9)
        h = simulation_horizon(setup, num_arms=5)
        # discounted tail mass after h steps is below the tolerance
        tail = 0.9 ** h * 5 / (1 - 0.9)
        assert tail < setup.horizon_tol


class TestBudgetAudit:
    def test_corrected_layer_audits_within_cap(self):
        rng = np.random.default_rng(5)
        cohort = _cohort(rng, n=4)
        cfg = SolverConfig(budget=cohort.budget, gamma=cohort.setup.gamma)
        tables = build_returns_table(cohort.tensors, cohort.tensors, cohort.setup)
        sol = forward_pass(tables, RegularizerConfig(alpha=1e-3), cfg)
        assert budget_audit(cohort, sol) <= 1.0 + 1e-4

    def test_per_step_denominator(self):
        rng = np.random.default_rng(6)
        cohort = _cohort(rng, n=2)
        cfg = SolverConfig(budget=cohort.budget, gamma=cohort.setup.gamma)
        sol = uncorrected_policy(cohort.tensors, cfg, cohort.setup)
        discounted = budget_audit(cohort, sol, per_step=False)
        per_step = budget_audit(cohort, sol, per_step=True)
        assert per_step == pytest.approx(discounted / (1 - cohort.setup.gamma))


class TestBruteForce:
    def test_beats_never_act(self):
        rng = np.random.default_rng(7)
        cohort = _cohort(rng, n=2, budget=1.0)
        value, policy = brute_force_joint(cohort, budget=1)
        passive = solve_policies(cohort.tensors, cohort.setup).returns(RewardSpec(ENGAGEMENT))
        passive = passive[:, 0].sum()
        assert value >= passive - 1e-9
        assert all(sum(a) <= 1 for a in policy.values())

    def test_upper_bounds_decomposed_value(self):
        # the decomposed mixture relaxes in budget but its per-state actions
        # are a subset of joint behaviors when the budget binds per state
        rng = np.random.default_rng(8)
        cohort = _cohort(rng, n=2, budget=1.0)
        value, _ = brute_force_joint(cohort, budget=2)
        cfg = SolverConfig(budget=2.0, gamma=cohort.setup.gamma)
        tables = build_returns_table(cohort.tensors, cohort.tensors, cohort.setup)
        sol = forward_pass(tables, RegularizerConfig(alpha=1e-3), cfg)
        decomposed = float(np.sum(sol.z_star * tables.j_true))
        assert value >= decomposed - 1e-3

    def test_capacity_guard(self):
        rng = np.random.default_rng(9)
        cohort = _cohort(rng, n=7, states=4, budget=1.0)
        with pytest.raises(CapacityError):
            brute_force_joint(cohort, budget=1)


class TestCohortReturnsCache:
    def test_cached_tables_match_build_returns_table(self):
        rng = np.random.default_rng(11)
        cohort = _cohort(rng, n=5, states=3)
        tables = build_returns_table(cohort.tensors, cohort.tensors, cohort.setup)
        j_true, j_budget = cohort.true_returns
        assert np.array_equal(j_true, tables.j_true)
        assert np.array_equal(j_budget, tables.j_budget)

    def test_solved_once_on_first_use(self, monkeypatch):
        rng = np.random.default_rng(12)
        calls = []
        original = planning.returns_on_truth

        def counting(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(planning, "returns_on_truth", counting)
        cohort = _cohort(rng, n=3)
        assert not calls  # nothing is solved at construction
        first = cohort.true_returns
        assert cohort.true_returns is first
        assert len(calls) == 1
        assert not first[0].flags.writeable


class TestCohortValidation:
    def test_budget_bounds(self):
        rng = np.random.default_rng(10)
        tensors = rng.dirichlet(np.ones(2), size=(2, 2, 2))
        setup = uniform_setup(2, 0.9)
        with pytest.raises(ValueError):
            Cohort(features=np.zeros((2, 1)), tensors=tensors, budget=3.0, setup=setup)
