"""The package names that only the benchmark in perfbench/ still calls.

perfbench/run.py and perfbench/tracing.py reach them by module attribute:
dec_layer's (N, P) shim (ReturnsTable, build_returns_table, forward_pass,
DualSolution), mdp's and planning's one-arm and joint-policy wrappers
(TransitionTensor, WhittleTable, whittle_index, WhittleTopB,
FixedPerArmPolicy, simulate_joint) and RegularizerConfig's `kind`. Each
is a view of the batch-last pipeline the other tests drive, and these
tests pin that it gives what the pipeline gives. No other test file
names them (tests/test_layout.py), so once the benchmark stops calling
them, they and this file go together.
"""

import numpy as np
import pytest

from test_mdp_core import BAD_TENSORS, bad_tensor
from rmab_dfl import dec_layer, mdp, planning
from rmab_dfl.dec_layer import (
    DualSolution,
    RegularizerConfig,
    ReturnsTable,
    SolverConfig,
    build_returns_table,
    forward_pass,
)
from rmab_dfl.mdp import (
    BUDGET,
    ENGAGEMENT,
    CapacityError,
    RewardSpec,
    TransitionTensor,
    WhittleTable,
    returns_on_truth,
    solve_policies,
    uniform_setup,
    whittle_index,
    whittle_indices,
)
from rmab_dfl.planning import (
    Cohort,
    FixedPerArmPolicy,
    SimulationResult,
    WhittleTopB,
    policy_bits_act,
    simulate_joint,
    whittle_act,
)


def _instance(rng, n, states):
    """Random predicted and true tensors, their setup and a solver config."""
    truth = rng.dirichlet(np.ones(states), size=(n, states, 2))
    pred = rng.dirichlet(np.ones(states), size=(n, states, 2))
    cfg = SolverConfig(budget=float(rng.uniform(0.05, 0.5)) * n, gamma=0.9)
    return pred, truth, uniform_setup(states, 0.9), cfg


def _cohort(rng, n, states, budget):
    tensors = rng.dirichlet(np.ones(states), size=(n, states, 2))
    return Cohort(np.zeros((n, 1)), tensors, budget, uniform_setup(states, 0.9))


def test_tables_and_mixture_are_views():
    rng = np.random.default_rng(59)
    truth = rng.dirichlet(np.ones(3), size=(6, 3, 2))
    cfg = SolverConfig(budget=float(rng.uniform(0.2, 0.8)) * 6 * (1 - 0.9), gamma=0.9)
    setup = uniform_setup(3, 0.9)
    pred = rng.dirichlet(np.ones(3), size=truth.shape[:-1])
    tables = build_returns_table(pred, truth, setup)
    reg = RegularizerConfig(alpha=0.1)
    stack = dec_layer.solve_stack(tables.j_pred.T[None], tables.j_budget.T[None], reg, [cfg])
    mixtures = (forward_pass(tables, reg, cfg).z_star, stack.z_star[0].T)
    for view in (tables.j_pred, tables.j_true, tables.j_budget) + mixtures:
        assert view.shape == (6, 8)
        assert view.T.flags.c_contiguous and not view.flags.owndata
    assert np.shares_memory(mixtures[1], stack.z_star)
    assert np.array_equal(mixtures[0], mixtures[1])


def test_returns_table_is_the_engines_tables_transposed():
    rng = np.random.default_rng(60)
    pred, truth, setup, _ = _instance(rng, n=7, states=3)
    tables = build_returns_table(pred, truth, setup)
    j_true, j_budget = returns_on_truth(truth, setup)
    assert np.array_equal(tables.j_pred, solve_policies(pred, setup).returns(RewardSpec()).T)
    assert np.array_equal(tables.j_true, j_true.T)
    assert np.array_equal(tables.j_budget, j_budget.T)


def test_returns_table_checks_its_tables():
    with pytest.raises(ValueError):
        ReturnsTable(j_pred=np.zeros((2, 4)), j_true=np.zeros((2, 4)), j_budget=np.zeros((2, 3)))
    with pytest.raises(ValueError):
        ReturnsTable(j_pred=np.zeros((2, 4)), j_true=np.zeros((2, 4)), j_budget=-np.ones((2, 4)))


@pytest.mark.parametrize("alpha", [1e-3, 0.1, 1.0, 10.0])
def test_forward_pass_is_a_one_cohort_stack(alpha):
    rng = np.random.default_rng(62)
    reg = RegularizerConfig(alpha=alpha)
    for _ in range(10):
        pred, truth, setup, cfg = _instance(rng, n=int(rng.integers(2, 60)), states=2)
        tables = build_returns_table(pred, truth, setup)
        sol = forward_pass(tables, reg, cfg)
        stack = dec_layer.solve_stack(tables.j_pred.T[None], tables.j_budget.T[None], reg, [cfg])
        assert isinstance(sol, DualSolution)
        assert sol.lambda_star == stack.lambda_star[0]
        assert sol.slack_xi == stack.slack_xi[0]
        assert np.array_equal(sol.z_star, stack.z_star[0].T)


def test_regularizer_requires_entropy():
    # the closed-form backward holds for entropy only, and no other
    # regularizer can be configured; the benchmark names the one it uses
    assert RegularizerConfig(kind="entropy", alpha=2.0) == RegularizerConfig(alpha=2.0)
    with pytest.raises(ValueError):
        RegularizerConfig(kind="l2", alpha=1.0)


@pytest.mark.parametrize("case", BAD_TENSORS)
def test_transition_tensor_refuses_bad_tensor(case):
    # TransitionTensor is checked_transitions on one arm, so it takes every
    # case the other places tensors enter refuse, and the |S| bounds too
    error = CapacityError if case == "thirteen-states" else ValueError
    with pytest.raises(error):
        TransitionTensor(bad_tensor(case))


def test_transition_tensor_accepts_valid_tensor():
    tensor = np.array([[[0.7, 0.3], [0.2, 0.8]], [[0.4, 0.6], [0.9, 0.1]]])
    checked = TransitionTensor(tensor)
    assert checked.num_states == 2
    assert np.array_equal(checked.probs, mdp.checked_transitions(tensor, batch_dims=0))


def test_whittle_index_is_one_row_of_whittle_indices():
    rng = np.random.default_rng(44)
    for states in (2, 3, 4):
        tensors = rng.dirichlet(np.ones(states), size=(5, states, 2))
        setup = uniform_setup(states, 0.9)
        batched = whittle_indices(tensors, setup)
        for T, row in zip(tensors, batched):
            table = whittle_index(TransitionTensor(T), RewardSpec(ENGAGEMENT), setup)
            assert isinstance(table, WhittleTable)
            assert np.array_equal(table.wi, whittle_indices(T[None], setup)[0])
            assert np.array_equal(table.wi, row)


def test_whittle_index_budget_reward_rejected():
    T = TransitionTensor(np.random.default_rng(45).dirichlet(np.ones(2), size=(2, 2)))
    with pytest.raises(ValueError):
        whittle_index(T, RewardSpec(BUDGET), uniform_setup(2, 0.9))


@pytest.mark.parametrize("states", [2, 3, 4])
def test_simulate_joint_is_a_one_act_rollout(states):
    rng = np.random.default_rng(30 + states)
    n = 6
    cohort = _cohort(rng, n, states, budget=2.0)
    shape = (n, states)
    wi = whittle_indices(cohort.tensors, cohort.setup)
    indices = rng.integers(2**states, size=n)
    pairs = [
        (WhittleTopB([WhittleTable(row) for row in wi], budget=2), whittle_act(wi, 2, shape)),
        (FixedPerArmPolicy(indices), policy_bits_act(indices, shape)),
    ]
    for policy, act in pairs:
        rolled = planning.rollout(cohort, 40, np.random.default_rng(9), act)
        assert simulate_joint(cohort, policy, 40, seed=9) == SimulationResult.of(*rolled)


@pytest.fixture
def no_step(monkeypatch):
    """Fail any rollout: a refused policy must raise before its first step."""

    def step(*args):
        raise AssertionError("a rollout started")

    monkeypatch.setattr(planning, "rollout", step)


def test_simulate_joint_checks_whittle_tables(no_step):
    # 4 two-state arms take 4 tables of 2 finite indices
    cohort = _cohort(np.random.default_rng(4), 4, 2, budget=2.0)
    ragged = [np.zeros(2)] * 3 + [np.zeros(3)]
    for bad in (np.zeros((6, 2)), np.zeros((4, 3)), np.zeros((3, 2)), np.zeros((4, 1)),
                ragged, [[0.0, np.nan]] * 4, [[np.inf, 0.0]] * 4):
        policy = WhittleTopB(tables=[WhittleTable(wi=np.asarray(w)) for w in bad], budget=2)
        with pytest.raises(ValueError):
            simulate_joint(cohort, policy, 10, seed=0)


def test_simulate_joint_checks_policy_indices(no_step):
    # 3 two-state arms take 3 per-arm policy indices in [0, 4)
    cohort = _cohort(np.random.default_rng(4), 3, 2, budget=1.0)
    for bad in ([4, 4, 4], [-1, -1, -1], [3], [0.0, 0.0, 0.0]):
        with pytest.raises(ValueError):
            simulate_joint(cohort, FixedPerArmPolicy(np.array(bad)), 10, seed=0)


def test_simulate_joint_unknown_policy_rejected(no_step):
    cohort = _cohort(np.random.default_rng(4), 3, 2, budget=1.0)
    with pytest.raises(TypeError):
        simulate_joint(cohort, object(), 10, seed=0)
