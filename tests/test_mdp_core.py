"""Unit tests for the per-arm MDP primitives."""

import itertools
import json
import os
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from oracles import get_returns, returns_gradient, value_iteration, whittle_by_masked_lines
from rmab_dfl import (
    CapacityError,
    DiscountedSetup,
    NumericError,
    RewardSpec,
    TransitionTensor,
    engagement_rewards,
    uniform_setup,
    whittle_index,
    whittle_indices,
)
from rmab_dfl import mdp
from rmab_dfl.datasets import DatasetManifest, generate_synthetic, load_dataset, save_dataset
from rmab_dfl.learning import evaluate_dq
from rmab_dfl.planning import Cohort
from rmab_dfl.mdp import (
    BUDGET,
    ENGAGEMENT,
    policy_action_matrix,
    solve_policies,
    whittle_gradients,
)


def _random_tensor(rng, states=2):
    return TransitionTensor(rng.dirichlet(np.ones(states), size=(states, 2)))


class TestTransitionTensor:
    def test_valid(self):
        t = _random_tensor(np.random.default_rng(0), 3)
        assert t.num_states == 3
        assert t.probs.shape == (3, 2, 3)

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            TransitionTensor(np.ones((2, 3, 2)) / 2)

    def test_rows_must_sum_to_one(self):
        bad = np.full((2, 2, 2), 0.4)
        with pytest.raises(ValueError):
            TransitionTensor(bad)

    def test_negative_probability(self):
        bad = np.array([[[1.5, -0.5], [1.0, 0.0]], [[1.0, 0.0], [1.0, 0.0]]])
        with pytest.raises(ValueError):
            TransitionTensor(bad)

    def test_too_many_states(self):
        s = 13
        t = np.zeros((s, 2, s))
        t[..., 0] = 1.0
        with pytest.raises(CapacityError):
            TransitionTensor(t)


ENTRIES = ("TransitionTensor", "Cohort", "evaluate_dq", "load_dataset")
BAD_TENSORS = ("nan-entry", "inf-entry", "entry-below-zero", "row-sum-off", "one-state",
               "thirteen-states")


def _bad_tensor(case: str) -> np.ndarray:
    """One arm's (S, 2, S) tensor that breaks the transition rule as `case` names."""
    if case == "one-state":
        return np.ones((1, 2, 1))
    if case == "thirteen-states":
        t = np.zeros((13, 2, 13))
        t[..., 0] = 1.0
        return t
    t = np.array([[[0.7, 0.3], [0.2, 0.8]], [[0.4, 0.6], [0.9, 0.1]]])
    t[0, 0] = {"nan-entry": [np.nan, 0.3], "inf-entry": [np.inf, 0.3],
               "entry-below-zero": [1.0 + 1e-13, -1e-13], "row-sum-off": [0.7 + 1e-8, 0.3]}[case]
    return t


def _load_with_tensor(tmp_path, tensor):
    """load_dataset on a dataset file whose first arm was hand-edited to `tensor`."""
    manifest = DatasetManifest(cohorts=3, arms_per_cohort=2, budget=1.0, feature_dim=2,
                               split_sizes=(1, 1, 1), feature_layers=1, feature_hidden=2)
    path = tmp_path / "dataset.json"
    save_dataset(generate_synthetic(manifest), path)
    payload = json.loads(path.read_text())
    payload["cohorts"][0]["tensors"][0] = tensor.tolist()
    path.write_text(json.dumps(payload))  # NaN and Infinity as Python's json writes them
    load_dataset(path)


def _enter(entry: str, tensor: np.ndarray, tmp_path) -> None:
    setup = uniform_setup(tensor.shape[-1], 0.9)
    if entry == "TransitionTensor":
        TransitionTensor(tensor)
    elif entry == "Cohort":
        Cohort(features=np.zeros((1, 1)), tensors=tensor[None], budget=1.0, setup=setup)
    elif entry == "evaluate_dq":
        cohort = Cohort(features=np.zeros((1, 1)), tensors=np.full((1, 2, 2, 2), 0.5),
                        budget=1.0, setup=setup)
        evaluate_dq(None, [cohort], trajectories=0, predictions=[tensor[None]])
    else:
        _load_with_tensor(tmp_path, tensor)


class TestTransitionCheck:
    """checked_transitions at the four places tensors enter: one rule for all."""

    @pytest.mark.parametrize("entry,case", [
        (entry, case)
        for entry in ENTRIES
        for case in BAD_TENSORS
        # a prediction has its cohort's shape and a dataset its manifest's,
        # and neither admits |S| outside [2, MAX_STATES]
        if entry in ("TransitionTensor", "Cohort") or case not in ("one-state", "thirteen-states")
    ])
    def test_bad_tensor_refused(self, tmp_path, entry, case):
        error = CapacityError if case == "thirteen-states" else ValueError
        with pytest.raises(error):
            _enter(entry, _bad_tensor(case), tmp_path)

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_valid_tensor_accepted(self, tmp_path, entry):
        tensor = np.array([[[0.7, 0.3], [0.2, 0.8]], [[0.4, 0.6], [0.9, 0.1]]])
        _enter(entry, tensor, tmp_path)


class TestPolicies:
    def test_single_state_refused(self):
        with pytest.raises(ValueError):
            policy_action_matrix(1)

    def test_enumeration_count(self):
        assert policy_action_matrix(3).shape == (8, 3)

    def test_action_matrix_matches_policies(self):
        # bit s of policy index j is its action in state s
        mat = policy_action_matrix(3)
        for j in range(8):
            assert mat[j].tolist() == [(j >> s) & 1 for s in range(3)]


class TestRewards:
    def test_engagement_scale(self):
        assert engagement_rewards(2).tolist() == [0.0, 1.0]
        assert engagement_rewards(3).tolist() == [0.0, 0.5, 1.0]

    def test_budget_reward_is_action_bit(self):
        r = RewardSpec(BUDGET).per_step(2, np.array([1, 0]))
        assert r.tolist() == [1.0, 0.0]

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            RewardSpec("bonus")


def _actions(j, states):
    return policy_action_matrix(states)[j]


class TestGetReturns:
    def test_geometric_series(self):
        # self-loop at state 1 paying reward 1 per step at gamma = 0.5
        probs = np.zeros((2, 2, 2))
        probs[:, :, 1] = 1.0
        setup = DiscountedSetup(0.5, np.array([0.0, 1.0]))
        value = get_returns(probs, _actions(0, 2), 0.5, setup.initial_dist)
        assert value == pytest.approx(2.0, abs=1e-12)
        engine = solve_policies(probs[None], setup).returns(RewardSpec(ENGAGEMENT))
        assert engine[0, 0] == pytest.approx(2.0, abs=1e-12)

    def test_budget_usage_extremes(self):
        rng = np.random.default_rng(1)
        T = _random_tensor(rng)
        setup = uniform_setup(2, 0.9)
        mu = setup.initial_dist
        assert get_returns(T.probs, _actions(0, 2), 0.9, mu, "budget") == pytest.approx(0.0)
        always = _actions(3, 2)
        assert get_returns(T.probs, always, 0.9, mu, "budget") == pytest.approx(1.0 / (1 - 0.9))
        engine = solve_policies(T.probs[None], setup).returns(RewardSpec(BUDGET))
        assert engine[[0, 3], 0] == pytest.approx([0.0, 1.0 / (1 - 0.9)])

    def test_matches_value_iteration(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            T = _random_tensor(rng, 3)
            setup = DiscountedSetup(0.9, rng.dirichlet(np.ones(3)))
            actions = _actions(int(rng.integers(8)), 3)
            direct = get_returns(T.probs, actions, 0.9, setup.initial_dist)
            iterated = value_iteration(T.probs, actions, 0.9, setup.initial_dist)
            assert direct == pytest.approx(iterated, abs=1e-8)


class TestReturnsGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        mu = uniform_setup(2, 0.9).initial_dist
        h = 1e-6
        for _ in range(50):
            T = _random_tensor(rng)
            actions = _actions(int(rng.integers(4)), 2)
            grad = returns_gradient(T.probs, actions, 0.9, mu)
            # finite differences along simplex-preserving directions
            for s in range(2):
                a = actions[s]
                d = np.zeros((2, 2, 2))
                d[s, a, 0], d[s, a, 1] = 1.0, -1.0
                if min(T.probs[s, a, 0], T.probs[s, a, 1]) < h:
                    continue
                up = get_returns(T.probs + h * d, actions, 0.9, mu)
                dn = get_returns(T.probs - h * d, actions, 0.9, mu)
                fd = (up - dn) / (2 * h)
                an = float(np.sum(grad * d))
                assert abs(an - fd) / max(abs(fd), 1e-6) < 1e-4

    def test_unused_actions_have_zero_gradient(self):
        rng = np.random.default_rng(4)
        T = _random_tensor(rng)
        mu = uniform_setup(2, 0.9).initial_dist
        grad = returns_gradient(T.probs, _actions(0, 2), 0.9, mu)
        assert np.all(grad[:, 1, :] == 0.0)


class TestBatchedReturns:
    def test_matches_scalar_path(self):
        rng = np.random.default_rng(5)
        tensors = rng.dirichlet(np.ones(2), size=(4, 2, 2))
        setup = uniform_setup(2, 0.9)
        table = solve_policies(tensors, setup).returns(RewardSpec(ENGAGEMENT))
        for i in range(4):
            for j in range(4):
                expected = get_returns(tensors[i], _actions(j, 2), 0.9, setup.initial_dist)
                assert table[j, i] == pytest.approx(expected, abs=1e-12)

    def test_batched_gradients_match_weighted_sum(self):
        rng = np.random.default_rng(6)
        tensors = rng.dirichlet(np.ones(2), size=(3, 2, 2))
        setup = uniform_setup(2, 0.9)
        weights = rng.normal(size=(4, 3))
        batched = solve_policies(tensors, setup, values=RewardSpec(ENGAGEMENT)).gradient(weights)
        for i in range(3):
            manual = sum(
                weights[j, i] * returns_gradient(tensors[i], _actions(j, 2), 0.9, setup.initial_dist)
                for j in range(4)
            )
            assert np.allclose(batched[i], manual, atol=1e-12)

    @pytest.mark.parametrize("states", [2, 3, 4, 6])
    def test_gradient_is_batch_last_view(self, states):
        # the closed form over all policies, zero where a policy takes the
        # other action, written batch-first: the same bits
        rng = np.random.default_rng(31)
        tensors = rng.dirichlet(np.ones(states), size=(50, states, 2))
        solve = solve_policies(tensors, uniform_setup(states, 0.9), values=RewardSpec(ENGAGEMENT))
        weights = rng.normal(size=(2**states, 50))
        grad = solve.gradient(weights)
        assert grad.shape == (50, states, 2, states)
        assert grad.transpose(1, 2, 3, 0).flags.c_contiguous
        weighted = solve.occupancy * (0.9 * weights)
        acted = weighted * solve.actions.T[:, :, None]
        expected = np.stack([np.einsum("sjn,tjn->nst", weighted - acted, solve.values),
                             np.einsum("sjn,tjn->nst", acted, solve.values)], axis=2)
        assert np.array_equal(grad, expected)

    def test_engine_reads_either_layout(self):
        rng = np.random.default_rng(32)
        tensors = rng.dirichlet(np.ones(3), size=(5, 3, 2))
        view = np.ascontiguousarray(tensors.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2)
        setup, reward = uniform_setup(3, 0.9), RewardSpec(ENGAGEMENT)
        weights = rng.normal(size=(8, 5))
        a, b = (solve_policies(t, setup, values=reward) for t in (tensors, view))
        assert np.array_equal(a.returns(reward), b.returns(reward))
        assert np.array_equal(a.gradient(weights), b.gradient(weights))

    @staticmethod
    def _max_errors(tensors, setup, kind, rng):
        """Largest deviation of the batched returns and weighted gradients
        from the scalar np.linalg.solve oracles, over every arm and policy."""
        reward = RewardSpec(kind)
        n, states = tensors.shape[0], tensors.shape[1]
        weights = rng.normal(size=(2 ** states, n))
        table = solve_policies(tensors, setup).returns(reward)
        grads = solve_policies(tensors, setup, values=reward).gradient(weights)
        oracle = (setup.gamma, setup.initial_dist, kind)
        returns_err = grad_err = 0.0
        for i in range(n):
            manual = np.zeros_like(tensors[i])
            for j, actions in enumerate(policy_action_matrix(states)):
                expected = get_returns(tensors[i], actions, *oracle)
                returns_err = max(returns_err, abs(table[j, i] - expected))
                manual += weights[j, i] * returns_gradient(tensors[i], actions, *oracle)
            grad_err = max(grad_err, float(np.max(np.abs(grads[i] - manual))))
        return returns_err, grad_err

    @pytest.mark.parametrize("kind", [ENGAGEMENT, BUDGET])
    @pytest.mark.parametrize("states", [2, 3, 4])
    def test_engine_matches_scalar_oracles(self, states, kind):
        rng = np.random.default_rng(10 * states + (kind == BUDGET))
        tensors = rng.dirichlet(np.ones(states), size=(5, states, 2))
        setup = DiscountedSetup(0.9, rng.dirichlet(np.ones(states)))
        returns_err, grad_err = self._max_errors(tensors, setup, kind, rng)
        assert returns_err <= 1e-12
        assert grad_err <= 1e-12

    @pytest.mark.parametrize("kind", [ENGAGEMENT, BUDGET])
    @pytest.mark.parametrize("states", [2, 3, 4])
    def test_engine_near_deterministic_long_horizon(self, states, kind):
        # sparse Dirichlet rows put almost all mass on one successor; at
        # gamma = 0.999 every pivot of the unpivoted LU is near 1 - gamma
        rng = np.random.default_rng(20 * states + (kind == BUDGET))
        gamma = 0.999
        tensors = rng.dirichlet(np.full(states, 0.02), size=(5, states, 2))
        setup = DiscountedSetup(gamma, rng.dirichlet(np.ones(states)))
        returns_err, grad_err = self._max_errors(tensors, setup, kind, rng)
        # returns scale as 1/(1-gamma), gradients as 1/(1-gamma)^2
        assert returns_err * (1 - gamma) <= 1e-12
        assert grad_err * (1 - gamma) ** 2 <= 1e-12

    def test_engine_solves_arms_in_chunks(self, monkeypatch):
        # a chunk budget below one arm's systems forces one chunk per arm;
        # the results must not depend on the chunking
        rng = np.random.default_rng(30)
        tensors = rng.dirichlet(np.ones(3), size=(6, 3, 2))
        setup = uniform_setup(3, 0.9)
        reward = RewardSpec(ENGAGEMENT)
        weights = rng.normal(size=(8, 6))
        whole = solve_policies(tensors, setup, values=reward)
        assert mdp._CHUNK_ENTRIES >= 6 * 3 * 3 * 8  # all six arms fit one chunk
        monkeypatch.setattr(mdp, "_CHUNK_ENTRIES", 1)
        blocked = solve_policies(tensors, setup, values=reward)
        assert np.array_equal(whole.returns(reward), blocked.returns(reward))
        assert np.array_equal(whole.gradient(weights), blocked.gradient(weights))


class TestWhittleIndex:
    def test_maximal_action_effect_arm(self):
        # acting in state 0 moves you permanently to the rewarding state:
        # the index there is gamma / (1 - gamma); acting in state 1 is useless
        t_opt = np.array([[[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [0.0, 1.0]]])
        setup = DiscountedSetup(0.9, np.array([1.0, 0.0]))
        table = whittle_index(TransitionTensor(t_opt), RewardSpec(ENGAGEMENT), setup)
        assert table.wi[0] == pytest.approx(0.9 / 0.1, abs=1e-6)
        assert table.wi[1] == pytest.approx(0.0, abs=1e-6)

    def test_action_independent_arm_has_zero_indices(self):
        probs = np.zeros((2, 2, 2))
        probs[:, :, 0] = 1.0
        setup = uniform_setup(2, 0.9)
        table = whittle_index(TransitionTensor(probs), RewardSpec(ENGAGEMENT), setup)
        assert np.allclose(table.wi, 0.0, atol=1e-6)

    @staticmethod
    def _subsidized_q(tensors, wi, gamma):
        """(N, S, S, 2) Q(x, a) of arm i paid wi[i, s] per passive step, for
        every (i, s), by value iteration on the subsidized Bellman equation."""
        n, num_states = wi.shape
        rewards = engagement_rewards(num_states)
        pay = wi[:, :, None, None] * np.array([1.0, 0.0])
        V = np.zeros((n, num_states, num_states))
        for _ in range(100_000):
            Q = rewards[:, None] + pay + gamma * np.einsum("ixay,isy->isxa", tensors, V)
            V_next = Q.max(axis=-1)
            if np.max(np.abs(V_next - V)) < 1e-12:
                return Q
            V = V_next
        raise AssertionError("value iteration did not converge")

    # Dirichlet(0.05) arms are near-deterministic and often not indexable;
    # the indices must still be indifference points there
    @pytest.mark.parametrize(
        "states, concentration, arms",
        [(2, 1.0, 50), (3, 1.0, 50), (4, 1.0, 50), (3, 0.05, 400), (4, 0.05, 400)],
        ids=["2", "3", "4", "3-sparse", "4-sparse"],
    )
    def test_indifference_by_value_iteration(self, states, concentration, arms):
        # at subsidy WI[i, s], acting and staying passive in s are worth the same
        rng = np.random.default_rng(40 + states)
        tensors = rng.dirichlet(np.full(states, concentration), size=(arms, states, 2))
        setup = DiscountedSetup(0.9, rng.dirichlet(np.ones(states)))
        wi = whittle_indices(tensors, setup)
        Q = self._subsidized_q(tensors, wi, setup.gamma)
        s = np.arange(states)
        gap = np.abs(Q[:, s, s, 1] - Q[:, s, s, 0])
        assert np.max(gap) <= 1e-6

    @pytest.mark.parametrize("concentration", [1.0, 0.05], ids=["dense", "sparse"])
    @pytest.mark.parametrize("states", range(2, 7))
    def test_halves_match_masked_rule(self, states, concentration):
        # the batch-last halves give the bits of the masked arms-first rule.
        # The last 10 arms act like they stay passive, so every policy ties
        # at the root and the lowest acting and passive ids must win
        rng = np.random.default_rng(60 + states)
        tensors = rng.dirichlet(np.full(states, concentration), size=(210, states, 2))
        tensors[200:, :, 1] = tensors[200:, :, 0]
        setup = DiscountedSetup(0.9, rng.dirichlet(np.ones(states)))
        occupancy = np.stack([
            solve_policies(tensors, DiscountedSetup(0.9, start)).occupancy
            for start in np.eye(states)
        ])
        wi, grad = whittle_by_masked_lines(occupancy, 0.9)
        assert np.array_equal(whittle_indices(tensors, setup), wi)
        fast_wi, fast_grad = whittle_gradients(tensors, setup)
        assert np.array_equal(fast_wi, wi)
        assert np.array_equal(fast_grad, grad)

    def test_scalar_view_matches_batched(self):
        rng = np.random.default_rng(44)
        tensors = rng.dirichlet(np.ones(3), size=(5, 3, 2))
        setup = uniform_setup(3, 0.9)
        batched = whittle_indices(tensors, setup)
        for T, row in zip(tensors, batched):
            table = whittle_index(TransitionTensor(T), RewardSpec(ENGAGEMENT), setup)
            assert np.array_equal(table.wi, whittle_indices(T[None], setup)[0])
            assert np.array_equal(table.wi, row)

    def test_budget_reward_rejected(self):
        T = _random_tensor(np.random.default_rng(45))
        with pytest.raises(ValueError):
            whittle_index(T, RewardSpec(BUDGET), uniform_setup(2, 0.9))

    def test_tolerance_below_resolution_raises(self, monkeypatch):
        monkeypatch.setattr(mdp, "_WHITTLE_TOL", 0.0)
        tensors = np.random.default_rng(46).dirichlet(np.ones(2), size=(3, 2, 2))
        with pytest.raises(NumericError):
            whittle_indices(tensors, uniform_setup(2, 0.9))

    def test_bracket_top_logged_once_with_count(self, caplog, monkeypatch):
        # a tolerance wider than the bracket stops the bisection at once,
        # so every (arm, state) pair is still at the bracket top
        monkeypatch.setattr(mdp, "_WHITTLE_TOL", 100.0)
        tensors = np.random.default_rng(47).dirichlet(np.ones(2), size=(3, 2, 2))
        with caplog.at_level("WARNING", logger="rmab_dfl.mdp"):
            whittle_indices(tensors, uniform_setup(2, 0.9))
        assert [r.getMessage().split()[0] for r in caplog.records] == ["6"]
        assert caplog.records[0].getMessage().endswith(
            "such as (0, 0), (0, 1), (1, 0), (1, 1), (2, 0)")


class TestSetupValidation:
    def test_gamma_bounds(self):
        from rmab_dfl import NumericError

        with pytest.raises(NumericError):
            DiscountedSetup(1.0, np.array([1.0]))

    def test_initial_dist_must_normalize(self):
        with pytest.raises(ValueError):
            DiscountedSetup(0.9, np.array([0.5, 0.6]))

    def test_initial_dist_must_match_the_states(self):
        # a length-1 start distribution would broadcast and double every return
        tensors = np.random.default_rng(12).dirichlet(np.ones(2), size=(5, 2, 2))
        setup = DiscountedSetup(0.9, np.array([1.0]))
        with pytest.raises(ValueError, match="initial_dist"):
            solve_policies(tensors, setup)
        # a cohort refuses it when built, before evaluate_dq can solve or roll it out
        with pytest.raises(ValueError, match="initial_dist"):
            Cohort(np.zeros((5, 3)), tensors, 2.0, setup)


class TestArmBlocks:
    """Per-arm work split into arm blocks across threads keeps every bit."""

    @staticmethod
    def _arms(states, seed):
        rng = np.random.default_rng(seed)
        tensors = rng.dirichlet(np.ones(states), size=(7, states, 2))
        return rng, tensors, DiscountedSetup(0.9, rng.dirichlet(np.ones(states)))

    def test_split_rule(self, monkeypatch):
        monkeypatch.setattr(mdp, "WORKERS", 2)
        assert mdp.arm_blocks(100, 4 * 100) == 1  # a paper-scale cohort's returns
        assert mdp.arm_blocks(120 * 100, 4 * 120 * 100) == 1  # a paper-scale eval stack
        assert mdp.arm_blocks(10**4, 16 * 10**4) == 2  # a scale-out cohort's returns
        assert mdp.arm_blocks(3, 10**9) == 1  # a block keeps 2 arms
        monkeypatch.setattr(mdp, "WORKERS", 3)
        assert mdp.arm_blocks(5, 10**9) == 2
        monkeypatch.setattr(mdp, "WORKERS", 1)
        assert mdp.arm_blocks(10**6, 10**9) == 1

    @pytest.mark.parametrize("states", [2, 3, 4])
    def test_engine_and_gradient_keep_bits(self, arm_threads, states):
        rng, tensors, setup = self._arms(states, 50 + states)
        weights = rng.normal(size=(2**states, 7))
        reward = RewardSpec(ENGAGEMENT)
        outputs = []
        for workers in (1, 3):
            ran = arm_threads(workers, states)
            solved = solve_policies(tensors, setup, values=reward)
            outputs.append((solved.occupancy, solved.values, solved.gradient(weights)))
            assert bool(ran) == (workers > 1)
        for one, three in zip(*outputs):
            assert np.array_equal(one, three)

    @pytest.mark.parametrize("states", [2, 3, 4])
    def test_whittle_gradients_keep_bits(self, arm_threads, states):
        _, tensors, setup = self._arms(states, 55 + states)
        outputs = []
        for workers in (1, 3):
            ran = arm_threads(workers, states)
            outputs.append(whittle_gradients(tensors, setup))
            assert bool(ran) == (workers > 1)
        for one, three in zip(*outputs):
            assert np.array_equal(one, three)

    def test_failed_block_raises_its_exception(self, arm_threads, monkeypatch):
        _, tensors, setup = self._arms(3, 60)
        whole = solve_policies(tensors, setup).occupancy
        arm_threads(3, 3)
        error, calls, real = NumericError("block failed"), itertools.count(1), mdp._factor_in_place

        def failing(M):
            if next(calls) == 2:
                raise error
            real(M)

        monkeypatch.setattr(mdp, "_factor_in_place", failing)
        with pytest.raises(NumericError) as raised:
            solve_policies(tensors, setup)
        assert raised.value is error
        monkeypatch.setattr(mdp, "_factor_in_place", real)
        assert np.array_equal(solve_policies(tensors, setup).occupancy, whole)

    def test_forked_child_solves_split(self, arm_threads):
        _, tensors, setup = self._arms(3, 61)
        ran = arm_threads(3, 3)
        before = solve_policies(tensors, setup).occupancy
        assert ran  # the parent's pool has threads, which the child lacks
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                # the parent's pool, copied without its threads, would queue
                # tasks that no thread runs, so the child must start its own
                fresh = mdp._pool is None
                code = int(not (fresh and np.array_equal(
                    solve_policies(tensors, setup).occupancy, before)))
            finally:
                os._exit(code)
        deadline = time.monotonic() + 60
        while (status := os.waitpid(pid, os.WNOHANG))[0] == 0:
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child's split solve did not end within 60 s")
            time.sleep(0.01)
        assert os.waitstatus_to_exitcode(status[1]) == 0


class TestRunTasks:
    """run_tasks: the package's one thread pool, and the cases run inline."""

    def test_results_in_task_order(self, pool_size):
        pool_size(3)

        def task(k):
            time.sleep(0.05 * (4 - k))  # later tasks finish first
            return k * k, threading.current_thread().name

        results = mdp.run_tasks(task, 5)
        assert [square for square, _ in results] == [0, 1, 4, 9, 16]
        assert all(name.startswith("rmab-dfl-arms") for _, name in results)

    def test_inline_cases_run_on_calling_thread(self, pool_size):
        def threads(count):
            return mdp.run_tasks(lambda k: threading.current_thread(), count)

        caller = threading.current_thread()
        pool_size(3)
        assert threads(1) == [caller]
        pool_size(1)
        assert threads(4) == [caller] * 4
        pool_size(2)

        def outer(k):
            return threading.current_thread(), threads(3)

        # both pool threads run an outer task, so a nested task queued on
        # the pool would wait forever: they must run on their outer task's thread
        waiter = ThreadPoolExecutor(1)
        done = waiter.submit(mdp.run_tasks, outer, 2)
        try:
            nested = done.result(timeout=30)  # a deadlock fails here
        finally:
            waiter.shutdown(wait=done.done())
        for thread, inner in nested:
            assert thread.name.startswith("rmab-dfl-arms") and inner == [thread] * 3

    def test_first_failure_in_task_order_is_raised(self, pool_size):
        pool_size(2)
        running, failed = threading.Event(), threading.Event()
        first, later = NumericError("task 0 failed"), NumericError("task 1 failed")

        def task(k):
            if k == 0:
                running.set()
                failed.wait(30)
                time.sleep(0.05)
                raise first
            running.wait(30)  # task 1 fails while task 0 still runs
            try:
                raise later
            finally:
                failed.set()

        with pytest.raises(NumericError) as raised:
            mdp.run_tasks(task, 2)
        assert raised.value is first

    def test_failure_starts_no_queued_task(self, pool_size):
        pool_size(2)
        second, started, error = threading.Event(), [], NumericError("task 0 failed")

        def task(k):
            started.append(k)
            if k == 0:
                second.wait(30)  # both pool threads are busy, the rest queued
                raise error
            second.set()
            time.sleep(0.2)

        with pytest.raises(NumericError) as raised:
            mdp.run_tasks(task, 6)
        assert raised.value is error
        mdp.run_tasks(lambda k: None, 2)  # queued behind the skipped tasks
        assert sorted(started) == [0, 1]

    def test_raise_during_submission_leaves_no_task_running(self, pool_size, monkeypatch):
        # as an interrupt inside the pool's Thread.start() would: the second
        # task is queued, but submit raises before returning its future
        pool_size(2)
        mdp.run_tasks(lambda k: None, 2)
        pool = mdp._pool
        real_submit, submitted = pool.submit, itertools.count()
        running, started, finished = threading.Event(), [], []

        def task(k):
            started.append(k)
            running.set()
            time.sleep(0.2)
            finished.append(k)

        def submit(fn, *args):
            future = real_submit(fn, *args)
            if next(submitted) == 1:
                running.wait(30)  # task 0 runs
                raise KeyboardInterrupt
            return future

        monkeypatch.setattr(pool, "submit", submit)
        with pytest.raises(KeyboardInterrupt):
            mdp.run_tasks(task, 4)
        assert 0 in started and sorted(finished) == sorted(started)
