"""Unit tests for the per-arm MDP primitives."""

import numpy as np
import pytest

from rmab_dfl import (
    CapacityError,
    DiscountedSetup,
    NumericError,
    PerArmPolicy,
    RewardSpec,
    TransitionTensor,
    engagement_rewards,
    enumerate_policies,
    get_returns,
    returns_gradient,
    uniform_setup,
    whittle_index,
    whittle_indices,
)
from rmab_dfl import mdp
from rmab_dfl.mdp import (
    BUDGET,
    ENGAGEMENT,
    policy_action_matrix,
    solve_policies,
    value_iteration,
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


class TestPolicies:
    def test_single_state_has_two_policies(self):
        policies = enumerate_policies(1)
        assert len(policies) == 2
        assert [p.actions.tolist() for p in policies] == [[0], [1]]

    def test_enumeration_count(self):
        assert len(enumerate_policies(3)) == 8

    def test_action_matrix_matches_policies(self):
        mat = policy_action_matrix(3)
        for p in enumerate_policies(3):
            assert np.array_equal(mat[p.index], p.actions)

    def test_policy_index_bounds(self):
        with pytest.raises(ValueError):
            PerArmPolicy(4, 2)


class TestRewards:
    def test_engagement_scale(self):
        assert engagement_rewards(2).tolist() == [0.0, 1.0]
        assert engagement_rewards(3).tolist() == [0.0, 0.5, 1.0]
        assert engagement_rewards(1).tolist() == [0.0]

    def test_budget_reward_is_action_bit(self):
        r = RewardSpec(BUDGET).per_step(2, np.array([1, 0]))
        assert r.tolist() == [1.0, 0.0]

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            RewardSpec("bonus")


class TestGetReturns:
    def test_geometric_series(self):
        # self-loop at state 1 paying reward 1 per step at gamma = 0.5
        probs = np.zeros((2, 2, 2))
        probs[:, :, 1] = 1.0
        T = TransitionTensor(probs)
        setup = DiscountedSetup(0.5, np.array([0.0, 1.0]))
        value = get_returns(T, RewardSpec(ENGAGEMENT), PerArmPolicy(0, 2), setup)
        assert value == pytest.approx(2.0, abs=1e-12)

    def test_budget_usage_extremes(self):
        rng = np.random.default_rng(1)
        T = _random_tensor(rng)
        setup = uniform_setup(2, 0.9)
        budget = RewardSpec(BUDGET)
        assert get_returns(T, budget, PerArmPolicy(0, 2), setup) == pytest.approx(0.0)
        always = PerArmPolicy(3, 2)
        assert get_returns(T, budget, always, setup) == pytest.approx(1.0 / (1 - 0.9))

    def test_matches_value_iteration(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            T = _random_tensor(rng, 3)
            setup = DiscountedSetup(0.9, rng.dirichlet(np.ones(3)))
            pi = PerArmPolicy(int(rng.integers(8)), 3)
            direct = get_returns(T, RewardSpec(ENGAGEMENT), pi, setup)
            iterated = value_iteration(T, RewardSpec(ENGAGEMENT), pi, setup)
            assert direct == pytest.approx(iterated, abs=1e-8)


class TestReturnsGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        setup = uniform_setup(2, 0.9)
        reward = RewardSpec(ENGAGEMENT)
        h = 1e-6
        for _ in range(50):
            T = _random_tensor(rng)
            pi = PerArmPolicy(int(rng.integers(4)), 2)
            grad = returns_gradient(T, reward, pi, setup)
            # finite differences along simplex-preserving directions
            for s in range(2):
                a = pi.actions[s]
                d = np.zeros((2, 2, 2))
                d[s, a, 0], d[s, a, 1] = 1.0, -1.0
                if min(T.probs[s, a, 0], T.probs[s, a, 1]) < h:
                    continue
                up = TransitionTensor(T.probs + h * d)
                dn = TransitionTensor(T.probs - h * d)
                fd = (get_returns(up, reward, pi, setup) - get_returns(dn, reward, pi, setup)) / (2 * h)
                an = float(np.sum(grad * d))
                assert abs(an - fd) / max(abs(fd), 1e-6) < 1e-4

    def test_unused_actions_have_zero_gradient(self):
        rng = np.random.default_rng(4)
        T = _random_tensor(rng)
        setup = uniform_setup(2, 0.9)
        grad = returns_gradient(T, RewardSpec(ENGAGEMENT), PerArmPolicy(0, 2), setup)
        assert np.all(grad[:, 1, :] == 0.0)


class TestBatchedReturns:
    def test_matches_scalar_path(self):
        rng = np.random.default_rng(5)
        tensors = rng.dirichlet(np.ones(2), size=(4, 2, 2))
        setup = uniform_setup(2, 0.9)
        reward = RewardSpec(ENGAGEMENT)
        table = solve_policies(tensors, setup).returns(reward)
        for i in range(4):
            for j in range(4):
                expected = get_returns(
                    TransitionTensor(tensors[i]), reward, PerArmPolicy(j, 2), setup
                )
                assert table[i, j] == pytest.approx(expected, abs=1e-12)

    def test_batched_gradients_match_weighted_sum(self):
        rng = np.random.default_rng(6)
        tensors = rng.dirichlet(np.ones(2), size=(3, 2, 2))
        setup = uniform_setup(2, 0.9)
        reward = RewardSpec(ENGAGEMENT)
        weights = rng.normal(size=(3, 4))
        batched = solve_policies(tensors, setup, values=reward).gradient(weights)
        for i in range(3):
            manual = sum(
                weights[i, j]
                * returns_gradient(TransitionTensor(tensors[i]), reward, PerArmPolicy(j, 2), setup)
                for j in range(4)
            )
            assert np.allclose(batched[i], manual, atol=1e-12)

    @staticmethod
    def _max_errors(tensors, setup, kind, rng):
        """Largest deviation of the batched returns and weighted gradients
        from the scalar np.linalg.solve oracles, over every arm and policy."""
        reward = RewardSpec(kind)
        n, states = tensors.shape[0], tensors.shape[1]
        weights = rng.normal(size=(n, 2 ** states))
        table = solve_policies(tensors, setup).returns(reward)
        grads = solve_policies(tensors, setup, values=reward).gradient(weights)
        returns_err = grad_err = 0.0
        for i in range(n):
            arm = TransitionTensor(tensors[i])
            manual = np.zeros_like(tensors[i])
            for pi in enumerate_policies(states):
                expected = get_returns(arm, reward, pi, setup)
                returns_err = max(returns_err, abs(table[i, pi.index] - expected))
                manual += weights[i, pi.index] * returns_gradient(arm, reward, pi, setup)
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
        weights = rng.normal(size=(6, 8))
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

    @pytest.mark.parametrize("states", [2, 3, 4])
    def test_indifference_by_value_iteration(self, states):
        # at subsidy WI[i, s], acting and staying passive in s are worth the same
        rng = np.random.default_rng(40 + states)
        tensors = rng.dirichlet(np.ones(states), size=(50, states, 2))
        setup = DiscountedSetup(0.9, rng.dirichlet(np.ones(states)))
        wi = whittle_indices(tensors, setup)
        Q = self._subsidized_q(tensors, wi, setup.gamma)
        s = np.arange(states)
        gap = np.abs(Q[:, s, s, 1] - Q[:, s, s, 0])
        assert np.max(gap) <= 1e-6

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

    def test_tolerance_below_resolution_raises(self):
        tensors = np.random.default_rng(46).dirichlet(np.ones(2), size=(3, 2, 2))
        with pytest.raises(NumericError):
            whittle_indices(tensors, uniform_setup(2, 0.9), tol=0.0)

    def test_bracket_top_logged_once_with_count(self, caplog):
        # a tolerance wider than the bracket stops the bisection at once,
        # so every (arm, state) pair is still at the bracket top
        tensors = np.random.default_rng(47).dirichlet(np.ones(2), size=(3, 2, 2))
        with caplog.at_level("WARNING", logger="rmab_dfl.mdp"):
            whittle_indices(tensors, uniform_setup(2, 0.9), tol=100.0)
        assert [r.getMessage().split()[0] for r in caplog.records] == ["6"]


class TestSetupValidation:
    def test_gamma_bounds(self):
        from rmab_dfl import NumericError

        with pytest.raises(NumericError):
            DiscountedSetup(1.0, np.array([1.0]))

    def test_initial_dist_must_normalize(self):
        with pytest.raises(ValueError):
            DiscountedSetup(0.9, np.array([0.5, 0.6]))
