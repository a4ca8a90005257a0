"""Unit tests for predictive models, losses, training, and DQ metrics."""

import logging
import pickle
import re
import signal
import sys
import threading
import time
import tracemalloc
from concurrent.futures import Future, ThreadPoolExecutor

import numpy as np
import pytest

import oracles
from rmab_dfl import (
    Cohort,
    DatasetSplits,
    LossSpec,
    ModelSpec,
    PredictiveModel,
    TrainingConfig,
    evaluate_dq,
    mse_loss,
    nll_loss,
    sim_dfl_loss,
    train,
    uniform_setup,
)
from rmab_dfl import learning, mdp
from rmab_dfl.cli import MODEL_FLAGS
from rmab_dfl.datasets import transition_counts
from rmab_dfl.learning import (
    TEMPERATURE,
    Adam,
    _score_term,
    _sigmoid,
    _cohort_loss,
    _soft_top_b_probs,
    run_epoch,
)
from rmab_dfl.mdp import (
    ENGAGEMENT,
    NumericError,
    RewardSpec,
    TransitionTensor,
    WhittleTable,
    solve_policies,
    whittle_gradients,
    whittle_index,
    whittle_indices,
)
from rmab_dfl.dec_layer import RegularizerConfig, SolverConfig, dec_dfl_loss
from rmab_dfl.planning import (
    FixedPerArmPolicy, WhittleTopB, rollout, simulate_joint, simulation_horizon
)


def _cohort(rng, n=3, states=2, gamma=0.9, feature_dim=4, budget=None):
    tensors = rng.dirichlet(np.ones(states), size=(n, states, 2))
    features = rng.normal(size=(n, feature_dim))
    if budget is None:
        budget = 0.5 * n * (1 - gamma)
    return Cohort(
        features=features, tensors=tensors, budget=budget, setup=uniform_setup(states, gamma)
    )


class TestPredictiveModel:
    def test_predictions_are_stochastic_tensors(self):
        rng = np.random.default_rng(0)
        model = PredictiveModel(ModelSpec(layers=2, hidden_dim=8), 4, 2, seed=0)
        tensors, _ = model.forward(rng.normal(size=(5, 4)))
        assert tensors.shape == (5, 2, 2, 2)
        for t in tensors:
            assert np.allclose(TransitionTensor(t).probs.sum(axis=-1), 1.0, atol=1e-12)

    def test_negative_layers_rejected(self):
        # [hidden_dim] * -1 is empty: it would build a linear model
        with pytest.raises(ValueError, match="layers"):
            ModelSpec(layers=-1)

    def test_zero_width_rejected(self):
        # zero-width hidden layers, initialized by dividing by sqrt(0)
        with pytest.raises(ValueError, match="hidden_dim"):
            ModelSpec(layers=2, hidden_dim=0)

    def test_non_integer_shape_rejected(self):
        for kwargs in ({"layers": 1.5}, {"hidden_dim": 8.0}, {"layers": True}):
            with pytest.raises(ValueError):
                ModelSpec(**kwargs)

    def test_model_flags_stay_valid(self):
        assert [(s.layers, s.hidden_dim) for s in MODEL_FLAGS.values()] == [
            (0, 64), (2, 64), (4, 500)
        ]
        assert ModelSpec(layers=np.int64(2), hidden_dim=np.int64(8)).layers == 2

    def test_feature_dim_checked(self):
        model = PredictiveModel(ModelSpec(), 4, 2, seed=0)
        with pytest.raises(ValueError):
            model.forward(np.zeros((3, 5)))

    def test_theta_round_trip(self):
        model = PredictiveModel(ModelSpec(layers=2, hidden_dim=8), 4, 2, seed=0)
        theta = model.theta.copy()
        model.set_theta(theta * 2.0)
        assert np.allclose(model.theta, theta * 2.0)
        with pytest.raises(ValueError):
            model.set_theta(theta[:-1])

    def test_backprop_matches_finite_differences(self):
        # the linear model, and an MLP whose backward runs through the ReLUs
        for spec in (ModelSpec(), ModelSpec(layers=2, hidden_dim=8)):
            rng = np.random.default_rng(1)
            model = PredictiveModel(spec, 3, 2, seed=0)
            # move away from the tiny default init so ReLU/softmax are generic
            model.set_theta(rng.normal(scale=0.3, size=model.theta.shape))
            x = rng.normal(size=(4, 3))
            target = rng.dirichlet(np.ones(2), size=(4, 2, 2))

            def loss_of(theta):
                model.set_theta(theta)
                tensors, _ = model.forward(x)
                return 0.5 * float(np.sum((tensors - target) ** 2))

            theta0 = model.theta.copy()
            model.set_theta(theta0)
            tensors, cache = model.forward(x)
            analytic = model.backward(cache, tensors - target)
            h = 1e-6
            for idx in rng.choice(theta0.size, size=10, replace=False):
                e = np.zeros_like(theta0)
                e[idx] = h
                fd = (loss_of(theta0 + e) - loss_of(theta0 - e)) / (2 * h)
                assert abs(analytic[idx] - fd) <= 1e-5 * max(1.0, abs(fd))
            model.set_theta(theta0)

    def test_theta_layout_is_weights_then_biases(self):
        # model files store θ: every weight matrix, then every bias, each raveled in C order
        rng = np.random.default_rng(2)
        model = PredictiveModel(ModelSpec(layers=1, hidden_dim=5), 3, 2, seed=0)
        W1, W2 = rng.normal(size=(3, 5)), rng.normal(size=(5, 8))
        b1, b2 = rng.normal(size=5), rng.normal(size=8)
        model.set_theta(np.concatenate([W1.ravel(), W2.ravel(), b1, b2]))
        x = rng.normal(size=(4, 3))
        logits = (np.maximum(x @ W1 + b1, 0.0) @ W2 + b2).reshape(4, 2, 2, 2)
        expected = np.exp(logits) / np.exp(logits).sum(axis=-1, keepdims=True)
        assert np.allclose(model.forward(x)[0], expected, rtol=0, atol=1e-12)

    def test_unpickled_model_follows_its_theta(self):
        # a model sent back from a worker process is a pickle round trip
        model = PredictiveModel(ModelSpec(layers=2, hidden_dim=8), 4, 2, seed=0)
        x = np.random.default_rng(3).normal(size=(5, 4))
        restored = pickle.loads(pickle.dumps(model))
        assert np.array_equal(restored.theta, model.theta)
        before = restored.forward(x)[0]
        assert np.array_equal(before, model.forward(x)[0])
        restored.set_theta(np.random.default_rng(4).normal(size=restored.theta.shape))
        after = restored.forward(x)[0]
        assert not np.allclose(after, before)
        model.set_theta(restored.theta)
        assert np.array_equal(model.forward(x)[0], after)

    @staticmethod
    def _row_softmax(model, x):
        """The (N, S, 2, S) predictions by the batch-first formula: logits
        x W + b, each (s, a) row normalized by a softmax over its last axis."""
        weights, biases = model._layers(model.theta)
        h = x
        for W, b in zip(weights[:-1], biases[:-1]):
            h = np.maximum(h @ W + b, 0.0)
        s = model.num_states
        logits = (h @ weights[-1] + biases[-1]).reshape(-1, s, 2, s)
        exp = np.exp(logits - logits.max(axis=-1, keepdims=True))
        return exp / exp.sum(axis=-1, keepdims=True)

    @pytest.mark.parametrize("states", range(2, 13))
    def test_forward_equals_row_softmax(self, states):
        # the softmax folds follow numpy's own summation order at every |S|;
        # the (S*2*S', N) logits GEMM can round apart from x W in the last
        # bit where OpenBLAS's edge kernels differ (1.4e-15 seen at |S| = 3)
        rng = np.random.default_rng(30 + states)
        for spec in (ModelSpec(), ModelSpec(layers=1, hidden_dim=7)):
            model = PredictiveModel(spec, 16, states, seed=0)
            model.set_theta(rng.normal(scale=2.0, size=model.theta.shape))
            x = rng.normal(size=(300, 16))
            tensors, expected = model.forward(x)[0], self._row_softmax(model, x)
            if states in (2, 4):
                assert np.array_equal(tensors, expected)
            else:
                assert np.max(np.abs(tensors - expected)) <= 1e-14

    @pytest.mark.parametrize("states", range(2, 13))
    def test_next_state_sums_follow_numpy_order(self, states):
        probs = np.random.default_rng(states).random((states, 2, states, 500))
        expected = np.ascontiguousarray(probs.transpose(3, 0, 1, 2)).sum(axis=-1)  # batch-first
        assert np.array_equal(learning._sum_next_states(probs), expected.transpose(1, 2, 0))

    def test_predictions_are_batch_last_views(self):
        model = PredictiveModel(ModelSpec(layers=1, hidden_dim=5), 4, 3, seed=0)
        tensors = model.forward(np.random.default_rng(5).normal(size=(7, 4)))[0]
        assert tensors.shape == (7, 3, 2, 3)
        assert tensors.transpose(1, 2, 3, 0).flags.c_contiguous

    def test_backward_reads_either_layout(self):
        rng = np.random.default_rng(6)
        model = PredictiveModel(ModelSpec(layers=1, hidden_dim=5), 4, 3, seed=0)
        model.set_theta(rng.normal(scale=0.5, size=model.theta.shape))
        x = rng.normal(size=(9, 4))
        cache = model.forward(x)[1]
        c_order = rng.normal(size=(9, 3, 2, 3))
        batch_last = np.ascontiguousarray(c_order.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2)
        assert np.array_equal(model.backward(cache, c_order), model.backward(cache, batch_last))

    def test_backward_equals_batch_first_formula(self):
        # the linear model's dL/dθ written batch-first: the weight GEMM keeps
        # its bits; the bias sum now runs pairwise over the arms
        rng = np.random.default_rng(7)
        model = PredictiveModel(ModelSpec(), 16, 4, seed=0)
        model.set_theta(rng.normal(size=model.theta.shape))
        x = rng.normal(size=(1000, 16))
        tensors, cache = model.forward(x)
        upstream = rng.normal(size=tensors.shape)
        inner = np.sum(upstream * tensors, axis=-1, keepdims=True)
        g = (tensors * (upstream - inner)).reshape(1000, -1)
        grad_w, grad_b = model._layers(model.backward(cache, upstream))
        assert np.array_equal(grad_w[0], x.T @ g)
        assert np.allclose(grad_b[0], g.sum(axis=0), rtol=1e-14, atol=1e-14)

    def test_theta_given_draws_nothing(self, monkeypatch):
        theta = np.random.default_rng(8).normal(size=PredictiveModel(ModelSpec(), 4, 2).theta.size)

        def no_draws(*args, **kwargs):
            raise AssertionError("an initialization was drawn")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        model = PredictiveModel(ModelSpec(), 4, 2, theta=theta)
        assert np.array_equal(model.theta, theta) and model.theta is not theta
        with pytest.raises(ValueError):
            PredictiveModel(ModelSpec(), 4, 2, theta=theta[:-1])


class TestAdam:
    def test_in_place_step_equals_formula(self):
        # Adam's update written out of place, operation for operation
        rng = np.random.default_rng(5)
        lr, beta1, beta2, eps = 1e-2, Adam.beta1, Adam.beta2, Adam.eps
        theta = rng.normal(size=7)
        expected, m, v = theta.copy(), np.zeros(7), np.zeros(7)
        optimizer = Adam(lr)
        for t in range(1, 6):
            grad = rng.normal(size=7)
            m = beta1 * m + (1 - beta1) * grad
            v = beta2 * v + (1 - beta2) * grad * grad
            m_hat, v_hat = m / (1 - beta1**t), v / (1 - beta2**t)
            expected = expected - lr * m_hat / (np.sqrt(v_hat) + eps)
            assert optimizer.step(theta, grad) is None  # theta is updated in place
            assert np.array_equal(theta, expected)
            assert np.array_equal(optimizer.m, m) and np.array_equal(optimizer.v, v)


class TestAccuracyLosses:
    def test_mse_value_and_gradient(self):
        rng = np.random.default_rng(2)
        pred = rng.dirichlet(np.ones(2), size=(3, 2, 2))
        truth = rng.dirichlet(np.ones(2), size=(3, 2, 2))
        value, grad = mse_loss(pred, truth)
        assert value == pytest.approx(float(np.mean((pred - truth) ** 2)))
        h = 1e-7
        e = np.zeros_like(pred)
        e[1, 0, 1, 0] = h
        fd = (mse_loss(pred + e, truth)[0] - mse_loss(pred - e, truth)[0]) / (2 * h)
        assert grad[1, 0, 1, 0] == pytest.approx(fd, rel=1e-5)

    def test_nll_value_and_gradient(self):
        rng = np.random.default_rng(3)
        pred = rng.dirichlet(np.ones(2), size=(2, 2, 2))
        counts = transition_counts(np.array([[0, 1, 1, 0, 0], [1, 0, 0, 1, 1]]), 2)
        value, grad = nll_loss(pred, counts)
        expected = -float(np.sum(counts * np.log(pred)))
        assert value == pytest.approx(expected)
        h = 1e-7
        e = np.zeros_like(pred)
        e[0, 0, 1, 1] = h
        fd = (nll_loss(pred + e, counts)[0] - nll_loss(pred - e, counts)[0]) / (2 * h)
        assert grad[0, 0, 1, 1] == pytest.approx(fd, rel=1e-4)


class TestWhittleGradient:
    def test_matches_finite_differences(self, monkeypatch):
        monkeypatch.setattr(mdp, "_WHITTLE_TOL", 1e-10)
        rng = np.random.default_rng(4)
        reward = RewardSpec(ENGAGEMENT)
        h = 1e-6
        for states in (2, 3):
            setup = uniform_setup(states, 0.9)
            tensors = rng.dirichlet(np.ones(states), size=(5, states, 2))
            grads = whittle_gradients(tensors, setup)[1]
            for T, grad in zip(tensors, grads):
                for s in range(states):
                    d = np.zeros_like(T)
                    sa, aa = int(rng.integers(states)), int(rng.integers(2))
                    to, fro = rng.choice(states, size=2, replace=False)
                    d[sa, aa, to], d[sa, aa, fro] = 1.0, -1.0
                    if min(T[sa, aa, to], T[sa, aa, fro]) < 10 * h:
                        continue
                    up = whittle_index(TransitionTensor(T + h * d), reward, setup)
                    dn = whittle_index(TransitionTensor(T - h * d), reward, setup)
                    fd = (up.wi[s] - dn.wi[s]) / (2 * h)
                    an = float(np.sum(grad[s] * d))
                    assert abs(an - fd) <= 1e-3 * max(1.0, abs(fd))

    def test_indices_are_whittle_indices(self):
        rng = np.random.default_rng(8)
        tensors = rng.dirichlet(np.full(3, 0.05), size=(40, 3, 2))
        setup = uniform_setup(3, 0.9)
        assert np.array_equal(whittle_gradients(tensors, setup)[0], whittle_indices(tensors, setup))

    def test_peak_memory_below_two_occupancies(self):
        # the (S, S, P, N) occupancy from every start state is the one
        # array of its size: no stacked copy, transposed copy or weight table
        n, states = 100, 8
        tensors = np.random.default_rng(9).dirichlet(np.ones(states), size=(n, states, 2))
        setup = uniform_setup(states, 0.9)
        tracemalloc.start()
        try:
            whittle_gradients(tensors, setup)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * states * states * 2**states * n * 8


def _reference_sim_dfl_loss(pred, cohort, trajectories, seed):
    """`sim_dfl_loss` on the compacting soft top-B oracle, with fresh arrays
    every step, int actions and a fancy-index update of the score term."""
    n, num_states = pred.shape[0], pred.shape[1]
    wi, wi_grads = whittle_gradients(pred, cohort.setup)
    rng = np.random.default_rng(seed)
    traj_idx, arm_idx = np.arange(trajectories)[:, None], np.arange(n)
    score_wi = np.zeros((trajectories, n, num_states))

    def act(states):
        p = oracles.soft_top_b(wi[arm_idx, states], cohort.budget, TEMPERATURE)
        actions = (rng.random(size=p.shape) < p).astype(int)
        sig_prime = p * (1.0 - p)
        dtheta_dw = sig_prime / np.clip(sig_prime.sum(axis=1, keepdims=True), 1e-12, None)
        excess = actions - p
        term = (excess - dtheta_dw * excess.sum(axis=1, keepdims=True)) / TEMPERATURE
        score_wi[traj_idx, arm_idx, states] += term
        return actions

    returns, _ = rollout(cohort, trajectories, rng, np.ones_like if cohort.budget >= n else act)
    centered = returns - returns.mean()
    grad_wi = np.einsum("t,tis->is", centered, score_wi) / trajectories
    grad_pred = np.einsum("is,isjak->jaki", grad_wi, wi_grads)
    return float(returns.mean()), grad_pred.transpose(3, 0, 1, 2)


class TestSimDfl:
    def test_sigmoid_matches_two_branch_formula(self):
        x = np.array([0.0, -0.0, 700.0, -700.0, 1e-300, -1e-300, 3.5, -3.5, 40.0, -40.0, np.nan])
        x = np.concatenate([x, np.random.default_rng(17).normal(scale=20.0, size=1000)])
        expected = np.empty_like(x)
        pos = x >= 0
        expected[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        expected[~pos] = ex / (1.0 + ex)
        assert np.array_equal(_sigmoid(x), expected, equal_nan=True)

    def test_gradient_is_batch_last_view(self):
        rng = np.random.default_rng(7)
        cohort = _cohort(rng, n=4, states=3, budget=1.0)
        pred = rng.dirichlet(np.ones(3), size=(4, 3, 2))
        grad = sim_dfl_loss(pred, cohort, trajectories=10, seed=0)[1]
        assert grad.shape == pred.shape
        assert grad.transpose(1, 2, 3, 0).flags.c_contiguous

    def test_prediction_shape_checked(self):
        rng = np.random.default_rng(12)
        cohort = _cohort(rng, n=5, states=2, budget=1.0)
        for shape in ((1, 2, 2, 2), (5, 3, 2, 3), (7, 2, 2, 2)):
            pred = rng.dirichlet(np.ones(shape[-1]), size=shape[:-1])
            with pytest.raises(ValueError, match="shape mismatch"):
                sim_dfl_loss(pred, cohort, trajectories=5, seed=0)

    @pytest.mark.parametrize("states", [2, 3, 4])
    def test_one_subsidy_solve_per_start_state(self, states, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return solve_policies(*args, **kwargs)

        monkeypatch.setattr(mdp, "solve_policies", counted)
        rng = np.random.default_rng(13)
        cohort = _cohort(rng, n=4, states=states, budget=1.0)
        pred = rng.dirichlet(np.ones(states), size=(4, states, 2))
        sim_dfl_loss(pred, cohort, trajectories=5, seed=0)
        assert calls == [pred.shape] * states

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(5)
        cohort = _cohort(rng, budget=1.0)
        pred = rng.dirichlet(np.ones(2), size=(3, 2, 2))
        a = sim_dfl_loss(pred, cohort, trajectories=20, seed=11)
        b = sim_dfl_loss(pred, cohort, trajectories=20, seed=11)
        assert a[0] == b[0]
        assert np.array_equal(a[1], b[1])

    def test_saturated_budget_has_zero_gradient(self):
        # with budget >= N every arm is always pulled: the selection never
        # depends on the indices, so the estimator must return exactly zero
        rng = np.random.default_rng(6)
        cohort = _cohort(rng, n=2, budget=2.0)
        pred = rng.dirichlet(np.ones(2), size=(2, 2, 2))
        value, grad = sim_dfl_loss(pred, cohort, trajectories=10, seed=0)
        assert np.all(grad == 0.0)
        # and the rollout is the all-acting policy's, draw for draw
        all_act = FixedPerArmPolicy(np.full(2, 2**2 - 1))
        assert value == simulate_joint(cohort, all_act, 10, seed=0).mean_return

    def test_soft_top_b_matches_bisection(self):
        def reference(scores, budget):
            # 60 halvings of a bracket that holds theta for every row
            lo = scores.min(axis=1) - 40.0 * TEMPERATURE
            hi = scores.max(axis=1) + 40.0 * TEMPERATURE
            for _ in range(60):
                theta = 0.5 * (lo + hi)
                too_big = _sigmoid((scores - theta[:, None]) / TEMPERATURE).sum(axis=1) > budget
                lo = np.where(too_big, theta, lo)
                hi = np.where(too_big, hi, theta)
            theta = 0.5 * (lo + hi)
            return _sigmoid((scores - theta[:, None]) / TEMPERATURE)

        rng = np.random.default_rng(19)
        n = 40
        scores = np.concatenate([
            rng.normal(scale=0.2, size=(20, n)),
            rng.uniform(0.0, 1e3 * TEMPERATURE, size=(10, n)),  # spread over 10^3 tau
            np.full((3, n), 0.7),  # all equal
            rng.choice([-1.0, 0.0, 2.0], size=(5, n)),  # three tied levels
        ])
        for budget in (3, 2.5, 0.5, n - 1):
            p = _soft_top_b_probs(scores, budget)
            assert np.max(np.abs(p - reference(scores, budget))) <= 1e-10
            assert np.all(np.abs(p.sum(axis=1) - budget) <= 1e-12 * budget)

    def test_soft_top_b_matches_compacting_oracle(self):
        rng = np.random.default_rng(19)
        n = 40
        spread = rng.uniform(0.0, 1e6 * TEMPERATURE, size=(6, n))
        # at 1e17 one ulp is 16 = 160 tau: no theta reaches sum p = B
        stuck = 1e17 + 16.0 * rng.integers(0, 3, size=(4, n))
        scores = np.concatenate([
            rng.normal(scale=0.2, size=(20, n)),
            rng.uniform(0.0, 1e3 * TEMPERATURE, size=(10, n)),
            np.full((3, n), 0.7),
            rng.choice([-1.0, 0.0, 2.0], size=(5, n)),
            spread,
            stuck,
        ])
        out, work = np.full(scores.shape, np.nan), np.full(scores.shape, np.nan)
        for budget in (3, 2.5, 0.5, n - 1):
            expected = oracles.soft_top_b(scores, budget, TEMPERATURE)
            assert np.array_equal(_soft_top_b_probs(scores, budget), expected)
            # dirty buffers (NaN, then the last budget's marginals) change nothing
            assert _soft_top_b_probs(scores, budget, out=out, work=work) is out
            assert np.array_equal(out, expected)
            # spread over 10^6 tau, every p is 0 or 1 but a fractional budget's middle one
            assert np.all(np.isin(expected[-10:-4], (0.0, 0.5, 1.0)))
            # the stuck rows ran all 60 sweeps and missed the tolerance
            assert np.all(np.abs(expected[-4:].sum(axis=1) - budget) > 1e-12 * budget)

    @pytest.mark.parametrize("states", [2, 3, 4])
    def test_loss_matches_reference(self, states):
        rng = np.random.default_rng(40 + states)
        for n, budget in ((8, 2.0), (8, 2.5), (3, 0.15), (5, 5.0), (4, 4.0)):
            cohort = _cohort(rng, n=n, states=states, budget=budget)
            pred = rng.dirichlet(np.ones(states), size=(n, states, 2))
            value, grad = sim_dfl_loss(pred, cohort, trajectories=13, seed=3)
            ref_value, ref_grad = _reference_sim_dfl_loss(pred, cohort, 13, 3)
            assert value == ref_value
            assert np.array_equal(grad, ref_grad)

    def test_needs_trajectories(self):
        rng = np.random.default_rng(14)
        cohort = _cohort(rng, budget=1.0)
        pred = rng.dirichlet(np.ones(2), size=(3, 2, 2))
        for trajectories in (0, -1):
            with pytest.raises(ValueError, match="trajector"):
                sim_dfl_loss(pred, cohort, trajectories, seed=0)

    def test_score_term_matches_finite_differences(self):
        # d log P(a | w) / dw, with theta re-solved at every perturbed w
        scores = np.random.default_rng(8).normal(scale=0.2, size=(1, 12))
        p = _soft_top_b_probs(scores, 3)
        # four actions on a budget of three, so the threshold term is not zero
        actions = np.zeros((1, 12), dtype=int)
        actions[0, [0, 3, 5, 8]] = 1

        def log_prob(w):
            q = _soft_top_b_probs(w, 3)
            return float(np.sum(actions * np.log(q) + (1 - actions) * np.log1p(-q)))

        analytic = _score_term(actions, p)[0]
        h = 1e-6
        for i in range(12):
            e = np.zeros_like(scores)
            e[0, i] = h
            fd = (log_prob(scores + e) - log_prob(scores - e)) / (2 * h)
            assert abs(fd - analytic[i]) <= 1e-6


class TestTraining:
    def _splits(self, rng):
        """One train and one val cohort, each with the counts of 10-step trajectories."""
        cohorts = [_cohort(rng), _cohort(rng)]
        counts = []
        for c in cohorts:
            seqs = []
            for i in range(c.num_arms):
                seq = [int(rng.integers(2))]
                for _ in range(10):
                    a = int(rng.integers(2))
                    nxt = int(rng.choice(2, p=c.tensors[i, seq[-1], a]))
                    seq += [a, nxt]
                seqs.append(seq)
            counts.append(transition_counts(np.array(seqs), 2))
        return DatasetSplits(cohorts[:1], cohorts[1:], counts[:1], counts[1:])

    def test_empty_validation_split_rejected(self):
        data = self._splits(np.random.default_rng(7))
        config = TrainingConfig(loss=LossSpec(name="mse"), epochs=1)
        with pytest.raises(ValueError, match="validation"):
            train(config, DatasetSplits(data.train, [], data.train_trajectories, []))

    def test_mse_training_reduces_loss(self):
        rng = np.random.default_rng(7)
        data = self._splits(rng)
        config = TrainingConfig(loss=LossSpec(name="mse"), learning_rate=1e-2, epochs=20, seed=0)
        model, log, _ = train(config, data)
        train_values = [r["value"] for r in log if r["split"] == "train"]
        assert train_values[-1] < train_values[0]

    def test_nll_training_reduces_loss(self):
        rng = np.random.default_rng(7)
        data = self._splits(rng)
        config = TrainingConfig(loss=LossSpec(name="nll"), learning_rate=1e-2, epochs=20, seed=0)
        model, log, _ = train(config, data)
        train_values = [r["value"] for r in log if r["split"] == "train"]
        assert train_values[-1] < train_values[0]
        # the logged value is the negative log likelihood of the cohort's counts
        pred, _ = model.forward(data.val[0].features)
        val_value = run_epoch(model, None, data.val, data.val_trajectories, config.loss, 0)
        assert val_value == nll_loss(pred, data.val_trajectories[0])[0]

    def test_decision_loss_training_increases_return(self):
        rng = np.random.default_rng(8)
        data = self._splits(rng)
        config = TrainingConfig(
            loss=LossSpec(name="fast-dec-dfl", alpha=1.0),
            learning_rate=1e-2,
            epochs=15,
            seed=0,
        )
        model, log, _ = train(config, data)
        train_values = [r["value"] for r in log if r["split"] == "train"]
        assert train_values[-1] >= train_values[0] - 1e-9

    def test_best_validation_parameters_restored(self):
        rng = np.random.default_rng(9)
        data = self._splits(rng)
        for loss, best_of in (("mse", min), ("fast-dec-dfl", max)):
            config = TrainingConfig(
                loss=LossSpec(name=loss), learning_rate=1e-2, epochs=10, seed=3
            )
            model, log, value = train(config, data)
            assert all(r["lr"] == 1e-2 and r["seed"] == 3 for r in log)
            assert value == best_of(r["value"] for r in log if r["split"] == "val")
            assert value == run_epoch(model, None, data.val, None, config.loss, 3)

    def test_val_records_time_their_pass(self, monkeypatch):
        # each val record carries the seconds of its own validation pass
        epoch = learning.run_epoch

        def slow_validation(model, optimizer, *args):
            if optimizer is None:
                time.sleep(0.05)
            return epoch(model, optimizer, *args)

        monkeypatch.setattr(learning, "run_epoch", slow_validation)
        data = self._splits(np.random.default_rng(10))
        config = TrainingConfig(loss=LossSpec(name="mse"), learning_rate=1e-2, epochs=3, seed=0)
        _, log, _ = train(config, data)
        seconds = {split: [r["seconds"] for r in log if r["split"] == split]
                   for split in ("train", "val")}
        assert len(seconds["val"]) == 3
        assert all(s >= 0.05 for s in seconds["val"])
        assert all(0 < s < 0.05 for s in seconds["train"])

    def test_nll_requires_trajectories(self):
        rng = np.random.default_rng(11)
        cohorts = [_cohort(rng)]
        spec = LossSpec(name="nll")
        model = PredictiveModel(ModelSpec(), 4, 2, seed=0)
        with pytest.raises(ValueError):
            run_epoch(model, Adam(1e-3), cohorts, None, spec, 0)

    def test_unknown_loss_rejected(self):
        with pytest.raises(ValueError):
            LossSpec(name="huber")
        with pytest.raises(ValueError):
            LossSpec(name="dec-dfl")


class TestDecisionQuality:
    def test_anchors(self):
        rng = np.random.default_rng(12)
        cohort = _cohort(rng, n=4)
        report = evaluate_dq(None, [cohort], trajectories=0, predictions=[cohort.tensors])
        assert report.normalized_decomposed_dq == pytest.approx(1.0, abs=1e-12)
        assert report.never_act_dq <= report.perfect_decomposed_dq

    def test_trajectories_zero_skips_joint(self):
        rng = np.random.default_rng(13)
        cohort = _cohort(rng, n=2)
        report = evaluate_dq(None, [cohort], trajectories=0, predictions=[cohort.tensors])
        assert report.joint_dq is None and report.normalized_joint_dq is None
        assert report.joint_dq_se is None and report.perfect_joint_dq_se is None
        with pytest.raises(ValueError):
            evaluate_dq(None, [cohort], trajectories=-5, predictions=[cohort.tensors])

    def test_joint_standard_errors_combine_cohorts(self):
        rng = np.random.default_rng(16)
        cohorts = [_cohort(rng, n=4, budget=1.0), _cohort(rng, n=5, budget=2.0)]
        preds = [rng.dirichlet(np.ones(2), size=(c.num_arms, 2, 2)) for c in cohorts]
        report = evaluate_dq(None, cohorts, trajectories=30, seed=7, predictions=preds)

        def rollout(tensors, cohort, seed):
            tables = [WhittleTable(wi) for wi in whittle_indices(tensors, cohort.setup)]
            policy = WhittleTopB(tables=tables, budget=int(round(cohort.budget)))
            return simulate_joint(cohort, policy, 30, seed)

        # the shared pass reproduces each one-policy rollout to the bit
        for tensors_of, mean, se in (
            (lambda k: preds[k], report.joint_dq, report.joint_dq_se),
            (lambda k: cohorts[k].tensors, report.perfect_joint_dq, report.perfect_joint_dq_se),
        ):
            results = [rollout(tensors_of(k), c, 7 + k) for k, c in enumerate(cohorts)]
            assert mean == sum(r.mean_return for r in results) / 2
            expected = sum(r.std_error**2 for r in results) ** 0.5 / 2
            assert expected > 0
            assert se == expected

    def test_joint_pass_logs_one_record_per_cohort(self, caplog):
        rng = np.random.default_rng(20)
        cohorts = [_cohort(rng, n=4, budget=1.0), _cohort(rng, n=5, budget=2.0)]
        preds = [rng.dirichlet(np.ones(2), size=(c.num_arms, 2, 2)) for c in cohorts]
        with caplog.at_level(logging.DEBUG, logger="rmab_dfl.learning"):
            report = evaluate_dq(None, cohorts, trajectories=20, seed=3, predictions=preds)
        messages = [r.getMessage() for r in caplog.records
                    if r.name == "rmab_dfl.learning" and r.getMessage().startswith("joint pass")]
        assert len(messages) == 2
        for k, (cohort, message) in enumerate(zip(cohorts, messages)):
            steps = simulation_horizon(cohort.setup, cohort.num_arms)
            assert message.startswith(
                f"joint pass of cohort {k} (predicted and perfect Whittle top-B): "
                f"20 trajectories x {steps} steps in "
            )
            # top-B acts on exactly B arms a step, in both policies
            used = cohort.budget * sum(cohort.setup.gamma**t for t in range(steps))
            cap = cohort.budget / (1 - cohort.setup.gamma)
            assert message.endswith(
                f" s, mean discounted budget used {used:.6g} and {used:.6g} "
                f"of B/(1-gamma) = {cap:.6g}"
            )
        assert report.joint_dq is not None

    def test_worker_count_changes_no_output(self, monkeypatch):
        rng = np.random.default_rng(22)
        cohorts = [_cohort(rng, n=4, budget=1.0), _cohort(rng, n=6, states=3, budget=2.0),
                   _cohort(rng, n=5, budget=1.5), _cohort(rng, n=3, states=3, budget=1.0)]
        preds = [rng.dirichlet(np.ones(c.num_states), size=c.tensors.shape[:3]) for c in cohorts]
        real_pass = learning._joint_pass
        # with several workers, the first two passes must run at the same time
        met = threading.Barrier(2, timeout=30)

        def meeting_pass(pred, cohort, trajectories, seed):
            if seed in (5, 6):  # cohorts 0 and 1
                met.wait()
            return real_pass(pred, cohort, trajectories, seed)

        reports = []
        for workers, pass_ in ((1, real_pass), (3, meeting_pass)):
            monkeypatch.setattr(learning, "_pass_workers", lambda cohorts, w=workers: w)
            monkeypatch.setattr(learning, "_joint_pass", pass_)
            reports.append(evaluate_dq(None, cohorts, trajectories=25, seed=5, predictions=preds))
        assert reports[0] == reports[1]
        for tensors_of, mean, se in (
            (lambda k: preds[k], reports[0].joint_dq, reports[0].joint_dq_se),
            (lambda k: cohorts[k].tensors, reports[0].perfect_joint_dq,
             reports[0].perfect_joint_dq_se),
        ):
            results = []
            for k, cohort in enumerate(cohorts):
                tables = [WhittleTable(wi) for wi in whittle_indices(tensors_of(k), cohort.setup)]
                policy = WhittleTopB(tables=tables, budget=int(round(cohort.budget)))
                results.append(simulate_joint(cohort, policy, 25, 5 + k))
            assert mean == sum(r.mean_return for r in results) / 4
            assert se == sum(r.std_error**2 for r in results) ** 0.5 / 4

    def test_failed_pass_starts_no_queued_pass(self, monkeypatch):
        rng = np.random.default_rng(23)
        cohorts = [_cohort(rng, n=4, budget=1.0) for _ in range(8)]
        workers, started, error = 2, [], NumericError("pass 0 failed")
        real_pass = learning._joint_pass

        def failing_pass(pred, cohort, trajectories, seed):
            started.append(seed)
            if seed == 0:
                raise error
            time.sleep(0.2)
            return real_pass(pred, cohort, trajectories, seed)

        monkeypatch.setattr(learning, "_pass_workers", lambda cohorts: workers)
        monkeypatch.setattr(learning, "_joint_pass", failing_pass)
        threads = threading.active_count()
        with pytest.raises(NumericError) as raised:
            evaluate_dq(None, cohorts, trajectories=5, seed=0,
                        predictions=[c.tensors for c in cohorts])
        assert raised.value is error
        assert 0 in started and len(started) <= workers
        assert threading.active_count() == threads

    def test_interrupt_starts_no_queued_pass(self, monkeypatch):
        # Ctrl-C reaches the calling thread while it waits for a pass's result
        rng = np.random.default_rng(24)
        cohorts = [_cohort(rng, n=4, budget=1.0) for _ in range(8)]
        workers, started = 2, []
        real_pass = learning._joint_pass
        caller = threading.main_thread()

        def caller_waits():
            frame = sys._current_frames()[caller.ident]
            while frame is not None and frame.f_code is not Future.result.__code__:
                frame = frame.f_back
            return frame is not None

        def interrupted_pass(pred, cohort, trajectories, seed):
            started.append(seed)
            if seed == 0:
                deadline = time.monotonic() + 30
                while not caller_waits() and time.monotonic() < deadline:
                    time.sleep(0.001)
                signal.pthread_kill(caller.ident, signal.SIGINT)
            time.sleep(0.5)
            return real_pass(pred, cohort, trajectories, seed)

        monkeypatch.setattr(learning, "_pass_workers", lambda cohorts: workers)
        monkeypatch.setattr(learning, "_joint_pass", interrupted_pass)
        threads = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            evaluate_dq(None, cohorts, trajectories=5, seed=0,
                        predictions=[c.tensors for c in cohorts])
        assert 0 in started and len(started) <= workers
        assert threading.active_count() == threads

    def test_arm_blocks_inside_joint_passes(self, arm_threads, monkeypatch):
        # every engine solve splits into arm blocks, also those of the
        # joint passes' whittle_indices, which run on the passes' threads
        rng = np.random.default_rng(25)
        cohorts = [_cohort(rng, n=7, budget=1.0) for _ in range(4)]
        preds = [rng.dirichlet(np.ones(2), size=(7, 2, 2)) for _ in cohorts]
        reports = []
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # threads interleave at many more points
        try:
            for passes in (1, 3):
                for arms in (1, 3):
                    ran = arm_threads(arms, 2)
                    monkeypatch.setattr(learning, "_pass_workers", lambda cohorts, w=passes: w)
                    waiter = ThreadPoolExecutor(1)
                    done = waiter.submit(evaluate_dq, None, cohorts, trajectories=20, seed=3,
                                         predictions=preds)
                    try:
                        reports.append(done.result(timeout=60))  # a deadlock fails here
                    finally:
                        waiter.shutdown(wait=done.done())
                    assert bool(ran) == (arms > 1)
        finally:
            sys.setswitchinterval(switch)
        assert all(report == reports[0] for report in reports)

    def test_prediction_layout_leaves_report_unchanged(self):
        # a model gives batch-last views; explicit predictions may be C order
        rng = np.random.default_rng(21)
        cohorts = [_cohort(rng, n=6, states=3, budget=1.0), _cohort(rng, n=6, states=3, budget=2.0)]
        preds = [rng.dirichlet(np.ones(3), size=(6, 3, 2)) for _ in cohorts]
        views = [np.ascontiguousarray(p.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2) for p in preds]
        for trajectories in (0, 20):
            reports = [evaluate_dq(None, cohorts, trajectories=trajectories, seed=4, predictions=p)
                       for p in (preds, views)]
            assert reports[0] == reports[1]

    def test_predictions_must_match_cohorts(self):
        rng = np.random.default_rng(17)
        cohorts = [_cohort(rng, n=4), _cohort(rng, n=4)]
        preds = [c.tensors for c in cohorts]
        with pytest.raises(ValueError, match="1 predictions for 2 cohorts"):
            evaluate_dq(None, cohorts, trajectories=0, predictions=preds[:1])
        with pytest.raises(ValueError, match="2 predictions for 1 cohorts"):
            evaluate_dq(None, cohorts[:1], trajectories=0, predictions=preds)
        for wrong in (preds[1][:3], preds[1][..., :1], preds[1][:, :, 0]):
            with pytest.raises(ValueError, match="prediction 1 has shape"):
                evaluate_dq(None, cohorts, trajectories=0, predictions=[preds[0], wrong])

    def test_groups_match_per_cohort_reports(self):
        # N=4 and N=5 form two stacks; the third cohort joins the first
        rng = np.random.default_rng(18)
        cohorts = [_cohort(rng, n=4, budget=1.0), _cohort(rng, n=5, budget=2.0),
                   _cohort(rng, n=4, budget=1.5)]
        preds = [rng.dirichlet(np.ones(2), size=(c.num_arms, 2, 2)) for c in cohorts]
        report = evaluate_dq(None, cohorts, trajectories=0, predictions=preds)
        alone = [evaluate_dq(None, [c], trajectories=0, predictions=[p])
                 for c, p in zip(cohorts, preds)]
        for name in ("decomposed_dq", "never_act_dq", "perfect_decomposed_dq"):
            total = 0.0
            for r in alone:
                total += getattr(r, name)
            assert getattr(report, name) == total / 3

    def test_stacked_solve_logs_diagnostics(self, caplog):
        rng = np.random.default_rng(19)
        cohorts = [_cohort(rng, n=4, budget=1.0), _cohort(rng, n=5, budget=2.0),
                   _cohort(rng, n=4, budget=1.5)]
        with caplog.at_level(logging.DEBUG, logger="rmab_dfl.learning"):
            evaluate_dq(None, cohorts, trajectories=0, predictions=[c.tensors for c in cohorts])
        messages = [r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG]
        assert len(messages) == 2  # one per stacked solve
        assert messages[0].startswith("decomposed eval solve of 2 cohorts (4 problems): ")
        assert messages[1].startswith("decomposed eval solve of 1 cohorts (2 problems): ")
        for message in messages:
            for part in ("rounds, evaluations sum", "max", "lambda* in [", "least slack"):
                assert part in message
            assert re.search(r", solved in \d+\.\d{3} s$", message)

    def test_model_or_predictions_required(self):
        rng = np.random.default_rng(14)
        cohort = _cohort(rng, n=2)
        with pytest.raises(ValueError):
            evaluate_dq(None, [cohort], trajectories=0)

    def test_no_cohorts_rejected(self):
        # the means over no cohorts are undefined, not 0
        model = PredictiveModel(ModelSpec(), feature_dim=4, num_states=2)
        for kwargs in ({"trajectories": 0, "predictions": []}, {"trajectories": 10}):
            with pytest.raises(ValueError, match="no cohorts"):
                evaluate_dq(model, [], **kwargs)

    def test_cohort_loss_matches_uncached_loss(self):
        # the training path reuses Cohort.true_returns instead of solving the truth again
        rng = np.random.default_rng(16)
        cohort = _cohort(rng, n=6, states=3)
        model = PredictiveModel(ModelSpec(), 4, 3, seed=0)
        model.set_theta(rng.normal(size=model.theta.shape))
        value, grad, _ = _cohort_loss(model, cohort, None, LossSpec("fast-dec-dfl", alpha=0.5), 0)
        pred = model.forward(cohort.features)[0]
        reg = RegularizerConfig(alpha=0.5)
        cfg = SolverConfig(budget=cohort.budget, gamma=cohort.setup.gamma)
        direct = dec_dfl_loss(pred, cohort.tensors, reg, cfg, cohort.setup)
        assert np.isfinite(value) and grad.shape == pred.shape
        assert value == direct[0]
        assert np.array_equal(grad, direct[1])
