"""Unit tests for predictive models, losses, training, and DQ metrics."""

import numpy as np
import pytest

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
    RewardSpec,
    TransitionTensor,
    whittle_gradients,
    whittle_index,
    whittle_indices,
)
from rmab_dfl.dec_layer import RegularizerConfig, SolverConfig, dec_dfl_loss
from rmab_dfl.planning import FixedPerArmPolicy, WhittleTopB, simulate_joint


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
        model = PredictiveModel(ModelSpec(kind="mlp", layers=2, hidden_dim=8), 4, 2, seed=0)
        tensors, _ = model.forward(rng.normal(size=(5, 4)))
        assert tensors.shape == (5, 2, 2, 2)
        for t in tensors:
            assert np.allclose(TransitionTensor(t).probs.sum(axis=-1), 1.0, atol=1e-12)

    def test_feature_dim_checked(self):
        model = PredictiveModel(ModelSpec(kind="linear"), 4, 2, seed=0)
        with pytest.raises(ValueError):
            model.forward(np.zeros((3, 5)))

    def test_theta_round_trip(self):
        model = PredictiveModel(ModelSpec(kind="mlp", layers=2, hidden_dim=8), 4, 2, seed=0)
        theta = model.get_theta()
        model.set_theta(theta * 2.0)
        assert np.allclose(model.get_theta(), theta * 2.0)
        with pytest.raises(ValueError):
            model.set_theta(theta[:-1])

    def test_backprop_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        model = PredictiveModel(ModelSpec(kind="linear"), 3, 2, seed=0)
        # move away from the tiny default init so ReLU/softmax are generic
        model.set_theta(rng.normal(scale=0.3, size=model.get_theta().shape))
        x = rng.normal(size=(4, 3))
        target = rng.dirichlet(np.ones(2), size=(4, 2, 2))

        def loss_of(theta):
            model.set_theta(theta)
            tensors, _ = model.forward(x)
            return 0.5 * float(np.sum((tensors - target) ** 2))

        theta0 = model.get_theta()
        model.set_theta(theta0)
        tensors, cache = model.forward(x)
        gw, gb = model.backward(cache, tensors - target)
        analytic = np.concatenate([g.ravel() for g in gw] + [g.ravel() for g in gb])
        h = 1e-6
        for idx in rng.choice(theta0.size, size=10, replace=False):
            e = np.zeros_like(theta0)
            e[idx] = h
            fd = (loss_of(theta0 + e) - loss_of(theta0 - e)) / (2 * h)
            assert abs(analytic[idx] - fd) <= 1e-5 * max(1.0, abs(fd))
        model.set_theta(theta0)


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
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        reward = RewardSpec(ENGAGEMENT)
        h = 1e-6
        for states in (2, 3):
            setup = uniform_setup(states, 0.9)
            tensors = rng.dirichlet(np.ones(states), size=(5, states, 2))
            grads = whittle_gradients(tensors, setup, whittle_indices(tensors, setup, tol=1e-10))
            for T, grad in zip(tensors, grads):
                for s in range(states):
                    d = np.zeros_like(T)
                    sa, aa = int(rng.integers(states)), int(rng.integers(2))
                    to, fro = rng.choice(states, size=2, replace=False)
                    d[sa, aa, to], d[sa, aa, fro] = 1.0, -1.0
                    if min(T[sa, aa, to], T[sa, aa, fro]) < 10 * h:
                        continue
                    up = whittle_index(TransitionTensor(T + h * d), reward, setup, tol=1e-10)
                    dn = whittle_index(TransitionTensor(T - h * d), reward, setup, tol=1e-10)
                    fd = (up.wi[s] - dn.wi[s]) / (2 * h)
                    an = float(np.sum(grad[s] * d))
                    assert abs(an - fd) <= 1e-3 * max(1.0, abs(fd))


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

    def test_nll_requires_trajectories(self):
        rng = np.random.default_rng(11)
        cohorts = [_cohort(rng)]
        spec = LossSpec(name="nll")
        model = PredictiveModel(ModelSpec(kind="linear"), 4, 2, seed=0)
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
            tables = [
                whittle_index(TransitionTensor(t), RewardSpec(ENGAGEMENT), cohort.setup)
                for t in tensors
            ]
            policy = WhittleTopB(tables=tables, budget=int(round(cohort.budget)))
            return simulate_joint(cohort, policy, 30, seed)

        for tensors_of, mean, se in (
            (lambda k: preds[k], report.joint_dq, report.joint_dq_se),
            (lambda k: cohorts[k].tensors, report.perfect_joint_dq, report.perfect_joint_dq_se),
        ):
            results = [rollout(tensors_of(k), c, 7 + k) for k, c in enumerate(cohorts)]
            assert mean == pytest.approx(np.mean([r.mean_return for r in results]), rel=1e-12)
            expected = np.sqrt(sum(r.std_error**2 for r in results)) / 2
            assert expected > 0
            assert se == pytest.approx(expected, rel=1e-12)

    def test_model_or_predictions_required(self):
        rng = np.random.default_rng(14)
        cohort = _cohort(rng, n=2)
        with pytest.raises(ValueError):
            evaluate_dq(None, [cohort], trajectories=0)

    def test_cohort_loss_matches_uncached_loss(self):
        # the training path reuses Cohort.true_returns instead of solving the truth again
        rng = np.random.default_rng(16)
        cohort = _cohort(rng, n=6, states=3)
        model = PredictiveModel(ModelSpec(kind="linear"), 4, 3, seed=0)
        model.set_theta(rng.normal(size=model.get_theta().shape))
        value, grad, _ = _cohort_loss(model, cohort, None, LossSpec("fast-dec-dfl", alpha=0.5), 0)
        pred = model.forward(cohort.features)[0]
        reg = RegularizerConfig(alpha=0.5)
        cfg = SolverConfig(budget=cohort.budget, gamma=cohort.setup.gamma)
        direct = dec_dfl_loss(pred, cohort.tensors, reg, cfg, cohort.setup)
        assert np.isfinite(value) and grad.shape == pred.shape
        assert value == direct[0]
        assert np.array_equal(grad, direct[1])
