"""Unit tests for synthetic data generation, estimation, and serialization."""

import numpy as np
import pytest

from rmab_dfl import (
    DatasetManifest,
    discretize_engagement,
    estimate_from_trajectories,
    generate_synthetic,
    load_dataset,
    save_dataset,
    transition_counts,
)
from rmab_dfl import datasets


def _small_manifest(**overrides):
    defaults = dict(
        cohorts=4, arms_per_cohort=5, budget=1.0, split_sizes=(2, 1, 1), seed=0,
        feature_layers=3, feature_hidden=20, feature_dim=4,
    )
    defaults.update(overrides)
    return DatasetManifest(**defaults)


class TestGeneration:
    def test_shapes_and_simplex_rows(self):
        ds = generate_synthetic(_small_manifest())
        assert ds.features.shape == (4, 5, 4)
        assert ds.tensors.shape == (4, 5, 2, 2, 2)
        assert np.allclose(ds.tensors.sum(axis=-1), 1.0, atol=1e-12)
        assert ds.trajectories.shape == (4, 5, 21)

    def test_deterministic_in_seed(self):
        a = generate_synthetic(_small_manifest())
        b = generate_synthetic(_small_manifest())
        c = generate_synthetic(_small_manifest(seed=1))
        assert np.array_equal(a.tensors, b.tensors)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.trajectories, b.trajectories)
        assert not np.array_equal(a.tensors[0], c.tensors[0])

    def test_split_assignment_partitions_cohorts(self):
        ds = generate_synthetic(_small_manifest())
        all_ids = sorted(
            ds.split_assignment["train"]
            + ds.split_assignment["val"]
            + ds.split_assignment["test"]
        )
        assert all_ids == list(range(4))
        assert len(ds.split_assignment["train"]) == 2

    def test_split_sizes_must_sum(self):
        with pytest.raises(ValueError):
            _small_manifest(split_sizes=(3, 3, 3))

    @pytest.mark.parametrize("sizes", [(4, 0, 0), (0, 2, 2), (3, 2, -1)])
    def test_split_sizes_need_train_and_val(self, sizes):
        with pytest.raises(ValueError):
            _small_manifest(split_sizes=sizes)

    @pytest.mark.parametrize(
        "field", [{"feature_activation": "relu"}, {"trajectory_actions": "greedy"}]
    )
    def test_unimplemented_generator_labels_rejected(self, field):
        # the generator only applies tanh and draws uniform actions; the
        # feature-dim and state-count checks are covered through `generate`
        with pytest.raises(ValueError):
            _small_manifest(**field)

    def test_trajectories_follow_true_dynamics(self):
        # a deterministic arm leaves no freedom in the rolled trajectory
        ds = generate_synthetic(_small_manifest())
        for tensors, trajectories in zip(ds.tensors, ds.trajectories):
            for i, seq in enumerate(trajectories):
                states, actions, nexts = seq[:-1:2], seq[1::2], seq[2::2]
                probs = tensors[i, states, actions, nexts]
                assert np.all(probs > 0.0)

    def test_cohort_objects_carry_budget_and_gamma(self):
        ds = generate_synthetic(_small_manifest())
        cohorts = ds.cohort_objects("train")
        assert len(cohorts) == 2
        assert cohorts[0].budget == 1.0
        assert cohorts[0].setup.gamma == 0.9


class TestSerialization:
    def test_round_trip_is_exact(self, tmp_path):
        ds = generate_synthetic(_small_manifest())
        path = tmp_path / "dataset.json"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        assert loaded.manifest == ds.manifest
        assert loaded.split_assignment == ds.split_assignment
        for name in ("features", "tensors", "trajectories"):
            a, b = getattr(ds, name), getattr(loaded, name)
            assert a.dtype == b.dtype, name
            assert np.array_equal(a, b), name
        assert loaded.trajectories.dtype.kind == "i"

    def test_failed_write_keeps_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "dataset.json"
        save_dataset(generate_synthetic(_small_manifest()), path)
        before = path.read_bytes()

        class Unencodable:
            # a lone surrogate cannot be encoded, so the write fails part way
            @staticmethod
            def dumps(payload):
                return "{\ud800"

        monkeypatch.setattr(datasets, "json", Unencodable)
        with pytest.raises(UnicodeEncodeError):
            save_dataset(generate_synthetic(_small_manifest(seed=1)), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["dataset.json"]

    def test_rejects_unknown_format_version(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format_version": 99}')
        with pytest.raises(ValueError):
            load_dataset(path)


class TestTrajectoryEstimation:
    def test_transition_counts_hand_example(self):
        # arm 0: s0=0 -a1-> 1 -a0-> 1; arm 1: 1 -a1-> 1 -a1-> 1
        counts = transition_counts(np.array([[0, 1, 1, 0, 1], [1, 1, 1, 1, 1]]), num_states=2)
        assert counts.shape == (2, 2, 2, 2)
        assert counts[0, 0, 1, 1] == 1.0
        assert counts[0, 1, 0, 1] == 1.0
        assert counts[0].sum() == 2.0
        assert counts[1, 1, 1, 1] == 2.0
        assert counts[1].sum() == 2.0

    def test_transition_counts_match_per_arm_loop(self):
        rng = np.random.default_rng(0)
        seqs = rng.integers(0, 2, size=(30, 21))
        seqs[:, ::2] = rng.integers(0, 3, size=(30, 11))
        expected = np.zeros((30, 3, 2, 3))
        for i, seq in enumerate(seqs):
            for t in range(10):
                s, a, s_next = seq[2 * t : 2 * t + 3]
                expected[i, s, a, s_next] += 1.0
        assert np.array_equal(transition_counts(seqs, num_states=3), expected)

    def test_pooled_prior_normalizes(self):
        # arm 0 leaves row (0, a=1) for state 1 twice and for state 0 once;
        # arm 1 never observes that row
        seqs = np.array([[0, 1, 1, 0, 0, 1, 1, 0, 0, 1, 0], [1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1]])
        counts = transition_counts(seqs, num_states=2)
        assert counts[1, 0, 1].sum() == 0.0
        # with a unit prior and no counts, arm 1's row is the pooled row itself
        row = estimate_from_trajectories(counts, prior_strength=1.0)[1, 0, 1]
        assert row.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(row, [1 / 3, 2 / 3], atol=1e-12)

    def test_estimates_are_smoothed_toward_prior(self):
        counts = transition_counts(np.array([[0, 1, 1, 1, 1]]), num_states=2)
        estimates = estimate_from_trajectories(counts, prior_strength=1.0)
        t = estimates[0]
        assert np.allclose(t.sum(axis=-1), 1.0, atol=1e-12)
        # observed row (0, a=1): both transitions went to state 1
        assert t[0, 1, 1] > t[0, 1, 0]

    def test_zero_prior_with_no_observations_rejected(self):
        counts = transition_counts(np.array([[0, 1, 1]]), num_states=2)
        with pytest.raises(ValueError):
            estimate_from_trajectories(counts, prior_strength=0.0)

    def test_negative_prior_rejected(self):
        counts = transition_counts(np.array([[0, 1, 1]]), num_states=2)
        with pytest.raises(ValueError):
            estimate_from_trajectories(counts, prior_strength=-1.0)

    def test_estimation_consistency_on_long_trajectories(self):
        rng = np.random.default_rng(0)
        tensor = rng.dirichlet(np.ones(2), size=(2, 2))
        length = 20000
        seq = np.empty(2 * length + 1, dtype=int)
        state = 0
        seq[0] = state
        for t in range(length):
            action = int(rng.integers(2))
            state_next = int(rng.choice(2, p=tensor[state, action]))
            seq[2 * t + 1] = action
            seq[2 * t + 2] = state_next
            state = state_next
        counts = transition_counts(seq[None], num_states=2)
        est = estimate_from_trajectories(counts, prior_strength=1.0)[0]
        assert np.max(np.abs(est - tensor)) < 0.05


class TestDiscretization:
    def test_threshold_is_strict(self):
        out = discretize_engagement([0.0, 30.0, 30.01, 100.0])
        assert out.tolist() == [0, 0, 1, 1]

    def test_negative_durations_rejected(self):
        with pytest.raises(ValueError):
            discretize_engagement([-1.0])

    def test_threshold_must_be_positive(self):
        with pytest.raises(ValueError):
            discretize_engagement([10.0], threshold=0.0)
