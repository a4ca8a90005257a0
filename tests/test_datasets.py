"""Unit tests for synthetic data generation, transition counts, and serialization."""

import json
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from rmab_dfl import (
    DatasetManifest,
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


def _roll_per_step(tensors, length, rng):
    """The per-step rule, arm after arm: the oracle for datasets._roll_trajectories."""
    n, s = tensors.shape[:2]
    out = np.empty((n, 2 * length + 1), dtype=int)
    for i in range(n):
        state = rng.integers(s)
        out[i, 0] = state
        for t in range(length):
            action = int(rng.integers(2))
            next_state = rng.choice(s, p=tensors[i, state, action])
            out[i, 2 * t + 1] = action
            out[i, 2 * t + 2] = next_state
            state = next_state
    return out


PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _pcg64_state_before(output: int, inc: int) -> int:
    """A PCG64 state whose next 64-bit output is `output`.

    The output is XSL-RR: rotate hi ^ lo of the stepped 128-bit state right
    by its top 6 bits. Pick those bits and hi, solve for lo, then undo the
    LCG step state' = state * multiplier + inc.
    """
    rotation, mask = 5, (1 << 64) - 1
    xored = ((output << rotation) | (output >> (64 - rotation))) & mask
    hi = (rotation << 58) | 0x1234567
    stepped = (hi << 64) | (hi ^ xored)
    return (stepped - inc) * pow(PCG64_MULTIPLIER, -1, 1 << 128) % (1 << 128)


def _cohort(n, s, seed):
    return np.random.default_rng([seed, 7]).dirichlet(np.ones(s), size=(n, s, 2))


def _rng_at(state):
    rng = np.random.default_rng()
    rng.bit_generator.state = state
    return rng


class TestVectorizedRoll:
    """The one-pass roll reads the same PCG64 words as the per-step rule."""

    @pytest.mark.parametrize("arms", [1, 1000])
    @pytest.mark.parametrize("length", [0, 1, 10])
    @pytest.mark.parametrize("states", [2, 3, 4, 6, 12])
    def test_equals_per_step_rule(self, states, length, arms):
        for seed in range(3):
            tensors = _cohort(arms, states, seed)
            expected = _roll_per_step(tensors, length, np.random.default_rng(seed))
            got = datasets._roll_trajectories(tensors, length, np.random.default_rng(seed))
            assert np.array_equal(got, expected), seed

    @pytest.mark.parametrize("arms", [1, 1000])
    @pytest.mark.parametrize("states", [3, 4])
    def test_held_half_word_serves_the_first_draw(self, states, arms):
        rng = np.random.default_rng(5)
        rng.integers(2)  # leaves the high half of a word held
        state = rng.bit_generator.state
        assert state["has_uint32"] == 1
        tensors = _cohort(arms, states, 5)
        expected = _roll_per_step(tensors, 10, _rng_at(state))
        assert np.array_equal(datasets._roll_trajectories(tensors, 10, _rng_at(state)), expected)

    @pytest.mark.parametrize("arms", [1, 1000])
    @pytest.mark.parametrize("length", [0, 1, 10])
    @pytest.mark.parametrize("word,redraws", [(0xDEADBEEF << 32, 1), (0, 2)])
    def test_lemire_redraw(self, word, redraws, length, arms):
        # a start draw u = 0 gives (3u) mod 2^32 = 0 < 2^32 mod 3, so integers(3) draws again
        state = np.random.default_rng(11).bit_generator.state
        state["state"]["state"] = _pcg64_state_before(word, state["state"]["inc"])
        assert int(_rng_at(state).bit_generator.random_raw()) == word
        probe = _rng_at(state)
        probe.integers(3)
        # 1 + redraws half words read: an odd count leaves a high half held
        assert probe.bit_generator.state["has_uint32"] == (1 + redraws) % 2
        tensors = _cohort(arms, 3, 11)
        expected = _roll_per_step(tensors, length, _rng_at(state))
        got = datasets._roll_trajectories(tensors, length, _rng_at(state))
        assert np.array_equal(got, expected)


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

    @pytest.mark.parametrize(
        "field,value",
        [("trajectory_len", -1), ("feature_layers", 0), ("feature_hidden", 0),
         ("feature_gain", 0.0)],
    )
    def test_network_and_trajectory_fields_validated(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            _small_manifest(**{field: value})

    def test_generation_peaks_at_two_activation_buffers(self):
        # the hidden layers reuse two (N, hidden) buffers across layers and cohorts
        m = DatasetManifest(cohorts=2, arms_per_cohort=4000, budget=100.0, split_sizes=(1, 1, 0))
        buffer = m.arms_per_cohort * m.feature_hidden * 8
        weights = datasets._feature_network_weights(m, np.random.default_rng(0))
        tracemalloc.start()
        try:
            ds = generate_synthetic(m)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        arrays = ds.features.nbytes + ds.tensors.nbytes + ds.trajectories.nbytes
        slack = buffer // 2  # trajectory bookkeeping and draws: about 5 MB here
        assert peak <= 2 * buffer + sum(w.nbytes for w in weights) + arrays + slack

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

    def test_bytes_equal_one_dumps_of_the_whole_payload(self, tmp_path):
        ds = generate_synthetic(_small_manifest(states=3))
        path = tmp_path / "dataset.json"
        save_dataset(ds, path)
        payload = {
            "format_version": datasets.FORMAT_VERSION,
            "manifest": asdict(ds.manifest),
            "split_assignment": ds.split_assignment,
            "cohorts": [
                {"features": f.tolist(), "tensors": t.tolist(), "trajectories": traj.tolist()}
                for f, t, traj in zip(ds.features, ds.tensors, ds.trajectories)
            ],
        }
        assert path.read_bytes() == json.dumps(payload).encode()

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
        counts = transition_counts(seq[None], num_states=2)[0]
        est = counts / counts.sum(axis=-1, keepdims=True)
        assert np.max(np.abs(est - tensor)) < 0.05

