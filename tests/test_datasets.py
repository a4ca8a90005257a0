"""Unit tests for synthetic data generation, transition counts, and serialization."""

import json
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from dataclasses import asdict
from pathlib import Path

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
         ("feature_gain", 0.0), ("feature_gain", float("inf")), ("feature_gain", True),
         ("budget", True), ("gamma", True), ("gamma", "0.9")],
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

    @pytest.mark.parametrize("states", [2, 4])
    def test_row_blocks_give_the_bits_of_one_block(self, monkeypatch, states):
        m = DatasetManifest(cohorts=2, arms_per_cohort=2500, budget=10.0, states=states,
                            split_sizes=(1, 1, 0), feature_layers=3)
        row = 8 * m.feature_hidden
        monkeypatch.setattr(datasets, "_FEATURE_BLOCK_BYTES", 1000 * row)
        sizes = np.diff(datasets._feature_blocks(m.arms_per_cohort, m.feature_hidden))
        assert len(sizes) == 3 and sizes[-1] != sizes[0]  # 832, 832, 836
        blocked = generate_synthetic(m)
        monkeypatch.setattr(datasets, "_FEATURE_BLOCK_BYTES", m.arms_per_cohort * row)
        assert datasets._feature_blocks(m.arms_per_cohort, m.feature_hidden) == [0, 2500]
        whole = generate_synthetic(m)
        for name in ("features", "tensors", "trajectories"):
            assert np.array_equal(getattr(blocked, name), getattr(whole, name)), name

    def test_row_blocks_keep_matrix_vector_bits_on_one_blas_thread(self):
        # at feature_dim=1 the last layer is a gemv, which groups rows from a
        # block's start; with blocks from rows 350 and 700 the bits moved. One
        # BLAS thread must be set before numpy loads, so this runs in a child.
        script = """
import numpy as np
from rmab_dfl import DatasetManifest, datasets, generate_synthetic
m = DatasetManifest(cohorts=2, arms_per_cohort=1050, budget=10.0, split_sizes=(1, 1, 0),
                    feature_dim=1, feature_layers=2)
datasets._FEATURE_BLOCK_BYTES = 400 * 8 * m.feature_hidden
assert datasets._feature_blocks(1050, m.feature_hidden) == [0, 320, 640, 1050]
blocked = generate_synthetic(m).features
datasets._FEATURE_BLOCK_BYTES = 1050 * 8 * m.feature_hidden
assert np.array_equal(blocked, generate_synthetic(m).features)
"""
        one_thread = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")
        src = str(Path(datasets.__file__).parents[1])
        env = {**os.environ, **one_thread, "PYTHONPATH": src}
        subprocess.run([sys.executable, "-c", script], env=env, check=True, timeout=120)

    def test_row_blocks_are_even_aligned_and_fit_the_buffers(self):
        hidden = 1000
        cap = datasets._FEATURE_BLOCK_BYTES // (8 * hidden)  # 1048 rows
        for n in [1, 64, cap, cap + 1, 2 * cap - 1, 2 * cap + 1, 10_000, 30_001]:
            bounds = datasets._feature_blocks(n, hidden)
            sizes = np.diff(bounds)
            assert bounds[0] == 0 and bounds[-1] == n, n
            assert all(b % datasets._FEATURE_BLOCK_ALIGN == 0 for b in bounds[:-1]), n
            assert sizes.max() <= cap + datasets._FEATURE_BLOCK_ALIGN, n
            assert len(sizes) == 1 or sizes.min() >= cap // 2 - datasets._FEATURE_BLOCK_ALIGN, n

    def test_generation_memory_does_not_grow_with_arms_beyond_the_arrays(self):
        # what generation holds besides the network and the dataset: two
        # (block, hidden) buffers and the trajectory roll's bookkeeping, which
        # grows by about 6 MB from 2000 to 8000 arms; two (N, hidden) buffers
        # would grow by 2 * 6000 * 1000 * 8 bytes = 96 MB
        def held(arms):
            m = DatasetManifest(cohorts=2, arms_per_cohort=arms, budget=10.0,
                                split_sizes=(1, 1, 0), feature_layers=3)
            weights = datasets._feature_network_weights(m, np.random.default_rng(0))
            tracemalloc.start()
            try:
                ds = generate_synthetic(m)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            arrays = ds.features.nbytes + ds.tensors.nbytes + ds.trajectories.nbytes
            return peak - sum(w.nbytes for w in weights) - arrays

        assert held(8000) - held(2000) <= 8 * 2**20

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


class TestFeatureFanOut:
    """The feature network's (cohort, row block) pairs on mdp's pool when BLAS runs one thread."""

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("cohorts,arms,blocks", [(7, 50, 1), (2, 2500, 3)])
    def test_fan_out_keeps_the_inline_bits(self, monkeypatch, pool_size, workers, cohorts, arms,
                                           blocks):
        m = DatasetManifest(cohorts=cohorts, arms_per_cohort=arms, budget=5.0, states=4,
                            split_sizes=(1, 1, cohorts - 2), feature_layers=3)
        monkeypatch.setattr(datasets, "_FEATURE_BLOCK_BYTES", 1000 * 8 * m.feature_hidden)
        assert len(datasets._feature_blocks(arms, m.feature_hidden)) == blocks + 1
        monkeypatch.setattr(datasets, "_SERIAL_BLAS", False)
        inline = generate_synthetic(m)
        monkeypatch.setattr(datasets, "_SERIAL_BLAS", True)
        monkeypatch.setattr(datasets, "_FEATURE_WORKERS", workers)
        pool_size(workers)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch between the workers as often as they allow
        try:
            fanned = generate_synthetic(m)
        finally:
            sys.setswitchinterval(interval)
        for name in ("features", "tensors", "trajectories"):
            assert np.array_equal(getattr(inline, name), getattr(fanned, name)), name

    def test_matrix_vector_blocks_keep_the_inline_bits_on_one_blas_thread(self):
        # feature_dim=1 ends in a gemv; one BLAS thread must be set before
        # numpy loads, so this runs in a child, where the flag is on by itself
        script = """
import numpy as np
from rmab_dfl import DatasetManifest, datasets, generate_synthetic, mdp
assert datasets._SERIAL_BLAS
m = DatasetManifest(cohorts=3, arms_per_cohort=1050, budget=10.0, split_sizes=(1, 1, 1),
                    feature_dim=1, feature_layers=2)
datasets._FEATURE_BLOCK_BYTES = 400 * 8 * m.feature_hidden
assert datasets._feature_blocks(1050, m.feature_hidden) == [0, 320, 640, 1050]
mdp.WORKERS = 1
inline = generate_synthetic(m).features
for workers in (2, 3):
    mdp.WORKERS, mdp._pool, datasets._FEATURE_WORKERS = workers, None, workers
    assert np.array_equal(inline, generate_synthetic(m).features), workers
"""
        one_thread = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")
        src = str(Path(datasets.__file__).parents[1])
        env = {**os.environ, **one_thread, "PYTHONPATH": src}
        subprocess.run([sys.executable, "-c", script], env=env, check=True, timeout=120)

    @pytest.mark.parametrize("serial", [True, False])
    def test_blocks_run_on_the_pool_only_when_blas_is_serial(self, monkeypatch, pool_size, serial):
        threads, real = set(), datasets._apply_feature_network

        def spy(*args):
            threads.add(threading.current_thread().name)
            time.sleep(0.01)  # so that one worker cannot take every block
            return real(*args)

        monkeypatch.setattr(datasets, "_apply_feature_network", spy)
        monkeypatch.setattr(datasets, "_SERIAL_BLAS", serial)
        pool_size(2)
        generate_synthetic(_small_manifest(cohorts=6, split_sizes=(2, 2, 2)))
        if serial:
            assert len(threads) == 2 and all(t.startswith("rmab-dfl-arms") for t in threads)
        else:
            assert threads == {threading.current_thread().name}

    def test_a_raising_block_propagates_and_leaves_none_running(self, monkeypatch, pool_size):
        error, real = ValueError("block failed"), datasets._apply_feature_network
        live, started, lock = [0], [0], threading.Lock()

        def failing(*args):
            with lock:
                live[0] += 1
                started[0] += 1
                k = started[0]
            try:
                if k == 2:
                    raise error
                time.sleep(0.05)  # the other worker's blocks are still running when k=2 raises
                real(*args)
            finally:
                with lock:
                    live[0] -= 1

        monkeypatch.setattr(datasets, "_apply_feature_network", failing)
        monkeypatch.setattr(datasets, "_SERIAL_BLAS", True)
        pool_size(2)
        with pytest.raises(ValueError) as raised:
            generate_synthetic(_small_manifest(cohorts=8, split_sizes=(4, 2, 2)))
        assert raised.value is error
        assert live[0] == 0  # no block is left running

    # every row agrees with the thread count that numpy's bundled OpenBLAS
    # (0.3.31, pthreads) reports in a child started with that environment
    @pytest.mark.parametrize(
        "environ,cpus,serial",
        [
            ({}, 2, False),
            ({}, 1, True),
            ({"OPENBLAS_NUM_THREADS": "1"}, 2, True),
            ({"OPENBLAS_NUM_THREADS": "2"}, 2, False),
            ({"OPENBLAS_NUM_THREADS": "4"}, 1, True),
            # OpenBLAS's precedence: OPENBLAS_, then GOTO_, then OMP_NUM_THREADS
            ({"OPENBLAS_NUM_THREADS": "2", "GOTO_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}, 2, False),
            ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, 2, True),
            ({"GOTO_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, 2, True),
            ({"GOTO_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2, False),
            ({"OMP_NUM_THREADS": "1"}, 2, True),
            ({"OMP_NUM_THREADS": "3"}, 2, False),
            # atoi reads a leading integer
            ({"OPENBLAS_NUM_THREADS": "1.5"}, 2, True),
            ({"OMP_NUM_THREADS": "1.0"}, 2, True),
            ({"OPENBLAS_NUM_THREADS": " +1"}, 2, True),
            # 0, negative values and no leading integer count as unset
            ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 2, True),
            ({"OPENBLAS_NUM_THREADS": "-1", "GOTO_NUM_THREADS": "1"}, 2, True),
            ({"OPENBLAS_NUM_THREADS": "one", "GOTO_NUM_THREADS": "-2"}, 2, False),
            ({"OPENBLAS_NUM_THREADS": "", "GOTO_NUM_THREADS": "0"}, 2, False),
            ({"MKL_NUM_THREADS": "1"}, 2, False),  # OpenBLAS does not read it
        ],
    )
    def test_serial_blas_rule(self, environ, cpus, serial):
        assert datasets._blas_is_serial(environ, cpus) is serial

    def test_buffers_stay_bounded_on_many_cpus(self, monkeypatch, pool_size):
        # the two memory tests of TestGeneration, run with the flag on and a
        # pool of 8: the workers are capped, so their buffers are too
        monkeypatch.setattr(datasets, "_SERIAL_BLAS", True)
        pool_size(8)
        threads, real = set(), datasets._apply_feature_network

        def spy(*args):
            threads.add(threading.current_thread().name)
            return real(*args)

        monkeypatch.setattr(datasets, "_apply_feature_network", spy)
        TestGeneration().test_generation_peaks_at_two_activation_buffers()
        TestGeneration().test_generation_memory_does_not_grow_with_arms_beyond_the_arrays()
        assert all(t.startswith("rmab-dfl-arms") for t in threads)
        assert len(threads) <= datasets._FEATURE_WORKERS == 2

    def test_weights_are_the_scaled_draws(self):
        m = _small_manifest()
        weights = datasets._feature_network_weights(m, np.random.default_rng(3))
        rng = np.random.default_rng(3)
        for W, fan_in, fan_out in zip(weights, [8, 20, 20], [20, 20, 4]):
            draw = rng.standard_normal((fan_in, fan_out))
            assert np.array_equal(W, draw * (m.feature_gain / np.sqrt(fan_in)))


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

    @pytest.mark.parametrize("cohorts", [3, 12])
    def test_load_holds_one_records_lists_at_a_time(self, tmp_path, cohorts):
        # the file's text, the per-record arrays and their stack, and the
        # parsed lists of one record; with every record's lists held at
        # once the peak was 2 MB over this at 3 cohorts and 19 MB at 12
        m = _small_manifest(cohorts=cohorts, arms_per_cohort=2000, budget=10.0,
                            split_sizes=(1, 1, cohorts - 2), feature_dim=16)
        path = tmp_path / "dataset.json"
        save_dataset(generate_synthetic(m), path)
        record_text = json.dumps(json.loads(path.read_text())["cohorts"][0])
        tracemalloc.start()
        try:
            record = json.loads(record_text)
            record_lists = tracemalloc.get_traced_memory()[0]
            del record
            tracemalloc.reset_peak()
            ds = load_dataset(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        arrays = ds.features.nbytes + ds.tensors.nbytes + ds.trajectories.nbytes
        assert peak <= path.stat().st_size + 2 * arrays + record_lists

    @staticmethod
    def _load_error(path, payload) -> str:
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError) as info:
            load_dataset(path)
        return str(info.value)

    @staticmethod
    def _stack_error(cohorts, key, dtype, shape) -> str:
        """The error of stacking the records as parsed lists, as every record was once read."""
        with pytest.raises(ValueError) as info:
            datasets._stack_cohorts(cohorts, key, dtype, shape)
        return str(info.value)

    def test_ragged_record_among_good_ones_fails_as_lists_do(self, tmp_path):
        ds = generate_synthetic(_small_manifest())
        path = tmp_path / "dataset.json"
        save_dataset(ds, path)
        payload = json.loads(path.read_text())
        payload["cohorts"][2]["tensors"][1][0].pop()  # one arm's state 0 has one action
        expected = self._stack_error(payload["cohorts"], "tensors", float, ds.tensors.shape)
        assert "inhomogeneous" in expected
        assert self._load_error(path, payload) == expected

    def test_record_with_an_extra_key_stays_lists(self, tmp_path):
        ds = generate_synthetic(_small_manifest())
        path = tmp_path / "dataset.json"
        save_dataset(ds, path)
        payload = json.loads(path.read_text())
        payload["cohorts"][1]["note"] = "kept as parsed"
        path.write_text(json.dumps(payload))
        loaded = load_dataset(path)
        for name in ("features", "tensors", "trajectories"):
            assert np.array_equal(getattr(loaded, name), getattr(ds, name)), name
        payload["cohorts"][1]["features"].pop()  # one arm fewer
        expected = self._stack_error(payload["cohorts"], "features", float, ds.features.shape)
        assert "inhomogeneous" in expected
        assert self._load_error(path, payload) == expected

    def test_duplicate_record_keys_resolve_last_wins(self, tmp_path):
        ds = generate_synthetic(_small_manifest())
        path = tmp_path / "dataset.json"
        save_dataset(ds, path)
        path.write_text(path.read_text().replace('{"features": ', '{"features": "x", "features": '))
        loaded = load_dataset(path)
        assert np.array_equal(loaded.features, ds.features)

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

