"""End-to-end tests for the command-line interface."""

import json
import logging
from pathlib import Path

import numpy as np
import pytest

from rmab_dfl import cli, datasets, learning
from rmab_dfl.checks import run_verification
from rmab_dfl.cli import (
    EXIT_INPUT,
    EXIT_NUMERIC,
    EXIT_OK,
    OUTPUT_ROOT_ENV,
    main,
)


@pytest.fixture()
def tiny_dataset(tmp_path):
    """A small dataset on disk, shared across CLI invocations."""
    out = tmp_path / "data"
    code = main(
        [
            "generate",
            "--out",
            str(out),
            "--cohorts",
            "6",
            "--arms",
            "4",
            "--budget",
            "1.0",
            "--seed",
            "0",
        ]
    )
    assert code == EXIT_OK
    return out / "dataset.json"


@pytest.fixture()
def model_path(tiny_dataset, tmp_path):
    run = tmp_path / "run"
    assert main(["train", "--dataset", str(tiny_dataset), "--out", str(run), "--loss", "mse",
                 "--lr", "1e-2", "--epochs", "1"]) == EXIT_OK
    return run / "model.npz"


class TestGenerate:
    def test_writes_dataset(self, tiny_dataset):
        assert tiny_dataset.exists()
        payload = json.loads(tiny_dataset.read_text())
        assert payload["manifest"]["cohorts"] == 6

    def test_overwrite_protection(self, tiny_dataset):
        code = main(
            ["generate", "--out", str(tiny_dataset.parent), "--cohorts", "6", "--arms", "4",
             "--budget", "1.0"]
        )
        assert code == EXIT_INPUT
        code = main(
            ["generate", "--out", str(tiny_dataset.parent), "--cohorts", "6", "--arms", "4",
             "--budget", "1.0", "--overwrite"]
        )
        assert code == EXIT_OK

    def test_output_root_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path / "envroot"))
        code = main(["generate", "--cohorts", "3", "--arms", "2", "--budget", "1.0",
                     "--states", "2"])
        assert code == EXIT_OK
        assert (tmp_path / "envroot" / "dataset.json").exists()

    def test_invalid_manifest_is_input_error(self, tmp_path):
        cases = {
            "bad-gamma": ["--gamma", "1.5"],
            "bad-budget": ["--budget", "3"],
            "no-features": ["--budget", "1", "--feature-dim", "0"],
            "one-state": ["--budget", "1", "--states", "1"],
            "too-many-states": ["--budget", "1", "--states", "13"],
            "fractional-budget": ["--budget", "1.5"],
        }
        for name, flags in cases.items():
            out = tmp_path / name
            args = ["generate", "--cohorts", "3", "--arms", "2", "--out", str(out)] + flags
            assert main(args) == EXIT_INPUT, name
            assert not (out / "dataset.json").exists(), name


class TestTrainEvalExport:
    def test_full_pipeline(self, tiny_dataset, tmp_path):
        run = tmp_path / "run"
        code = main(
            [
                "train",
                "--dataset",
                str(tiny_dataset),
                "--out",
                str(run),
                "--loss",
                "mse",
                "--lr",
                "1e-2",
                "1e-3",
                "--epochs",
                "3",
                "--seed",
                "0",
            ]
        )
        assert code == EXIT_OK
        assert (run / "model.npz").exists()
        assert (run / "result.json").exists()
        log_lines = (run / "log.jsonl").read_text().splitlines()
        assert all("epoch" in json.loads(line) for line in log_lines)

        code = main(
            [
                "eval",
                "--dataset",
                str(tiny_dataset),
                "--model",
                str(run / "model.npz"),
                "--out",
                str(run),
                "--trajectories",
                "20",
            ]
        )
        assert code == EXIT_OK
        dq = json.loads((run / "dq.json").read_text())
        assert "normalized_decomposed_dq" in dq
        assert dq["joint_dq_se"] > 0 and dq["perfect_joint_dq_se"] > 0
        assert dq["split"] == "test"

        code = main(["export", "--kind", "dq_table", "--results", str(run), "--out", str(run)])
        assert code == EXIT_OK
        table = (run / "dq_table.csv").read_text().splitlines()
        assert table[1].startswith("loss,")

        code = main(["export", "--kind", "dq_vs_epoch", "--results", str(run), "--out", str(run)])
        assert code == EXIT_OK
        assert (run / "dq_vs_epoch.csv").exists()

        code = main(
            [
                "export",
                "--kind",
                "wi_scatter",
                "--dataset",
                str(tiny_dataset),
                "--model",
                str(run / "model.npz"),
                "--out",
                str(run),
            ]
        )
        assert code == EXIT_OK
        scatter = (run / "wi_scatter.csv").read_text().splitlines()
        assert scatter[1] == "arm,true_wi,predicted_wi,selected"

    @pytest.mark.parametrize("loss", ["mse", "nll"])
    def test_parallel_jobs_match_serial(self, tiny_dataset, tmp_path, loss):
        argv = [
            "train", "--dataset", str(tiny_dataset), "--loss", loss,
            "--lr", "1e-2", "1e-3", "--epochs", "2", "--seed", "0",
        ]
        assert main(argv + ["--out", str(tmp_path / "serial"), "--jobs", "1"]) == EXIT_OK
        assert main(argv + ["--out", str(tmp_path / "parallel"), "--jobs", "2"]) == EXIT_OK
        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        a = np.load(serial / "model.npz")["theta"]
        b = np.load(parallel / "model.npz")["theta"]
        assert np.array_equal(a, b)
        assert (serial / "result.json").read_text() == (parallel / "result.json").read_text()

        def log_without_seconds(run):
            records = [json.loads(line) for line in (run / "log.jsonl").read_text().splitlines()]
            return [[(k, v) for k, v in rec.items() if k != "seconds"] for rec in records]

        assert log_without_seconds(serial) == log_without_seconds(parallel)

    def test_grid_loads_once_and_validates_in_training(self, tiny_dataset, tmp_path, monkeypatch):
        loads, epochs = [], []
        load_dataset, run_epoch = datasets.load_dataset, learning.run_epoch

        def counting_load(*args, **kwargs):
            loads.append(1)
            return load_dataset(*args, **kwargs)

        def counting_epoch(*args, **kwargs):
            epochs.append(1)
            return run_epoch(*args, **kwargs)

        monkeypatch.setattr(cli, "load_dataset", counting_load)
        for module in (cli, learning):
            monkeypatch.setattr(module, "run_epoch", counting_epoch)
        code = main(["train", "--dataset", str(tiny_dataset), "--out", str(tmp_path / "run"),
                     "--loss", "mse", "--lr", "1e-2", "1e-3", "--seed", "0", "1",
                     "--epochs", "3"])
        assert code == EXIT_OK
        assert len(loads) == 1
        # one training and one validation epoch per epoch of each of the 4 runs
        assert len(epochs) == 4 * 2 * 3

    def test_model_write_is_atomic(self, tiny_dataset, tmp_path, monkeypatch):
        run = tmp_path / "run"
        argv = ["train", "--dataset", str(tiny_dataset), "--out", str(run), "--loss", "mse",
                "--lr", "1e-2", "--epochs", "1", "--overwrite"]
        assert main(argv) == EXIT_OK
        before = (run / "model.npz").read_bytes()

        def failing_savez(file, **arrays):
            file.write(b"partial")
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", failing_savez)
        with pytest.raises(OSError):
            main(argv + ["--seed", "1"])
        assert (run / "model.npz").read_bytes() == before
        assert not [p.name for p in run.iterdir() if p.name.startswith("model.npz.")]

    def test_grid_keeps_best_validation_run(self, tiny_dataset, tmp_path):
        run = tmp_path / "run"
        code = main(["train", "--dataset", str(tiny_dataset), "--out", str(run), "--loss", "mse",
                     "--lr", "1e-2", "1e-5", "--epochs", "5", "--seed", "0"])
        assert code == EXIT_OK
        records = [json.loads(line) for line in (run / "log.jsonl").read_text().splitlines()]
        assert {rec["lr"] for rec in records} == {1e-2, 1e-5}
        # train restores each run's best validation epoch, so a run's
        # validation value is the least one it logged
        best_val = {}
        for rec in records:
            if rec["split"] == "val":
                best_val[rec["lr"]] = min(best_val.get(rec["lr"], np.inf), rec["value"])
        best_lr = min(best_val, key=best_val.get)
        result = json.loads((run / "result.json").read_text())
        assert result["lr"] == best_lr
        assert result["val_value"] == pytest.approx(best_val[best_lr], abs=1e-12)

    @pytest.mark.parametrize(
        "flags",
        [["--loss", "dec-dfl"], ["--loss", "fast-dec-dfl", "--regularizer", "l2"],
         ["--epsilon", "nan"], ["--epsilon", "inf"], ["--epsilon", "0"]],
    )
    def test_removed_options_rejected(self, tiny_dataset, flags):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--dataset", str(tiny_dataset)] + flags)
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "flags",
        [["--lr", "nan"], ["--lr", "1e-2", "0"], ["--lr", "-0.001"], ["--trajectories", "0"],
         ["--epochs", "0"], ["--jobs", "0"], ["--alpha", "nan"], ["--alpha", "inf"],
         ["--alpha", "0"]],
    )
    def test_bad_training_values_are_input_errors(self, tiny_dataset, tmp_path, monkeypatch,
                                                  flags):
        def no_training(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr(learning, "run_epoch", no_training)
        run = tmp_path / "run"
        code = main(["train", "--dataset", str(tiny_dataset), "--out", str(run)] + flags)
        assert code == EXIT_INPUT
        assert not run.exists()

    def test_divergence_is_numeric_error(self, tiny_dataset, tmp_path, monkeypatch):
        monkeypatch.setattr(learning, "mse_loss", lambda pred, truth: (float("nan"), pred))
        run = tmp_path / "run"
        code = main(["train", "--dataset", str(tiny_dataset), "--out", str(run), "--loss", "mse",
                     "--lr", "1e-2", "--epochs", "1"])
        assert code == EXIT_NUMERIC
        assert not (run / "model.npz").exists()

    def test_missing_dataset_is_input_error(self, tmp_path):
        code = main(["train", "--dataset", str(tmp_path / "nope.json"), "--loss", "mse"])
        assert code == EXIT_INPUT

    def test_missing_model_is_input_error(self, tiny_dataset, tmp_path):
        code = main(
            ["eval", "--dataset", str(tiny_dataset), "--model", str(tmp_path / "nope.npz")]
        )
        assert code == EXIT_INPUT


class TestEval:
    def _eval(self, tiny_dataset, model_path, out, *flags):
        return main(["eval", "--dataset", str(tiny_dataset), "--model", str(model_path),
                     "--out", str(out), *flags])

    def test_loaded_model_is_its_theta_with_nothing_drawn(self, tiny_dataset, model_path,
                                                          monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("an initialization was drawn")

        manifest = datasets.load_dataset(tiny_dataset).manifest
        monkeypatch.setattr(np.random, "default_rng", no_draws)
        model, meta = cli._load_model(model_path, manifest)
        assert np.array_equal(model.theta, np.load(model_path)["theta"])
        assert meta["model"] == "linear"

    def test_existing_result_refused_before_evaluating(self, tiny_dataset, model_path, tmp_path,
                                                       monkeypatch):
        out = tmp_path / "eval"
        out.mkdir()
        (out / "dq.json").write_text("{}")

        def no_evaluation(*args, **kwargs):
            raise AssertionError("evaluation started")

        monkeypatch.setattr(cli, "evaluate_dq", no_evaluation)
        assert self._eval(tiny_dataset, model_path, out) == EXIT_INPUT
        assert (out / "dq.json").read_text() == "{}"

    def test_negative_trajectories_rejected(self, tiny_dataset, model_path, tmp_path):
        out = tmp_path / "eval"
        assert self._eval(tiny_dataset, model_path, out, "--trajectories", "-5") == EXIT_INPUT
        assert not (out / "dq.json").exists()

    def test_skipped_joint_columns_are_null(self, tiny_dataset, model_path, tmp_path):
        out = tmp_path / "eval"
        assert self._eval(tiny_dataset, model_path, out, "--trajectories", "0") == EXIT_OK

        def no_constants(name):
            raise AssertionError(f"dq.json holds the non-JSON constant {name}")

        dq = json.loads((out / "dq.json").read_text(), parse_constant=no_constants)
        for key in ("joint_dq", "joint_dq_se", "perfect_joint_dq", "perfect_joint_dq_se",
                    "normalized_joint_dq"):
            assert dq[key] is None, key
        assert dq["normalized_decomposed_dq"] is not None

    def test_worker_count_changes_no_bytes(self, tiny_dataset, model_path, tmp_path, pool_size):
        written = []
        for workers in (1, 3):
            pool_size(workers)
            out = tmp_path / f"eval-{workers}"
            assert self._eval(tiny_dataset, model_path, out, "--trajectories", "20") == EXIT_OK
            written.append((out / "dq.json").read_bytes())
        assert written[0] == written[1]

    def test_empty_split_is_input_error(self, model_path, tmp_path):
        # a valid dataset whose test split holds no cohorts: no means to report
        manifest = datasets.DatasetManifest(cohorts=4, arms_per_cohort=4, budget=1.0,
                                            split_sizes=(2, 2, 0))
        path = tmp_path / "empty-test" / "dataset.json"
        datasets.save_dataset(datasets.generate_synthetic(manifest), path)
        out = tmp_path / "eval"
        assert self._eval(path, model_path, out, "--split", "test") == EXIT_INPUT
        assert not (out / "dq.json").exists()


MALFORMED_DATASETS = (
    "unknown-manifest-key", "cohort-without-tensors", "no-split-assignment", "top-level-list",
    "split-id-out-of-range", "ragged-cohorts", "shapes-disagree-with-manifest",
    "tensor-row-off-simplex", "null-feature", "state-out-of-range", "action-out-of-range",
    "split-unlike-manifest", "fractional-action", "numeric-string-feature",
)


def _malformed(case: str, payload: dict):
    """The payload of a valid dataset file, broken as `case` names."""
    cohort = payload["cohorts"][payload["split_assignment"]["train"][0]]
    if case == "top-level-list":
        return [payload]
    if case == "unknown-manifest-key":
        payload["manifest"]["colour"] = "red"
    elif case == "cohort-without-tensors":
        del cohort["tensors"]
    elif case == "no-split-assignment":
        del payload["split_assignment"]
    elif case == "split-id-out-of-range":
        payload["split_assignment"]["train"].append(99)
    elif case == "ragged-cohorts":  # one cohort loses its last arm
        for key in cohort:
            cohort[key] = cohort[key][:-1]
    elif case == "shapes-disagree-with-manifest":
        payload["manifest"]["arms_per_cohort"] = 5
    elif case == "tensor-row-off-simplex":
        cohort["tensors"][0][0][0] = [2.0, -1.0]
    elif case == "null-feature":
        cohort["features"][0][0] = None
    elif case == "state-out-of-range":
        cohort["trajectories"][0][0] = 7
    elif case == "action-out-of-range":
        cohort["trajectories"][0][1] = 2
    elif case == "fractional-action":  # would load as action 0 if cast
        cohort["trajectories"][0][1] = 0.6
    elif case == "numeric-string-feature":  # would load as 1000.0 if cast
        cohort["features"][0][0] = "1e3"
    elif case == "split-unlike-manifest":  # no val cohorts, test overlapping train
        splits = payload["split_assignment"]
        splits["test"] = sorted(splits["test"] + splits["train"])
        splits["val"] = []
    return payload


class TestMalformedInput:
    """A malformed input file is an input error (exit 2), not a crash."""

    @pytest.mark.parametrize("case", MALFORMED_DATASETS)
    def test_malformed_dataset(self, tiny_dataset, tmp_path, case):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(_malformed(case, json.loads(tiny_dataset.read_text()))))
        run = tmp_path / "run"
        code = main(["train", "--dataset", str(bad), "--out", str(run), "--loss", "mse",
                     "--lr", "1e-2", "--epochs", "1"])
        assert code == EXIT_INPUT
        assert not run.exists()

    # an integer field holding a float equal to its value, or a bool, is
    # wrong in its type only
    @pytest.mark.parametrize(
        "field,value",
        [("trajectory_len", -1), ("feature_layers", 0), ("feature_hidden", 0),
         ("feature_gain", -3.0), ("cohorts", 6.0), ("arms_per_cohort", 4.0), ("states", 2.0),
         ("states", True), ("feature_dim", 16.0), ("seed", 0.0), ("seed", 1.5),
         ("trajectory_len", 10.0), ("feature_layers", 8.0), ("feature_hidden", 1000.0),
         ("split_sizes", [1.0, 1, 4])],
    )
    def test_manifest_field_out_of_domain(self, tiny_dataset, tmp_path, capsys, field, value):
        payload = json.loads(tiny_dataset.read_text())
        payload["manifest"][field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        capsys.readouterr()
        code = main(["train", "--dataset", str(bad), "--out", str(tmp_path / "run"),
                     "--loss", "mse", "--lr", "1e-2", "--epochs", "1"])
        assert code == EXIT_INPUT
        assert f"input error: {field} must be" in capsys.readouterr().err

    def test_dataset_directory(self, tmp_path):
        code = main(["train", "--dataset", str(tmp_path), "--out", str(tmp_path / "run")])
        assert code == EXIT_INPUT

    def test_unknown_model_flag(self, tiny_dataset, model_path, tmp_path):
        blob = np.load(model_path)
        meta = {**json.loads(str(blob["meta"])), "model": "mlp-huge"}
        bad = tmp_path / "bad.npz"
        np.savez(bad, theta=blob["theta"], meta=json.dumps(meta))
        code = main(["eval", "--dataset", str(tiny_dataset), "--model", str(bad),
                     "--out", str(tmp_path / "eval"), "--trajectories", "0"])
        assert code == EXIT_INPUT
        assert not (tmp_path / "eval" / "dq.json").exists()

    @pytest.mark.parametrize("command", ["eval", "wi_scatter"])
    @pytest.mark.parametrize("flags", [["--states", "3"], ["--feature-dim", "8"]])
    def test_model_for_another_dataset(self, model_path, tmp_path, monkeypatch, command, flags):
        def no_work(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(cli, "evaluate_dq", no_work)
        monkeypatch.setattr(cli, "whittle_indices", no_work)
        data = tmp_path / "other"
        assert main(["generate", "--out", str(data), "--cohorts", "6", "--arms", "4",
                     "--budget", "1.0"] + flags) == EXIT_OK
        out = tmp_path / "out"
        model = ["--dataset", str(data / "dataset.json"), "--model", str(model_path)]
        if command == "eval":
            argv = ["eval", *model, "--out", str(out), "--trajectories", "0"]
        else:
            argv = ["export", "--kind", "wi_scatter", *model, "--out", str(out)]
        assert main(argv) == EXIT_INPUT
        assert not out.exists()

    def test_dq_table_over_incomplete_results(self, tmp_path):
        results = tmp_path / "results"
        results.mkdir()
        (results / "dq.json").write_text(json.dumps({"loss": "mse", "split": "test"}))
        code = main(["export", "--kind", "dq_table", "--results", str(results),
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_INPUT
        assert not (tmp_path / "out" / "dq_table.csv").exists()

    @pytest.mark.parametrize("command", ["eval", "wi_scatter"])
    def test_non_finite_model_parameter(self, tiny_dataset, model_path, tmp_path, command):
        blob = np.load(model_path)
        theta = blob["theta"].copy()
        theta[-1] = np.nan  # an output bias
        bad = tmp_path / "bad.npz"
        np.savez(bad, theta=theta, meta=str(blob["meta"]))
        self._model_input_error(tiny_dataset, bad, tmp_path / "out", command)

    @staticmethod
    def _model_input_error(dataset, model_path, out, command):
        model = ["--dataset", str(dataset), "--model", str(model_path)]
        if command == "eval":
            argv = ["eval", *model, "--out", str(out), "--trajectories", "0"]
        else:
            argv = ["export", "--kind", "wi_scatter", *model, "--out", str(out)]
        assert main(argv) == EXIT_INPUT
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "wi_scatter"])
    @pytest.mark.parametrize("key, retype", [
        ("feature_dim", float), ("states", float), ("states", lambda v: True),
        ("seed", str), ("seed", float), ("seed", lambda v: True),
    ], ids=["float-feature-dim", "float-states", "bool-states", "string-seed", "float-seed",
            "bool-seed"])
    def test_model_meta_not_an_integer(self, tiny_dataset, model_path, tmp_path, command,
                                       key, retype):
        # a float dimension equals the dataset's, so only its type is wrong
        blob = np.load(model_path)
        meta = json.loads(str(blob["meta"]))
        meta[key] = retype(meta[key])
        bad = tmp_path / "bad.npz"
        np.savez(bad, theta=blob["theta"], meta=json.dumps(meta))
        self._model_input_error(tiny_dataset, bad, tmp_path / "out", command)

    @pytest.mark.parametrize("raw", ['"abc"', "true", "1e400"])
    def test_dq_table_over_malformed_metric(self, tmp_path, raw):
        results = tmp_path / "results"
        record = {"loss": "mse", "dataset": "d", "split": "test",
                  "normalized_joint_dq": "METRIC", "normalized_decomposed_dq": 0.5}
        for run in ("a", "b"):
            (results / run).mkdir(parents=True)
            text = json.dumps(record).replace('"METRIC"', raw)
            (results / run / "dq.json").write_text(text)
        code = main(["export", "--kind", "dq_table", "--results", str(results),
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_INPUT
        assert not (tmp_path / "out" / "dq_table.csv").exists()

    @pytest.mark.parametrize("key", ["loss", "dataset", "split"])
    @pytest.mark.parametrize("value", [3, ["mse"], None], ids=["number", "list", "null"])
    def test_dq_table_over_non_string_key(self, tmp_path, capsys, key, value):
        # beside a string, a number would break the sort and a list the grouping
        results = tmp_path / "results"
        record = {"loss": "mse", "dataset": "d", "split": "test",
                  "normalized_joint_dq": 0.4, "normalized_decomposed_dq": 0.5}
        for run, rec in (("a", record), ("b", {**record, key: value})):
            (results / run).mkdir(parents=True)
            (results / run / "dq.json").write_text(json.dumps(rec))
        capsys.readouterr()
        code = main(["export", "--kind", "dq_table", "--results", str(results),
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_INPUT
        assert f"{key} must be a string" in capsys.readouterr().err
        assert not (tmp_path / "out" / "dq_table.csv").exists()

    def test_time_table_export_removed(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["export", "--kind", "time_table", "--out", str(tmp_path)])
        assert exc.value.code == 2


class TestBench:
    def test_writes_timing_tables(self, tiny_dataset, tmp_path):
        out = tmp_path / "bench"
        code = main(
            [
                "bench",
                "--dataset",
                str(tiny_dataset),
                "--out",
                str(out),
                "--losses",
                "mse",
                "fast-dec-dfl",
                "--repeats",
                "5",
            ]
        )
        assert code == EXIT_OK
        table = (out / "time_table.csv").read_text().splitlines()
        assert table[0].startswith("# manifest_hash=")
        assert table[1] == "loss,seconds_per_epoch_mean,seconds_per_epoch_sem"
        assert len(table) == 4
        scaling = (out / "layer_scaling.csv").read_text().splitlines()
        assert scaling[1] == "num_arms,forward_seconds,backward_seconds"


    def test_repeats_are_honored(self, tiny_dataset, tmp_path, monkeypatch):
        seen = []
        original = cli.bench_epoch_times

        def recording(dataset, losses, repeats, *args):
            seen.append(repeats)
            return original(dataset, losses, repeats, *args)

        monkeypatch.setattr(cli, "bench_epoch_times", recording)
        argv = ["bench", "--dataset", str(tiny_dataset), "--out", str(tmp_path / "bench"),
                "--losses", "mse"]
        assert main(argv + ["--repeats", "2"]) == EXIT_OK
        assert seen == [2]
        assert main(argv + ["--repeats", "0"]) == EXIT_INPUT
        assert seen == [2]


class TestVerbose:
    def test_verbosity_turns_on_logging(self, tiny_dataset, tmp_path, capsys):
        argv = ["train", "--dataset", str(tiny_dataset), "--out", str(tmp_path / "run"),
                "--loss", "mse", "--lr", "1e-2", "--epochs", "2", "--overwrite"]
        runs = {}
        for flags in ((), ("-v",), ("-vv",)):
            assert main([*flags, *argv]) == EXIT_OK
            runs[flags] = capsys.readouterr()
            # the handler and level last only as long as the command
            assert logging.getLogger("rmab_dfl").handlers == []
            assert logging.getLogger("rmab_dfl").level == logging.NOTSET
        quiet, info, debug = runs[()], runs[("-v",)], runs[("-vv",)]
        assert quiet.out == info.out == debug.out
        assert quiet.err == ""
        assert "INFO rmab_dfl.learning: lr=0.01 seed=0: mse best val" in info.err
        assert "DEBUG" not in info.err
        assert "DEBUG rmab_dfl.learning: lr=0.01 seed=0 epoch 1: train" in debug.err
        assert "INFO rmab_dfl.learning" in debug.err

    def test_generate_logs_sizes_and_seconds(self, tmp_path, caplog):
        argv = ["generate", "--out", str(tmp_path), "--cohorts", "3", "--arms", "2",
                "--budget", "1", "--overwrite"]
        assert main(argv) == EXIT_OK
        assert not caplog.records
        assert main(["-v", *argv]) == EXIT_OK
        [record] = caplog.records
        assert (record.name, record.levelno) == ("rmab_dfl.datasets", logging.INFO)
        assert record.getMessage().startswith("3 cohorts of 2 arms: generate_synthetic ")
        assert " s, save_dataset " in record.getMessage()
        assert record.getMessage().endswith(" s")

    def test_eval_debug_shows_the_stacked_solve(self, tiny_dataset, model_path, tmp_path, capsys):
        capsys.readouterr()
        assert main(["-vv", "eval", "--dataset", str(tiny_dataset), "--model", str(model_path),
                     "--out", str(tmp_path / "eval"), "--trajectories", "0"]) == EXIT_OK
        err = capsys.readouterr().err
        assert "DEBUG rmab_dfl.learning: decomposed eval solve of " in err
        assert "rounds, evaluations sum" in err

    def test_eval_debug_shows_the_joint_passes(self, tiny_dataset, model_path, tmp_path, capsys):
        capsys.readouterr()
        assert main(["-vv", "eval", "--dataset", str(tiny_dataset), "--model", str(model_path),
                     "--out", str(tmp_path / "eval"), "--trajectories", "3"]) == EXIT_OK
        lines = [line for line in capsys.readouterr().err.splitlines()
                 if "DEBUG rmab_dfl.learning: joint pass of cohort " in line]
        test_cohorts = datasets.load_dataset(tiny_dataset).split_assignment["test"]
        assert len(lines) == len(test_cohorts) > 0
        for k, line in enumerate(lines):
            assert f"joint pass of cohort {k} (predicted and perfect Whittle top-B): " in line
            assert "3 trajectories x " in line
            assert "mean discounted budget used " in line and " of B/(1-gamma) = " in line


class TestVerify:
    def test_all_claims_pass(self, tmp_path):
        out = tmp_path / "verify"
        code = main(["verify", "--seed", "0", "--out", str(out)])
        assert code == EXIT_OK
        payload = json.loads((out / "verify.json").read_text())
        assert len(payload["claims"]) == 6
        assert all(claim["passed"] for claim in payload["claims"])

    def test_reports_have_details(self):
        reports = run_verification(seed=1)
        names = {r["claim"] for r in reports}
        assert names == {
            "budget-overshoot",
            "spurious-minimum",
            "truthful-optimality",
            "mixture-equivalence",
            "dual-solver",
            "residual-monotonicity",
        }
