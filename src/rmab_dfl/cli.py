"""Command-line entry point.

Subcommands: generate (synthetic datasets), train (fit a model under a
chosen loss), eval (decision-quality report on the test split), bench
(epoch and layer timings), verify (counterexample and property checks),
export (plot-ready CSV files). Every command is deterministic given its
flags and seed, but generate's features also depend on the BLAS thread
count, unlike its tensors, trajectories and splits. Result files carry
the dataset manifest hash, seed, and toolkit version, and are written
atomically (temp + rename).

Exit codes: 0 success, 2 input error, 3 numeric error, 4 failed
verification.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import hashlib
import json
import logging
import os
import sys
import time
from collections.abc import Mapping
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .mdp import DiscountedSetup, NumericError, returns_on_truth, whittle_indices
from .dec_layer import RegularizerConfig, SolverConfig, backward_pass, solve_stack
from .checks import run_verification
from .datasets import (
    DatasetManifest,
    atomic_replace,
    generate_synthetic,
    load_dataset,
    logger as dataset_log,
    save_dataset,
)
from .learning import (
    LOSSES,
    Adam,
    LossSpec,
    ModelSpec,
    PredictiveModel,
    TrainingConfig,
    dataset_splits,
    evaluate_dq,
    run_epoch,
    train as train_model,
)
from .planning import top_b_actions

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3
EXIT_VERIFY = 4

OUTPUT_ROOT_ENV = "RMAB_DFL_OUT"


# ---------------------------------------------------------------------------
# Output plumbing


def _atomic_write(path: Path, text: str) -> None:
    atomic_replace(path, lambda fh: fh.write(text.encode()))


def _check_overwrite(path: Path, overwrite: bool) -> None:
    if path.exists() and not overwrite:
        raise ValueError(f"{path} exists; pass --overwrite to replace it")


def _existing_file(path: str | Path, what: str) -> Path:
    path = Path(path)
    if not path.is_file():
        raise ValueError(f"{what} not found: {path}")
    return path


def _require_fields(record, fields, source) -> None:
    missing = [k for k in fields if not isinstance(record, Mapping) or k not in record]
    if missing:
        raise ValueError(f"{source} lacks the fields {missing}")


def _manifest_hash(manifest: DatasetManifest) -> str:
    blob = json.dumps(dataclasses.asdict(manifest), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _provenance_line(manifest_hash: str, seed: int) -> str:
    return f"# manifest_hash={manifest_hash} seed={seed} version={__version__}\n"


def _write_csv(path: Path, header: list[str], rows: list[list], provenance: str) -> None:
    lines = [provenance, ",".join(header) + "\n"]
    for row in rows:
        lines.append(",".join(str(x) for x in row) + "\n")
    _atomic_write(path, "".join(lines))


def _out_dir(arg: str | None) -> Path:
    if arg is not None:
        return Path(arg)
    root = os.environ.get(OUTPUT_ROOT_ENV)
    return Path(root) if root else Path("results")


# ---------------------------------------------------------------------------
# generate


def cmd_generate(args) -> int:
    # keep the default 20/20/60 proportions for any cohort count
    train = max(args.cohorts // 5, 1)
    val = max(args.cohorts // 5, 1)
    if train + val >= args.cohorts:
        raise ValueError(f"need at least 3 cohorts for a train/val/test split, got {args.cohorts}")
    manifest = DatasetManifest(
        cohorts=args.cohorts,
        arms_per_cohort=args.arms,
        budget=args.budget,
        states=args.states,
        gamma=args.gamma,
        feature_dim=args.feature_dim,
        seed=args.seed,
        split_sizes=(train, val, args.cohorts - train - val),
    )
    out = _out_dir(args.out) / "dataset.json"
    _check_overwrite(out, args.overwrite)
    started = time.perf_counter()
    dataset = generate_synthetic(manifest)
    generated = time.perf_counter()
    save_dataset(dataset, out)
    dataset_log.info(
        "%d cohorts of %d arms: generate_synthetic %.2f s, save_dataset %.1f MB in %.2f s",
        manifest.cohorts, manifest.arms_per_cohort, generated - started,
        out.stat().st_size / 1e6, time.perf_counter() - generated,
    )
    print(f"wrote {out} ({manifest.cohorts} cohorts, hash {_manifest_hash(manifest)})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# train


def cmd_train(args) -> int:
    dataset_path = _existing_file(args.dataset, "dataset")
    out = _out_dir(args.out)
    model_path = out / "model.npz"
    _check_overwrite(model_path, args.overwrite)
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    dataset = load_dataset(dataset_path)
    spec = LossSpec(name=args.loss, trajectories=args.trajectories, alpha=args.alpha)
    model_spec = MODEL_FLAGS[args.model]
    # every run's configuration is checked before any run starts
    configs = [
        TrainingConfig(loss=spec, learning_rate=lr, epochs=args.epochs, seed=seed, model=model_spec)
        for lr in args.lr
        for seed in args.seed
    ]
    run = functools.partial(train_model, data=dataset_splits(dataset))
    if args.jobs > 1 and len(configs) > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(run, configs))
    else:
        results = [run(config) for config in configs]

    sign = -1.0 if spec.maximize else 1.0
    config, (model, _, val_value) = min(zip(configs, results), key=lambda r: sign * r[1][2])
    lr, seed = config.learning_rate, config.seed
    log_lines = [json.dumps(rec) for _, log, _ in results for rec in log]
    out.mkdir(parents=True, exist_ok=True)
    _atomic_write(out / "log.jsonl", "".join(line + "\n" for line in log_lines))
    mhash = _manifest_hash(dataset.manifest)
    meta = {
        "loss": spec.name,
        "lr": lr,
        "seed": seed,
        "val_value": val_value,
        "alpha": spec.alpha,
        "model": args.model,
        "manifest_hash": mhash,
        "version": __version__,
        "feature_dim": dataset.manifest.feature_dim,
        "states": dataset.manifest.states,
    }
    atomic_replace(model_path, lambda fh: np.savez(fh, theta=model.theta, meta=json.dumps(meta)))
    _atomic_write(out / "result.json", json.dumps(meta, indent=2) + "\n")
    print(f"best lr={lr} seed={seed} val={val_value:.6f}; wrote {model_path}")
    return EXIT_OK


def _load_model(path: Path, manifest: DatasetManifest) -> tuple[PredictiveModel, dict]:
    """The model at path, checked to read the dataset of manifest."""
    blob = np.load(_existing_file(path, "model"), allow_pickle=False)
    _require_fields(blob, ("meta", "theta"), path)
    meta = json.loads(str(blob["meta"]))
    _require_fields(meta, ("loss", "model", "feature_dim", "states", "seed"), path)
    if meta["model"] not in MODEL_FLAGS:
        raise ValueError(f"{path} names the unknown model {meta['model']!r}")
    for key in ("states", "feature_dim", "seed"):
        if type(meta[key]) is not int:  # a JSON integer, not a bool or a float
            raise ValueError(f"{path}: {key} must be an integer, got {meta[key]!r}")
    for key in ("states", "feature_dim"):
        if meta[key] != getattr(manifest, key):
            raise ValueError(f"{path} has {key}={meta[key]}, the dataset {getattr(manifest, key)}")
    theta = np.asarray(blob["theta"], dtype=float)
    if not np.isfinite(theta).all():
        raise ValueError(f"{path} holds a non-finite model parameter")
    spec = MODEL_FLAGS[meta["model"]]
    return PredictiveModel(spec, meta["feature_dim"], meta["states"], theta=theta), meta


MODEL_FLAGS = {
    "linear": ModelSpec(),
    "mlp-small": ModelSpec(layers=2, hidden_dim=64),
    "mlp-large": ModelSpec(layers=4, hidden_dim=500),
}


# ---------------------------------------------------------------------------
# eval


def cmd_eval(args) -> int:
    dataset_path = _existing_file(args.dataset, "dataset")
    target = _out_dir(args.out) / "dq.json"
    _check_overwrite(target, args.overwrite)
    dataset = load_dataset(dataset_path)
    model, meta = _load_model(Path(args.model), dataset.manifest)
    cohorts = dataset.cohort_objects(args.split)
    report = evaluate_dq(model, cohorts, trajectories=args.trajectories, seed=args.seed)
    payload = {
        "loss": meta["loss"],
        "dataset": str(dataset_path),
        "seed": meta["seed"],
        "split": args.split,
        "manifest_hash": _manifest_hash(dataset.manifest),
        "version": __version__,
        **dataclasses.asdict(report),
    }
    _atomic_write(target, json.dumps(payload, indent=2, allow_nan=False) + "\n")
    njd = report.normalized_joint_dq
    ndd = report.normalized_decomposed_dq
    print(
        "normalized joint DQ = "
        + ("undefined" if njd is None else f"{njd:.4f}")
        + ", normalized decomposed DQ = "
        + ("undefined" if ndd is None else f"{ndd:.4f}")
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# bench


def bench_epoch_times(
    dataset, losses: list[str], repeats: int, seed: int, trajectories: int = 1000
) -> dict[str, tuple[float, float]]:
    """Wall time of one full training epoch per loss (mean, sem over repeats)."""
    data = dataset_splits(dataset)
    feature_dim = data.train[0].features.shape[1]
    states = data.train[0].num_states
    out = {}
    for loss_name in losses:
        spec = LossSpec(name=loss_name, trajectories=trajectories)
        times = []
        for rep in range(repeats):
            model = PredictiveModel(MODEL_FLAGS["linear"], feature_dim, states, seed=seed)
            optimizer = Adam(1e-3)
            start = time.perf_counter()
            run_epoch(model, optimizer, data.train, data.train_trajectories, spec, seed + rep)
            times.append(time.perf_counter() - start)
        times = np.array(times)
        sem = float(times.std(ddof=1) / np.sqrt(repeats)) if repeats > 1 else 0.0
        out[loss_name] = (float(times.mean()), sem)
    return out


def bench_layer_scaling(
    sizes=(100, 500, 2000), seed: int = 0, gamma: float = 0.9
) -> dict[int, tuple[float, float]]:
    """Forward and closed-form backward wall time of the dual layer vs N."""
    rng = np.random.default_rng(seed)
    out = {}
    for n in sizes:
        tensors = rng.dirichlet(np.ones(2), size=(n, 2, 2))
        setup = DiscountedSetup(gamma, np.array([0.5, 0.5]))
        j_true, j_budget = returns_on_truth(tensors, setup)
        cfg = SolverConfig(budget=0.1 * n, gamma=gamma)
        reg = RegularizerConfig(alpha=0.1)
        start = time.perf_counter()
        sol = solve_stack(j_true[None], j_budget[None], reg, [cfg])
        fwd = time.perf_counter() - start
        start = time.perf_counter()
        backward_pass(sol.z_star[0], sol.lambda_star[0], sol.slack_xi[0], j_budget, reg,
                      upstream=j_true)
        bwd = time.perf_counter() - start
        out[n] = (fwd, bwd)
    return out


def cmd_bench(args) -> int:
    dataset_path = _existing_file(args.dataset, "dataset")
    if args.repeats < 1:
        raise ValueError(f"--repeats must be at least 1, got {args.repeats}")
    dataset = load_dataset(dataset_path)
    epoch_times = bench_epoch_times(
        dataset, args.losses, args.repeats, args.seed, args.trajectories
    )
    scaling = bench_layer_scaling(seed=args.seed, gamma=dataset.manifest.gamma)
    out = _out_dir(args.out)
    prov = _provenance_line(_manifest_hash(dataset.manifest), args.seed)
    _write_csv(
        out / "time_table.csv",
        ["loss", "seconds_per_epoch_mean", "seconds_per_epoch_sem"],
        [[k, f"{v[0]:.6f}", f"{v[1]:.6f}"] for k, v in epoch_times.items()],
        prov,
    )
    _write_csv(
        out / "layer_scaling.csv",
        ["num_arms", "forward_seconds", "backward_seconds"],
        [[n, f"{v[0]:.6f}", f"{v[1]:.6f}"] for n, v in scaling.items()],
        prov,
    )
    for k, (mean, sem) in epoch_times.items():
        print(f"{k}: {mean:.4f} ± {sem:.4f} s/epoch")
    print(f"wrote {out / 'time_table.csv'} and {out / 'layer_scaling.csv'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify: fixed counterexamples and randomized property suites (checks.py)


def cmd_verify(args) -> int:
    reports = run_verification(args.seed)
    all_passed = True
    for rep in reports:
        status = "PASS" if rep["passed"] else "FAIL"
        detail = ", ".join(
            f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
            for k, v in rep.items()
            if k not in ("claim", "passed")
        )
        print(f"[{status}] {rep['claim']}: {detail}")
        all_passed &= rep["passed"]
    if args.out is not None:
        out = _out_dir(args.out)
        out.mkdir(parents=True, exist_ok=True)
        _atomic_write(
            out / "verify.json",
            json.dumps({"seed": args.seed, "version": __version__, "claims": reports}, indent=2)
            + "\n",
        )
    return EXIT_OK if all_passed else EXIT_VERIFY


# ---------------------------------------------------------------------------
# export


DQ_METRICS = ("normalized_joint_dq", "normalized_decomposed_dq")
DQ_FIELDS = ("loss", "dataset", "split") + DQ_METRICS


def _check_dq_record(rec, source) -> None:
    """The key fields must be strings, which the table groups and sorts by,
    and each metric a finite JSON number (not a bool) or null."""
    for key in ("loss", "dataset", "split"):
        if not isinstance(rec[key], str):
            raise ValueError(f"{source}: {key} must be a string, got {rec[key]!r}")
    for metric in DQ_METRICS:
        value = rec[metric]
        if value is not None and not (type(value) in (int, float) and -np.inf < value < np.inf):
            raise ValueError(f"{source}: {metric} must be a finite number or null, got {value!r}")


def _export_dq_table(results: Path, out: Path) -> None:
    files = sorted(results.glob("**/dq.json")) if results.is_dir() else [results]
    groups: dict[tuple, list] = {}
    prov = f"# version={__version__}\n"
    for f in files:
        rec = json.loads(_existing_file(f, "results file").read_text())
        _require_fields(rec, DQ_FIELDS, f)
        _check_dq_record(rec, f)
        key = (rec["loss"], rec["dataset"], rec["split"])
        groups.setdefault(key, []).append(rec)
    rows = []
    for (loss, dataset, split), recs in sorted(groups.items()):
        for metric in DQ_METRICS:
            vals = np.array([r[metric] for r in recs if r[metric] is not None])
            if vals.size == 0:
                mean, sem = "undefined", "undefined"
            else:
                mean = f"{vals.mean():.6f}"
                sem = f"{vals.std(ddof=1) / np.sqrt(vals.size):.6f}" if vals.size > 1 else "0.0"
            rows.append([loss, dataset, split, metric, mean, sem])
    _write_csv(
        out / "dq_table.csv",
        ["loss", "dataset", "split", "metric", "mean", "sem"],
        rows,
        prov,
    )


def _export_dq_vs_epoch(results: Path, out: Path) -> None:
    log = _existing_file(results / "log.jsonl" if results.is_dir() else results, "training log")
    rows = []
    for line in log.read_text().splitlines():
        rec = json.loads(line)
        _require_fields(rec, ("split", "epoch", "loss", "value"), log)
        if rec["split"] == "val":
            rows.append(
                [rec.get("lr", ""), rec.get("seed", ""), rec["epoch"], rec["loss"], rec["value"]]
            )
    _write_csv(
        out / "dq_vs_epoch.csv",
        ["lr", "seed", "epoch", "loss", "value"],
        rows,
        f"# version={__version__}\n",
    )


def _export_wi_scatter(args, out: Path) -> None:
    if args.dataset is None or args.model is None:
        raise ValueError("wi_scatter export needs --dataset and --model")
    dataset = load_dataset(_existing_file(args.dataset, "dataset"))
    model, meta = _load_model(Path(args.model), dataset.manifest)
    cohorts = dataset.cohort_objects(args.split)
    rows = []
    arm_id = 0
    for cohort in cohorts:
        pred, _ = model.forward(cohort.features)
        true_wi = whittle_indices(cohort.tensors, cohort.setup)[:, 0]
        pred_wi = whittle_indices(pred, cohort.setup)[:, 0]
        selected = top_b_actions(pred_wi, int(round(cohort.budget)))
        for i in range(cohort.num_arms):
            rows.append([arm_id, f"{true_wi[i]:.8f}", f"{pred_wi[i]:.8f}", selected[i]])
            arm_id += 1
    prov = _provenance_line(_manifest_hash(dataset.manifest), meta["seed"])
    _write_csv(out / "wi_scatter.csv", ["arm", "true_wi", "predicted_wi", "selected"], rows, prov)


def cmd_export(args) -> int:
    out = _out_dir(args.out)
    results = Path(args.results) if args.results else out
    if args.kind == "dq_table":
        _export_dq_table(results, out)
    elif args.kind == "dq_vs_epoch":
        _export_dq_vs_epoch(results, out)
    else:  # wi_scatter, the last of argparse's choices
        _export_wi_scatter(args, out)
    print(f"wrote {out / (args.kind + '.csv')}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rmab-dfl",
        description="Decision-focused learning toolkit for restless bandit interventions.",
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="log to stderr: -v at INFO, -vv at DEBUG",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a synthetic dataset")
    g.add_argument("--out", default=None)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--cohorts", type=int, default=100)
    g.add_argument("--arms", type=int, default=100)
    g.add_argument("--states", type=int, default=2)
    g.add_argument("--budget", type=float, default=10.0)
    g.add_argument("--gamma", type=float, default=0.9)
    g.add_argument("--feature-dim", type=int, default=16)
    g.add_argument("--overwrite", action="store_true")
    g.set_defaults(func=cmd_generate)

    t = sub.add_parser("train", help="train a predictive model")
    t.add_argument("--dataset", required=True)
    t.add_argument("--out", default=None)
    t.add_argument("--loss", default="fast-dec-dfl", choices=LOSSES)
    t.add_argument("--trajectories", type=int, default=100)
    t.add_argument("--alpha", type=float, default=1.0)
    t.add_argument("--lr", type=float, nargs="+", default=[1e-2, 1e-3, 1e-4, 1e-5])
    t.add_argument("--epochs", type=int, default=50)
    t.add_argument("--seed", type=int, nargs="+", default=[0])
    t.add_argument("--jobs", type=int, default=1)
    t.add_argument("--model", default="linear", choices=sorted(MODEL_FLAGS))
    t.add_argument("--overwrite", action="store_true")
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="decision-quality report for a trained model")
    e.add_argument("--dataset", required=True)
    e.add_argument("--model", required=True)
    e.add_argument("--out", default=None)
    e.add_argument("--split", default="test", choices=["train", "val", "test"])
    e.add_argument("--trajectories", type=int, default=1000)
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--overwrite", action="store_true")
    e.set_defaults(func=cmd_eval)

    b = sub.add_parser("bench", help="epoch and layer timing tables")
    b.add_argument("--dataset", required=True)
    b.add_argument("--out", default=None)
    b.add_argument(
        "--losses",
        nargs="+",
        default=list(LOSSES),
        choices=LOSSES,
    )
    b.add_argument("--trajectories", type=int, default=1000)
    b.add_argument("--repeats", type=int, default=5)
    b.add_argument("--seed", type=int, default=0)
    b.set_defaults(func=cmd_bench)

    v = sub.add_parser("verify", help="counterexample and property checks")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--out", default=None)
    v.set_defaults(func=cmd_verify)

    x = sub.add_parser("export", help="plot-ready CSV files from results")
    x.add_argument(
        "--kind", required=True, choices=["dq_table", "dq_vs_epoch", "wi_scatter"]
    )
    x.add_argument("--results", default=None)
    x.add_argument("--out", default=None)
    x.add_argument("--dataset", default=None)
    x.add_argument("--model", default=None)
    x.add_argument("--split", default="test", choices=["train", "val", "test"])
    x.set_defaults(func=cmd_export)
    return parser


@contextlib.contextmanager
def _stderr_logging(verbosity: int):
    """Send the package's log records to stderr while a command runs:
    INFO and above for verbosity 1, DEBUG and above for 2 or more.
    """
    if not verbosity:
        yield
        return
    logger = logging.getLogger(__package__)
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG if verbosity > 1 else logging.INFO)
    try:
        yield
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with _stderr_logging(args.verbose):
        try:
            return args.func(args)
        except (FileNotFoundError, ValueError) as exc:
            print(f"input error: {exc}", file=sys.stderr)
            return EXIT_INPUT
        except (NumericError, np.linalg.LinAlgError, FloatingPointError) as exc:
            print(f"numeric error: {exc}", file=sys.stderr)
            return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
