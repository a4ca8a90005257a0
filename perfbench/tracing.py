"""Span tracing of rmab_dfl's public functions, installed from outside the package.

Each traced function is replaced, at every module attribute of rmab_dfl
that holds it, by a wrapper that records a span (name, start, end,
parent, work counts). Modules import functions by name, so patching only
the defining module would miss most calls. Self time and counts are
derived from the spans when the pass ends.
"""

from __future__ import annotations

import importlib
import json
import math
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

MODULES = ("cli", "datasets", "mdp", "dec_layer", "planning", "learning")


def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def _policy_evaluations(args, kwargs, result):
    tensors = np.asarray(_arg(args, kwargs, 0, "tensors"))
    return {"mdp.policy_evaluations": tensors.shape[0] * 2 ** tensors.shape[1]}


def _over_cap(args, kwargs, result):
    tables, cfg = _arg(args, kwargs, 0, "tables"), _arg(args, kwargs, 2, "cfg")
    used = float(np.sum(result.z_star * tables.j_budget))
    return {"dec_layer.over_cap_solves": int(used > cfg.budget_cap)}


def _arm_steps(args, kwargs, result):
    cohort = _arg(args, kwargs, 0, "cohort")
    trajectories = _arg(args, kwargs, 2, "trajectories")
    # horizon rule of the rollouts: the discounted tail of N unit rewards
    # falls below horizon_tol
    setup, n = cohort.setup, cohort.num_arms
    horizon = max(
        int(math.ceil(math.log(setup.horizon_tol * (1 - setup.gamma) / n) / math.log(setup.gamma))),
        1,
    )
    return {"planning.simulated_arm_steps": trajectories * n * horizon}


def _dataset_bytes(args, kwargs, result):
    return {"datasets.dataset_bytes": Path(_arg(args, kwargs, 1, "path")).stat().st_size}


# (module, function, work counter or None)
FUNCTIONS = (
    ("cli", "main", None),
    ("datasets", "generate_synthetic", None),
    ("datasets", "save_dataset", _dataset_bytes),
    ("datasets", "load_dataset", None),
    ("mdp", "batched_policy_returns", _policy_evaluations),
    ("mdp", "batched_returns_gradients", None),
    ("mdp", "whittle_index", None),
    ("dec_layer", "forward_pass", _over_cap),
    ("dec_layer", "eval_lambda", None),
    ("dec_layer", "backward_pass", None),
    ("dec_layer", "build_returns_table", None),
    ("dec_layer", "dec_dfl_loss", None),
    ("planning", "simulate_joint", _arm_steps),
    ("learning", "sim_dfl_loss", None),
    ("learning", "run_epoch", None),
    ("learning", "evaluate_dq", None),
)

# (module, class, method, span name)
METHODS = (
    ("learning", "PredictiveModel", "forward", "learning.model_forward"),
    ("learning", "PredictiveModel", "backward", "learning.model_backward"),
    ("learning", "Adam", "step", "learning.adam_step"),
)

SPAN_NAMES = tuple(f"{m}.{f}" for m, f, _ in FUNCTIONS) + tuple(s for *_, s in METHODS)
WORK_COUNTS = (
    "mdp.policy_evaluations",
    "dec_layer.over_cap_solves",
    "planning.simulated_arm_steps",
    "datasets.dataset_bytes",
)


class Tracer:
    """Records spans while installed; `install` and `uninstall` bracket a pass."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, work):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = {"id": len(spans), "name": name, "parent": stack[-1] if stack else None}
            spans.append(span)
            stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if work is not None:
                span["work"] = work(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        package = importlib.import_module("rmab_dfl")
        modules = [package] + [importlib.import_module(f"rmab_dfl.{m}") for m in MODULES]
        for mod_name, fn_name, work in FUNCTIONS:
            original = getattr(importlib.import_module(f"rmab_dfl.{mod_name}"), fn_name, None)
            if original is None:
                continue  # removed by a later change: reported as no calls
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original, work)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, attr, value))
                        setattr(module, attr, wrapper)
        for mod_name, cls_name, meth, name in METHODS:
            cls = getattr(importlib.import_module(f"rmab_dfl.{mod_name}"), cls_name, None)
            original = vars(cls).get(meth) if cls is not None else None
            if original is None:
                continue
            self._restore.append((cls, meth, original))
            setattr(cls, meth, self._wrap(name, original, None))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.spans))

    def summary(self) -> dict[str, float]:
        """Self seconds and call count per span name, and the summed work counts."""
        child_time = defaultdict(float)
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        out: dict[str, float] = dict.fromkeys(WORK_COUNTS, 0)
        for name in SPAN_NAMES:
            out[f"{name}_s"] = 0.0
            out[f"{name}_calls"] = 0
        for span in self.spans:
            name = span["name"]
            out[f"{name}_s"] += span["end"] - span["start"] - child_time[span["id"]]
            out[f"{name}_calls"] += 1
            for key, value in span.get("work", {}).items():
                out[key] += value
        return out
