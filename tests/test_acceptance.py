"""Acceptance suite: twelve end-to-end criteria, one test each.

Each test prints a single CRITERION line with the measured quantities and
asserts the stated tolerance and time budget. Criteria 1-4 and 6 measure
with the `rmab-dfl verify` checks of rmab_dfl.checks, each under its own
seed, size, threshold and time bound. Oracles are independent of
the code paths they check: value iteration vs the batched returns engine,
dense-grid dual search vs the Newton dual solve, LP enumeration vs the
decomposed layer, central finite differences vs closed-form gradients.
The scalar returns oracles come from tests/oracles.py, which imports
nothing from rmab_dfl.
"""

import time

import numpy as np

from oracles import get_returns, value_iteration
from rmab_dfl import (
    Cohort,
    DiscountedSetup,
    LossSpec,
    RegularizerConfig,
    ReturnsTable,
    RewardSpec,
    SolverConfig,
    TrainingConfig,
    backward_pass,
    build_returns_table,
    dataset_splits,
    evaluate_dq,
    forward_pass,
    train,
)
from rmab_dfl.checks import (
    _random_cohort,
    check_budget_overshoot,
    check_mixture_equivalence,
    check_residual_monotonicity,
    check_spurious_minimum,
    check_truthful_optimality,
)
from rmab_dfl.dec_layer import dec_dfl_loss
from rmab_dfl.learning import Adam, ModelSpec, PredictiveModel, run_epoch
from rmab_dfl.mdp import ENGAGEMENT, policy_action_matrix, solve_policies
from rmab_dfl.datasets import DatasetManifest, generate_synthetic

GAMMA = 0.9


def _report(num: int, name: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"CRITERION {num} ({name}): {status} — {detail}")
    assert passed, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_01_budget_overshoot():
    start = time.perf_counter()
    ratio = check_budget_overshoot()["overshoot_ratio"]
    elapsed = time.perf_counter() - start
    _report(
        1,
        "budget-overshoot",
        abs(ratio - 100.0) <= 1.0 and elapsed < 1.0,
        f"audit ratio {ratio:.4f} (target 100 ± 1), {elapsed:.3f} s",
    )


def test_criterion_02_spurious_optimum_counterexample():
    start = time.perf_counter()
    gap = check_spurious_minimum()["loss_gap"]
    elapsed = time.perf_counter() - start
    _report(
        2,
        "uncorrected-prefers-wrong-prediction",
        gap > 0 and elapsed < 1.0,
        f"objective gap {gap:.5f} > 0, {elapsed:.3f} s",
    )


def test_criterion_03_truthful_optimality():
    start = time.perf_counter()
    worst = check_truthful_optimality(seed=3, cohorts=100, alternatives=20)["worst_margin"]
    elapsed = time.perf_counter() - start
    _report(
        3,
        "truthful-prediction-optimal",
        worst >= -1e-3 and elapsed < 120.0,
        f"worst margin {worst:.3g} >= -1e-3 over 100 cohorts x 20 predictions, {elapsed:.1f} s",
    )


def test_criterion_04_decomposed_joint_mixture_equivalence():
    start = time.perf_counter()
    worst = check_mixture_equivalence(seed=4, instances=25)["max_gap"]
    elapsed = time.perf_counter() - start
    _report(
        4,
        "mixture-equivalence",
        worst <= 1e-6 and elapsed < 120.0,
        f"max optimum gap {worst:.3g} <= 1e-6 over 25 instances, {elapsed:.1f} s",
    )


def _grid_dual_oracle(tables, reg, cfg):
    """Dual multiplier by dense grid search with local refinement.

    Independent of the forward-pass code path: the inner softmax and
    residual are recomputed here from scratch.
    """

    def residual(lam):
        logits = (tables.j_pred - lam * tables.j_budget) / reg.alpha
        logits = logits - logits.max(axis=1, keepdims=True)
        e = np.exp(logits)
        z = e / e.sum(axis=1, keepdims=True)
        return float(np.sum(z * tables.j_budget) - cfg.budget_cap), z

    if residual(0.0)[0] <= 0:
        return 0.0, residual(0.0)[1]
    lo, hi = 0.0, cfg.dual_bound
    for points in (4001, 101, 101, 101):
        grid = np.linspace(lo, hi, points)
        vals = np.array([residual(g)[0] for g in grid])
        k = int(np.searchsorted(-vals, 0.0))  # first index with residual <= 0
        k = min(max(k, 1), points - 1)
        lo, hi = grid[k - 1], grid[k]
    lam = 0.5 * (lo + hi)
    return lam, residual(lam)[1]


def test_criterion_05_forward_pass_vs_grid_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(5)
    reg = RegularizerConfig(alpha=0.1)
    max_lam = max_z = max_slack = 0.0
    for _ in range(100):
        truth, cfg, setup = _random_cohort(rng, n=int(rng.integers(2, 5)))
        cfg = SolverConfig(budget=cfg.budget, gamma=cfg.gamma, epsilon=1e-9)
        tables = build_returns_table(truth, truth, setup)
        fast = forward_pass(tables, reg, cfg)
        lam_oracle, z_oracle = _grid_dual_oracle(tables, reg, cfg)
        max_lam = max(max_lam, abs(fast.lambda_star - lam_oracle))
        max_z = max(max_z, float(np.max(np.abs(fast.z_star - z_oracle))))
        max_slack = max(max_slack, abs(fast.lambda_star * fast.slack_xi) / cfg.budget_cap)
    elapsed = time.perf_counter() - start
    _report(
        5,
        "forward-pass-oracle",
        max_lam <= 2e-5 and max_z <= 1e-4 and max_slack <= 1e-6 and elapsed < 60.0,
        f"max |dlambda| {max_lam:.3g} <= 2e-5, max |dZ| {max_z:.3g} <= 1e-4, "
        f"max rel slack {max_slack:.3g} <= 1e-6, {elapsed:.1f} s",
    )


def test_criterion_06_residual_monotonicity():
    start = time.perf_counter()
    violations = check_residual_monotonicity(seed=6, draws=10_000)["violations"]
    elapsed = time.perf_counter() - start
    _report(
        6,
        "residual-monotonicity",
        violations == 0 and elapsed < 60.0,
        f"{violations} violations over 10000 draws, {elapsed:.1f} s",
    )


def test_criterion_07_gradient_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    reg = RegularizerConfig(alpha=1.0)
    h = 1e-5
    worst_layer = worst_pipeline = 0.0
    for _ in range(50):
        states = int(rng.choice([2, 3]))
        n = int(rng.integers(2, 5 if states == 3 else 8))
        # the multiplier must be resolved to machine precision: its
        # quantization otherwise shows up as noise in the differences
        truth, cfg, setup = _random_cohort(rng, n=n, states=states)
        cfg = SolverConfig(budget=cfg.budget, gamma=cfg.gamma, epsilon=1e-15)
        pred = rng.dirichlet(np.ones(states), size=(n, states, 2))

        # (a) closed-form layer backward vs finite differences on the tables
        tables = build_returns_table(pred, truth, setup)
        sol = forward_pass(tables, reg, cfg)
        g_pred, g_budget = backward_pass(sol, tables, reg, upstream=tables.j_true)

        def loss_of(jp, jb):
            t = ReturnsTable(j_pred=jp, j_true=tables.j_true, j_budget=jb)
            s = forward_pass(t, reg, cfg)
            return float(np.sum(s.z_star * t.j_true))

        hl = 1e-6  # small enough that the O(h^2) truncation term is negligible
        scale = max(float(np.max(np.abs(g_pred))), float(np.max(np.abs(g_budget))), 1e-8)
        for (i, j) in zip(*np.nonzero(np.ones_like(tables.j_pred))):
            e = np.zeros_like(tables.j_pred)
            e[i, j] = hl
            fd = (loss_of(tables.j_pred + e, tables.j_budget)
                  - loss_of(tables.j_pred - e, tables.j_budget)) / (2 * hl)
            worst_layer = max(worst_layer, abs(g_pred[i, j] - fd) / max(abs(fd), scale * 1e-3, 1e-8))
            if tables.j_budget[i, j] >= hl:
                fd = (loss_of(tables.j_pred, tables.j_budget + e)
                      - loss_of(tables.j_pred, tables.j_budget - e)) / (2 * hl)
            else:  # second-order one-sided stencil: usage cannot go negative
                fd = (
                    -3.0 * loss_of(tables.j_pred, tables.j_budget)
                    + 4.0 * loss_of(tables.j_pred, tables.j_budget + e)
                    - loss_of(tables.j_pred, tables.j_budget + 2 * e)
                ) / (2 * hl)
            worst_layer = max(worst_layer, abs(g_budget[i, j] - fd) / max(abs(fd), scale * 1e-3, 1e-8))

        # (b) full pipeline: d(loss)/d(pred) along simplex-tangent directions
        loss, grad = dec_dfl_loss(pred, truth, reg, cfg, setup)
        gnorm = max(float(np.max(np.abs(grad))), 1e-8)
        for _ in range(3):
            i = int(rng.integers(n))
            s = int(rng.integers(states))
            a = int(rng.integers(2))
            j, k = rng.choice(states, size=2, replace=False)
            d = np.zeros_like(pred)
            d[i, s, a, j], d[i, s, a, k] = 1.0, -1.0
            step = min(h, 0.5 * min(pred[i, s, a, j], pred[i, s, a, k]))
            if step < 1e-9:
                continue
            lp, _ = dec_dfl_loss(pred + step * d, truth, reg, cfg, setup)
            lm, _ = dec_dfl_loss(pred - step * d, truth, reg, cfg, setup)
            fd = (lp - lm) / (2 * step)
            an = float(np.sum(grad * d))
            if max(abs(an), abs(fd)) < 1e-6:
                continue  # gradient is zero to working precision: FD is pure noise
            worst_pipeline = max(worst_pipeline, abs(an - fd) / max(abs(fd), gnorm * 1e-3, 1e-8))
    elapsed = time.perf_counter() - start
    _report(
        7,
        "gradient-correctness",
        worst_layer <= 1e-4 and worst_pipeline <= 1e-4 and elapsed < 300.0,
        f"layer rel err {worst_layer:.3g} <= 1e-4, pipeline rel err {worst_pipeline:.3g} <= 1e-4, "
        f"{elapsed:.1f} s",
    )


def test_criterion_08_returns_vs_value_iteration():
    start = time.perf_counter()
    rng = np.random.default_rng(8)
    reward = RewardSpec(ENGAGEMENT)
    worst = 0.0
    for _ in range(100):
        states = int(rng.integers(2, 9))
        P = rng.dirichlet(np.ones(states), size=(states, 2))
        setup = DiscountedSetup(GAMMA, rng.dirichlet(np.ones(states)))
        j = int(rng.integers(2 ** states))
        engine = solve_policies(P[None], setup).returns(reward)[j, 0]
        actions = policy_action_matrix(states)[j]
        iterated = value_iteration(P, actions, GAMMA, setup.initial_dist, residual=1e-10)
        worst = max(worst, abs(engine - iterated))
    elapsed = time.perf_counter() - start
    _report(
        8,
        "returns-exactness",
        worst <= 1e-8 and elapsed < 30.0,
        f"max |engine - VI| {worst:.3g} <= 1e-8 over 100 arms up to 8 states, {elapsed:.1f} s",
    )


def test_criterion_09_epoch_timing_separation():
    start = time.perf_counter()
    dataset = generate_synthetic(DatasetManifest())
    times = {}
    for loss_name, trajectories in (("fast-dec-dfl", 100), ("sim-dfl", 1000)):
        spec = LossSpec(name=loss_name, trajectories=trajectories, alpha=1.0)
        data = dataset_splits(dataset)
        model = PredictiveModel(
            ModelSpec(),
            data.train[0].features.shape[1],
            data.train[0].num_states,
            seed=0,
        )
        optimizer = Adam(1e-3)
        t0 = time.perf_counter()
        run_epoch(model, optimizer, data.train, data.train_trajectories, spec, 0)
        times[loss_name] = time.perf_counter() - t0
    ratio = times["sim-dfl"] / times["fast-dec-dfl"]
    elapsed = time.perf_counter() - start
    _report(
        9,
        "epoch-timing-separation",
        ratio >= 50.0 and elapsed < 1800.0,
        f"sim-dfl {times['sim-dfl']:.2f} s/epoch vs fast-dec-dfl "
        f"{times['fast-dec-dfl']:.4f} s/epoch, ratio {ratio:.0f}x >= 50x, {elapsed:.1f} s",
    )


def test_criterion_10_backward_scaling():
    start = time.perf_counter()
    rng = np.random.default_rng(10)
    times = {}
    for n in (200, 2000):
        tensors = rng.dirichlet(np.ones(2), size=(n, 2, 2))
        setup = DiscountedSetup(GAMMA, np.array([0.5, 0.5]))
        tables = build_returns_table(tensors, tensors, setup)
        cfg = SolverConfig(budget=0.1 * n, gamma=GAMMA)
        reg = RegularizerConfig(alpha=0.1)
        sol = forward_pass(tables, reg, cfg)
        best = np.inf
        for _ in range(5):
            t0 = time.perf_counter()
            backward_pass(sol, tables, reg, upstream=tables.j_true)
            best = min(best, time.perf_counter() - t0)
        times[n] = best
    ratio = times[2000] / times[200]
    elapsed = time.perf_counter() - start
    _report(
        10,
        "backward-linear-scaling",
        ratio <= 15.0 and elapsed < 300.0,
        f"backward {times[200]*1e3:.3f} ms (N=200) -> {times[2000]*1e3:.3f} ms (N=2000), "
        f"ratio {ratio:.1f}x <= 15x for 10x arms, {elapsed:.1f} s",
    )


def test_criterion_11_training_ordering():
    start = time.perf_counter()
    dataset = generate_synthetic(DatasetManifest())
    test_cohorts = dataset.cohort_objects("test")
    means = {}
    for loss_name in ("fast-dec-dfl", "nll"):
        data = dataset_splits(dataset)
        dqs = []
        for seed in range(5):
            best = None
            for lr in (1e-2, 1e-3):
                cfg = TrainingConfig(
                    loss=LossSpec(name=loss_name, alpha=1.0),
                    learning_rate=lr,
                    epochs=30,
                    seed=seed,
                )
                model, _, val = train(cfg, data)
                score = -val if cfg.loss.maximize else val
                if best is None or score < best[0]:
                    best = (score, model)
            report = evaluate_dq(best[1], test_cohorts, trajectories=0, seed=0)
            dqs.append(report.normalized_decomposed_dq)
        means[loss_name] = float(np.mean(dqs))
    dec, nll = means["fast-dec-dfl"], means["nll"]
    elapsed = time.perf_counter() - start
    _report(
        11,
        "training-ordering",
        dec > nll and 0.75 <= dec <= 1.0 and elapsed < 7200.0,
        f"mean normalized decomposed DQ: fast-dec-dfl {dec:.4f} > nll {nll:.4f}, "
        f"dec in [0.75, 1.0], {elapsed:.1f} s",
    )


def test_criterion_12_metric_anchors():
    start = time.perf_counter()
    rng = np.random.default_rng(12)
    worst_perfect = worst_never = 0.0
    for _ in range(5):
        truth, cfg, setup = _random_cohort(rng, n=4)
        cohort = Cohort(
            features=np.zeros((4, 1)), tensors=truth, budget=cfg.budget, setup=setup
        )
        report = evaluate_dq(None, [cohort], trajectories=0, predictions=[truth])
        worst_perfect = max(worst_perfect, abs(report.normalized_decomposed_dq - 1.0))
        # never-act anchor: score of the all-passive mixture through the
        # same normalization must land at exactly 0; its value comes from
        # the scalar oracle, not the engine behind evaluate_dq
        never = np.zeros(truth.shape[1], dtype=int)
        never_value = sum(get_returns(arm, never, setup.gamma, setup.initial_dist) for arm in truth)
        span = report.perfect_decomposed_dq - report.never_act_dq
        worst_never = max(worst_never, abs((never_value - report.never_act_dq) / span))
    elapsed = time.perf_counter() - start
    _report(
        12,
        "metric-anchors",
        worst_perfect <= 1e-9 and worst_never <= 1e-9 and elapsed < 10.0,
        f"perfect anchor |dq - 1| {worst_perfect:.3g}, never-act anchor |dq| "
        f"{worst_never:.3g}, {elapsed:.1f} s",
    )
