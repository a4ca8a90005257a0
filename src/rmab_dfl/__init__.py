"""Decision-focused learning toolkit for restless multi-armed bandits.

Predict per-beneficiary transition dynamics from features, plan budgeted
interventions, and train the predictors end-to-end through a
differentiable decomposed policy-optimization layer.
"""

__version__ = "0.1.0"

from .mdp import (
    CapacityError,
    DiscountedSetup,
    NumericError,
    RewardSpec,
    TransitionTensor,
    WhittleTable,
    engagement_rewards,
    uniform_setup,
    whittle_gradients,
    whittle_index,
    whittle_indices,
)
from .dec_layer import (
    DualSolution,
    InfeasibleBudgetError,
    RegularizerConfig,
    ReturnsTable,
    SolverConfig,
    backward_pass,
    build_returns_table,
    dec_dfl_loss,
    eval_lambda,
    forward_pass,
    solve_reference,
)
from .planning import (
    Cohort,
    FixedPerArmPolicy,
    SimulationResult,
    WhittleTopB,
    simulate_joint,
    top_b_actions,
)
from .datasets import (
    Dataset,
    DatasetManifest,
    generate_synthetic,
    load_dataset,
    save_dataset,
    transition_counts,
)
from .learning import (
    Adam,
    DatasetSplits,
    DQReport,
    LossSpec,
    ModelSpec,
    PredictiveModel,
    TrainingConfig,
    dataset_splits,
    evaluate_dq,
    mse_loss,
    nll_loss,
    sim_dfl_loss,
    train,
)

__all__ = [name for name in dir() if not name.startswith("_")]
