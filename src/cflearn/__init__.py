"""Counterfactual learning and evaluation from logged bandit feedback.

Implements the importance-weighted, self-normalized, and doubly controlled
value estimators over finite candidate sets, their exact gradients, a
gradient-ascent trainer with early stopping, a synthetic task simulator
with known ground truth, and executable probes of the estimators'
degenerate maximizers.
"""

from .degeneracy import (
    DmaxPartition,
    ProbeResult,
    assignment_value,
    assignment_value_reweighted,
    collapse_run,
    partition_dmax,
    probe_theorem1,
    probe_theorem2,
)
from .domain import (
    Instance,
    Log,
    LoggedTuple,
    Mode,
    PolicyParams,
    log_prob_gradient,
    policy_probs,
)
from .errors import (
    CflearnError,
    ConfigurationError,
    DegenerateSupportError,
    FittingError,
    LogConsistencyError,
    ScoreOverflowError,
)
from .estimators import (
    EstimatorKind,
    ObjectivePass,
    diagnostics,
    estimate_c_hat,
    evaluate_policy,
    grad_doubly_controlled,
    grad_ips_dpm,
    grad_reweighted,
    normalized_weights,
    objective_value,
    rho_weights,
    value_and_grad,
    value_doubly_controlled,
    value_ips_dpm,
    value_reweighted,
)
from .gradients import fd_check, run_grad_check
from .reward import ControlScalar, RewardModel, control_scalar, fit_reward_model
from .simulator import (
    GroundTruth,
    LoggingPolicy,
    TaskSpec,
    generate_task,
    roll_log,
    split,
)
from .training import (
    EpochRecord,
    TrainConfig,
    TrainTrace,
    evaluate_truth,
    initial_params,
    train,
)

__version__ = "0.1.0"
