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
)
from .estimators import (
    EstimatorKind,
    EstimatorReport,
    WeightDiagnostics,
    diagnostics,
    evaluate_policy,
    normalized_weights,
    objective_value,
    rho_weights,
    value_doubly_controlled,
    value_ips_dpm,
    value_reweighted,
)
from .gradients import (
    ObjectivePass,
    fd_check,
    grad_doubly_controlled,
    grad_ips_dpm,
    grad_reweighted,
    gradient,
    run_grad_check,
    value_and_grad,
)
from .reward import (
    ControlScalar,
    RewardModel,
    control_scalar,
    estimate_c_hat,
    fit_reward_model,
)
from .simulator import (
    GroundTruth,
    LoggingPolicy,
    TaskSpec,
    generate_task,
    logging_policy_truth,
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
