"""Gradient-ascent training over any counterfactual objective.

Training maximizes the configured estimator on the train log with the
update ``w <- w + lr * grad``, evaluates the same objective on a held-out
validation log after every epoch, and optionally stops early when the
validation value has not improved for a configured number of epochs.  The
true expected reward never steers training; it is recorded in the trace
only when a simulator ground truth is supplied, for diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .domain import Instance, Log, PolicyParams, _integer, _probs, _real, _stack_candidates
from .errors import ConfigurationError, DegenerateSupportError
from .estimators import EstimatorKind, check_mode
from .gradients import value_and_grad
from .reward import RewardModel, fit_reward_model
from .simulator import GroundTruth


@dataclass
class TrainConfig:
    """Hyperparameters of one training run.

    ``batch_size`` is a tuple count or "full".  ``normalize`` controls where
    self-normalized weights are renormalized during minibatch steps: within
    the batch ("batch") or against the full train log ("full").  ``c_refresh``
    controls how often the control scalar of the cDC/cDR objectives is
    re-estimated, since it depends on the current weights.
    """

    kind: EstimatorKind
    learning_rate: float = 0.1
    epochs: int = 100
    batch_size: int | str = "full"
    seed: int = 0
    early_stop_patience: int = 0
    c_refresh: str = "epoch"  # "epoch" | "once"
    ridge_lambda: float = 1e-3
    normalize: str = "batch"  # "batch" | "full"
    init: str = "zeros"  # "zeros" | "gaussian"
    init_sigma: float = 0.01
    alpha: float = 1.0

    def __post_init__(self) -> None:
        if isinstance(self.kind, str):
            self.kind = EstimatorKind(self.kind)
        if not isinstance(self.kind, EstimatorKind):
            raise ValueError(f"kind must be an estimator kind, got {self.kind!r}")
        for key in ("learning_rate", "ridge_lambda", "init_sigma", "alpha"):
            _real(key, getattr(self, key))
        for key in ("epochs", "seed", "early_stop_patience"):
            _integer(key, getattr(self, key))
        if self.learning_rate < 0:
            raise ValueError(f"learning_rate must be non-negative, got {self.learning_rate}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be a non-negative integer, got {self.epochs!r}")
        if self.early_stop_patience < 0:
            raise ValueError(f"early_stop_patience must be non-negative, got {self.early_stop_patience}")
        if self.batch_size != "full" and (
            isinstance(self.batch_size, bool)
            or not isinstance(self.batch_size, int)
            or self.batch_size < 1
        ):
            raise ValueError(f'batch_size must be a positive integer or "full", got {self.batch_size!r}')
        if self.c_refresh not in ("epoch", "once"):
            raise ValueError(f'c_refresh must be "epoch" or "once", got {self.c_refresh}')
        if self.normalize not in ("batch", "full"):
            raise ValueError(f'normalize must be "batch" or "full", got {self.normalize}')
        if self.init not in ("zeros", "gaussian"):
            raise ValueError(f'init must be "zeros" or "gaussian", got {self.init}')
        if self.ridge_lambda < 0:
            raise ValueError(f"ridge_lambda must be non-negative, got {self.ridge_lambda}")
        if self.alpha <= 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    train_value: float
    validation_value: float
    true_reward: float | None
    mass_on_dmax: float
    grad_norm: float


@dataclass
class TrainTrace:
    records: list[EpochRecord] = field(default_factory=list)
    best_epoch: int | None = None
    stopped_early: bool = False
    halted: str | None = None  # set when a degenerate-support error aborted training
    reward_model: RewardModel | None = None  # the model fitted for DC/DR/cDC/cDR kinds


def initial_params(config: TrainConfig, dim: int) -> PolicyParams:
    """Starting weights: zeros (uniform policy) or a small seeded Gaussian."""
    if config.init == "zeros":
        weights = np.zeros(dim)
    else:
        weights = np.random.default_rng(config.seed).standard_normal(dim) * config.init_sigma
    return PolicyParams(weights, alpha=config.alpha)


def _batches(rng: np.random.Generator, n: int, batch_size: int) -> list[np.ndarray]:
    if batch_size >= n:
        return [np.arange(n)]
    perm = rng.permutation(n)
    return [perm[i : i + batch_size] for i in range(0, n, batch_size)]


def _step(params: PolicyParams, learning_rate: float, grad: np.ndarray) -> PolicyParams:
    return PolicyParams(params.weights + learning_rate * grad, params.alpha)


def train(
    config: TrainConfig,
    train_log: Log,
    validation_log: Log,
    initial: PolicyParams | None = None,
    truth=None,
) -> tuple[PolicyParams, TrainTrace]:
    """Run gradient ascent; return the final (or best-validation) params and trace.

    Fully deterministic given the config: the only randomness is batch
    shuffling (and optionally the Gaussian init) from the config seed.  A
    degenerate-support error during an epoch is recorded on the trace and
    training halts with the best parameters seen so far.  A ``truth``, any
    callable mapping an instance to its per-candidate true rewards as for
    :func:`evaluate_truth`, adds each epoch's exact true reward on the train
    log to the trace.
    """
    check_mode(config.kind, train_log)
    check_mode(config.kind, validation_log)
    if len(train_log) == 0:
        raise ValueError("train log is empty")
    n = len(train_log)
    batch_size = n if config.batch_size == "full" else int(config.batch_size)
    if batch_size > n:
        raise ConfigurationError(f"batch_size {batch_size} exceeds log size {n}")

    params = initial if initial is not None else initial_params(config, train_log.dim)
    if params.dim != train_log.dim:
        raise ConfigurationError(
            f"initial weight dimension {params.dim} does not match features ({train_log.dim})"
        )

    kind = config.kind
    model = preds = validation_preds = None
    if kind.uses_reward_model:
        # predictions do not depend on the policy: one per log for the whole run
        model = fit_reward_model(train_log, config.ridge_lambda)
        preds = model.predict_features(train_log.features)
        validation_preds = model.predict_features(validation_log.features)

    rng = np.random.default_rng(config.seed)
    trace = TrainTrace(reward_model=model)
    truth_rewards = _true_rewards(truth, train_log) if truth is not None else None

    best_value = -np.inf
    best_params = params
    stale = 0
    c_hat = 1.0
    current = None  # the train-log pass at the current params

    for epoch in range(1, config.epochs + 1):
        try:
            if current is None:
                current = value_and_grad(kind, params, train_log, model, predictions=preds)
            if kind.estimates_control and (epoch == 1 or config.c_refresh == "epoch"):
                c_hat = current.estimate_c_hat().c_hat
            batches = _batches(rng, n, batch_size)
            if len(batches) == 1:  # full batch: the step comes from the current pass
                params = _step(params, config.learning_rate, current.grad(c_hat))
            else:
                for idx in batches:  # normalized within the batch or over the full log
                    if config.normalize == "batch":
                        batch_preds = None if preds is None else preds[idx]
                        batch = value_and_grad(
                            kind, params, train_log.subset(idx), model, predictions=batch_preds
                        )
                    else:
                        batch = value_and_grad(kind, params, train_log, model, predictions=preds, rows=idx)
                    params = _step(params, config.learning_rate, batch.grad(c_hat))

            # this pass also supplies the next epoch's c_hat and full-batch step
            current = value_and_grad(kind, params, train_log, model, predictions=preds)
            validation = value_and_grad(
                kind, params, validation_log, model, predictions=validation_preds, grad=False
            )
            mass_on_dmax = current.diagnostics().mass_on_dmax
        except DegenerateSupportError as err:
            trace.halted = str(err)
            break
        train_value = current.value(c_hat)
        validation_value = validation.value(c_hat)
        grad_norm = float(np.linalg.norm(current.grad(c_hat)))

        true_reward = (
            _expected_reward(train_log.probs(params), truth_rewards) if truth is not None else None
        )
        trace.records.append(
            EpochRecord(
                epoch=epoch,
                train_value=train_value,
                validation_value=validation_value,
                true_reward=true_reward,
                mass_on_dmax=mass_on_dmax,
                grad_norm=grad_norm,
            )
        )

        if validation_value > best_value:
            best_value = validation_value
            best_params = params
            trace.best_epoch = epoch
            stale = 0
        else:
            stale += 1
            if config.early_stop_patience > 0 and stale >= config.early_stop_patience:
                trace.stopped_early = True
                break

    # best_params starts at the initial params, so a halt before any epoch
    # completes hands back the starting point, not a half-stepped state
    if trace.halted is not None or config.early_stop_patience > 0:
        return best_params, trace
    return params, trace


def _reward_matrix(ids, rows, k: np.ndarray, k_max: int) -> np.ndarray:
    """Per-candidate true rewards as one (n, k_max) matrix, zero past each
    row's k; a row whose length is not its instance's k is an error."""
    matrix = np.zeros((len(k), k_max))
    for row, (ident, values, count) in enumerate(zip(ids, rows, k.tolist())):
        values = np.asarray(values, dtype=float)
        if values.shape != (count,):
            raise ConfigurationError(
                f"instance {ident!r} has {values.size} true rewards for {count} candidates"
            )
        matrix[row, :count] = values
    return matrix


def _true_rewards(truth, log: Log) -> np.ndarray:
    """The (n, k_max) true rewards of the log's instances: gathered by id from
    a :class:`~cflearn.simulator.GroundTruth`, else ``truth`` of each instance."""
    ids = log.ids.tolist()
    if isinstance(truth, GroundTruth):
        rows = [truth.rewards[i] for i in ids]
    else:
        rows = [truth(t.instance) for t in log.tuples]
    return _reward_matrix(ids, rows, log.k, log.features.shape[1])


def _expected_reward(probs: np.ndarray, rewards: np.ndarray) -> float:
    """Mean over instances of sum_y pi(y | x) r(x, y) from padded (n, k_max)
    matrices; padded candidates have probability 0 and reward 0."""
    return float(np.einsum("ij,ij->i", probs, rewards).mean())


def evaluate_truth(params: PolicyParams, instances: list[Instance], truth) -> float:
    """Exact expected true reward of the policy by full enumeration.

    ``truth`` is any callable mapping an instance to its per-candidate true
    rewards (a :class:`~cflearn.simulator.GroundTruth` qualifies).  The
    instances go through one softmax pass, zero-padded to the largest k.
    """
    if len(instances) == 0:
        raise ValueError("evaluate_truth needs at least one instance")
    features, k = _stack_candidates([inst.candidates for inst in instances])
    rewards = _reward_matrix(
        [inst.id for inst in instances], [truth(inst) for inst in instances], k, features.shape[1]
    )
    return _expected_reward(_probs(params, features, k), rewards)
