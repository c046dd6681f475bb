"""Gradient-ascent training over any counterfactual objective.

Training maximizes the configured estimator on the train log with the
update ``w <- w + lr * grad``, evaluates the same objective on a held-out
validation log after every epoch, and optionally stops early when the
validation value has not improved for a configured number of epochs.  The
true expected reward never steers training; it is recorded in the trace
only when a simulator ground truth is supplied, for diagnostics.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .domain import Instance, Log, PolicyParams, _integer, _member, _real
from .errors import CflearnError, ConfigurationError, DegenerateSupportError, ScoreOverflowError
from .estimators import EstimatorKind, check_log, value_and_grad
from .reward import RewardModel, fit_reward_model
from .simulator import GroundTruth, _instances_pass


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
        self.kind = _member("kind", EstimatorKind, self.kind)
        for key in ("learning_rate", "ridge_lambda", "init_sigma", "alpha"):
            _real(key, getattr(self, key))
        for key in ("epochs", "seed", "early_stop_patience"):
            _integer(key, getattr(self, key), 0)
        if self.learning_rate < 0:
            raise ValueError(f"learning_rate must be non-negative, got {self.learning_rate}")
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
    halted: str | None = None  # "epoch <e>: <cause>" when a degenerate-support error aborted training
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
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        weights = params.weights + learning_rate * grad
    if not np.isfinite(weights).all():
        raise ScoreOverflowError(
            f"weights overflowed: the step at learning rate {learning_rate} is not finite"
        )
    return PolicyParams(weights, params.alpha)


@contextmanager
def _concerning(log: Log):
    """Attach ``log`` to a package error raised inside, as the error's ``log``."""
    try:
        yield
    except CflearnError as err:
        err.log = log
        raise


def train(
    config: TrainConfig,
    train_log: Log,
    validation_log: Log,
    initial: PolicyParams | None = None,
    truth: GroundTruth | None = None,
) -> tuple[PolicyParams, TrainTrace]:
    """Run gradient ascent; return the final (or best-validation) params and trace.

    Fully deterministic given the config: the only randomness is batch
    shuffling (and optionally the Gaussian init) from the config seed.  A
    degenerate-support error during an epoch, an overflow of the scores or
    of a step included, is recorded on the trace and training halts with
    the best parameters seen so far; ``halted`` names the epoch and the
    cause.  A ``truth`` adds each epoch's exact true reward on the train log
    to the trace, from the probabilities of that epoch's train-log pass.
    Every error raised before epoch 1 carries the log it concerns as its
    ``log``; c_hat is estimated on the train log alone, so the validation
    log of cDC/cDR may hold one tuple.
    """
    kind = config.kind
    with _concerning(train_log):
        check_log(kind, train_log)
    with _concerning(validation_log):
        check_log(kind, validation_log, estimates_c_hat=False)
        if validation_log.dim != train_log.dim:
            raise ConfigurationError(
                f"validation log feature dimension {validation_log.dim} differs from "
                f"the train log's {train_log.dim}"
            )
    n = len(train_log)
    with _concerning(train_log):
        batch_size = n if config.batch_size == "full" else int(config.batch_size)
        if batch_size > n:
            raise ConfigurationError(f"batch_size {batch_size} exceeds log size {n}")
        params = initial if initial is not None else initial_params(config, train_log.dim)
        if params.dim != train_log.dim:
            raise ConfigurationError(
                f"initial weight dimension {params.dim} does not match features ({train_log.dim})"
            )
        truth_rewards = None if truth is None else train_log._tensor_pass().true_rewards(truth)
        model = None
        if kind.uses_reward_model:
            model = fit_reward_model(train_log, config.ridge_lambda)
    if model is not None:
        for log in (train_log, validation_log):
            with _concerning(log):  # before epoch 1: an overflow is an error, not a halt
                log._tensor_pass().predictions(model)

    rng = np.random.default_rng(config.seed)
    trace = TrainTrace(reward_model=model)

    best_value = -np.inf
    best_params = params
    stale = 0
    c_hat = 0.0 if kind.estimates_control else kind.control or 0.0  # cDC/cDR estimate it below
    current = None  # the train-log pass at the current params

    for epoch in range(1, config.epochs + 1):
        try:
            if current is None:
                current = value_and_grad(kind, params, train_log, model)
            if kind.estimates_control and (epoch == 1 or config.c_refresh == "epoch"):
                c_hat = current.estimate_c_hat().c_hat
            batches = _batches(rng, n, batch_size)
            if len(batches) == 1:  # full batch: the step comes from the current pass
                params = _step(params, config.learning_rate, current.grad(c_hat))
            else:
                for idx in batches:  # normalized within the batch or over the full log
                    if config.normalize == "batch":
                        batch = value_and_grad(kind, params, train_log.subset(idx), model)
                    else:
                        batch = value_and_grad(kind, params, train_log, model, rows=idx)
                    params = _step(params, config.learning_rate, batch.grad(c_hat))

            # this pass also supplies the next epoch's c_hat and full-batch step
            current = value_and_grad(kind, params, train_log, model)
            validation = value_and_grad(kind, params, validation_log, model, grad=False)
            current.check_support()
        except DegenerateSupportError as err:
            trace.halted = f"epoch {epoch}: {err}"
            break
        train_value = current.value_at(c_hat)
        validation_value = validation.value_at(c_hat)
        grad_norm = float(np.linalg.norm(current.grad(c_hat)))

        true_reward = None if truth is None else _expected_reward(current.probs, truth_rewards)
        trace.records.append(
            EpochRecord(
                epoch=epoch,
                train_value=train_value,
                validation_value=validation_value,
                true_reward=true_reward,
                mass_on_dmax=current.mass_on_dmax,
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


def _expected_reward(probs: np.ndarray, rewards: np.ndarray) -> float:
    """Mean over instances of sum_y pi(y | x) r(x, y) from padded (n, k_max)
    matrices; padded candidates have probability 0 and reward 0."""
    return float(np.einsum("ij,ij->i", probs, rewards).mean())


def evaluate_truth(params: PolicyParams, instances: list[Instance], truth: GroundTruth) -> float:
    """Exact expected true reward of the policy by full enumeration.

    The instances go through one softmax pass, zero-padded to the largest k,
    against the truth's rewards for them.  A generated task's instances
    read both from the task's pass state, which keeps them.
    """
    if len(instances) == 0:
        raise ValueError("evaluate_truth needs at least one instance")
    tensor = _instances_pass(instances)
    rewards = tensor.true_rewards(truth)
    return _expected_reward(tensor.probs(params), rewards)
