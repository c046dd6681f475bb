"""Regression reward model and the variance-optimal control scalar.

The direct reward model is a ridge regression of logged rewards on the
features of the chosen candidates; predictions are clipped to [0, 1], the
range rewards live in; a log's pass state sets their layout.  The control
scalar is the variance-minimizing multiplier Cov(X, Y) / Var(Y) of two
paired samples; :mod:`cflearn.estimators` defines its X and Y.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import Log
from .errors import ConfigurationError, FittingError, ScoreOverflowError


@dataclass(frozen=True, eq=False)
class RewardModel:
    """Linear reward regressor; predictions are clipped to [0, 1] at use.

    ``weights`` is a read-only copy of the array given and the scalars are
    floats, so a model never changes once made, and its fields are its file
    format.
    """

    weights: np.ndarray
    intercept: float
    ridge_lambda: float

    def __post_init__(self) -> None:
        weights = np.array(self.weights, dtype=float)
        weights.flags.writeable = False
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "intercept", float(self.intercept))
        object.__setattr__(self, "ridge_lambda", float(self.ridge_lambda))

    @property
    def dim(self) -> int:
        return self.weights.shape[0]

    def predict_features(self, features: np.ndarray) -> np.ndarray:
        """Clipped predictions, plain values of shape (...), for feature
        arrays of shape (..., d); raises :class:`ScoreOverflowError` when one
        leaves the float range."""
        features = np.asarray(features, dtype=float)
        if features.shape[-1] != self.dim:
            raise ConfigurationError(
                f"reward model dimension {self.dim} does not match features "
                f"with last axis {features.shape[-1]}"
            )
        with np.errstate(over="ignore", invalid="ignore"):  # checked just below
            predictions = features @ self.weights + self.intercept
        if not np.isfinite(predictions).all():
            raise ScoreOverflowError(
                "reward model predictions overflowed: weights . features + intercept is not finite"
            )
        return np.clip(predictions, 0.0, 1.0)


@dataclass(frozen=True)
class ControlScalar:
    """Cov/Var ratio with its ingredients; c_hat falls back to 0 when the
    control variate is (numerically) constant."""

    c_hat: float
    cov_xy: float
    var_y: float


VAR_FLOOR = 1e-12


def fit_reward_model(log: Log, ridge_lambda: float = 1e-3) -> RewardModel:
    """Least-squares fit of logged rewards on chosen-candidate features.

    The L2 penalty applies to the weights only, never the intercept, and the
    system is solved by normal equations, which for ridge_lambda > 0 always
    have a unique solution.  A singular unpenalized system, or one whose
    Gram matrix or solution leaves the float range, raises :class:`FittingError`.
    """
    if len(log) == 0:
        raise ValueError("log is empty")
    if ridge_lambda < 0:
        raise ValueError(f"ridge_lambda must be non-negative, got {ridge_lambda}")
    features = log.at_chosen(log.features)  # phi(x_t, y_t), shape (n, d)
    design = np.hstack([np.ones((len(log), 1)), features])
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        gram = design.T @ design
    if not np.isfinite(gram).all():
        raise FittingError("normal equations overflow: the chosen features are too large")
    idx = np.arange(1, design.shape[1])
    gram[idx, idx] += ridge_lambda
    moment = design.T @ log.rewards
    if ridge_lambda == 0.0 and np.linalg.matrix_rank(gram) < gram.shape[0]:
        raise FittingError(
            "normal equations are singular; use ridge_lambda > 0 for a unique fit"
        )
    try:
        beta = np.linalg.solve(gram, moment)
    except np.linalg.LinAlgError as err:
        raise FittingError(f"normal equations could not be solved: {err}") from err
    if not np.isfinite(beta).all():
        raise FittingError("the solution of the normal equations is not finite")
    return RewardModel(weights=beta[1:], intercept=float(beta[0]), ridge_lambda=float(ridge_lambda))


def control_scalar(x: np.ndarray, y: np.ndarray) -> ControlScalar:
    """Cov(X, Y) / Var(Y) from paired samples, with the degenerate fallback."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1 or x.size < 2:
        raise ValueError("control scalar needs two paired samples of length >= 2")
    xc = x - x.sum() / x.size  # the mean, without np.mean's call overhead
    yc = y - y.sum() / y.size
    cov = float(xc @ yc / (x.size - 1))
    var = float(yc @ yc / (x.size - 1))
    if var < VAR_FLOOR:
        return ControlScalar(c_hat=0.0, cov_xy=cov, var_y=var)
    return ControlScalar(c_hat=cov / var, cov_xy=cov, var_y=var)
