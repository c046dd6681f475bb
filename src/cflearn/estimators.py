"""The counterfactual objectives: their values, gradients and control scalar
from one pass over a log.

Eight objectives share two building blocks: the per-tuple importance weight
``rho_t`` (the policy probability of the logged choice, divided by its
propensity on stochastic logs) and its self-normalized form
``rho_bar_t = n rho_t / sum(rho)``.  They are two formulas:

    plain:       V = (1/n) sum_t delta_t rho_t
    controlled:  V = (1/n) sum_t [ (delta_t - c dhat_t) rho_bar_t
                                   + c sum_y dhat(x_t, y) pi_w(y | x_t) ]

:class:`EstimatorKind` is the table of the eight kinds: each one's log mode
and its control c, from which the rest of the module reads its formula.

The inner sum always weights by ``pi_w``: propensities are only logged for
the chosen output, so ``pi/mu`` is undefined off the logged choice.  The
controlled value and gradient are affine in c, ``V = a + c b`` and
``grad = A + c B``, so one softmax pass (:func:`value_and_grad`) returns
``(a, b, A, B)`` and serves any c.  The variance-optimal c is
``Cov(X, Y) / Var(Y)`` of ``X_t = delta_t rho_bar_t`` and
``Y_t = dhat_t rho_bar_t``.

Every gradient is a weighted sum of candidate features,
``alpha sum_{t,y} W_{t,y} phi(x_t, y)``, because
``grad log pi_w(y_t | x_t) = alpha sum_y (e_{y_t} - pi_t)_y phi(x_t, y)``:

    plain:  W = delta_t rho_t (e_{y_t} - pi_t) / n
    A:      W = (X_t - a rho_bar_t) (e_{y_t} - pi_t) / n
    B:      W = -(Y_t - ybar rho_bar_t) (e_{y_t} - pi_t) / n
                + pi_t (dhat_t - D_t) / n

with ``ybar`` the mean of Y and ``D_t = sum_y dhat(x_t, y) pi_w(y | x_t)``.
Subtracting ``a rho_bar_t`` centres the scores at their rho_bar-weighted
mean, which makes A the exact derivative of the self-normalized value; the
finite-difference harness in :mod:`cflearn.gradients` confirms every
family.  W, candidate-major like ``probs.T``, takes the features' (n k)
order only to meet them in one matrix product.  Every value and diagnostic
here comes from that pass, except :func:`value_reweighted`.  Each log keeps
its latest pass, so every kind run on one log at one policy and one reward
model reads one softmax and one prediction, which the logs rolled from one
task share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .domain import Log, Mode, PolicyParams, _nonempty
from .errors import ConfigurationError, DegenerateSupportError, LogConsistencyError, ScoreOverflowError
from .reward import ControlScalar, RewardModel, control_scalar


# The control of cDR/cDC: c_hat, estimated from each pass's X and Y.
ESTIMATED = "estimated"


class EstimatorKind(Enum):
    """The eight objectives, one row each: name, log mode and control c.

    A control of None marks the plain objective; any other control the
    controlled one at c = 0 (self-normalized), 1 or ``ESTIMATED``.
    """

    IPS = ("ips", Mode.STOCHASTIC, None)
    DPM = ("dpm", Mode.DETERMINISTIC, None)
    IPS_R = ("ips-r", Mode.STOCHASTIC, 0.0)
    DPM_R = ("dpm-r", Mode.DETERMINISTIC, 0.0)
    DR = ("dr", Mode.STOCHASTIC, 1.0)
    DC = ("dc", Mode.DETERMINISTIC, 1.0)
    CDR = ("cdr", Mode.STOCHASTIC, ESTIMATED)
    CDC = ("cdc", Mode.DETERMINISTIC, ESTIMATED)

    def __new__(cls, value: str, mode: Mode, control: float | str | None):
        kind = object.__new__(cls)
        kind._value_ = value
        kind.required_mode = mode
        kind.control = control
        return kind

    @property
    def reweighted(self) -> bool:
        """Whether the objective uses self-normalized weights."""
        return self.control is not None

    @property
    def uses_reward_model(self) -> bool:
        return self.reweighted and self.control != 0.0

    @property
    def estimates_control(self) -> bool:
        """Whether the control scalar is estimated from data rather than fixed."""
        return self.control == ESTIMATED


def check_log(kind: EstimatorKind, log: Log, estimates_c_hat: bool = True) -> None:
    """Reject a log the estimator cannot run on: an empty one, one from the
    wrong logging regime, or, for cDC/cDR when ``estimates_c_hat`` says c_hat
    is estimated on this log, one of fewer than 2 tuples."""
    if _nonempty(log).mode is not kind.required_mode:
        if kind.required_mode is Mode.STOCHASTIC:
            raise LogConsistencyError(
                f"estimator {kind.value} requires logged propensities (stochastic log)"
            )
        raise LogConsistencyError(
            f"estimator {kind.value} expects a deterministic log, got a stochastic one"
        )
    if estimates_c_hat and kind.estimates_control and len(log) < 2:
        raise ConfigurationError(
            f"estimator {kind.value} estimates its control scalar on the log, "
            "which needs at least 2 tuples"
        )


def _rho(log: Log, pi_chosen: np.ndarray) -> np.ndarray:
    """Per-tuple importance weights from the policy probabilities of the
    logged choices: pi/mu on stochastic logs, pi otherwise.  A propensity
    small enough that pi/mu leaves the float range raises ScoreOverflowError."""
    if log.mode is Mode.STOCHASTIC:
        with np.errstate(over="ignore"):  # checked just below
            rho = pi_chosen / log.propensities
        if not np.isfinite(rho).all():
            raise ScoreOverflowError(WEIGHTS_OVERFLOWED)
        return rho
    return pi_chosen


ZERO_WEIGHTS = "all importance weights are zero; the self-normalized value is undefined"
WEIGHTS_OVERFLOWED = "importance weights overflowed: pi/mu, their sum or n * rho / sum(rho) is not finite"


def _normalize(rho_values: np.ndarray) -> np.ndarray:
    """``n rho / sum(rho)``; raises DegenerateSupportError when every weight
    is zero, and ScoreOverflowError when the sum or a weight leaves the float range."""
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        total = rho_values.sum()
        if total <= 0.0:
            raise DegenerateSupportError(ZERO_WEIGHTS)
        rho_bar = rho_values.size * rho_values / total
    if not (math.isfinite(total) and math.isfinite(rho_bar.max())):  # the max of an array with a NaN is NaN
        raise ScoreOverflowError(WEIGHTS_OVERFLOWED)
    return rho_bar


def dmax_mask(rewards: np.ndarray) -> np.ndarray:
    """Boolean mask of tuples attaining the maximal logged reward (exact equality)."""
    return rewards == rewards.max()


def _mean(values: np.ndarray) -> float:
    """The mean, without np.mean's call overhead."""
    return float(values.sum() / values.size)


@dataclass(frozen=True, eq=False)
class ObjectivePass:
    """What one softmax pass over a log yields at fixed policy weights.

    ``b`` and the second gradient row are zero for kinds without a reward
    model, so ``value_at(c)`` and ``grad(c)`` serve every kind.  ``rho_bar``
    and the diagnostics are None when every weight is zero, which only
    plain kinds tolerate.  Passes over one log at one policy share their
    arrays across kinds, and those arrays are read-only.
    """

    kind: EstimatorKind
    probs: np.ndarray             # (n, k_max) policy probabilities, 0 past each k
    rho: np.ndarray               # raw importance weights, in log order
    rho_bar: np.ndarray | None    # self-normalized weights
    x: np.ndarray | None          # X = delta * rho_bar (self-normalized kinds)
    y: np.ndarray | None          # Y = dhat * rho_bar (controlled kinds)
    a: float
    b: float
    grads: np.ndarray | None      # rows A and B, shape (2, d); None without grad
    mass_on_dmax: float | None    # share of rho_bar on the max-reward tuples
    effective_sample_size: float | None  # n^2 / sum rho_bar^2, in (0, n]

    @property
    def value(self) -> float:
        """The value at the kind's own control, c_hat from this pass for cDC/cDR."""
        control = self.kind.control
        if self.kind.estimates_control:
            control = self.estimate_c_hat().c_hat
        return self.value_at(control or 0.0)

    def value_at(self, c: float) -> float:
        return self.a + c * self.b

    def grad(self, c: float = 0.0) -> np.ndarray:
        return self.grads[0] + c * self.grads[1]

    def estimate_c_hat(self) -> ControlScalar:
        """Variance-optimal c from this pass's X and Y."""
        return control_scalar(self.x, self.y)

    def check_support(self) -> None:
        """Raise DegenerateSupportError when every weight is zero, where
        ``rho_bar`` and the diagnostics are undefined."""
        if self.rho_bar is None:
            raise DegenerateSupportError(ZERO_WEIGHTS)


# The attribute under which a Log keeps the state of its passes.
_STATE = "_pass_state"


class _LogPass:
    """The state of the passes over one log, kept on the log, from which
    :func:`value_and_grad` reads every part a previous pass already made.

    The parts that depend only on the candidate tensor (the softmax and the
    predictions over the candidates) come from the log's
    ``domain._TensorPass``, which every log rolled from one task shares and
    which sets their layout.  The terms no policy changes (``picks``, the
    chosen cells in that layout, and the d_max mask) are made with the state.
    The model part (the predictions at the chosen cells) belongs to
    ``model``; the policy part (``probs``, rho, rho_bar, X, the plain and
    self-normalized a and the diagnostics) to ``params``; Y, D and b to both.
    Both objects are matched by identity, which is sound because they are
    immutable and held here.  Each part is computed before it is assigned, so
    an error leaves every part matching the objects it records.  The arrays
    handed out are read-only.  The gradient's W is scratch, made by each call.
    """

    __slots__ = ("tensor", "picks", "dmax", "model", "preds", "preds_chosen", "params", "probs",
                 "rho", "rho_bar", "x", "a", "plain_a", "mass", "ess", "y", "direct", "b")

    def __init__(self, log: Log) -> None:
        n = len(log)
        self.tensor = log._tensor_pass()
        self.picks = log.chosen * n + np.arange(n)  # flat chosen cells of a (k_max, n) array
        self.dmax = dmax_mask(log.rewards)
        self.model = self.params = self.y = None

    def update(self, log: Log, params: PolicyParams, model: RewardModel | None) -> None:
        """Bring the pass to ``params`` and, unless it is None, ``model``.
        rho_bar, X, a and the diagnostics stay None when every weight is
        zero, and then so do Y, D and b."""
        if model is not None and model is not self.model:
            preds = self.tensor.predictions(model)
            chosen = np.take(preds.T, self.picks)
            _read_only(chosen)
            self.model, self.preds, self.preds_chosen, self.y = model, preds, chosen, None
        if params is not self.params:
            probs = self.tensor.probs(params)
            rho = _rho(log, np.take(probs.T, self.picks))
            rho_bar = x = a = mass = ess = None
            if rho.any():  # no weight is negative: their sum is positive when any weight is
                n = rho.size
                rho_bar = _normalize(rho)
                x = log.rewards * rho_bar
                a = _mean(x)
                mass = float(rho_bar[self.dmax].sum() / n)
                ess = float(n * n / (rho_bar @ rho_bar))
            _read_only(rho, rho_bar, x)
            self.params, self.probs, self.rho, self.rho_bar, self.x = params, probs, rho, rho_bar, x
            self.a, self.plain_a, self.mass, self.ess = a, _mean(log.rewards * rho), mass, ess
            self.y = None
        if model is not None and self.y is None and self.rho_bar is not None:
            # Y_t = dhat_t rho_bar_t, D_t = sum_y dhat(x_t, y) pi_w(y | x_t), b = mean(D - Y)
            y = self.preds_chosen * self.rho_bar
            direct = (self.probs.T * self.preds.T).sum(axis=0)
            _read_only(y)
            self.y, self.direct, self.b = y, direct, _mean(direct - y)

    def grads(self, kind: EstimatorKind, log: Log, alpha: float, rows: np.ndarray | None) -> np.ndarray:
        """Gradient rows A and B of ``kind`` at the current pass, averaged
        over ``rows`` (every position when None)."""
        n, k_max, d = log.features.shape
        u = np.full(n, 1.0 / n)
        if rows is not None:
            u = np.zeros(n)
            u[rows] = 1.0 / len(rows)
        if kind.reweighted:
            coeff_a = u * self.x - (u @ self.x / n) * self.rho_bar
        else:
            coeff_a = u * log.rewards * self.rho
        # each row is pi times a per-cell coefficient, plus the tuple's
        # coefficient of e_{y_t} at its chosen cell
        w, probs = np.empty((2, k_max, n)), self.probs.T  # W is candidate-major, like probs.T
        np.multiply(probs, -coeff_a, out=w[0])
        w[0].reshape(-1)[self.picks] += coeff_a
        if kind.uses_reward_model:
            coeff_b = (u @ self.y / n) * self.rho_bar - u * self.y
            per_cell = self.preds.T * u  # u_t dhat(x_t, y) - (u_t D_t + coeff_b_t)
            per_cell -= u * self.direct + coeff_b
            np.multiply(probs, per_cell, out=w[1])
            w[1].reshape(-1)[self.picks] += coeff_b
        else:
            w[1] = 0.0
        # row B is zero without a model: every reweighted kind runs the
        # same product, so the c = 0 reduction is bit-exact; only its
        # operand takes the features' (n k) order
        grads = np.zeros((2, d))
        grads += w.transpose(0, 2, 1).reshape(2, -1) @ log.features.reshape(-1, d)
        grads *= alpha
        return grads


def _read_only(*arrays: np.ndarray | None) -> None:
    for array in arrays:
        if array is not None:
            array.setflags(write=False)


def _state(log: Log) -> _LogPass:
    """The pass state ``log`` keeps, made on first use."""
    state = vars(log).get(_STATE)
    if state is None:
        state = _LogPass(log)
        object.__setattr__(log, _STATE, state)
    return state


def value_and_grad(
    kind: EstimatorKind,
    params: PolicyParams,
    log: Log,
    model: RewardModel | None = None,
    *,
    rows: np.ndarray | None = None,
    grad: bool = True,
) -> ObjectivePass:
    """One softmax pass over ``log``: value pieces, gradient rows, c_hat
    inputs and weight diagnostics of ``kind`` at ``params``.

    The log keeps its latest pass, so a pass at the same ``params`` and
    ``model`` objects as the one before reuses its softmax, its predictions
    and its values, and computes only the gradient.  ``rows`` averages the
    gradient over those log positions only, while the weights stay
    normalized over the whole log.  ``grad=False`` skips the gradient.
    Only the kind's family matters here; the log's mode decides whether
    propensities divide the weights.
    """
    _nonempty(log)
    controlled = kind.uses_reward_model
    if controlled and model is None:
        raise ValueError(f"estimator {kind.value} needs a reward model")
    if rows is not None and len(rows) == 0:
        raise ValueError("rows is empty: the gradient needs at least one log position")
    state = _state(log)
    state.update(log, params, model if controlled else None)
    if kind.reweighted and state.rho_bar is None:
        raise DegenerateSupportError(ZERO_WEIGHTS)
    return ObjectivePass(
        kind=kind, probs=state.probs, rho=state.rho, rho_bar=state.rho_bar,
        x=state.x if kind.reweighted else None, y=state.y if controlled else None,
        a=state.a if kind.reweighted else state.plain_a, b=state.b if controlled else 0.0,
        grads=state.grads(kind, log, params.alpha, rows) if grad else None,
        mass_on_dmax=state.mass, effective_sample_size=state.ess,
    )


# The wrappers below run one family on a log of either mode: the plain
# (DPM), self-normalized (DPM_R) or controlled (DC) family.


def rho_weights(params: PolicyParams, log: Log) -> np.ndarray:
    """Per-tuple importance weights for the whole log, in log order."""
    return value_and_grad(EstimatorKind.DPM, params, log, grad=False).rho


def normalized_weights(params: PolicyParams, log: Log) -> tuple[np.ndarray, np.ndarray]:
    """Raw and self-normalized weights ``(rho, rho_bar)`` for the whole log."""
    result = value_and_grad(EstimatorKind.DPM_R, params, log, grad=False)
    return result.rho, result.rho_bar


def value_ips_dpm(params: PolicyParams, log: Log) -> float:
    """The plain value; inverse propensity scoring on a stochastic log."""
    return value_and_grad(EstimatorKind.DPM, params, log, grad=False).value


def value_reweighted(params: PolicyParams, log: Log) -> float:
    """The self-normalized value, sum(delta * rho) / sum(rho).

    Raises :class:`DegenerateSupportError` when every weight is zero, where
    the ratio is undefined.  Computed directly, not by the fused pass, so
    that it checks the pass's c = 0 reduction.
    """
    rho_bar = _normalize(_rho(_nonempty(log), log.at_chosen(log.probs(params))))
    return float((log.rewards * rho_bar).mean())


def value_doubly_controlled(
    params: PolicyParams, log: Log, reward_model: RewardModel, c_hat: float
) -> float:
    """The controlled value at ``c_hat``."""
    return value_and_grad(EstimatorKind.DC, params, log, reward_model, grad=False).value_at(c_hat)


def diagnostics(params: PolicyParams, log: Log) -> ObjectivePass:
    """The self-normalized pass, whose ``rho_bar``, ``mass_on_dmax`` and
    ``effective_sample_size`` diagnose the policy's weights on this log."""
    return value_and_grad(EstimatorKind.DPM_R, params, log, grad=False)


def grad_ips_dpm(params: PolicyParams, log: Log) -> np.ndarray:
    """Gradient of the plain value."""
    return value_and_grad(EstimatorKind.DPM, params, log).grad()


def grad_reweighted(params: PolicyParams, log: Log) -> np.ndarray:
    """Exact gradient of the self-normalized value."""
    return value_and_grad(EstimatorKind.DPM_R, params, log).grad()


def grad_doubly_controlled(
    params: PolicyParams, log: Log, reward_model: RewardModel, c_hat: float
) -> np.ndarray:
    """Exact gradient of the controlled value at fixed ``c_hat``."""
    return value_and_grad(EstimatorKind.DC, params, log, reward_model).grad(c_hat)


def estimate_c_hat(params: PolicyParams, log: Log, model: RewardModel) -> ControlScalar:
    """Variance-optimal control scalar of the controlled value at ``params``."""
    return value_and_grad(EstimatorKind.DC, params, log, model, grad=False).estimate_c_hat()


def objective_value(
    kind: EstimatorKind,
    params: PolicyParams,
    log: Log,
    reward_model: RewardModel | None = None,
) -> float:
    """Value of any estimator kind, with mode compatibility enforced."""
    return evaluate_policy(kind, params, log, reward_model).value


def evaluate_policy(
    kind: EstimatorKind,
    params: PolicyParams,
    log: Log,
    reward_model: RewardModel | None = None,
) -> ObjectivePass:
    """The pass of ``kind`` at ``params``, with mode compatibility enforced;
    a log on which every weight is zero raises DegenerateSupportError, for
    plain kinds too.

    It is the pass ``value_and_grad(kind, ..., grad=False)`` returns, so
    evaluating several kinds on one log at the same ``params`` and
    ``reward_model`` objects runs one softmax and one reward-model
    prediction; the prediction only for kinds that use the model.
    """
    check_log(kind, log)
    result = value_and_grad(kind, params, log, reward_model, grad=False)
    result.check_support()
    return result
