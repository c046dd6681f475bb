"""The counterfactual objectives: their values, gradients and control scalar
from one pass over a log.

Eight objectives share two building blocks: the per-tuple importance weight
``rho_t`` (the policy probability of the logged choice, divided by its
propensity on stochastic logs) and its self-normalized form
``rho_bar_t = n rho_t / sum(rho)``.  They are two formulas:

    plain:       V = (1/n) sum_t delta_t rho_t
    controlled:  V = (1/n) sum_t [ (delta_t - c dhat_t) rho_bar_t
                                   + c sum_y dhat(x_t, y) pi_w(y | x_t) ]

============  ===========  ==========================================
kind          log mode     objective
============  ===========  ==========================================
IPS / DPM     stoch / det  plain
IPS+R/DPM+R   stoch / det  controlled with c = 0 (self-normalized)
DR / DC       stoch / det  controlled with c = 1
cDR / cDC     stoch / det  controlled with the estimated c_hat
============  ===========  ==========================================

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
family.  Both rows of W are contracted against the (n k, d) feature matrix
in one matrix product.  Every value and diagnostic here comes from that
pass, except :func:`value_reweighted`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .domain import Log, Mode, PolicyParams
from .errors import DegenerateSupportError, LogConsistencyError
from .reward import ControlScalar, RewardModel, control_scalar


class EstimatorKind(Enum):
    IPS = "ips"
    DPM = "dpm"
    IPS_R = "ips-r"
    DPM_R = "dpm-r"
    DR = "dr"
    DC = "dc"
    CDR = "cdr"
    CDC = "cdc"

    @property
    def required_mode(self) -> Mode:
        if self in (EstimatorKind.IPS, EstimatorKind.IPS_R, EstimatorKind.DR, EstimatorKind.CDR):
            return Mode.STOCHASTIC
        return Mode.DETERMINISTIC

    @property
    def reweighted(self) -> bool:
        """Whether the objective uses self-normalized weights."""
        return self not in (EstimatorKind.IPS, EstimatorKind.DPM)

    @property
    def uses_reward_model(self) -> bool:
        return self in (EstimatorKind.DR, EstimatorKind.DC, EstimatorKind.CDR, EstimatorKind.CDC)

    @property
    def estimates_control(self) -> bool:
        """Whether the control scalar is estimated from data rather than fixed at 1."""
        return self in (EstimatorKind.CDR, EstimatorKind.CDC)


@dataclass(frozen=True, eq=False)
class EstimatorReport:
    """Value of one estimator plus weight diagnostics."""

    kind: EstimatorKind
    value: float
    weights_used: np.ndarray
    mass_on_dmax: float
    effective_sample_size: float
    probs: np.ndarray  # (n, k_max) policy probabilities of the pass


@dataclass(frozen=True, eq=False)
class WeightDiagnostics:
    """Concentration diagnostics of the self-normalized weights."""

    weights: np.ndarray          # rho_bar, in log order
    mass_on_dmax: float          # share of normalized weight on max-reward tuples
    effective_sample_size: float  # n^2 / sum rho_bar^2 = (sum rho)^2 / sum rho^2, in (0, n]


def check_mode(kind: EstimatorKind, log: Log) -> None:
    """Reject silently running an estimator on the wrong logging regime."""
    if log.mode is kind.required_mode:
        return
    if kind.required_mode is Mode.STOCHASTIC:
        raise LogConsistencyError(
            f"estimator {kind.value} requires logged propensities (stochastic log)"
        )
    raise LogConsistencyError(
        f"estimator {kind.value} expects a deterministic log, got a stochastic one"
    )


def _rho(log: Log, probs: np.ndarray) -> np.ndarray:
    """Per-tuple importance weights from the (n, k_max) policy probabilities:
    pi/mu on stochastic logs, pi otherwise."""
    chosen = log.at_chosen(probs)
    if log.mode is Mode.STOCHASTIC:
        return chosen / log.propensities
    return chosen


def _normalize(rho_values: np.ndarray) -> np.ndarray:
    total = rho_values.sum()
    if total <= 0.0:
        raise DegenerateSupportError(
            "all importance weights are zero; the self-normalized value is undefined"
        )
    return rho_values.size * rho_values / total


def dmax_mask(rewards: np.ndarray) -> np.ndarray:
    """Boolean mask of tuples attaining the maximal logged reward (exact equality)."""
    return rewards == rewards.max()


@dataclass(frozen=True, eq=False)
class ObjectivePass:
    """What one softmax pass over a log yields at fixed policy weights.

    ``b`` and the second gradient row are zero for kinds without a reward
    model, so ``value(c)`` and ``grad(c)`` serve every kind.  ``rho_bar`` and
    the diagnostics are None when every weight is zero, which only plain
    kinds tolerate.
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
    mass_on_dmax: float | None
    effective_sample_size: float | None

    def value(self, c: float = 0.0) -> float:
        return self.a + c * self.b

    def grad(self, c: float = 0.0) -> np.ndarray:
        return self.grads[0] + c * self.grads[1]

    def estimate_c_hat(self) -> ControlScalar:
        """Variance-optimal c from this pass's X and Y."""
        if self.rho.size < 2:
            raise ValueError("control scalar estimation needs at least 2 tuples")
        return control_scalar(self.x, self.y)

    def resolve_control(self) -> float:
        """The control scalar this kind uses: the estimate for cDC/cDR and 1
        for every other kind."""
        if self.kind.estimates_control:
            return self.estimate_c_hat().c_hat
        return 1.0

    def diagnostics(self) -> WeightDiagnostics:
        """Weight diagnostics; raises DegenerateSupportError when every weight is zero."""
        return WeightDiagnostics(
            weights=self.rho_bar if self.rho_bar is not None else _normalize(self.rho),
            mass_on_dmax=self.mass_on_dmax,
            effective_sample_size=self.effective_sample_size,
        )


def value_and_grad(
    kind: EstimatorKind,
    params: PolicyParams,
    log: Log,
    model: RewardModel | None = None,
    *,
    predictions: np.ndarray | None = None,
    rows: np.ndarray | None = None,
    grad: bool = True,
) -> ObjectivePass:
    """One softmax pass over ``log``: value pieces, gradient rows, c_hat
    inputs and weight diagnostics of ``kind`` at ``params``.

    ``predictions`` are the model's (n, k_max) predictions over the log's
    candidates; they do not depend on the policy, so a caller making many
    passes predicts once and passes them in.  ``rows`` averages the gradient
    over those log positions only, while the weights stay normalized over
    the whole log.  ``grad=False`` skips the gradient.  Only the kind's
    family matters here; the log's mode decides whether propensities divide
    the weights.
    """
    n = len(log)
    if n == 0:
        raise ValueError("log is empty")
    controlled = kind.uses_reward_model
    if controlled and model is None:
        raise ValueError(f"estimator {kind.value} needs a reward model")
    if rows is not None and len(rows) == 0:
        raise ValueError("rows is empty: the gradient needs at least one log position")

    probs = log.probs(params)
    rho = _rho(log, probs)
    rewards = log.rewards
    rho_bar = mass = ess = x = y = None
    if kind.reweighted or rho.sum() > 0.0:
        rho_bar = _normalize(rho)
        mass = float(rho_bar[dmax_mask(rewards)].sum() / n)
        ess = float(n * n / (rho_bar @ rho_bar))
    b = 0.0
    if kind.reweighted:
        x = rewards * rho_bar
        a = float(x.mean())
    else:
        a = float((rewards * rho).mean())
    if controlled:
        preds = model.predict_features(log.features) if predictions is None else predictions
        y = log.at_chosen(preds) * rho_bar
        direct = (probs * preds).sum(axis=1)  # D_t
        b = float((direct - y).mean())

    grads = None
    if grad:
        u = np.full(n, 1.0 / n)
        if rows is not None:
            u = np.zeros(n)
            u[rows] = 1.0 / len(rows)
        if kind.reweighted:
            coeff_a = u * x - (u @ x / n) * rho_bar
        else:
            coeff_a = u * rewards * rho
        _, k, d = log.features.shape
        score = -probs  # e_{y_t} - pi_t
        score[np.arange(n), log.chosen] += 1.0
        # row B stays zero without a model: every reweighted kind runs the
        # same (2, n k) product, so the c = 0 reduction is bit-exact
        w = np.zeros((2, n, k))
        np.multiply(coeff_a[:, None], score, out=w[0])
        if controlled:
            coeff_b = (u @ y / n) * rho_bar - u * y
            w[1] = coeff_b[:, None] * score + (u[:, None] * probs) * (preds - direct[:, None])
        grads = np.zeros((2, d))
        grads += w.reshape(2, n * k) @ log.features.reshape(n * k, d)
        grads *= params.alpha
    return ObjectivePass(
        kind=kind, probs=probs, rho=rho, rho_bar=rho_bar, x=x, y=y, a=a, b=b, grads=grads,
        mass_on_dmax=mass, effective_sample_size=ess,
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
    return value_and_grad(EstimatorKind.DPM, params, log, grad=False).value()


def value_reweighted(params: PolicyParams, log: Log) -> float:
    """The self-normalized value, sum(delta * rho) / sum(rho).

    Raises :class:`DegenerateSupportError` when every weight is zero, where
    the ratio is undefined.  Computed directly, not by the fused pass, so
    that it checks the pass's c = 0 reduction.
    """
    if len(log) == 0:
        raise ValueError("log is empty")
    rho_bar = _normalize(_rho(log, log.probs(params)))
    return float((log.rewards * rho_bar).mean())


def value_doubly_controlled(
    params: PolicyParams, log: Log, reward_model: RewardModel, c_hat: float
) -> float:
    """The controlled value at ``c_hat``."""
    return value_and_grad(EstimatorKind.DC, params, log, reward_model, grad=False).value(c_hat)


def diagnostics(params: PolicyParams, log: Log) -> WeightDiagnostics:
    """Weight-concentration diagnostics of the policy on this log."""
    return value_and_grad(EstimatorKind.DPM_R, params, log, grad=False).diagnostics()


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
    check_mode(kind, log)
    result = value_and_grad(kind, params, log, reward_model, grad=False)
    return result.value(result.resolve_control())


def evaluate_policy(
    kind: EstimatorKind,
    params: PolicyParams,
    log: Log,
    reward_model: RewardModel | None = None,
) -> EstimatorReport:
    """Full report: estimator value, weight diagnostics and the policy
    probabilities, from one pass."""
    check_mode(kind, log)
    result = value_and_grad(kind, params, log, reward_model, grad=False)
    value = result.value(result.resolve_control())
    diag = result.diagnostics()
    return EstimatorReport(
        kind=kind,
        value=value,
        weights_used=diag.weights if kind.reweighted else result.rho,
        mass_on_dmax=diag.mass_on_dmax,
        effective_sample_size=diag.effective_sample_size,
        probs=result.probs,
    )
