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
family.  Both rows of W are contracted against the (n k, d) feature matrix
in one matrix product.  Every value and diagnostic here comes from that
pass, except :func:`value_reweighted`.  :func:`evaluate_policy` keeps each
log's latest pass, so every kind evaluated on one log at one policy and
one reward model reads one softmax and one prediction.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .domain import Log, Mode, PolicyParams
from .errors import DegenerateSupportError, LogConsistencyError
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


def check_log(kind: EstimatorKind, log: Log) -> None:
    """Reject a log the estimator cannot run on: an empty one, or one from
    the wrong logging regime."""
    if len(log) == 0:
        raise LogConsistencyError("log is empty")
    if log.mode is kind.required_mode:
        return
    if kind.required_mode is Mode.STOCHASTIC:
        raise LogConsistencyError(
            f"estimator {kind.value} requires logged propensities (stochastic log)"
        )
    raise LogConsistencyError(
        f"estimator {kind.value} expects a deterministic log, got a stochastic one"
    )


def _rho(log: Log, pi_chosen: np.ndarray) -> np.ndarray:
    """Per-tuple importance weights from the policy probabilities of the
    logged choices: pi/mu on stochastic logs, pi otherwise."""
    if log.mode is Mode.STOCHASTIC:
        return pi_chosen / log.propensities
    return pi_chosen


ZERO_WEIGHTS = "all importance weights are zero; the self-normalized value is undefined"


def _normalize(rho_values: np.ndarray) -> np.ndarray:
    total = rho_values.sum()
    if total <= 0.0:
        raise DegenerateSupportError(ZERO_WEIGHTS)
    return rho_values.size * rho_values / total


def dmax_mask(rewards: np.ndarray) -> np.ndarray:
    """Boolean mask of tuples attaining the maximal logged reward (exact equality)."""
    return rewards == rewards.max()


@dataclass(frozen=True, eq=False)
class ObjectivePass:
    """What one softmax pass over a log yields at fixed policy weights.

    ``b`` and the second gradient row are zero for kinds without a reward
    model, so ``value_at(c)`` and ``grad(c)`` serve every kind.  ``rho_bar``
    and the diagnostics are None when every weight is zero, which only
    plain kinds tolerate.  The passes :func:`evaluate_policy` returns share
    one log's arrays across kinds, and those arrays are read-only.
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


@dataclass(frozen=True, eq=False)
class LogTerms:
    """The terms of a log that every pass over it reads and no policy
    changes, computed once per log rather than once per pass.  They belong
    to one log and one reward model.

    ``w`` holds the two rows of W that each pass with a gradient rewrites;
    row B stays zero for kinds without a reward model.  ``w`` and ``cells``
    are made by the first such pass, so value-only passes allocate neither.
    """

    chosen: np.ndarray               # (n,) index of each logged choice
    k_max: int
    picks: np.ndarray                # (n,) flat index of each chosen cell in a candidate-major (k_max, n) array
    dmax: np.ndarray                 # (n,) mask of the tuples with the maximal logged reward
    preds: np.ndarray | None         # (n, k_max) model predictions, candidate-major
    preds_chosen: np.ndarray | None  # (n,) predictions at the chosen cells

    @classmethod
    def of(cls, log: Log, model: RewardModel | None = None, preds: np.ndarray | None = None):
        """The terms of ``log``, with ``model``'s predictions over its
        candidates, or with ``preds`` when the caller already holds them."""
        n, k, _ = log.features.shape
        if preds is None and model is not None:
            preds = model.predict_features(log.features)
        picks = log.chosen * n + np.arange(n)
        return cls(
            chosen=log.chosen,
            k_max=k,
            picks=picks,
            dmax=dmax_mask(log.rewards),
            preds=preds,
            preds_chosen=None if preds is None else np.take(preds.T, picks),
        )

    @cached_property
    def cells(self) -> np.ndarray:
        """(n,) flat index of each chosen cell in an (n, k_max) array."""
        return np.arange(self.chosen.size) * self.k_max + self.chosen

    @cached_property
    def w(self) -> np.ndarray:
        """(2, n, k_max) rows A and B of W."""
        return np.zeros((2, self.chosen.size, self.k_max))


def _weights(log: Log, terms: LogTerms, probs: np.ndarray, normalize: bool):
    """``(rho, rho_bar, mass_on_dmax, effective_sample_size)`` at the policy
    probabilities ``probs``; the last three are None unless ``normalize`` is
    set or some weight is positive."""
    rho = _rho(log, np.take(probs.T, terms.picks))
    if not (normalize or rho.sum() > 0.0):
        return rho, None, None, None
    n = rho.size
    rho_bar = _normalize(rho)
    return rho, rho_bar, float(rho_bar[terms.dmax].sum() / n), float(n * n / (rho_bar @ rho_bar))


def _mean(values: np.ndarray) -> float:
    """The mean, without np.mean's call overhead."""
    return float(values.sum() / values.size)


def _control(terms: LogTerms, probs: np.ndarray, rho_bar: np.ndarray):
    """``(Y, D, b)`` of the controlled value: Y_t = dhat_t rho_bar_t,
    D_t = sum_y dhat(x_t, y) pi_w(y | x_t) and b = mean(D - Y)."""
    y = terms.preds_chosen * rho_bar
    direct = (probs.T * terms.preds.T).sum(axis=0)
    return y, direct, _mean(direct - y)


def value_and_grad(
    kind: EstimatorKind,
    params: PolicyParams,
    log: Log,
    model: RewardModel | None = None,
    *,
    terms: LogTerms | None = None,
    rows: np.ndarray | None = None,
    grad: bool = True,
) -> ObjectivePass:
    """One softmax pass over ``log``: value pieces, gradient rows, c_hat
    inputs and weight diagnostics of ``kind`` at ``params``.

    ``terms`` are the log's :class:`LogTerms` for ``model`` (made here when
    not given); they do not depend on the policy, so a caller making many
    passes over a log makes them once and passes them in.  ``rows`` averages
    the gradient over those log positions only, while the weights stay
    normalized over the whole log.  ``grad=False`` skips the gradient.  Only
    the kind's family matters here; the log's mode decides whether
    propensities divide the weights.
    """
    n = len(log)
    if n == 0:
        raise ValueError("log is empty")
    controlled = kind.uses_reward_model
    if controlled and model is None:
        raise ValueError(f"estimator {kind.value} needs a reward model")
    if rows is not None and len(rows) == 0:
        raise ValueError("rows is empty: the gradient needs at least one log position")
    if terms is None:
        terms = LogTerms.of(log, model if controlled else None)

    probs = log.probs(params)
    rho, rho_bar, mass, ess = _weights(log, terms, probs, kind.reweighted)
    x = y = None
    b = 0.0
    if kind.reweighted:
        x = log.rewards * rho_bar
        a = _mean(x)
    else:
        a = _mean(log.rewards * rho)
    if controlled:
        y, direct, b = _control(terms, probs, rho_bar)

    grads = None
    if grad:
        u = np.full(n, 1.0 / n)
        if rows is not None:
            u = np.zeros(n)
            u[rows] = 1.0 / len(rows)
        if kind.reweighted:
            coeff_a = u * x - (u @ x / n) * rho_bar
        else:
            coeff_a = u * log.rewards * rho
        # each row is pi times a per-cell coefficient, plus the tuple's
        # coefficient of e_{y_t} at its chosen cell
        w = terms.w
        np.multiply(probs, -coeff_a[:, None], out=w[0])
        w[0].reshape(-1)[terms.cells] += coeff_a
        if controlled:
            coeff_b = (u @ y / n) * rho_bar - u * y
            per_cell = terms.preds.T * u  # u_t dhat(x_t, y) - (u_t D_t + coeff_b_t)
            per_cell -= u * direct + coeff_b
            np.multiply(probs, per_cell.T, out=w[1])
            w[1].reshape(-1)[terms.cells] += coeff_b
        elif terms.preds is not None:  # terms last used by a controlled kind
            w[1] = 0.0
        # row B stays zero without a model: every reweighted kind runs the
        # same (2, n k) product, so the c = 0 reduction is bit-exact
        d = log.dim
        grads = np.zeros((2, d))
        grads += w.reshape(2, -1) @ log.features.reshape(-1, d)
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
    return value_and_grad(EstimatorKind.DPM, params, log, grad=False).value


def value_reweighted(params: PolicyParams, log: Log) -> float:
    """The self-normalized value, sum(delta * rho) / sum(rho).

    Raises :class:`DegenerateSupportError` when every weight is zero, where
    the ratio is undefined.  Computed directly, not by the fused pass, so
    that it checks the pass's c = 0 reduction.
    """
    if len(log) == 0:
        raise ValueError("log is empty")
    rho_bar = _normalize(_rho(log, log.at_chosen(log.probs(params))))
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


# The attribute under which a Log keeps its latest evaluation pass.
_SHARED_PASS = "_shared_pass"


class _SharedPass:
    """A log's latest evaluation pass, from which :func:`evaluate_policy`
    reads every kind at the same ``params`` and ``model`` objects.

    The policy terms (``probs``, rho, rho_bar, X, the two values of a and
    the diagnostics) belong to ``params``.  ``terms`` carry the predictions
    of ``model``, and Y and b belong to ``model`` at ``params``; they are
    made only when a kind that uses the reward model asks for them.  Both
    objects are matched by identity, which is sound because they are
    immutable and held here.  The arrays handed out are read-only.
    """

    __slots__ = ("terms", "model", "params", "probs", "rho", "rho_bar", "x",
                 "a", "plain_a", "mass", "ess", "y", "b")

    def __init__(self) -> None:
        self.terms = self.model = self.params = self.y = None

    def update(self, log: Log, params: PolicyParams, model: RewardModel | None) -> None:
        """Bring the pass to ``params`` and, unless it is None, ``model``.
        Each step computes before it assigns, so an error leaves every part
        of the pass matching the objects it records."""
        if model is not None and model is not self.model:
            self.terms = LogTerms.of(log, model)
            self.model, self.y = model, None
        elif self.terms is None:
            self.terms = LogTerms.of(log)
        if params is not self.params:
            probs = log.probs(params)
            rho, rho_bar, mass, ess = _weights(log, self.terms, probs, normalize=True)
            x = log.rewards * rho_bar
            _read_only(probs, rho, rho_bar, x)
            self.params, self.probs, self.rho, self.rho_bar, self.x = params, probs, rho, rho_bar, x
            self.a, self.plain_a = _mean(x), _mean(log.rewards * rho)
            self.mass, self.ess, self.y = mass, ess, None
        if model is not None and self.y is None:
            y, _, b = _control(self.terms, self.probs, self.rho_bar)
            _read_only(y)
            self.y, self.b = y, b

    def pass_of(self, kind: EstimatorKind) -> ObjectivePass:
        """The pass of ``kind``, equal to ``value_and_grad(kind, ...,
        grad=False)`` at the same params and model."""
        controlled = kind.uses_reward_model
        return ObjectivePass(
            kind=kind, probs=self.probs, rho=self.rho, rho_bar=self.rho_bar,
            x=self.x if kind.reweighted else None, y=self.y if controlled else None,
            a=self.a if kind.reweighted else self.plain_a, b=self.b if controlled else 0.0,
            grads=None, mass_on_dmax=self.mass, effective_sample_size=self.ess,
        )


def _read_only(*arrays: np.ndarray) -> None:
    for array in arrays:
        array.flags.writeable = False


def evaluate_policy(
    kind: EstimatorKind,
    params: PolicyParams,
    log: Log,
    reward_model: RewardModel | None = None,
) -> ObjectivePass:
    """The pass of ``kind`` at ``params``, with mode compatibility enforced;
    a log on which every weight is zero raises DegenerateSupportError, for
    plain kinds too.

    The log keeps its latest pass, so evaluating several kinds on one log at
    the same ``params`` and ``reward_model`` objects runs one softmax and
    one reward-model prediction; the prediction only for kinds that use the
    model.  Each result equals a fresh ``value_and_grad(kind, ...,
    grad=False)`` bit for bit, and its arrays are read-only.
    """
    check_log(kind, log)
    if kind.estimates_control and len(log) < 2:
        raise LogConsistencyError(
            f"estimator {kind.value} estimates its control scalar on the log, "
            "which needs at least 2 tuples"
        )
    model = None
    if kind.uses_reward_model:
        if reward_model is None:
            raise ValueError(f"estimator {kind.value} needs a reward model")
        model = reward_model
    shared = vars(log).get(_SHARED_PASS)
    if shared is None:
        shared = _SharedPass()
        object.__setattr__(log, _SHARED_PASS, shared)
    shared.update(log, params, model)
    return shared.pass_of(kind)
