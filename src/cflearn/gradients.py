"""Value and gradient of every counterfactual objective from one pass over a log.

The eight estimator kinds are two formulas over the importance weight
``rho_t`` and its self-normalized form ``rho_bar_t = n rho_t / sum(rho)``:

    plain:       V = (1/n) sum_t delta_t rho_t
    controlled:  V = (1/n) sum_t [ (delta_t - c dhat_t) rho_bar_t
                                   + c sum_y dhat(x_t, y) pi_w(y | x_t) ]

``c = 0`` gives the self-normalized (reweighted) objective, ``c = 1`` DC/DR
and an estimated ``c`` cDC/cDR.  The controlled value and gradient are
affine in c, ``V = a + c b`` and ``grad = A + c B``, so one softmax pass
returns ``(a, b, A, B)`` and serves any c.

Every gradient is a weighted sum of candidate features,
``alpha sum_{t,y} W_{t,y} phi(x_t, y)``, because
``grad log pi_w(y_t | x_t) = alpha sum_y (e_{y_t} - pi_t)_y phi(x_t, y)``:

    plain:  W = delta_t rho_t (e_{y_t} - pi_t) / n
    A:      W = (X_t - a rho_bar_t) (e_{y_t} - pi_t) / n
    B:      W = -(Y_t - ybar rho_bar_t) (e_{y_t} - pi_t) / n
                + pi_t (dhat_t - D_t) / n

with ``X_t = delta_t rho_bar_t``, ``Y_t = dhat(x_t, y_t) rho_bar_t``, ``ybar``
the mean of Y and ``D_t = sum_y dhat(x_t, y) pi_w(y | x_t)``.  Subtracting
``a rho_bar_t`` centres the scores at their rho_bar-weighted mean, which
makes A the exact derivative of the self-normalized value; the
finite-difference harness confirms every family.  Both rows of W are
contracted against the (n k, d) feature matrix in one matrix product.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .domain import Instance, Log, LoggedTuple, Mode, PolicyParams
from .errors import DegenerateSupportError
from .estimators import (
    EstimatorKind,
    WeightDiagnostics,
    _normalize,
    _rho,
    check_mode,
    dmax_mask,
    family_kind,
    value_doubly_controlled,
    value_ips_dpm,
    value_reweighted,
)
from .reward import ControlScalar, RewardModel, control_scalar

FD_STEP = 1e-5
FD_TOLERANCE = 1e-5


@dataclass(frozen=True, eq=False)
class ObjectivePass:
    """What one softmax pass over a log yields at fixed policy weights.

    ``b`` and the second gradient row are zero for kinds without a reward
    model, so ``value(c)`` and ``grad(c)`` serve every kind.  ``rho_bar`` and
    the diagnostics are None when every weight is zero, which only plain
    kinds tolerate.
    """

    kind: EstimatorKind
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

    def resolve_control(self, c_hat: float | None = None) -> float:
        """The control scalar this kind uses: ``c_hat`` when given, otherwise
        the estimate for cDC/cDR and 1 for every other kind."""
        if c_hat is not None:
            return float(c_hat)
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
        kind=kind, rho=rho, rho_bar=rho_bar, x=x, y=y, a=a, b=b, grads=grads,
        mass_on_dmax=mass, effective_sample_size=ess,
    )


def _family_pass(family: str, params: PolicyParams, log: Log, model: RewardModel | None = None):
    return value_and_grad(family_kind(family, log.mode), params, log, model)


def grad_ips_dpm(params: PolicyParams, log: Log) -> np.ndarray:
    """(1/n) sum_t delta_t rho_t grad log pi_w(y_t | x_t)."""
    return _family_pass("plain", params, log).grad()


def grad_reweighted(params: PolicyParams, log: Log) -> np.ndarray:
    """Exact gradient of the self-normalized value."""
    return _family_pass("reweighted", params, log).grad()


def grad_doubly_controlled(
    params: PolicyParams, log: Log, reward_model: RewardModel, c_hat: float
) -> np.ndarray:
    """Exact gradient of the doubly controlled value at fixed c_hat."""
    return _family_pass("controlled", params, log, reward_model).grad(c_hat)


def gradient(
    kind: EstimatorKind,
    params: PolicyParams,
    log: Log,
    reward_model: RewardModel | None = None,
    c_hat: float | None = None,
) -> np.ndarray:
    """Gradient of any estimator kind, with mode compatibility enforced."""
    check_mode(kind, log)
    result = value_and_grad(kind, params, log, reward_model)
    return result.grad(result.resolve_control(c_hat))


def fd_check(
    value_fn: Callable[[PolicyParams], float],
    grad_fn: Callable[[PolicyParams], np.ndarray],
    params: PolicyParams,
    step: float = FD_STEP,
) -> float:
    """Max relative disagreement between ``grad_fn`` and central differences.

    Per coordinate j the error is |analytic_j - numeric_j| / max(1, |analytic_j|);
    the maximum over coordinates is returned.  Singularities raised by
    ``value_fn`` propagate to the caller rather than being masked.
    """
    analytic = np.asarray(grad_fn(params), dtype=float)
    weights = params.weights
    worst = 0.0
    for j in range(weights.size):
        bump = np.zeros_like(weights)
        bump[j] = step
        hi = value_fn(PolicyParams(weights + bump, params.alpha))
        lo = value_fn(PolicyParams(weights - bump, params.alpha))
        numeric = (hi - lo) / (2.0 * step)
        err = abs(analytic[j] - numeric) / max(1.0, abs(analytic[j]))
        worst = max(worst, err)
    return worst


@dataclass(frozen=True)
class GradCheckResult:
    family: str
    problems: int
    max_rel_error: float
    failures: int
    singular: int
    constant_cases: int  # single-tuple self-normalized objectives (exactly constant)


def random_problem(rng: np.random.Generator, n_max: int = 10, k_max: int = 5, d_max: int = 6):
    """A small random (params, log, model, c_hat) problem for gradient checks."""
    n = int(rng.integers(1, n_max + 1))
    k = int(rng.integers(2, k_max + 1))
    d = int(rng.integers(1, d_max + 1))
    stochastic = bool(rng.integers(0, 2))
    tuples = []
    for t in range(n):
        inst = Instance(id=f"p{t}", candidates=rng.standard_normal((k, d)))
        chosen = int(rng.integers(0, k))
        reward = float(rng.uniform(0.0, 1.0))
        propensity = float(rng.uniform(0.05, 1.0)) if stochastic else None
        tuples.append(LoggedTuple(inst, chosen, reward, propensity))
    mode = Mode.STOCHASTIC if stochastic else Mode.DETERMINISTIC
    log = Log(tuple(tuples), mode)
    params = PolicyParams(rng.standard_normal(d), alpha=float(rng.uniform(0.5, 2.0)))
    model = RewardModel(
        weights=rng.standard_normal(d) / np.sqrt(d),
        intercept=float(rng.uniform(0.0, 1.0)),
        ridge_lambda=0.0,
    )
    c_hat = float(rng.uniform(0.0, 2.0))
    return params, log, model, c_hat


def default_families() -> dict:
    """family name -> builder(problem) -> (value_fn, grad_fn)."""

    def ips_dpm(problem):
        _, log, _, _ = problem
        return (lambda p: value_ips_dpm(p, log)), (lambda p: grad_ips_dpm(p, log))

    def reweighted(problem):
        _, log, _, _ = problem
        return (lambda p: value_reweighted(p, log)), (lambda p: grad_reweighted(p, log))

    def doubly_controlled(problem):
        _, log, model, c_hat = problem
        return (
            lambda p: value_doubly_controlled(p, log, model, c_hat),
            lambda p: grad_doubly_controlled(p, log, model, c_hat),
        )

    return {
        "ips-dpm": ips_dpm,
        "reweighted": reweighted,
        "doubly-controlled": doubly_controlled,
    }


def run_grad_check(
    seed: int,
    count: int = 100,
    n_max: int = 10,
    k_max: int = 5,
    d_max: int = 6,
    families: dict | None = None,
    tolerance: float = FD_TOLERANCE,
) -> list[GradCheckResult]:
    """Finite-difference check of each gradient family on seeded random problems."""
    families = families if families is not None else default_families()
    rng = np.random.default_rng(seed)
    problems = [random_problem(rng, n_max, k_max, d_max) for _ in range(count)]
    results = []
    for name, build in families.items():
        worst = 0.0
        failures = 0
        singular = 0
        constant = 0
        for problem in problems:
            params, log, _, _ = problem
            if name != "ips-dpm" and len(log) == 1:
                constant += 1
            value_fn, grad_fn = build(problem)
            try:
                err = fd_check(value_fn, grad_fn, params)
            except DegenerateSupportError:
                singular += 1
                continue
            worst = max(worst, err)
            if err >= tolerance:
                failures += 1
        results.append(
            GradCheckResult(
                family=name,
                problems=len(problems) - singular,
                max_rel_error=worst,
                failures=failures,
                singular=singular,
                constant_cases=constant,
            )
        )
    return results
