"""Counterfactual value estimators over logged data.

Eight objectives share two building blocks: the per-tuple importance
weight ``rho_t`` (the policy probability of the logged choice, divided by
its propensity on stochastic logs) and its self-normalized form
``rho_bar_t = n * rho_t / sum(rho)``.

============  ===========  ==========================================
kind          log mode     objective
============  ===========  ==========================================
IPS / DPM     stoch / det  (1/n) sum_t  delta_t rho_t
IPS+R/DPM+R   stoch / det  (1/n) sum_t  delta_t rho_bar_t
DR / DC       stoch / det  doubly controlled with c = 1
cDR / cDC     stoch / det  doubly controlled with estimated c
============  ===========  ==========================================

The doubly controlled objective combines the self-normalized correction
with a direct reward model over the full candidate set:

    (1/n) sum_t [ (delta_t - c * dhat_t) rho_bar_t
                  + c * sum_y dhat(x_t, y) pi_w(y | x_t) ].

The inner sum always weights by ``pi_w``: propensities are only logged
for the chosen output, so ``pi/mu`` is undefined off the logged choice.
With c = 0 it is the self-normalized objective, so the eight kinds are two
formulas; every value and diagnostic here comes from the one fused pass of
:func:`cflearn.gradients.value_and_grad`, except :func:`value_reweighted`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from .domain import Log, Mode, PolicyParams
from .errors import DegenerateSupportError, LogConsistencyError

if TYPE_CHECKING:
    from .reward import RewardModel


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

    @property
    def family(self) -> str:
        """The objective family: "plain", "reweighted" (controlled at c = 0) or "controlled"."""
        if self.uses_reward_model:
            return "controlled"
        return "reweighted" if self.reweighted else "plain"


_FAMILY_KINDS = {
    (kind.family, kind.required_mode): kind for kind in EstimatorKind if not kind.estimates_control
}


def family_kind(family: str, mode: Mode) -> EstimatorKind:
    """The fixed-control kind of an objective family on a log of ``mode``."""
    try:
        return _FAMILY_KINDS[family, mode]
    except KeyError:
        raise ValueError(f"unknown objective family {family!r}") from None


@dataclass(frozen=True, eq=False)
class EstimatorReport:
    """Value of one estimator plus weight diagnostics."""

    kind: EstimatorKind
    value: float
    weights_used: np.ndarray
    mass_on_dmax: float
    effective_sample_size: float


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


def _pass(kind: EstimatorKind, params: PolicyParams, log: Log, model: "RewardModel | None" = None):
    """One value-only objective pass; see :func:`cflearn.gradients.value_and_grad`."""
    from .gradients import value_and_grad  # import here: gradients builds on this module

    return value_and_grad(kind, params, log, model, grad=False)


def _rho(log: Log, probs: np.ndarray) -> np.ndarray:
    """Per-tuple importance weights from the (n, k_max) policy probabilities:
    pi/mu on stochastic logs, pi otherwise."""
    chosen = log.at_chosen(probs)
    if log.mode is Mode.STOCHASTIC:
        return chosen / log.propensities
    return chosen


def rho_weights(params: PolicyParams, log: Log) -> np.ndarray:
    """Per-tuple importance weights for the whole log, in log order."""
    return _pass(family_kind("plain", log.mode), params, log).rho


def _normalize(rho_values: np.ndarray) -> np.ndarray:
    total = rho_values.sum()
    if total <= 0.0:
        raise DegenerateSupportError(
            "all importance weights are zero; the self-normalized value is undefined"
        )
    return rho_values.size * rho_values / total


def normalized_weights(params: PolicyParams, log: Log) -> tuple[np.ndarray, np.ndarray]:
    """Raw and self-normalized weights ``(rho, rho_bar)`` for the whole log.

    ``rho_bar_t = n * rho_t / sum(rho)`` so that the plain mean of
    ``delta * rho_bar`` reproduces the ratio form of the reweighted value.
    """
    result = _pass(family_kind("reweighted", log.mode), params, log)
    return result.rho, result.rho_bar


def value_ips_dpm(params: PolicyParams, log: Log) -> float:
    """Importance-weighted average reward, (1/n) sum_t delta_t rho_t.

    On a stochastic log this is inverse propensity scoring; on a
    deterministic log no sampling-bias correction is applied.
    """
    return _pass(family_kind("plain", log.mode), params, log).value()


def value_reweighted(params: PolicyParams, log: Log) -> float:
    """Self-normalized importance-weighted reward.

    Equals sum(delta * rho) / sum(rho), computed as the mean of
    ``delta * rho_bar``.  Raises :class:`DegenerateSupportError` when every
    weight is zero, where the ratio is undefined.  Computed directly, not by
    the fused pass, so that it checks the pass's c = 0 reduction.
    """
    if len(log) == 0:
        raise ValueError("log is empty")
    rho_bar = _normalize(_rho(log, log.probs(params)))
    return float((log.rewards * rho_bar).mean())


def value_doubly_controlled(
    params: PolicyParams, log: Log, reward_model: "RewardModel", c_hat: float
) -> float:
    """Doubly controlled value: reweighted correction plus scaled direct model.

    ``c_hat = 1`` gives the DC (deterministic) / DR (stochastic) objective;
    ``c_hat = 0`` reduces exactly to the reweighted value.
    """
    return _pass(family_kind("controlled", log.mode), params, log, reward_model).value(c_hat)


def dmax_mask(rewards: np.ndarray) -> np.ndarray:
    """Boolean mask of tuples attaining the maximal logged reward (exact equality)."""
    return rewards == rewards.max()


@dataclass(frozen=True, eq=False)
class WeightDiagnostics:
    """Concentration diagnostics of the self-normalized weights."""

    weights: np.ndarray          # rho_bar, in log order
    mass_on_dmax: float          # share of normalized weight on max-reward tuples
    effective_sample_size: float  # n^2 / sum rho_bar^2 = (sum rho)^2 / sum rho^2, in (0, n]


def diagnostics(params: PolicyParams, log: Log) -> WeightDiagnostics:
    """Weight-concentration diagnostics of the policy on this log."""
    return _pass(family_kind("reweighted", log.mode), params, log).diagnostics()


def objective_value(
    kind: EstimatorKind,
    params: PolicyParams,
    log: Log,
    reward_model: "RewardModel | None" = None,
    c_hat: float | None = None,
) -> float:
    """Value of any estimator kind, with mode compatibility enforced."""
    check_mode(kind, log)
    result = _pass(kind, params, log, reward_model)
    return result.value(result.resolve_control(c_hat))


def evaluate_policy(
    kind: EstimatorKind,
    params: PolicyParams,
    log: Log,
    reward_model: "RewardModel | None" = None,
    c_hat: float | None = None,
) -> EstimatorReport:
    """Full report: estimator value plus weight diagnostics, from one pass."""
    check_mode(kind, log)
    result = _pass(kind, params, log, reward_model)
    value = result.value(result.resolve_control(c_hat))
    diag = result.diagnostics()
    return EstimatorReport(
        kind=kind,
        value=value,
        weights_used=diag.weights if kind.reweighted else result.rho,
        mass_on_dmax=diag.mass_on_dmax,
        effective_sample_size=diag.effective_sample_size,
    )
