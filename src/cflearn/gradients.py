"""Finite-difference check of the objectives' exact gradients.

Each family's analytic gradient is compared with central differences of its
value on seeded random problems.  The plain (DPM), self-normalized (DPM-R)
and controlled (DC) families cover the eight kinds, each of which is its
family at its control c.  A family reads its value and gradient from
:func:`cflearn.estimators.value_and_grad`, at c = c_hat for the controlled
family and 0 otherwise; only the self-normalized value comes from
:func:`cflearn.estimators.value_reweighted`, which computes it directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .domain import Log, Mode, PolicyParams
from .errors import DegenerateSupportError
from .estimators import EstimatorKind, value_and_grad, value_reweighted
from .reward import RewardModel

FD_STEP = 1e-5
FD_TOLERANCE = 1e-5


def fd_check(
    value_fn: Callable[[PolicyParams], float],
    grad_fn: Callable[[PolicyParams], np.ndarray],
    params: PolicyParams,
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
        bump[j] = FD_STEP
        hi = value_fn(PolicyParams(weights + bump, params.alpha))
        lo = value_fn(PolicyParams(weights - bump, params.alpha))
        numeric = (hi - lo) / (2.0 * FD_STEP)
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
    ids, counts = np.array([f"p{t}" for t in range(n)], dtype=object), np.full(n, k, dtype=np.intp)
    features, chosen, rewards = np.empty((n, k, d)), np.empty(n, dtype=np.intp), np.empty(n)
    propensities = np.empty(n) if stochastic else None
    for t in range(n):  # one tuple's draws after another: drawing by column would change every problem
        features[t] = rng.standard_normal((k, d))
        chosen[t] = rng.integers(0, k)
        rewards[t] = rng.uniform(0.0, 1.0)
        if stochastic:
            propensities[t] = rng.uniform(0.05, 1.0)
    mode = Mode.STOCHASTIC if stochastic else Mode.DETERMINISTIC
    log = Log._from_columns(mode, ids, features, counts, chosen, rewards, propensities)
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

    def family(kind: EstimatorKind):
        def build(problem):
            _, log, model, c_hat = problem
            c = c_hat if kind.uses_reward_model else 0.0

            def value_fn(p):
                if kind is EstimatorKind.DPM_R:  # computed directly, so it checks the pass's c = 0 reduction
                    return value_reweighted(p, log)
                return value_and_grad(kind, p, log, model, grad=False).value_at(c)

            return value_fn, lambda p: value_and_grad(kind, p, log, model).grad(c)

        return build

    return {
        "ips-dpm": family(EstimatorKind.DPM),
        "reweighted": family(EstimatorKind.DPM_R),
        "doubly-controlled": family(EstimatorKind.DC),
    }


def run_grad_check(
    seed: int,
    count: int = 100,
    n_max: int = 10,
    k_max: int = 5,
    d_max: int = 6,
    families: dict | None = None,
) -> list[GradCheckResult]:
    """Finite-difference check of each gradient family on seeded random
    problems; a problem fails at a relative error of ``FD_TOLERANCE`` or more."""
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
            if err >= FD_TOLERANCE:
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
