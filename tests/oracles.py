"""Per-instance reference formulas for the fused objective pass.

These are the objective values, per-tuple gradient terms and trainer loop
the package used before every kind went through one fused pass, written
one instance at a time with ``policy_probs`` and ``log_prob_gradient``.  The
tests compare the fused pass and the trainer against them.
"""

from __future__ import annotations

import numpy as np

from cflearn import (
    EstimatorKind,
    Log,
    PolicyParams,
    RewardModel,
    control_scalar,
    fit_reward_model,
    initial_params,
    log_prob_gradient,
    policy_probs,
)


def per_tuple(params: PolicyParams, log: Log, model: RewardModel | None = None) -> dict:
    """rho, g_t = grad log pi(y_t|x_t), and the model terms, tuple by tuple."""
    rho, grads, dhat, direct, direct_grads = [], [], [], [], []
    for t in log.tuples:
        inst = t.instance
        probs = policy_probs(params, inst)
        mu = 1.0 if t.propensity is None else t.propensity
        rho.append(probs[t.chosen] / mu)
        grads.append(log_prob_gradient(params, inst, t.chosen))
        if model is not None:
            preds = model.predict_features(inst.candidates)
            dhat.append(preds[t.chosen])
            direct.append(preds @ probs)
            direct_grads.append(
                sum(preds[y] * probs[y] * log_prob_gradient(params, inst, y) for y in range(inst.k))
            )
    return {
        "rewards": np.array([t.reward for t in log.tuples]),
        "rho": np.array(rho),
        "grads": np.array(grads),
        "dhat": np.array(dhat),
        "direct": np.array(direct),
        "direct_grads": np.array(direct_grads),
    }


def rho_bar(rho: np.ndarray) -> np.ndarray:
    return rho.size * rho / rho.sum()


def terms(kind: EstimatorKind, params: PolicyParams, log: Log, model=None, c: float = 1.0):
    """Per-tuple value and gradient terms whose means are the objective and its gradient."""
    q = per_tuple(params, log, model if kind.uses_reward_model else None)
    delta, rho, grads = q["rewards"], q["rho"], q["grads"]
    if not kind.reweighted:
        return delta * rho, (delta * rho)[:, None] * grads
    bar = rho_bar(rho)
    centred = grads - (bar[:, None] * grads).mean(axis=0)
    if not kind.uses_reward_model:
        return delta * bar, (delta * bar)[:, None] * centred
    coeff = (delta - c * q["dhat"]) * bar
    return coeff + c * q["direct"], coeff[:, None] * centred + c * q["direct_grads"]


def value(kind, params, log, model=None, c=1.0) -> float:
    return float(terms(kind, params, log, model, c)[0].mean())


def gradient(kind, params, log, model=None, c=1.0) -> np.ndarray:
    return terms(kind, params, log, model, c)[1].mean(axis=0)


def c_hat(params: PolicyParams, log: Log, model: RewardModel) -> float:
    q = per_tuple(params, log, model)
    bar = rho_bar(q["rho"])
    return control_scalar(q["rewards"] * bar, q["dhat"] * bar).c_hat


def diagnostics(params: PolicyParams, log: Log) -> tuple[float, float]:
    """(mass on the max-reward tuples, effective sample size (sum rho)^2 / sum rho^2)."""
    q = per_tuple(params, log)
    bar = rho_bar(q["rho"])
    top = q["rewards"] == q["rewards"].max()
    return float(bar[top].sum() / bar.size), float(q["rho"].sum() ** 2 / (q["rho"] ** 2).sum())


def _sublog(log: Log, idx) -> Log:
    return Log(tuple(log.tuples[i] for i in idx), log.mode)


def train(config, train_log: Log, validation_log: Log):
    """The trainer loop as it ran before the fused pass: c_hat re-estimated at
    the start of each epoch, one gradient per batch, then the train value,
    validation value, diagnostics and gradient norm, each computed anew."""
    kind = config.kind
    model = fit_reward_model(train_log, config.ridge_lambda) if kind.uses_reward_model else None
    n = len(train_log)
    batch_size = n if config.batch_size == "full" else config.batch_size
    params = initial_params(config, train_log.tuples[0].instance.dim)
    rng = np.random.default_rng(config.seed)
    c = 1.0
    records = []
    for epoch in range(1, config.epochs + 1):
        if kind.estimates_control and (epoch == 1 or config.c_refresh == "epoch"):
            c = c_hat(params, train_log, model)
        if batch_size >= n:
            batches = [np.arange(n)]
        else:
            perm = rng.permutation(n)
            batches = [perm[i : i + batch_size] for i in range(0, n, batch_size)]
        for idx in batches:
            if idx.size == n:
                step = gradient(kind, params, train_log, model, c)
            elif config.normalize == "batch":
                step = gradient(kind, params, _sublog(train_log, idx), model, c)
            else:
                step = terms(kind, params, train_log, model, c)[1][idx].mean(axis=0)
            params = PolicyParams(params.weights + config.learning_rate * step, params.alpha)
        mass, _ = diagnostics(params, train_log)
        records.append(
            (
                value(kind, params, train_log, model, c),
                value(kind, params, validation_log, model, c),
                mass,
                float(np.linalg.norm(gradient(kind, params, train_log, model, c))),
            )
        )
    return params, records
