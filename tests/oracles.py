"""Per-instance reference code paths for the columnar log and the fused pass.

These are the objective values, per-tuple gradient terms, trainer loop,
log rolling and splitting, log writer and degeneracy probes the package
used before logs became columns and every kind went through one fused
pass, written one tuple at a time with ``policy_probs`` and
``log_prob_gradient``.  The tests compare the package against them.
"""

from __future__ import annotations

import json

import numpy as np

from cflearn import (
    EstimatorKind,
    Instance,
    Log,
    LogConsistencyError,
    LoggedTuple,
    Mode,
    PolicyParams,
    ProbeResult,
    RewardModel,
    control_scalar,
    fit_reward_model,
    initial_params,
    log_prob_gradient,
    partition_dmax,
    policy_probs,
)
from cflearn import degeneracy


def rho(params: PolicyParams, tup: LoggedTuple, mode: Mode) -> float:
    """Importance weight of one tuple: pi/mu when stochastic, pi otherwise."""
    prob = float(policy_probs(params, tup.instance)[tup.chosen])
    if mode is Mode.STOCHASTIC:
        if tup.propensity is None:
            raise LogConsistencyError(
                "stochastic weighting needs a logged propensity on every tuple"
            )
        return prob / tup.propensity
    return prob


def predict(model: RewardModel, instance: Instance, y: int) -> float:
    """dhat(x, y), clipped to [0, 1]."""
    return float(model.predict_features(instance.candidates[int(y)]))


def predict_all(model: RewardModel, instance: Instance) -> np.ndarray:
    """dhat(x, y) for every candidate of the instance."""
    return model.predict_features(instance.candidates)


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


def evaluate_truth(params: PolicyParams, instances, truth) -> float:
    """Exact expected true reward, one ``policy_probs`` call per instance."""
    total = 0.0
    for inst in instances:
        total += float(policy_probs(params, inst) @ np.asarray(truth(inst), dtype=float))
    return total / len(instances)


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


# -- logs, one tuple at a time --------------------------------------------------


def _sample_index(probs: np.ndarray, u: float) -> int:
    cumulative = np.cumsum(probs)
    idx = int(np.searchsorted(cumulative, u, side="right"))
    if idx >= probs.size or probs[idx] <= 0.0:
        idx = int(np.max(np.nonzero(probs > 0.0)[0]))
    return idx


def roll_log(instances, truth, logging_policy, rng=0) -> Log:
    """One tuple per instance, one softmax and one uniform draw at a time."""
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    tuples = []
    for inst in instances:
        probs = policy_probs(logging_policy.params, inst)
        if logging_policy.mode is Mode.DETERMINISTIC:
            chosen = int(np.argmax(probs))
            propensity = None
        else:
            chosen = _sample_index(probs, rng.random())
            propensity = float(probs[chosen])
        tuples.append(LoggedTuple(inst, chosen, float(truth(inst)[chosen]), propensity))
    return Log(tuple(tuples), logging_policy.mode)


def split(log: Log, fractions, seed: int) -> tuple[Log, Log, Log]:
    """The seeded partition, rebuilt from tuple lists."""
    n = len(log)
    boundaries = np.round(np.cumsum(np.asarray(fractions, dtype=float)) * n).astype(int)
    boundaries[-1] = n
    perm = np.random.default_rng(seed).permutation(n)
    tuples = log.tuples
    parts, start = [], 0
    for stop in boundaries:
        parts.append(Log(tuple(tuples[i] for i in np.sort(perm[start:stop])), log.mode))
        start = stop
    return parts[0], parts[1], parts[2]


def write_log(path, log: Log) -> None:
    """The JSONL writer, one LoggedTuple at a time."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps({"mode": log.mode.value}) + "\n")
        for t in log.tuples:
            record = {
                "id": t.instance.id,
                "features": t.instance.candidates.tolist(),
                "chosen": int(t.chosen),
                "reward": float(t.reward),
            }
            if t.propensity is not None:
                record["propensity"] = float(t.propensity)
            handle.write(json.dumps(record) + "\n")


# -- degeneracy probes, one trial at a time ---------------------------------------


def _log_arrays(log: Log) -> tuple[np.ndarray, np.ndarray]:
    rewards = np.array([t.reward for t in log.tuples])
    if log.mode is Mode.STOCHASTIC:
        propensities = np.array([t.propensity for t in log.tuples])
    else:
        propensities = np.ones(len(log.tuples))
    return rewards, propensities


def assignment_value(assignment, log: Log) -> float:
    rewards, propensities = _log_arrays(log)
    return float((rewards * np.asarray(assignment, dtype=float) / propensities).mean())


def assignment_value_reweighted(assignment, log: Log) -> float:
    rewards, propensities = _log_arrays(log)
    weights = np.asarray(assignment, dtype=float) / propensities
    return float((rewards * weights).sum() / weights.sum())


def probe_theorem1(log: Log, seed: int = 0, trials: int = 200) -> ProbeResult:
    rewards, _ = _log_arrays(log)
    theorem = "all-mass-maximizer"
    if np.any(rewards <= 0.0):
        return ProbeResult(theorem, False, True, "hypothesis violated: some logged reward is zero")
    n = len(log.tuples)
    reference = assignment_value(np.ones(n), log)
    rng = np.random.default_rng(seed)
    worst = -np.inf
    for _ in range(trials):
        value = assignment_value(rng.random(n), log)
        worst = max(worst, value)
        if value >= reference:
            return ProbeResult(
                theorem, False, reference_value=reference, worst_challenger=worst,
                witness="assignment with a coordinate below 1 reached the reference value",
            )
    return ProbeResult(
        theorem, True, reference_value=reference, worst_challenger=worst,
        witness="all logged outputs at probability 1",
    )


def probe_theorem2(log: Log, seed: int = 0, trials: int = 200) -> ProbeResult:
    theorem = "dmax-collapse"
    part = partition_dmax(log)
    if part.delta_max <= 0.0:
        return ProbeResult(theorem, False, True, "hypothesis violated: maximal reward is zero")
    if part.rest_indices.size == 0:
        return ProbeResult(
            theorem, False, True, "hypothesis violated: every tuple attains the maximal reward"
        )
    n = len(log.tuples)
    rng = np.random.default_rng(seed)
    dmax, rest = part.dmax_indices, part.rest_indices
    worst = -np.inf

    def fail(witness, value):
        return ProbeResult(
            theorem, False, reference_value=part.delta_max,
            worst_challenger=max(worst, value), witness=witness,
        )

    # the same two blocks as the probe: the values of each trial's three
    # challengers side by side, the last column of each its 1 - u value
    values = rng.random((trials, (dmax.size + 1) + (n + 1) + (rest.size + 1)))
    picks = rng.integers((dmax.size, rest.size, rest.size), size=(trials, 3))
    for trial in range(trials):
        row = values[trial]
        confined, outside, avoiding = (
            row[: dmax.size + 1], row[dmax.size + 1 : dmax.size + n + 2], row[dmax.size + n + 2 :]
        )
        pick_confined, pick_outside, pick_avoiding = (int(p) for p in picks[trial])

        assignment = np.zeros(n)
        assignment[dmax] = confined[:-1]
        assignment[dmax[pick_confined]] = 1.0 - confined[-1]
        value = assignment_value_reweighted(assignment, log)
        if abs(value - part.delta_max) > degeneracy.DEGENERATE_VALUE_TOL:
            return fail("mass confined to max-reward tuples missed delta_max", value)

        assignment = outside[:-1].copy()
        assignment[rest[pick_outside]] = 1.0 - outside[-1]
        value = assignment_value_reweighted(assignment, log)
        worst = max(worst, value)
        if value >= part.delta_max:
            return fail("assignment with mass outside the max-reward set reached delta_max", value)

        assignment = np.zeros(n)
        assignment[rest] = avoiding[:-1]
        assignment[rest[pick_avoiding]] = 1.0 - avoiding[-1]
        value = assignment_value_reweighted(assignment, log)
        worst = max(worst, value)
        if value >= part.delta_max:
            return fail(
                "assignment avoiding the max-reward set reached the degenerate value", value
            )
    return ProbeResult(
        theorem, True, reference_value=part.delta_max, worst_challenger=worst,
        witness="positive mass on a max-reward tuple, zero elsewhere",
    )


# -- the objective pass over tuples grouped by k ---------------------------------


def grouped_pass(kind: EstimatorKind, params: PolicyParams, log: Log, model=None, rows=None):
    """The fused pass as it ran over a log packed into one dense group per
    candidate-set size k, with per-tuple results scattered back to log order.
    Returns (a, b, grads, c_hat inputs x and y, mass_on_dmax, ess)."""
    tuples = log.tuples
    n = len(tuples)
    by_k: dict[int, list[int]] = {}
    for pos, t in enumerate(tuples):
        by_k.setdefault(t.instance.k, []).append(pos)
    groups = []
    for positions in by_k.values():
        idx = np.asarray(positions, dtype=np.intp)
        feats = np.stack([tuples[p].instance.candidates for p in positions])
        chosen = np.array([tuples[p].chosen for p in positions], dtype=np.intp)
        groups.append((idx, feats, chosen))

    def at_chosen(per_group):
        out = np.empty(n)
        for (idx, _, chosen), values in zip(groups, per_group):
            out[idx] = values[np.arange(chosen.size), chosen]
        return out

    probs = []
    for _, feats, _ in groups:
        m, k, d = feats.shape
        scores = params.alpha * (feats.reshape(m * k, d) @ params.weights).reshape(m, k)
        shifted = scores - scores.max(axis=-1, keepdims=True)
        np.exp(shifted, out=shifted)
        probs.append(shifted / shifted.sum(axis=-1, keepdims=True))
    rewards = np.array([t.reward for t in tuples], dtype=float)
    rho = at_chosen(probs)
    if log.mode is Mode.STOCHASTIC:
        rho = rho / np.array([t.propensity for t in tuples], dtype=float)
    rho_bar = rho.size * rho / rho.sum()
    mass = float(rho_bar[rewards == rewards.max()].sum() / n)
    ess = float(n * n / (rho_bar @ rho_bar))
    x = y = None
    b = 0.0
    if kind.reweighted:
        x = rewards * rho_bar
        a = float(x.mean())
    else:
        a = float((rewards * rho).mean())
    if kind.uses_reward_model:
        preds = [model.predict_features(feats) for _, feats, _ in groups]
        y = at_chosen(preds) * rho_bar
        direct = np.empty(n)
        for (idx, _, _), pg, dg in zip(groups, probs, preds):
            direct[idx] = (pg * dg).sum(axis=1)
        b = float((direct - y).mean())

    u = np.full(n, 1.0 / n)
    if rows is not None:
        u = np.zeros(n)
        u[rows] = 1.0 / len(rows)
    if kind.reweighted:
        coeff_a = u * x - (u @ x / n) * rho_bar
    else:
        coeff_a = u * rewards * rho
    if kind.uses_reward_model:
        coeff_b = (u @ y / n) * rho_bar - u * y
    grads = np.zeros((2, log.dim))
    for pos, ((idx, feats, chosen), pg) in enumerate(zip(groups, probs)):
        m, k, d = feats.shape
        score = -pg
        score[np.arange(m), chosen] += 1.0
        w = np.zeros((2, m, k))
        np.multiply(coeff_a[idx, None], score, out=w[0])
        if kind.uses_reward_model:
            w[1] = coeff_b[idx, None] * score + (u[idx, None] * pg) * (
                preds[pos] - direct[idx, None]
            )
        grads += w.reshape(2, m * k) @ feats.reshape(m * k, d)
    grads *= params.alpha
    return a, b, grads, x, y, mass, ess
