"""Independent numpy reference for the benchmark's output checks.

Works on raw arrays only and imports nothing from cflearn:

- ``feats``   (n, k, d) candidate features
- ``chosen``  (n,) logged choice
- ``rewards`` (n,) logged reward delta
- ``props``   (n,) logged propensity, or None on a deterministic log
- ``truth``   (n, k) true reward of every candidate

The formulas follow the paper's definitions directly: the softmax policy,
rho and its self-normalized form rho_bar, the plain value mean(delta*rho),
the controlled value mean((delta - c*dhat)*rho_bar + c*sum_y dhat*pi),
c_hat = Cov(X, Y) / Var(Y), and the true reward by enumeration.  The ridge
fit solves an augmented least-squares problem instead of the normal
equations, so it shares no code path with the program either.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

VAR_FLOOR = 1e-12  # below this Var(Y) the control variate is constant: c_hat = 0

PLAIN = ("ips", "dpm")
REWEIGHTED = ("ips-r", "dpm-r")
CONTROLLED = ("dr", "dc")  # c = 1; "cdr" and "cdc" estimate c


@dataclass
class RawLog:
    ids: list
    feats: np.ndarray
    chosen: np.ndarray
    rewards: np.ndarray
    props: np.ndarray | None

    @property
    def n(self) -> int:
        return self.rewards.size


@dataclass
class RidgeModel:
    weights: np.ndarray
    intercept: float

    def predict(self, feats: np.ndarray) -> np.ndarray:
        return np.clip(np.einsum("...d,d->...", feats, self.weights) + self.intercept, 0.0, 1.0)


def softmax(feats: np.ndarray, weights: np.ndarray, alpha: float = 1.0) -> np.ndarray:
    scores = alpha * np.einsum("nkd,d->nk", feats, weights)
    scores = scores - scores.max(axis=1, keepdims=True)
    expd = np.exp(scores)
    return expd / expd.sum(axis=1, keepdims=True)


def rho(probs: np.ndarray, log: RawLog) -> np.ndarray:
    picked = probs[np.arange(log.n), log.chosen]
    return picked if log.props is None else picked / log.props


def rho_bar(r: np.ndarray) -> np.ndarray:
    return r.size * r / r.sum()


def fit_ridge(log: RawLog, ridge_lambda: float) -> RidgeModel:
    """Ridge on chosen features, intercept unpenalized, via augmented lstsq."""
    x = log.feats[np.arange(log.n), log.chosen]
    d = x.shape[1]
    design = np.vstack(
        [
            np.hstack([np.ones((log.n, 1)), x]),
            np.hstack([np.zeros((d, 1)), np.sqrt(ridge_lambda) * np.eye(d)]),
        ]
    )
    target = np.concatenate([log.rewards, np.zeros(d)])
    beta = np.linalg.lstsq(design, target, rcond=None)[0]
    return RidgeModel(weights=beta[1:], intercept=float(beta[0]))


def c_hat(x: np.ndarray, y: np.ndarray) -> float:
    cov = float(np.cov(x, y, ddof=1)[0, 1])
    var = float(np.var(y, ddof=1))
    return 0.0 if var < VAR_FLOOR else cov / var


def value(kind: str, weights, alpha: float, log: RawLog, model: RidgeModel | None = None) -> float:
    """Estimator value of the softmax policy on a log (c estimated for cDR/cDC)."""
    probs = softmax(log.feats, np.asarray(weights, dtype=float), alpha)
    r = rho(probs, log)
    if kind in PLAIN:
        return float(np.mean(log.rewards * r))
    rb = rho_bar(r)
    if kind in REWEIGHTED:
        return float(np.mean(log.rewards * rb))
    dhat_all = model.predict(log.feats)
    dhat = dhat_all[np.arange(log.n), log.chosen]
    c = 1.0 if kind in CONTROLLED else c_hat(log.rewards * rb, dhat * rb)
    return float(np.mean((log.rewards - c * dhat) * rb + c * (dhat_all * probs).sum(axis=1)))


def true_reward(weights, alpha: float, feats: np.ndarray, truth: np.ndarray) -> float:
    probs = softmax(feats, np.asarray(weights, dtype=float), alpha)
    return float(np.mean((probs * truth).sum(axis=1)))


def effective_sample_size(r: np.ndarray) -> float:
    return float(r.sum() ** 2 / (r**2).sum())


def mass_on_dmax(rewards: np.ndarray, rb: np.ndarray) -> float:
    return float(rb[rewards == rewards.max()].sum() / rewards.size)


# -- files written by the CLI, parsed with json/csv only ---------------------


def read_jsonl_log(path: Path) -> tuple[str, RawLog]:
    # one record at a time, so the check adds little to the run's peak memory
    ids, feats, chosen, rewards, props = [], [], [], [], []
    with open(path, encoding="utf-8") as handle:
        mode = json.loads(handle.readline())["mode"]
        for line in handle:
            rec = json.loads(line)
            ids.append(rec["id"])
            feats.append(np.array(rec["features"], dtype=float))
            chosen.append(rec["chosen"])
            rewards.append(rec["reward"])
            props.append(rec.get("propensity"))
    return mode, RawLog(
        ids=ids,
        feats=np.stack(feats),
        chosen=np.array(chosen, dtype=np.intp),
        rewards=np.array(rewards, dtype=float),
        props=np.array(props, dtype=float) if mode == "stochastic" else None,
    )


def read_json(path: Path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def read_report(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def bit_equal(a: np.ndarray, b: np.ndarray) -> bool:
    a = np.ascontiguousarray(a, dtype=float)
    b = np.ascontiguousarray(b, dtype=float)
    return a.shape == b.shape and bool(np.array_equal(a.view(np.int64), b.view(np.int64)))
