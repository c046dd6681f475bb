"""Vectorized, whole-log views used by the estimator and gradient code.

Tuples are stacked into dense arrays, grouped by candidate-set size so logs
with mixed k still vectorize.  Per-tuple results are scattered back into
log order, and per-group sums are added in group order, so every reduction
runs in a fixed order and results are reproducible.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .domain import Log, Mode, PolicyParams
from .errors import ConfigurationError

if TYPE_CHECKING:
    from .reward import RewardModel


@dataclass
class Group:
    """Tuples sharing one candidate-set size k."""

    idx: np.ndarray     # (m,) positions in the packed log
    feats: np.ndarray   # (m, k, d)
    chosen: np.ndarray  # (m,)


def _softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=-1, keepdims=True)
    np.exp(shifted, out=shifted)
    return shifted / shifted.sum(axis=-1, keepdims=True)


class PackedLog:
    """Dense array view over a :class:`Log`."""

    __slots__ = (
        "n", "dim", "mode", "rewards", "propensities", "groups", "_model", "_preds", "__weakref__"
    )

    def __init__(self, n, dim, mode, rewards, propensities, groups, model=None, preds=None):
        self.n = n
        self.dim = dim
        self.mode = mode
        self.rewards = rewards
        self.propensities = propensities
        self.groups = groups
        self._model = model  # the reward model whose predictions ``_preds`` holds
        self._preds = preds

    @classmethod
    def from_log(cls, log: Log) -> "PackedLog":
        n = len(log.tuples)
        rewards = np.array([t.reward for t in log.tuples], dtype=float)
        propensities = None
        if log.mode is Mode.STOCHASTIC:
            propensities = np.array([t.propensity for t in log.tuples], dtype=float)

        dims = {t.instance.dim for t in log.tuples}
        if len(dims) > 1:
            raise ConfigurationError(f"log mixes feature dimensions {sorted(dims)}")
        dim = dims.pop() if dims else 0

        by_k: dict[int, list[int]] = {}
        for pos, t in enumerate(log.tuples):
            by_k.setdefault(t.instance.k, []).append(pos)
        groups = []
        for k, positions in by_k.items():
            idx = np.asarray(positions, dtype=np.intp)
            feats = np.stack([log.tuples[p].instance.candidates for p in positions])
            chosen = np.array([log.tuples[p].chosen for p in positions], dtype=np.intp)
            groups.append(Group(idx=idx, feats=feats, chosen=chosen))
        return cls(n, dim, log.mode, rewards, propensities, groups)

    def subset(self, order: np.ndarray) -> "PackedLog":
        """A packed view restricted to the given positions, in the given order.

        Cached reward-model predictions carry over to the subset.
        """
        order = np.asarray(order, dtype=np.intp)
        inverse = np.full(self.n, -1, dtype=np.intp)
        inverse[order] = np.arange(order.size)
        groups = []
        preds = [] if self._model is not None else None
        for pos, g in enumerate(self.groups):
            new_idx = inverse[g.idx]
            rows = np.nonzero(new_idx >= 0)[0]
            if rows.size:
                groups.append(
                    Group(idx=new_idx[rows], feats=g.feats[rows], chosen=g.chosen[rows])
                )
                if preds is not None:
                    preds.append(self._preds[pos][rows])
        propensities = None if self.propensities is None else self.propensities[order]
        return PackedLog(
            order.size, self.dim, self.mode, self.rewards[order], propensities, groups,
            self._model, preds,
        )

    def _check_params(self, params: PolicyParams) -> None:
        if params.dim != self.dim:
            raise ConfigurationError(
                f"weight dimension {params.dim} does not match log feature "
                f"dimension {self.dim}"
            )

    def probs(self, params: PolicyParams) -> list[np.ndarray]:
        """Softmax probabilities of shape (m, k) for every group, in group order."""
        self._check_params(params)
        out = []
        for g in self.groups:
            m, k, d = g.feats.shape
            scores = (g.feats.reshape(m * k, d) @ params.weights).reshape(m, k)
            out.append(_softmax(params.alpha * scores))
        return out

    def at_chosen(self, per_group: list[np.ndarray]) -> np.ndarray:
        """Per-group (m, k) values taken at each tuple's chosen candidate, in log order."""
        out = np.empty(self.n)
        for g, values in zip(self.groups, per_group):
            out[g.idx] = values[np.arange(g.chosen.size), g.chosen]
        return out

    def chosen_features(self) -> np.ndarray:
        """phi(x_t, y_t) for every tuple, in log order."""
        out = np.empty((self.n, self.dim))
        for g in self.groups:
            out[g.idx] = g.feats[np.arange(g.chosen.size), g.chosen]
        return out

    def rho_from(self, chosen_probs: np.ndarray) -> np.ndarray:
        """Per-tuple importance weight: pi/mu on stochastic logs, pi otherwise."""
        if self.mode is Mode.STOCHASTIC:
            return chosen_probs / self.propensities
        return chosen_probs

    def rho(self, params: PolicyParams) -> np.ndarray:
        """Per-tuple importance weights of the policy, in log order."""
        return self.rho_from(self.at_chosen(self.probs(params)))

    def predictions(self, model: "RewardModel") -> list[np.ndarray]:
        """dhat(x, y) of shape (m, k) for every group, predicted once per model.

        The predictions do not depend on the policy weights, so a training
        run predicts each log once.  One model is cached at a time.
        """
        if self._model is not model:
            self._preds = [model.predict_features(g.feats) for g in self.groups]
            self._model = model
        return self._preds


_CACHE: "weakref.WeakKeyDictionary[Log, PackedLog]" = weakref.WeakKeyDictionary()


def get(log: Log) -> PackedLog:
    """Packed view of ``log``, cached for the lifetime of the log object."""
    packed = _CACHE.get(log)
    if packed is None:
        packed = PackedLog.from_log(log)
        _CACHE[log] = packed
    return packed
