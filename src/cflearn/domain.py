"""Data model for logged candidate-set prediction and the softmax policy.

An :class:`Instance` is an input together with the finite, ordered list of
candidate outputs it admits, each represented by a feature vector.  A
:class:`LoggedTuple` records which candidate a historical system chose for
one instance, the reward that choice received, and (under stochastic
logging) the probability with which it was chosen.  The target policy is a
softmax (Gibbs) distribution over each candidate set with scores
``alpha * weights . features``.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigurationError, LogConsistencyError


class Mode(Enum):
    """Logging regime of a data log."""

    DETERMINISTIC = "deterministic"
    STOCHASTIC = "stochastic"


def _real(key: str, value) -> None:
    """Reject a config value that is not a finite real number, naming its key."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not np.isfinite(value):
        raise ValueError(f"{key} must be a finite number, got {value!r}")


def _integer(key: str, value) -> None:
    """Reject a config value that is not an integer, naming its key."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{key} must be an integer, got {value!r}")


@dataclass(frozen=True, eq=False)
class Instance:
    """An input with its finite candidate set.

    ``candidates`` is a (k, d) matrix whose row i holds the feature vector
    of output i.  Candidate order is stable: index i always denotes the
    same output, and every instance in an experiment shares the feature
    dimension d.
    """

    id: str
    candidates: np.ndarray

    def __post_init__(self) -> None:
        feats = np.asarray(self.candidates, dtype=float)
        if feats.ndim != 2:
            raise ConfigurationError(
                f"instance {self.id!r}: candidates must be a (k, d) matrix, "
                f"got shape {feats.shape}"
            )
        if feats.shape[0] < 2:
            raise ConfigurationError(
                f"instance {self.id!r}: need at least 2 candidates, got {feats.shape[0]}"
            )
        if not np.all(np.isfinite(feats)):
            raise ConfigurationError(f"instance {self.id!r}: non-finite feature values")
        object.__setattr__(self, "candidates", feats)

    @property
    def k(self) -> int:
        return self.candidates.shape[0]

    @property
    def dim(self) -> int:
        return self.candidates.shape[1]


@dataclass(frozen=True, eq=False)
class LoggedTuple:
    """One logged decision: instance, chosen candidate, reward, and the
    propensity of the choice when the logger was stochastic."""

    instance: Instance
    chosen: int
    reward: float
    propensity: float | None = None

    def __post_init__(self) -> None:
        if not 0 <= self.chosen < self.instance.k:
            raise ConfigurationError(
                f"chosen index {self.chosen} out of range for instance "
                f"{self.instance.id!r} with {self.instance.k} candidates"
            )
        if not 0.0 <= self.reward <= 1.0:
            raise ConfigurationError(f"reward {self.reward} outside [0, 1]")
        if self.propensity is not None and not 0.0 < self.propensity <= 1.0:
            raise ConfigurationError(f"propensity {self.propensity} outside (0, 1]")


def _softmax(scores: np.ndarray) -> np.ndarray:
    """Row-wise softmax over the last axis, shifted by each row's maximum."""
    shifted = scores - scores.max(axis=-1, keepdims=True)
    np.exp(shifted, out=shifted)
    return shifted / shifted.sum(axis=-1, keepdims=True)


def _probs(params: "PolicyParams", features: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Softmax probabilities (n, k_max) over a padded candidate tensor; 0 past
    each row's k."""
    n, k_max, d = features.shape
    if params.dim != d:
        raise ConfigurationError(
            f"weight dimension {params.dim} does not match log feature dimension {d}"
        )
    scores = params.alpha * (features.reshape(n * k_max, d) @ params.weights).reshape(n, k_max)
    if n and k.min() < k_max:
        scores[np.arange(k_max) >= k[:, None]] = -np.inf
    return _softmax(scores)


def _stack_candidates(matrices: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Stack (k_i, d) candidate matrices into an (n, k_max, d) tensor, zero-padded
    past each row's k, together with the (n,) candidate counts."""
    if not matrices:
        return np.zeros((0, 0, 0)), np.zeros(0, dtype=np.intp)
    k = [m.shape[0] for m in matrices]
    dims = {m.shape[1] for m in matrices}
    if len(dims) > 1:
        raise ConfigurationError(f"log mixes feature dimensions {sorted(dims)}")
    n, k_max, d = len(matrices), max(k), dims.pop()
    if min(k) == k_max:
        features = np.concatenate(matrices).reshape(n, k_max, d)
    else:
        features = np.zeros((n, k_max, d))
        for row, (m, count) in enumerate(zip(matrices, k)):
            features[row, :count] = m
    return features, np.array(k, dtype=np.intp)


@dataclass(frozen=True, eq=False, init=False, repr=False)
class Log:
    """A sequence of logged decisions produced under a single regime, held
    column by column.

    Row t is one logged tuple.  ``features[t, y]`` is the feature vector of
    candidate y; a log whose instances differ in k is zero-padded to the
    largest k, and the policy gives padded candidates probability exactly 0
    (their scores are set to -inf).  The mode flag is authoritative:
    stochastic logs carry a propensity on every tuple, deterministic logs on
    none.  The fields and their arrays are read-only.
    """

    mode: Mode
    ids: np.ndarray            # (n,) instance ids (str objects)
    features: np.ndarray       # (n, k_max, d), zero-padded past k
    k: np.ndarray              # (n,) candidate count of each instance
    chosen: np.ndarray         # (n,) index of the logged choice
    rewards: np.ndarray        # (n,)
    propensities: np.ndarray | None  # (n,) when stochastic, None when deterministic

    def __init__(self, tuples, mode: Mode) -> None:
        tuples = tuple(tuples)
        stochastic = mode is Mode.STOCHASTIC
        if any((t.propensity is None) == stochastic for t in tuples):
            which = "without" if stochastic else "with"
            raise LogConsistencyError(f"{mode.value} log contains a tuple {which} a propensity")
        self._fill(
            mode,
            np.array([t.instance.id for t in tuples], dtype=object),
            *_stack_candidates([t.instance.candidates for t in tuples]),
            np.array([t.chosen for t in tuples], dtype=np.intp),
            np.array([t.reward for t in tuples], dtype=float),
            np.array([t.propensity for t in tuples], dtype=float) if stochastic else None,
        )

    @classmethod
    def _from_columns(cls, mode, ids, features, k, chosen, rewards, propensities) -> "Log":
        """A log over columns the caller has already validated."""
        log = object.__new__(cls)
        log._fill(mode, ids, features, k, chosen, rewards, propensities)
        return log

    def __reduce__(self):
        # pickles as its columns; unpickling marks them read-only again
        return Log._from_columns, (
            self.mode, self.ids, self.features, self.k, self.chosen, self.rewards,
            self.propensities,
        )

    def _fill(self, mode, *columns) -> None:
        object.__setattr__(self, "mode", mode)
        names = ("ids", "features", "k", "chosen", "rewards", "propensities")
        for name, column in zip(names, columns):
            if column is not None:
                column.flags.writeable = False
            object.__setattr__(self, name, column)

    def __len__(self) -> int:
        return self.rewards.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[2]

    @property
    def tuples(self) -> tuple[LoggedTuple, ...]:
        """The rows as :class:`LoggedTuple` views over the columns, built anew
        on every access."""
        props = self.propensities.tolist() if self.propensities is not None else [None] * len(self)
        return tuple(
            LoggedTuple(Instance(ident, self.features[row, :count]), chosen, reward, prop)
            for row, (ident, count, chosen, reward, prop) in enumerate(
                zip(self.ids.tolist(), self.k.tolist(), self.chosen.tolist(),
                    self.rewards.tolist(), props)
            )
        )

    def subset(self, index) -> "Log":
        """The log restricted to ``index`` (positions or a slice), in that order."""
        props = None if self.propensities is None else self.propensities[index]
        return Log._from_columns(
            self.mode, self.ids[index], self.features[index], self.k[index],
            self.chosen[index], self.rewards[index], props,
        )

    def probs(self, params: "PolicyParams") -> np.ndarray:
        """Softmax probabilities of shape (n, k_max); 0 at padded candidates."""
        return _probs(params, self.features, self.k)

    def at_chosen(self, values: np.ndarray) -> np.ndarray:
        """Per-candidate (n, k_max) values taken at each tuple's logged choice."""
        return values[np.arange(len(self)), self.chosen]


@dataclass(frozen=True, eq=False)
class PolicyParams:
    """Weight vector and smoothing scale of the softmax policy."""

    weights: np.ndarray
    alpha: float = 1.0

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1:
            raise ConfigurationError(f"weights must be a vector, got shape {w.shape}")
        if not np.all(np.isfinite(w)):
            raise ConfigurationError("weights contain non-finite values")
        if not (np.isfinite(self.alpha) and self.alpha > 0.0):
            raise ConfigurationError(f"alpha must be a positive real, got {self.alpha}")
        object.__setattr__(self, "weights", w)

    @property
    def dim(self) -> int:
        return self.weights.shape[0]


def _check_dim(params: PolicyParams, instance: Instance) -> None:
    if params.dim != instance.dim:
        raise ConfigurationError(
            f"weight dimension {params.dim} does not match feature dimension "
            f"{instance.dim} of instance {instance.id!r}"
        )


def policy_probs(params: PolicyParams, instance: Instance) -> np.ndarray:
    """Softmax choice probabilities over the candidates of ``instance``.

    Scores are ``alpha * weights . features``; the exponentials are taken
    after subtracting the maximum score so large scores cannot overflow.
    """
    _check_dim(params, instance)
    scores = params.alpha * (instance.candidates @ params.weights)
    scores -= scores.max()
    np.exp(scores, out=scores)
    return scores / scores.sum()


def log_prob_gradient(params: PolicyParams, instance: Instance, y: int) -> np.ndarray:
    """Gradient of log pi_w(y | x) with respect to the weights.

    Equals ``alpha * (phi(x, y) - E_pi[phi])``, the score-function form for
    the softmax family; the expectation runs over the full candidate set.
    """
    probs = policy_probs(params, instance)
    return params.alpha * (instance.candidates[int(y)] - probs @ instance.candidates)
