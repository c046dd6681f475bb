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

import math
import numbers
from contextlib import suppress
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigurationError, LogConsistencyError, ScoreOverflowError


class Mode(Enum):
    """Logging regime of a data log."""

    DETERMINISTIC = "deterministic"
    STOCHASTIC = "stochastic"


def _real(key: str, value):
    """``value`` if it is a real number with a finite float value; raises ValueError naming the key."""
    if not isinstance(value, bool) and isinstance(value, numbers.Real):
        with suppress(OverflowError):  # an integer beyond the float range
            if math.isfinite(value):
                return value
    raise ValueError(f"{key} must be a finite number, got {value!r}")


def _integer(key: str, value, minimum: int | None = None) -> int:
    """``value`` if it is an integer of at least ``minimum``; raises ValueError naming the key."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{key} must be at least {minimum}, got {value}")
    return value


def _member(key: str, enum: type[Enum], value) -> Enum:
    """``value`` as a member of ``enum``; raises ValueError naming the key."""
    try:
        return enum(value)
    except ValueError:
        choices = ", ".join(member.value for member in enum)
        raise ValueError(f"{key} must be one of {choices}; got {value!r}") from None


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
        feats = _matrix(self.id, np.asarray(self.candidates, dtype=float))
        Log._check((self.id,), np.array([feats.shape[0]]), feats[None])
        object.__setattr__(self, "candidates", feats)

    @classmethod
    def _view(cls, ident: str, candidates: np.ndarray) -> "Instance":
        """An instance over a (k, d) float matrix the caller has already checked."""
        inst = object.__new__(cls)
        object.__setattr__(inst, "id", ident)
        object.__setattr__(inst, "candidates", candidates)
        return inst

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
        propensities = None if self.propensity is None else np.array([self.propensity])
        Log._check((self.instance.id,), np.array([self.instance.k]), chosen=np.array([self.chosen]),
                   rewards=np.array([self.reward]), propensities=propensities)

    @classmethod
    def _view(cls, *values) -> "LoggedTuple":
        """A tuple over field values (instance, chosen, reward, propensity) the caller has already checked."""
        view = object.__new__(cls)
        for name, value in zip(("instance", "chosen", "reward", "propensity"), values):
            object.__setattr__(view, name, value)
        return view


def _matrix(ident: str, candidates: np.ndarray) -> np.ndarray:
    """``candidates`` if it is a 2-D array; raises ConfigurationError naming the instance."""
    if candidates.ndim != 2:
        raise ConfigurationError(
            f"instance {ident!r}: candidates must be a (k, d) matrix, got shape {candidates.shape}"
        )
    return candidates


def _softmax(scores: np.ndarray) -> np.ndarray:
    """Softmax over the candidates of candidate-major (k, n) scores, in place;
    returns the (n, k) transposed view.

    Each step runs along contiguous rows of n values.  numpy sums axis 0 of
    a (k, n) array one candidate row after another, except at n = 1, where it
    sees one contiguous run and sums pairwise; that case is summed in
    sequence too, so an instance's probabilities are the same alone or in a
    batch.
    """
    scores -= scores.max(axis=0)
    np.exp(scores, out=scores)
    total = scores.sum(axis=0) if scores.shape[1] != 1 else np.add.accumulate(scores)[-1]
    scores /= total
    return scores.T


def _probs(params: "PolicyParams", features: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Softmax probabilities (n, k_max) over a padded candidate tensor; 0 past
    each row's k.  The array is candidate-major: its memory is that of a
    C-contiguous (k_max, n) array."""
    n, k_max, d = features.shape
    if params.dim != d:
        raise ConfigurationError(
            f"weight dimension {params.dim} does not match log feature dimension {d}"
        )
    # padded candidates score exactly 0, so checking every score checks the real ones
    with np.errstate(over="ignore", invalid="ignore"):
        raw = features.reshape(n * k_max, d) @ params.weights
        raw *= params.alpha
    scores = np.ascontiguousarray(raw.reshape(n, k_max).T)
    if not np.isfinite(scores).all():
        raise ScoreOverflowError(
            "policy scores overflowed: alpha * weights . features is not finite"
        )
    if n and k.min() < k_max:
        scores[np.arange(k_max)[:, None] >= k] = -np.inf
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
    features = np.zeros((len(matrices), max(k), dims.pop()))
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
    def _from_columns(cls, mode, ids, features, k, chosen, rewards, propensities,
                      tensor_pass: "_TensorPass | None" = None) -> "Log":
        """A log over columns the caller has already validated.  A log whose
        ``ids``, ``features`` and ``k`` are those of ``tensor_pass`` shares it."""
        log = object.__new__(cls)
        log._fill(mode, ids, features, k, chosen, rewards, propensities)
        if tensor_pass is not None:
            object.__setattr__(log, "_pass", tensor_pass)
        return log

    @staticmethod
    def _check(ids, k, features=None, chosen=None, rewards=None, propensities=None) -> None:
        """Test the rules of a valid row on the columns given, each rule as one
        vector test: k >= 2 finite candidates, a chosen index below k, a reward
        in [0, 1] and a propensity in (0, 1].  Raises a ConfigurationError for
        the first row that breaks one, with that row as its ``row``."""
        rules = []  # (the rows that keep a rule, the message for row t), in the order they are told
        if features is not None:
            rules.append((k >= 2, lambda t: f"instance {ids[t]!r}: need at least 2 candidates, got {k[t]}"))
            rules.append((np.isfinite(features).all(axis=(1, 2)),
                          lambda t: f"instance {ids[t]!r}: non-finite feature values"))
        if chosen is not None:
            rules.append(((chosen >= 0) & (chosen < k), lambda t: (
                f"chosen index {chosen[t]} out of range for instance {ids[t]!r} with {k[t]} candidates")))
        if rewards is not None:
            rules.append(((rewards >= 0.0) & (rewards <= 1.0),
                          lambda t: f"reward {rewards[t]} outside [0, 1]"))
        if propensities is not None:
            rules.append(((propensities > 0.0) & (propensities <= 1.0),
                          lambda t: f"propensity {propensities[t]} outside (0, 1]"))
        broken = [(int(np.argmin(kept)), message) for kept, message in rules if not kept.all()]
        if broken:
            row, message = min(broken, key=lambda rule: rule[0])  # the first rule told, on a tie
            err = ConfigurationError(message(row))
            err.row = row
            raise err

    def _fill(self, mode, *columns) -> None:
        object.__setattr__(self, "mode", mode)
        for name, column in zip(("ids", "features", "k", "chosen", "rewards", "propensities"), columns):
            if column is not None:
                column.setflags(write=False)
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
            LoggedTuple._view(Instance._view(ident, self.features[row, :count]), chosen, reward, prop)
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
        """Softmax probabilities of shape (n, k_max), candidate-major; 0 at
        padded candidates."""
        return _probs(params, self.features, self.k)

    def at_chosen(self, values: np.ndarray) -> np.ndarray:
        """Per-candidate (n, k_max) values taken at each tuple's logged choice."""
        return values[np.arange(len(self)), self.chosen]

    def _tensor_pass(self) -> "_TensorPass":
        """The pass state over the log's candidates, made on first use and
        kept; every log rolled from one task shares the task's."""
        tensor = vars(self).get("_pass")
        if tensor is None:
            tensor = _TensorPass(self.ids, self.features, self.k)
            object.__setattr__(self, "_pass", tensor)
        return tensor


def _nonempty(log: Log) -> Log:
    """``log`` if it has a tuple, which every estimator, the reward fit and
    the degeneracy probes need; raises LogConsistencyError otherwise."""
    if len(log) == 0:
        raise LogConsistencyError("log is empty")
    return log


class _TensorPass:
    """The parts of a pass that depend on a candidate tensor alone, not on
    which candidates a log chose: a policy's softmax, a reward model's
    predictions and a truth's rewards of the instances.  It sets the pass's
    layout: the softmax and the predictions are candidate-major.

    A generated task holds one, which every log rolled from it shares; any
    other log makes its own on first use.  The latest logging and target
    softmaxes are kept apart, so rolling a log and evaluating one do not
    undo each other.  Each part is matched by identity to the immutable
    objects it was made from, and kept only once made, so an error keeps
    nothing.  Its arrays are read-only.
    """

    __slots__ = ("ids", "features", "k", "policies", "model", "preds", "truth", "rewards")

    def __init__(self, ids: np.ndarray, features: np.ndarray, k: np.ndarray) -> None:
        self.ids, self.features, self.k = ids, features, k
        self.policies = [(None, None), (None, None)]  # (params, probs): the target's, the logger's
        self.model = self.preds = self.truth = self.rewards = None

    def probs(self, params: "PolicyParams", logging: bool = False) -> np.ndarray:
        """The softmax of ``params``, kept as the latest target policy's or,
        with ``logging``, the latest logging policy's."""
        kept, probs = self.policies[logging]
        if params is not kept:
            probs = _probs(params, self.features, self.k)
            probs.flags.writeable = False
            self.policies[logging] = (params, probs)
        return probs

    def predictions(self, model) -> np.ndarray:
        """``model``'s predictions over the candidates, candidate-major like the softmax."""
        if model is not self.model:
            preds = np.ascontiguousarray(model.predict_features(self.features).T).T
            preds.flags.writeable = False
            self.model, self.preds = model, preds
        return self.preds

    def true_rewards(self, truth) -> np.ndarray:
        """``truth``'s (n, k_max) rewards of the instances, zero past each row's k."""
        if truth is not self.truth:
            rewards = truth.reward_matrix(self.ids, self.k, self.features.shape[1])
            rewards.setflags(write=False)
            self.truth, self.rewards = truth, rewards
        return self.rewards


@dataclass(frozen=True, eq=False)
class PolicyParams:
    """Weight vector and smoothing scale of the softmax policy.

    ``weights`` is a read-only copy of the array given and ``alpha`` a
    float, so a policy, like a :class:`Log`, never changes once made, and
    its fields are its file format.
    """

    weights: np.ndarray
    alpha: float = 1.0

    def __post_init__(self) -> None:
        w = np.array(self.weights, dtype=float)
        if w.ndim != 1:
            raise ConfigurationError(f"weights must be a vector, got shape {w.shape}")
        if not np.all(np.isfinite(w)):
            raise ConfigurationError("weights contain non-finite values")
        if not (math.isfinite(self.alpha) and self.alpha > 0.0):
            raise ConfigurationError(f"alpha must be a positive real, got {self.alpha}")
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "alpha", float(self.alpha))

    @property
    def dim(self) -> int:
        return self.weights.shape[0]


def policy_probs(params: PolicyParams, instance: Instance) -> np.ndarray:
    """Softmax choice probabilities over the candidates of ``instance``.

    The one-row case of the log's score path: scores that leave the float
    range raise :class:`ScoreOverflowError`, and the exponentials are taken
    after subtracting the maximum score so large scores cannot overflow.
    """
    if params.dim != instance.dim:
        raise ConfigurationError(
            f"weight dimension {params.dim} does not match feature dimension "
            f"{instance.dim} of instance {instance.id!r}"
        )
    return _probs(params, instance.candidates[None], np.array([instance.k]))[0]


def log_prob_gradient(params: PolicyParams, instance: Instance, y: int) -> np.ndarray:
    """Gradient of log pi_w(y | x) with respect to the weights.

    Equals ``alpha * (phi(x, y) - E_pi[phi])``, the score-function form for
    the softmax family; the expectation runs over the full candidate set.
    """
    probs = policy_probs(params, instance)
    return params.alpha * (instance.candidates[int(y)] - probs @ instance.candidates)
