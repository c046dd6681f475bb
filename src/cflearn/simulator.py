"""Synthetic candidate-set tasks with known ground truth.

A task draws Gaussian candidate features, defines the true reward of a
candidate as a clipped sigmoid of a hidden linear score (plus optional
noise), and derives a logging policy whose weights interpolate between the
hidden reward weights and an unrelated random direction.  ``logger_quality``
1 therefore gives an oracle logger and 0 an unrelated one, mimicking an
out-of-domain system asked to act on in-domain inputs.

Rewards are quantized to a 1e-6 grid so that the max-reward partition of a
log, which uses exact float equality, never depends on accidental
near-ties.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .domain import Instance, Log, Mode, PolicyParams, _TensorPass, _integer, _member, _real, _stack_candidates
from .errors import ConfigurationError

REWARD_QUANTUM = 1e-6


@dataclass(frozen=True)
class TaskSpec:
    """Shape and difficulty of one synthetic task."""

    num_instances: int
    k: int
    d: int
    seed: int
    reward_noise: float = 0.0
    logger_quality: float = 1.0
    logging_mode: Mode = Mode.DETERMINISTIC
    logger_alpha: float = 1.0

    def __post_init__(self) -> None:
        for key, minimum in (("num_instances", 1), ("k", 2), ("d", 1), ("seed", 0)):
            _integer(key, getattr(self, key), minimum)
        if self.num_instances * self.k * self.d > np.iinfo(np.intp).max:
            raise ValueError("num_instances * k * d exceeds the largest array numpy can index")
        for key in ("reward_noise", "logger_quality", "logger_alpha"):
            _real(key, getattr(self, key))
        object.__setattr__(self, "logging_mode", _member("logging_mode", Mode, self.logging_mode))
        if self.reward_noise < 0:
            raise ValueError(f"reward_noise must be non-negative, got {self.reward_noise}")
        if not 0.0 <= self.logger_quality <= 1.0:
            raise ValueError(f"logger_quality must lie in [0, 1], got {self.logger_quality}")
        if self.logger_alpha <= 0:
            raise ValueError(f"logger_alpha must be positive, got {self.logger_alpha}")


@dataclass(frozen=True, eq=False)
class GroundTruth:
    """Hidden reward weights and the true reward of every candidate, the
    form its file is written from.  The rewards are the rows of one
    read-only (n, k_max) matrix, zero past each row's k, and each value of
    ``rewards`` is a view of its row."""

    reward_weights: np.ndarray
    rewards: dict[str, np.ndarray]  # instance id -> (k,) true rewards

    def __post_init__(self) -> None:
        rows = self.rewards.values()
        counts = np.array([len(row) for row in rows], dtype=np.intp)
        matrix = np.zeros((len(rows), counts.max(initial=0)))
        # the mask's cells run row by row, as the rows do in their chain
        matrix[np.arange(matrix.shape[1]) < counts[:, None]] = np.fromiter(chain.from_iterable(rows), float)
        self._fill(self.reward_weights, list(self.rewards), matrix, counts)

    @classmethod
    def _from_matrix(cls, reward_weights: np.ndarray, ids: list[str], matrix: np.ndarray) -> "GroundTruth":
        """The truth that gives instance ``ids[i]`` row i of the float (n, k) ``matrix``, which it keeps."""
        truth = object.__new__(cls)
        truth._fill(reward_weights, ids, matrix, np.full(len(ids), matrix.shape[1], dtype=np.intp))
        return truth

    def _fill(self, reward_weights, keys: list[str], matrix: np.ndarray, counts: np.ndarray) -> None:
        matrix.setflags(write=False)
        vars(self).update(
            reward_weights=np.ascontiguousarray(reward_weights, dtype=float),
            rewards={key: matrix[row, :count] for row, (key, count) in enumerate(zip(keys, counts.tolist()))},
            _matrix=matrix,
            _row=dict(zip(keys, range(len(keys)))),
            # a missing id's row, -1, reads the last count, -1, which matches no k
            _counts=np.append(counts, -1),
        )

    def __call__(self, instance: Instance) -> np.ndarray:
        return self.rewards[instance.id]

    def reward_matrix(self, ids, k: np.ndarray, k_max: int) -> np.ndarray:
        """The true rewards of the instances ``ids``, with ``k`` candidates
        each, as one (n, k_max) matrix that is zero past each row's k.

        Raises :class:`ConfigurationError` at the first instance without a
        reward row or whose row is not k long.
        """
        rows = np.array([self._row.get(ident, -1) for ident in ids], dtype=np.intp)
        bad = self._counts[rows] != k
        if bad.any():
            at = int(np.argmax(bad))
            ident, count = ids[at], int(k[at])
            if rows[at] < 0:
                raise ConfigurationError(f"instance {ident!r} has no true rewards")
            raise ConfigurationError(
                f"instance {ident!r} has {self._counts[rows[at]]} true rewards for {count} candidates"
            )
        matrix = np.zeros((len(rows), k_max))
        width = min(k_max, self._matrix.shape[1])
        matrix[:, :width] = self._matrix[rows, :width]
        return matrix


@dataclass(frozen=True, eq=False)
class LoggingPolicy:
    """The historical system: a softmax policy acted on deterministically
    (argmax, lowest index on ties) or by sampling with recorded propensity."""

    params: PolicyParams
    mode: Mode


class TaskInstances(tuple):
    """The instances of a generated task, in order.  Their candidate matrices
    are the rows of one read-only (n, k, d) tensor, checked once for them
    all.  The task's pass state holds that tensor with the ``ids`` and ``k``
    columns, and the logs rolled from the instances share it instead of
    copying or repeating them."""

    _pass: _TensorPass

    def __new__(cls, ids: list[str], features: np.ndarray) -> "TaskInstances":
        if features.ndim != 3:
            raise ConfigurationError(f"task candidates must be an (n, k, d) tensor, got {features.shape}")
        k = np.full(len(ids), features.shape[1], dtype=np.intp)
        tensor = _TensorPass(np.array(ids, dtype=object), features, k)
        Log._check(tensor.ids, k, features)
        for array in (tensor.ids, features, k):  # features before the views are taken, which inherit it
            array.flags.writeable = False
        self = super().__new__(cls, map(Instance._view, ids, features))
        self._pass = tensor
        return self


def _instances_pass(instances: list[Instance]) -> _TensorPass:
    """A task's own pass state, or a new one over the stacked candidates of a list of instances."""
    if isinstance(instances, TaskInstances):
        return instances._pass
    ids = np.array([inst.id for inst in instances], dtype=object)
    return _TensorPass(ids, *_stack_candidates([inst.candidates for inst in instances]))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below, so no exponential overflows."""
    ex = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, ex) / (1.0 + ex)


def _quantize(rewards: np.ndarray) -> np.ndarray:
    return np.round(rewards / REWARD_QUANTUM) * REWARD_QUANTUM


def generate_task(spec: TaskSpec) -> tuple[TaskInstances, GroundTruth, LoggingPolicy]:
    """Instances, ground truth, and logging policy, all fixed by the seed."""
    rng = np.random.default_rng(spec.seed)
    scale = 1.0 / np.sqrt(spec.d)
    hidden = rng.standard_normal(spec.d) * scale
    features = rng.standard_normal((spec.num_instances, spec.k, spec.d))
    noise = (
        rng.standard_normal((spec.num_instances, spec.k)) * spec.reward_noise
        if spec.reward_noise > 0
        else np.zeros((spec.num_instances, spec.k))
    )
    perturbation = rng.standard_normal(spec.d) * scale

    raw = _sigmoid(features @ hidden) + noise
    all_rewards = _quantize(np.clip(raw, 0.0, 1.0))

    ids = [f"i{i:05d}" for i in range(spec.num_instances)]
    instances = TaskInstances(ids, features)

    logger_weights = spec.logger_quality * hidden + (1.0 - spec.logger_quality) * perturbation
    policy = LoggingPolicy(
        params=PolicyParams(logger_weights, alpha=spec.logger_alpha),
        mode=spec.logging_mode,
    )
    return instances, GroundTruth._from_matrix(hidden, ids, all_rewards), policy


def roll_log(
    instances: list[Instance],
    truth: GroundTruth,
    logging_policy: LoggingPolicy,
    rng: np.random.Generator | int = 0,
) -> Log:
    """One logged tuple per instance under the logging policy.

    Deterministic mode picks the argmax candidate (lowest index on ties)
    and records no propensity; stochastic mode samples a candidate by
    inverting the cumulative probabilities at one uniform draw per instance
    and records its probability.  ``rng`` seeds the stochastic draws.  The
    logs rolled from a generated task's instances share the task's pass
    state, so they run the logging softmax and the truth gather once between them.
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    mode = logging_policy.mode
    if not instances:
        return Log((), mode)
    tensor = _instances_pass(instances)
    ids, k = tensor.ids, tensor.k
    probs = tensor.probs(logging_policy.params, logging=True)
    rows = np.arange(len(instances))
    propensities = None
    if mode is Mode.DETERMINISTIC:
        chosen = np.argmax(probs, axis=1)
    else:
        u = rng.random(len(instances))
        # the count of cumulative probabilities <= u is searchsorted(side="right");
        # it lands on a candidate of positive probability unless rounding
        # carries it past the row's k: take the last such candidate instead
        chosen = (np.cumsum(probs.T, axis=0) <= u).sum(axis=0)
        off = chosen >= k
        if off.any():
            last = probs.shape[1] - 1 - np.argmax(probs[:, ::-1] > 0.0, axis=1)
            chosen = np.where(off, last, chosen)
        propensities = probs[rows, chosen]
    rewards = tensor.true_rewards(truth)[rows, chosen]
    Log._check(ids, k, rewards=rewards)
    return Log._from_columns(
        mode, ids, tensor.features, k, chosen.astype(np.intp), rewards, propensities, tensor
    )


def _fractions(fractions) -> tuple[float, float, float]:
    """``fractions`` as a tuple, if it holds 3 finite non-negative values summing to 1."""
    values = tuple(_real("fractions", value) for value in fractions)
    if len(values) != 3 or min(values) < 0 or abs(sum(values) - 1.0) > 1e-9:
        raise ValueError(f"fractions must be 3 non-negative values summing to 1, got {fractions}")
    return values


def split(
    log: Log, fractions: tuple[float, float, float], seed: int
) -> tuple[Log, Log, Log]:
    """Seeded disjoint (train, validation, test) partition preserving mode.

    Sizes follow the rounded cumulative fractions, so exact fractions give
    exact sizes.  Splits with fraction 0 come back empty.  Each part keeps
    log order.
    """
    n = len(log)
    if n == 0:
        raise ValueError("cannot split an empty log")
    fracs = np.asarray(_fractions(fractions), dtype=float)
    boundaries = np.round(np.cumsum(fracs) * n).astype(int)
    boundaries[-1] = n
    perm = np.random.default_rng(seed).permutation(n)
    parts = []
    start = 0
    for stop in boundaries:
        parts.append(log.subset(np.sort(perm[start:stop])))
        start = stop
    return parts[0], parts[1], parts[2]
