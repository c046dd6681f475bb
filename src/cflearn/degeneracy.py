"""Executable probes of the estimators' degenerate maximizers.

The plain importance-weighted value is maximized by raising every logged
output to probability 1, regardless of its reward.  The self-normalized
value is maximized by putting positive probability on at least one tuple
with the maximal logged reward and zero on everything else, so training it
without a brake drives all normalized weight onto the max-reward tuples.

The probes test these statements exactly as quantified: over raw per-tuple
probability assignments, decoupled from any parametric policy.  Each probe
draws all its random challengers in one block from its seed and evaluates
them together.  The first failing challenger, in draw order, decides the
result: the worst challenger is the highest value up to it, and the witness
names the challenger that failed.  Every value and probe here needs a tuple:
an empty log raises :class:`LogConsistencyError`, as every estimator does.
A separate collapse run shows parametric softmax training approaching the
same fixed point, and early stopping interrupting it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .domain import Log, _nonempty
from .errors import DegenerateSupportError
from .estimators import _rho, dmax_mask
from .simulator import TaskSpec, generate_task, roll_log
from .training import TrainConfig, TrainTrace, train

DEGENERATE_VALUE_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class DmaxPartition:
    """Tuple indices attaining the maximal logged reward, and the rest."""

    dmax_indices: np.ndarray
    rest_indices: np.ndarray
    delta_max: float


@dataclass(frozen=True)
class ProbeResult:
    theorem: str
    holds: bool
    skipped: bool = False
    reason: str = ""
    reference_value: float | None = None  # value at the degenerate maximizer
    worst_challenger: float | None = None  # highest value any challenger reached
    witness: str = ""


def partition_dmax(log: Log) -> DmaxPartition:
    """Exact-equality partition of the log by maximal reward."""
    mask = dmax_mask(_nonempty(log).rewards)
    return DmaxPartition(
        dmax_indices=np.nonzero(mask)[0],
        rest_indices=np.nonzero(~mask)[0],
        delta_max=float(log.rewards.max()),
    )


def assignment_value(assignments: np.ndarray, log: Log) -> np.ndarray | float:
    """Plain importance-weighted value of raw probability assignments,
    (1/n) sum_t delta_t pi_t / mu_t, for each row of an (..., n) array: one
    value per row, and one number for one assignment."""
    return _rho(log, _nonempty(log).rewards * np.asarray(assignments, dtype=float)).mean(axis=-1)


def assignment_value_reweighted(assignments: np.ndarray, log: Log) -> np.ndarray | float:
    """Self-normalized value of raw probability assignments,
    sum(delta pi/mu) / sum(pi/mu), for each row of an (..., n) array: one
    value per row, and one number for one assignment."""
    rewards = _nonempty(log).rewards
    weights = _rho(log, np.asarray(assignments, dtype=float))
    total = weights.sum(axis=-1)
    if np.any(total <= 0.0):
        raise DegenerateSupportError("assignment puts zero mass on every tuple")
    return (rewards * weights).sum(axis=-1) / total


def _skipped(theorem: str, violated: str) -> ProbeResult:
    """The result of a probe whose hypothesis the log breaks."""
    return ProbeResult(theorem, holds=False, skipped=True, reason=f"hypothesis violated: {violated}")


def _verdict(theorem: str, reference: float, values: np.ndarray, failed: np.ndarray, witnesses) -> ProbeResult:
    """The result of (trials, m) challenger ``values`` and their ``failed``
    mask, m challengers a trial in draw order.  ``witnesses`` names a failure
    of each of the m challengers, then the maximizer that holds."""
    failing = np.flatnonzero(failed)
    seen = values.ravel()[: failing[0] + 1] if failing.size else values
    return ProbeResult(
        theorem,
        holds=not failing.size,
        reference_value=reference,
        worst_challenger=float(seen.max(initial=-np.inf)),
        witness=witnesses[failing[0] % values.shape[1] if failing.size else -1],
    )


def probe_theorem1(log: Log, seed: int = 0, trials: int = 200) -> ProbeResult:
    """Check that pi == 1 everywhere strictly dominates any assignment with
    some pi_t < 1, for the plain importance-weighted value.

    Requires every logged reward to be strictly positive; otherwise the
    probe is skipped with an explicit status.  The challengers are the rows
    of one (trials, n) uniform draw, evaluated together.
    """
    if np.any(log.rewards <= 0.0):
        return _skipped("all-mass-maximizer", "some logged reward is zero")
    reference = assignment_value(np.ones(len(log)), log)
    challengers = np.random.default_rng(seed).random((trials, len(log)))  # every coordinate < 1
    values = assignment_value(challengers, log)[:, None]  # one challenger a trial
    return _verdict("all-mass-maximizer", reference, values, values >= reference, (
        "assignment with a coordinate below 1 reached the reference value",
        "all logged outputs at probability 1",
    ))


_WITNESSES = (
    "mass confined to max-reward tuples missed delta_max",
    "assignment with mass outside the max-reward set reached delta_max",
    "assignment avoiding the max-reward set reached the degenerate value",
    "positive mass on a max-reward tuple, zero elsewhere",
)


def probe_theorem2(log: Log, seed: int = 0, trials: int = 200) -> ProbeResult:
    """Check the degenerate maximizer of the self-normalized value.

    Any assignment confined to the max-reward tuples evaluates exactly to
    the maximal reward; assignments with mass outside fall strictly below;
    assignments with no mass on the max-reward tuples fall strictly below
    the degenerate value.  Skipped when every tuple already attains the
    maximum or the maximum is zero.  Each trial makes three challengers, in
    this order: confined, outside and avoiding.
    """
    part = partition_dmax(log)
    if part.delta_max <= 0.0:
        return _skipped("dmax-collapse", "maximal reward is zero")
    if part.rest_indices.size == 0:
        return _skipped("dmax-collapse", "every tuple attains the maximal reward")

    n = len(log)
    rng = np.random.default_rng(seed)
    dmax, rest = part.dmax_indices, part.rest_indices
    # Each trial makes three challengers, each from values for its tuples, a
    # positive value and then a pick of the tuple that takes it: confined to
    # the max-reward tuples, a full row with a pick outside them, and values
    # outside them only.  One uniform block holds every trial's values, split
    # by column into the three challengers (the last column of each is the
    # positive value, taken as 1 - u), and one integer block holds the picks.
    first, second = dmax.size + 1, dmax.size + n + 2
    block = rng.random((trials, second + rest.size + 1))
    confined, outside, avoiding = block[:, :first], block[:, first:second], block[:, second:]
    picks = rng.integers((dmax.size, rest.size, rest.size), size=(trials, 3)).T
    assignments = np.zeros((3, trials, n))
    assignments[0][:, dmax] = confined[:, :-1]
    assignments[1] = outside[:, :-1]
    assignments[2][:, rest] = avoiding[:, :-1]
    every = np.arange(trials)
    for stage, (draws, support) in enumerate(((confined, dmax), (outside, rest), (avoiding, rest))):
        assignments[stage, every, support[picks[stage]]] = 1.0 - draws[:, -1]

    values = assignment_value_reweighted(assignments, log).T  # (trials, 3), in draw order
    failed = values >= part.delta_max
    failed[:, 0] = np.abs(values[:, 0] - part.delta_max) > DEGENERATE_VALUE_TOL
    # a confined challenger counts toward the worst value only when it fails
    values[:, 0] = np.where(failed[:, 0], values[:, 0], -np.inf)
    return _verdict("dmax-collapse", part.delta_max, values, failed, _WITNESSES)


def collapse_run(spec: TaskSpec, config: TrainConfig, with_truth: bool = True) -> TrainTrace:
    """Train on a small synthetic log and trace the weight collapse.

    Generates twice ``spec.num_instances`` instances from the task seed, logs
    one tuple per instance under a logging mode matching the estimator, and
    trains on the first half with the second half as the validation log.  The
    returned trace carries mass_on_dmax per epoch (and the true expected
    reward when ``with_truth``).
    """
    doubled = replace(
        spec,
        num_instances=2 * spec.num_instances,
        logging_mode=config.kind.required_mode,
    )
    instances, truth, logger = generate_task(doubled)
    log = roll_log(instances, truth, logger, rng=spec.seed)
    half = spec.num_instances
    train_log = log.subset(slice(0, half))
    validation_log = log.subset(slice(half, None))
    _, trace = train(config, train_log, validation_log, truth=truth if with_truth else None)
    return trace
