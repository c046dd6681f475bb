"""Degenerate-maximizer probes and the parametric collapse demonstration."""

import numpy as np
import pytest

from cflearn import (
    DegenerateSupportError,
    EstimatorKind,
    Instance,
    Log,
    LoggedTuple,
    Mode,
    ProbeResult,
    TaskSpec,
    TrainConfig,
    assignment_value,
    assignment_value_reweighted,
    collapse_run,
    partition_dmax,
    probe_theorem1,
    probe_theorem2,
)
from cflearn import degeneracy
from cflearn.cli import run_probe_suite
from cflearn.degeneracy import _verdict


def plain_log(rewards, propensities=None):
    mode = Mode.DETERMINISTIC if propensities is None else Mode.STOCHASTIC
    feats = np.array([[0.0], [1.0]])
    tuples = []
    for i, r in enumerate(rewards):
        p = None if propensities is None else propensities[i]
        tuples.append(LoggedTuple(Instance(f"p{i}", feats.copy()), 0, r, p))
    return Log(tuple(tuples), mode)


class TestPartition:
    def test_ties_on_max(self):
        part = partition_dmax(plain_log([1.0, 0.4, 1.0]))
        assert part.dmax_indices.tolist() == [0, 2]
        assert part.rest_indices.tolist() == [1]
        assert part.delta_max == 1.0

    def test_all_equal_rest_empty(self):
        part = partition_dmax(plain_log([0.5, 0.5, 0.5]))
        assert part.rest_indices.size == 0

    def test_two_distinct(self):
        part = partition_dmax(plain_log([0.3, 0.7]))
        assert part.dmax_indices.tolist() == [1]

    def test_a_near_tie_is_not_a_tie(self):
        part = partition_dmax(plain_log([np.nextafter(0.5, 0.0), 0.5]))
        assert part.dmax_indices.tolist() == [1] and part.rest_indices.tolist() == [0]


class TestAssignmentValues:
    def test_plain_value_hand_oracle(self):
        log = plain_log([0.3, 0.6], propensities=[0.5, 0.5])
        assert assignment_value([1.0, 1.0], log) == pytest.approx(0.9, rel=1e-12)
        assert assignment_value([1.0, 0.5], log) == pytest.approx(0.6, rel=1e-12)

    def test_plain_value_deterministic(self):
        log = plain_log([0.3, 0.6])
        assert assignment_value([1.0, 1.0], log) == pytest.approx(0.45, rel=1e-12)

    def test_reweighted_degenerate_equals_max(self):
        log = plain_log([1.0, 0.4])
        assert assignment_value_reweighted([0.7, 0.0], log) == 1.0

    def test_reweighted_hand_oracle(self):
        log = plain_log([1.0, 0.4])
        assert assignment_value_reweighted([0.5, 0.5], log) == pytest.approx(0.7, rel=1e-12)

    def test_reweighted_mass_outside_max(self):
        log = plain_log([1.0, 0.4, 0.4])
        value = assignment_value_reweighted([0.0, 1.0, 1.0], log)
        assert value == pytest.approx(0.4, rel=1e-12)
        assert value < assignment_value_reweighted([0.1, 1.0, 1.0], log)

    def test_reweighted_scale_invariance(self, rng):
        log = plain_log(list(rng.uniform(0.1, 0.9, size=6)), propensities=list(rng.uniform(0.2, 1.0, size=6)))
        assignment = rng.uniform(0.1, 1.0, size=6)
        a = assignment_value_reweighted(assignment, log)
        b = assignment_value_reweighted(0.25 * assignment, log)
        assert a == pytest.approx(b, rel=1e-12)

    def test_zero_assignment_raises(self):
        with pytest.raises(DegenerateSupportError):
            assignment_value_reweighted([0.0, 0.0], plain_log([0.5, 0.6]))


    @pytest.mark.parametrize("stochastic", [False, True], ids=["deterministic", "stochastic"])
    @pytest.mark.parametrize("value", [assignment_value, assignment_value_reweighted], ids=lambda f: f.__name__)
    def test_a_batch_gives_each_row_its_own_value(self, rng, value, stochastic):
        propensities = list(rng.uniform(0.2, 1.0, size=6)) if stochastic else None
        log = plain_log(list(rng.uniform(0.1, 0.9, size=6)), propensities)
        assignments = rng.random((2, 3, 6))
        values = value(assignments, log)
        assert values.shape == (2, 3)
        assert values.tolist() == [[value(row, log) for row in block] for block in assignments]
        assert isinstance(value(assignments[0, 0], log), float)

    def test_a_batch_with_one_zero_row_raises(self):
        with pytest.raises(DegenerateSupportError):
            assignment_value_reweighted([[0.5, 0.5], [0.0, 0.0]], plain_log([0.5, 0.6]))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
@pytest.mark.parametrize("call", [
    pytest.param(partition_dmax, id="partition_dmax"),
    pytest.param(lambda log: assignment_value(np.ones(0), log), id="assignment_value"),
    pytest.param(lambda log: assignment_value_reweighted(np.ones(0), log), id="assignment_value_reweighted"),
    pytest.param(probe_theorem1, id="probe_theorem1"),
    pytest.param(probe_theorem2, id="probe_theorem2"),
])
def test_every_value_and_probe_refuses_an_empty_log(call, mode):
    with pytest.raises(ValueError, match="^log is empty$"):
        call(Log((), mode))


class TestProbes:
    def test_theorem1_single_tuple(self):
        log = plain_log([1.0], propensities=[1.0])
        result = probe_theorem1(log, seed=1)
        assert result.holds and not result.skipped
        assert result.reference_value == 1.0
        assert assignment_value([0.9], log) == pytest.approx(0.9)

    def test_theorem1_skips_on_zero_reward(self):
        result = probe_theorem1(plain_log([0.0, 0.5]), seed=1)
        assert result.skipped and not result.holds
        assert "zero" in result.reason

    def test_theorem2_skips_without_spread(self):
        result = probe_theorem2(plain_log([0.5, 0.5]), seed=1)
        assert result.skipped
        result = probe_theorem2(plain_log([0.0, 0.0]), seed=1)
        assert result.skipped

    @pytest.mark.parametrize("probe, rewards, theorem, violated", [
        (probe_theorem1, [0.0, 0.5], "all-mass-maximizer", "some logged reward is zero"),
        (probe_theorem2, [0.0, 0.0], "dmax-collapse", "maximal reward is zero"),
        (probe_theorem2, [0.5, 0.5], "dmax-collapse", "every tuple attains the maximal reward"),
    ], ids=["theorem1-zero-reward", "theorem2-zero-maximum", "theorem2-no-spread"])
    def test_a_skipped_probe_names_the_violated_hypothesis(self, probe, rewards, theorem, violated):
        want = ProbeResult(theorem, holds=False, skipped=True, reason=f"hypothesis violated: {violated}")
        assert probe(plain_log(rewards), seed=1) == want

    def test_theorem2_holds_on_crafted_log(self):
        result = probe_theorem2(plain_log([1.0, 0.4, 0.4]), seed=1)
        assert result.holds
        assert result.reference_value == 1.0
        assert result.worst_challenger < 1.0

    def test_theorem2_tolerance_is_the_largest_miss_allowed(self, monkeypatch):
        # with one max-reward tuple of reward 1, every confined challenger is exactly 1.0
        monkeypatch.setattr(degeneracy, "DEGENERATE_VALUE_TOL", 0.0)
        assert probe_theorem2(plain_log([1.0, 0.4, 0.4]), seed=1).holds

    def test_probe_suite_generated_logs(self):
        results = run_probe_suite(seed=100, count=10, trials=50)
        assert len(results) == 40  # two probes per log, two modes
        assert all(r.holds for _, r in results if not r.skipped)
        assert not any(r.skipped for _, r in results)

    def test_degenerate_value_invariant_within_dmax(self, rng):
        log = plain_log([0.9, 0.9, 0.2, 0.1])
        for _ in range(50):
            assignment = np.zeros(4)
            assignment[:2] = rng.uniform(0.0, 1.0, size=2)
            assignment[int(rng.integers(2))] = 1.0 - rng.random()
            value = assignment_value_reweighted(assignment, log)
            assert abs(value - 0.9) <= 1e-12


class TestVerdict:
    """Both probes' results come from one verdict over (trials, m) challenger values in draw order."""

    WITNESSES = ("first failed", "second failed", "third failed", "holds")

    def test_the_first_failure_decides_and_bounds_the_worst_challenger(self):
        values = np.array([[0.2, 0.5, 0.3], [0.99, 0.1, 0.4]])
        failed = np.array([[False, True, False], [True, False, True]])
        got = _verdict("t", 0.6, values, failed, self.WITNESSES)
        assert got == ProbeResult("t", holds=False, reference_value=0.6, worst_challenger=0.5, witness="second failed")

    def test_no_failure_holds_at_the_highest_value(self):
        values = np.array([[0.2, 0.5, 0.3], [0.59, 0.1, 0.4]])
        got = _verdict("t", 0.6, values, np.zeros((2, 3), dtype=bool), self.WITNESSES)
        assert got == ProbeResult("t", holds=True, reference_value=0.6, worst_challenger=0.59, witness="holds")

    def test_no_trials_hold_with_no_worst_value(self):
        got = _verdict("t", 0.6, np.zeros((0, 3)), np.zeros((0, 3), dtype=bool), self.WITNESSES)
        assert got.holds and got.worst_challenger == -np.inf


class TestCollapseRun:
    def test_mass_grows_without_early_stopping(self):
        spec = TaskSpec(num_instances=20, k=5, d=10, seed=0, reward_noise=0.0, logger_quality=0.6)
        config = TrainConfig(
            kind=EstimatorKind.DPM_R, learning_rate=0.1, epochs=300, batch_size="full", seed=0
        )
        trace = collapse_run(spec, config)
        assert len(trace.records) == 300
        masses = [r.mass_on_dmax for r in trace.records]
        assert masses[-1] > masses[0]
        assert all(0.0 <= m <= 1.0 for m in masses)

    def test_stochastic_variant_runs(self):
        spec = TaskSpec(num_instances=10, k=4, d=6, seed=1, reward_noise=0.0, logger_quality=0.5)
        config = TrainConfig(
            kind=EstimatorKind.IPS_R, learning_rate=0.1, epochs=20, batch_size="full", seed=1
        )
        trace = collapse_run(spec, config)
        assert len(trace.records) == 20
        assert trace.records[0].true_reward is not None

    def test_controlled_estimator_resists_collapse(self):
        # at the pinned demonstration settings the controlled objective ends
        # with at least the true reward of the unregularized reweighted one
        spec = TaskSpec(num_instances=20, k=5, d=10, seed=0, reward_noise=0.0, logger_quality=0.6)
        base = dict(learning_rate=0.1, epochs=2000, batch_size="full", seed=0)
        reweighted = collapse_run(spec, TrainConfig(kind=EstimatorKind.DPM_R, **base))
        controlled = collapse_run(spec, TrainConfig(kind=EstimatorKind.CDC, **base))
        assert controlled.records[-1].true_reward >= reweighted.records[-1].true_reward
        assert controlled.records[-1].mass_on_dmax < reweighted.records[-1].mass_on_dmax
