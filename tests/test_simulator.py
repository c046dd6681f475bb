"""Synthetic task generation, logging, and splitting."""

import numpy as np
import pytest

from cflearn import (
    ConfigurationError,
    Mode,
    TaskSpec,
    generate_task,
    policy_probs,
    roll_log,
    split,
)
from cflearn.simulator import REWARD_QUANTUM, TaskInstances, _quantize, _sigmoid
from oracles import logging_policy_truth


def spec(**overrides) -> TaskSpec:
    base = dict(num_instances=20, k=4, d=5, seed=3, reward_noise=0.0, logger_quality=0.7)
    base.update(overrides)
    return TaskSpec(**base)


class TestGenerateTask:
    def test_same_seed_identical_task(self):
        a_inst, a_truth, a_pol = generate_task(spec())
        b_inst, b_truth, b_pol = generate_task(spec())
        for x, y in zip(a_inst, b_inst):
            assert x.id == y.id
            np.testing.assert_array_equal(x.candidates, y.candidates)
        np.testing.assert_array_equal(a_truth.reward_weights, b_truth.reward_weights)
        for key in a_truth.rewards:
            np.testing.assert_array_equal(a_truth.rewards[key], b_truth.rewards[key])
        np.testing.assert_array_equal(a_pol.params.weights, b_pol.params.weights)

    def test_rewards_recompute_from_hidden_weights(self):
        # independent reconstruction: quantized clipped sigmoid of the hidden score
        instances, truth, _ = generate_task(spec())
        for inst in instances:
            expected = _quantize(
                np.clip(_sigmoid(inst.candidates @ truth.reward_weights), 0.0, 1.0)
            )
            np.testing.assert_array_equal(truth(inst), expected)

    def test_generated_truth_equals_one_built_from_its_rewards(self, tmp_path):
        # generate_task builds its truth from the reward matrix it holds, not by restacking the rows
        from cflearn import GroundTruth
        from cflearn.serialize import write_truth

        _, truth, policy = generate_task(spec(reward_noise=0.3, seed=11))
        rebuilt = GroundTruth(truth.reward_weights, dict(truth.rewards))
        assert truth._matrix.shape == rebuilt._matrix.shape
        assert truth._matrix.tobytes() == rebuilt._matrix.tobytes() and not truth._matrix.flags.writeable
        assert truth._row == rebuilt._row and list(truth.rewards) == list(rebuilt.rewards)
        assert truth._counts.tobytes() == rebuilt._counts.tobytes()
        assert all(np.shares_memory(row, truth._matrix) for row in truth.rewards.values())
        write_truth(tmp_path / "generated.json", truth, policy)
        write_truth(tmp_path / "rebuilt.json", rebuilt, policy)
        assert (tmp_path / "generated.json").read_bytes() == (tmp_path / "rebuilt.json").read_bytes()

    def test_a_truth_of_ragged_number_lists_holds_float_arrays_zero_past_each_row(self):
        # read_truth hands the JSON lists to GroundTruth, which converts them in one array
        from cflearn import GroundTruth

        truth = GroundTruth([1, -2], {"a": [0.5, 1], "b": [0, 0.25, 0.75]})
        assert truth.reward_weights.dtype == float and truth.reward_weights.tolist() == [1.0, -2.0]
        assert [row.tolist() for row in truth.rewards.values()] == [[0.5, 1.0], [0.0, 0.25, 0.75]]
        matrix = truth.reward_matrix(["a", "b"], np.array([2, 3]), 4)
        assert matrix.tolist() == [[0.5, 1.0, 0.0, 0.0], [0.0, 0.25, 0.75, 0.0]]

    def test_reward_weights_are_a_read_only_copy(self):
        from cflearn import GroundTruth

        given = np.array([1.0, -2.0])
        truths = [GroundTruth(given, {"a": [0.5, 1.0]}), generate_task(spec())[1]]
        for truth in truths:
            assert truth.reward_weights.dtype == float and not truth.reward_weights.flags.writeable
        assert not np.shares_memory(truths[0].reward_weights, given)

    @pytest.mark.parametrize("weights, message", [
        ([np.nan], "^reward_weights contain non-finite values$"),
        ([[1.0]], r"^reward_weights must be a vector, got shape \(1, 1\)$"),
    ], ids=["nan", "2-d"])
    def test_reward_weights_that_are_no_finite_vector_rejected(self, weights, message):
        from cflearn import GroundTruth

        with pytest.raises(ConfigurationError, match=message):
            GroundTruth(weights, {"a": [0.5, 1.0]})

    @pytest.mark.parametrize("bad", [-0.5, 1.0 + REWARD_QUANTUM, np.nan])
    def test_a_truth_is_range_checked_when_made(self, bad):
        # the first bad cell, row by row, is named: 'b' holds it at column 2 of a ragged matrix
        from cflearn import GroundTruth

        message = f"instance 'b': true reward {bad} outside \\[0, 1\\]"
        with pytest.raises(ConfigurationError, match=message):
            GroundTruth([1.0], {"a": [0.0, 1.0], "b": [0.5, 0.25, bad], "c": [bad, 0.5]})
        with pytest.raises(ConfigurationError, match=message):
            GroundTruth._from_matrix(np.ones(1), ["a", "b"], np.array([[0.0, 1.0, 0.5], [0.5, 0.25, bad]]))

    def test_sigmoid_equals_the_two_branch_formula(self):
        x = np.concatenate([np.random.default_rng(4).standard_normal(1000) * 20,
                            [0.0, -0.0, 1e-300, -1e-300, 36.0, -36.0, 745.0, -745.0, 800.0, -800.0]])
        pos = x >= 0
        want = np.empty_like(x)
        want[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        want[~pos] = np.exp(x[~pos]) / (1.0 + np.exp(x[~pos]))
        assert _sigmoid(x).tobytes() == want.tobytes()

    def test_zero_score_maps_to_half(self):
        assert _quantize(np.clip(_sigmoid(np.array([0.0])), 0, 1))[0] == 0.5

    def test_rewards_quantized_and_in_range(self):
        _, truth, _ = generate_task(spec(reward_noise=0.3, seed=11))
        for rewards in truth.rewards.values():
            assert np.all(rewards >= 0.0) and np.all(rewards <= 1.0)
            np.testing.assert_array_equal(_quantize(rewards), rewards)
            assert np.all(np.abs(np.round(rewards / REWARD_QUANTUM) * REWARD_QUANTUM - rewards) == 0)

    def test_oracle_logger_picks_true_best(self):
        instances, truth, policy = generate_task(spec(logger_quality=1.0, logger_alpha=50.0))
        log = roll_log(instances, truth, policy)
        for t in log.tuples:
            assert t.chosen == int(np.argmax(truth(t.instance)))

    def test_instances_are_views_of_one_checked_tensor(self):
        instances, _, _ = generate_task(spec())
        tensor = instances._pass
        assert tensor.ids.tolist() == [inst.id for inst in instances]
        for row, inst in enumerate(instances):
            assert np.shares_memory(inst.candidates, tensor.features)
            assert inst.candidates.tobytes() == tensor.features[row].tobytes()
            assert not inst.candidates.flags.writeable
        features = np.zeros((2, 3, 2))
        features[1, 2, 0] = np.inf
        for bad, message in ((features, "instance 'i1': non-finite feature values"),
                             (np.zeros((2, 1, 2)), "instance 'i0': need at least 2 candidates, got 1"),
                             (np.zeros((3, 2)), "an \\(n, k, d\\) tensor, got \\(3, 2\\)")):
            with pytest.raises(ConfigurationError, match=message):
                TaskInstances([f"i{i}" for i in range(len(bad))], bad)

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            spec(k=1)
        with pytest.raises(ValueError):
            spec(logger_quality=1.5)
        with pytest.raises(ValueError):
            spec(reward_noise=-0.1)


class TestTaskSpecTypes:
    @pytest.mark.parametrize("key, value", [
        ("num_instances", 2.0), ("k", "4"), ("d", None), ("seed", True),
        ("reward_noise", "none"), ("logger_quality", float("inf")), ("logging_mode", 1),
    ])
    def test_value_types_rejected_by_key(self, key, value):
        with pytest.raises(ValueError, match=key):
            spec(**{key: value})

    @pytest.mark.parametrize("key, value, message", [
        ("reward_noise", -0.1, "reward_noise must be non-negative, got -0.1"),
        ("logger_quality", 1.5, r"logger_quality must be in \[0, 1\], got 1.5"),
        ("logger_alpha", 0.0, "logger_alpha must be positive, got 0.0"),
        # the smallest count whose tensor numpy cannot index
        ("num_instances", 2**63 // 20 + 1, r"num_instances \* k \* d exceeds the largest array numpy can index"),
    ], ids=["reward_noise", "logger_quality", "logger_alpha", "size"])
    def test_a_bad_setting_is_a_configuration_error(self, key, value, message):
        with pytest.raises(ConfigurationError, match=f"^{message}$"):
            spec(**{key: value})

    @pytest.mark.parametrize("key, value", [("reward_noise", 0.0), ("logger_quality", 0.0), ("logger_quality", 1),
                                            ("logger_alpha", 1e-300)])
    def test_a_setting_at_the_edge_of_its_range_is_accepted(self, key, value):
        """A closed bound is in the range: 0 is an unrelated logger and 1 the oracle."""
        assert getattr(spec(**{key: value}), key) == value

    def test_logging_mode_name_accepted(self):
        assert spec(logging_mode="stochastic").logging_mode is Mode.STOCHASTIC


class TestRollLog:
    def test_deterministic_mode_contract(self):
        instances, truth, policy = generate_task(spec())
        log = roll_log(instances, truth, policy)
        assert log.mode is Mode.DETERMINISTIC
        assert all(t.propensity is None for t in log.tuples)
        assert len(log) == len(instances)

    def test_deterministic_choice_is_argmax(self):
        instances, truth, policy = generate_task(spec())
        log = roll_log(instances, truth, policy)
        for t in log.tuples:
            probs = policy_probs(policy.params, t.instance)
            assert t.chosen == int(np.argmax(probs))

    def test_deterministic_tie_break_is_lowest_index(self):
        from cflearn import GroundTruth, Instance, LoggingPolicy, PolicyParams

        row = np.array([0.3, -0.2])
        inst = Instance("tie", np.stack([row, row, row]))  # all probabilities equal
        truth = GroundTruth(reward_weights=np.zeros(2), rewards={"tie": np.array([0.1, 0.9, 0.5])})
        policy = LoggingPolicy(PolicyParams(np.ones(2)), Mode.DETERMINISTIC)
        log = roll_log([inst], truth, policy)
        assert log.tuples[0].chosen == 0

    def test_logged_rewards_match_truth(self):
        instances, truth, policy = generate_task(spec(logging_mode=Mode.STOCHASTIC))
        log = roll_log(instances, truth, policy, rng=5)
        for t in log.tuples:
            assert t.reward == float(truth(t.instance)[t.chosen])

    def test_stochastic_propensity_matches_policy(self):
        instances, truth, policy = generate_task(spec(logging_mode=Mode.STOCHASTIC, seed=8))
        log = roll_log(instances, truth, policy, rng=13)
        for t in log.tuples:
            recomputed = float(policy_probs(policy.params, t.instance)[t.chosen])
            assert abs(t.propensity - recomputed) <= 1e-12

    def test_stochastic_sampling_frequencies(self):
        instances, truth, policy = generate_task(
            spec(num_instances=1, logging_mode=Mode.STOCHASTIC, seed=2)
        )
        probs = policy_probs(policy.params, instances[0])
        rng = np.random.default_rng(99)
        rolls, per_call = 100_000, 1_000
        counts = np.zeros(len(probs))
        # one uniform per instance, so 100 rolls of 1000 copies draw the same
        # stream as 100,000 rolls of the one instance
        for _ in range(rolls // per_call):
            log = roll_log([instances[0]] * per_call, truth, policy, rng=rng)
            counts += np.bincount(log.chosen, minlength=len(probs))
        freq = counts / rolls
        stderr = np.sqrt(probs * (1 - probs) / rolls)
        assert np.all(np.abs(freq - probs) <= 3 * stderr + 1e-9)

    @pytest.mark.parametrize("shared", [True, False], ids=["task-tensor", "instance-list"])
    def test_a_draw_past_the_cumulative_sum_logs_the_last_positive_candidate(self, shared):
        from cflearn import GroundTruth, Instance, LoggingPolicy, PolicyParams

        class TopDraw(np.random.Generator):
            def random(self, size=None):
                return np.full(size, np.nextafter(1.0, 0.0))

        # the last two candidates underflow to probability 0, and the first
        # three sum to the draw, just below 1
        features = np.array([[[0.0], [0.1], [0.4], [-800.0], [-800.0]]])
        policy = LoggingPolicy(PolicyParams(np.ones(1)), Mode.STOCHASTIC)
        probs = policy_probs(policy.params, Instance("x", features[0]))
        assert np.cumsum(probs)[-1] == np.nextafter(1.0, 0.0) and probs[2] > 0.0 == probs[3]
        truth = GroundTruth(reward_weights=np.zeros(1), rewards={"x": np.array([0.1, 0.2, 0.3, 0.4, 0.5])})
        instances = TaskInstances(["x"], features) if shared else [Instance("x", features[0])]
        log = roll_log(instances, truth, policy, rng=TopDraw(np.random.PCG64(0)))
        assert (log.chosen[0], log.propensities[0], log.rewards[0]) == (2, probs[2], 0.3)

    def test_a_draw_on_a_cumulative_sum_logs_the_next_candidate(self):
        # two tied candidates have probability 0.5 each, and a draw of 0.5 inverts past the first
        from cflearn import GroundTruth, LoggingPolicy, PolicyParams

        class HalfDraw(np.random.Generator):
            def random(self, size=None):
                return np.full(size, 0.5)

        policy = LoggingPolicy(PolicyParams(np.ones(1)), Mode.STOCHASTIC)
        truth = GroundTruth(np.zeros(1), {"x": np.array([0.1, 0.2])})
        log = roll_log(TaskInstances(["x"], np.zeros((1, 2, 1))), truth, policy, rng=HalfDraw(np.random.PCG64(0)))
        assert (log.chosen[0], log.propensities[0]) == (1, 0.5)

    def test_a_truth_without_an_instance_is_rejected(self):
        from cflearn import ConfigurationError, GroundTruth

        instances, truth, policy = generate_task(spec())
        partial = GroundTruth(truth.reward_weights, {i: r for i, r in truth.rewards.items() if i != "i00003"})
        with pytest.raises(ConfigurationError, match="instance 'i00003' has no true rewards"):
            roll_log(instances, partial, policy)
        for ident in ("i00001", "i00000"):  # the matrix's first row too, whose index is 0
            short = GroundTruth(truth.reward_weights, {**truth.rewards, ident: np.full(3, 0.5)})
            with pytest.raises(ConfigurationError, match=f"instance '{ident}' has 3 true rewards for 4 candidates"):
                roll_log(list(instances), short, policy)

    def test_a_true_reward_outside_the_unit_interval_is_rejected(self):
        from cflearn import ConfigurationError, GroundTruth

        instances, truth, policy = generate_task(spec())
        with pytest.raises(ConfigurationError, match="reward 1.5 outside \\[0, 1\\]"):
            roll_log(instances, GroundTruth(truth.reward_weights, {**truth.rewards, "i00002": np.full(4, 1.5)}), policy)

    @pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
    def test_no_instances_roll_an_empty_log_of_the_logger_mode(self, mode):
        _, truth, logger = generate_task(spec(logging_mode=mode))
        log = roll_log([], truth, logger, rng=0)
        assert len(log) == 0 and log.mode is mode

    def test_same_seed_same_log(self):
        instances, truth, policy = generate_task(spec(logging_mode=Mode.STOCHASTIC))
        a = roll_log(instances, truth, policy, rng=21)
        b = roll_log(instances, truth, policy, rng=21)
        assert [t.chosen for t in a.tuples] == [t.chosen for t in b.tuples]


class TestSplit:
    def make_log(self, n=100):
        instances, truth, policy = generate_task(spec(num_instances=n))
        return roll_log(instances, truth, policy)

    def test_all_in_train(self):
        log = self.make_log()
        train_log, val_log, test_log = split(log, (1.0, 0.0, 0.0), seed=4)
        assert len(train_log) == len(log) and len(val_log) == 0 and len(test_log) == 0
        assert {t.instance.id for t in train_log.tuples} == {t.instance.id for t in log.tuples}

    @pytest.mark.parametrize("fractions, message", [
        ((1.5, -0.5, 0.0), "fractions must be non-negative, got -0.5"),
        ((0.5, 0.5, 0.5), r"fractions must be 3 values summing to 1, got \(0.5, 0.5, 0.5\)"),
        ((0.5, 0.5), r"fractions must be 3 values summing to 1, got \(0.5, 0.5\)"),
    ], ids=["negative", "sum", "two"])
    def test_bad_fractions_are_a_configuration_error(self, fractions, message):
        with pytest.raises(ConfigurationError, match=f"^{message}$"):
            split(self.make_log(10), fractions, seed=4)

    def test_exact_sizes(self):
        parts = split(self.make_log(100), (0.5, 0.25, 0.25), seed=4)
        assert [len(p) for p in parts] == [50, 25, 25]

    def test_same_seed_same_partition(self):
        log = self.make_log()
        a = split(log, (0.5, 0.25, 0.25), seed=7)
        b = split(log, (0.5, 0.25, 0.25), seed=7)
        for pa, pb in zip(a, b):
            assert [t.instance.id for t in pa.tuples] == [t.instance.id for t in pb.tuples]

    def test_union_disjoint_and_mode_preserved(self):
        log = self.make_log(40)
        parts = split(log, (0.6, 0.2, 0.2), seed=9)
        ids = [t.instance.id for p in parts for t in p.tuples]
        assert sorted(ids) == sorted(t.instance.id for t in log.tuples)
        assert len(set(ids)) == len(ids)
        assert all(p.mode is log.mode for p in parts)

    def test_bad_inputs(self):
        log = self.make_log(10)
        with pytest.raises(ValueError):
            split(log, (0.5, 0.5, 0.5), seed=0)
        from cflearn import Log

        with pytest.raises(ValueError):
            split(Log((), Mode.DETERMINISTIC), (1.0, 0.0, 0.0), seed=0)


class TestLoggerTruth:
    def test_deterministic_logger_earns_argmax_reward(self):
        instances, truth, policy = generate_task(spec())
        value = logging_policy_truth(policy, instances, truth)
        expected = np.mean(
            [truth(i)[int(np.argmax(policy_probs(policy.params, i)))] for i in instances]
        )
        assert value == pytest.approx(expected, rel=1e-12)

    def test_stochastic_logger_earns_expectation(self):
        instances, truth, policy = generate_task(spec(logging_mode=Mode.STOCHASTIC))
        value = logging_policy_truth(policy, instances, truth)
        expected = np.mean([policy_probs(policy.params, i) @ truth(i) for i in instances])
        assert value == pytest.approx(expected, rel=1e-12)
