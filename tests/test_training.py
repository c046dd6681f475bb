"""Gradient-ascent trainer: determinism, ascent, early stopping, truth evaluation."""

import numpy as np
import pytest

from cflearn import (
    ConfigurationError,
    EstimatorKind,
    Instance,
    Log,
    LoggedTuple,
    LogConsistencyError,
    Mode,
    PolicyParams,
    evaluate_truth,
    initial_params,
    policy_probs,
    train,
    TaskSpec,
    TrainConfig,
    generate_task,
    roll_log,
)

import oracles
from conftest import random_log


def single_tuple_log(rng):
    inst = Instance("s", rng.standard_normal((3, 4)))
    return Log((LoggedTuple(inst, 0, 1.0),), Mode.DETERMINISTIC)


class TestTrainBasics:
    def test_zero_learning_rate_keeps_params(self, rng):
        log = random_log(rng, 6, 3, 4, Mode.DETERMINISTIC)
        config = TrainConfig(kind=EstimatorKind.DPM, learning_rate=0.0, epochs=5)
        start = PolicyParams(rng.standard_normal(4))
        params, _ = train(config, log, log, initial=start)
        np.testing.assert_array_equal(params.weights, start.weights)

    def test_single_tuple_dpm_probability_climbs(self, rng):
        log = single_tuple_log(rng)
        inst = log.tuples[0].instance
        config = TrainConfig(kind=EstimatorKind.DPM, learning_rate=0.1, epochs=50)
        params = initial_params(config, 4)
        previous = float(policy_probs(params, inst)[0])
        for _ in range(50):
            params, _ = train(
                TrainConfig(kind=EstimatorKind.DPM, learning_rate=0.1, epochs=1),
                log,
                log,
                initial=params,
            )
            current = float(policy_probs(params, inst)[0])
            assert current > previous or previous > 1.0 - 1e-9
            previous = current

    def test_small_lr_objective_non_decreasing(self, rng):
        log = single_tuple_log(rng)
        config = TrainConfig(kind=EstimatorKind.DPM, learning_rate=1e-3, epochs=50)
        _, trace = train(config, log, log)
        values = [r.train_value for r in trace.records]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_same_seed_same_trace(self, rng):
        log = random_log(rng, 10, 3, 4, Mode.STOCHASTIC)
        val = random_log(rng, 5, 3, 4, Mode.STOCHASTIC)
        config = TrainConfig(
            kind=EstimatorKind.IPS_R, learning_rate=0.2, epochs=12, batch_size=4, seed=9
        )
        params_a, trace_a = train(config, log, val)
        params_b, trace_b = train(config, log, val)
        np.testing.assert_array_equal(params_a.weights, params_b.weights)
        assert trace_a.records == trace_b.records

    def test_epochs_zero_returns_initial(self, rng):
        log = random_log(rng, 4, 3, 2, Mode.DETERMINISTIC)
        config = TrainConfig(kind=EstimatorKind.DPM, epochs=0)
        params, trace = train(config, log, log)
        np.testing.assert_array_equal(params.weights, np.zeros(2))
        assert trace.records == []

    def test_gaussian_init_is_seeded(self):
        config = TrainConfig(kind=EstimatorKind.DPM, init="gaussian", seed=5)
        a = initial_params(config, 6)
        b = initial_params(config, 6)
        np.testing.assert_array_equal(a.weights, b.weights)
        assert np.any(a.weights != 0.0)
        assert np.all(np.abs(a.weights) < 0.1)  # sigma 0.01 scale


class TestEarlyStopping:
    def opposed_logs(self):
        # training rewards candidate 0; validation rewards candidate 1 of the
        # same instance, so the validation value strictly decreases from epoch 1
        feats = np.array([[1.0, 0.0], [0.0, 1.0]])
        train_log = Log((LoggedTuple(Instance("t", feats), 0, 1.0),), Mode.DETERMINISTIC)
        val_log = Log((LoggedTuple(Instance("v", feats), 1, 1.0),), Mode.DETERMINISTIC)
        return train_log, val_log

    def test_halts_after_patience_and_returns_best(self):
        train_log, val_log = self.opposed_logs()
        patience = 3
        config = TrainConfig(
            kind=EstimatorKind.DPM, learning_rate=0.5, epochs=100, early_stop_patience=patience
        )
        params, trace = train(config, train_log, val_log)
        assert trace.stopped_early
        assert trace.best_epoch == 1
        assert len(trace.records) == 1 + patience
        one_epoch, _ = train(
            TrainConfig(kind=EstimatorKind.DPM, learning_rate=0.5, epochs=1),
            train_log,
            val_log,
        )
        np.testing.assert_array_equal(params.weights, one_epoch.weights)

    def test_patience_zero_runs_to_completion(self):
        train_log, val_log = self.opposed_logs()
        config = TrainConfig(kind=EstimatorKind.DPM, learning_rate=0.5, epochs=20)
        _, trace = train(config, train_log, val_log)
        assert not trace.stopped_early
        assert len(trace.records) == 20


class TestGuards:
    def test_mode_mismatch_rejected(self, rng):
        det = random_log(rng, 4, 3, 2, Mode.DETERMINISTIC)
        with pytest.raises(LogConsistencyError):
            train(TrainConfig(kind=EstimatorKind.IPS), det, det)

    def test_batch_size_capped_by_log(self, rng):
        log = random_log(rng, 4, 3, 2, Mode.DETERMINISTIC)
        with pytest.raises(ConfigurationError):
            train(TrainConfig(kind=EstimatorKind.DPM, batch_size=9), log, log)

    def test_degenerate_support_halts_with_trace_note(self, rng):
        # chosen candidates saturate to probability exactly 0 at the start
        feats = np.array([[800.0], [0.0]])
        tuples = tuple(
            LoggedTuple(Instance(f"d{i}", feats), 1, 0.5) for i in range(3)
        )
        log = Log(tuples, Mode.DETERMINISTIC)
        config = TrainConfig(kind=EstimatorKind.DPM_R, learning_rate=0.1, epochs=10)
        start = PolicyParams(np.array([1.0]))
        params, trace = train(config, log, log, initial=start)
        assert trace.halted is not None
        assert trace.records == []
        np.testing.assert_array_equal(params.weights, start.weights)

    def test_invalid_config_values(self):
        with pytest.raises(ValueError):
            TrainConfig(kind=EstimatorKind.DPM, learning_rate=-0.1)
        with pytest.raises(ValueError):
            TrainConfig(kind=EstimatorKind.DPM, batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(kind=EstimatorKind.DPM, normalize="sometimes")

    def test_bool_sizes_rejected(self):
        # bool is an int subclass: True must not pass as batch size or epoch count 1
        with pytest.raises(ValueError, match="batch_size"):
            TrainConfig(kind=EstimatorKind.DPM, batch_size=True)
        with pytest.raises(ValueError, match="epochs"):
            TrainConfig(kind=EstimatorKind.DPM, epochs=True)
        with pytest.raises(ValueError, match="epochs"):
            TrainConfig(kind=EstimatorKind.DPM, epochs=2.5)

    @pytest.mark.parametrize("key, value", [
        ("learning_rate", "fast"), ("alpha", None), ("ridge_lambda", float("nan")),
        ("init_sigma", [0.1]), ("seed", 1.5), ("early_stop_patience", "2"), ("kind", 3),
    ])
    def test_value_types_rejected_by_key(self, key, value):
        fields = {"kind": EstimatorKind.DPM, key: value}
        with pytest.raises(ValueError, match=key):
            TrainConfig(**fields)

    def test_trace_carries_the_fitted_reward_model(self, rng):
        log = random_log(rng, 6, 3, 2, Mode.DETERMINISTIC)
        _, trace = train(TrainConfig(kind=EstimatorKind.DC, epochs=2), log, log)
        assert trace.reward_model is not None
        _, plain = train(TrainConfig(kind=EstimatorKind.DPM_R, epochs=2), log, log)
        assert plain.reward_model is None


class TestMinibatch:
    def test_batch_and_full_normalization_both_learn(self, rng):
        log = random_log(rng, 12, 3, 3, Mode.DETERMINISTIC)
        for normalize in ("batch", "full"):
            config = TrainConfig(
                kind=EstimatorKind.DPM_R,
                learning_rate=0.05,
                epochs=10,
                batch_size=4,
                normalize=normalize,
                seed=1,
            )
            params, trace = train(config, log, log)
            assert len(trace.records) == 10
            assert np.all(np.isfinite(params.weights))

    def test_full_batch_matches_explicit_n(self, rng):
        log = random_log(rng, 8, 3, 3, Mode.DETERMINISTIC)
        base = dict(kind=EstimatorKind.DPM_R, learning_rate=0.1, epochs=5, seed=2)
        full, _ = train(TrainConfig(batch_size="full", **base), log, log)
        explicit, _ = train(TrainConfig(batch_size=8, **base), log, log)
        np.testing.assert_array_equal(full.weights, explicit.weights)


class TestEvaluateTruth:
    def truth_fn(self, rewards):
        return lambda inst: rewards[inst.id]

    def test_mass_one_policy_gets_per_instance_max(self):
        # weights saturate probability 1 onto candidate 0 of each instance
        feats = np.array([[800.0], [0.0]])
        instances = [Instance(f"m{i}", feats.copy()) for i in range(3)]
        rewards = {"m0": np.array([0.9, 0.1]), "m1": np.array([0.8, 0.0]), "m2": np.array([0.7, 0.2])}
        value = evaluate_truth(PolicyParams(np.array([1.0])), instances, self.truth_fn(rewards))
        assert value == pytest.approx((0.9 + 0.8 + 0.7) / 3, rel=1e-12)

    def test_uniform_policy_gets_mean_reward(self, rng):
        instances = [Instance(f"u{i}", rng.standard_normal((4, 2))) for i in range(5)]
        rewards = {inst.id: rng.uniform(0, 1, size=4) for inst in instances}
        value = evaluate_truth(PolicyParams(np.zeros(2)), instances, self.truth_fn(rewards))
        expected = np.mean([rewards[i.id].mean() for i in instances])
        assert value == pytest.approx(expected, rel=1e-12)

    def test_matches_monte_carlo_sampling(self, rng):
        inst = Instance("mc", rng.standard_normal((5, 3)))
        rewards = {"mc": rng.uniform(0, 1, size=5)}
        params = PolicyParams(rng.standard_normal(3))
        exact = evaluate_truth(params, [inst], self.truth_fn(rewards))
        probs = policy_probs(params, inst)
        draws = rng.choice(5, size=100_000, p=probs)
        sampled = rewards["mc"][draws]
        stderr = sampled.std(ddof=1) / np.sqrt(draws.size)
        assert abs(sampled.mean() - exact) <= 3 * stderr

    def test_matches_per_instance_oracle_with_mixed_k(self, rng):
        instances = [
            Instance(f"x{i}", rng.standard_normal((int(rng.integers(2, 7)), 3))) for i in range(40)
        ]
        rewards = {inst.id: rng.uniform(0, 1, size=inst.k) for inst in instances}
        for _ in range(5):
            params = PolicyParams(rng.standard_normal(3) * 2.0, alpha=float(rng.uniform(0.5, 2.0)))
            got = evaluate_truth(params, instances, self.truth_fn(rewards))
            want = oracles.evaluate_truth(params, instances, self.truth_fn(rewards))
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_reward_row_of_the_wrong_length_is_rejected(self, rng):
        instances = [Instance("a", rng.standard_normal((3, 2))), Instance("b", rng.standard_normal((4, 2)))]
        rewards = {"a": np.full(3, 0.5), "b": np.full(3, 0.5)}
        with pytest.raises(ConfigurationError, match="'b' has 3 true rewards for 4 candidates"):
            evaluate_truth(PolicyParams(np.zeros(2)), instances, self.truth_fn(rewards))

    def test_empty_instance_list_is_rejected(self):
        with pytest.raises(ValueError, match="at least one instance"):
            evaluate_truth(PolicyParams(np.zeros(2)), [], self.truth_fn({}))

    def test_train_trace_matches_oracle_on_the_train_log(self):
        spec = TaskSpec(num_instances=30, k=4, d=5, seed=3, logging_mode=Mode.STOCHASTIC)
        instances, truth, logger = generate_task(spec)
        log = roll_log(instances, truth, logger, rng=4)
        config = TrainConfig(kind=EstimatorKind.IPS_R, learning_rate=0.5, epochs=1)
        params, trace = train(config, log, log, truth=truth)
        want = oracles.evaluate_truth(params, [t.instance for t in log.tuples], truth)
        assert trace.records[0].true_reward == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_train_takes_any_callable_truth(self):
        spec = TaskSpec(num_instances=30, k=4, d=5, seed=3, logging_mode=Mode.STOCHASTIC)
        instances, truth, logger = generate_task(spec)
        log = roll_log(instances, truth, logger, rng=4)
        config = TrainConfig(kind=EstimatorKind.IPS_R, learning_rate=0.5, epochs=3)
        _, by_id = train(config, log, log, truth=truth)
        _, by_call = train(config, log, log, truth=lambda inst: truth.rewards[inst.id])
        assert [r.true_reward for r in by_call.records] == [r.true_reward for r in by_id.records]
