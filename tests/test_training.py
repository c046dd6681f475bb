"""Gradient-ascent trainer: determinism, ascent, early stopping, truth evaluation."""

import dataclasses
import re

import numpy as np
import pytest

from cflearn import (
    ConfigurationError,
    EstimatorKind,
    GroundTruth,
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
    value_and_grad,
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

    @pytest.mark.parametrize("patience, epochs", [(0, 6), (2, 3)])
    def test_a_tie_keeps_the_first_best_epoch(self, patience, epochs):
        # at learning rate 0 every epoch ties the first one's validation value
        train_log, val_log = self.opposed_logs()
        config = TrainConfig(kind=EstimatorKind.DPM, learning_rate=0.0, epochs=6,
                             early_stop_patience=patience)
        _, trace = train(config, train_log, val_log)
        assert trace.best_epoch == 1
        assert len(trace.records) == epochs and trace.stopped_early == (patience > 0)

    def test_a_first_validation_value_of_zero_is_the_best_so_far(self):
        # every validation reward is 0, so every epoch's validation value is exactly 0.0
        train_log, val_log = self.opposed_logs()
        zero = Log((LoggedTuple(val_log.tuples[0].instance, 1, 0.0),), Mode.DETERMINISTIC)
        config = TrainConfig(kind=EstimatorKind.DPM, learning_rate=0.5, epochs=10, early_stop_patience=2)
        params, trace = train(config, train_log, zero)
        assert [r.validation_value for r in trace.records] == [0.0, 0.0, 0.0]
        assert trace.best_epoch == 1 and trace.stopped_early
        one_epoch, _ = train(dataclasses.replace(config, epochs=1, early_stop_patience=0), train_log, zero)
        np.testing.assert_array_equal(params.weights, one_epoch.weights)

    def test_patience_counts_consecutive_epochs(self, monkeypatch):
        # the validation value falls back every other epoch, once in a row each time
        from cflearn import training

        train_log, val_log = self.opposed_logs()
        script = iter([0.1, 0.0, 0.2, 0.0, 0.3, 0.0, 0.4, 0.0, 0.0])
        real = training.value_and_grad

        def scripted(kind, params, log, model=None, **options):
            result = real(kind, params, log, model, **options)
            return dataclasses.replace(result, a=next(script), b=0.0) if log is val_log else result

        monkeypatch.setattr(training, "value_and_grad", scripted)
        config = TrainConfig(kind=EstimatorKind.DPM_R, learning_rate=0.5, epochs=20, early_stop_patience=2)
        _, trace = train(config, train_log, val_log)
        assert [r.validation_value for r in trace.records] == [0.1, 0.0, 0.2, 0.0, 0.3, 0.0, 0.4, 0.0, 0.0]
        assert trace.stopped_early and trace.best_epoch == 7


class TestGuards:
    def test_mode_mismatch_rejected(self, rng):
        det = random_log(rng, 4, 3, 2, Mode.DETERMINISTIC)
        with pytest.raises(LogConsistencyError):
            train(TrainConfig(kind=EstimatorKind.IPS), det, det)

    def test_batch_size_capped_by_log(self, rng):
        log = random_log(rng, 4, 3, 2, Mode.DETERMINISTIC)
        with pytest.raises(ConfigurationError):
            train(TrainConfig(kind=EstimatorKind.DPM, batch_size=9), log, log)

    def test_empty_or_narrower_validation_log_rejected(self, rng):
        log = random_log(rng, 4, 3, 2, Mode.DETERMINISTIC)
        with pytest.raises(LogConsistencyError, match="log is empty"):
            train(TrainConfig(kind=EstimatorKind.DPM), log, Log((), Mode.DETERMINISTIC))
        narrow = random_log(rng, 4, 3, 1, Mode.DETERMINISTIC)
        with pytest.raises(ConfigurationError, match="initial weight dimension 2 does not match feature dimension 1"):
            train(TrainConfig(kind=EstimatorKind.DPM), log, narrow)

    def test_initial_params_of_another_dimension_rejected(self, rng):
        log = random_log(rng, 4, 3, 2, Mode.DETERMINISTIC)
        with pytest.raises(ConfigurationError, match="initial weight dimension 3 does not match feature dimension 2"):
            train(TrainConfig(kind=EstimatorKind.DPM), log, log, initial=PolicyParams(np.zeros(3)))

    def test_initial_params_of_another_dimension_name_the_train_log(self, rng):
        train_log, validation_log = (random_log(rng, 4, 3, 2, Mode.DETERMINISTIC) for _ in range(2))
        with pytest.raises(ConfigurationError) as caught:
            train(TrainConfig(kind=EstimatorKind.DPM), train_log, validation_log, initial=PolicyParams(np.zeros(3)))
        assert caught.value.log is train_log

    def test_estimated_control_needs_two_train_tuples(self, rng):
        log = random_log(rng, 1, 3, 2, Mode.DETERMINISTIC)
        with pytest.raises(ConfigurationError, match="at least 2 tuples"):
            train(TrainConfig(kind=EstimatorKind.CDC), log, log)

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

    def test_plain_kind_halts_on_zero_weights(self):
        feats = np.array([[800.0], [0.0]])
        log = Log(tuple(LoggedTuple(Instance(f"d{i}", feats), 1, 0.5) for i in range(3)), Mode.DETERMINISTIC)
        config = TrainConfig(kind=EstimatorKind.DPM, learning_rate=0.1, epochs=10)
        _, trace = train(config, log, log, initial=PolicyParams(np.array([1.0])))
        assert trace.halted.startswith("epoch 1: all importance weights are zero")
        assert trace.records == []

    @pytest.mark.parametrize("learning_rate, cause", [(1e306, "policy scores"), (1e308, "weights")])
    def test_overflow_halts_with_the_initial_params(self, rng, learning_rate, cause):
        # the first step reaches weights whose scores overflow, or overflows itself
        def scaled(log):
            return Log(
                tuple(LoggedTuple(Instance(t.instance.id, 100.0 * t.instance.candidates),
                                  t.chosen, t.reward) for t in log.tuples),
                log.mode,
            )

        train_log = scaled(random_log(rng, 20, 3, 4, Mode.DETERMINISTIC))
        val_log = scaled(random_log(rng, 20, 3, 4, Mode.DETERMINISTIC))
        config = TrainConfig(kind=EstimatorKind.DPM_R, learning_rate=learning_rate, epochs=10)
        params, trace = train(config, train_log, val_log)
        assert trace.halted.startswith(f"epoch 1: {cause} overflowed")
        assert trace.records == []
        np.testing.assert_array_equal(params.weights, np.zeros(4))

    def test_reward_prediction_overflow_raises_before_epoch_one(self, rng, monkeypatch):
        # an input on which the model overflows is an error, not a halt
        from cflearn import RewardModel, ScoreOverflowError, training

        monkeypatch.setattr(training, "fit_reward_model",
                            lambda log, ridge: RewardModel(np.full(log.dim, 1e300), 0.0, ridge))
        train_log = random_log(rng, 8, 3, 4, Mode.STOCHASTIC)
        val_log = Log(
            tuple(LoggedTuple(Instance(t.instance.id, 1e9 * t.instance.candidates),
                              t.chosen, t.reward, t.propensity)
                  for t in random_log(rng, 4, 3, 4, Mode.STOCHASTIC).tuples),
            Mode.STOCHASTIC,
        )
        with pytest.raises(ScoreOverflowError, match="reward model predictions overflowed"):
            train(TrainConfig(kind=EstimatorKind.DR, epochs=2), train_log, val_log)

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

    @pytest.mark.parametrize("key, value, message", [
        ("learning_rate", -0.1, "learning_rate must be non-negative, got -0.1"),
        ("ridge_lambda", -1, "ridge_lambda must be non-negative, got -1"),
        ("alpha", 0, "alpha must be positive, got 0"),
        ("epochs", -1, "epochs must be at least 0, got -1"),
        ("batch_size", 0, 'batch_size, unless "full", must be at least 1, got 0'),
        ("batch_size", "all", 'batch_size, unless "full", must be an integer, got \'all\''),
        ("c_refresh", "never", "c_refresh must be one of epoch, once; got 'never'"),
        ("normalize", "sometimes", "normalize must be one of batch, full; got 'sometimes'"),
        ("init", "ones", "init must be one of zeros, gaussian; got 'ones'"),
        ("kind", "nope", "kind must be one of ips, dpm, ips-r, dpm-r, dr, dc, cdr, cdc; got 'nope'"),
    ], ids=["learning_rate", "ridge_lambda", "alpha", "epochs", "batch_size", "batch_size-text", "c_refresh",
            "normalize", "init", "kind"])
    def test_a_bad_setting_is_a_configuration_error(self, key, value, message):
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            TrainConfig(**{"kind": EstimatorKind.DPM, key: value})

    @pytest.mark.parametrize("key, value", [("learning_rate", 0), ("ridge_lambda", 0.0), ("init_sigma", 0.0),
                                            ("init_sigma", -0.5), ("alpha", 1e-300), ("batch_size", 1)])
    def test_a_setting_at_the_edge_of_its_range_is_accepted(self, key, value):
        """A closed bound is in the range, and ``init_sigma`` is any finite number."""
        assert getattr(TrainConfig(**{"kind": EstimatorKind.DPM, key: value}), key) == value

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
    def ground_truth(self, rewards):
        return GroundTruth(reward_weights=np.zeros(1), rewards=rewards)

    def test_mass_one_policy_gets_per_instance_max(self):
        # weights saturate probability 1 onto candidate 0 of each instance
        feats = np.array([[800.0], [0.0]])
        instances = [Instance(f"m{i}", feats.copy()) for i in range(3)]
        rewards = {"m0": np.array([0.9, 0.1]), "m1": np.array([0.8, 0.0]), "m2": np.array([0.7, 0.2])}
        value = evaluate_truth(PolicyParams(np.array([1.0])), instances, self.ground_truth(rewards))
        assert value == pytest.approx((0.9 + 0.8 + 0.7) / 3, rel=1e-12)

    def test_uniform_policy_gets_mean_reward(self, rng):
        instances = [Instance(f"u{i}", rng.standard_normal((4, 2))) for i in range(5)]
        rewards = {inst.id: rng.uniform(0, 1, size=4) for inst in instances}
        value = evaluate_truth(PolicyParams(np.zeros(2)), instances, self.ground_truth(rewards))
        expected = np.mean([rewards[i.id].mean() for i in instances])
        assert value == pytest.approx(expected, rel=1e-12)

    def test_matches_monte_carlo_sampling(self, rng):
        inst = Instance("mc", rng.standard_normal((5, 3)))
        rewards = {"mc": rng.uniform(0, 1, size=5)}
        params = PolicyParams(rng.standard_normal(3))
        exact = evaluate_truth(params, [inst], self.ground_truth(rewards))
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
        narrow = [inst for inst in instances if inst.k <= 3]  # fewer candidates than the truth's widest row
        for _ in range(5):
            params = PolicyParams(rng.standard_normal(3) * 2.0, alpha=float(rng.uniform(0.5, 2.0)))
            for given in (instances, narrow):
                got = evaluate_truth(params, given, self.ground_truth(rewards))
                want = oracles.evaluate_truth(params, given, self.ground_truth(rewards))
                assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_reward_row_of_the_wrong_length_is_rejected(self, rng):
        instances = [Instance("a", rng.standard_normal((3, 2))), Instance("b", rng.standard_normal((4, 2)))]
        rewards = {"a": np.full(3, 0.5), "b": np.full(3, 0.5)}
        with pytest.raises(ConfigurationError, match="'b' has 3 true rewards for 4 candidates"):
            evaluate_truth(PolicyParams(np.zeros(2)), instances, self.ground_truth(rewards))

    def test_instance_without_rewards_is_rejected(self, rng):
        instances = [Instance(name, rng.standard_normal((3, 2))) for name in ("a", "b", "c")]
        rewards = {"a": np.full(3, 0.5)}
        with pytest.raises(ConfigurationError, match="'b' has no true rewards"):
            evaluate_truth(PolicyParams(np.zeros(2)), instances, self.ground_truth(rewards))

    def test_empty_instance_list_is_rejected(self):
        with pytest.raises(ValueError, match="at least one instance"):
            evaluate_truth(PolicyParams(np.zeros(2)), [], self.ground_truth({}))

    def test_a_task_reads_the_gather_its_roll_kept(self, monkeypatch):
        from cflearn import domain

        instances, truth, logger = generate_task(TaskSpec(num_instances=30, k=4, d=5, seed=3))
        roll_log(instances, truth, logger, rng=4)
        gathers, softmaxes = [], []
        gather, softmax = GroundTruth.reward_matrix, domain._softmax
        monkeypatch.setattr(GroundTruth, "reward_matrix", lambda *args: gathers.append(1) or gather(*args))
        monkeypatch.setattr(domain, "_softmax", lambda scores: softmaxes.append(1) or softmax(scores))
        params = PolicyParams(np.random.default_rng(1).standard_normal(5))
        got = evaluate_truth(params, instances, truth)
        assert gathers == []
        # the target's softmax is kept apart from the logger's, which the next roll reads again
        roll_log(instances, truth, logger, rng=5)
        assert len(softmaxes) == 1
        want = evaluate_truth(params, list(instances), truth)
        assert len(gathers) == 1 and got.hex() == want.hex()

    @pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
    @pytest.mark.parametrize("ragged", [False, True], ids=["uniform", "ragged"])
    def test_a_log_equals_its_instance_list_bit_for_bit(self, rng, mode, ragged):
        sizes = (2, 3, 5) if ragged else (4,)
        tuples = [
            LoggedTuple(Instance(f"g{t}", rng.standard_normal((sizes[t % len(sizes)], 3))), 1, 0.5,
                        0.5 if mode is Mode.STOCHASTIC else None)
            for t in range(13)
        ]
        log = Log(tuples, mode)
        truth = GroundTruth(np.zeros(3), {t.instance.id: rng.uniform(0, 1, t.instance.k) for t in tuples})
        for _ in range(3):
            params = PolicyParams(rng.standard_normal(3), alpha=float(rng.uniform(0.5, 2.0)))
            want = evaluate_truth(params, [t.instance for t in tuples], truth)
            assert evaluate_truth(params, log, truth).hex() == want.hex()

    def test_a_log_after_a_pass_at_the_same_params_runs_no_softmax(self, rng, monkeypatch):
        from cflearn import domain

        log = random_log(rng, 9, 4, 3, Mode.DETERMINISTIC)
        truth = GroundTruth(np.zeros(3), {ident: rng.uniform(0, 1, 4) for ident in log.ids})
        params = PolicyParams(rng.standard_normal(3))
        value_and_grad(EstimatorKind.DPM_R, params, log)
        calls = []
        softmax = domain._softmax
        monkeypatch.setattr(domain, "_softmax", lambda scores: calls.append(1) or softmax(scores))
        got = evaluate_truth(params, log, truth)
        assert calls == []
        assert got == pytest.approx(oracles.evaluate_truth(params, [t.instance for t in log.tuples], truth),
                                    rel=1e-12, abs=0.0)

    def test_train_trace_matches_oracle_on_the_train_log(self):
        spec = TaskSpec(num_instances=30, k=4, d=5, seed=3, logging_mode=Mode.STOCHASTIC)
        instances, truth, logger = generate_task(spec)
        log = roll_log(instances, truth, logger, rng=4)
        config = TrainConfig(kind=EstimatorKind.IPS_R, learning_rate=0.5, epochs=1)
        params, trace = train(config, log, log, truth=truth)
        want = oracles.evaluate_truth(params, [t.instance for t in log.tuples], truth)
        assert trace.records[0].true_reward == pytest.approx(want, rel=1e-12, abs=0.0)
