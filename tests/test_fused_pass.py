"""The fused objective pass against per-instance oracles, and its cost per
epoch and per evaluated log."""

from dataclasses import FrozenInstanceError, fields, replace
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cflearn import (
    ConfigurationError,
    EstimatorKind,
    GroundTruth,
    Instance,
    Log,
    LoggedTuple,
    Mode,
    PolicyParams,
    RewardModel,
    ScoreOverflowError,
    TaskSpec,
    TrainConfig,
    diagnostics,
    estimate_c_hat,
    estimators,
    evaluate_policy,
    generate_task,
    objective_value,
    roll_log,
    train,
    value_and_grad,
)

import oracles
from conftest import random_log

KINDS = list(EstimatorKind)
TOL = dict(rtol=1e-10, atol=1e-12)


def ragged_log(rng: np.random.Generator, n: int, d: int, mode: Mode) -> Log:
    """A log whose instances have 2, 3 or 5 candidates, interleaved."""
    tuples = []
    for t in range(n):
        k = (2, 3, 5)[t % 3]
        inst = Instance(f"m{t}", rng.standard_normal((k, d)))
        propensity = float(rng.uniform(0.05, 1.0)) if mode is Mode.STOCHASTIC else None
        tuples.append(LoggedTuple(inst, int(rng.integers(k)), float(rng.uniform(0, 1)), propensity))
    return Log(tuple(tuples), mode)


def kind_log(rng, kind: EstimatorKind, n: int = 10, k: int = 3, d: int = 4) -> Log:
    return random_log(rng, n, k, d, kind.required_mode)


class TestRaggedOracle:
    @pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
    def test_value_gradient_and_control(self, rng, kind):
        log = ragged_log(rng, 11, 4, kind.required_mode)
        params = PolicyParams(rng.standard_normal(4), alpha=1.3)
        model = RewardModel(rng.standard_normal(4) / 2, intercept=0.4, ridge_lambda=0.0)
        c = oracles.c_hat(params, log, model) if kind.estimates_control else 1.0

        result = value_and_grad(kind, params, log, model)
        np.testing.assert_allclose(result.value, oracles.value(kind, params, log, model, c), **TOL)
        np.testing.assert_allclose(result.value_at(c), oracles.value(kind, params, log, model, c), **TOL)
        np.testing.assert_allclose(result.grad(c), oracles.gradient(kind, params, log, model, c), **TOL)
        np.testing.assert_allclose(
            objective_value(kind, params, log, model), oracles.value(kind, params, log, model, c), **TOL
        )
        assert objective_value(kind, params, log, model) == result.value

    @pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
    def test_diagnostics_and_c_hat(self, rng, mode):
        log = ragged_log(rng, 12, 3, mode)
        params = PolicyParams(rng.standard_normal(3))
        model = RewardModel(rng.standard_normal(3) / 2, intercept=0.3, ridge_lambda=0.0)
        mass, ess = oracles.diagnostics(params, log)
        diag = diagnostics(params, log)
        np.testing.assert_allclose(diag.mass_on_dmax, mass, **TOL)
        np.testing.assert_allclose(diag.effective_sample_size, ess, **TOL)
        np.testing.assert_allclose(
            estimate_c_hat(params, log, model).c_hat, oracles.c_hat(params, log, model), **TOL
        )

    def test_rows_average_over_the_given_positions(self, rng):
        log = ragged_log(rng, 9, 3, Mode.DETERMINISTIC)
        params = PolicyParams(rng.standard_normal(3))
        model = RewardModel(rng.standard_normal(3) / 2, intercept=0.3, ridge_lambda=0.0)
        rows = np.array([7, 1, 4, 2])
        for kind in (EstimatorKind.DPM, EstimatorKind.DPM_R, EstimatorKind.DC):
            got = value_and_grad(kind, params, log, model, rows=rows).grad(0.6)
            want = oracles.terms(kind, params, log, model, 0.6)[1][rows].mean(axis=0)
            np.testing.assert_allclose(got, want, **TOL)

    def test_subset_keeps_cached_predictions(self, rng, monkeypatch):
        # predictions made once over the whole log serve any subset of its rows
        log = ragged_log(rng, 9, 3, Mode.STOCHASTIC)
        params = PolicyParams(rng.standard_normal(3))
        model = RewardModel(rng.standard_normal(3) / 2, intercept=0.3, ridge_lambda=0.0)
        predicted = []
        predict = RewardModel.predict_features
        monkeypatch.setattr(RewardModel, "predict_features",
                            lambda self, features: predicted.append(1) or predict(self, features))
        idx = np.array([8, 0, 3, 5])
        part = estimators._subset(log, idx, model)
        got = value_and_grad(EstimatorKind.DR, params, part, model).grad(1.0)
        assert len(predicted) == 1  # over the whole log, none over the part
        sub = Log(tuple(log.tuples[i] for i in idx), log.mode)
        np.testing.assert_allclose(got, oracles.gradient(EstimatorKind.DR, params, sub, model), **TOL)


    def test_terms_shared_across_kinds(self, rng):
        # the gradient rows written by a controlled pass do not leak into a plain one
        log = ragged_log(rng, 9, 3, Mode.DETERMINISTIC)
        params = PolicyParams(rng.standard_normal(3))
        model = RewardModel(rng.standard_normal(3) / 2, intercept=0.3, ridge_lambda=0.0)
        for kind in (EstimatorKind.DC, EstimatorKind.DPM_R, EstimatorKind.CDC, EstimatorKind.DPM):
            got = value_and_grad(kind, params, log, model)
            want = value_and_grad(kind, params, log.subset(np.arange(len(log))), model)  # a fresh pass
            assert got.grads.tobytes() == want.grads.tobytes()


class TestTrainerOracle:
    @pytest.mark.parametrize("batch_size, normalize", [(5, "batch"), (5, "full"), ("full", "batch")])
    @pytest.mark.parametrize(
        "kind",
        [EstimatorKind.IPS, EstimatorKind.DPM_R, EstimatorKind.DC, EstimatorKind.CDR, EstimatorKind.CDC],
        ids=lambda k: k.value,
    )
    def test_matches_pre_fusion_trainer(self, rng, kind, batch_size, normalize):
        train_log = kind_log(rng, kind, n=13)
        val_log = kind_log(rng, kind, n=6)
        config = TrainConfig(
            kind=kind, learning_rate=0.3, epochs=4, batch_size=batch_size, normalize=normalize,
            seed=3, init="gaussian", init_sigma=0.5,
        )
        params, trace = train(config, train_log, val_log)
        want_params, want_records = oracles.train(config, train_log, val_log)
        np.testing.assert_allclose(params.weights, want_params.weights, rtol=1e-9, atol=1e-12)
        got = [(r.train_value, r.validation_value, r.mass_on_dmax, r.grad_norm) for r in trace.records]
        np.testing.assert_allclose(got, want_records, rtol=1e-9, atol=1e-12)


    @pytest.mark.parametrize("batch_size", [5, "full"])
    @pytest.mark.parametrize("kind", [EstimatorKind.CDR, EstimatorKind.CDC], ids=lambda k: k.value)
    def test_c_refresh_once_matches_pre_fusion_trainer(self, rng, kind, batch_size):
        train_log = kind_log(rng, kind, n=13)
        val_log = kind_log(rng, kind, n=6)
        config = TrainConfig(
            kind=kind, learning_rate=0.3, epochs=4, batch_size=batch_size, c_refresh="once",
            seed=3, init="gaussian", init_sigma=0.5,
        )
        params, trace = train(config, train_log, val_log)
        want_params, want_records = oracles.train(config, train_log, val_log)
        np.testing.assert_allclose(params.weights, want_params.weights, rtol=1e-9, atol=1e-12)
        got = [(r.train_value, r.validation_value, r.mass_on_dmax, r.grad_norm) for r in trace.records]
        np.testing.assert_allclose(got, want_records, rtol=1e-9, atol=1e-12)
        # c_hat re-estimated every epoch takes other steps
        per_epoch, _ = train(replace(config, c_refresh="epoch"), train_log, val_log)
        assert not np.allclose(params.weights, per_epoch.weights, rtol=1e-9, atol=1e-12)


class TestPassCount:
    @pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
    def test_two_softmax_passes_per_full_batch_epoch(self, rng, kind, monkeypatch):
        from cflearn import domain

        calls = []
        softmax = domain._softmax

        def counted(scores):
            calls.append(scores.shape)
            return softmax(scores)

        monkeypatch.setattr(domain, "_softmax", counted)
        train_log = kind_log(rng, kind, n=8)
        val_log = kind_log(rng, kind, n=4)
        truth = GroundTruth(
            reward_weights=np.zeros(train_log.dim),
            rewards={ident: rng.uniform(0, 1, size=k) for ident, k in zip(train_log.ids, train_log.k)},
        )
        for with_truth, epochs in [(False, 1), (False, 5), (True, 1), (True, 5)]:
            calls.clear()
            config = TrainConfig(kind=kind, learning_rate=0.2, epochs=epochs)
            _, trace = train(config, train_log, val_log, truth=truth if with_truth else None)
            assert len(trace.records) == epochs
            assert all((r.true_reward is not None) == with_truth for r in trace.records)
            # one pass at the start, then one train and one validation pass per
            # epoch; the true reward reads the train pass's probabilities
            assert len(calls) == 1 + 2 * epochs

    def test_reward_model_predicted_once_per_log(self, rng, monkeypatch):
        predicted = []
        original = RewardModel.predict_features

        def counted(self, features):
            predicted.append(np.shape(features))
            return original(self, features)

        monkeypatch.setattr(RewardModel, "predict_features", counted)
        config = TrainConfig(kind=EstimatorKind.CDC, learning_rate=0.2, epochs=6)
        train(config, kind_log(rng, EstimatorKind.CDC, n=8), kind_log(rng, EstimatorKind.CDC, n=4))
        assert len(predicted) == 2  # the train log and the validation log

    @pytest.mark.parametrize("normalize", ["batch", "full"])
    def test_reward_model_predicted_once_per_log_in_minibatches(self, rng, monkeypatch, normalize):
        predicted = []
        original = RewardModel.predict_features

        def counted(self, features):
            predicted.append(np.shape(features))
            return original(self, features)

        monkeypatch.setattr(RewardModel, "predict_features", counted)
        config = TrainConfig(kind=EstimatorKind.CDR, learning_rate=0.2, epochs=3, batch_size=3,
                             normalize=normalize)
        train_log, val_log = kind_log(rng, EstimatorKind.CDR, n=8), kind_log(rng, EstimatorKind.CDR, n=4)
        train(config, train_log, val_log)
        # each batch's sub-log takes its rows of the train log's predictions
        assert predicted == [train_log.features.shape, val_log.features.shape]

    def test_log_terms_built_once_per_log(self, rng, monkeypatch):
        built = []
        mask = estimators.dmax_mask
        monkeypatch.setattr(estimators, "dmax_mask", lambda rewards: built.append(1) or mask(rewards))
        params = PolicyParams(rng.standard_normal(4))
        model = RewardModel(rng.standard_normal(4) / 2, intercept=0.3, ridge_lambda=0.0)
        log = random_log(rng, 9, 3, 4, Mode.STOCHASTIC)
        for kind in mode_kinds(Mode.STOCHASTIC):  # ips, ips-r, dr, cdr: the model joins third
            evaluate_policy(kind, params, log, model)
        assert len(built) == 1


    @pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
    def test_one_pass_per_log_serves_every_kind(self, rng, mode, monkeypatch):
        from cflearn import domain

        softmaxes, predicted = [], []
        softmax, predict = domain._softmax, RewardModel.predict_features

        def counted_softmax(scores):
            softmaxes.append(scores.shape)
            return softmax(scores)

        def counted_predict(self, features):
            predicted.append(np.shape(features))
            return predict(self, features)

        monkeypatch.setattr(domain, "_softmax", counted_softmax)
        monkeypatch.setattr(RewardModel, "predict_features", counted_predict)
        kinds = mode_kinds(mode)
        params = PolicyParams(rng.standard_normal(4))
        model = RewardModel(rng.standard_normal(4) / 2, intercept=0.3, ridge_lambda=0.0)
        logs = [random_log(rng, 9, 3, 4, mode) for _ in range(3)]
        for log in logs:
            for kind in kinds:
                evaluate_policy(kind, params, log, model)
        assert (len(softmaxes), len(predicted)) == (len(logs), len(logs))

        # the plain and self-normalized kinds alone predict nothing
        softmaxes.clear()
        predicted.clear()
        log = random_log(rng, 9, 3, 4, mode)
        for kind in kinds[:2]:
            evaluate_policy(kind, params, log, model)
        assert (len(softmaxes), len(predicted)) == (1, 0)

        # a new params object with equal weights, or another model object, makes a new pass
        evaluate_policy(kinds[2], PolicyParams(params.weights, params.alpha), log, model)
        assert (len(softmaxes), len(predicted)) == (2, 1)
        evaluate_policy(kinds[3], params, log, replace(model))
        assert (len(softmaxes), len(predicted)) == (3, 2)

    @pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
    def test_logs_rolled_from_one_task_share_one_pass(self, rng, mode, monkeypatch):
        from cflearn import domain

        softmaxes, predicted = [], []
        softmax, predict = domain._softmax, RewardModel.predict_features
        monkeypatch.setattr(domain, "_softmax", lambda scores: softmaxes.append(1) or softmax(scores))
        monkeypatch.setattr(RewardModel, "predict_features",
                            lambda self, features: predicted.append(1) or predict(self, features))
        instances, truth, logger = rolled_task(mode)
        params = PolicyParams(rng.standard_normal(4))
        model = RewardModel(rng.standard_normal(4) / 2, intercept=0.3, ridge_lambda=0.0)
        for seed in range(5):
            log = roll_log(instances, truth, logger, rng=seed)
            for kind in mode_kinds(mode):  # ips, ips-r, dr, cdr or dpm, dpm-r, dc, cdc
                evaluate_policy(kind, params, log, model)
        # one softmax for the logger and one for the target, one prediction
        assert (len(softmaxes), len(predicted)) == (2, 1)

        # a log made any other way keeps a pass of its own
        evaluate_policy(mode_kinds(mode)[3], params, log.subset(np.arange(len(log))), model)
        assert (len(softmaxes), len(predicted)) == (3, 2)


def rolled_task(mode: Mode, n: int = 12):
    """A generated task of ``n`` instances with k = 3 and d = 4, logged in ``mode``."""
    spec = TaskSpec(num_instances=n, k=3, d=4, seed=5, reward_noise=0.1, logger_quality=0.5,
                    logging_mode=mode)
    return generate_task(spec)


def mode_kinds(mode: Mode) -> list[EstimatorKind]:
    """The plain, self-normalized, DC/DR and cDC/cDR kinds of one log mode."""
    return [kind for kind in EstimatorKind if kind.required_mode is mode]


def assert_same_pass(got, want) -> None:
    """Every field of two value passes equal bit for bit."""
    assert got.kind is want.kind
    assert (got.value, got.a, got.b) == (want.value, want.a, want.b)
    assert (got.mass_on_dmax, got.effective_sample_size) == (want.mass_on_dmax, want.effective_sample_size)
    for name in ("probs", "rho", "rho_bar", "x", "y"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


class TestSharedPass:
    @pytest.mark.parametrize("ragged", [False, True], ids=["uniform-k", "ragged-k"])
    @pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
    def test_every_call_order_equals_fresh_passes(self, rng, mode, ragged):
        params = PolicyParams(rng.standard_normal(3), alpha=1.2)
        model = RewardModel(rng.standard_normal(3) / 2, intercept=0.3, ridge_lambda=0.0)
        make = ragged_log if ragged else lambda rng, n, d, mode: random_log(rng, n, 4, d, mode)
        for order in permutations(mode_kinds(mode)):
            log = make(rng, 10, 3, mode)
            for kind in order:
                got = evaluate_policy(kind, params, log, model)
                assert_same_pass(got, value_and_grad(kind, params, log, model, grad=False))

    @pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
    def test_switching_params_and_models_equals_fresh_passes(self, rng, mode):
        log = ragged_log(rng, 10, 3, mode)
        policies = [PolicyParams(rng.standard_normal(3)) for _ in range(2)]
        models = [RewardModel(rng.standard_normal(3) / 2, intercept=0.3, ridge_lambda=0.0) for _ in range(2)]
        kinds = mode_kinds(mode)
        for step in range(12):
            kind, params, model = kinds[step % 4], policies[step % 3 % 2], models[step // 4 % 2]
            got = evaluate_policy(kind, params, log, model)
            assert_same_pass(got, value_and_grad(kind, params, log, model, grad=False))

    def test_plain_kinds_ignore_a_model_of_the_wrong_dimension(self, rng):
        log = random_log(rng, 8, 3, 4, Mode.STOCHASTIC)
        params = PolicyParams(rng.standard_normal(4))
        wrong = RewardModel(np.ones(2), intercept=0.0, ridge_lambda=0.0)
        model = RewardModel(rng.standard_normal(4) / 2, intercept=0.3, ridge_lambda=0.0)
        for kind in (EstimatorKind.IPS, EstimatorKind.IPS_R):
            want = value_and_grad(kind, params, log, grad=False).value
            assert evaluate_policy(kind, params, log, wrong).value == want
        with pytest.raises(ConfigurationError, match="reward model dimension 2"):
            evaluate_policy(EstimatorKind.DR, params, log, wrong)
        # the failed prediction leaves the pass as it was
        got = evaluate_policy(EstimatorKind.DR, params, log, model)
        assert_same_pass(got, value_and_grad(EstimatorKind.DR, params, log, model, grad=False))

    def test_a_pass_has_every_field_and_stays_frozen(self, rng):
        log = random_log(rng, 6, 3, 3, Mode.STOCHASTIC)
        params = PolicyParams(rng.standard_normal(3))
        model = RewardModel(rng.standard_normal(3) / 2, intercept=0.3, ridge_lambda=0.0)
        for kind in mode_kinds(Mode.STOCHASTIC):
            result = value_and_grad(kind, params, log, model)
            assert list(vars(result)) == [field.name for field in fields(estimators.ObjectivePass)]
            with pytest.raises(FrozenInstanceError):
                result.a = 0.0

    def test_weights_and_shared_arrays_are_read_only(self, rng):
        weights = rng.standard_normal(3)
        params = PolicyParams(weights)
        model = RewardModel(weights, intercept=0.3, ridge_lambda=0.0)
        weights[0] = 7.0  # the caller's array stays theirs, and writable
        assert params.weights[0] != 7.0 and model.weights[0] != 7.0
        for array in (params.weights, model.weights):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0
        log = random_log(rng, 6, 3, 3, Mode.STOCHASTIC)
        for kind in mode_kinds(Mode.STOCHASTIC):
            result = evaluate_policy(kind, params, log, model)
            for name in ("probs", "rho", "rho_bar", "x", "y"):
                array = getattr(result, name)
                if array is not None:
                    with pytest.raises(ValueError, match="read-only"):
                        array[0] = 1.0


class TestTaskPass:
    """Logs rolled from one task share its pass over the candidate tensor;
    every pass on them equals a fresh pass on a column copy of the log."""

    @given(
        mode=st.sampled_from(list(Mode)),
        seed=st.integers(0, 2**16),
        steps=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 3), st.integers(0, 1),
                                 st.integers(0, 1), st.booleans()), min_size=1, max_size=12),
    )
    def test_every_pass_equals_a_fresh_pass_on_a_column_copy(self, mode, seed, steps):
        rng = np.random.default_rng(seed)
        instances, truth, logger = rolled_task(mode)
        logs = [roll_log(instances, truth, logger, rng=seed + i) for i in range(3)]
        policies = [PolicyParams(rng.standard_normal(4), alpha=1.3), logger.params]
        models = [RewardModel(rng.standard_normal(4) / 2, intercept=0.3, ridge_lambda=0.0) for _ in range(2)]
        kinds = mode_kinds(mode)
        for which, kind, params, model, grad in steps:
            log, kind, params, model = logs[which], kinds[kind], policies[params], models[model]
            copy = log.subset(np.arange(len(log)))
            assert not np.shares_memory(copy.features, log.features)
            got = value_and_grad(kind, params, log, model, grad=grad)
            want = value_and_grad(kind, params, copy, model, grad=grad)
            assert_same_pass(got, want)
            assert (got.grads is None) == (want.grads is None)
            if grad:
                assert got.grads.tobytes() == want.grads.tobytes()

    @given(
        mode=st.sampled_from(list(Mode)),
        seed=st.integers(0, 2**16),
        steps=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 1), st.integers(0, 1)), min_size=1, max_size=12),
    )
    def test_d_from_the_task_pass_equals_d_on_a_column_copy(self, mode, seed, steps):
        rng = np.random.default_rng(seed)
        instances, truth, logger = rolled_task(mode)
        logs = [roll_log(instances, truth, logger, rng=seed + i) for i in range(3)]
        policies = [PolicyParams(rng.standard_normal(4), alpha=1.3), logger.params]
        models = [RewardModel(rng.standard_normal(4) / 2, intercept=0.3, ridge_lambda=0.0) for _ in range(2)]
        kind = mode_kinds(mode)[2]  # dr or dc
        for which, params, model in steps:
            log, params, model = logs[which], policies[params], models[model]
            copy = log.subset(np.arange(len(log)))
            value_and_grad(kind, params, log, model, grad=False)
            value_and_grad(kind, params, copy, model, grad=False)
            got, want = estimators._state(log).direct, estimators._state(copy).direct
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        # the logs taken to a new (params, model) pair read one D, made once on the task's pass
        params = PolicyParams(rng.standard_normal(4))
        model = RewardModel(rng.standard_normal(4) / 2, intercept=0.1, ridge_lambda=0.0)
        for log in logs:
            value_and_grad(kind, params, log, model, grad=False)
        assert all(estimators._state(log).direct is instances._pass.terms[2] for log in logs)

    @pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
    def test_rolls_against_alternating_truths_equal_the_oracle(self, mode):
        instances, truth, logger = rolled_task(mode)
        # the same ids in reverse order, so each instance's reward row differs too
        other = GroundTruth(truth.reward_weights, {i: 1.0 - r for i, r in reversed(truth.rewards.items())})
        for seed in range(6):
            current = (truth, other)[seed % 2]
            got = roll_log(instances, current, logger, rng=seed)
            want = oracles.roll_log(list(instances), current, logger, rng=seed)
            assert got.chosen.tobytes() == want.chosen.tobytes()
            assert got.rewards.tobytes() == want.rewards.tobytes()
            assert instances._pass.truth is current
        assert got.rewards.tobytes() != roll_log(instances, truth, logger, rng=5).rewards.tobytes()

    def test_a_truth_without_an_instance_raises_again_and_keeps_nothing(self):
        instances, truth, logger = rolled_task(Mode.STOCHASTIC)
        tensor = instances._pass
        roll_log(instances, truth, logger, rng=0)
        parts = lambda: (*tensor.policies, *(getattr(tensor, name) for name in tensor.__slots__))
        kept = parts()
        partial = GroundTruth(truth.reward_weights, {i: r for i, r in truth.rewards.items() if i != "i00003"})
        for seed in range(2):  # the retry raises too: nothing was kept
            with pytest.raises(ConfigurationError, match="instance 'i00003' has no true rewards"):
                roll_log(instances, partial, logger, rng=seed)
        assert all(now is then for now, then in zip(parts(), kept))
        got = roll_log(instances, truth, logger, rng=1)
        assert got.rewards.tobytes() == oracles.roll_log(list(instances), truth, logger, rng=1).rewards.tobytes()

    def test_an_overflowing_pass_raises_again_and_keeps_nothing(self, rng):
        instances, truth, logger = rolled_task(Mode.STOCHASTIC)
        logs = [roll_log(instances, truth, logger, rng=seed) for seed in range(2)]
        tensor = instances._pass
        params = PolicyParams(rng.standard_normal(4))
        model = RewardModel(rng.standard_normal(4) / 2, intercept=0.3, ridge_lambda=0.0)
        evaluate_policy(EstimatorKind.DR, params, logs[0], model)
        parts = lambda: (*tensor.policies, tensor.model, tensor.preds)
        kept = parts()

        huge = PolicyParams(np.full(4, 1e308))
        huge_model = RewardModel(np.full(4, 1e308), intercept=0.0, ridge_lambda=0.0)
        for _ in range(2):  # the retry raises too: nothing was kept
            for log in logs:
                with pytest.raises(ScoreOverflowError, match="policy scores overflowed"):
                    evaluate_policy(EstimatorKind.IPS, huge, log)
                with pytest.raises(ScoreOverflowError, match="reward model predictions overflowed"):
                    evaluate_policy(EstimatorKind.DR, params, log, huge_model)
        assert all(now is then for now, then in zip(parts(), kept))
        for log in logs:
            fresh = log.subset(np.arange(len(log)))
            assert_same_pass(evaluate_policy(EstimatorKind.DR, params, log, model),
                             value_and_grad(EstimatorKind.DR, params, fresh, model, grad=False))

    def test_shared_arrays_are_read_only(self, rng):
        instances, truth, logger = rolled_task(Mode.STOCHASTIC)
        log = roll_log(instances, truth, logger, rng=1)
        params = PolicyParams(rng.standard_normal(4))
        model = RewardModel(rng.standard_normal(4) / 2, intercept=0.3, ridge_lambda=0.0)
        evaluate_policy(EstimatorKind.DR, params, log, model)
        tensor = instances._pass
        shared = [tensor.features, tensor.k, instances.ids, tensor.preds,
                  tensor.policies[0][1], tensor.policies[1][1], truth.rewards[log.ids[0]]]
        assert tensor.policies[1][0] is logger.params and tensor.policies[0][0] is params
        for array in shared:
            with pytest.raises(ValueError, match="read-only"):
                array[(0,) * array.ndim] = 1


class TestEffectiveSampleSize:
    def test_finite_when_every_weight_is_tiny(self):
        # a score gap of 700 puts rho near 1e-304 on every tuple: the squares
        # underflow, but the self-normalized weights are all exactly 1
        feats = np.array([[0.0], [700.0]])
        log = Log(
            tuple(LoggedTuple(Instance(f"t{i}", feats), 0, 0.1 * i) for i in range(6)),
            Mode.DETERMINISTIC,
        )
        params = PolicyParams(np.array([1.0]))
        with np.errstate(all="raise"):
            diag = diagnostics(params, log)
            report = evaluate_policy(EstimatorKind.DPM_R, params, log)
        assert np.isfinite(diag.effective_sample_size)
        assert diag.effective_sample_size == pytest.approx(6.0, rel=1e-12)
        assert report.effective_sample_size == diag.effective_sample_size
