"""Reward regression and control-scalar estimation."""

import numpy as np
import pytest

from cflearn import (
    FittingError,
    Instance,
    Log,
    LoggedTuple,
    Mode,
    PolicyParams,
    RewardModel,
    control_scalar,
    estimate_c_hat,
    fit_reward_model,
)
from cflearn.reward import VAR_FLOOR

from conftest import random_log
from oracles import predict, predict_all


def log_with_rewards(rng, rewards, d=3, k=3):
    tuples = []
    for i, r in enumerate(rewards):
        inst = Instance(f"f{i}", rng.standard_normal((k, d)))
        tuples.append(LoggedTuple(inst, int(rng.integers(k)), float(r)))
    return Log(tuple(tuples), Mode.DETERMINISTIC)


def linear_log(rng, n, d, weights, intercept):
    """Rewards exactly linear in the chosen candidate's features."""
    tuples = []
    for i in range(n):
        feats = rng.uniform(-0.5, 0.5, size=(3, d))
        chosen = int(rng.integers(3))
        reward = float(np.clip(feats[chosen] @ weights + intercept, 0.0, 1.0))
        tuples.append(LoggedTuple(Instance(f"l{i}", feats), chosen, reward))
    return Log(tuple(tuples), Mode.DETERMINISTIC)


class TestFit:
    def test_exact_interpolation_of_linear_target(self, rng):
        weights = rng.uniform(-0.3, 0.3, size=4)
        log = linear_log(rng, 40, 4, weights, intercept=0.5)
        model = fit_reward_model(log, ridge_lambda=0.0)
        for t in log.tuples:
            assert abs(predict(model, t.instance, t.chosen) - t.reward) <= 1e-9

    def test_constant_target_gives_intercept(self, rng):
        log = log_with_rewards(rng, [0.6] * 10)
        model = fit_reward_model(log, ridge_lambda=1e-2)
        assert model.intercept == pytest.approx(0.6, abs=1e-6)
        np.testing.assert_allclose(model.weights, 0.0, atol=1e-6)
        for t in log.tuples:
            assert predict(model, t.instance, t.chosen) == pytest.approx(0.6, abs=1e-6)

    def test_huge_ridge_shrinks_to_mean(self, rng):
        rewards = rng.uniform(0.2, 0.8, size=20)
        log = log_with_rewards(rng, rewards)
        model = fit_reward_model(log, ridge_lambda=1e9)
        for t in log.tuples:
            assert abs(predict(model, t.instance, t.chosen) - rewards.mean()) <= 1e-3

    def test_singular_unpenalized_system(self, rng):
        # two observations cannot identify four coefficients
        log = log_with_rewards(rng, [0.2, 0.9], d=3)
        with pytest.raises(FittingError):
            fit_reward_model(log, ridge_lambda=0.0)
        fit_reward_model(log, ridge_lambda=1e-3)  # penalty restores uniqueness

    def test_overflowing_gram_matrix_raises(self, rng):
        # squares of 1e200 overflow: the fit was NaN weights with only a warning
        tuples = tuple(
            LoggedTuple(Instance(f"h{i}", rng.standard_normal((3, 2)) * 1e200), 0, float(rng.uniform()))
            for i in range(10)
        )
        with pytest.raises(FittingError, match="overflow"):
            fit_reward_model(Log(tuples, Mode.DETERMINISTIC))

    @pytest.mark.parametrize("tuples, ridge_lambda, message", [(0, 1e-3, "log is empty"),
                                                               (3, -1e-3, "ridge_lambda must be non-negative")],
                             ids=["empty-log", "negative-ridge_lambda"])
    def test_bad_inputs_rejected(self, rng, tuples, ridge_lambda, message):
        with pytest.raises(ValueError, match=message):
            fit_reward_model(log_with_rewards(rng, [0.5] * tuples), ridge_lambda)

    def test_training_loss_monotone_in_ridge(self, rng):
        log = linear_log(rng, 30, 3, rng.uniform(-0.3, 0.3, size=3), intercept=0.4)
        feats = np.stack([t.instance.candidates[t.chosen] for t in log.tuples])
        targets = np.array([t.reward for t in log.tuples])
        losses = []
        for lam in (10.0, 1.0, 0.1, 0.01, 0.0):
            model = fit_reward_model(log, ridge_lambda=lam)
            raw = feats @ model.weights + model.intercept  # unclipped training loss
            losses.append(float(((raw - targets) ** 2).mean()))
        assert all(a >= b - 1e-12 for a, b in zip(losses, losses[1:]))


class TestPredict:
    def test_intercept_only(self, rng):
        inst = Instance("x", rng.standard_normal((3, 2)))
        model = RewardModel(np.zeros(2), intercept=0.5, ridge_lambda=0.0)
        assert predict(model, inst, 0) == 0.5

    def test_clipping(self):
        inst = Instance("x", np.array([[1.0], [-1.0]]))
        model = RewardModel(np.array([1.3]), intercept=0.0, ridge_lambda=0.0)
        assert predict(model, inst, 0) == 1.0  # raw 1.3
        model = RewardModel(np.array([0.2]), intercept=0.0, ridge_lambda=0.0)
        assert predict(model, inst, 1) == 0.0  # raw -0.2

    def test_always_in_unit_interval(self, rng):
        model = RewardModel(rng.standard_normal(3) * 5, intercept=-2.0, ridge_lambda=0.0)
        for _ in range(50):
            inst = Instance("x", rng.standard_normal((4, 3)) * 3)
            preds = predict_all(model, inst)
            assert np.all(preds >= 0.0) and np.all(preds <= 1.0)


class TestControlScalar:
    def reward_feature_log(self, rng, n=10):
        """1-D feature equal to the reward, so linear models can hit any scaling."""
        tuples = []
        for i in range(n):
            r = float(rng.uniform(0.1, 0.9))
            feats = np.array([[r], [r / 2]])
            tuples.append(LoggedTuple(Instance(f"c{i}", feats), 0, r))
        return Log(tuple(tuples), Mode.DETERMINISTIC)

    def test_perfect_model_gives_one(self, rng):
        log = self.reward_feature_log(rng)
        model = RewardModel(np.array([1.0]), intercept=0.0, ridge_lambda=0.0)
        params = PolicyParams(rng.standard_normal(1))
        assert estimate_c_hat(params, log, model).c_hat == 1.0

    def test_constant_model_falls_back_to_zero(self, rng):
        log = self.reward_feature_log(rng)
        model = RewardModel(np.array([0.0]), intercept=0.5, ridge_lambda=0.0)
        params = PolicyParams(np.zeros(1))
        result = estimate_c_hat(params, log, model)
        assert result.c_hat == 0.0
        assert result.var_y < 1e-12

    def test_half_scale_model_gives_two(self, rng):
        log = self.reward_feature_log(rng)
        model = RewardModel(np.array([0.5]), intercept=0.0, ridge_lambda=0.0)
        params = PolicyParams(rng.standard_normal(1))
        assert estimate_c_hat(params, log, model).c_hat == pytest.approx(2.0, rel=1e-9)

    def test_a_variance_at_the_floor_keeps_its_ratio(self):
        # only a variance below VAR_FLOOR falls back to 0; this Y's is the floor bit for bit
        result = control_scalar(np.array([0.0, 1.0, 3.0]), np.array([-1e-6, 0.0, 1e-6]))
        assert result.var_y == VAR_FLOOR
        assert result.c_hat == result.cov_xy / result.var_y == 1.5e6

    def test_shift_invariance(self, rng):
        x = rng.uniform(0, 1, size=20)
        y = rng.uniform(0, 1, size=20)
        base = control_scalar(x, y)
        shifted = control_scalar(x, y + 0.37)
        assert shifted.c_hat == pytest.approx(base.c_hat, abs=1e-9)

    def test_needs_two_tuples(self, rng):
        log = random_log(rng, 1, 3, 2, Mode.DETERMINISTIC)
        model = RewardModel(np.zeros(2), intercept=0.5, ridge_lambda=0.0)
        with pytest.raises(ValueError):
            estimate_c_hat(PolicyParams(np.zeros(2)), log, model)
