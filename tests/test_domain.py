"""Softmax policy: probabilities, log-gradient, and their identities."""

import numpy as np
import pytest

from cflearn import (
    ConfigurationError,
    Instance,
    Log,
    LoggedTuple,
    LogConsistencyError,
    Mode,
    PolicyParams,
    log_prob_gradient,
    policy_probs,
)

from conftest import random_log


class TestPolicyProbs:
    def test_zero_weights_give_uniform(self, rng):
        inst = Instance("x", rng.standard_normal((4, 3)))
        probs = policy_probs(PolicyParams(np.zeros(3), alpha=2.5), inst)
        np.testing.assert_allclose(probs, 0.25, atol=1e-15)

    def test_two_candidate_log_odds(self):
        # scores (log 3, 0): direct exp/sum arithmetic gives 3/4 and 1/4
        inst = Instance("x", np.array([[np.log(3.0)], [0.0]]))
        probs = policy_probs(PolicyParams(np.array([1.0])), inst)
        np.testing.assert_allclose(probs, [0.75, 0.25], rtol=1e-14)

    def test_alpha_scaling_keeps_argmax(self, rng):
        inst = Instance("x", rng.standard_normal((5, 4)))
        w = rng.standard_normal(4)
        base = policy_probs(PolicyParams(w, alpha=1.0), inst)
        scaled = policy_probs(PolicyParams(w, alpha=10.0), inst)
        assert np.argmax(base) == np.argmax(scaled)

    def test_normalization_and_range(self, rng):
        for _ in range(100):
            k, d = int(rng.integers(2, 7)), int(rng.integers(1, 6))
            inst = Instance("x", rng.standard_normal((k, d)) * 3)
            params = PolicyParams(rng.standard_normal(d) * 5, alpha=float(rng.uniform(0.1, 20)))
            probs = policy_probs(params, inst)
            assert abs(probs.sum() - 1.0) <= 1e-12
            assert np.all(probs >= 0.0) and np.all(probs <= 1.0)

    def test_a_log_softmax_is_the_quotient_of_shifted_exponentials(self, rng):
        # bit for bit: each probability is exp(s - max s) divided by its instance's sum
        log = random_log(rng, 9, 5, 3, Mode.DETERMINISTIC)
        params = PolicyParams(rng.standard_normal(3) * 2, alpha=1.3)
        raw = log.features.reshape(-1, 3) @ params.weights
        raw *= params.alpha
        scores = np.ascontiguousarray(raw.reshape(9, 5).T)  # candidate-major, as the pass lays it out
        shifted = np.exp(scores - scores.max(axis=0))
        assert np.array_equal(log.probs(params), (shifted / shifted.sum(axis=0)).T)

    def test_a_log_softmax_is_the_read_only_array_its_pass_state_keeps(self, rng):
        log = random_log(rng, 6, 4, 3, Mode.STOCHASTIC)
        params = PolicyParams(rng.standard_normal(3))
        probs = log.probs(params)
        assert probs is log._tensor_pass().probs(params) and probs is log.probs(params)
        assert not probs.flags.writeable

    def test_one_instance_and_a_log_state_the_same_dimension_rule(self, rng):
        inst = Instance("x", rng.standard_normal((3, 4)))
        log = Log((LoggedTuple(inst, 0, 0.5),), Mode.DETERMINISTIC)
        for run in (lambda p: policy_probs(p, inst), log.probs):
            with pytest.raises(ConfigurationError, match=r"^weight dimension 3 does not match feature dimension 4$"):
                run(PolicyParams(np.zeros(3)))

    def test_shift_invariance(self, rng):
        # adding the same vector to every candidate shifts all scores equally
        inst = Instance("x", rng.standard_normal((4, 3)))
        params = PolicyParams(rng.standard_normal(3), alpha=1.7)
        shifted = Instance("x", inst.candidates + rng.standard_normal(3))
        np.testing.assert_allclose(
            policy_probs(params, inst), policy_probs(params, shifted), rtol=1e-12
        )

    def test_overflow_safe_at_large_alpha(self, rng):
        inst = Instance("x", rng.standard_normal((3, 2)) * 100)
        probs = policy_probs(PolicyParams(rng.standard_normal(2) * 100, alpha=50.0), inst)
        assert np.all(np.isfinite(probs))
        assert abs(probs.sum() - 1.0) <= 1e-12

    def test_dimension_mismatch(self, rng):
        inst = Instance("x", rng.standard_normal((3, 4)))
        with pytest.raises(ConfigurationError):
            policy_probs(PolicyParams(np.zeros(3)), inst)


class TestLogProbGradient:
    def test_uniform_two_candidates(self):
        inst = Instance("x", np.array([[1.0, 0.0], [0.0, 1.0]]))
        grad = log_prob_gradient(PolicyParams(np.zeros(2), alpha=1.0), inst, 0)
        np.testing.assert_allclose(grad, [0.5, -0.5], atol=1e-15)

    def test_identical_candidates_zero_gradient(self, rng):
        row = rng.standard_normal(3)
        inst = Instance("x", np.tile(row, (4, 1)))
        params = PolicyParams(rng.standard_normal(3), alpha=2.0)
        np.testing.assert_allclose(log_prob_gradient(params, inst, 2), 0.0, atol=1e-12)

    def test_matches_finite_differences(self, rng):
        step = 1e-6
        for _ in range(20):
            k, d = int(rng.integers(2, 6)), int(rng.integers(1, 5))
            inst = Instance("x", rng.standard_normal((k, d)))
            w = rng.standard_normal(d)
            alpha = float(rng.uniform(0.5, 2.0))
            y = int(rng.integers(k))
            analytic = log_prob_gradient(PolicyParams(w, alpha), inst, y)
            for j in range(d):
                bump = np.zeros(d)
                bump[j] = step
                hi = np.log(policy_probs(PolicyParams(w + bump, alpha), inst)[y])
                lo = np.log(policy_probs(PolicyParams(w - bump, alpha), inst)[y])
                numeric = (hi - lo) / (2 * step)
                assert abs(analytic[j] - numeric) <= 1e-6 * max(1.0, abs(analytic[j]))

    def test_score_function_identity(self, rng):
        for _ in range(50):
            k, d = int(rng.integers(2, 6)), int(rng.integers(1, 5))
            inst = Instance("x", rng.standard_normal((k, d)))
            params = PolicyParams(rng.standard_normal(d), alpha=float(rng.uniform(0.2, 5)))
            probs = policy_probs(params, inst)
            total = sum(probs[y] * log_prob_gradient(params, inst, y) for y in range(k))
            np.testing.assert_allclose(total, 0.0, atol=1e-9)


class TestTypeInvariants:
    def test_instance_needs_two_candidates(self):
        with pytest.raises(ConfigurationError):
            Instance("x", np.ones((1, 3)))

    def test_instance_rejects_non_finite(self):
        with pytest.raises(ConfigurationError):
            Instance("x", np.array([[1.0, np.inf], [0.0, 1.0]]))

    def test_tuple_validates_reward_and_propensity(self, rng):
        inst = Instance("x", rng.standard_normal((2, 2)))
        with pytest.raises(ConfigurationError):
            LoggedTuple(inst, 0, 1.5)
        with pytest.raises(ConfigurationError):
            LoggedTuple(inst, 0, 0.5, propensity=0.0)
        with pytest.raises(ConfigurationError):
            LoggedTuple(inst, 5, 0.5)

    def test_a_chosen_index_of_k_is_out_of_range(self, rng):
        inst = Instance("x", rng.standard_normal((3, 2)))
        with pytest.raises(ConfigurationError, match="^chosen index 3 out of range for instance 'x' with 3 candidates$"):
            LoggedTuple(inst, 3, 0.5)

    def test_log_mode_contract(self, rng):
        inst = Instance("x", rng.standard_normal((2, 2)))
        with_p = LoggedTuple(inst, 0, 0.5, propensity=0.5)
        without_p = LoggedTuple(inst, 0, 0.5)
        with pytest.raises(LogConsistencyError):
            Log((with_p,), Mode.DETERMINISTIC)
        with pytest.raises(LogConsistencyError):
            Log((without_p,), Mode.STOCHASTIC)

    def test_params_require_positive_alpha(self):
        with pytest.raises(ConfigurationError):
            PolicyParams(np.zeros(2), alpha=0.0)

    @pytest.mark.parametrize("alpha, message", [
        (True, "alpha must be a finite number, got True"),  # a bool was read as 1.0
        (None, "alpha must be a finite number, got None"),  # was a bare TypeError
        (float("inf"), "alpha must be a finite number, got inf"),
        (-1, "alpha must be positive, got -1"),
    ], ids=["bool", "none", "inf", "negative"])
    def test_params_refuse_an_alpha_that_is_no_positive_real(self, alpha, message):
        with pytest.raises(ConfigurationError, match=f"^{message}$"):
            PolicyParams(np.zeros(2), alpha=alpha)

    @pytest.mark.parametrize("weights, message", [(np.zeros((2, 2)), "must be a vector"),
                                                  ([0.0, np.nan], "non-finite"), ([np.inf], "non-finite")],
                             ids=["matrix", "nan", "inf"])
    def test_params_require_a_finite_vector(self, weights, message):
        with pytest.raises(ConfigurationError, match=message):
            PolicyParams(weights)

    def test_log_rejects_mixed_feature_dimensions(self, rng):
        tuples = tuple(LoggedTuple(Instance(f"x{d}", rng.standard_normal((2, d))), 0, 0.5) for d in (2, 3))
        with pytest.raises(ConfigurationError, match=r"mixes feature dimensions \[2, 3\]"):
            Log(tuples, Mode.DETERMINISTIC)

    def test_mixed_modes_work_as_declared(self, rng):
        log = random_log(rng, 5, 3, 2, Mode.STOCHASTIC)
        assert len(log) == 5
        assert all(t.propensity is not None for t in log.tuples)
