"""Gradient correctness against finite differences, plus harness sensitivity."""

import numpy as np

from cflearn import (
    EstimatorKind,
    Instance,
    Log,
    LoggedTuple,
    Mode,
    PolicyParams,
    RewardModel,
    fd_check,
    grad_doubly_controlled,
    grad_ips_dpm,
    grad_reweighted,
    log_prob_gradient,
    run_grad_check,
    value_doubly_controlled,
    value_ips_dpm,
    value_reweighted,
)
from cflearn.estimators import normalized_weights
from cflearn.gradients import FD_TOLERANCE, default_families, random_problem

import oracles
from conftest import random_log


class TestPlainGradient:
    def test_zero_rewards_zero_gradient(self, rng):
        log = Log(
            tuple(
                LoggedTuple(Instance(f"z{i}", rng.standard_normal((3, 2))), 0, 0.0)
                for i in range(4)
            ),
            Mode.DETERMINISTIC,
        )
        grad = grad_ips_dpm(PolicyParams(rng.standard_normal(2)), log)
        np.testing.assert_array_equal(grad, 0.0)

    def test_identical_candidates_zero_gradient(self, rng):
        row = rng.standard_normal(3)
        inst = Instance("x", np.tile(row, (4, 1)))
        log = Log((LoggedTuple(inst, 1, 0.8),), Mode.DETERMINISTIC)
        grad = grad_ips_dpm(PolicyParams(rng.standard_normal(3)), log)
        np.testing.assert_allclose(grad, 0.0, atol=1e-12)

    def test_matches_finite_differences(self, rng):
        log = random_log(rng, 5, 3, 4, Mode.STOCHASTIC)
        params = PolicyParams(rng.standard_normal(4))
        err = fd_check(lambda p: value_ips_dpm(p, log), lambda p: grad_ips_dpm(p, log), params)
        assert err < 1e-5


class TestReweightedGradient:
    def test_constant_rewards_zero_gradient(self, rng):
        log = random_log(rng, 6, 3, 3, Mode.DETERMINISTIC)
        log = Log(
            tuple(LoggedTuple(t.instance, t.chosen, 0.4) for t in log.tuples),
            Mode.DETERMINISTIC,
        )
        grad = grad_reweighted(PolicyParams(rng.standard_normal(3)), log)
        np.testing.assert_allclose(grad, 0.0, atol=1e-9)

    def test_single_tuple_exactly_zero(self, rng):
        log = random_log(rng, 1, 4, 3, Mode.DETERMINISTIC)
        grad = grad_reweighted(PolicyParams(rng.standard_normal(3)), log)
        np.testing.assert_array_equal(grad, 0.0)

    def test_matches_finite_differences(self, rng):
        log = random_log(rng, 5, 3, 4, Mode.DETERMINISTIC)
        params = PolicyParams(rng.standard_normal(4))
        err = fd_check(lambda p: value_reweighted(p, log), lambda p: grad_reweighted(p, log), params)
        assert err < 1e-5

    def test_centering_identity(self, rng):
        # the rho_bar-weighted mean of the centered log-gradients vanishes
        for _ in range(20):
            log = random_log(rng, int(rng.integers(2, 8)), 3, 3, Mode.STOCHASTIC)
            params = PolicyParams(rng.standard_normal(3))
            _, rho_bar = normalized_weights(params, log)
            grads = np.array([log_prob_gradient(params, t.instance, t.chosen) for t in log.tuples])
            mean_grad = (rho_bar[:, None] * grads).mean(axis=0)
            centered = (rho_bar[:, None] * (grads - mean_grad)).mean(axis=0)
            np.testing.assert_allclose(centered, 0.0, atol=1e-9)


class TestDoublyControlledGradient:
    def test_zero_control_equals_reweighted(self, rng):
        log = random_log(rng, 5, 3, 3, Mode.DETERMINISTIC)
        params = PolicyParams(rng.standard_normal(3))
        model = RewardModel(rng.standard_normal(3), intercept=0.2, ridge_lambda=0.0)
        np.testing.assert_array_equal(
            grad_doubly_controlled(params, log, model, 0.0), grad_reweighted(params, log)
        )

    def test_zero_model_equals_reweighted(self, rng):
        log = random_log(rng, 5, 3, 3, Mode.DETERMINISTIC)
        params = PolicyParams(rng.standard_normal(3))
        model = RewardModel(np.zeros(3), intercept=0.0, ridge_lambda=0.0)
        np.testing.assert_array_equal(
            grad_doubly_controlled(params, log, model, 1.7), grad_reweighted(params, log)
        )

    def test_matches_finite_differences(self, rng):
        log = random_log(rng, 5, 3, 4, Mode.STOCHASTIC)
        params = PolicyParams(rng.standard_normal(4))
        model = RewardModel(rng.standard_normal(4) / 2, intercept=0.5, ridge_lambda=0.0)
        err = fd_check(
            lambda p: value_doubly_controlled(p, log, model, 1.0),
            lambda p: grad_doubly_controlled(p, log, model, 1.0),
            params,
        )
        assert err < 1e-5


class TestFdCheck:
    def test_exact_for_linear(self, rng):
        a = rng.standard_normal(4)
        params = PolicyParams(rng.standard_normal(4))
        err = fd_check(lambda p: float(a @ p.weights), lambda p: a, params)
        assert err <= 1e-10

    def test_seeded_problem_42_self_tests(self):
        rng = np.random.default_rng(42)
        problem = random_problem(rng)
        families = default_families()
        for name in ("ips-dpm", "doubly-controlled"):
            value_fn, grad_fn = families[name](problem)
            assert fd_check(value_fn, grad_fn, problem[0]) < 1e-5

    def test_each_family_checks_its_own_objective_at_its_control(self):
        """Each default family's value and gradient are its objective's, the
        controlled one's at the problem's c_hat, against the per-tuple oracle."""
        rng = np.random.default_rng(8)
        kinds = {"ips-dpm": EstimatorKind.DPM, "reweighted": EstimatorKind.DPM_R, "doubly-controlled": EstimatorKind.DC}
        checked = 0
        for _ in range(6):
            problem = random_problem(rng, n_max=6)
            params, log, model, c_hat = problem
            if len(log) < 2:  # a one-tuple self-normalized value is constant, whatever the family
                continue
            checked += 1
            for name, build in default_families().items():
                value_fn, grad_fn = build(problem)
                kind = kinds[name]
                np.testing.assert_allclose(value_fn(params), oracles.value(kind, params, log, model, c_hat),
                                           rtol=1e-10, atol=1e-12)
                np.testing.assert_allclose(grad_fn(params), oracles.gradient(kind, params, log, model, c_hat),
                                           rtol=1e-10, atol=1e-12)
        assert checked >= 3

    def test_detects_wrong_sign_gradient(self, rng):
        log = random_log(rng, 4, 3, 3, Mode.DETERMINISTIC)
        params = PolicyParams(rng.standard_normal(3))
        err = fd_check(
            lambda p: value_ips_dpm(p, log), lambda p: -grad_ips_dpm(p, log), params
        )
        assert err >= FD_TOLERANCE

    def test_harness_counts_injected_failure(self, rng):
        def sabotaged(problem):
            _, log, _, _ = problem
            return (lambda p: value_ips_dpm(p, log)), (lambda p: -grad_ips_dpm(p, log))

        results = run_grad_check(seed=3, count=5, families={"sabotaged": sabotaged})
        assert results[0].failures > 0

    def test_single_tuple_problems_reported_as_constant(self):
        # n_max=1 pins every problem at one tuple: the self-normalized
        # objectives are constant there and must still pass with zero error
        for res in run_grad_check(seed=5, count=10, n_max=1):
            assert res.failures == 0
            if res.family != "ips-dpm":
                assert res.constant_cases == 10


class TestRandomSweep:
    def test_all_families_pass(self):
        for res in run_grad_check(seed=11, count=40):
            assert res.failures == 0, f"{res.family}: {res.max_rel_error}"
            assert res.max_rel_error < FD_TOLERANCE
