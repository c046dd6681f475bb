"""Value estimators: hand-computed oracles, identities, and diagnostics."""

import numpy as np
import pytest

from cflearn import (
    ConfigurationError,
    DegenerateSupportError,
    EstimatorKind,
    Instance,
    Log,
    LoggedTuple,
    LogConsistencyError,
    Mode,
    PolicyParams,
    RewardModel,
    ScoreOverflowError,
    diagnostics,
    evaluate_policy,
    policy_probs,
    rho_weights,
    value_doubly_controlled,
    value_ips_dpm,
    value_and_grad,
    value_reweighted,
)

from conftest import random_log, saturated_tuple, score_tuple, unit_params
from oracles import rho


def stochastic_twin(log: Log, propensity: float = 1.0) -> Log:
    """The same tuples re-labelled as stochastic with constant propensity."""
    return Log(
        tuple(LoggedTuple(t.instance, t.chosen, t.reward, propensity) for t in log.tuples),
        Mode.STOCHASTIC,
    )


class TestRho:
    def test_unit_weight_when_pi_equals_mu(self, rng):
        inst = Instance("x", rng.standard_normal((3, 2)))
        params = PolicyParams(rng.standard_normal(2))
        pi = float(policy_probs(params, inst)[1])
        tup = LoggedTuple(inst, 1, 0.5, propensity=pi)
        assert rho(params, tup, Mode.STOCHASTIC) == 1.0

    def test_deterministic_weight_is_pi(self):
        tup = score_tuple("x", 0.5, prob=0.5)
        assert rho(unit_params(), tup, Mode.DETERMINISTIC) == pytest.approx(0.5, rel=1e-12)

    def test_ratio(self):
        # pi ~ 0.9 over mu = 0.3 -> 3.0
        tup = score_tuple("x", 0.5, prob=0.9, propensity=0.3)
        assert rho(unit_params(), tup, Mode.STOCHASTIC) == pytest.approx(3.0, rel=1e-12)

    def test_missing_propensity_rejected(self):
        tup = score_tuple("x", 0.5, prob=0.5)
        with pytest.raises(LogConsistencyError):
            rho(unit_params(), tup, Mode.STOCHASTIC)


class TestValueIpsDpm:
    def test_single_tuple_unit_weight(self, rng):
        inst = Instance("x", rng.standard_normal((4, 3)))
        params = PolicyParams(rng.standard_normal(3))
        pi = float(policy_probs(params, inst)[2])
        log = Log((LoggedTuple(inst, 2, 1.0, propensity=pi),), Mode.STOCHASTIC)
        assert value_ips_dpm(params, log) == 1.0

    def test_two_saturated_tuples(self):
        # pi = 1 on both tuples: (0.3 + 0.6) / 2
        log = Log(
            (saturated_tuple("a", 0.3, on=True), saturated_tuple("b", 0.6, on=True)),
            Mode.DETERMINISTIC,
        )
        assert value_ips_dpm(unit_params(), log) == pytest.approx(0.45, rel=1e-12)

    def test_zero_rewards_give_zero(self, rng):
        log = Log(
            tuple(
                LoggedTuple(Instance(f"z{i}", rng.standard_normal((3, 2))), 0, 0.0)
                for i in range(5)
            ),
            Mode.DETERMINISTIC,
        )
        assert value_ips_dpm(PolicyParams(rng.standard_normal(2)), log) == 0.0

    def test_empty_log_rejected(self):
        with pytest.raises(ValueError):
            value_ips_dpm(unit_params(), Log((), Mode.DETERMINISTIC))

    def test_overflowing_scores_raise_a_named_error(self):
        # 1e200 * 1e200 leaves the float range: the value was NaN, with only warnings
        feats = np.array([[1e200, 0.0], [-1e200, 0.0]])
        log = Log(
            tuple(LoggedTuple(Instance(f"o{i}", feats), i % 2, 0.5) for i in range(4)),
            Mode.DETERMINISTIC,
        )
        params = PolicyParams(np.array([1e200, 0.0]))
        with pytest.raises(ScoreOverflowError, match="scores overflowed"):
            value_ips_dpm(params, log)
        with pytest.raises(DegenerateSupportError):
            value_and_grad(EstimatorKind.DPM_R, params, log)
        # the per-instance score paths check the same way: they gave [nan nan]
        with pytest.raises(ScoreOverflowError, match="scores overflowed"):
            policy_probs(params, Instance("o", feats))
        with pytest.raises(ScoreOverflowError, match="predictions overflowed"):
            RewardModel(weights=params.weights, intercept=0.0, ridge_lambda=0.0).predict_features(feats)


class TestValueReweighted:
    def test_constant_rewards(self, rng):
        log = random_log(rng, 8, 3, 2, Mode.DETERMINISTIC)
        log = Log(
            tuple(LoggedTuple(t.instance, t.chosen, 0.7) for t in log.tuples),
            Mode.DETERMINISTIC,
        )
        params = PolicyParams(rng.standard_normal(2))
        assert value_reweighted(params, log) == pytest.approx(0.7, rel=1e-12)

    def test_degenerate_mass_hits_max_reward(self):
        # pi exactly 1 on the max-reward tuple, exactly 0 elsewhere
        log = Log(
            (
                saturated_tuple("top", 1.0, on=True),
                saturated_tuple("rest1", 0.4, on=False),
                saturated_tuple("rest2", 0.2, on=False),
            ),
            Mode.DETERMINISTIC,
        )
        assert value_reweighted(unit_params(), log) == 1.0

    def test_hand_weighted_mean(self):
        # pi = (0.2, 0.8), rewards (1.0, 0.4): 0.2 + 0.32 = 0.52
        log = Log(
            (score_tuple("a", 1.0, prob=0.2), score_tuple("b", 0.4, prob=0.8)),
            Mode.DETERMINISTIC,
        )
        assert value_reweighted(unit_params(), log) == pytest.approx(0.52, rel=1e-9)

    def test_zero_support_raises(self):
        log = Log(
            (saturated_tuple("a", 0.5, on=False), saturated_tuple("b", 0.9, on=False)),
            Mode.DETERMINISTIC,
        )
        with pytest.raises(DegenerateSupportError):
            value_reweighted(unit_params(), log)

    def test_bounded_by_support_rewards(self, rng):
        for _ in range(30):
            log = random_log(rng, int(rng.integers(2, 10)), 3, 2, Mode.STOCHASTIC)
            params = PolicyParams(rng.standard_normal(2) * 3)
            value = value_reweighted(params, log)
            support = [t.reward for t, r in zip(log.tuples, rho_weights(params, log)) if r > 0]
            assert min(support) - 1e-12 <= value <= max(support) + 1e-12

    def test_invariant_under_weight_scaling(self, rng):
        log = random_log(rng, 6, 3, 2, Mode.STOCHASTIC)
        params = PolicyParams(rng.standard_normal(2))
        halved = Log(
            tuple(
                LoggedTuple(t.instance, t.chosen, t.reward, t.propensity / 2)
                for t in log.tuples
            ),
            Mode.STOCHASTIC,
        )  # all rho doubled
        assert value_reweighted(params, log) == pytest.approx(
            value_reweighted(params, halved), rel=1e-12
        )


class TestValueDoublyControlled:
    def test_zero_control_reduces_bitwise(self, rng):
        log = random_log(rng, 7, 4, 3, Mode.DETERMINISTIC)
        params = PolicyParams(rng.standard_normal(3))
        model = RewardModel(rng.standard_normal(3), intercept=0.4, ridge_lambda=0.0)
        assert value_doubly_controlled(params, log, model, 0.0) == value_reweighted(params, log)

    def test_perfect_model_single_instance(self, rng):
        # dhat = reward on the logged candidate, 0 elsewhere; c = 1:
        # the correction cancels and the direct term collapses to pi(y1) * delta1
        delta = 0.625
        feats = np.eye(3)
        inst = Instance("x", feats)
        log = Log((LoggedTuple(inst, 1, delta),), Mode.DETERMINISTIC)
        model = RewardModel(np.array([0.0, delta, 0.0]), intercept=0.0, ridge_lambda=0.0)
        params = PolicyParams(rng.standard_normal(3))
        expected = float(policy_probs(params, inst)[1]) * delta
        assert value_doubly_controlled(params, log, model, 1.0) == pytest.approx(expected, rel=1e-12)

    def test_constant_model_shift_identity(self, rng):
        bias = 0.3
        tuples = []
        for i in range(6):
            inst = Instance(f"s{i}", rng.standard_normal((3, 2)))
            tuples.append(LoggedTuple(inst, int(rng.integers(3)), float(rng.uniform(0.5, 1.0))))
        log = Log(tuple(tuples), Mode.DETERMINISTIC)
        shifted = Log(
            tuple(LoggedTuple(t.instance, t.chosen, t.reward - bias) for t in tuples),
            Mode.DETERMINISTIC,
        )
        params = PolicyParams(rng.standard_normal(2))
        model = RewardModel(np.zeros(2), intercept=bias, ridge_lambda=0.0)
        lhs = value_doubly_controlled(params, log, model, 1.0)
        rhs = value_reweighted(params, shifted) + bias
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestDiagnostics:
    def test_uniform_weights_full_ess(self, rng):
        feats = rng.standard_normal((4, 3))
        log = Log(
            tuple(
                LoggedTuple(Instance(f"u{i}", feats.copy()), i % 4, 0.1 * i)
                for i in range(8)
            ),
            Mode.DETERMINISTIC,
        )
        diag = diagnostics(PolicyParams(np.zeros(3)), log)
        assert diag.effective_sample_size == pytest.approx(8.0, rel=1e-12)

    def test_single_support_point(self):
        log = Log(
            (saturated_tuple("a", 0.9, on=True), saturated_tuple("b", 0.5, on=False)),
            Mode.DETERMINISTIC,
        )
        diag = diagnostics(unit_params(), log)
        assert diag.effective_sample_size == 1.0
        assert diag.mass_on_dmax == 1.0

    def test_degenerate_policy_mass_is_one(self):
        log = Log(
            (
                saturated_tuple("top1", 1.0, on=True),
                saturated_tuple("top2", 1.0, on=True),
                saturated_tuple("rest", 0.3, on=False),
            ),
            Mode.DETERMINISTIC,
        )
        assert diagnostics(unit_params(), log).mass_on_dmax == 1.0

    def test_weights_align_with_log(self, rng):
        log = random_log(rng, 5, 3, 2, Mode.STOCHASTIC)
        diag = diagnostics(PolicyParams(rng.standard_normal(2)), log)
        assert diag.rho_bar.shape == (5,)
        assert 0.0 < diag.effective_sample_size <= 5.0
        assert 0.0 <= diag.mass_on_dmax <= 1.0


class TestKindDispatch:
    def test_dpm_equals_ips_at_unit_propensity(self, rng):
        for _ in range(20):
            log = random_log(rng, int(rng.integers(1, 8)), 3, 2, Mode.DETERMINISTIC)
            params = PolicyParams(rng.standard_normal(2))
            assert value_ips_dpm(params, log) == value_ips_dpm(params, stochastic_twin(log))

    def test_mode_guard(self, rng):
        det = random_log(rng, 4, 3, 2, Mode.DETERMINISTIC)
        sto = random_log(rng, 4, 3, 2, Mode.STOCHASTIC)
        params = PolicyParams(rng.standard_normal(2))
        with pytest.raises(LogConsistencyError, match="propensities"):
            evaluate_policy(EstimatorKind.IPS, params, det)
        with pytest.raises(LogConsistencyError, match="deterministic"):
            evaluate_policy(EstimatorKind.DPM, params, sto)

    def test_zero_weights_raise_for_plain_kinds_too(self):
        # every logged choice saturates to probability exactly 0; each kind
        # raises, asked first or after the others on the same log
        model = RewardModel(np.array([0.2]), intercept=0.1, ridge_lambda=0.0)
        for mode, propensity in ((Mode.DETERMINISTIC, None), (Mode.STOCHASTIC, 0.5)):
            tuples = tuple(saturated_tuple(f"z{i}", 0.5, on=False, propensity=propensity) for i in range(3))
            log = Log(tuples, mode)
            assert value_ips_dpm(unit_params(), log) == 0.0
            kinds = [kind for kind in EstimatorKind if kind.required_mode is mode]
            for kind in kinds + kinds[::-1]:
                with pytest.raises(DegenerateSupportError, match="all importance weights are zero"):
                    evaluate_policy(kind, unit_params(), log, model)

    def test_report_fields(self, rng):
        log = random_log(rng, 6, 3, 2, Mode.STOCHASTIC)
        params = PolicyParams(rng.standard_normal(2))
        report = evaluate_policy(EstimatorKind.IPS_R, params, log)
        assert report.kind is EstimatorKind.IPS_R
        assert report.value == value_reweighted(params, log)
        assert report.rho_bar.shape == (6,)

    def test_empty_rows_rejected(self, rng):
        log = random_log(rng, 5, 3, 2, Mode.DETERMINISTIC)
        with pytest.raises(ValueError, match="rows"):
            value_and_grad(EstimatorKind.DPM_R, PolicyParams(np.zeros(2)), log, rows=np.array([], int))

    def test_params_of_another_dimension_rejected(self, rng):
        log = random_log(rng, 5, 3, 2, Mode.DETERMINISTIC)
        with pytest.raises(ConfigurationError, match="weight dimension 3 does not match log feature dimension 2"):
            value_and_grad(EstimatorKind.DPM, PolicyParams(np.zeros(3)), log)

    @pytest.mark.parametrize("kind", [EstimatorKind.DC, EstimatorKind.CDC], ids=lambda k: k.value)
    def test_model_kind_without_a_model_rejected(self, rng, kind):
        log = random_log(rng, 5, 3, 2, Mode.DETERMINISTIC)
        with pytest.raises(ValueError, match=f"estimator {kind.value} needs a reward model"):
            value_and_grad(kind, PolicyParams(np.zeros(2)), log)

    def test_required_modes(self):
        stochastic = {EstimatorKind.IPS, EstimatorKind.IPS_R, EstimatorKind.DR, EstimatorKind.CDR}
        for kind in EstimatorKind:
            expected = Mode.STOCHASTIC if kind in stochastic else Mode.DETERMINISTIC
            assert kind.required_mode is expected

    def test_families_read_from_the_table(self):
        plain = {EstimatorKind.IPS, EstimatorKind.DPM}
        modelled = {EstimatorKind.DR, EstimatorKind.DC, EstimatorKind.CDR, EstimatorKind.CDC}
        estimated = {EstimatorKind.CDR, EstimatorKind.CDC}
        for kind in EstimatorKind:
            assert kind.reweighted is (kind not in plain)
            assert kind.uses_reward_model is (kind in modelled)
            assert kind.estimates_control is (kind in estimated)
        assert [EstimatorKind(name).control for name in ("ips-r", "dpm-r", "dr", "dc")] == [0, 0, 1, 1]
