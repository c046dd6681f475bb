"""The rules a log must meet, each stated once.

Every public entry point that takes a log refuses an empty one with one
error, and a kind's rules for a log (its mode, and 2 tuples where c_hat is
estimated on that log) read the same from evaluation and from training.
"""

import numpy as np
import pytest

from cflearn import (
    ConfigurationError,
    EstimatorKind,
    FittingError,
    GroundTruth,
    Instance,
    Log,
    LoggedTuple,
    LogConsistencyError,
    Mode,
    PolicyParams,
    RewardModel,
    TrainConfig,
    assignment_value,
    assignment_value_reweighted,
    diagnostics,
    estimate_c_hat,
    evaluate_policy,
    fit_reward_model,
    grad_doubly_controlled,
    grad_ips_dpm,
    grad_reweighted,
    normalized_weights,
    objective_value,
    partition_dmax,
    probe_theorem1,
    probe_theorem2,
    rho_weights,
    train,
    value_and_grad,
    value_doubly_controlled,
    value_ips_dpm,
    value_reweighted,
)

from conftest import random_log

D = 3
PARAMS = PolicyParams(np.full(D, 0.1))
MODEL = RewardModel(np.full(D, 0.1), 0.2, 0.0)


def good_log(mode: Mode, n: int = 4) -> Log:
    return random_log(np.random.default_rng(0), n, 3, D, mode)


def train_on(kind: EstimatorKind, empty: Log, which: str):
    """``train`` with ``empty`` as its train or its validation log, and a
    good log of the kind's mode as the other."""
    good = good_log(kind.required_mode)
    logs = (empty, good) if which == "train" else (good, empty)
    return train(TrainConfig(kind=kind, epochs=2), *logs)


ENTRY_POINTS = {
    **{f"evaluate_policy-{kind.value}": (lambda log, kind=kind: evaluate_policy(kind, PARAMS, log, MODEL))
       for kind in EstimatorKind},
    **{f"value_and_grad-{kind.value}": (lambda log, kind=kind: value_and_grad(kind, PARAMS, log, MODEL))
       for kind in EstimatorKind},
    **{f"train-{kind.value}-{which}-log": (lambda log, kind=kind, which=which: train_on(kind, log, which))
       for kind in EstimatorKind for which in ("train", "validation")},
    "objective_value": lambda log: objective_value(EstimatorKind.DPM, PARAMS, log),
    "rho_weights": lambda log: rho_weights(PARAMS, log),
    "normalized_weights": lambda log: normalized_weights(PARAMS, log),
    "diagnostics": lambda log: diagnostics(PARAMS, log),
    "estimate_c_hat": lambda log: estimate_c_hat(PARAMS, log, MODEL),
    "value_ips_dpm": lambda log: value_ips_dpm(PARAMS, log),
    "value_reweighted": lambda log: value_reweighted(PARAMS, log),
    "value_doubly_controlled": lambda log: value_doubly_controlled(PARAMS, log, MODEL, 0.5),
    "grad_ips_dpm": lambda log: grad_ips_dpm(PARAMS, log),
    "grad_reweighted": lambda log: grad_reweighted(PARAMS, log),
    "grad_doubly_controlled": lambda log: grad_doubly_controlled(PARAMS, log, MODEL, 0.5),
    "fit_reward_model": fit_reward_model,
    "partition_dmax": partition_dmax,
    "assignment_value": lambda log: assignment_value(np.ones(0), log),
    "assignment_value_reweighted": lambda log: assignment_value_reweighted(np.ones(0), log),
    "probe_theorem1": probe_theorem1,
    "probe_theorem2": probe_theorem2,
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
@pytest.mark.parametrize("call", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
def test_every_entry_point_refuses_an_empty_log_alike(call, mode):
    # an empty log of the features' dimension, so that emptiness is its one fault
    with pytest.raises(LogConsistencyError, match="^log is empty$"):
        call(good_log(mode).subset(slice(0, 0)))


def test_a_log_error_is_a_value_error():
    assert issubclass(LogConsistencyError, ValueError)


TWO_TUPLES = "^estimator {} estimates its control scalar on the log, which needs at least 2 tuples$"


@pytest.mark.parametrize("kind", [EstimatorKind.CDR, EstimatorKind.CDC], ids=lambda k: k.value)
class TestEstimatedControl:
    def test_evaluation_and_training_state_one_rule(self, kind):
        one = good_log(kind.required_mode, n=1)
        with pytest.raises(ConfigurationError, match=TWO_TUPLES.format(kind.value)):
            evaluate_policy(kind, PARAMS, one, MODEL)
        with pytest.raises(ConfigurationError, match=TWO_TUPLES.format(kind.value)) as caught:
            train(TrainConfig(kind=kind), one, good_log(kind.required_mode))
        assert caught.value.log is one

    def test_two_tuples_suffice(self, kind):
        two = good_log(kind.required_mode, n=2)
        assert np.isfinite(evaluate_policy(kind, PARAMS, two, MODEL).value)
        _, trace = train(TrainConfig(kind=kind, epochs=3), two, two)
        assert trace.halted is None and len(trace.records) == 3

    def test_a_one_tuple_validation_log_is_accepted(self, kind):
        # c_hat comes from the train log, so the validation log needs one tuple only
        _, trace = train(TrainConfig(kind=kind, epochs=3), good_log(kind.required_mode),
                         good_log(kind.required_mode, n=1))
        assert trace.halted is None and len(trace.records) == 3


class TestTrainNamesTheLog:
    """``train`` attaches the log each of its errors before epoch 1 concerns."""

    def test_a_bad_validation_log(self):
        good = good_log(Mode.STOCHASTIC)
        for bad in (good.subset(slice(0, 0)), good_log(Mode.DETERMINISTIC),
                    random_log(np.random.default_rng(1), 4, 3, D + 1, Mode.STOCHASTIC)):
            with pytest.raises((LogConsistencyError, ConfigurationError)) as caught:
                train(TrainConfig(kind=EstimatorKind.IPS), good, bad)
            assert caught.value.log is bad

    def test_a_bad_train_log(self):
        good = good_log(Mode.STOCHASTIC)
        for bad in (good.subset(slice(0, 0)), good_log(Mode.DETERMINISTIC)):
            with pytest.raises(LogConsistencyError) as caught:
                train(TrainConfig(kind=EstimatorKind.IPS), bad, good)
            assert caught.value.log is bad
        with pytest.raises(ConfigurationError, match="batch_size 9 exceeds") as caught:
            train(TrainConfig(kind=EstimatorKind.IPS, batch_size=9), good, good_log(Mode.STOCHASTIC))
        assert caught.value.log is good

    def test_a_truth_that_does_not_cover_the_train_log(self):
        good = good_log(Mode.STOCHASTIC)
        truth = GroundTruth(np.zeros(D), {ident: np.full(3, 0.5) for ident in good.ids[:-1]})
        with pytest.raises(ConfigurationError, match=f"instance '{good.ids[-1]}' has no true rewards") as caught:
            train(TrainConfig(kind=EstimatorKind.IPS), good, good_log(Mode.STOCHASTIC), truth=truth)
        assert caught.value.log is good

    def test_a_train_log_whose_reward_fit_fails(self):
        tuples = [LoggedTuple(Instance(f"x{t}", np.array([[1e160], [0.0]])), 0, 0.5) for t in range(3)]
        huge = Log(tuples, Mode.DETERMINISTIC)
        with pytest.raises(FittingError) as caught:
            train(TrainConfig(kind=EstimatorKind.DC), huge, huge.subset(slice(0, 2)))
        assert caught.value.log is huge
