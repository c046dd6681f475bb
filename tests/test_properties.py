"""Properties of the columnar log and the objective pass over random ragged logs.

Hypothesis runs under the derandomized profile (see conftest), so every run
draws the same examples.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cflearn import (
    CflearnError,
    EstimatorKind,
    Instance,
    Log,
    LoggedTuple,
    Mode,
    PolicyParams,
    RewardModel,
    TrainConfig,
    fd_check,
    normalized_weights,
    rho_weights,
    train,
    value_and_grad,
    value_doubly_controlled,
    value_reweighted,
)
from cflearn.gradients import FD_TOLERANCE
from cflearn.serialize import read_log, write_log

MODES = st.sampled_from(list(Mode))
ANY_FLOAT = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False, allow_subnormal=True)


@st.composite
def ragged_tuples(draw, mode: Mode, d: int, elements=ANY_FLOAT, max_n: int = 8):
    """Tuples over instances with 2 to 5 candidates each, in mixed order."""
    tuples = []
    for t in range(draw(st.integers(1, max_n))):
        k = draw(st.integers(2, 5))
        candidates = draw(arrays(np.float64, (k, d), elements=elements))
        propensity = draw(st.floats(0.05, 1.0)) if mode is Mode.STOCHASTIC else None
        tuples.append(
            LoggedTuple(
                Instance(draw(st.text(max_size=4)) + f"#{t}", candidates),
                draw(st.integers(0, k - 1)),
                draw(st.floats(0.0, 1.0)),
                propensity,
            )
        )
    return tuples


@st.composite
def ragged_logs(draw, elements=ANY_FLOAT, mode: Mode | None = None):
    mode = mode or draw(MODES)
    d = draw(st.integers(1, 4))
    return Log(draw(ragged_tuples(mode, d, elements)), mode)


SMALL = st.floats(-2.0, 2.0, allow_nan=False)


@st.composite
def problems(draw, mode: Mode | None = None, elements=SMALL):
    """A ragged log with moderate features, policy weights and a reward model."""
    log = draw(ragged_logs(elements, mode))
    d = log.dim
    weights = draw(arrays(np.float64, d, elements=st.floats(-1.5, 1.5)))
    params = PolicyParams(weights, alpha=draw(st.floats(0.5, 2.0)))
    model = RewardModel(
        draw(arrays(np.float64, d, elements=st.floats(-1.0, 1.0))),
        intercept=draw(st.floats(0.0, 1.0)),
        ridge_lambda=0.0,
    )
    return params, log, model


@settings(max_examples=60)
@given(st.data())
def test_tuples_to_columns_to_tuples_round_trip(data):
    mode = data.draw(MODES)
    tuples = data.draw(ragged_tuples(mode, data.draw(st.integers(1, 4))))
    views = Log(tuples, mode).tuples
    assert len(views) == len(tuples)
    for got, want in zip(views, tuples):
        assert got.instance.id == want.instance.id
        assert got.instance.candidates.tobytes() == want.instance.candidates.tobytes()
        assert got.instance.candidates.shape == want.instance.candidates.shape
        assert (got.chosen, got.reward, got.propensity) == (want.chosen, want.reward, want.propensity)


@settings(max_examples=40)
@given(ragged_logs())
def test_jsonl_round_trip_bit_exact(tmp_path_factory, log):
    path = tmp_path_factory.mktemp("log") / "log.jsonl"
    write_log(path, log)
    back = read_log(path)
    assert back.mode is log.mode
    assert back.ids.tolist() == log.ids.tolist()
    for name in ("features", "k", "chosen", "rewards", "propensities"):
        got, want = getattr(back, name), getattr(log, name)
        assert (got is None and want is None) or (
            got.shape == want.shape and got.tobytes() == want.tobytes()
        ), name
    again = path.with_name("again.jsonl")
    write_log(again, back)
    assert again.read_bytes() == path.read_bytes()


@settings(max_examples=60)
@given(problems())
def test_self_normalized_weights_average_one(problem):
    params, log, _ = problem
    _, rho_bar = normalized_weights(params, log)
    assert abs(rho_bar.mean() - 1.0) <= 1e-12


@settings(max_examples=60)
@given(problems(elements=st.floats(-1000.0, 1000.0)))
def test_reweighted_value_within_supported_rewards(problem):
    # wide features saturate the softmax, so some tuples get rho exactly 0
    params, log, _ = problem
    support = log.rewards[rho_weights(params, log) > 0.0]
    assume(support.size)
    value = value_reweighted(params, log)
    assert support.min() - 1e-12 <= value <= support.max() + 1e-12


@settings(max_examples=60)
@given(st.data())
def test_shifting_an_instance_leaves_policy_unchanged(data):
    params, log, _ = data.draw(problems())
    shifts = data.draw(arrays(np.float64, (len(log), log.dim), elements=st.floats(-10.0, 10.0)))
    shifted = Log(
        (
            LoggedTuple(
                Instance(t.instance.id, t.instance.candidates + shift),
                t.chosen, t.reward, t.propensity,
            )
            for t, shift in zip(log.tuples, shifts)
        ),
        log.mode,
    )
    np.testing.assert_allclose(shifted.probs(params), log.probs(params), rtol=1e-9, atol=1e-12)


@settings(max_examples=60)
@given(problems())
def test_controlled_value_at_zero_is_reweighted_value(problem):
    params, log, model = problem
    assert value_doubly_controlled(params, log, model, 0.0) == value_reweighted(params, log)


@settings(max_examples=30)
@given(st.data())
def test_finite_differences_agree(data):
    kind = data.draw(st.sampled_from(list(EstimatorKind)))
    params, log, model = data.draw(problems(kind.required_mode))
    c = data.draw(st.floats(0.0, 2.0)) if kind.uses_reward_model else 0.0

    def value(p):
        return value_and_grad(kind, p, log, model, grad=False).value_at(c)

    def grad(p):
        return value_and_grad(kind, p, log, model).grad(c)

    assert fd_check(value, grad, params) < FD_TOLERANCE


@st.composite
def scaled_log(draw, mode: Mode, d: int, scale: float, max_n: int = 6) -> Log:
    """A ragged log of up to ``max_n`` tuples, k <= 4, with features in [-scale, scale]."""
    unit = st.floats(-1.0, 1.0)
    tuples = []
    for t in range(draw(st.integers(1, max_n))):
        k = draw(st.integers(2, 4))
        candidates = draw(arrays(np.float64, (k, d), elements=unit)) * scale
        propensity = draw(st.floats(0.05, 1.0)) if mode is Mode.STOCHASTIC else None
        tuples.append(
            LoggedTuple(Instance(f"s{t}", candidates), draw(st.integers(0, k - 1)),
                        draw(st.floats(0.0, 1.0)), propensity)
        )
    return Log(tuples, mode)


@settings(max_examples=150)
@given(st.data())
def test_extreme_scales_end_finite_or_in_a_named_error(data):
    kind = data.draw(st.sampled_from(list(EstimatorKind)), label="kind")
    scale = 10.0 ** data.draw(st.floats(-3.0, 250.0), label="log10 feature scale")
    learning_rate = 10.0 ** data.draw(st.floats(-3.0, 308.0), label="log10 learning rate")
    alpha = 10.0 ** data.draw(st.floats(-2.0, 2.0), label="log10 alpha")
    d = data.draw(st.integers(1, 3), label="d")
    train_log = data.draw(scaled_log(kind.required_mode, d, scale), label="train log")
    validation_log = data.draw(scaled_log(kind.required_mode, d, scale), label="validation log")
    weights = data.draw(arrays(np.float64, d, elements=st.floats(-1.0, 1.0)), label="weights")
    model = RewardModel(
        data.draw(arrays(np.float64, d, elements=st.floats(-1.0, 1.0)), label="model weights"),
        intercept=0.5,
        ridge_lambda=0.0,
    )

    try:
        result = value_and_grad(kind, PolicyParams(weights, alpha), train_log, model)
        pieces = [result.a, result.b, result.grads]
        if len(train_log) > 1 or not kind.estimates_control:  # c_hat needs two tuples
            pieces.append(result.value)
        assert all(np.isfinite(piece).all() for piece in pieces)
    except CflearnError:
        pass

    epochs = data.draw(st.integers(1, 3), label="epochs")
    config = TrainConfig(kind=kind, learning_rate=learning_rate, epochs=epochs, alpha=alpha)
    try:
        params, trace = train(config, train_log, validation_log)
    except CflearnError:
        return  # a named error before the first epoch
    assert np.isfinite(params.weights).all()
    for record in trace.records:
        assert all(
            np.isfinite(value)
            for value in (record.train_value, record.validation_value, record.mass_on_dmax,
                          record.grad_norm)
        )
    if trace.halted is None:
        assert len(trace.records) == epochs
    else:
        assert trace.halted.startswith(f"epoch {len(trace.records) + 1}: ")
