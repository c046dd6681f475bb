"""Shared builders for the test suite.

Softmax probabilities can saturate to exactly 0.0 / 1.0 in float64 once
score gaps exceed ~750, which several tests exploit to realize degenerate
policies bit-exactly.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from cflearn import Instance, Log, LoggedTuple, Mode, PolicyParams

BIG_GAP = 800.0  # exp(-800) underflows to 0.0

# property tests draw the same examples on every run and write no example database
settings.register_profile("derandomized", derandomize=True, database=None, deadline=None)
settings.load_profile("derandomized")


def two_way_instance(name: str, top_score: float, other_score: float = 0.0) -> Instance:
    """Two candidates with 1-D features equal to the desired scores (w = 1)."""
    return Instance(id=name, candidates=np.array([[top_score], [other_score]]))


def unit_params(alpha: float = 1.0) -> PolicyParams:
    return PolicyParams(np.array([1.0]), alpha=alpha)


def saturated_tuple(name: str, reward: float, on: bool, propensity: float | None = None) -> LoggedTuple:
    """A tuple whose chosen candidate has probability exactly 1.0 (on) or 0.0 (off)
    under ``unit_params()``."""
    inst = two_way_instance(name, BIG_GAP)
    return LoggedTuple(inst, chosen=0 if on else 1, reward=reward, propensity=propensity)


def score_tuple(name: str, reward: float, prob: float, propensity: float | None = None) -> LoggedTuple:
    """A tuple whose chosen candidate has probability ~``prob`` under ``unit_params()``."""
    inst = two_way_instance(name, np.log(prob / (1.0 - prob)))
    return LoggedTuple(inst, chosen=0, reward=reward, propensity=propensity)


def random_log(rng: np.random.Generator, n: int, k: int, d: int, mode: Mode) -> Log:
    tuples = []
    for t in range(n):
        inst = Instance(id=f"r{t}", candidates=rng.standard_normal((k, d)))
        propensity = float(rng.uniform(0.05, 1.0)) if mode is Mode.STOCHASTIC else None
        tuples.append(
            LoggedTuple(inst, int(rng.integers(k)), float(rng.uniform(0, 1)), propensity)
        )
    return Log(tuple(tuples), mode)


def assert_columns_equal(got: Log, want: Log) -> None:
    """The two logs hold the same columns, bit for bit and of the same types and shapes."""
    assert got.mode is want.mode
    assert got.ids.tolist() == want.ids.tolist()
    for name in ("k", "chosen"):
        assert getattr(got, name).dtype == getattr(want, name).dtype
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
    assert got.features.shape == want.features.shape
    assert got.rewards.tobytes() == want.rewards.tobytes()
    if want.propensities is None:
        assert got.propensities is None
    else:
        assert got.propensities.tobytes() == want.propensities.tobytes()
    assert got.features.tobytes() == want.features.tobytes()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(42)
