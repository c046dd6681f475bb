"""The columnar log against the per-tuple code paths it replaced.

On logs whose instances all have the same k, rolling, splitting, writing,
every objective pass and the degeneracy probes must reproduce the tuple
code paths in ``oracles`` bit for bit; a written log must hold the values
of the stdlib-json file the oracle writes.  Logs with mixed k are padded, so
their sums run in another order: they must agree to rtol 1e-12.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from cflearn import (
    EstimatorKind,
    GroundTruth,
    Instance,
    Log,
    LoggedTuple,
    LoggingPolicy,
    Mode,
    PolicyParams,
    RewardModel,
    TaskSpec,
    generate_task,
    policy_probs,
    probe_theorem1,
    probe_theorem2,
    roll_log,
    split,
    value_and_grad,
)
from cflearn import degeneracy
from cflearn.cli import main, probe_tasks
from cflearn.serialize import read_log, write_log, write_truth

import oracles
from conftest import assert_columns_equal

KINDS = list(EstimatorKind)
RAGGED = dict(rtol=1e-12, atol=1e-14)


def _bits(value):
    """A parsed JSON value with every float as its exact hex digits and every
    object as its items in order."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, list):
        return [_bits(v) for v in value]
    if isinstance(value, dict):
        return [(key, _bits(v)) for key, v in value.items()]
    return value


def assert_log_file_matches_oracle(got: Path, want: Path) -> None:
    """``got`` (by write_log) against ``want`` (by the oracle's stdlib json):
    stdlib json parses both to the same keys and bit-equal floats, read_log
    gives bit-equal columns, and write_log of the oracle file's log gives
    ``got``'s bytes again."""
    got_lines = got.read_bytes().splitlines()
    want_lines = want.read_bytes().splitlines()
    assert len(got_lines) == len(want_lines)
    for got_line, want_line in zip(got_lines, want_lines):
        assert _bits(json.loads(got_line)) == _bits(json.loads(want_line))
    back = read_log(want)
    assert_columns_equal(read_log(got), back)
    again = got.with_name(f"{got.stem}-again.jsonl")
    write_log(again, back)
    assert again.read_bytes() == got.read_bytes()


def task(mode: Mode, seed: int = 4, n: int = 60, k: int = 6, d: int = 5):
    spec = TaskSpec(
        num_instances=n, k=k, d=d, seed=seed, reward_noise=0.05, logger_quality=0.4,
        logging_mode=mode,
    )
    return generate_task(spec)


def ragged_task(rng: np.random.Generator, n: int, d: int, mode: Mode, sizes=(2, 3, 5)):
    """Instances with 2, 3 or 5 candidates (or ``sizes``, in turn), a
    hand-made truth and logger."""
    instances = [
        Instance(f"m{t}", rng.standard_normal((sizes[t % len(sizes)], d))) for t in range(n)
    ]
    truth = GroundTruth(
        reward_weights=np.zeros(d),
        rewards={inst.id: rng.uniform(0.0, 1.0, inst.k) for inst in instances},
    )
    logger = LoggingPolicy(PolicyParams(rng.standard_normal(d), alpha=1.5), mode)
    return instances, truth, logger


class TestUniformKExact:
    @pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
    @pytest.mark.parametrize("shared", [True, False], ids=["task-tensor", "stacked"])
    def test_roll_and_split_bit_identical(self, mode, shared):
        instances, truth, logger = task(mode)
        # a plain list takes the stacking path; the task's own tuple shares its tensor
        given = instances if shared else list(instances)
        for seed in (0, 7, 123):
            log = roll_log(given, truth, logger, rng=seed)
            want = oracles.roll_log(instances, truth, logger, rng=seed)
            assert_columns_equal(log, want)
            for got_part, want_part in zip(
                split(log, (0.5, 0.3, 0.2), seed), oracles.split(want, (0.5, 0.3, 0.2), seed)
            ):
                assert_columns_equal(got_part, want_part)

    @pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
    def test_every_pass_bit_identical(self, rng, kind):
        instances, truth, logger = task(kind.required_mode, seed=11)
        log = roll_log(instances, truth, logger, rng=3)
        model = RewardModel(rng.standard_normal(5) / 2, intercept=0.3, ridge_lambda=0.0)
        params = PolicyParams(rng.standard_normal(5), alpha=1.2)
        for rows in (None, np.array([5, 2, 40, 17])):
            got = value_and_grad(kind, params, log, model, rows=rows)
            a, b, grads, x, y, mass, ess = oracles.grouped_pass(kind, params, log, model, rows)
            assert (got.a, got.b) == (a, b)
            assert got.grads.tobytes() == grads.tobytes()
            assert (got.mass_on_dmax, got.effective_sample_size) == (mass, ess)
            if kind.estimates_control:
                assert got.estimate_c_hat() == oracles.control_scalar(x, y)

    def test_probe_suite_results_equal(self):
        for label, spec in probe_tasks(seed=31, count=6):
            instances, truth, logger = generate_task(spec)
            log = roll_log(instances, truth, logger, rng=spec.seed + 1)
            for trials in (0, 1, 200):
                assert probe_theorem1(log, spec.seed + 2, trials) == oracles.probe_theorem1(
                    log, spec.seed + 2, trials
                ), label
                assert probe_theorem2(log, spec.seed + 3, trials) == oracles.probe_theorem2(
                    log, spec.seed + 3, trials
                ), label

    def test_generate_log_files_byte_identical(self, tmp_path):
        config = tmp_path / "config.yaml"
        config.write_text(
            "task: {num_instances: 50, k: 4, d: 3, seed: 9, reward_noise: 0.1,\n"
            "       logging_mode: stochastic, logger_quality: 0.5}\n"
            "train: {kind: cdr}\n"
            "splits: [0.6, 0.2, 0.2]\n"
            "split_seed: 5\n",
            encoding="utf-8",
        )
        assert main(["generate-log", "--config", str(config), "--out", str(tmp_path / "got")]) == 0

        spec = TaskSpec(
            num_instances=50, k=4, d=3, seed=9, reward_noise=0.1,
            logging_mode=Mode.STOCHASTIC, logger_quality=0.5,
        )
        instances, truth, logger = generate_task(spec)
        log = oracles.roll_log(instances, truth, logger, rng=spec.seed)
        want = tmp_path / "want"
        want.mkdir()
        for name, part in zip(("train", "validation", "test"), oracles.split(log, (0.6, 0.2, 0.2), 5)):
            oracles.write_log(want / f"{name}.jsonl", part)
        write_truth(want / "truth.json", truth, logger)
        for name in ("train.jsonl", "validation.jsonl", "test.jsonl"):
            assert_log_file_matches_oracle(tmp_path / "got" / name, want / name)
        assert (tmp_path / "got" / "truth.json").read_bytes() == (want / "truth.json").read_bytes()


class TestProbeFailures:
    """Rounding can make a challenger tie the maximizer; the batched probes
    must report the same first failure and worst challenger as the trial loop."""

    def test_theorem1_denormal_rewards(self):
        inst = Instance("x", np.zeros((2, 1)))
        log = Log([LoggedTuple(inst, 0, 5e-324), LoggedTuple(inst, 1, 5e-324)], Mode.DETERMINISTIC)
        for seed in range(20):
            got = probe_theorem1(log, seed=seed, trials=50)
            assert got == oracles.probe_theorem1(log, seed=seed, trials=50)
        assert not got.holds and not got.skipped

    @pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
    def test_theorem2_near_tie(self, rng, mode):
        below = np.nextafter(0.5, 0.0)
        inst = Instance("x", np.zeros((2, 1)))
        tuples = []
        for t, reward in enumerate([0.5, below, below, 0.5, below, below, below]):
            propensity = float(rng.uniform(0.1, 1.0)) if mode is Mode.STOCHASTIC else None
            tuples.append(LoggedTuple(inst, t % 2, reward, propensity))
        log = Log(tuples, mode)
        outcomes = set()
        for seed in range(30):
            got = probe_theorem2(log, seed=seed, trials=40)
            assert got == oracles.probe_theorem2(log, seed=seed, trials=40)
            outcomes.add((got.holds, got.witness))
        assert any(not holds for holds, _ in outcomes)

    def test_theorem2_confined_miss(self, rng, monkeypatch):
        # no tolerance can be met: the first confined challenger fails
        monkeypatch.setattr(degeneracy, "DEGENERATE_VALUE_TOL", -1.0)
        log = oracles.roll_log(*task(Mode.STOCHASTIC, n=12), rng=1)
        got = probe_theorem2(log, seed=3, trials=10)
        assert got == oracles.probe_theorem2(log, seed=3, trials=10)
        assert got.witness.startswith("mass confined")


class TestMixedK:
    @pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
    def test_roll_split_io_and_every_kind(self, rng, tmp_path, mode):
        instances, truth, logger = ragged_task(rng, 30, 4, mode)
        log = roll_log(instances, truth, logger, rng=8)
        want = oracles.roll_log(instances, truth, logger, rng=8)
        assert_columns_equal(log, want)
        assert log.features.shape == (30, 5, 4)
        assert log.k.tolist() == [(2, 3, 5)[t % 3] for t in range(30)]
        assert not log.features[0, 2:].any()  # padding

        part, _, _ = split(log, (0.6, 0.2, 0.2), seed=2)
        assert_columns_equal(part, oracles.split(want, (0.6, 0.2, 0.2), seed=2)[0])
        write_log(tmp_path / "got.jsonl", part)
        oracles.write_log(tmp_path / "want.jsonl", part)
        assert_log_file_matches_oracle(tmp_path / "got.jsonl", tmp_path / "want.jsonl")
        back = read_log(tmp_path / "got.jsonl")
        assert_columns_equal(back, part)

        params = PolicyParams(rng.standard_normal(4), alpha=0.8)
        model = RewardModel(rng.standard_normal(4) / 2, intercept=0.4, ridge_lambda=0.0)
        for kind in KINDS:
            if kind.required_mode is not mode:
                continue
            got = value_and_grad(kind, params, back, model)
            for c in (0.0, 0.7, 1.0):
                np.testing.assert_allclose(
                    got.value_at(c), oracles.value(kind, params, back, model, c), **RAGGED
                )
                np.testing.assert_allclose(
                    got.grad(c), oracles.gradient(kind, params, back, model, c), **RAGGED
                )

    def test_padded_candidates_get_no_probability(self, rng):
        instances, truth, logger = ragged_task(rng, 9, 3, Mode.STOCHASTIC)
        log = roll_log(instances, truth, logger, rng=1)
        probs = log.probs(logger.params)
        for row, inst in enumerate(instances):
            np.testing.assert_allclose(probs[row, : inst.k], policy_probs(logger.params, inst), rtol=1e-12)
            assert not probs[row, inst.k :].any()


class TestWideCandidateSets:
    """At k = 20 the row sums run past numpy's 8-element pairwise block, so an
    instance alone and the same instance in a batch must sum its candidates
    in the same order."""

    @pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
    @pytest.mark.parametrize("ragged", [False, True], ids=["uniform", "ragged"])
    def test_batch_rows_equal_single_instances(self, rng, mode, ragged):
        if ragged:
            instances, truth, logger = ragged_task(rng, 30, 6, mode, sizes=(9, 14, 20))
        else:
            instances, truth, logger = task(mode, n=30, k=20, d=6)
        log = roll_log(instances, truth, logger, rng=5)
        assert_columns_equal(log, oracles.roll_log(instances, truth, logger, rng=5))
        params = PolicyParams(rng.standard_normal(6), alpha=1.7)
        probs = log.probs(params)
        for row, inst in enumerate(instances):
            assert probs[row, : inst.k].tobytes() == policy_probs(params, inst).tobytes()


class TestFrozen:
    def test_fields_cannot_be_reassigned(self):
        instances, truth, logger = task(Mode.STOCHASTIC)
        log = roll_log(instances, truth, logger, rng=0)
        for name in ("mode", "ids", "features", "k", "chosen", "rewards", "propensities"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(log, name, None)

    def test_columns_are_read_only(self, rng):
        log = Log(
            [LoggedTuple(Instance("a", rng.standard_normal((3, 2))), 1, 0.5, 0.25)],
            Mode.STOCHASTIC,
        )
        for column in (log.features, log.k, log.chosen, log.rewards, log.propensities):
            with pytest.raises(ValueError):
                column[0] = 0
        with pytest.raises(ValueError):
            log.tuples[0].instance.candidates[0, 0] = 1.0

    @pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
    def test_tuple_views_equal_checked_tuples(self, rng, mode):
        """The views skip the checks the columns have passed, and hold what the
        checked constructors make of the same columns, bit for bit and type for type."""
        instances, truth, logger = ragged_task(rng, 12, 3, mode)
        log = roll_log(instances, truth, logger, rng=6)
        props = [None] * len(log) if log.propensities is None else log.propensities.tolist()
        checked = [
            LoggedTuple(Instance(ident, log.features[row, :count]), chosen, reward, prop)
            for row, (ident, count, chosen, reward, prop) in enumerate(
                zip(log.ids.tolist(), log.k.tolist(), log.chosen.tolist(), log.rewards.tolist(), props))
        ]
        for got, want in zip(log.tuples, checked, strict=True):
            assert type(got) is LoggedTuple and type(got.instance) is Instance
            assert got.instance.id == want.instance.id
            a, b = got.instance.candidates, want.instance.candidates
            assert (a.dtype, a.shape, a.strides, a.flags.writeable) == (b.dtype, b.shape, b.strides, b.flags.writeable)
            assert a.tobytes() == b.tobytes()
            for name in ("chosen", "reward", "propensity"):
                assert type(getattr(got, name)) is type(getattr(want, name))
                assert getattr(got, name) == getattr(want, name)

    def test_tuple_views_are_built_on_access(self):
        instances, truth, logger = task(Mode.DETERMINISTIC)
        log = roll_log(instances, truth, logger, rng=0)
        assert log.tuples is not log.tuples
        assert np.shares_memory(log.tuples[3].instance.candidates, log.features)
