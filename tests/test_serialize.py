"""Round-trip identity and write determinism of all file formats."""

import json
import re
import tracemalloc

import numpy as np
import pytest
import yaml

from cflearn import (
    ConfigurationError,
    Instance,
    Log,
    LogConsistencyError,
    LoggedTuple,
    Mode,
    PolicyParams,
    RewardModel,
    TaskSpec,
    TrainTrace,
    generate_task,
)
from cflearn.cli import ProbeRow, ReportRow
from cflearn.gradients import GradCheckResult
from cflearn import serialize
from cflearn.serialize import (
    read_log,
    read_params,
    read_reward_model,
    read_trace,
    read_truth,
    write_log,
    write_params,
    write_reward_model,
    write_trace,
    write_csv,
    write_truth,
)
from cflearn.simulator import GroundTruth, LoggingPolicy
from cflearn.training import EpochRecord

from conftest import assert_columns_equal, random_log


def assert_logs_identical(a, b):
    assert a.mode is b.mode
    assert len(a) == len(b)
    for x, y in zip(a.tuples, b.tuples):
        assert x.instance.id == y.instance.id
        np.testing.assert_array_equal(x.instance.candidates, y.instance.candidates)
        assert x.chosen == y.chosen
        assert x.reward == y.reward
        assert x.propensity == y.propensity


class TestLogRoundTrip:
    @pytest.mark.parametrize("mode", [Mode.DETERMINISTIC, Mode.STOCHASTIC])
    def test_bit_for_bit(self, tmp_path, rng, mode):
        log = random_log(rng, 12, 4, 3, mode)
        path = tmp_path / "log.jsonl"
        write_log(path, log)
        assert_logs_identical(log, read_log(path))

    def test_write_deterministic(self, tmp_path, rng):
        log = random_log(rng, 6, 3, 2, Mode.STOCHASTIC)
        write_log(tmp_path / "a.jsonl", log)
        write_log(tmp_path / "b.jsonl", log)
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()

    def test_reading_holds_the_feature_tensor_once(self, tmp_path, rng):
        path = tmp_path / "log.jsonl"
        write_log(path, random_log(rng, 200, 10, 20, Mode.STOCHASTIC))
        tracemalloc.start()
        try:
            log = read_log(path)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - held < log.features.nbytes / 2

    def test_record_longer_than_the_buffer(self, tmp_path, rng):
        log = random_log(rng, 3, 200, 50, Mode.STOCHASTIC)
        path = tmp_path / "log.jsonl"
        write_log(path, log)
        assert min(map(len, path.read_bytes().splitlines()[1:])) > serialize._BUFFER
        assert_columns_equal(read_log(path), log)

    def test_last_line_without_newline(self, tmp_path, rng):
        log = random_log(rng, 4, 3, 2, Mode.DETERMINISTIC)
        path = tmp_path / "log.jsonl"
        write_log(path, log)
        path.write_bytes(path.read_bytes().rstrip(b"\n"))
        assert_columns_equal(read_log(path), log)

    def test_widest_record_not_first(self, tmp_path, rng):
        tuples = [LoggedTuple(Instance(f"w{t}", rng.standard_normal((k, 3))), 1, 0.5, 0.25)
                  for t, k in enumerate([2, 4, 3, 6, 2])]
        log = Log(tuples, Mode.STOCHASTIC)
        path = tmp_path / "log.jsonl"
        write_log(path, log)
        back = read_log(path)
        assert back.features.shape == (5, 6, 3)
        assert_columns_equal(back, log)

    def test_deterministic_records_have_no_propensity_key(self, tmp_path, rng):
        log = random_log(rng, 3, 3, 2, Mode.DETERMINISTIC)
        path = tmp_path / "log.jsonl"
        write_log(path, log)
        body = path.read_text().splitlines()[1:]
        assert all("propensity" not in line for line in body)


class TestMalformedLog:
    def written(self, tmp_path, rng, mode=Mode.STOCHASTIC):
        path = tmp_path / "log.jsonl"
        write_log(path, random_log(rng, 3, 3, 2, mode))
        return path, path.read_text().splitlines()

    def rewrite(self, path, lines, number, line):
        lines[number - 1] = line
        path.write_text("\n".join(lines) + "\n")

    def test_record_without_features_names_file_and_line(self, tmp_path, rng):
        path, lines = self.written(tmp_path, rng)
        record = json.loads(lines[2])
        del record["features"]
        self.rewrite(path, lines, 3, json.dumps(record))
        with pytest.raises(LogConsistencyError, match=rf"{re.escape(str(path))}:3: .*features"):
            read_log(path)

    def test_header_without_mode(self, tmp_path, rng):
        path, lines = self.written(tmp_path, rng)
        self.rewrite(path, lines, 1, json.dumps({"kind": "stochastic"}))
        with pytest.raises(LogConsistencyError, match=rf"{re.escape(str(path))}:1: .*mode"):
            read_log(path)

    @pytest.mark.parametrize(
        "line",
        [
            "{not json",
            "[1, 2]",
            '{"id": "x", "features": [[1.0], [2.0, 3.0]], "chosen": 0, "reward": 0.5, "propensity": 0.5}',
            '{"id": "x", "features": [[1.0], [2.0]], "chosen": 1.5, "reward": 0.5, "propensity": 0.5}',
            '{"id": "x", "features": [[1.0, 2.0], [3.0, 4.0]], "chosen": 9223372036854775808, "reward": 0.5, '
            '"propensity": 0.5}',
            '{"id": "x", "features": [[1.0], [2.0]], "chosen": 0, "reward": 0.5}',
            '{"id": "x", "features": [[1.0], [2.0]], "chosen": 0, "reward": 2.0, "propensity": 0.5}',
            '{"id": 7, "features": [[1.0], [2.0]], "chosen": 0, "reward": 0.5, "propensity": 0.5}',
            '{"id": "x", "features": [[1.0], [2.0]], "chosen": 0, "reward": "0.47", "propensity": 0.5}',
            '{"id": "x", "features": [[1.0], [2.0]], "chosen": 0, "reward": true, "propensity": 0.5}',
            '{"id": "x", "features": [[1.0], [2.0]], "chosen": 0, "reward": 0.5, "propensity": true}',
            '{"id": "x", "features": [["0.5", true], [2.0, 3.0]], "chosen": 0, "reward": 0.5, "propensity": 0.5}',
            '{"id": "x", "features": [["1.0"], ["2.0"]], "chosen": 0, "reward": 0.5, "propensity": 0.5}',
            '{"id": "x", "features": [[true], [false]], "chosen": 0, "reward": 0.5, "propensity": 0.5}',
            '{"id": "x", "features": [[1.0], [null]], "chosen": 0, "reward": 0.5, "propensity": 0.5}',
            # a bool among numbers, found by the byte scan of the features ...
            '{"id": "x", "features": [[0.5, true], [1.0, 2.0]], "chosen": 0, "reward": 0.5, "propensity": 0.5}',
            '{"id": "x", "chosen": 0, "reward": 0.5, "propensity": 0.5, "features": [[0.5, 1.0], [false, 2.0]]}',
            # ... or value by value, where the scan cannot trust the first "features": it finds
            r'{"id": "x", "feat\u0075res": [[0.5, true], [1.0, 2.0]], "chosen": 0, "reward": 0.5, "propensity": 0.5}',
            r'{"id": "x", "feat\u0075res": [[0.5, true], [1.0, 2.0]], "note": {"features": []}, "chosen": 0, '
            '"reward": 0.5, "propensity": 0.5}',
            '{"id": "x", "features": [[0.5, 1.0], [1.0, 2.0]], "chosen": 0, "reward": 0.5, "propensity": 0.5, '
            '"features": [[0.5, true], [1.0, 2.0]]}',
            '{"id": "x", "features": [[0.5, 1.0], [1.0, 2.0]], "chosen": 0, "reward": 0.5, "propensity": 0.5, '
            r'"feat\u0075res": [[0.5, true], [1.0, 2.0]]}',
        ],
    )
    def test_bad_record_names_its_line(self, tmp_path, rng, line):
        path, lines = self.written(tmp_path, rng)
        self.rewrite(path, lines, 2, line)
        with pytest.raises(LogConsistencyError, match=rf"{re.escape(str(path))}:2: "):
            read_log(path)

    @pytest.mark.parametrize(
        "line",
        [
            '{"features": [[1e-05, 2.5E+3], [-0.0, 3]], "id": "true false", "chosen": 1, "reward": 0.5, '
            '"propensity": 0.5}',
            r'{"id": "t\u00e9", "features": [[1e-05, 2500.0], [-0.0, 3.0]], "chosen": 1, "reward": 0.5, '
            '"propensity": 0.5, "note": "true"}',
        ],
    )
    def test_letters_outside_the_features_are_no_bools(self, tmp_path, rng, line):
        path, lines = self.written(tmp_path, rng)
        self.rewrite(path, lines, 2, line)
        log = read_log(path)
        assert log.features[0, :2].tolist() == [[1e-05, 2500.0], [-0.0, 3.0]]

    @pytest.mark.parametrize("line, name", [("[1, 2]", "list"), ('"id features chosen reward"', "str"),
                                            ("7", "int"), ("null", "NoneType")])
    def test_a_record_that_is_no_object_is_named_so(self, tmp_path, rng, line, name):
        path, lines = self.written(tmp_path, rng)
        self.rewrite(path, lines, 2, line)
        with pytest.raises(LogConsistencyError, match=rf":2: bad log record: expected a JSON object, got {name}$"):
            read_log(path)

    @pytest.mark.parametrize("features, chosen, message", [
        ("[[1.0], [2.0]]", "true", "chosen must be an integer, got True"),
        ("[[true], [false]]", "0", "features must be numbers, got an array of bool"),
        ("[[0.5, true], [1.0, 2.0]]", "0", "features must be numbers, got a bool among them"),
        ("[1.0, 2.0]", "0", r"instance 'x': candidates must be a \(k, d\) matrix, got shape \(2,\)"),
    ])
    def test_a_bad_value_is_named_so(self, tmp_path, rng, features, chosen, message):
        path, lines = self.written(tmp_path, rng)
        line = f'{{"id": "x", "features": {features}, "chosen": {chosen}, "reward": 0.5, "propensity": 0.5}}'
        self.rewrite(path, lines, 2, line)
        with pytest.raises(LogConsistencyError, match=rf":2: bad log record: {message}$"):
            read_log(path)

    @pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
    def test_written_records_are_scanned_not_walked(self, tmp_path, rng, mode):
        """``_has_bool`` decides every record ``write_log`` writes from its
        bytes alone, without walking the parsed feature values."""
        path, lines = self.written(tmp_path, rng, mode)
        for line in lines[1:]:
            record = json.loads(line)
            record["features"] = None  # walking it would raise TypeError
            assert serialize._has_bool(line.encode(), record) is False

    def test_first_of_two_bad_values_is_named(self, tmp_path, rng):
        """A reward out of range on line 3 is named before a chosen index out
        of range on line 4, although the chosen-index rule is told first."""
        path, lines = self.written(tmp_path, rng)
        for number, key, value in ((3, "reward", 2.0), (4, "chosen", 9)):
            record = json.loads(lines[number - 1])
            record[key] = value
            self.rewrite(path, lines, number, json.dumps(record))
        with pytest.raises(LogConsistencyError, match=r":3: bad log record: reward 2.0 outside \[0, 1\]$"):
            read_log(path)

    @pytest.mark.parametrize("value_line, parse_line", [(2, 4), (4, 3)])
    def test_first_bad_line_is_named(self, tmp_path, rng, value_line, parse_line):
        """A bad value is found once the columns are full, and still named
        before a bad record on a later line."""
        path, lines = self.written(tmp_path, rng)
        record = json.loads(lines[value_line - 1])
        record["reward"] = 2.0
        lines[value_line - 1] = json.dumps(record)
        self.rewrite(path, lines, parse_line, "{not json")
        with pytest.raises(LogConsistencyError, match=rf":{min(value_line, parse_line)}: bad log record"):
            read_log(path)

    def test_record_with_another_feature_dimension(self, tmp_path, rng):
        path, lines = self.written(tmp_path, rng)
        record = json.loads(lines[3])
        record["features"] = [[0.5, 0.5, 0.5]] * 3
        self.rewrite(path, lines, 4, json.dumps(record))
        with pytest.raises(LogConsistencyError, match=":4: .*feature dimension 3 differs"):
            read_log(path)

    def test_propensity_in_deterministic_log(self, tmp_path, rng):
        path, lines = self.written(tmp_path, rng, Mode.DETERMINISTIC)
        record = json.loads(lines[3])
        record["propensity"] = 0.5
        self.rewrite(path, lines, 4, json.dumps(record))
        with pytest.raises(LogConsistencyError, match=":4: .*propensity"):
            read_log(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(LogConsistencyError, match="empty log file"):
            read_log(path)


class TestParamsAndModel:
    def test_params_round_trip(self, tmp_path, rng):
        params = PolicyParams(rng.standard_normal(7), alpha=1.25)
        path = tmp_path / "params.json"
        write_params(path, params, extra={"kind": "dpm-r"})
        loaded, meta = read_params(path)
        np.testing.assert_array_equal(params.weights, loaded.weights)
        assert loaded.alpha == params.alpha
        assert meta["kind"] == "dpm-r"

    def test_reward_model_round_trip(self, tmp_path, rng):
        model = RewardModel(rng.standard_normal(4), intercept=0.37, ridge_lambda=1e-3)
        path = tmp_path / "model.json"
        write_reward_model(path, model)
        loaded = read_reward_model(path)
        np.testing.assert_array_equal(model.weights, loaded.weights)
        assert loaded.intercept == model.intercept
        assert loaded.ridge_lambda == model.ridge_lambda


class TestConfig:
    """PyYAML follows YAML 1.1, which reads ``1e-3`` and ``1.5e3`` as strings;
    the config reader reads them as numbers, as YAML 1.2 does."""

    CONFIG = "task: {num_instances: 4, k: 2, d: 1, seed: 0}\ntrain: {kind: dc, %s}\n"

    def test_exponent_numbers_are_read_as_floats(self, tmp_path):
        path = tmp_path / "config.yaml"
        path.write_text(self.CONFIG % "ridge_lambda: 1e-3, learning_rate: 1e+1, init_sigma: 1.5e3, alpha: 2E0")
        train = serialize.read_config(path).train
        assert (train.ridge_lambda, train.learning_rate, train.init_sigma, train.alpha) == (1e-3, 10.0, 1500.0, 2.0)
        assert yaml.safe_load("x: 1e-3") == {"x": "1e-3"}  # the global loader reads as it did

    @pytest.mark.parametrize("value, message", [("1e", "ridge_lambda must be a finite number, got '1e'"),
                                                ("1e400", "ridge_lambda must be a finite number, got inf")],
                             ids=["no-exponent-digits", "beyond-the-float-range"])
    def test_a_bad_exponent_number_is_refused(self, tmp_path, value, message):
        path = tmp_path / "config.yaml"
        path.write_text(self.CONFIG % f"ridge_lambda: {value}")
        with pytest.raises(ConfigurationError, match=f"^{re.escape(f'{path}: bad value for train: {message}')}$"):
            serialize.read_config(path)


class TestTruth:
    def test_round_trip(self, tmp_path):
        spec = TaskSpec(num_instances=8, k=3, d=4, seed=5, logging_mode=Mode.STOCHASTIC)
        _, truth, policy = generate_task(spec)
        path = tmp_path / "truth.json"
        write_truth(path, truth, policy)
        loaded_truth, loaded_policy = read_truth(path)
        np.testing.assert_array_equal(truth.reward_weights, loaded_truth.reward_weights)
        for key in truth.rewards:
            np.testing.assert_array_equal(truth.rewards[key], loaded_truth.rewards[key])
        np.testing.assert_array_equal(policy.params.weights, loaded_policy.params.weights)
        assert loaded_policy.mode is policy.mode


class TestTrace:
    def test_round_trip_with_and_without_truth(self, tmp_path):
        trace = TrainTrace(
            records=[
                EpochRecord(1, 0.5, 0.4, 0.61, 0.2, 1.5e-3),
                EpochRecord(2, 0.55, 0.39, None, 0.25, 9.9e-4),
            ]
        )
        path = tmp_path / "trace.csv"
        write_trace(path, trace)
        loaded = read_trace(path)
        assert loaded.records == trace.records

    def test_shortest_round_trip_decimals(self, tmp_path):
        value = 0.1 + 0.2  # 0.30000000000000004
        trace = TrainTrace(records=[EpochRecord(1, value, value, None, value, value)])
        path = tmp_path / "trace.csv"
        write_trace(path, trace)
        assert read_trace(path).records[0].train_value == value

    def test_unexpected_columns_rejected(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace(path, TrainTrace(records=[EpochRecord(1, 0.5, 0.4, None, 0.2, 1.5e-3)]))
        path.write_text(path.read_text().replace("grad_norm", "gradient_norm"))
        with pytest.raises(ValueError, match="unexpected trace columns"):
            read_trace(path)


class TestFormatBytes:
    """The exact bytes of every file format, from small hand-made records;
    integers in float fields (alpha, ridge_lambda, rewards) are written as
    floats."""

    def test_params_with_extra_keys(self, tmp_path):
        path = tmp_path / "params.json"
        write_params(path, PolicyParams(np.array([0.5, -0.25, 1e-7]), alpha=1),
                     {"kind": "dpm-r", "best_epoch": 3, "stopped_early": False, "halted": None})
        assert path.read_bytes() == (
            b'{\n  "weights": [\n    0.5,\n    -0.25,\n    1e-7\n  ],\n  "alpha": 1.0,\n  "kind": "dpm-r",\n'
            b'  "best_epoch": 3,\n  "stopped_early": false,\n  "halted": null\n}\n'
        )

    def test_reward_model(self, tmp_path):
        path = tmp_path / "reward_model.json"
        write_reward_model(path, RewardModel(np.array([0.125, -2.0]), 0.3, 0))
        assert path.read_bytes() == (
            b'{\n  "weights": [\n    0.125,\n    -2.0\n  ],\n  "intercept": 0.3,\n  "ridge_lambda": 0.0\n}\n'
        )

    def test_truth_with_its_logging_policy(self, tmp_path):
        path = tmp_path / "truth.json"
        truth = GroundTruth(np.array([0.1, -0.2]), {"a": np.array([0.5, 0.25]), "b": [1, 0, 0.75]})
        write_truth(path, truth, LoggingPolicy(PolicyParams(np.array([0.3, -0.1]), alpha=2), Mode.STOCHASTIC))
        assert path.read_bytes() == (
            b'{\n  "reward_weights": [\n    0.1,\n    -0.2\n  ],\n  "rewards": {\n    "a": [\n      0.5,\n'
            b'      0.25\n    ],\n    "b": [\n      1.0,\n      0.0,\n      0.75\n    ]\n  },\n'
            b'  "logging_policy": {\n    "weights": [\n      0.3,\n      -0.1\n    ],\n    "alpha": 2.0,\n'
            b'    "mode": "stochastic"\n  }\n}\n'
        )

    def test_log(self, tmp_path):
        path = tmp_path / "log.jsonl"
        write_log(path, Log((
            LoggedTuple(Instance("x0", np.array([[0.5, -1.0], [0.0, 2.5e-5]])), 1, 0.25, 0.5),
            LoggedTuple(Instance("x1", np.array([[1.0, 0.0], [0.0, 1.0], [3.0, -3.0]])), 2, 1.0, 0.125),
        ), Mode.STOCHASTIC))
        assert path.read_bytes() == (
            b'{"mode":"stochastic"}\n'
            b'{"id":"x0","features":[[0.5,-1.0],[0.0,0.000025]],"chosen":1,"reward":0.25,"propensity":0.5}\n'
            b'{"id":"x1","features":[[1.0,0.0],[0.0,1.0],[3.0,-3.0]],"chosen":2,"reward":1.0,"propensity":0.125}\n'
        )

    def test_trace(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace(path, TrainTrace([EpochRecord(1, 0.5, 0.25, 0.1 + 0.2, 1.0, 2e-05),
                                      EpochRecord(2, 0.625, 0.375, None, 0.75, 0.0)]))
        assert path.read_bytes() == (
            b"epoch,train_value,validation_value,true_reward,mass_on_dmax,grad_norm\r\n"
            b"1,0.5,0.25,0.30000000000000004,1.0,2e-05\r\n2,0.625,0.375,,0.75,0.0\r\n"
        )

    def test_report_rows(self, tmp_path):
        path = tmp_path / "report.csv"
        write_csv(path, ReportRow, [ReportRow("test", "dpm-r", 0.5, 7.25, 0.125, 0.625, 0.5, 0.125),
                                    ReportRow("validation", "dpm-r", 0.5, 3.0, 0.0, None, None, None)])
        assert path.read_bytes() == (
            b"split,estimator,value,effective_sample_size,mass_on_dmax,true_reward,logger_true_reward,"
            b"improvement\r\ntest,dpm-r,0.5,7.25,0.125,0.625,0.5,0.125\r\nvalidation,dpm-r,0.5,3.0,0.0,,,\r\n"
        )

    def test_grad_check_table(self, tmp_path):
        path = tmp_path / "grad_check.csv"
        write_csv(path, GradCheckResult, [GradCheckResult("ips-dpm", 10, np.float64(2.121827713530422e-11), 0, 1, 0),
                                          GradCheckResult("doubly-controlled", 4, 0.5, 3, 0, 2)])
        assert path.read_bytes() == (
            b"family,problems,max_rel_error,failures,singular,constant_cases\r\n"
            b"ips-dpm,10,2.121827713530422e-11,0,1,0\r\ndoubly-controlled,4,0.5,3,0,2\r\n"
        )

    def test_probe_rows(self, tmp_path):
        path = tmp_path / "probes.csv"
        write_csv(path, ProbeRow, [ProbeRow("stochastic-000", "theorem1", "passed", 0.75, 0.5, ""),
                                   ProbeRow("deterministic-001", "theorem2", "skipped", None, None, "no max-reward tuple")])
        assert path.read_bytes() == (
            b"log,theorem,status,reference_value,worst_challenger,note\r\nstochastic-000,theorem1,passed,0.75,0.5,"
            b"\r\ndeterministic-001,theorem2,skipped,,,no max-reward tuple\r\n"
        )
