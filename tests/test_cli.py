"""End-to-end CLI behavior: commands, guards, exit codes, reproducibility."""

import contextlib
import csv
import io
import json
import os
import re
import shutil
import subprocess
import sys
import warnings
from functools import partial
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import cflearn
import oracles
from cflearn import Instance, Log, LoggedTuple, Mode, PolicyParams, serialize
from cflearn.cli import main
from cflearn.serialize import read_config, read_log, read_params, read_truth, write_reward_model
from cflearn.simulator import GroundTruth, generate_task, roll_log, split

from conftest import random_log


def write_config(path: Path, **overrides) -> Path:
    config = {
        "task": {
            "num_instances": 40,
            "k": 4,
            "d": 5,
            "seed": 7,
            "reward_noise": 0.0,
            "logger_quality": 0.6,
            "logging_mode": "deterministic",
        },
        "train": {
            "kind": "dpm-r",
            "learning_rate": 0.2,
            "epochs": 15,
            "batch_size": "full",
            "seed": 1,
            "early_stop_patience": 0,
        },
        "splits": [0.5, 0.25, 0.25],
        "split_seed": 2,
        "output_dir": str(path.parent / "out"),
    }
    for key, value in overrides.items():
        section, _, name = key.partition(".")
        if name:
            config[section][name] = value
        else:
            config[section] = value
    path.write_text(yaml.safe_dump(config))
    return path


def _bad_log(source: Path, target: Path, line: int) -> Path:
    """A copy of ``source`` whose record on ``line`` (1-based) lacks its features."""
    lines = source.read_text().splitlines()
    record = json.loads(lines[line - 1])
    del record["features"]
    lines[line - 1] = json.dumps(record)
    target.write_text("\n".join(lines) + "\n")
    return target


@pytest.fixture
def workspace(tmp_path):
    config = write_config(tmp_path / "config.yaml")
    out = tmp_path / "out"
    assert main(["generate-log", "--config", str(config)]) == 0
    return config, out


class TestGenerateLog:
    def test_writes_splits_and_truth(self, workspace):
        _, out = workspace
        assert [len(read_log(out / f"{name}.jsonl")) for name in ("train", "validation", "test")] == [20, 10, 10]
        assert (out / "truth.json").exists()

    def test_deterministic_mode_has_no_propensities(self, workspace):
        _, out = workspace
        records = (out / "train.jsonl").read_text().splitlines()[1:]
        assert all("propensity" not in json.loads(line) for line in records)

    def test_rerun_byte_identical(self, workspace, tmp_path):
        config, out = workspace
        again = tmp_path / "again"
        assert main(["generate-log", "--config", str(config), "--out", str(again)]) == 0
        for name in ("train.jsonl", "validation.jsonl", "test.jsonl", "truth.json"):
            assert (out / name).read_bytes() == (again / name).read_bytes()

    def test_generate_log_files_equal_serial_writes(self, workspace, tmp_path):
        config_path, out = workspace
        config = read_config(config_path)
        instances, truth, logger = generate_task(config.task)
        log = roll_log(instances, truth, logger, rng=config.task.seed)
        serial = tmp_path / "serial"
        serial.mkdir()
        for name, part in zip(("train", "validation", "test"), split(log, config.splits, config.split_seed)):
            serialize.write_log(serial / f"{name}.jsonl", part)
        serialize.write_truth(serial / "truth.json", truth, logger)
        for name in ("train.jsonl", "validation.jsonl", "test.jsonl", "truth.json"):
            assert (out / name).read_bytes() == (serial / name).read_bytes()


class TestTrain:
    def test_trains_and_writes_outputs(self, workspace, tmp_path):
        config, out = workspace
        run = tmp_path / "run"
        code = main(
            ["train", "--config", str(config), "--log", str(out / "train.jsonl"), "--out", str(run)]
        )
        assert code == 0
        params, meta = read_params(run / "params.json")
        assert meta["kind"] == "dpm-r"
        assert (run / "trace.csv").exists()
        assert np.all(np.isfinite(params.weights))

    def test_estimator_mode_guard_named_in_error(self, workspace, tmp_path, capsys):
        config, out = workspace
        code = main(
            [
                "train",
                "--config",
                str(config),
                "--log",
                str(out / "train.jsonl"),
                "--estimator",
                "ips",
                "--out",
                str(tmp_path / "bad"),
            ]
        )
        assert code == 1
        assert "propensities" in capsys.readouterr().err

    def test_zero_epochs_returns_initialization(self, tmp_path):
        config = write_config(tmp_path / "config.yaml", **{"train.epochs": 0})
        out = tmp_path / "out"
        assert main(["generate-log", "--config", str(config)]) == 0
        run = tmp_path / "run"
        assert main(
            ["train", "--config", str(config), "--log", str(out / "train.jsonl"), "--out", str(run)]
        ) == 0
        params, _ = read_params(run / "params.json")
        np.testing.assert_array_equal(params.weights, np.zeros(5))

    def test_truth_option_fills_trace_column(self, workspace, tmp_path, monkeypatch):
        config, out = workspace
        run = tmp_path / "run-truth"
        gathers = []
        gather = GroundTruth.reward_matrix
        monkeypatch.setattr(GroundTruth, "reward_matrix", lambda *args: gathers.append(1) or gather(*args))
        code = main(
            [
                "train",
                "--config",
                str(config),
                "--log",
                str(out / "train.jsonl"),
                "--truth",
                str(out / "truth.json"),
                "--out",
                str(run),
            ]
        )
        assert code == 0
        from cflearn.serialize import read_trace

        trace = read_trace(run / "trace.csv")
        assert all(r.true_reward is not None for r in trace.records)
        # the coverage check's gather is the one the trace reads
        assert len(gathers) == 1

    def test_model_kind_writes_reward_model(self, workspace, tmp_path):
        config, out = workspace
        run = tmp_path / "run-dc"
        code = main(
            [
                "train",
                "--config",
                str(config),
                "--log",
                str(out / "train.jsonl"),
                "--estimator",
                "cdc",
                "--out",
                str(run),
            ]
        )
        assert code == 0
        assert (run / "reward_model.json").exists()

    def test_reward_model_fitted_once(self, workspace, tmp_path, monkeypatch):
        from cflearn import training
        from cflearn.reward import fit_reward_model

        config, out = workspace
        fits = []

        def counted(*args, **kwargs):
            fits.append(args)
            return fit_reward_model(*args, **kwargs)

        monkeypatch.setattr(training, "fit_reward_model", counted)
        run = tmp_path / "run-cdc"
        code = main(
            ["train", "--config", str(config), "--log", str(out / "train.jsonl"),
             "--estimator", "cdc", "--out", str(run)]
        )
        assert code == 0
        assert len(fits) == 1
        expected = tmp_path / "expected.json"
        write_reward_model(expected, fit_reward_model(read_log(out / "train.jsonl"), 1e-3))
        assert (run / "reward_model.json").read_bytes() == expected.read_bytes()

    def test_rerun_byte_identical(self, workspace, tmp_path):
        config, out = workspace
        runs = []
        for name in ("r1", "r2"):
            run = tmp_path / name
            assert main(
                ["train", "--config", str(config), "--log", str(out / "train.jsonl"), "--out", str(run)]
            ) == 0
            runs.append(run)
        for artifact in ("params.json", "trace.csv"):
            assert (runs[0] / artifact).read_bytes() == (runs[1] / artifact).read_bytes()

    def test_outputs_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # n=1000, k=20, d=50 is the smallest train log at which a gradient made of threaded
        # matrix-vector products was seen to write different files at 1 and 2 threads
        overrides = {"task.num_instances": 1250, "task.k": 20, "task.d": 50, "task.logging_mode": "stochastic",
                     "train.kind": "cdr", "train.epochs": 5, "train.learning_rate": 0.5}
        config = write_config(tmp_path / "config.yaml", splits=[0.8, 0.2, 0.0], **overrides)
        assert main(["generate-log", "--config", str(config)]) == 0
        train_log = tmp_path / "out" / "train.jsonl"
        src = str(Path(cflearn.__file__).parents[1])
        runs = [
            subprocess.Popen(
                [sys.executable, "-m", "cflearn.cli", "train", "--config", str(config),
                 "--log", str(train_log), "--out", str(tmp_path / threads)],
                env={**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src},
            )
            for threads in ("1", "2")
        ]
        assert [run.wait(timeout=120) for run in runs] == [0, 0]
        for artifact in ("params.json", "trace.csv"):
            assert (tmp_path / "1" / artifact).read_bytes() == (tmp_path / "2" / artifact).read_bytes()


@pytest.mark.parametrize("command, section", [("generate-log", "task"), ("train", "train")])
def test_seed_option_writes_the_bytes_of_a_config_with_that_seed(tmp_path, command, section):
    """``--seed`` overrides the task seed of generate-log and the training seed of train."""
    minibatches = {"train.batch_size": 5}  # so the training seed shuffles something
    config = write_config(tmp_path / "config.yaml", **minibatches)
    seeded = write_config(tmp_path / "seeded.yaml", **minibatches, **{f"{section}.seed": 4})
    assert main(["generate-log", "--config", str(config)]) == 0

    def run(path, name, *seed):
        argv = [command, "--config", str(path), "--out", str(tmp_path / name), *seed]
        if command == "train":
            argv += ["--log", str(tmp_path / "out" / "train.jsonl")]
        assert main(argv) == 0
        return {file.name: file.read_bytes() for file in (tmp_path / name).iterdir()}

    assert run(config, "option", "--seed", "4") == run(seeded, "seeded") != run(config, "own")


class TestEvaluate:
    def test_report_with_truth_and_self_comparison(self, workspace, tmp_path):
        config, out = workspace
        run = tmp_path / "run"
        main(["train", "--config", str(config), "--log", str(out / "train.jsonl"), "--out", str(run)])

        # evaluating the logger's own weights: improvement must be exactly 0
        truth_payload = json.loads((out / "truth.json").read_text())
        logger_params = {
            "weights": truth_payload["logging_policy"]["weights"],
            "alpha": truth_payload["logging_policy"]["alpha"],
            "kind": "dpm-r",
        }
        (tmp_path / "logger_params.json").write_text(json.dumps(logger_params))
        report_dir = tmp_path / "report"
        code = main(
            [
                "evaluate",
                "--params",
                str(tmp_path / "logger_params.json"),
                "--log",
                str(out / "test.jsonl"),
                "--truth",
                str(out / "truth.json"),
                "--out",
                str(report_dir),
            ]
        )
        assert code == 0
        rows = (report_dir / "report.csv").read_text().splitlines()
        header = rows[0].split(",")
        values = rows[1].split(",")
        improvement = float(values[header.index("improvement")])
        assert abs(improvement) <= 1e-12

    def test_two_softmax_passes_per_log_with_truth(self, workspace, tmp_path, monkeypatch):
        from cflearn import domain

        config, out = workspace
        run = tmp_path / "run"
        assert main(["train", "--config", str(config), "--log", str(out / "train.jsonl"), "--out", str(run)]) == 0
        calls = []
        softmax = domain._softmax
        monkeypatch.setattr(domain, "_softmax", lambda scores: calls.append(1) or softmax(scores))
        assert main(["evaluate", "--params", str(run / "params.json"), "--log", str(out / "validation.jsonl"),
                     "--log", str(out / "test.jsonl"), "--truth", str(out / "truth.json"),
                     "--out", str(tmp_path / "report")]) == 0
        # per log: the estimate's pass, whose probabilities give the policy's
        # true reward, and the logger's pass
        assert len(calls) == 2 * 2

    def test_missing_files_fail(self, tmp_path):
        assert main(["evaluate", "--params", str(tmp_path / "missing.json")]) == 1

    def test_malformed_log_exits_one_naming_the_file(self, workspace, tmp_path, capsys):
        config, out = workspace
        run = tmp_path / "run"
        main(["train", "--config", str(config), "--log", str(out / "train.jsonl"), "--out", str(run)])
        bad = _bad_log(out / "test.jsonl", tmp_path / "bad.jsonl", 2)
        capsys.readouterr()
        code = main(["evaluate", "--params", str(run / "params.json"), "--log", str(bad),
                     "--out", str(tmp_path / "report")])
        assert code == 1
        assert f"{bad}:2:" in capsys.readouterr().err

    def test_two_malformed_logs_name_the_first_in_argument_order(self, workspace, tmp_path, capsys):
        config, out = workspace
        run = tmp_path / "run"
        assert main(["train", "--config", str(config), "--log", str(out / "train.jsonl"), "--out", str(run)]) == 0
        late = _bad_log(out / "test.jsonl", tmp_path / "late.jsonl", 5)
        early = _bad_log(out / "test.jsonl", tmp_path / "early.jsonl", 2)
        for first, second, line in ((late, early, 5), (early, late, 2)):
            capsys.readouterr()
            code = main(["evaluate", "--params", str(run / "params.json"), "--log", str(first),
                         "--log", str(second), "--out", str(tmp_path / "report")])
            err = capsys.readouterr().err
            assert code == 1
            assert f"{first}:{line}:" in err and str(second) not in err

    def test_report_true_reward_matches_per_instance_oracle(self, workspace, tmp_path):
        config, out = workspace
        run = tmp_path / "run"
        assert main(["train", "--config", str(config), "--log", str(out / "train.jsonl"), "--out", str(run)]) == 0
        assert main(["evaluate", "--params", str(run / "params.json"), "--log", str(out / "validation.jsonl"),
                     "--log", str(out / "test.jsonl"), "--truth", str(out / "truth.json"),
                     "--out", str(tmp_path / "report")]) == 0
        params, _ = read_params(run / "params.json")
        truth, logger = read_truth(out / "truth.json")
        rows = (tmp_path / "report" / "report.csv").read_text().splitlines()
        header = rows[0].split(",")
        for row, name in zip(rows[1:], ("validation", "test")):
            values = dict(zip(header, row.split(",")))
            instances = [t.instance for t in read_log(out / f"{name}.jsonl").tuples]
            for column, policy in (("true_reward", params), ("logger_true_reward", logger.params)):
                want = oracles.evaluate_truth(policy, instances, truth)
                assert float(values[column]) == pytest.approx(want, rel=1e-12, abs=0.0)


class TestOverflow:
    """Scores past the float range end in a named halt or error, never NaN."""

    @staticmethod
    def scaled_log(source: Path, target: Path, scale: float) -> Path:
        log = read_log(source)
        rows = tuple(
            LoggedTuple(Instance(t.instance.id, scale * t.instance.candidates), t.chosen, t.reward, t.propensity)
            for t in log.tuples
        )
        serialize.write_log(target, Log(rows, log.mode))
        return target

    def test_train_records_the_halt_and_writes_outputs(self, workspace, tmp_path):
        config, out = workspace
        train_log = self.scaled_log(out / "train.jsonl", tmp_path / "train.jsonl", 100.0)
        self.scaled_log(out / "validation.jsonl", tmp_path / "validation.jsonl", 100.0)
        config = write_config(tmp_path / "steep.yaml", **{"train.learning_rate": 1e306})
        run = tmp_path / "run"
        code = main(["train", "--config", str(config), "--log", str(train_log), "--out", str(run)])
        assert code == 0
        params, meta = read_params(run / "params.json")
        assert meta["halted"].startswith("epoch 1: policy scores overflowed")
        np.testing.assert_array_equal(params.weights, np.zeros(5))
        assert (run / "trace.csv").read_text().splitlines()[1:] == []

    def test_evaluate_exits_one(self, workspace, tmp_path, capsys):
        _, out = workspace
        log = self.scaled_log(out / "test.jsonl", tmp_path / "test.jsonl", 1e200)
        (tmp_path / "params.json").write_text(json.dumps({"weights": [1e200] * 5, "alpha": 1.0, "kind": "dpm-r"}))
        code = main(["evaluate", "--params", str(tmp_path / "params.json"), "--log", str(log),
                     "--out", str(tmp_path / "report")])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{log}: " in err and "scores overflowed" in err


    def test_evaluate_plain_kind_on_zero_weights_exits_one(self, tmp_path, capsys):
        feats = np.array([[800.0], [0.0]])
        log = tmp_path / "test.jsonl"
        serialize.write_log(log, Log(tuple(LoggedTuple(Instance(f"z{i}", feats), 1, 0.5)
                                           for i in range(3)), Mode.DETERMINISTIC))
        (tmp_path / "params.json").write_text(json.dumps({"weights": [1.0], "alpha": 1.0, "kind": "dpm"}))
        code = main(["evaluate", "--params", str(tmp_path / "params.json"), "--log", str(log),
                     "--out", str(tmp_path / "report")])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{log}: all importance weights are zero" in err


class TestChecks:
    def test_grad_check_passes(self, tmp_path, capsys):
        out = tmp_path / "gc"
        code = main(["grad-check", "--seed", "0", "--count", "10", "--out", str(out)])
        assert code == 0
        with open(out / "grad_check.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert rows and all(float(row["max_rel_error"]) >= 0.0 for row in rows)
        assert "max rel error" in capsys.readouterr().out

    def test_grad_check_failure_exit_code(self, monkeypatch):
        from cflearn import cli
        from cflearn.gradients import GradCheckResult

        monkeypatch.setattr(
            cli,
            "run_grad_check",
            lambda **kw: [GradCheckResult("ips-dpm", 5, 0.5, 3, 0, 0)],
        )
        assert main(["grad-check", "--count", "5"]) == 2

    def test_degeneracy_probe_passes(self, tmp_path, capsys):
        out = tmp_path / "probes"
        code = main(["degeneracy-probe", "--seed", "0", "--count", "3", "--out", str(out)])
        assert code == 0
        assert (out / "probes.csv").exists()
        assert "0 violated" in capsys.readouterr().out

    def test_degeneracy_probe_reports_each_status(self, tmp_path, monkeypatch, capsys):
        from cflearn import ProbeResult, cli

        results = [
            ("a", ProbeResult("t1", holds=True, reference_value=1.0, worst_challenger=0.5, witness="held")),
            ("b", ProbeResult("t2", holds=False, skipped=True, reason="hypothesis violated: x")),
            ("c", ProbeResult("t1", holds=False, reference_value=1.0, worst_challenger=1.0, witness="broke")),
        ]
        monkeypatch.setattr(cli, "run_probe_suite", lambda seed, count: results)
        assert main(["degeneracy-probe", "--count", "1", "--out", str(tmp_path)]) == 2
        printed = capsys.readouterr()
        assert printed.out == "3 probes on 2 logs: 1 passed, 1 violated, 1 skipped\n  skipped b t2: hypothesis violated: x\n"
        assert printed.err == "  VIOLATED c t1: broke\n"
        rows = (tmp_path / "probes.csv").read_text().splitlines()[1:]
        assert [row.split(",")[2] for row in rows] == ["passed", "skipped", "violated"]
        monkeypatch.setattr(cli, "run_probe_suite", lambda seed, count: results[:2])
        assert main(["degeneracy-probe", "--count", "1"]) == 0  # a skipped probe is no violation


def _edited_config(edit):
    """A bad input case: the tests' config with its bytes edited."""
    def build(tmp_path):
        config = write_config(tmp_path / "config.yaml")
        config.write_bytes(edit(config.read_bytes()))
        return config, ["generate-log", "--config", str(config)]
    return build


def _params_kind(tmp_path):
    """A bad input case: a params.json whose estimator kind is not one."""
    params = tmp_path / "params.json"
    serialize.write_params(params, PolicyParams(np.zeros(5)), {"kind": "nope"})
    return params, ["evaluate", "--params", str(params), "--log", str(tmp_path / "test.jsonl")]


class TestUsageErrors:
    def test_unknown_command_exits_one(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["no-such-command"])
        assert excinfo.value.code == 1

    def test_unknown_config_key_exits_one(self, tmp_path, capsys):
        config = write_config(tmp_path / "config.yaml")
        data = yaml.safe_load(config.read_text())
        data["task"]["typo_key"] = 1
        config.write_text(yaml.safe_dump(data))
        assert main(["generate-log", "--config", str(config)]) == 1
        assert "typo_key" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "override, key",
        [({"train.learning_rate": "fast"}, "learning_rate"), ({"splits": 5}, "splits"),
         ({"task.k": "4"}, "k"), ({"split_seed": [1]}, "split_seed"), ({"task": {"k": 4}}, "num_instances"),
         # the config's lines: 1 output_dir, 2 split_seed, 11 task.logging_mode, 19 train.kind
         pytest.param(_edited_config(lambda b: b.replace(b"dpm-r", b"dpm-\xff")), "config.yaml:19: not valid UTF-8",
                      id="invalid-utf8"),
         pytest.param(_edited_config(lambda b: b.replace(b"split_seed: 2", b"split_seed: 2: 3")),
                      "config.yaml:2: not valid YAML", id="yaml-syntax"),
         pytest.param({"train.kind": "nope"}, "kind", id="kind"),
         pytest.param({"task.logging_mode": "nope"}, "logging_mode", id="logging_mode"),
         pytest.param({"splits": [0.5, 0.5, 0.5]}, "splits", id="splits-sum"),
         pytest.param({"train.learning_rate": -1}, "learning_rate", id="negative-learning_rate"),
         pytest.param({"task.num_instances": 0}, "num_instances", id="zero-num_instances"),
         pytest.param({"split_seed": 1.5}, "split_seed", id="fractional-split_seed"),
         pytest.param({"train": {"kind": "dpm", "bogus": 1}}, "bogus", id="unknown-train-key"),
         pytest.param({"task.seed": -1}, "seed", id="negative-seed"),
         pytest.param({"task.num_instances": 2**64}, "num_instances", id="huge-num_instances"),
         # indexable, but 8 bytes a value overflow numpy's array size: only the file can be named
         pytest.param({"task.num_instances": 2**58}, "", id="unallocatable-num_instances"),
         pytest.param({"output_dir": [1]}, "output_dir", id="list-output_dir"),
         pytest.param({"task": [4]}, "expected a mapping", id="list-task"),
         pytest.param(_edited_config(lambda b: b.replace(b"split_seed: 2", b"split_seed: \x07")),
                      "config.yaml:2: not valid YAML", id="yaml-control-character"),
         pytest.param({"task.logger_alpha": 0}, "logger_alpha", id="zero-logger_alpha"),
         pytest.param({"train.c_refresh": "never"}, "c_refresh", id="c_refresh"),
         pytest.param({"train.init": "ones"}, "init", id="init"),
         pytest.param({"train.ridge_lambda": -1}, "ridge_lambda", id="negative-ridge_lambda"),
         pytest.param({"train.alpha": 0}, "alpha must be positive", id="zero-alpha"),
         pytest.param(_params_kind, "kind", id="params-kind")],
    )
    def test_bad_config_value_exits_one_naming_the_key(self, tmp_path, monkeypatch, capsys, override, key):
        monkeypatch.chdir(tmp_path)  # a relative output_dir lands here
        if callable(override):
            path, argv = override(tmp_path)
        else:
            path = write_config(tmp_path / "config.yaml", **override)
            argv = ["generate-log", "--config", str(path)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"cflearn: error: {path}:")
        assert key in err and err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "out").exists()  # the config's output_dir is made only on success

    @pytest.mark.parametrize("argv, message", [
        (["--estimator", "dc", "--log", "test.jsonl"], "estimator dc needs --model reward_model.json"),
        ([], "pass at least one --log file"),
    ], ids=["model-kind-without-model", "no-log"])
    def test_evaluate_without_a_file_it_needs_exits_one(self, tmp_path, capsys, argv, message):
        params = tmp_path / "params.json"
        serialize.write_params(params, PolicyParams(np.zeros(5)), {"kind": "dpm-r"})
        assert main(["evaluate", "--params", str(params), *argv]) == 1
        assert capsys.readouterr().err == f"cflearn: error: {message}\n"


# values that replace one value of the config: wrong types, non-finite or
# unrepresentable numbers, and zero or negative sizes
BAD_VALUES = [".nan", "1.0e400", "1.0e+400", str(2**64), "-1", "0", "text", "[1]", "{a: 1}", "null", "true", ""]


# the same for a JSON file: non-numbers, numbers in strings, bools, and
# numbers that are not finite, not a double, or zero or negative
BAD_JSON_VALUES = ["NaN", "1e400", str(2**64), "-1", "0", '"text"', '"nan"', '"0.25"', "[1]", '{"a": 1}', "null",
                   "true", ""]


def _yaml_value(line: bytes, value: bytes) -> bytes:
    key, sep, _ = line.partition(b":")
    return (key + b": " if sep else b"- ") + value + b"\n"


def _json_value(line: bytes, value: bytes) -> bytes:
    """An indented JSON line with its value replaced, its key and its comma kept."""
    key, sep, _ = line.partition(b":")
    head = key + b": " if sep else line[: len(line) - len(line.lstrip())]
    return head + value + (b",\n" if line.rstrip().endswith(b",") else b"\n")


@st.composite
def config_mutations(draw, valid: bytes, values=BAD_VALUES, value_line=_yaml_value) -> bytes:
    """``valid`` with one byte-level, line-level or value-level mutation."""
    lines = valid.splitlines(keepends=True)
    at = draw(st.integers(0, len(valid) - 1), label="byte")
    row = draw(st.integers(0, len(lines) - 1), label="line")
    key, sep, _ = lines[row].partition(b":")
    renamed = key[:-1] + b'_"' if key.endswith(b'"') else key + b"_"
    mutations = {
        "truncate": lambda: valid[:at],
        "flip": lambda: valid[:at] + bytes([valid[at] ^ 1 << draw(st.integers(0, 7))]) + valid[at + 1:],
        "insert": lambda: valid[:at] + bytes([draw(st.integers(0, 255))]) + valid[at:],
        "0xff": lambda: valid[:at] + b"\xff" + valid[at + 1:],
        "bom": lambda: b"\xef\xbb\xbf" + valid,
        "drop key": lambda: b"".join(lines[:row] + lines[row + 1:]),
        "rename key": lambda: b"".join(lines[:row] + [renamed + sep + lines[row][len(key) + 1:]] + lines[row + 1:]),
        "value": lambda: b"".join(
            lines[:row] + [value_line(lines[row], draw(st.sampled_from(values)).encode())] + lines[row + 1:]
        ),
    }
    return mutations[draw(st.sampled_from(sorted(mutations)), label="mutation")]()


def _task_sizes(config: bytes) -> list[int]:
    """The config's n, k and d, each 0 unless it parses as an integer numpy can index."""
    try:
        task = yaml.safe_load(config.decode("utf-8"))["task"]
        sizes = [task[key] for key in ("num_instances", "k", "d")]
    except (ValueError, TypeError, KeyError, yaml.YAMLError):
        return [0, 0, 0]
    return [size if type(size) is int and 0 < size < 2**63 else 0 for size in sizes]


@settings(max_examples=120)
@given(st.data())
def test_mutated_config_exits_zero_or_one_naming_the_config(tmp_path_factory, data):
    base = tmp_path_factory.mktemp("config")
    config = write_config(base / "config.yaml", output_dir="unused")  # the same bytes in every example
    valid = config.read_bytes()
    mutated = data.draw(config_mutations(valid), label="mutated")
    # no size grows to a larger valid value, so no example builds more than the tests' task
    assume(all(new <= old for new, old in zip(_task_sizes(mutated), _task_sizes(valid))))
    config.write_bytes(mutated)
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["generate-log", "--config", str(config), "--out", str(base / "out")])
    assert code in (0, 1)
    if code == 1:
        assert err.getvalue().startswith(f"cflearn: error: {config}:") and err.getvalue().count("\n") == 1
    else:
        assert err.getvalue() == ""


@pytest.fixture(scope="module")
def dc_run(tmp_path_factory):
    """The tests' task and a dc run on it: logs, truth.json, params.json, reward_model.json.  Every
    instance of the truth is in one of the logs, so every reward in truth.json is read."""
    base = tmp_path_factory.mktemp("dc")
    config = write_config(base / "config.yaml", **{"train.kind": "dc"})
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["generate-log", "--config", str(config)]) == 0
        assert main(["train", "--config", str(config), "--log", str(base / "out" / "train.jsonl"),
                     "--out", str(base / "run")]) == 0
    return base


def _quiet_main(argv: list[str]) -> tuple[int, str]:
    """``main(argv)`` with a RuntimeWarning raised as an error; its exit code and stderr."""
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("error", RuntimeWarning)
        code = main(argv)
    return code, err.getvalue()


def _assert_contract(code: int, err: str, mutated: Path, first: bool = True) -> None:
    """Exit 0 in silence, or exit 1 with one error line naming ``mutated``, first
    or, where an error concerns two files (a truth that does not cover a log), anywhere."""
    assert code in (0, 1)
    if code == 1:
        named = err.startswith(f"cflearn: error: {mutated}") if first else str(mutated) in err
        assert err.startswith("cflearn: error: ") and named and err.count("\n") == 1
    else:
        assert err == ""


def _finite_cells(path: Path, skip: int = 0, blank: tuple[str, ...] = ()) -> bool:
    """Whether every cell of the CSV file past its first ``skip`` columns is a
    finite number; a cell of a ``blank`` column may be empty instead."""
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    cells = [row[key] for row in rows for key in list(row)[skip:] if row[key] or key not in blank]
    return bool(rows) and all(np.isfinite(float(cell)) for cell in cells)


def _evaluate_argv(dc_run: Path, out: Path, logs=None, **files) -> list[str]:
    """``evaluate`` of the dc run on its three logs, with ``files`` in place of the run's own."""
    files = {"params": dc_run / "run" / "params.json", "model": dc_run / "run" / "reward_model.json",
             "truth": dc_run / "out" / "truth.json", **files}
    logs = logs or [dc_run / "out" / f"{name}.jsonl" for name in ("train", "validation", "test")]
    return ["evaluate", "--params", str(files["params"]), "--model", str(files["model"]),
            "--truth", str(files["truth"]), "--out", str(out), *(arg for log in logs for arg in ("--log", str(log)))]


@pytest.mark.parametrize("name", ["params.json", "reward_model.json", "truth.json"])
@settings(max_examples=150)
@given(data=st.data())
def test_mutated_json_exits_zero_or_one_naming_the_file(dc_run, name, data):
    valid = {"params.json": dc_run / "run" / "params.json",
             "reward_model.json": dc_run / "run" / "reward_model.json", "truth.json": dc_run / "out" / "truth.json"}
    mutated = dc_run / "mutated" / name
    mutated.parent.mkdir(exist_ok=True)
    mutated.write_bytes(data.draw(config_mutations(valid[name].read_bytes(), BAD_JSON_VALUES, _json_value),
                                  label="mutated"))
    report = dc_run / "mutated" / "report.csv"
    report.unlink(missing_ok=True)
    option = {"params.json": "params", "reward_model.json": "model", "truth.json": "truth"}[name]
    code, err = _quiet_main(_evaluate_argv(dc_run, report.parent, **{option: mutated}))
    _assert_contract(code, err, mutated)
    if code == 0:
        assert _finite_cells(report, skip=2)


@settings(max_examples=150)
@given(data=st.data())
def test_mutated_truth_exits_zero_or_one_naming_it_in_train(dc_run, data):
    mutated = dc_run / "mutated" / "truth.json"
    mutated.parent.mkdir(exist_ok=True)
    mutated.write_bytes(data.draw(config_mutations((dc_run / "out" / "truth.json").read_bytes(), BAD_JSON_VALUES,
                                                   _json_value), label="mutated"))
    run = dc_run / "mutated" / "truth-run"
    shutil.rmtree(run, ignore_errors=True)
    # a truth that does not cover the train log is named first, before the log
    code, err = _quiet_main(["train", "--config", str(dc_run / "config.yaml"), "--truth", str(mutated),
                             "--log", str(dc_run / "out" / "train.jsonl"), "--out", str(run)])
    _assert_contract(code, err, mutated)
    if code == 0:
        params = json.loads((run / "params.json").read_text())
        assert np.isfinite(params["weights"]).all() and np.isfinite(params["alpha"])
        assert _finite_cells(run / "trace.csv")  # every column, true_reward too


# a log record's keys, and "feature" for one value inside its features matrix
LOG_KEYS = ["mode", "id", "features", "feature", "chosen", "reward", "propensity"]


def _record_value(key: str, line: bytes, value: bytes) -> bytes:
    """A log line with the value of ``key`` replaced by ``value``; a line without the key is kept."""
    record = json.loads(line)
    if key == "feature" and "features" in record:
        record["features"][-1][-1] = "@"
    elif key in record:
        record[key] = "@"
    else:
        return line
    return json.dumps(record).encode().replace(b'"@"', value) + b"\n"


@st.composite
def log_mutations(draw, valid: bytes) -> bytes:
    """``valid``, a log file, with one mutation of ``config_mutations``; a value
    mutation replaces the value of one key of a record."""
    key = draw(st.sampled_from(LOG_KEYS), label="key")
    return draw(config_mutations(valid, BAD_JSON_VALUES, partial(_record_value, key)), label="mutated")


@pytest.mark.parametrize("name", ["train.jsonl", "validation.jsonl"])
@settings(max_examples=120)
@given(data=st.data())
def test_mutated_log_exits_zero_or_one_naming_it_in_train(dc_run, name, data):
    logs = {log: dc_run / "out" / log for log in ("train.jsonl", "validation.jsonl")}
    mutated = logs[name] = dc_run / "mutated" / name
    mutated.parent.mkdir(exist_ok=True)
    mutated.write_bytes(data.draw(log_mutations((dc_run / "out" / name).read_bytes())))
    run = dc_run / "mutated" / "run"
    shutil.rmtree(run, ignore_errors=True)
    code, err = _quiet_main(["train", "--config", str(dc_run / "config.yaml"), "--log", str(logs["train.jsonl"]),
                             "--validation", str(logs["validation.jsonl"]), "--out", str(run)])
    _assert_contract(code, err, mutated)
    if code == 0:
        params = json.loads((run / "params.json").read_text())
        assert np.isfinite(params["weights"]).all() and np.isfinite(params["alpha"])
        assert _finite_cells(run / "trace.csv", blank=("true_reward",))  # trained without --truth


@pytest.mark.parametrize("name", ["train.jsonl", "validation.jsonl", "test.jsonl"])
@settings(max_examples=100)
@given(data=st.data())
def test_mutated_log_exits_zero_or_one_naming_it_in_evaluate(dc_run, name, data):
    logs = [dc_run / "out" / log for log in ("train.jsonl", "validation.jsonl", "test.jsonl")]
    mutated = dc_run / "mutated" / name
    mutated.parent.mkdir(exist_ok=True)
    mutated.write_bytes(data.draw(log_mutations((dc_run / "out" / name).read_bytes())))
    report = dc_run / "mutated" / "report.csv"
    report.unlink(missing_ok=True)
    logs = [mutated if log.name == name else log for log in logs]
    code, err = _quiet_main(_evaluate_argv(dc_run, report.parent, logs))
    _assert_contract(code, err, mutated, first=False)
    if code == 0:
        assert _finite_cells(report, skip=2)


class TestBadPayloads:
    """params.json, reward_model.json and truth.json missing a key or holding
    a bad value: exit 1 with the file and the key, never a traceback."""

    @pytest.fixture
    def trained(self, workspace, tmp_path):
        config, out = workspace
        run = tmp_path / "run"
        config_data = yaml.safe_load(config.read_text())
        config_data["train"]["kind"] = "dc"
        config.write_text(yaml.safe_dump(config_data))
        assert main(["train", "--config", str(config), "--log", str(out / "train.jsonl"), "--out", str(run)]) == 0
        return out, run

    def evaluate(self, out, run, tmp_path, **paths):
        files = {"params": run / "params.json", "model": run / "reward_model.json",
                 "truth": out / "truth.json"}
        files.update(paths)
        return main(["evaluate", "--params", str(files["params"]), "--model", str(files["model"]),
                     "--truth", str(files["truth"]), "--log", str(out / "test.jsonl"),
                     "--out", str(tmp_path / "report")])

    @staticmethod
    def edited(source: Path, target: Path, edit) -> Path:
        payload = json.loads(source.read_text())
        edit(payload)
        target.write_text(json.dumps(payload))
        return target

    def test_intact_files_pass(self, trained, tmp_path):
        assert self.evaluate(*trained, tmp_path) == 0

    @pytest.mark.parametrize("name, key, edit", [
        ("params", "weights", lambda p: p.pop("weights")),
        ("params", "alpha", lambda p: p.pop("alpha")),
        ("params", "alpha", lambda p: p.update(alpha="one")),
        ("model", "intercept", lambda p: p.pop("intercept")),
        ("model", "weights", lambda p: p.update(weights=[["a"]])),
        ("truth", "logging_policy", lambda p: p.pop("logging_policy")),
        ("truth", "logging_policy.alpha", lambda p: p["logging_policy"].pop("alpha")),
        ("truth", "mode", lambda p: p["logging_policy"].update(mode="sometimes")),
        pytest.param("params", "alpha", lambda p: p.update(alpha=True), id="params-alpha-bool"),
        pytest.param("model", "intercept", lambda p: p.update(intercept="nan"), id="model-intercept-nan"),
        pytest.param("model", "intercept", lambda p: p.update(intercept="0.25"), id="model-intercept-string"),
        pytest.param("model", "ridge_lambda", lambda p: p.update(ridge_lambda=False),
                     id="model-ridge_lambda-bool"),
        pytest.param("truth", "logging_policy.alpha", lambda p: p["logging_policy"].update(alpha="1"),
                     id="truth-alpha-string"),
        pytest.param("truth", "rewards.i00000", lambda p: p["rewards"]["i00000"].__setitem__(0, "nan"),
                     id="truth-reward-nan"),
        pytest.param("truth", "rewards.i00000", lambda p: p["rewards"]["i00000"].__setitem__(0, "0.25"),
                     id="truth-reward-string"),
        pytest.param("truth", "rewards.i00000", lambda p: p["rewards"]["i00000"].__setitem__(0, True),
                     id="truth-reward-bool"),
        pytest.param("truth", "rewards.i00039", lambda p: p["rewards"]["i00039"].__setitem__(3, True),
                     id="truth-reward-bool-last-row"),
        pytest.param("truth", "rewards.i00007", lambda p: p["rewards"].update(i00007=0.5), id="truth-reward-row-number"),
        pytest.param("params", "weights", lambda p: p["weights"].__setitem__(0, "0.25"), id="params-weight-string"),
        pytest.param("model", "weights", lambda p: p["weights"].__setitem__(0, True), id="model-weight-bool"),
    ])
    def test_bad_payload_exits_one_naming_file_and_key(self, trained, tmp_path, capsys, name, key, edit):
        out, run = trained
        source = {"params": run / "params.json", "model": run / "reward_model.json",
                  "truth": out / "truth.json"}[name]
        bad = self.edited(source, tmp_path / f"bad-{name}.json", edit)
        capsys.readouterr()
        assert self.evaluate(out, run, tmp_path, **{name: bad}) == 1
        err = capsys.readouterr().err
        assert f"{bad}:" in err and key in err

    @pytest.mark.parametrize("reward", [5.0, -0.5])
    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_a_true_reward_outside_the_unit_interval_exits_one_naming_file_and_instance(
        self, workspace, trained, tmp_path, capsys, command, reward
    ):
        out, run = trained
        (tmp_path / "bad").mkdir()
        bad = self.edited(out / "truth.json", tmp_path / "bad" / "truth.json",
                          lambda p: p["rewards"]["i00000"].__setitem__(0, reward))
        capsys.readouterr()
        if command == "train":
            config, _ = workspace
            assert main(["train", "--config", str(config), "--log", str(out / "train.jsonl"),
                         "--truth", str(bad), "--out", str(tmp_path / "again")]) == 1
        else:
            assert self.evaluate(out, run, tmp_path, truth=bad) == 1
        err = capsys.readouterr().err
        assert err == f"cflearn: error: {bad}: instance 'i00000': true reward {reward} outside [0, 1]\n"
        assert not (tmp_path / "again").exists() and not (tmp_path / "report").exists()

    @pytest.mark.parametrize("name", ["params", "model", "truth"])
    def test_wrong_dimension_exits_one_naming_the_file(self, trained, tmp_path, capsys, name):
        out, run = trained
        source = {"params": run / "params.json", "model": run / "reward_model.json",
                  "truth": out / "truth.json"}[name]

        def cut(payload):  # two weights against the logs' five features
            holder = payload["logging_policy"] if name == "truth" else payload
            holder["weights"] = holder["weights"][:2]

        bad = self.edited(source, tmp_path / f"bad-{name}.json", cut)
        capsys.readouterr()
        assert self.evaluate(out, run, tmp_path, **{name: bad}) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"cflearn: error: {bad}: weight dimension 2 ")
        assert str(out / "test.jsonl") in err
        assert not (tmp_path / "report" / "report.csv").exists()

    def test_a_later_log_of_another_dimension_is_named(self, trained, tmp_path, capsys):
        out, run = trained
        other = tmp_path / "other.jsonl"
        serialize.write_log(other, random_log(np.random.default_rng(0), 3, 3, 2, Mode.DETERMINISTIC))
        capsys.readouterr()
        code = main(["evaluate", "--params", str(run / "params.json"), "--model", str(run / "reward_model.json"),
                     "--log", str(out / "test.jsonl"), "--log", str(other), "--out", str(tmp_path / "report")])
        assert code == 1
        assert capsys.readouterr().err == (f"cflearn: error: {run / 'params.json'}: weight dimension 5 does not "
                                           f"match the feature dimension 2 of {other}\n")


class TestTruthCoverage:
    """A truth file that lacks an instance of the log, or gives it too few
    rewards, fails before anything is evaluated: exit 1 naming the truth
    file, the log file and the instance."""

    @pytest.fixture
    def trained(self, workspace, tmp_path):
        config, out = workspace
        run = tmp_path / "run"
        assert main(["train", "--config", str(config), "--log", str(out / "train.jsonl"), "--out", str(run)]) == 0
        return config, out, run

    @staticmethod
    def bad_truth(out: Path, log_path: Path, tmp_path: Path, defect: str) -> tuple[Path, str]:
        ident = read_log(log_path).ids[-1]
        payload = json.loads((out / "truth.json").read_text())
        if defect == "missing":
            del payload["rewards"][ident]
        else:
            payload["rewards"][ident] = payload["rewards"][ident][:-1]
        bad = tmp_path / f"truth-{defect}.json"
        bad.write_text(json.dumps(payload))
        return bad, ident

    @pytest.mark.parametrize("defect", ["missing", "short"])
    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_exits_one_naming_files_and_instance(self, trained, tmp_path, capsys, command, defect):
        config, out, run = trained
        log_path = out / ("train.jsonl" if command == "train" else "test.jsonl")
        truth, ident = self.bad_truth(out, log_path, tmp_path, defect)
        if command == "train":
            argv = ["train", "--config", str(config), "--log", str(log_path)]
        else:
            argv = ["evaluate", "--params", str(run / "params.json"), "--log", str(out / "validation.jsonl"),
                    "--log", str(log_path)]
        capsys.readouterr()
        assert main(argv + ["--truth", str(truth), "--out", str(tmp_path / "again")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("cflearn: error:")
        assert str(truth) in err and str(log_path) in err and ident in err
        assert not (tmp_path / "again" / ("trace.csv" if command == "train" else "report.csv")).exists()


class TestBadLogs:
    """A log the estimator cannot use fails before training or evaluation:
    exit 1 naming the file, never a traceback."""

    BASE = {"task.logging_mode": "stochastic", "train.kind": "cdr"}
    VARIANTS = {
        "empty": {"splits": [1.0, 0.0, 0.0]},
        "d3": {"task.d": 3},
        "deterministic": {"task.logging_mode": "deterministic"},
    }

    @pytest.fixture
    def logs(self, tmp_path):
        """The tests' task logged stochastically for cdr, and one variant per defect."""
        config = write_config(tmp_path / "config.yaml", **self.BASE)
        assert main(["generate-log", "--config", str(config), "--out", str(tmp_path / "good")]) == 0
        for name, overrides in self.VARIANTS.items():
            variant = write_config(tmp_path / f"{name}.yaml", **{**self.BASE, **overrides})
            assert main(["generate-log", "--config", str(variant), "--out", str(tmp_path / name)]) == 0
        return config, tmp_path

    @staticmethod
    def error(capsys, bad: Path) -> str:
        err = capsys.readouterr().err
        assert err.startswith(f"cflearn: error: {bad}: ")
        assert "Traceback" not in err
        return err

    @pytest.mark.parametrize("variant", list(VARIANTS))
    def test_train_names_the_validation_log(self, logs, tmp_path, capsys, variant):
        config, base = logs
        bad = base / variant / "validation.jsonl"
        capsys.readouterr()
        code = main(["train", "--config", str(config), "--log", str(base / "good" / "train.jsonl"),
                     "--validation", str(bad), "--out", str(tmp_path / "run")])
        assert code == 1
        self.error(capsys, bad)
        assert not (tmp_path / "run" / "params.json").exists()

    @pytest.mark.parametrize("defect, message", [
        ("batch_size", "batch_size 100 exceeds log size 20"),
        ("one-tuple", "estimates its control scalar on the log, which needs at least 2 tuples"),
        ("huge-features", "normal equations overflow"),
    ])
    def test_train_names_the_train_log(self, logs, tmp_path, capsys, defect, message):
        config, base = logs
        bad = base / "good" / "train.jsonl"
        if defect == "batch_size":
            config = write_config(tmp_path / "batch.yaml", **self.BASE, **{"train.batch_size": 100})
        elif defect == "one-tuple":
            bad = tmp_path / "one.jsonl"
            bad.write_bytes(b"".join((base / "good" / "train.jsonl").read_bytes().splitlines(keepends=True)[:2]))
        else:
            bad = TestOverflow.scaled_log(bad, tmp_path / "huge.jsonl", 1e160)
        capsys.readouterr()
        code = main(["train", "--config", str(config), "--log", str(bad),
                     "--validation", str(base / "good" / "validation.jsonl"), "--out", str(tmp_path / "run")])
        assert code == 1
        assert message in self.error(capsys, bad)

    @pytest.mark.parametrize("variant, log, message", [
        ("empty", "validation.jsonl", "log is empty"),
        ("deterministic", "train.jsonl", "estimator cdr requires logged propensities (stochastic log)"),
    ])
    def test_train_names_a_train_log_the_kind_cannot_use(self, logs, tmp_path, capsys, variant, log, message):
        config, base = logs
        bad = base / variant / log
        capsys.readouterr()
        code = main(["train", "--config", str(config), "--log", str(bad),
                     "--validation", str(base / "good" / "validation.jsonl"), "--out", str(tmp_path / "run")])
        assert code == 1
        assert capsys.readouterr().err == f"cflearn: error: {bad}: {message}\n"
        assert not (tmp_path / "run" / "params.json").exists()

    def test_train_does_not_name_the_train_log_for_the_validation_log(self, logs, tmp_path, capsys, monkeypatch):
        from cflearn import RewardModel, training

        config, base = logs
        monkeypatch.setattr(training, "fit_reward_model",
                            lambda log, ridge: RewardModel(np.full(log.dim, 1e300), 0.0, ridge))
        validation = TestOverflow.scaled_log(base / "good" / "validation.jsonl", tmp_path / "validation.jsonl", 1e9)
        train_log = base / "good" / "train.jsonl"
        capsys.readouterr()
        code = main(["train", "--config", str(config), "--log", str(train_log), "--validation", str(validation),
                     "--out", str(tmp_path / "run")])
        assert code == 1
        err = self.error(capsys, validation)
        assert "reward model predictions overflowed" in err
        assert str(train_log) not in err

    def test_train_names_the_train_log_for_its_prediction_overflow(self, logs, tmp_path, capsys, monkeypatch):
        from cflearn import RewardModel, training

        config, base = logs
        monkeypatch.setattr(training, "fit_reward_model",
                            lambda log, ridge: RewardModel(np.full(log.dim, 1e300), 0.0, ridge))
        train_log = TestOverflow.scaled_log(base / "good" / "train.jsonl", tmp_path / "train.jsonl", 1e9)
        validation = base / "good" / "validation.jsonl"
        capsys.readouterr()
        code = main(["train", "--config", str(config), "--log", str(train_log), "--validation", str(validation),
                     "--out", str(tmp_path / "run")])
        assert code == 1
        err = self.error(capsys, train_log)
        assert "reward model predictions overflowed" in err
        assert str(validation) not in err

    def test_evaluate_names_an_empty_log(self, logs, tmp_path, capsys):
        config, base = logs
        run = tmp_path / "run"
        assert main(["train", "--config", str(config), "--log", str(base / "good" / "train.jsonl"),
                     "--out", str(run)]) == 0
        bad = base / "empty" / "validation.jsonl"
        capsys.readouterr()
        code = main(["evaluate", "--params", str(run / "params.json"), "--model",
                     str(run / "reward_model.json"), "--log", str(bad), "--out", str(tmp_path / "report")])
        assert code == 1
        assert "log is empty" in self.error(capsys, bad)

    @pytest.mark.parametrize("kind, source", [("cdr", "good"), ("cdc", "deterministic")])
    def test_evaluate_names_a_one_tuple_log_for_an_estimated_control(self, logs, tmp_path, capsys,
                                                                     kind, source):
        config, base = logs
        run = tmp_path / "run"
        assert main(["train", "--config", str(config), "--log", str(base / "good" / "train.jsonl"),
                     "--out", str(run)]) == 0
        bad = tmp_path / "one.jsonl"
        bad.write_bytes(b"".join((base / source / "test.jsonl").read_bytes().splitlines(keepends=True)[:2]))
        capsys.readouterr()
        code = main(["evaluate", "--params", str(run / "params.json"), "--model",
                     str(run / "reward_model.json"), "--estimator", kind, "--log", str(bad),
                     "--out", str(tmp_path / "report")])
        assert code == 1
        assert "at least 2 tuples" in self.error(capsys, bad)


class TestUndecodableInput:
    """Input that is not JSON (an invalid UTF-8 byte, a NaN literal, a number
    beyond a double) and an integer that orjson reads as a float.  Each exits
    1 naming the file and the line, never a traceback."""

    EDITS = {
        "invalid-utf8": (rb'"id":"', b'"id":"\xff'),
        "nan": (rb'"reward":[^,}]+', b'"reward":NaN'),
        "overflow": (rb'"features":\[\[[^,\]]+', b'"features":[[1e400'),
        "chosen-2**64": (rb'"chosen":\d+', b'"chosen":18446744073709551616'),
    }

    @staticmethod
    def assert_error(capsys, prefix: str) -> None:
        err = capsys.readouterr().err
        assert err.startswith(f"cflearn: error: {prefix}") and "Traceback" not in err

    @pytest.mark.parametrize("edit", list(EDITS))
    def test_log_line(self, workspace, tmp_path, capsys, edit):
        _, out = workspace
        pattern, replacement = self.EDITS[edit]
        lines = (out / "test.jsonl").read_bytes().splitlines(keepends=True)
        lines[2], count = re.subn(pattern, replacement, lines[2], count=1)
        assert count == 1
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b"".join(lines))
        (tmp_path / "params.json").write_text(json.dumps({"weights": [0.0] * 5, "alpha": 1.0, "kind": "dpm-r"}))
        capsys.readouterr()
        code = main(["evaluate", "--params", str(tmp_path / "params.json"), "--log", str(bad),
                     "--out", str(tmp_path / "report")])
        assert code == 1
        self.assert_error(capsys, f"{bad}:3: bad log record")

    @pytest.mark.parametrize("value, message", [(b'"\xff"', "not valid UTF-8"), (b"NaN", "not valid JSON")],
                             ids=["invalid-utf8", "nan"])
    def test_truth_file(self, workspace, tmp_path, capsys, value, message):
        config, out = workspace
        lines = (out / "truth.json").read_bytes().splitlines(keepends=True)
        assert lines[1].strip() == b'"reward_weights": ['
        lines[3] = b"    " + value + b",\n"
        bad = tmp_path / "truth.json"
        bad.write_bytes(b"".join(lines))
        capsys.readouterr()
        code = main(["train", "--config", str(config), "--log", str(out / "train.jsonl"),
                     "--truth", str(bad), "--out", str(tmp_path / "run")])
        assert code == 1
        self.assert_error(capsys, f"{bad}:4: {message}")
