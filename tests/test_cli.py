"""End-to-end CLI behavior: commands, guards, exit codes, reproducibility."""

import json
import multiprocessing
import os
from functools import partial
from pathlib import Path

import numpy as np
import pytest
import yaml

import oracles
from cflearn import Instance, Log, LoggedTuple, Mode, cli, serialize
from cflearn.cli import load_config, main
from cflearn.serialize import read_log, read_params, read_truth, write_reward_model
from cflearn.simulator import generate_task, roll_log, split


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


@pytest.fixture(autouse=True)
def no_child_left():
    """Every command joins the processes it forks."""
    yield
    assert multiprocessing.active_children() == []


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

    def test_truth_option_fills_trace_column(self, workspace, tmp_path):
        config, out = workspace
        run = tmp_path / "run-truth"
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


class TestChecks:
    def test_grad_check_passes(self, tmp_path, capsys):
        out = tmp_path / "gc"
        code = main(["grad-check", "--seed", "0", "--count", "10", "--out", str(out)])
        assert code == 0
        assert (out / "grad_check.csv").exists()
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
         ({"task.k": "4"}, "k"), ({"split_seed": [1]}, "split_seed"), ({"task": {"k": 4}}, "num_instances")],
    )
    def test_bad_config_value_exits_one_naming_the_key(self, tmp_path, capsys, override, key):
        config = write_config(tmp_path / "config.yaml", **override)
        assert main(["generate-log", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("cflearn: error:") and key in err


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


class TestConcurrentIO:
    """generate-log writes, and train and evaluate read, their log files in
    forked processes; the results and the errors are those of the serial code."""

    @pytest.fixture(autouse=True)
    def fork_any_size(self, monkeypatch):
        """The test logs are far below the size at which commands fork."""
        monkeypatch.setattr(cli, "CONCURRENT_MIN_BYTES", 0)

    def test_generate_log_files_equal_serial_writes(self, workspace, tmp_path):
        config_path, out = workspace
        config = load_config(config_path)
        instances, truth, logger = generate_task(config.task)
        log = roll_log(instances, truth, logger, rng=config.task.seed)
        serial = tmp_path / "serial"
        serial.mkdir()
        for name, part in zip(("train", "validation", "test"), split(log, config.splits, config.split_seed)):
            serialize.write_log(serial / f"{name}.jsonl", part)
        serialize.write_truth(serial / "truth.json", truth, logger)
        for name in ("train.jsonl", "validation.jsonl", "test.jsonl", "truth.json"):
            assert (out / name).read_bytes() == (serial / name).read_bytes()

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

    def test_child_that_dies_gives_a_named_error(self, workspace, tmp_path, monkeypatch, capfd):
        config, out = workspace
        parent = os.getpid()
        real_read_log = serialize.read_log

        def read_log_or_die(path):
            if os.getpid() != parent:
                os._exit(3)
            return real_read_log(path)

        monkeypatch.setattr(serialize, "read_log", read_log_or_die)
        capfd.readouterr()
        code = main(["train", "--config", str(config), "--log", str(out / "train.jsonl"),
                     "--out", str(tmp_path / "run")])
        err = capfd.readouterr().err
        assert code == 1
        assert err.startswith("cflearn: error: worker process") and "exited with code 3" in err
        assert "Traceback" not in err

    def test_failures_are_raised_in_call_order(self):
        def fail(message):
            raise ValueError(message)

        assert cli._concurrently(lambda: 1, lambda: 2, lambda: None, child_bytes=0) == [1, 2, None]
        with pytest.raises(ValueError, match="^first$"):
            cli._concurrently(lambda: 1, lambda: fail("first"), lambda: fail("second"), child_bytes=0)
        with pytest.raises(ValueError, match="^parent$"):
            cli._concurrently(lambda: fail("parent"), lambda: fail("child"), child_bytes=0)

    def test_calls_run_in_order_here_without_fork(self, monkeypatch):
        def fail(message):
            raise ValueError(message)

        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        ran = []
        results = cli._concurrently(*[partial(ran.append, i) for i in range(3)], os.getpid, child_bytes=0)
        assert results == [None, None, None, os.getpid()] and ran == [0, 1, 2]
        with pytest.raises(ValueError, match="^first$"):
            cli._concurrently(os.getpid, lambda: fail("first"), lambda: fail("second"), child_bytes=0)

    def test_small_files_are_handled_here(self, monkeypatch):
        monkeypatch.setattr(cli, "CONCURRENT_MIN_BYTES", 1000)
        assert cli._concurrently(os.getpid, os.getpid, child_bytes=999) == [os.getpid()] * 2
        parent, child = cli._concurrently(os.getpid, os.getpid, child_bytes=1000)
        assert parent == os.getpid() and child != parent

    def test_generate_log_without_fork_writes_the_same_files(self, workspace, tmp_path, monkeypatch):
        config, out = workspace
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        serial = tmp_path / "serial"
        assert main(["generate-log", "--config", str(config), "--out", str(serial)]) == 0
        for name in ("train.jsonl", "validation.jsonl", "test.jsonl", "truth.json"):
            assert (serial / name).read_bytes() == (out / name).read_bytes()

    @pytest.mark.parametrize("mode", [Mode.DETERMINISTIC, Mode.STOCHASTIC])
    def test_log_read_in_a_child_is_bit_equal_and_read_only(self, tmp_path, rng, mode):
        tuples = [
            LoggedTuple(
                Instance(f"m{t}", rng.standard_normal((2 + t % 4, 3))),
                chosen=1,
                reward=float(rng.uniform()),
                propensity=float(rng.uniform(0.1, 1.0)) if mode is Mode.STOCHASTIC else None,
            )
            for t in range(25)
        ]
        path = tmp_path / "mixed.jsonl"
        serialize.write_log(path, Log(tuples, mode))
        _, child = cli._concurrently(lambda: None, lambda: read_log(path), child_bytes=0)
        serial = read_log(path)
        assert child.mode is serial.mode
        assert child.ids.tolist() == serial.ids.tolist()
        for name in ("features", "k", "chosen", "rewards", "propensities"):
            got, want = getattr(child, name), getattr(serial, name)
            if want is None:
                assert got is None
                continue
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        for name in ("ids", "features", "k", "chosen", "rewards", "propensities"):
            column = getattr(child, name)
            assert column is None or not column.flags.writeable

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
