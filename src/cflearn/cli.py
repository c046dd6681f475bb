"""Command-line entry points.

Commands: generate-log, train, evaluate, grad-check, degeneracy-probe.
Every command is deterministic given its config and seed; rerunning one
produces byte-identical output files.  Exit codes: 0 success, 1 usage or
configuration error, 2 invariant or probe failure.
"""

from __future__ import annotations

import argparse
import pickle
import sys
from dataclasses import dataclass, fields, replace
from functools import partial
from pathlib import Path

import yaml

from . import serialize
from .degeneracy import ProbeResult, probe_theorem1, probe_theorem2
from .domain import Log, Mode, PolicyParams, _integer, _real
from .errors import CflearnError, ConfigurationError
from .estimators import EstimatorKind, evaluate_policy
from .gradients import FD_TOLERANCE, run_grad_check
from .reward import RewardModel
from .simulator import GroundTruth, TaskSpec, generate_task, roll_log, split
from .training import TrainConfig, _expected_reward, _true_rewards, train

USAGE_ERROR = 1
CHECK_FAILURE = 2


@dataclass
class ExperimentConfig:
    task: TaskSpec
    train: TrainConfig
    splits: tuple[float, float, float] = (0.5, 0.25, 0.25)
    split_seed: int = 0
    output_dir: str = "out"


def _build_dataclass(cls, data, context: str):
    if not isinstance(data, dict):
        raise ValueError(f"{context}: must be a mapping, got {data!r}")
    allowed = {f.name for f in fields(cls)}
    unknown = set(data) - allowed
    if unknown:
        raise ValueError(f"{context}: unknown keys {sorted(unknown)}")
    try:
        return cls(**data)
    except TypeError as err:  # a required key is missing
        raise ValueError(f"{context}: {err}") from err


def load_config(path: str | Path) -> ExperimentConfig:
    data = yaml.safe_load(Path(path).read_text(encoding="utf-8")) or {}
    if not isinstance(data, dict):
        raise ValueError(f"{path}: config must be a mapping")
    unknown = set(data) - {"task", "train", "splits", "split_seed", "output_dir"}
    if unknown:
        raise ValueError(f"{path}: unknown top-level keys {sorted(unknown)}")
    train_data = data.get("train") or {}
    if not isinstance(train_data, dict) or "kind" not in train_data:
        raise ValueError(f"{path}: train.kind is required")
    splits = data.get("splits", (0.5, 0.25, 0.25))
    if not isinstance(splits, (list, tuple)) or len(splits) != 3:
        raise ValueError(f"{path}: splits must be a list of 3 fractions, got {splits!r}")
    for value in splits:
        _real("splits", value)
    split_seed = data.get("split_seed", 0)
    _integer("split_seed", split_seed)
    return ExperimentConfig(
        task=_build_dataclass(TaskSpec, data.get("task") or {}, "task"),
        train=_build_dataclass(TrainConfig, train_data, "train"),
        splits=tuple(splits),
        split_seed=split_seed,
        output_dir=str(data.get("output_dir", "out")),
    )


def _outcome(call) -> tuple[bool, object]:
    try:
        return True, call()
    except Exception as err:
        return False, err


def _send_outcome(call, sender) -> None:
    """Run ``call`` in a forked child and send its outcome as one pickle
    protocol 5 stream whose array buffers travel out of band."""
    buffers = []
    payload = pickle.dumps(_outcome(call), protocol=5, buffer_callback=buffers.append)
    sender.send(len(buffers))
    sender.send_bytes(payload)
    for buffer in buffers:
        sender.send_bytes(buffer.raw())
    sender.close()


def _receive_outcome(child, receiver) -> tuple[bool, object]:
    try:
        count = receiver.recv()
        payload = receiver.recv_bytes()
        buffers = [receiver.recv_bytes() for _ in range(count)]
    except EOFError:
        child.join()
        return False, CflearnError(
            f"worker process {child.pid} exited with code {child.exitcode} "
            "before it sent its result"
        )
    return pickle.loads(payload, buffers=buffers)


# Forking costs a fixed 15-20 ms (importing multiprocessing, then a few ms
# a child), which is about the JSON work of 0.5-1 MB of log text: below this
# many bytes in the children's files, the calls run in order instead.
CONCURRENT_MIN_BYTES = 1 << 20
# A float's repr and the ", " after it, which make up almost all of a log file.
JSON_BYTES_PER_VALUE = 21


def _concurrently(*calls, child_bytes: int) -> list:
    """Run the argument-free ``calls`` at once; return their results in order.

    The first call runs in this process and each other one in a forked child,
    which inherits its inputs, so no argument is pickled.  The first failure
    in call order is raised, as if the calls had run one after another, and
    every child is joined before this returns.  The calls run in order here
    instead when the children's files hold fewer than
    ``CONCURRENT_MIN_BYTES`` bytes (``child_bytes``) or the fork start method
    is missing.  The calls only format or parse JSON and copy arrays: none
    runs BLAS, whose worker threads a forked child lacks.
    """
    if child_bytes < CONCURRENT_MIN_BYTES:
        return [call() for call in calls]
    import multiprocessing  # here, so commands that never fork do not load it

    if "fork" not in multiprocessing.get_all_start_methods():
        return [call() for call in calls]
    context = multiprocessing.get_context("fork")
    children = []
    try:
        for call in calls[1:]:
            receiver, sender = context.Pipe(duplex=False)
            child = context.Process(target=_send_outcome, args=(call, sender))
            child.start()
            sender.close()  # so a child that dies leaves the receiver at end of file
            children.append((child, receiver))
        outcomes = [_outcome(calls[0])]
        outcomes += [_receive_outcome(child, receiver) for child, receiver in children]
    except BaseException:
        for child, _ in children:
            child.terminate()
        raise
    finally:
        for child, receiver in children:
            receiver.close()
            child.join()
    for ok, value in outcomes:
        if not ok:
            raise value
    return [value for _, value in outcomes]


def _file_bytes(paths) -> int:
    """The summed size of the files; one that cannot be read counts 0, so
    reading it reports the error."""
    total = 0
    for path in paths:
        try:
            total += Path(path).stat().st_size
        except OSError:
            pass
    return total


def _out_dir(args, config: ExperimentConfig | None) -> Path:
    if args.out is not None:
        out = Path(args.out)
    elif config is not None:
        out = Path(config.output_dir)
    else:
        out = Path("out")
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_generate_log(args) -> int:
    config = load_config(args.config)
    task = config.task
    if args.seed is not None:
        task = replace(task, seed=args.seed)
    out = _out_dir(args, config)
    instances, truth, logger = generate_task(task)
    log = roll_log(instances, truth, logger, rng=task.seed)
    train_log, validation_log, test_log = split(log, config.splits, config.split_seed)
    child_values = sum(int(part.k.sum()) * part.dim for part in (validation_log, test_log))
    _concurrently(
        partial(serialize.write_log, out / "train.jsonl", train_log),
        partial(serialize.write_log, out / "validation.jsonl", validation_log),
        partial(serialize.write_log, out / "test.jsonl", test_log),
        partial(serialize.write_truth, out / "truth.json", truth, logger),
        child_bytes=JSON_BYTES_PER_VALUE * child_values,
    )
    print(
        f"wrote {len(train_log)}/{len(validation_log)}/{len(test_log)} tuples "
        f"({log.mode.value}) to {out}"
    )
    return 0


def _check_truth_covers(truth: GroundTruth, truth_path, log: Log, log_path) -> None:
    """Fail, before anything is evaluated, at the first instance of the log
    whose true rewards the truth file lacks or gives for another k."""
    for ident, k in zip(log.ids.tolist(), log.k.tolist()):
        row = truth.rewards.get(ident)
        if row is None or row.shape != (k,):
            found = "no rewards" if row is None else f"{row.size} rewards for {k} candidates"
            raise ConfigurationError(
                f"{truth_path} does not cover {log_path}: instance {ident} has {found}"
            )


def cmd_train(args) -> int:
    config = load_config(args.config)
    train_cfg = config.train
    if args.estimator is not None:
        train_cfg = replace(train_cfg, kind=EstimatorKind(args.estimator))
    if args.seed is not None:
        train_cfg = replace(train_cfg, seed=args.seed)
    out = _out_dir(args, config)

    validation_path = args.validation or str(Path(args.log).with_name("validation.jsonl"))
    train_log, validation_log = _concurrently(
        partial(serialize.read_log, args.log),
        partial(serialize.read_log, validation_path),
        child_bytes=_file_bytes([validation_path]),
    )
    truth = None
    if args.truth:
        truth = serialize.read_truth(args.truth)[0]
        _check_truth_covers(truth, args.truth, train_log, args.log)

    params, trace = train(train_cfg, train_log, validation_log, truth=truth)
    extra = {
        "kind": train_cfg.kind.value,
        "best_epoch": trace.best_epoch,
        "stopped_early": trace.stopped_early,
        "halted": trace.halted,
    }
    serialize.write_params(out / "params.json", params, extra)
    serialize.write_trace(out / "trace.csv", trace)
    if trace.reward_model is not None:
        serialize.write_reward_model(out / "reward_model.json", trace.reward_model)
    print(f"trained {train_cfg.kind.value} for {len(trace.records)} epochs; wrote {out}")
    return 0


def _evaluate_rows(
    kind: EstimatorKind,
    params: PolicyParams,
    logs: list[tuple[str, Log]],
    model: RewardModel | None,
    truth_bundle,
) -> list[list]:
    rows = []
    for label, log in logs:
        report = evaluate_policy(kind, params, log, model)
        true_reward = logger_reward = improvement = None
        if truth_bundle is not None:
            truth, logger = truth_bundle
            rewards = _true_rewards(truth, log)
            true_reward = _expected_reward(log.probs(params), rewards)
            logger_reward = _expected_reward(log.probs(logger.params), rewards)
            improvement = true_reward - logger_reward
        rows.append(
            [
                label,
                kind.value,
                report.value,
                report.effective_sample_size,
                report.mass_on_dmax,
                true_reward,
                logger_reward,
                improvement,
            ]
        )
    return rows


REPORT_COLUMNS = [
    "split",
    "estimator",
    "value",
    "effective_sample_size",
    "mass_on_dmax",
    "true_reward",
    "logger_true_reward",
    "improvement",
]


def cmd_evaluate(args) -> int:
    params, meta = serialize.read_params(args.params)
    kind_name = args.estimator or meta.get("kind")
    if kind_name is None:
        raise ValueError("no estimator kind: pass --estimator or use params.json from `train`")
    kind = EstimatorKind(kind_name)
    model = serialize.read_reward_model(args.model) if args.model else None
    if kind.uses_reward_model and model is None:
        raise ValueError(f"estimator {kind.value} needs --model reward_model.json")
    truth_bundle = serialize.read_truth(args.truth) if args.truth else None
    if not args.log:
        raise ValueError("pass at least one --log file")
    read = _concurrently(
        *[partial(serialize.read_log, p) for p in args.log], child_bytes=_file_bytes(args.log[1:])
    )
    logs = [(Path(p).stem, log) for p, log in zip(args.log, read)]
    if truth_bundle is not None:
        for path, (_, log) in zip(args.log, logs):
            _check_truth_covers(truth_bundle[0], args.truth, log, path)
    rows = _evaluate_rows(kind, params, logs, model, truth_bundle)
    out = Path(args.out) if args.out is not None else Path(args.params).parent
    out.mkdir(parents=True, exist_ok=True)
    serialize.write_csv(out / "report.csv", REPORT_COLUMNS, rows)
    for row in rows:
        detail = f"value={row[2]!r}"
        if row[7] is not None:
            detail += f" improvement={row[7]!r}"
        print(f"{row[0]}: {detail}")
    return 0


def cmd_grad_check(args) -> int:
    results = run_grad_check(
        seed=args.seed if args.seed is not None else 0,
        count=args.count,
        n_max=args.max_n,
        k_max=args.max_k,
        d_max=args.max_d,
    )
    rows = []
    failed = False
    for res in results:
        status = "ok" if res.failures == 0 else "FAIL"
        failed = failed or res.failures > 0
        print(
            f"{res.family}: {res.problems} problems, max rel error {res.max_rel_error:.3e} "
            f"({status}; {res.singular} singular excluded, {res.constant_cases} constant cases)"
        )
        rows.append(
            [res.family, res.problems, res.max_rel_error, res.failures, res.singular, res.constant_cases]
        )
    if args.out is not None:
        out = _out_dir(args, None)
        serialize.write_csv(
            out / "grad_check.csv",
            ["family", "problems", "max_rel_error", "failures", "singular", "constant_cases"],
            rows,
        )
    if failed:
        print(f"gradient check FAILED at tolerance {FD_TOLERANCE}", file=sys.stderr)
        return CHECK_FAILURE
    return 0


def probe_tasks(seed: int, count: int) -> list[tuple[str, TaskSpec]]:
    """Seeded probe task specs, ``count`` per logging mode."""
    specs = []
    for mode in (Mode.DETERMINISTIC, Mode.STOCHASTIC):
        for i in range(count):
            specs.append(
                (
                    f"{mode.value}-{i:03d}",
                    TaskSpec(
                        num_instances=12,
                        k=4,
                        d=6,
                        seed=seed + i,
                        reward_noise=0.0,
                        logger_quality=0.5,
                        logging_mode=mode,
                    ),
                )
            )
    return specs


def run_probe_suite(seed: int, count: int, trials: int = 200) -> list[tuple[str, ProbeResult]]:
    """Both degeneracy probes over ``count`` generated logs per mode."""
    results = []
    for label, spec in probe_tasks(seed, count):
        instances, truth, logger = generate_task(spec)
        log = roll_log(instances, truth, logger, rng=spec.seed + 1)
        results.append((label, probe_theorem1(log, seed=spec.seed + 2, trials=trials)))
        results.append((label, probe_theorem2(log, seed=spec.seed + 3, trials=trials)))
    return results


def cmd_degeneracy_probe(args) -> int:
    seed = args.seed if args.seed is not None else 0
    results = run_probe_suite(seed, args.count)
    violations = sum(1 for _, r in results if not r.holds and not r.skipped)
    skipped = sum(1 for _, r in results if r.skipped)
    rows = [
        [
            label,
            res.theorem,
            "skipped" if res.skipped else ("passed" if res.holds else "violated"),
            res.reference_value,
            res.worst_challenger,
            res.reason or res.witness,
        ]
        for label, res in results
    ]
    if args.out is not None:
        out = _out_dir(args, None)
        serialize.write_csv(
            out / "probes.csv",
            ["log", "theorem", "status", "reference_value", "worst_challenger", "note"],
            rows,
        )
    print(
        f"{len(results)} probes on {2 * args.count} logs: "
        f"{len(results) - violations - skipped} passed, {violations} violated, {skipped} skipped"
    )
    for label, res in results:
        if res.skipped:
            print(f"  skipped {label} {res.theorem}: {res.reason}")
        elif not res.holds:
            print(f"  VIOLATED {label} {res.theorem}: {res.witness}", file=sys.stderr)
    return CHECK_FAILURE if violations else 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cflearn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate-log", help="simulate a task and write split logs plus truth")
    gen.add_argument("--config", required=True)
    gen.add_argument("--seed", type=int, default=None, help="override task seed")
    gen.add_argument("--out", default=None, help="override output directory")
    gen.set_defaults(func=cmd_generate_log)

    tr = sub.add_parser("train", help="train a policy on a logged data file")
    tr.add_argument("--config", required=True)
    tr.add_argument("--log", required=True, help="training log (jsonl)")
    tr.add_argument("--validation", default=None, help="validation log (default: sibling validation.jsonl)")
    tr.add_argument("--truth", default=None, help="truth.json; adds the true-reward trace column")
    tr.add_argument("--estimator", choices=[k.value for k in EstimatorKind], default=None)
    tr.add_argument("--seed", type=int, default=None, help="override training seed")
    tr.add_argument("--out", default=None)
    tr.set_defaults(func=cmd_train)

    ev = sub.add_parser("evaluate", help="report estimator values and true-reward improvement")
    ev.add_argument("--params", required=True)
    ev.add_argument("--log", action="append", default=[], help="log file; repeatable")
    ev.add_argument("--truth", default=None)
    ev.add_argument("--model", default=None, help="reward_model.json for model-based estimators")
    ev.add_argument("--estimator", choices=[k.value for k in EstimatorKind], default=None)
    ev.add_argument("--out", default=None)
    ev.set_defaults(func=cmd_evaluate)

    gc = sub.add_parser("grad-check", help="finite-difference check of all gradient families")
    gc.add_argument("--seed", type=int, default=None)
    gc.add_argument("--count", type=int, default=100)
    gc.add_argument("--max-n", type=int, default=10)
    gc.add_argument("--max-k", type=int, default=5)
    gc.add_argument("--max-d", type=int, default=6)
    gc.add_argument("--out", default=None)
    gc.set_defaults(func=cmd_grad_check)

    dp = sub.add_parser("degeneracy-probe", help="run the degenerate-maximizer probes")
    dp.add_argument("--seed", type=int, default=None)
    dp.add_argument("--count", type=int, default=100, help="logs per logging mode")
    dp.add_argument("--out", default=None)
    dp.set_defaults(func=cmd_degeneracy_probe)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CflearnError, ValueError, OSError, yaml.YAMLError) as err:
        print(f"cflearn: error: {err}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
