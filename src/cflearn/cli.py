"""Command-line entry points.

Commands: generate-log, train, evaluate, grad-check, degeneracy-probe.
Every command is deterministic given its config and seed; rerunning one
produces byte-identical output files.  Exit codes: 0 success, 1 usage or
configuration error, 2 invariant or probe failure.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

from . import serialize
from .degeneracy import ProbeResult, probe_theorem1, probe_theorem2
from .domain import Log, Mode, PolicyParams, _fits, _integer, _member
from .errors import CflearnError, ConfigurationError
from .estimators import EstimatorKind, evaluate_policy
from .gradients import FD_TOLERANCE, GradCheckResult, run_grad_check
from .reward import RewardModel
from .simulator import GroundTruth, LoggingPolicy, TaskSpec, generate_task, roll_log, split
from .training import evaluate_truth, train

USAGE_ERROR = 1
CHECK_FAILURE = 2


@contextmanager
def _naming(prefix):
    """Prefix a package error or a ValueError raised inside with the file(s) it
    concerns; an allocation failure becomes a ConfigurationError."""
    try:
        yield
    except (CflearnError, ValueError) as err:
        raise type(err)(f"{prefix}: {err}") from err
    except MemoryError as err:  # numpy's own cannot be rebuilt from a message
        raise ConfigurationError(f"{prefix}: {err}") from err


def _out_dir(out, default=None) -> Path:
    """The directory ``out``, or ``default`` when ``--out`` was not given; made if missing."""
    path = Path(default if out is None else out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def cmd_generate_log(args) -> int:
    _options(args, seed=0)
    config = serialize.read_config(args.config)
    task = config.task
    if args.seed is not None:
        task = replace(task, seed=args.seed)
    with _naming(args.config):  # e.g. a size numpy cannot allocate
        instances, truth, logger = generate_task(task)
        log = roll_log(instances, truth, logger, rng=task.seed)
        train_log, validation_log, test_log = split(log, config.splits, config.split_seed)
    out = _out_dir(args.out, config.output_dir)
    for name, part in (("train", train_log), ("validation", validation_log), ("test", test_log)):
        serialize.write_log(out / f"{name}.jsonl", part)
    serialize.write_truth(out / "truth.json", truth, logger)
    print(
        f"wrote {len(train_log)}/{len(validation_log)}/{len(test_log)} tuples "
        f"({log.mode.value}) to {out}"
    )
    return 0


def _check_coverage(truth: GroundTruth, truth_path, log: Log, log_path) -> None:
    """Gather the log's true rewards, which its pass state keeps; a truth file
    that lacks an instance of the log, or gives it the wrong number of
    rewards, is an error naming both files."""
    with _naming(f"{truth_path} does not cover {log_path}"):
        log._tensor_pass().true_rewards(truth)


def cmd_train(args) -> int:
    _options(args, seed=0)
    config = serialize.read_config(args.config)
    train_cfg = config.train
    if args.estimator is not None:
        train_cfg = replace(train_cfg, kind=EstimatorKind(args.estimator))
    if args.seed is not None:
        train_cfg = replace(train_cfg, seed=args.seed)

    validation_path = args.validation or str(Path(args.log).with_name("validation.jsonl"))
    train_log = serialize.read_log(args.log)
    validation_log = serialize.read_log(validation_path)
    truth = None
    if args.truth:
        truth = serialize.read_truth(args.truth)[0]
        _check_coverage(truth, args.truth, train_log, args.log)

    try:
        params, trace = train(train_cfg, train_log, validation_log, truth=truth)
    except CflearnError as err:  # train's errors before epoch 1 carry the log they concern
        path = validation_path if err.log is validation_log else args.log
        raise type(err)(f"{path}: {err}") from err
    out = _out_dir(args.out, config.output_dir)
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


@dataclass(frozen=True)
class ReportRow:
    """One row of report.csv; the true rewards are None without a truth."""

    split: str
    estimator: str
    value: float
    effective_sample_size: float
    mass_on_dmax: float
    true_reward: float | None
    logger_true_reward: float | None
    improvement: float | None


def _evaluate_row(
    path: str,
    kind: EstimatorKind,
    params: PolicyParams,
    log: Log,
    model: RewardModel | None,
    truth: GroundTruth | None,
    logger: LoggingPolicy | None,
) -> ReportRow:
    """The report row of the log read from ``path``, with true rewards when
    a ``truth`` is given; the policy's comes from the estimate's own pass.
    An error names the file."""
    with _naming(path):
        result = evaluate_policy(kind, params, log, model)
        true_reward = logger_reward = improvement = None
        if truth is not None:
            true_reward = evaluate_truth(params, log, truth)
            logger_reward = evaluate_truth(logger.params, log, truth)
            improvement = true_reward - logger_reward
        return ReportRow(Path(path).stem, kind.value, result.value, result.effective_sample_size,
                         result.mass_on_dmax, true_reward, logger_reward, improvement)


def cmd_evaluate(args) -> int:
    params, meta = serialize.read_params(args.params)
    if args.estimator is not None:
        meta["kind"] = args.estimator
    kind = serialize._get(meta, "kind", lambda value: _member("kind", EstimatorKind, value), args.params)
    model = serialize.read_reward_model(args.model) if args.model else None
    if kind.uses_reward_model and model is None:
        raise ValueError(f"estimator {kind.value} needs --model reward_model.json")
    truth, logger = serialize.read_truth(args.truth) if args.truth else (None, None)
    if not args.log:
        raise ValueError("pass at least one --log file")
    logs = [serialize.read_log(path) for path in args.log]
    # every input file is checked against every log, its dimension and then the
    # truth's coverage, before any log is evaluated
    logger_params = None if logger is None else logger.params
    for path, source in ((args.params, params), (args.model, model), (args.truth, logger_params)):
        for log_path, log in zip(args.log, logs):
            if source is not None and len(log):
                with _naming(f"{path} does not fit {log_path}"):
                    _fits("weight", source.dim, log.dim)
    if truth is not None:
        for path, log in zip(args.log, logs):
            _check_coverage(truth, args.truth, log, path)
    rows = [_evaluate_row(path, kind, params, log, model, truth, logger) for path, log in zip(args.log, logs)]
    out = _out_dir(args.out, Path(args.params).parent)
    serialize.write_csv(out / "report.csv", ReportRow, rows)
    for row in rows:
        improvement = "" if row.improvement is None else f" improvement={row.improvement!r}"
        print(f"{row.split}: value={row.value!r}{improvement}")
    return 0


def _options(args, **minimums) -> None:
    """Raises ConfigurationError naming the first option of ``args`` given
    below its minimum, by ``domain._integer``'s rule; an option not given is None."""
    for name, minimum in minimums.items():
        if getattr(args, name) is not None:
            _integer(f"--{name.replace('_', '-')}", getattr(args, name), minimum)


def cmd_grad_check(args) -> int:
    _options(args, seed=0, count=1, max_n=1, max_k=2, max_d=1)
    results = run_grad_check(
        seed=args.seed, count=args.count, n_max=args.max_n, k_max=args.max_k, d_max=args.max_d
    )
    for res in results:
        status = "ok" if res.failures == 0 else "FAIL"
        print(
            f"{res.family}: {res.problems} problems, max rel error {res.max_rel_error:.3e} "
            f"({status}; {res.singular} singular excluded, {res.constant_cases} constant cases)"
        )
    if args.out is not None:
        serialize.write_csv(_out_dir(args.out) / "grad_check.csv", GradCheckResult, results)
    if any(res.failures for res in results):
        print(f"gradient check FAILED at tolerance {FD_TOLERANCE}", file=sys.stderr)
        return CHECK_FAILURE
    return 0


def probe_tasks(seed: int, count: int) -> list[tuple[str, TaskSpec]]:
    """Seeded probe task specs, ``count`` per logging mode."""
    return [
        (f"{mode.value}-{i:03d}",
         TaskSpec(num_instances=12, k=4, d=6, seed=seed + i, logger_quality=0.5, logging_mode=mode))
        for mode in (Mode.DETERMINISTIC, Mode.STOCHASTIC)
        for i in range(count)
    ]


def run_probe_suite(seed: int, count: int, trials: int = 200) -> list[tuple[str, ProbeResult]]:
    """Both degeneracy probes over ``count`` generated logs per mode."""
    results = []
    for label, spec in probe_tasks(seed, count):
        instances, truth, logger = generate_task(spec)
        log = roll_log(instances, truth, logger, rng=spec.seed + 1)
        results.append((label, probe_theorem1(log, seed=spec.seed + 2, trials=trials)))
        results.append((label, probe_theorem2(log, seed=spec.seed + 3, trials=trials)))
    return results


@dataclass(frozen=True)
class ProbeRow:
    """One row of probes.csv."""

    log: str
    theorem: str
    status: str
    reference_value: float | None
    worst_challenger: float | None
    note: str


def cmd_degeneracy_probe(args) -> int:
    _options(args, seed=0, count=1)
    rows = [
        ProbeRow(label, res.theorem, "skipped" if res.skipped else ("passed" if res.holds else "violated"),
                 res.reference_value, res.worst_challenger, res.reason or res.witness)
        for label, res in run_probe_suite(args.seed, args.count)
    ]
    if args.out is not None:
        serialize.write_csv(_out_dir(args.out) / "probes.csv", ProbeRow, rows)
    counts = Counter(row.status for row in rows)
    print(
        f"{len(rows)} probes on {2 * args.count} logs: "
        f"{counts['passed']} passed, {counts['violated']} violated, {counts['skipped']} skipped"
    )
    for row in rows:
        if row.status == "skipped":
            print(f"  skipped {row.log} {row.theorem}: {row.note}")
        elif row.status == "violated":
            print(f"  VIOLATED {row.log} {row.theorem}: {row.note}", file=sys.stderr)
    return CHECK_FAILURE if counts["violated"] else 0


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
    gc.add_argument("--seed", type=int, default=0)
    gc.add_argument("--count", type=int, default=100)
    gc.add_argument("--max-n", type=int, default=10)
    gc.add_argument("--max-k", type=int, default=5)
    gc.add_argument("--max-d", type=int, default=6)
    gc.add_argument("--out", default=None)
    gc.set_defaults(func=cmd_grad_check)

    dp = sub.add_parser("degeneracy-probe", help="run the degenerate-maximizer probes")
    dp.add_argument("--seed", type=int, default=0)
    dp.add_argument("--count", type=int, default=100, help="logs per logging mode")
    dp.add_argument("--out", default=None)
    dp.set_defaults(func=cmd_degeneracy_probe)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CflearnError, ValueError, OSError) as err:
        print(f"cflearn: error: {err}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
