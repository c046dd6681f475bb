"""Fixed-shape kernel section of the traced run.

Times single calls into each layer at fixed shapes, untraced, against a
numpy floor measured in the same process: one ``feats @ w`` pass over the
(1000, 20, 50) feature tensor of a stochastic train log drawn from a task
with n=2000, k=20, d=50.  Every timing is the median of several repeats.
"""

from __future__ import annotations

import statistics
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

KINDS = ("ips", "dpm", "ips-r", "dpm-r", "dr", "dc", "cdr", "cdc")
EPOCHS = 10            # epochs per timed train call in training.epoch_ms.<kind>
MINIBATCH_EPOCHS = 4
REPEATS = 5


def _median_s(fn, repeats: int = REPEATS, inner: int = 1, warm: bool = True) -> float:
    """Median seconds per call of ``fn`` over ``repeats`` batches of ``inner`` calls."""
    if warm:
        fn()
    samples = []
    for _ in range(repeats):
        began = perf_counter()
        for _ in range(inner):
            fn()
        samples.append((perf_counter() - began) / inner)
    return statistics.median(samples)


def _task(cf, seed: int, mode: str):
    spec = cf.TaskSpec(
        num_instances=2000, k=20, d=50, seed=seed, reward_noise=0.1,
        logger_quality=0.6, logging_mode=cf.Mode(mode),
    )
    instances, truth, logger = cf.generate_task(spec)
    log = cf.roll_log(instances, truth, logger, rng=seed + 10_000)
    return spec, instances, truth, logger, log


def _epoch_ms(cf, config_kw: dict, train_log, val_log, epochs: int) -> float:
    """(train with ``epochs`` epochs - train with 0 epochs) / epochs, in ms."""

    def run(n):
        config = cf.TrainConfig(epochs=n, **config_kw)
        _, trace = cf.train(config, train_log, val_log)
        if len(trace.records) != n:
            raise RuntimeError(f"{config.kind.value}: trained {len(trace.records)} of {n} epochs")

    full = _median_s(lambda: run(epochs), repeats=3)
    empty = _median_s(lambda: run(0), repeats=3)
    return 1e3 * (full - empty) / epochs


def run_kernels(cf, seed: int, workdir: Path) -> dict[str, tuple[float, str]]:
    """Every fixed-shape metric, name -> (value, unit)."""
    from cflearn import cli, serialize

    out: dict[str, tuple[float, str]] = {}

    def ms(name, fn, **kw):
        out[name] = (1e3 * _median_s(fn, **kw), "ms")

    spec, instances, truth, logger, log = _task(cf, seed, "stochastic")
    train_log, val_log, test_log = cf.split(log, (0.5, 0.25, 0.25), seed=seed)
    _, det_instances, det_truth, det_logger, det_log = _task(cf, seed, "deterministic")
    det_train, det_val, _ = cf.split(det_log, (0.5, 0.25, 0.25), seed=seed)

    rng = np.random.default_rng(seed)
    params = cf.PolicyParams(rng.standard_normal(spec.d) * 0.1)
    feats = np.stack([t.instance.candidates for t in train_log.tuples])
    model = cf.fit_reward_model(train_log, 1e-3)
    c_hat = cf.estimate_c_hat(params, train_log, model).c_hat

    ms("floor.tensor_pass_ms", lambda: feats @ params.weights, repeats=21, inner=20)
    out["domain.policy_probs_us"] = (
        1e6 * _median_s(lambda: cf.policy_probs(params, instances[0]), repeats=21, inner=200), "us"
    )
    ms("estimators.rho_weights_ms", lambda: cf.rho_weights(params, train_log), repeats=21, inner=5)
    fresh = iter([cf.Log(train_log.tuples, train_log.mode) for _ in range(REPEATS)])
    ms("estimators.rho_weights_first_ms", lambda: cf.rho_weights(params, next(fresh)), warm=False)
    ms("estimators.value_ips_dpm_ms", lambda: cf.value_ips_dpm(params, train_log), repeats=11, inner=5)
    ms("estimators.value_reweighted_ms", lambda: cf.value_reweighted(params, train_log),
       repeats=11, inner=5)
    ms("estimators.value_doubly_controlled_ms",
       lambda: cf.value_doubly_controlled(params, train_log, model, c_hat), repeats=11, inner=5)
    ms("estimators.diagnostics_ms", lambda: cf.diagnostics(params, train_log), repeats=11, inner=5)
    ms("gradients.grad_ips_dpm_ms", lambda: cf.grad_ips_dpm(params, train_log), repeats=11, inner=5)
    ms("gradients.grad_reweighted_ms", lambda: cf.grad_reweighted(params, train_log),
       repeats=11, inner=5)
    ms("gradients.grad_doubly_controlled_ms",
       lambda: cf.grad_doubly_controlled(params, train_log, model, c_hat), repeats=11, inner=5)
    out["gradients.run_grad_check_s"] = (
        _median_s(lambda: cf.run_grad_check(seed=seed, count=100, n_max=10, k_max=5, d_max=6),
                  repeats=3, warm=False),
        "s",
    )
    ms("reward.fit_reward_model_ms", lambda: cf.fit_reward_model(train_log, 1e-3), repeats=11, inner=5)
    ms("reward.estimate_c_hat_ms", lambda: cf.estimate_c_hat(params, train_log, model),
       repeats=11, inner=5)

    base = dict(learning_rate=0.5, batch_size="full", seed=seed, early_stop_patience=0,
                ridge_lambda=1e-3)
    for kind in KINDS:
        stochastic = cf.EstimatorKind(kind).required_mode is cf.Mode.STOCHASTIC
        tr, va = (train_log, val_log) if stochastic else (det_train, det_val)
        out[f"training.epoch_ms.{kind}"] = (_epoch_ms(cf, dict(base, kind=kind), tr, va, EPOCHS), "ms")
    minibatch = dict(base, kind="cdr", batch_size=100, normalize="batch")
    out["training.epoch_ms.cdr-minibatch"] = (
        _epoch_ms(cf, minibatch, train_log, val_log, MINIBATCH_EPOCHS), "ms"
    )
    test_instances = [t.instance for t in test_log.tuples]
    ms("training.evaluate_truth_ms", lambda: cf.evaluate_truth(params, test_instances, truth))

    ms("simulator.generate_task_ms", lambda: cf.generate_task(spec))
    ms("simulator.roll_log_ms.deterministic",
       lambda: cf.roll_log(det_instances, det_truth, det_logger, rng=seed))
    ms("simulator.roll_log_ms.stochastic", lambda: cf.roll_log(instances, truth, logger, rng=seed))
    ms("simulator.split_ms", lambda: cf.split(log, (0.5, 0.25, 0.25), seed=seed))

    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        path = Path(tmp) / "train.jsonl"
        out["serialize.write_log_s"] = (
            _median_s(lambda: serialize.write_log(path, train_log), repeats=3, warm=False), "s"
        )
        out["serialize.read_log_s"] = (
            _median_s(lambda: serialize.read_log(path), repeats=3, warm=False), "s"
        )
        out["serialize.log_mb"] = (path.stat().st_size / 2**20, "MB")

    _, probe_spec = cli.probe_tasks(seed, 1)[1]  # the stochastic probe log
    p_instances, p_truth, p_logger = cf.generate_task(probe_spec)
    probe_log = cf.roll_log(p_instances, p_truth, p_logger, rng=probe_spec.seed + 1)
    ms("degeneracy.probe_theorem1_ms", lambda: cf.probe_theorem1(probe_log, seed=seed, trials=200))
    ms("degeneracy.probe_theorem2_ms", lambda: cf.probe_theorem2(probe_log, seed=seed, trials=200))
    return out
