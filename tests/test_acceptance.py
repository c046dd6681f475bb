"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  Every run is fully seeded, so these results are deterministic.
"""

import time
from pathlib import Path

import numpy as np
import pytest
import yaml

import cflearn as cf
from cflearn.cli import main, run_probe_suite
from cflearn.domain import Mode
from cflearn.gradients import FD_TOLERANCE, run_grad_check


def finish(name: str, started: float, budget: float) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"{name} took {elapsed:.1f}s, budget {budget}s"
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.1f}s)")


def test_criterion_1_gradient_correctness():
    started = time.perf_counter()
    results = run_grad_check(seed=2024, count=100, n_max=10, k_max=5, d_max=6)
    assert len(results) == 3
    for res in results:
        assert res.failures == 0, f"{res.family} had {res.failures} failures"
        assert res.max_rel_error < FD_TOLERANCE, f"{res.family}: {res.max_rel_error}"
    finish("1 gradient-correctness", started, budget=10.0)


def test_criterion_2_theorem1_probe():
    started = time.perf_counter()
    results = [r for _, r in run_probe_suite(seed=0, count=50) if r.theorem == "all-mass-maximizer"]
    assert len(results) == 100
    assert sum(r.skipped for r in results) == 0, "generated logs must satisfy delta > 0"
    violations = [r for r in results if not r.holds]
    assert not violations, f"{len(violations)} theorem-1 violations"
    finish("2 theorem-1-probe", started, budget=10.0)


def test_criterion_3_theorem2_probe():
    started = time.perf_counter()
    results = [r for _, r in run_probe_suite(seed=0, count=50) if r.theorem == "dmax-collapse"]
    assert len(results) == 100
    assert sum(r.skipped for r in results) == 0, "generated logs must have a nontrivial rest set"
    violations = [r for r in results if not r.holds]
    assert not violations, f"{len(violations)} theorem-2 violations"
    finish("3 theorem-2-probe", started, budget=10.0)


def test_criterion_4_ips_unbiasedness():
    started = time.perf_counter()
    spec = cf.TaskSpec(
        num_instances=50, k=5, d=8, seed=123, reward_noise=0.0,
        logger_quality=0.5, logging_mode=Mode.STOCHASTIC,
    )
    instances, truth, logger = cf.generate_task(spec)
    target = cf.PolicyParams(np.random.default_rng(7).standard_normal(8) * 0.5, alpha=1.0)
    exact = cf.evaluate_truth(target, instances, truth)
    repeats = 2000
    values = np.empty(repeats)
    for r in range(repeats):
        log = cf.roll_log(instances, truth, logger, rng=50_000 + r)
        values[r] = cf.value_ips_dpm(target, log)
    error = abs(values.mean() - exact)
    bound = 3.0 * values.std(ddof=1) / np.sqrt(repeats)
    assert error <= bound, f"|mean - exact| = {error:.6f} > {bound:.6f}"
    finish("4 ips-unbiasedness", started, budget=30.0)


def test_criterion_5_degeneracy_dynamics():
    started = time.perf_counter()
    spec = cf.TaskSpec(num_instances=20, k=5, d=10, seed=0, reward_noise=0.0, logger_quality=0.6)
    base = dict(learning_rate=0.1, epochs=2000, batch_size="full", seed=0, alpha=1.0)
    unstopped = cf.collapse_run(
        spec, cf.TrainConfig(kind=cf.EstimatorKind.DPM_R, early_stop_patience=0, **base), with_truth=False
    )
    final_mass = unstopped.records[-1].mass_on_dmax
    assert len(unstopped.records) <= 2000
    assert final_mass > 0.9, f"unregularized run reached only mass {final_mass:.3f}"

    stopped = cf.collapse_run(
        spec, cf.TrainConfig(kind=cf.EstimatorKind.DPM_R, early_stop_patience=10, **base), with_truth=False
    )
    assert stopped.stopped_early
    assert len(stopped.records) < len(unstopped.records)
    assert stopped.records[-1].mass_on_dmax < final_mass
    finish("5 degeneracy-dynamics", started, budget=60.0)


# -- criterion 6: qualitative reproduction of the reported estimator ordering --

PROTOCOL = dict(noise=0.1, lr=0.5, epochs=150, patience=10, ridge=1e-3, alpha=1.0)
TIE_TOLERANCE = 1e-3


def protocol_median_improvements(tasks: int = 10) -> dict[str, float]:
    det_kinds = [cf.EstimatorKind.DPM_R, cf.EstimatorKind.DC, cf.EstimatorKind.CDC]
    sto_kinds = [cf.EstimatorKind.IPS_R, cf.EstimatorKind.DR, cf.EstimatorKind.CDR]
    improvements: dict[cf.EstimatorKind, list[float]] = {k: [] for k in det_kinds + sto_kinds}
    for task_seed in range(tasks):
        for mode, kinds in ((Mode.DETERMINISTIC, det_kinds), (Mode.STOCHASTIC, sto_kinds)):
            spec = cf.TaskSpec(
                num_instances=2000, k=20, d=50, seed=task_seed,
                reward_noise=PROTOCOL["noise"], logger_quality=0.6, logging_mode=mode,
            )
            instances, truth, logger = cf.generate_task(spec)
            log = cf.roll_log(instances, truth, logger, rng=task_seed + 10_000)
            train_log, val_log, test_log = cf.split(log, (0.5, 0.25, 0.25), seed=task_seed)
            baseline = cf.evaluate_truth(logger.params, test_log, truth)
            for kind in kinds:
                config = cf.TrainConfig(
                    kind=kind,
                    learning_rate=PROTOCOL["lr"],
                    epochs=PROTOCOL["epochs"],
                    batch_size="full",
                    seed=task_seed,
                    early_stop_patience=PROTOCOL["patience"],
                    ridge_lambda=PROTOCOL["ridge"],
                    alpha=PROTOCOL["alpha"],
                )
                params, _ = cf.train(config, train_log, val_log)
                learned = cf.evaluate_truth(params, test_log, truth)
                improvements[kind].append(learned - baseline)
    return {kind.value: float(np.median(vals)) for kind, vals in improvements.items()}


def test_criterion_6_estimator_ordering():
    started = time.perf_counter()
    med = protocol_median_improvements(tasks=10)
    print("  median improvements:", {k: round(v, 4) for k, v in med.items()})
    assert med["cdc"] >= med["dc"] - TIE_TOLERANCE
    assert med["dc"] >= med["dpm-r"] - TIE_TOLERANCE
    assert med["dpm-r"] >= -TIE_TOLERANCE
    assert med["cdr"] >= med["ips-r"] - TIE_TOLERANCE
    assert med["dr"] >= med["ips-r"] - TIE_TOLERANCE
    finish("6 estimator-ordering", started, budget=300.0)


def test_criterion_7_identity_suite(rng):
    started = time.perf_counter()

    # DPM equals IPS once every propensity is 1
    from conftest import random_log

    for _ in range(20):
        det = random_log(rng, int(rng.integers(1, 9)), 3, 2, Mode.DETERMINISTIC)
        sto = cf.Log(
            tuple(cf.LoggedTuple(t.instance, t.chosen, t.reward, 1.0) for t in det.tuples),
            Mode.STOCHASTIC,
        )
        params = cf.PolicyParams(rng.standard_normal(2))
        assert cf.value_ips_dpm(params, det) == cf.value_ips_dpm(params, sto)

    # zero control scalar reduces the controlled value and gradient bit-for-bit
    log = random_log(rng, 8, 4, 3, Mode.DETERMINISTIC)
    params = cf.PolicyParams(rng.standard_normal(3))
    model = cf.RewardModel(rng.standard_normal(3), intercept=0.4, ridge_lambda=0.0)
    assert cf.value_doubly_controlled(params, log, model, 0.0) == cf.value_reweighted(params, log)
    np.testing.assert_array_equal(
        cf.grad_doubly_controlled(params, log, model, 0.0), cf.grad_reweighted(params, log)
    )

    # control scalar: exactly 1 on a perfect model, 0 on a constant control
    # variate (constant predictor under uniform weights, where rho_bar == 1)
    tuples = []
    for i in range(10):
        reward = float(rng.uniform(0.1, 0.9))
        feats = np.array([[reward], [reward / 2]])
        tuples.append(cf.LoggedTuple(cf.Instance(f"c{i}", feats), 0, reward))
    reward_log = cf.Log(tuple(tuples), Mode.DETERMINISTIC)
    perfect = cf.RewardModel(np.array([1.0]), intercept=0.0, ridge_lambda=0.0)
    constant = cf.RewardModel(np.array([0.0]), intercept=0.5, ridge_lambda=0.0)
    assert cf.estimate_c_hat(cf.PolicyParams(rng.standard_normal(1)), reward_log, perfect).c_hat == 1.0
    assert cf.estimate_c_hat(cf.PolicyParams(np.zeros(1)), reward_log, constant).c_hat == 0.0

    # softmax normalization and the score-function identity
    for _ in range(50):
        k, d = int(rng.integers(2, 6)), int(rng.integers(1, 5))
        inst = cf.Instance("x", rng.standard_normal((k, d)) * 2)
        params = cf.PolicyParams(rng.standard_normal(d) * 3, alpha=float(rng.uniform(0.2, 10)))
        probs = cf.policy_probs(params, inst)
        assert abs(probs.sum() - 1.0) <= 1e-12
        identity = sum(probs[y] * cf.log_prob_gradient(params, inst, y) for y in range(k))
        np.testing.assert_allclose(identity, 0.0, atol=1e-9)

    finish("7 identity-suite", started, budget=5.0)


def test_criterion_8_cli_reproducibility(tmp_path):
    started = time.perf_counter()
    config_path = tmp_path / "config.yaml"
    config_path.write_text(
        yaml.safe_dump(
            {
                "task": {
                    "num_instances": 60,
                    "k": 4,
                    "d": 6,
                    "seed": 17,
                    "reward_noise": 0.05,
                    "logger_quality": 0.6,
                    "logging_mode": "stochastic",
                },
                "train": {
                    "kind": "cdr",
                    "learning_rate": 0.2,
                    "epochs": 12,
                    "batch_size": 8,
                    "seed": 5,
                    "early_stop_patience": 3,
                },
                "splits": [0.5, 0.25, 0.25],
                "split_seed": 4,
                "output_dir": str(tmp_path / "unused"),
            }
        )
    )

    def run_all(base: Path) -> list[Path]:
        gen = base / "gen"
        run = base / "run"
        rep = base / "rep"
        checks = base / "checks"
        assert main(["generate-log", "--config", str(config_path), "--out", str(gen)]) == 0
        assert main(
            ["train", "--config", str(config_path), "--log", str(gen / "train.jsonl"),
             "--validation", str(gen / "validation.jsonl"), "--out", str(run)]
        ) == 0
        assert main(
            ["evaluate", "--params", str(run / "params.json"),
             "--model", str(run / "reward_model.json"),
             "--log", str(gen / "validation.jsonl"), "--log", str(gen / "test.jsonl"),
             "--truth", str(gen / "truth.json"), "--out", str(rep)]
        ) == 0
        assert main(["grad-check", "--seed", "3", "--count", "5", "--out", str(checks)]) == 0
        assert main(["degeneracy-probe", "--seed", "3", "--count", "3", "--out", str(checks)]) == 0
        return sorted(p for p in base.rglob("*") if p.is_file())

    first = run_all(tmp_path / "a")
    second = run_all(tmp_path / "b")
    names_a = [p.relative_to(tmp_path / "a") for p in first]
    names_b = [p.relative_to(tmp_path / "b") for p in second]
    assert names_a == names_b and len(names_a) >= 9
    for pa, pb in zip(first, second):
        assert pa.read_bytes() == pb.read_bytes(), f"{pa.name} differs between reruns"
    finish("8 cli-reproducibility", started, budget=60.0)
