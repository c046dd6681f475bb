"""The benchmark still runs against the current package and checks its outputs.

Runs ``bench/run.py`` from the repository root for a fraction of a second per
workload, and one traced ``montecarlo`` run (about 5 s); a change to the
package's API that the benchmark relies on fails here.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_bench(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, done.stdout
    assert result["failed"] == 0, done.stdout
    return result


@pytest.mark.parametrize("workload", ["montecarlo", "pipeline", "protocol"])
def test_workload_runs_correct_with_no_failures(workload):
    run_bench(workload, trace=0)


def test_traced_run_times_every_kernel():
    # only a traced run calls bench/kernels.py, which binds the estimator
    # wrappers, Log(tuples, mode) and cli.probe_tasks
    metrics = run_bench("montecarlo", trace=1)["metrics"]
    for name in ("estimators.rho_weights_ms", "estimators.diagnostics_ms", "gradients.grad_ips_dpm_ms",
                 "reward.estimate_c_hat_ms", "degeneracy.probe_theorem1_ms"):
        assert metrics[name]["value"] > 0.0, name
