#!/usr/bin/env python3
"""cflearn benchmark: one workload per process, end-to-end or traced.

Run from the repository root:

    python3 bench/run.py --workload protocol --seed 1 --seconds 24 --trace 0

``--trace 0`` measures the workload untraced and prints the end-to-end
metrics.  ``--trace 1`` follows every untraced round with the same round
traced (every public cflearn function wrapped in a span), then runs the
fixed-shape kernel section, and prints the per-layer metrics.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
The program is imported from ``src/`` under the current directory; without
it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
MISSING_PROGRAM = 2
IMPORT_SAMPLES = 10  # rounds that also time a fresh import of cflearn
IMPORT_PROBE = "import time; t = time.perf_counter(); import cflearn; print(time.perf_counter() - t)"


def blas_thread_cap() -> int:
    """At most two BLAS threads, and never more than the CPUs we may run on."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


def blas_threads_in_use(fallback: int) -> int:
    """Ask the loaded OpenBLAS how many threads it uses; fall back to the cap."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return fallback
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line and ".so" in line}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(handle, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return fallback


def git_commit(root: Path) -> str | None:
    """HEAD commit read straight from .git; None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(src: Path) -> str:
    import hashlib

    digest = hashlib.sha256()
    for path in sorted((src / "cflearn").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def machine_facts(root: Path, src: Path, threads: int) -> dict:
    import numpy as np

    return {
        "git_commit": git_commit(root),
        "source_sha256": source_digest(src),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads_in_use(threads),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def time_import(src: Path) -> float:
    """Seconds a fresh interpreter spends importing cflearn from ``src``."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout)


def run_round(workload, rec) -> None:
    inputs = rec.setup(workload.setup)
    workload.run_round(inputs, rec)
    del inputs  # so the next set-up does not hold two rounds of inputs at once
    rec.end_round()


def run(workload, rec, seconds: float, src: Path, traced=None, tracer=None) -> int:
    """Whole rounds until the measured time of ``rec`` reaches ``seconds``.

    The first IMPORT_SAMPLES rounds also time a fresh import, so that the
    import part of set-up is sampled across the run.  With a tracer, every
    untraced round is followed by the same round traced into ``traced``, so
    both see the same phases of the machine.
    """
    done = 0
    while rec.measured_s < seconds:
        if done < IMPORT_SAMPLES:
            rec.imports.append(time_import(src))
        run_round(workload, rec)
        if tracer is not None:
            tracer.install()
            try:
                run_round(workload, traced)
            finally:
                tracer.uninstall()
        done += 1
    return done


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("protocol", "pipeline", "montecarlo"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    root = Path.cwd()
    src = root / "src"
    if not (src / "cflearn" / "__init__.py").is_file():
        print(f"bench: no cflearn sources under {src}; run from the repository root",
              file=sys.stderr)
        return MISSING_PROGRAM

    threads = blas_thread_cap()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)  # before numpy loads BLAS
    sys.path.insert(0, str(src))
    import cflearn as cf

    if Path(cf.__file__).resolve().parent != (src / "cflearn").resolve():
        print(f"bench: imported cflearn from {cf.__file__}, not from {src}", file=sys.stderr)
        return MISSING_PROGRAM

    from tracer import LAYERS, Tracer
    from workloads import WORKLOADS, Recorder

    out_dir = BENCH_DIR / "out"
    workdir = out_dir / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](cf, args.seed, workdir)
        rec = Recorder()
        tracer = Tracer() if args.trace else None
        traced = Recorder(tracer)
        rounds = run(workload, rec, args.seconds, src, traced, tracer)
        wall_s = statistics.median(rec.round_walls)
        stage_metrics = workload.report(rec)
        attempted = rec.attempted + traced.attempted
        failed = rec.failed + traced.failed
        problems = rec.problems + traced.problems

        if tracer is None:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = {
                "setup_s": (statistics.median(rec.imports) + statistics.median(rec.setups), "s"),
                "wall_s": (wall_s, "s"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
            }
        else:
            tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.npz")
            metrics = {"trace.overhead_s": (statistics.median(traced.round_walls) - wall_s, "s")}
            totals = tracer.layer_totals()
            for layer in LAYERS:
                self_s, calls = totals[layer]
                metrics[f"{layer}.self_s"] = (self_s, "s")
                metrics[f"{layer}.calls"] = (calls, "count")
            from kernels import run_kernels

            metrics.update(run_kernels(cf, args.seed, workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    facts = machine_facts(root, src, threads)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, rounds=rounds, round_walls=rec.round_walls, setups=rec.setups,
                  imports=rec.imports,
                  problems=problems, machine=facts,
                  workload_metrics={k: {"value": v, "unit": u} for k, (v, u) in stage_metrics.items()})
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8"
    )

    print(f"workload {args.workload}, seed {args.seed}, {rounds} rounds, "
          f"{attempted} operations, {failed} failed, correct={result['correct']}")
    for name, (value, unit) in {**stage_metrics, **metrics}.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    print("machine " + json.dumps(facts))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
