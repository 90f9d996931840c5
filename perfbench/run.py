"""Benchmark of the h2ad_doa estimator: three seeded Monte-Carlo workloads.

    python3 perfbench/run.py --workload ref_k16 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1   # every workload in turn
    python3 perfbench/run.py --smoke                   # tiny sizes, name check

Run from the repository root.  Each workload runs in its own fresh
interpreter (``worker.py``) with BLAS pinned to one thread and the
package imported from ``src``.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer ones from a run that records a span
around every layer call.  The gated metric names and units are read from
``BENCHMARK.json``.  Set-up time is the median over ``SETUP_SAMPLES``
fresh processes, half spawned before the measured run and half after it,
each timed from just before it is spawned to the moment its first timed
trial would start.

Every metric is printed by name with its unit; the last stdout line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The exit
code is 1 when a correctness check fails and 2 when the package cannot be
found or a worker does not finish.  Full results, with the environment
stamp, failure taxonomy, digests and checks, go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
WORKER = os.path.join(BENCH_DIR, "worker.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
#: Fresh processes whose set-up is timed; the CPU speed drifts over
#: seconds, so they straddle the measured run to sample more than one state.
SETUP_SAMPLES = 11
SETUP_TIMEOUT_S = 60.0

#: Printed and recorded beside the end-to-end metrics but not gated.  On a
#: shared 2-vCPU Xeon the CPU runs up to 1.7x slower for seconds to
#: minutes at a time, so the wall-clock latencies and the throughput of
#: runs minutes apart differ by more than any useful bound.  The gated
#: latency is trial_ref_p50, each trial's time over that of a reference
#: kernel run beside it (see worker.reference_seconds); its p90 picks up
#: the moments when the host changes speed between a trial and the kernel
#: runs around it.  rmse_deg rests on 100 trials on deep_k64 and wide_q5
#: (spread up to 0.2) and the shares are 0 on most workloads.  The
#: worker's correctness gate holds rmse_deg, outlier_share and the failure
#: share under fixed per-workload ceilings instead.
REPORTED = {
    "trials_per_s": "1/s",
    "trial_ms_p50": "ms",
    "trial_ms_p90": "ms",
    "trial_ref_p90": "ref",
    "reference_ms": "ms",
    "rmse_deg": "deg",
    "failed_share": "share",
    "outlier_share": "share",
    "inlier_share": "share",
    "inlier_rmse_deg": "deg",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = SRC + os.pathsep + BENCH_DIR
    return env


def spawn(args: list[str], timeout: float) -> tuple[float, dict]:
    """Run the worker; returns the monotonic spawn time and its JSON line."""
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, *args], env=child_env(), cwd=ROOT,
            capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"worker {' '.join(args)} timed out after {timeout:.0f} s") from err
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} failed:\n{proc.stderr.strip()}")
    return spawned, json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    base = ["--workload", name, "--seed", str(seed)]
    setups, imports = [], []

    def time_setups(count: int) -> None:
        for _ in range(count):
            spawned, info = spawn(base + ["--setup-only"], SETUP_TIMEOUT_S)
            setups.append(info["ready_at"] - spawned)
            imports.append(info["imported_at"] - spawned)

    time_setups(SETUP_SAMPLES // 2)
    extra = ["--smoke"] if smoke else []
    # The measured loop, plus training and side runs of about as long again.
    spawned, result = spawn(
        base + ["--seconds", str(seconds), "--trace", str(trace)] + extra,
        2 * seconds + 60.0,
    )
    setups.append(result["ready_at"] - spawned)
    imports.append(result["imported_at"] - spawned)
    time_setups(SETUP_SAMPLES - len(setups))
    result["setup_samples_s"] = setups
    metrics = result["metrics"]
    if trace:
        metrics["cli.import_s"] = statistics.median(imports)
    else:
        metrics["setup_s"] = statistics.median(setups)
    result.update(workload=name, seed=seed, seconds=seconds, trace=trace,
                  commit=commit_id())
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = "smoke" if smoke else f"seed{seed}"
    with open(os.path.join(OUT_DIR, f"{name}.{tag}.trace{trace}.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    return result


def commit_id() -> str | None:
    """HEAD of the checkout when it is a git work tree, else None."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None


def report(result: dict, trace: int) -> dict:
    """Print every metric with its unit; return the gated ones."""
    units = PER_LAYER if trace else {**END_TO_END, **REPORTED}
    gated = PER_LAYER if trace else END_TO_END
    name = result["workload"]
    metrics = result["metrics"]
    for metric, unit in units.items():
        if metric in metrics:
            print(f"{name} {metric} = {metrics[metric]:.6g} {unit}")
    if not trace:
        print(f"{name} latency samples = {result['latency_samples']}")
        print(f"{name} estimates sha256 = {metrics['estimates_sha256']} "
              f"over {metrics['pool_trials']} trials")
    print(f"{name} failures = {json.dumps(result['failures'])}")
    print(f"{name} checks = {json.dumps(result['checks'])}")
    return {m: {"value": metrics[m], "unit": u} for m, u in gated.items()}


def smoke() -> int:
    """Every workload at tiny size, both run kinds; names must match the spec."""
    problems = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        for name in WORKLOADS:
            result = run_workload(name, 1, 0.5, trace, smoke=True)
            try:
                report(result, trace)
            except KeyError as err:
                problems.append(f"{name} trace={trace}: {key} metric {err} not emitted")
            if not result["correct"]:
                problems.append(f"{name} trace={trace}: correctness check failed")
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print("smoke: ok" if not problems else "smoke: FAILED")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "h2ad_doa", "__init__.py")):
        print(f"benchmark: no h2ad_doa package under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if not args.workload:
            parser.error("--workload is required")
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = [run_workload(n, args.seed, args.seconds, args.trace, False) for n in names]
    except BenchError as err:
        print(f"benchmark: {err}", file=sys.stderr)
        return 2
    metrics = {}
    for result in results:
        gated = report(result, args.trace)
        if len(results) > 1:
            gated = {f"{result['workload']}.{m}": v for m, v in gated.items()}
        metrics.update(gated)
    correct = all(r["correct"] for r in results) and all(
        math.isfinite(v["value"]) for v in metrics.values()
    )
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
