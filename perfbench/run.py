"""Benchmark of the mixedgp package: one workload, one seed, one run.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload study_upended --seed 1 --seconds 44 --trace 0

Every run isolates itself: set-up and the timed passes happen in fresh
worker processes (``get_testbed_function`` is cached per process), each
with its own empty cache directory under ``.perfbench/`` (the disk-cache
key ignores testbed code, so a shared directory could serve another
commit's files) and with BLAS pinned to one thread.

With ``--trace 0`` the last line of standard output holds the
end-to-end metrics named in BENCHMARK.json; ``setup_s`` is the median
over SETUP_SAMPLES fresh processes, and the throughputs are scaled to
the reference host speed (calibration.py). With ``--trace 1`` it holds the
per-layer metrics, and the spans are written to
``.perfbench/trace-<workload>-seed<seed>.jsonl.gz``. The line before it
records the environment, the failure base and the run's details. A run
whose correctness checks fail prints the failures and no numbers, and
exits with 1.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

SETUP_SAMPLES = 5
TIME_LIMIT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
HERE = os.path.dirname(os.path.abspath(__file__))


class BenchError(Exception):
    pass


def git_commit(root):
    """Commit of the checkout, read from .git without leaving the checkout."""
    try:
        with open(os.path.join(root, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(root, ".git", head[5:]), encoding="utf-8") as fh:
                head = fh.read().strip()
        return head
    except OSError:
        return "unknown"


def spawn(args, run_dir, deadline, extra=()):
    """Run one worker to completion and return its JSON result."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time limit reached before a worker could start")
    env = dict(os.environ, PYTHONHASHSEED="0", **{var: "1" for var in THREAD_VARS})
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--run-dir", run_dir, "--spawn-time", repr(time.monotonic()), *extra]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError("worker exceeded the time limit") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def end_to_end(out, setup_samples):
    seconds = out["seconds"] / out["host_scale"]
    return dict(
        out["quality"],
        setup_s=statistics.median(setup_samples),
        fits_per_s=out["completed"] / seconds,
        pred_pts_per_s=out["points"] / seconds,
        peak_rss_mb=out["peak_rss_mb"],
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    root = os.getcwd()
    try:
        with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
    except OSError as exc:
        print(f"perfbench: run from the repository root: {exc}", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(root, "src", "mixedgp", "__init__.py")):
        print("perfbench: no src/mixedgp package in the current directory", file=sys.stderr)
        return 2
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    base = os.path.join(root, ".perfbench")
    os.makedirs(base, exist_ok=True)
    run_root = tempfile.mkdtemp(prefix=f"run-{args.workload}-", dir=base)
    trace_file = os.path.join(base, f"trace-{args.workload}-seed{args.seed}.jsonl.gz")
    try:
        setups = []
        if not args.trace:
            for k in range(SETUP_SAMPLES - 1):
                setups.append(spawn(args, os.path.join(run_root, f"setup{k}"), deadline,
                                    ["--setup-only"]))
        out = spawn(args, os.path.join(run_root, "main"), deadline,
                    ["--trace-file", trace_file] if args.trace else [])
        setups.append(out)
        setup_samples = [s["setup_s"] for s in setups]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_root, ignore_errors=True)

    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": out["passes"], "timed_cpu_s": out["seconds"],
        "timed_wall_s": out["wall_seconds"],
        "ref_rates": out["ref_rates"], "host_scale": out["host_scale"],
        "failed_frac": out["failed"] / out["attempted"],
        "failed_frac_base": f"{out['failed']} failed of {out['attempted']} "
                            + ("fits" if args.workload != "predict_grid" else "model loads"),
        "setup_cpu_s": setup_samples,
        "setup_wall_s": [s["setup_wall_s"] for s in setups],
        "environment": dict(
            out["environment"], python=platform.python_version(),
            cpu_count=os.cpu_count(), commit=git_commit(root)),
    }
    print(json.dumps(details))

    result = {"correct": not out["errors"], "attempted": out["attempted"],
              "failed": out["failed"], "metrics": {}}
    if out["errors"]:
        for err in out["errors"]:
            print(f"perfbench: check failed: {err}", file=sys.stderr)
        print(json.dumps(result))
        return 1
    values = out["per_layer"] if args.trace else end_to_end(out, setup_samples)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 1
    result["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                         for m in wanted}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
