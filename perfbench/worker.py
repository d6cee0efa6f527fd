"""One fresh benchmark process: set up a workload, then run its passes.

Started by run.py, never imported. It prints one JSON line at the end.
With --setup-only it stops once set-up is done; run.py starts several
such processes to take the median of the set-up time.
"""

import os
import sys
import time

# Pin BLAS to one thread before numpy can be imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402


def environment():
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        blas = "unknown"
    return {"numpy": np.__version__, "scipy": scipy.__version__, "blas": blas,
            **{var: os.environ[var] for var in THREAD_VARS}}


def measure(workload, seconds):
    """Whole passes filling about ``seconds``: the first one sets how many.

    The passes sample the host's speed between their operations; one
    more sample after the last one brackets them.
    """
    from workloads import Result

    result = Result(calibrate=True)
    start = time.perf_counter()
    workload.run_pass(result)
    result.passes = max(1, round(seconds / (time.perf_counter() - start)))
    for _ in range(result.passes - 1):
        workload.run_pass(result)
    result.sample_host()
    return result


def traced_metrics(workload, tracer, seed):
    """One untraced and one traced pass, then the single-layer timings."""
    import layers
    from workloads import Result

    setup_spans = list(tracer.spans)
    tracer.uninstall()
    untraced = Result()
    workload.run_pass(untraced)
    tracer.install()
    mark = tracer.mark()
    traced = Result()
    workload.run_pass(traced)
    tracer.uninstall()
    metrics = layers.span_metrics(setup_spans, tracer.spans[mark:])
    metrics.update(layers.micro_metrics(seed))
    metrics["trace.overhead_frac"] = (traced.seconds - untraced.seconds) / untraced.seconds
    traced.passes = 2
    traced.attempted += untraced.attempted
    traced.failed += untraced.failed
    traced.errors += untraced.errors
    return traced, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--spawn-time", type=float, required=True,
                        help="time.monotonic() of the parent just before it started us")
    parser.add_argument("--trace-file")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import calibration
    import workloads
    from tracing import Tracer

    workload = workloads.make(args.workload, args.run_dir, args.seed)
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    workload.setup()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    # Set-up is charged this process's CPU time since it started, for the
    # reason the timed sections are (see workloads.py); its wall time from
    # just before the parent started it is kept beside it.
    out = {"setup_s": usage.ru_utime + usage.ru_stime,
           "setup_wall_s": time.monotonic() - args.spawn_time}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    if tracer:
        result, out["per_layer"] = traced_metrics(workload, tracer, args.seed)
        tracer.write(args.trace_file)
    else:
        result = measure(workload, args.seconds)
    out.update(
        seconds=result.seconds, wall_seconds=result.wall_seconds, passes=result.passes,
        attempted=result.attempted, failed=result.failed, completed=result.completed, points=result.points,
        quality=result.quality, errors=result.errors, ref_rates=result.ref_rates,
        host_scale=(calibration.REF_RATE / statistics.fmean(result.ref_rates)
                    if result.ref_rates else 1.0),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        environment=environment(),
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
