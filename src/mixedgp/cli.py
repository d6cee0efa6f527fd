"""Command-line interface.

Subcommand groups:

* ``corr build`` prints a cross-correlation matrix as CSV.
* ``design generate / validate`` create and check designs.
* ``testbed list / positions / corr`` inspect the benchmark functions.
* ``bench run / summarize / corr-rmse / q2 / validate-config`` drive
  the simulation study.

``main`` first runs numpy's and scipy's OpenBLAS on one thread unless
the user has set a thread variable (:func:`pin_blas_threads`); importing
the package changes no thread setting.
"""

import argparse
import ctypes
import os
import sys

import numpy as np

from . import bench as bench_mod
from . import design as design_mod
from . import testbed as testbed_mod
from .corrparam import FamilySpec, build_correlation
from .errors import MixedGPError


THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# The thread setters of numpy's OpenBLAS (64-bit integer build) and of scipy's.
_BLAS_THREAD_SETTERS = ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads")


def pin_blas_threads() -> None:
    """Run the OpenBLAS libraries loaded in this process on one thread.

    Does nothing when any of ``THREAD_VARS`` is set: the user chose.
    The fits work on matrices of a few dozen rows, where a second BLAS
    thread doubles a fit's CPU time without shortening it. The
    libraries are found, as threadpoolctl finds them, among the
    OpenBLAS files mapped into the process (``/proc/self/maps``);
    without that file, or without OpenBLAS, nothing changes. Process
    pools forked afterwards (``bench run --jobs``) inherit the setting.
    """
    if any(var in os.environ for var in THREAD_VARS):
        return
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split(maxsplit=5)[-1].strip() for line in fh}
    except OSError:
        return
    for path in sorted(p for p in paths if "openblas" in os.path.basename(p)):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _BLAS_THREAD_SETTERS:
            setter = getattr(lib, name, None)
            if setter is not None:
                setter.argtypes = [ctypes.c_int]
                setter.restype = None
                setter(1)


def _print_matrix_csv(matrix: np.ndarray) -> None:
    for row in np.asarray(matrix):
        sys.stdout.write(",".join(repr(float(v)) for v in row) + "\n")


def _parse_numbers(raw: str, option: str, kind=float) -> list:
    """The comma- or space-separated numbers of ``option``'s value ``raw``."""
    try:
        return [kind(tok) for tok in raw.replace(",", " ").split()]
    except ValueError:
        noun = "numbers" if kind is float else "integers"
        raise MixedGPError(f"{option}: expected comma-separated {noun}, got {raw!r}") from None


def _read_file(path, read):
    """``read(path)``, with a missing, unreadable or malformed file
    reported as a ``MixedGPError`` that names it."""
    try:
        return read(path)
    except MixedGPError:
        raise
    except OSError as exc:
        raise MixedGPError(f"{path}: cannot read ({exc.strerror or exc})") from None
    except ValueError as exc:
        raise MixedGPError(f"{path}: {exc}") from None


def _cmd_corr_build(args) -> int:
    spec = FamilySpec(args.family.strip().upper(), args.s, args.rank)
    params = np.array(_parse_numbers(args.params, "--params"), dtype=float)
    matrix = build_correlation(spec, params, nugget=args.nugget)
    _print_matrix_csv(matrix.values)
    return 0


def _cmd_design_generate(args) -> int:
    if args.s == 1:
        d = design_mod.lhd(args.n, args.q, args.seed, centered=args.centered)
    else:
        d, _ = design_mod.cslhd(args.n, args.s, args.q, args.seed, centered=args.centered)
    if args.bounds:
        bounds = _parse_numbers(args.bounds, "--bounds")
        if len(bounds) != 2 * args.q:
            raise MixedGPError(f"--bounds: expected 2q = {2 * args.q} values, got {len(bounds)}")
        bounds = np.array(bounds, dtype=float).reshape(args.q, 2)
        d = design_mod.scale_to_bounds(d, bounds)
    design_mod.to_csv(d, args.out)
    print(f"wrote {d.n_total} points ({d.s} slice(s)) to {args.out}")
    return 0


def _cmd_design_validate(args) -> int:
    design, clusters = _read_file(args.file, design_mod.from_csv)
    print(
        f"{args.file}: valid design with s={design.s}, n={design.n_per_slice}, "
        f"q={design.q}, {int(clusters.assignment.max())} cluster(s)"
    )
    return 0


def _cmd_testbed_list(args) -> int:
    for fn in testbed_mod.make_benchmark_suite():
        upended = ",".join(str(i) for i in sorted(fn.upended)) or "-"
        print(f"{fn.fid}\tbase={fn.base.name}\ts={fn.s}\tupended={upended}")
    return 0


def _cmd_testbed_positions(args) -> int:
    base = testbed_mod.get_function(args.fn)
    fn = testbed_mod.make_sliced(base, args.s)
    print(", ".join(f"{p:.2f}" for p in fn.positions))
    return 0


def _cmd_testbed_corr(args) -> int:
    base = testbed_mod.get_function(args.fn)
    upend = _parse_numbers(args.upend, "--upend", int) if args.upend else ()
    fn = testbed_mod.make_sliced(base, args.s, upend=upend)
    est = testbed_mod.empirical_cross_corr(fn, resolution=args.resolution)
    _print_matrix_csv(est.matrix)
    return 0


def _cmd_bench_run(args) -> int:
    cfg = bench_mod.load_config(args.config)
    records = bench_mod.run_experiment(cfg, args.out, jobs=args.jobs)
    failed = sum(1 for r in records if r.status == "failed")
    print(f"wrote {len(records)} records to {args.out}/records.csv ({failed} failed fits)")
    return 1 if failed else 0


def _cmd_bench_summarize(args) -> int:
    records = _read_file(args.records, bench_mod.read_records_csv)
    rows = bench_mod.summarize(records)
    out = args.out or "summary.csv"
    bench_mod.write_csv(out, bench_mod.SummaryRow, rows)
    print(f"wrote {len(rows)} summary rows to {out}")
    return 0


def _read_matrix_csv(path) -> np.ndarray:
    return _read_file(path, lambda p: np.loadtxt(p, delimiter=",", ndmin=2))


def _cmd_bench_corr_rmse(args) -> int:
    estimated = _read_matrix_csv(args.estimated)
    empirical = _read_matrix_csv(args.empirical)
    print(repr(bench_mod.rmse_corr(estimated, empirical)))
    return 0


def _cmd_bench_q2(args) -> int:
    data = _read_file(args.data, lambda p: np.loadtxt(p, delimiter=",", skiprows=1, ndmin=2))
    if data.shape[1] != 2:
        raise MixedGPError(f"{args.data}: expected 2 columns y_true,y_pred, got {data.shape[1]}")
    print(repr(bench_mod.q_squared(data[:, 0], data[:, 1])))
    return 0


def _cmd_bench_validate_config(args) -> int:
    issues = bench_mod.validate_config(args.config)
    if not issues:
        print(f"{args.config}: ok")
        return 0
    for issue in issues:
        print(f"{args.config}: {issue}", file=sys.stderr)
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixedgp",
        description="Gaussian process regression toolkit for mixed continuous and categorical inputs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    corr = sub.add_parser("corr", help="cross-correlation matrices").add_subparsers(
        dest="subcommand", required=True
    )
    p = corr.add_parser("build", help="build a matrix from parameters, print CSV")
    p.add_argument("--family", required=True, help="EC, MC, UC or LRC")
    p.add_argument("--s", type=int, required=True, help="number of levels")
    p.add_argument("--params", required=True, help="comma-separated parameter values")
    p.add_argument("--rank", type=int, default=None, help="rank (LRC only)")
    p.add_argument("--nugget", type=float, default=1e-8)
    p.set_defaults(func=_cmd_corr_build)

    design = sub.add_parser("design", help="space-filling designs").add_subparsers(
        dest="subcommand", required=True
    )
    p = design.add_parser("generate", help="draw an LHD (s=1) or CSLHD and write CSV")
    p.add_argument("--n", type=int, required=True, help="points per slice")
    p.add_argument("--s", type=int, default=1, help="number of slices")
    p.add_argument("--q", type=int, required=True, help="continuous dimensions")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--centered", action="store_true", help="midpoints instead of jitter")
    p.add_argument("--bounds", default=None,
                   help="2q comma-separated values l1,u1,...,lq,uq for problem-coordinate columns")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_design_generate)
    p = design.add_parser("validate", help="validate a design CSV file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_design_validate)

    testbed = sub.add_parser("testbed", help="sliced benchmark functions").add_subparsers(
        dest="subcommand", required=True
    )
    p = testbed.add_parser("list", help="list the benchmark suite")
    p.set_defaults(func=_cmd_testbed_list)
    p = testbed.add_parser("positions", help="print slice positions")
    p.add_argument("--fn", required=True)
    p.add_argument("--s", type=int, required=True)
    p.set_defaults(func=_cmd_testbed_positions)
    p = testbed.add_parser("corr", help="empirical cross-correlation matrix as CSV")
    p.add_argument("--fn", required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--upend", default=None, help="comma-separated slice indices")
    p.add_argument("--resolution", type=int, default=100)
    p.set_defaults(func=_cmd_testbed_corr)

    bench = sub.add_parser("bench", help="simulation study").add_subparsers(
        dest="subcommand", required=True
    )
    p = bench.add_parser("run", help="run an experiment from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=_cmd_bench_run)
    p = bench.add_parser("summarize", help="recompute summary.csv from records.csv")
    p.add_argument("--records", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_bench_summarize)
    p = bench.add_parser("corr-rmse", help="RMSE between two matrix CSV files")
    p.add_argument("--estimated", required=True)
    p.add_argument("--empirical", required=True)
    p.set_defaults(func=_cmd_bench_corr_rmse)
    p = bench.add_parser("q2", help="Q^2 from a CSV with columns y_true,y_pred")
    p.add_argument("--data", required=True)
    p.set_defaults(func=_cmd_bench_q2)
    p = bench.add_parser("validate-config", help="check a config file")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_bench_validate_config)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    pin_blas_threads()
    try:
        return args.func(args)
    except MixedGPError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
