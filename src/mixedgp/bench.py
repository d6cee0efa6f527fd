"""Simulation-study harness: designs, fits, scores, CSV outputs.

For each (function, n, replication) cell a clustered sliced LHD is
drawn with seed base_seed + replication (shared across families so
every family sees the identical design), the function is evaluated,
every family is fitted, and two criteria are recorded: the root of the
summed squared gaps between fitted and empirical cross-correlations
over the lower triangle, and Q^2 on a fixed test design repeated over
all levels. Empirical matrices and test sets are computed once per
function and cached on disk.
"""

import concurrent.futures
import configparser
import csv
import os
import tempfile
import time
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone

import numpy as np

from . import design as design_mod
from . import testbed as testbed_mod
from .corrparam import CorrMatrix, FamilySpec, build_correlation
from .errors import (
    ConfigError,
    CriterionUndefinedError,
    MixedGPError,
    ParamArityError,
    ParamDomainError,
)
from .gpcore import FitOptions, GPFit, TrainingSet, fit, predict_batch
from .testbed import CrossCorrEstimate, SlicedFunction

FAMILY_ORDER = ("EC", "LRC2", "MC", "LRC3", "LRC4", "LRC5", "LRC6", "LRC7", "UC")

RECORD_COLUMNS = ("function", "s", "n", "family", "rank", "rep",
                  "rmse_corr", "q2", "fit_seconds", "status")
SUMMARY_COLUMNS = ("function", "s", "n", "family", "rank", "metric",
                   "median", "q25", "q75", "failures")


def rmse_corr(tau_hat, tau_tilde) -> float:
    """Root of the summed squared entry gaps over the lower triangle.

    No division by the number of pairs, so values are only comparable
    at equal s. Pairs with missing (NaN) empirical entries are skipped.
    """
    A = tau_hat.values if isinstance(tau_hat, CorrMatrix) else np.asarray(tau_hat, float)
    B = tau_tilde.matrix if isinstance(tau_tilde, CrossCorrEstimate) else np.asarray(tau_tilde, float)
    if A.shape != B.shape:
        raise ParamArityError(f"matrix shapes differ: {A.shape} vs {B.shape}")
    s = A.shape[0]
    total = 0.0
    for i in range(1, s):
        for j in range(i):
            if not np.isnan(B[i, j]):
                total += (A[i, j] - B[i, j]) ** 2
    return float(np.sqrt(total))


def q_squared(y_true, y_pred) -> float:
    """1 - SS_residual / SS_total around the test-design mean.

    1 is perfect; 0 matches predicting the mean everywhere; negative is
    worse than the mean. Undefined for constant y_true.
    """
    y_true = np.asarray(y_true, dtype=float).ravel()
    y_pred = np.asarray(y_pred, dtype=float).ravel()
    if y_true.size != y_pred.size:
        raise ParamArityError("y_true and y_pred must have equal length")
    if y_true.size < 2:
        raise ParamArityError("need at least 2 test values")
    ss_tot = float(((y_true - y_true.mean()) ** 2).sum())
    if ss_tot == 0.0:
        raise CriterionUndefinedError("Q^2 is undefined for constant y_true")
    ss_res = float(((y_true - y_pred) ** 2).sum())
    return 1.0 - ss_res / ss_tot


@dataclass(frozen=True)
class TestSet:
    """A shared continuous design replicated over all levels.

    ``X`` holds problem-unit coordinates (identical for every level);
    ``Y[i]`` holds slice i+1's true values.
    """

    X: np.ndarray
    Y: np.ndarray
    seed: int

    @property
    def size(self) -> int:
        return self.X.shape[0]

    @property
    def s(self) -> int:
        return self.Y.shape[0]


def make_test_set(fn: SlicedFunction, size: int, seed: int) -> TestSet:
    """Random LHD over the two continuous dimensions, repeated per level."""
    if size < 2:
        raise ParamDomainError("test set needs at least 2 points")
    d = design_mod.lhd(size, fn.base.d - 1, seed)
    X = design_mod.to_problem_coords(d.X, fn.rest_bounds)
    Y = np.array([testbed_mod.eval_sliced_batch(fn, i, X) for i in range(1, fn.s + 1)])
    return TestSet(X, Y, seed)


def extract_tau_hat(gp_fit: GPFit) -> CorrMatrix:
    """Cross-correlation matrix rebuilt from the fitted parameters."""
    spec = gp_fit.config.family_spec
    if spec is None:
        raise ParamDomainError("continuous-only fit has no cross-correlation matrix")
    return build_correlation(spec, gp_fit.config.cat_params, gp_fit.config.corr_nugget)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one simulation study.

    ``functions`` are testbed identifiers (each carries its own s);
    ``families`` are labels like "EC" or "LRC3", or the single word
    "auto" for EC, LRC ranks 2..s-1, MC and UC. Replication r uses
    design seed base_seed + r for every family.
    """

    functions: tuple[str, ...]
    n_values: tuple[int, ...] = (4, 8)
    families: tuple[str, ...] = ("auto",)
    replications: int = 100
    base_seed: int = 1
    resolution: int = 100
    test_size: int = 1000
    test_seed: int = 987654
    fit_options: FitOptions = field(default_factory=FitOptions)
    timing: str = "wall"  # "wall" | "none" (write zeros, byte-reproducible)

    def __post_init__(self):
        object.__setattr__(self, "functions", tuple(self.functions))
        object.__setattr__(self, "n_values", tuple(int(v) for v in self.n_values))
        object.__setattr__(self, "families", tuple(self.families))
        if self.replications < 1:
            raise ConfigError("replications must be >= 1")
        if self.timing not in ("wall", "none"):
            raise ConfigError(f"timing must be 'wall' or 'none', got {self.timing!r}")


@dataclass(frozen=True)
class BenchRecord:
    """One replication's outcome for one (function, n, family) cell."""

    function: str
    s: int
    n: int
    family: str
    rank: int | None
    rep: int
    rmse_corr: float | None
    q2: float | None
    fit_seconds: float
    status: str  # ok | fallback | failed


def applicable_families(labels, s: int) -> list[FamilySpec]:
    """Expand config labels into specs valid for s levels, study order."""
    if tuple(labels) == ("auto",):
        expanded = ["EC", "MC", "UC"] + [f"LRC{r}" for r in range(2, s)]
    else:
        expanded = list(labels)
    specs = []
    for label in expanded:
        up = label.strip().upper()
        if up.startswith("LRC") and len(up) > 3 and not 2 <= int(up[3:]) <= s - 1:
            continue  # rank not applicable at this s
        specs.append(FamilySpec.parse(label, s))
    specs.sort(key=lambda sp: FAMILY_ORDER.index(sp.label))
    return specs


# ---------------------------------------------------------------------------
# disk cache for empirical matrices and test sets

def _atomic_savez(path: str, **arrays) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            np.savez(fh, **arrays)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def cached_empirical_corr(fn: SlicedFunction, resolution: int, cache_dir: str) -> CrossCorrEstimate:
    path = os.path.join(cache_dir, f"emp_{fn.fid}_res{resolution}.npz")
    if os.path.exists(path):
        with np.load(path) as data:
            return CrossCorrEstimate(data["matrix"], resolution)
    est = testbed_mod.empirical_cross_corr(fn, resolution)
    _atomic_savez(path, matrix=np.asarray(est.matrix))
    return est


def cached_test_set(fn: SlicedFunction, size: int, seed: int, cache_dir: str) -> TestSet:
    path = os.path.join(cache_dir, f"test_{fn.fid}_size{size}_seed{seed}.npz")
    if os.path.exists(path):
        with np.load(path) as data:
            return TestSet(data["X"], data["Y"], seed)
    ts = make_test_set(fn, size, seed)
    _atomic_savez(path, X=ts.X, Y=ts.Y)
    return ts


# ---------------------------------------------------------------------------
# the experiment itself

def _run_cell(cfg: ExperimentConfig, cache_dir: str, fid: str, n: int, rep: int) -> list[BenchRecord]:
    """All family fits for one (function, n, replication) cell."""
    fn = testbed_mod.get_testbed_function(fid)
    s = fn.s
    emp = cached_empirical_corr(fn, cfg.resolution, cache_dir)
    test = cached_test_set(fn, cfg.test_size, cfg.test_seed, cache_dir)

    d, _ = design_mod.cslhd(n, s, fn.base.d - 1, cfg.base_seed + rep)
    X = design_mod.to_problem_coords(d.X, fn.rest_bounds)
    y = np.empty(d.n_total)
    for lv in range(1, s + 1):
        mask = d.levels == lv
        y[mask] = testbed_mod.eval_sliced_batch(fn, lv, X[mask])
    train = TrainingSet(X, d.levels, y, bounds=fn.rest_bounds, n_levels=s)

    y_true = test.Y.ravel()
    records = []
    for spec in applicable_families(cfg.families, s):
        opts = replace(cfg.fit_options, seed=cfg.base_seed + rep)
        t0 = time.perf_counter()
        status = "ok"
        rmse = q2 = None
        try:
            gp_fit = fit(train, spec, opts)
            if gp_fit.config.family_spec is None:
                status = "fallback"
            else:
                rmse = rmse_corr(extract_tau_hat(gp_fit), emp)
            preds = np.concatenate(
                [predict_batch(gp_fit, test.X, lv) for lv in range(1, s + 1)]
            )
            q2 = q_squared(y_true, preds)
        except (MixedGPError, np.linalg.LinAlgError):
            # one failed fit, score or prediction costs this record only
            status = "failed"
            rmse = q2 = None
        seconds = time.perf_counter() - t0 if cfg.timing == "wall" else 0.0
        records.append(
            BenchRecord(fid, s, n, spec.family, spec.rank, rep, rmse, q2, seconds, status)
        )
    return records


def _cell_worker(args):
    return _run_cell(*args)


def run_experiment(cfg: ExperimentConfig, out_dir: str, jobs: int = 1) -> list[BenchRecord]:
    """Run the full study; write records.csv and summary.csv in out_dir.

    Cells are independent and may run in parallel; records are sorted
    deterministically before writing, so outputs do not depend on
    scheduling.
    """
    for fid in cfg.functions:
        testbed_mod.parse_fid(fid)
    os.makedirs(out_dir, exist_ok=True)
    cache_dir = os.path.join(out_dir, "cache")
    os.makedirs(cache_dir, exist_ok=True)

    # warm the caches serially so workers only read
    for fid in cfg.functions:
        fn = testbed_mod.get_testbed_function(fid)
        cached_empirical_corr(fn, cfg.resolution, cache_dir)
        cached_test_set(fn, cfg.test_size, cfg.test_seed, cache_dir)

    cells = [
        (cfg, cache_dir, fid, n, rep)
        for fid in cfg.functions
        for n in cfg.n_values
        for rep in range(cfg.replications)
    ]
    records: list[BenchRecord] = []
    if jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            for out in pool.map(_cell_worker, cells, chunksize=1):
                records.extend(out)
    else:
        for cell in cells:
            records.extend(_run_cell(*cell))

    fam_key = {label: i for i, label in enumerate(FAMILY_ORDER)}
    records.sort(
        key=lambda r: (
            cfg.functions.index(r.function),
            cfg.n_values.index(r.n),
            fam_key[_family_label(r)],
            r.rep,
        )
    )
    write_records_csv(records, os.path.join(out_dir, "records.csv"))
    write_summary_csv(summarize(records), os.path.join(out_dir, "summary.csv"))
    return records


def _family_label(record: BenchRecord) -> str:
    return f"LRC{record.rank}" if record.family == "LRC" else record.family


def _fmt(value) -> str:
    if value is None:
        return ""
    return repr(float(value))


def write_records_csv(records, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# generated {datetime.now(timezone.utc).isoformat()}\n")
        writer = csv.writer(fh)
        writer.writerow(RECORD_COLUMNS)
        for r in records:
            writer.writerow([
                r.function, r.s, r.n, r.family,
                "" if r.rank is None else r.rank,
                r.rep, _fmt(r.rmse_corr), _fmt(r.q2),
                repr(round(float(r.fit_seconds), 6)), r.status,
            ])


def read_records_csv(path) -> list[BenchRecord]:
    records = []
    with open(path, newline="", encoding="utf-8") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    reader = csv.DictReader(lines)
    if tuple(reader.fieldnames or ()) != RECORD_COLUMNS:
        raise ConfigError(f"{path}: unexpected records.csv columns {reader.fieldnames}")
    for row in reader:
        records.append(BenchRecord(
            function=row["function"],
            s=int(row["s"]),
            n=int(row["n"]),
            family=row["family"],
            rank=int(row["rank"]) if row["rank"] else None,
            rep=int(row["rep"]),
            rmse_corr=float(row["rmse_corr"]) if row["rmse_corr"] else None,
            q2=float(row["q2"]) if row["q2"] else None,
            fit_seconds=float(row["fit_seconds"]),
            status=row["status"],
        ))
    return records


@dataclass(frozen=True)
class SummaryRow:
    function: str
    s: int
    n: int
    family: str
    rank: int | None
    metric: str
    median: float | None
    q25: float | None
    q75: float | None
    failures: int


def summarize(records) -> list[SummaryRow]:
    """Boxplot statistics (median and quartiles) per cell and metric.

    Failed fits are excluded from the quantiles and counted in the
    ``failures`` column.
    """
    cells: dict = {}
    for r in records:
        cells.setdefault((r.function, r.s, r.n, _family_label(r)), []).append(r)
    rows = []
    for (fid, s, n, label), group in cells.items():
        rank = group[0].rank
        family = group[0].family
        failures = sum(1 for r in group if r.status == "failed")
        for metric in ("rmse_corr", "q2"):
            vals = [getattr(r, metric) for r in group
                    if r.status != "failed" and getattr(r, metric) is not None]
            if vals:
                med = float(np.median(vals))
                q25 = float(np.percentile(vals, 25))
                q75 = float(np.percentile(vals, 75))
            else:
                med = q25 = q75 = None
            rows.append(SummaryRow(fid, s, n, family, rank, metric, med, q25, q75, failures))
    return rows


def write_summary_csv(rows, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_COLUMNS)
        for r in rows:
            writer.writerow([
                r.function, r.s, r.n, r.family,
                "" if r.rank is None else r.rank, r.metric,
                _fmt(r.median), _fmt(r.q25), _fmt(r.q75), r.failures,
            ])


# ---------------------------------------------------------------------------
# configuration files (ini-style: sections of key = value pairs)

_EXPERIMENT_KEYS = {
    "functions", "n_values", "families", "replications", "base_seed",
    "resolution", "test_size", "test_seed",
}
_FIT_KEYS = {
    "n_starts", "nugget", "corr_nugget", "lengthscale_min", "lengthscale_max",
    "max_evals_per_start", "xatol", "fatol",
}
_OUTPUT_KEYS = {"timing"}


def _split_list(raw: str) -> list[str]:
    return [tok.strip() for tok in raw.replace(",", " ").split() if tok.strip()]


def load_config(path) -> ExperimentConfig:
    """Parse an experiment configuration file.

    Sections: [experiment] (functions, n_values, families, replications,
    base_seed, resolution, test_size, test_seed), [fit] (n_starts,
    nugget, corr_nugget, lengthscale_min/max, max_evals_per_start,
    xatol, fatol), [output] (timing = wall | none). Unknown keys or
    sections are errors so typos cannot silently change a study.
    """
    issues = validate_config(path)
    if issues:
        raise ConfigError(f"{path}: " + "; ".join(issues))
    parser = configparser.ConfigParser()
    parser.read(path)
    exp = parser["experiment"]
    functions = _split_list(exp["functions"])
    if functions == ["all"]:
        functions = testbed_mod.testbed_ids()
    fit_kwargs = {}
    if parser.has_section("fit"):
        sec = parser["fit"]
        if "n_starts" in sec:
            fit_kwargs["n_starts"] = sec.getint("n_starts")
        if "nugget" in sec:
            fit_kwargs["nugget"] = sec.getfloat("nugget")
        if "corr_nugget" in sec:
            fit_kwargs["corr_nugget"] = sec.getfloat("corr_nugget")
        if "lengthscale_min" in sec or "lengthscale_max" in sec:
            fit_kwargs["lengthscale_bounds"] = (
                sec.getfloat("lengthscale_min", 1e-2),
                sec.getfloat("lengthscale_max", 10.0),
            )
        if "max_evals_per_start" in sec:
            value = sec.getint("max_evals_per_start")
            fit_kwargs["max_evals_per_start"] = value if value > 0 else None
        if "xatol" in sec:
            fit_kwargs["xatol"] = sec.getfloat("xatol")
        if "fatol" in sec:
            fit_kwargs["fatol"] = sec.getfloat("fatol")
    timing = "wall"
    if parser.has_section("output"):
        timing = parser["output"].get("timing", "wall")
    return ExperimentConfig(
        functions=tuple(functions),
        n_values=tuple(int(v) for v in _split_list(exp["n_values"])) if "n_values" in exp else (4, 8),
        families=tuple(_split_list(exp["families"])) if "families" in exp else ("auto",),
        replications=exp.getint("replications", 100),
        base_seed=exp.getint("base_seed", 1),
        resolution=exp.getint("resolution", 100),
        test_size=exp.getint("test_size", 1000),
        test_seed=exp.getint("test_seed", 987654),
        fit_options=FitOptions(**fit_kwargs),
        timing=timing,
    )


def validate_config(path) -> list[str]:
    """Return a list of problems with a config file (empty when valid)."""
    issues: list[str] = []
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        return [f"parse error: {exc}"]
    if not read:
        return ["file not found or unreadable"]
    if not parser.has_section("experiment"):
        return ["missing [experiment] section"]
    known = {"experiment": _EXPERIMENT_KEYS, "fit": _FIT_KEYS, "output": _OUTPUT_KEYS}
    for section in parser.sections():
        if section not in known:
            issues.append(f"unknown section [{section}]")
            continue
        for key in parser[section]:
            if key not in known[section]:
                issues.append(f"unknown key {key!r} in [{section}]")
    exp = parser["experiment"]
    if "functions" not in exp:
        issues.append("missing 'functions' in [experiment]")
    else:
        functions = _split_list(exp["functions"])
        if functions != ["all"]:
            for fid in functions:
                try:
                    testbed_mod.parse_fid(fid)
                except ParamDomainError as exc:
                    issues.append(str(exc))
    for key, caster in (("replications", int), ("base_seed", int), ("resolution", int),
                        ("test_size", int), ("test_seed", int)):
        if key in exp:
            try:
                value = caster(exp[key])
                if key in ("replications", "resolution", "test_size") and value < 1:
                    issues.append(f"{key} must be >= 1")
            except ValueError:
                issues.append(f"{key} must be an integer, got {exp[key]!r}")
    if "n_values" in exp:
        try:
            if any(int(v) < 1 for v in _split_list(exp["n_values"])):
                issues.append("n_values must be positive")
        except ValueError:
            issues.append(f"n_values must be integers, got {exp['n_values']!r}")
    if "families" in exp:
        labels = _split_list(exp["families"])
        if labels != ["auto"]:
            for label in labels:
                try:
                    FamilySpec.parse(label, 8)
                except Exception:
                    issues.append(f"unknown family label {label!r}")
    if parser.has_section("output"):
        timing = parser["output"].get("timing", "wall")
        if timing not in ("wall", "none"):
            issues.append(f"timing must be 'wall' or 'none', got {timing!r}")
    return issues
