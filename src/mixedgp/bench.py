"""Simulation-study harness: designs, fits, scores, CSV outputs.

For each (function, n, replication) cell a clustered sliced LHD is
drawn with seed base_seed + replication (shared across families so
every family sees the identical design), the function is evaluated,
every family is fitted, and two criteria are recorded: the root of the
summed squared gaps between fitted and empirical cross-correlations
over the lower triangle, and Q^2 on a fixed test design repeated over
all levels. The empirical matrix and the test set of each function are
computed once per process, keyed by the function id and their
parameters, and are read-only; a study writes only its two CSV files.
"""

import concurrent.futures
import configparser
import csv
import os
import time
import typing
from collections.abc import Callable
from dataclasses import MISSING, dataclass, field, fields, replace
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
    RankRangeError,
    as_numbers,
    whole,
)
from .gpcore import FitOptions, GPFit, TrainingSet, fit, predict_batch
from .testbed import CrossCorrEstimate, SlicedFunction

TIMINGS = ("wall", "none")  # "none" writes zeros, so records.csv is byte-reproducible


def rmse_corr(tau_hat, tau_tilde) -> float:
    """Root of the summed squared entry gaps over the lower triangle.

    No division by the number of pairs, so values are only comparable
    at equal s. Pairs with missing (NaN) empirical entries are skipped.
    """
    A = tau_hat.values if isinstance(tau_hat, CorrMatrix) else as_numbers(tau_hat, "tau_hat")
    B = (tau_tilde.matrix if isinstance(tau_tilde, CrossCorrEstimate)
         else as_numbers(tau_tilde, "tau_tilde"))
    if A.shape != B.shape:
        raise ParamArityError(f"matrix shapes differ: {A.shape} vs {B.shape}")
    pairs = np.tri(*A.shape, k=-1, dtype=bool) & ~np.isnan(B)
    return float(np.sqrt(np.square(A[pairs] - B[pairs]).sum()))


def q_squared(y_true, y_pred) -> float:
    """1 - SS_residual / SS_total around the test-design mean.

    1 is perfect; 0 matches predicting the mean everywhere; negative is
    worse than the mean. Undefined for constant y_true.
    """
    y_true = as_numbers(y_true, "y_true").ravel()
    y_pred = as_numbers(y_pred, "y_pred").ravel()
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
    ``Y[i]`` holds slice i+1's true values. Both are read-only copies.
    """

    X: np.ndarray
    Y: np.ndarray
    seed: int

    def __post_init__(self):
        for name in ("X", "Y"):
            a = np.array(getattr(self, name), dtype=float)
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @property
    def size(self) -> int:
        return self.X.shape[0]

    @property
    def s(self) -> int:
        return self.Y.shape[0]


def make_test_set(fn: SlicedFunction, size: int, seed: int) -> TestSet:
    """Random LHD over the two continuous dimensions, repeated per level."""
    if not whole(size) or size < 2:
        raise ParamDomainError(f"test set size must be an integer >= 2, got {size!r}")
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


def _values(value) -> tuple | None:
    """``value`` as a tuple; None for a bare string or a non-iterable."""
    if isinstance(value, str):
        return None
    try:
        return tuple(value)
    except TypeError:
        return None


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one simulation study.

    ``functions`` are testbed identifiers (each carries its own s);
    ``families`` are labels like "EC" or "LRC3", or the single word
    "auto" for EC, LRC ranks 2..s-1, MC and UC. Replication r uses
    design seed base_seed + r for every family.

    Building one checks every field by the rules in ``__post_init__`` (a
    family label must parse for some s; no function, n or family, as parsed,
    may repeat; a bare string or a single value is no list of values), for
    the API and config files alike; one ``ConfigError`` lists every rule broken.
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
    timing: str = "wall"  # one of TIMINGS

    def __post_init__(self):
        # a bare string or a non-iterable is no list of values: one issue,
        # not one per character, and () to the other rules
        lists = [(name, value, _values(value)) for name, value in (
            ("functions", self.functions), ("families", self.families), ("n_values", self.n_values))]
        for name, _, values in lists:
            object.__setattr__(self, name, () if values is None else values)
        n_values = self.n_values
        text = lambda values: all(isinstance(v, str) for v in values)
        counts = (("replications", self.replications, 1), ("base_seed", self.base_seed, 0),
                  ("resolution", self.resolution, 2), ("test_size", self.test_size, 2),
                  ("test_seed", self.test_seed, 0))
        ConfigError.check((
            *((name, value, "a list of values", values is not None) for name, value, values in lists),
            ("functions", self.functions, "text", text(self.functions)),
            ("families", self.families, "text", text(self.families)),
            ("n_values", n_values, "integers", all(map(whole, n_values))),
            *((name, value, "an integer", whole(value)) for name, value, _ in counts),
            # ranges of values of the right type only
            ("n_values", n_values, ">= 1", all(v >= 1 for v in n_values if whole(v))),
            *((name, value, f">= {least}", not whole(value) or value >= least)
              for name, value, least in counts),
            ("timing", self.timing, f"one of {TIMINGS}", self.timing in TIMINGS),
        ), self._label_issues(n_values))
        object.__setattr__(self, "n_values", tuple(map(int, n_values)))

    def _label_issues(self, n_values) -> list[str]:
        """The issues of the text function ids and family labels, and the repeats."""
        issues, ids, parsed = [], [], []
        for fid in (fid for fid in self.functions if isinstance(fid, str)):
            try:
                name, s, upend = testbed_mod.parse_fid(fid)
                ids.append((name, s, upend))
            except ValueError as exc:
                issues.append(f"functions: {exc}")
        labels = () if self.families == ("auto",) else self.families
        for label in (label for label in labels if isinstance(label, str)):
            try:
                parsed.append(FamilySpec.parse(label).label)
            except ValueError:
                issues.append(f"families: unknown family label {label!r}")
        for name, given, values in (("functions", self.functions, ids),
                                    ("n_values", n_values, [n for n in n_values if whole(n)]),
                                    ("families", self.families, parsed)):
            if len(set(values)) < len(values):
                issues.append(f"{name}: must be without repeats, got {given!r}")
        return issues


@dataclass(frozen=True)
class BenchRecord:
    """One replication's outcome for one (function, n, family) cell: a row of records.csv."""

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
    """Expand config labels into specs valid for s levels, in study order
    (:attr:`FamilySpec.order`).

    An LRC rank outside 2..s-1 does not apply at s and is left out; a
    bare "LRC" without a rank raises ``RankRangeError``.
    """
    if tuple(labels) == ("auto",):
        labels = ["EC", "MC", "UC"] + [f"LRC{r}" for r in range(2, s)]
    specs = []
    for label in labels:
        try:
            specs.append(FamilySpec.parse(label, s))
        except RankRangeError:
            if label.strip().upper() == "LRC":
                raise
    specs.sort(key=lambda sp: sp.order)
    return specs


# ---------------------------------------------------------------------------
# the fixed inputs every fit of a function is scored against, once per process

_MEMO: dict = {}


def _memoized(key, compute):
    if key not in _MEMO:
        _MEMO[key] = compute()
    return _MEMO[key]


def cached_empirical_corr(fn: SlicedFunction, resolution: int, cache_dir=None) -> CrossCorrEstimate:
    """The empirical cross-correlations of ``fn``, computed once per process.

    Keyed by the function id and the resolution; later calls return the
    same object, whose matrix is read-only. ``cache_dir`` is accepted and
    ignored: the benchmark harness in ``perfbench/`` still passes it.
    """
    return _memoized(("emp", fn.fid, resolution),
                     lambda: testbed_mod.empirical_cross_corr(fn, resolution))


def cached_test_set(fn: SlicedFunction, size: int, seed: int, cache_dir=None) -> TestSet:
    """The test set of ``fn``, computed once per process.

    Keyed by the function id, the size and the seed; later calls return
    the same object, whose arrays are read-only. ``cache_dir`` is
    accepted and ignored: the benchmark harness in ``perfbench/`` still
    passes it.
    """
    return _memoized(("test", fn.fid, size, seed), lambda: make_test_set(fn, size, seed))


# ---------------------------------------------------------------------------
# the experiment itself

def _run_cell(cfg: ExperimentConfig, fid: str, n: int, rep: int) -> list[BenchRecord]:
    """All family fits for one (function, n, replication) cell."""
    fn = testbed_mod.get_testbed_function(fid)
    s = fn.s
    emp = cached_empirical_corr(fn, cfg.resolution)
    test = cached_test_set(fn, cfg.test_size, cfg.test_seed)

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
        seconds = round(time.perf_counter() - t0, 6) if cfg.timing == "wall" else 0.0
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
    os.makedirs(out_dir, exist_ok=True)

    # fill the memo serially; forked workers inherit it, while spawned
    # ones compute their own copy of the same numbers
    for fid in cfg.functions:
        fn = testbed_mod.get_testbed_function(fid)
        cached_empirical_corr(fn, cfg.resolution)
        cached_test_set(fn, cfg.test_size, cfg.test_seed)

    cells = [
        (cfg, fid, n, rep)
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

    records.sort(
        key=lambda r: (
            cfg.functions.index(r.function),
            cfg.n_values.index(r.n),
            FamilySpec(r.family, r.s, r.rank).order,
            r.rep,
        )
    )
    write_csv(os.path.join(out_dir, "records.csv"), BenchRecord, records)
    write_csv(os.path.join(out_dir, "summary.csv"), SummaryRow, summarize(records))
    return records


@dataclass(frozen=True)
class SummaryRow:
    """Boxplot statistics of one cell and metric: a row of summary.csv."""

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
        cells.setdefault((r.function, r.s, r.n, r.family, r.rank), []).append(r)
    rows = []
    for (fid, s, n, family, rank), group in cells.items():
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


def write_csv(path, row_type, rows) -> None:
    """One column per field of the ``row_type`` dataclass, in field order.

    None is written as "", floats (numpy's too) as their repr, the rest
    with str. Records (BenchRecord rows) get a "# generated <time>" line first.
    """
    names = [f.name for f in fields(row_type)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if row_type is BenchRecord:
            fh.write(f"# generated {datetime.now(timezone.utc).isoformat()}\n")
        writer = csv.writer(fh)
        writer.writerow(names)
        writer.writerows([_cell(getattr(row, name)) for name in names] for row in rows)


def _cell(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return "" if value is None else str(value)


def read_records_csv(path) -> list[BenchRecord]:
    """The rows of a records.csv, each cell parsed by its BenchRecord field's type;
    ``ConfigError`` names the record of a row of the wrong width or a bad cell."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.reader(ln for ln in fh if not ln.startswith("#")) if row]
    names = [f.name for f in fields(BenchRecord)]
    if rows[:1] != [names]:
        raise ConfigError(f"{path}: unexpected records.csv columns {(rows or [None])[0]}")
    casts = [_cast(f.type) for f in fields(BenchRecord)]
    records = []
    for number, row in enumerate(rows[1:], start=1):
        if len(row) != len(names):
            raise ConfigError(f"{path}: record {number} has {len(row)} cells, expected {len(names)}")
        values = []
        for name, cast, text in zip(names, casts, row):
            try:
                values.append(cast(text))
            except ValueError as exc:
                raise ConfigError(f"{path}: record {number}, {name}: {exc}") from None
        records.append(BenchRecord(*values))
    return records


def _cast(annotation) -> Callable[[str], object]:
    """Parser of a cell for a field of type ``annotation``; "" is None where None is allowed."""
    kind, *rest = typing.get_args(annotation) or (annotation,)  # X | None lists X first
    return (lambda text: kind(text) if text else None) if rest else kind


# ---------------------------------------------------------------------------
# configuration files (ini-style: sections of key = value pairs)

def _split_list(raw: str) -> list[str]:
    return [tok.strip() for tok in raw.replace(",", " ").split() if tok.strip()]


_EXPERIMENT_FIELDS, _FIT_FIELDS = ({f.name: f for f in fields(cls)}
                                    for cls in (ExperimentConfig, FitOptions))

# The accepted keys: (section, key) -> the ExperimentConfig field ([experiment],
# [output]) or FitOptions field ([fit]) receiving the value. A fit's seed comes
# from base_seed, and lengthscale_min/max set the two ends of one pair.
_SCHEMA = {
    **{("experiment", name): f for name, f in _EXPERIMENT_FIELDS.items()
       if name not in ("fit_options", "timing")},
    **{("fit", name): f for name, f in _FIT_FIELDS.items()
       if name not in ("seed", "lengthscale_bounds")},
    ("fit", "lengthscale_min"): _FIT_FIELDS["lengthscale_bounds"],
    ("fit", "lengthscale_max"): _FIT_FIELDS["lengthscale_bounds"],
    ("output", "timing"): _EXPERIMENT_FIELDS["timing"],
}


def _value(f, raw: str):
    """``raw`` read for field ``f``: a tuple of tokens for a ``tuple[X, ...]``
    field, else one token. A token stays text for a text field, becomes a
    float for a real-number field, and is otherwise an int, else a float;
    one that does not convert stays text. The dataclasses judge every
    value's type and range."""
    kind, *rest = typing.get_args(f.type) or (f.type,)
    casts = () if kind is str else (float,) if kind is float else (int, float)

    def token(text: str):
        for cast in casts:
            try:
                return cast(text)
            except ValueError:
                pass
        return text

    return tuple(map(token, _split_list(raw))) if rest == [Ellipsis] else token(raw)


def _read_config(path) -> tuple[ExperimentConfig | None, list[str]]:
    """The config, or None and every issue: unknown sections and keys in file
    order, missing keys, then the issues FitOptions and ExperimentConfig raise."""
    parser = configparser.ConfigParser()
    try:
        if not parser.read(path):
            return None, ["file not found or unreadable"]
    except configparser.Error as exc:
        return None, [f"parse error: {exc}"]
    sections = {section for section, _ in _SCHEMA}
    issues = []
    exp_kwargs: dict = {}
    fit_kwargs: dict = {}
    for section in parser.sections():
        if section not in sections:
            issues.append(f"unknown section [{section}]")
            continue
        kwargs = fit_kwargs if section == "fit" else exp_kwargs
        for key in parser[section]:
            f = _SCHEMA.get((section, key))
            if f is None:
                issues.append(f"unknown key {key!r} in [{section}]")
                continue
            value = _value(f, parser.get(section, key))
            if key == "functions" and value == ("all",):
                value = tuple(testbed_mod.testbed_ids())
            elif key == "max_evals_per_start" and whole(value) and value == 0:
                value = None  # automatic: 150 per parameter
            elif f.name == "lengthscale_bounds":
                pair = list(kwargs.get(f.name, f.default))
                pair[key == "lengthscale_max"] = value
                value = tuple(pair)
            kwargs[f.name] = value

    missing = [f.name for f in fields(ExperimentConfig) if f.default is MISSING
               and f.default_factory is MISSING and f.name not in exp_kwargs]
    issues += [f"missing {name!r} in [experiment]" for name in missing]
    try:
        fit_options = FitOptions(**fit_kwargs)
    except ConfigError as exc:
        issues += exc.issues
        fit_options = FitOptions()
    try:
        # an empty stand-in for a missing key, so the other ranges are still checked
        cfg = ExperimentConfig(**dict.fromkeys(missing, ()), **exp_kwargs,
                               fit_options=fit_options)
    except ConfigError as exc:
        issues += exc.issues
    return (None, issues) if issues else (cfg, [])


def load_config(path) -> ExperimentConfig:
    """Parse an experiment configuration file.

    Sections [experiment], [fit] and [output]; the accepted keys are
    those of ``_SCHEMA``. The file is checked for its keys only: each
    value is read as text (``functions``, ``families``, ``timing``) or
    else as an int, a float or text, and :class:`ExperimentConfig` and
    :class:`FitOptions` check its type and range as they do for the
    Python API. Unknown keys or sections, missing keys, and values of
    the wrong type or out of range raise one ``ConfigError`` that lists
    every issue, so typos cannot silently change a study.
    """
    cfg, issues = _read_config(path)
    if issues:
        raise ConfigError(f"{path}: " + "; ".join(issues))
    return cfg


def validate_config(path) -> list[str]:
    """Return a list of problems with a config file (empty when valid)."""
    return _read_config(path)[1]
