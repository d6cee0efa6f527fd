"""Tests for the experiment harness, metrics and configuration files."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixedgp.bench import (
    ExperimentConfig,
    applicable_families,
    cached_empirical_corr,
    cached_test_set,
    extract_tau_hat,
    load_config,
    make_test_set,
    q_squared,
    read_records_csv,
    rmse_corr,
    run_experiment,
    summarize,
    validate_config,
)
from mixedgp.corrparam import FamilySpec, build_correlation
from mixedgp.errors import (
    ConfigError,
    CriterionUndefinedError,
    MixedGPError,
    ParamArityError,
    ParamDomainError,
    RankRangeError,
)
from mixedgp.gpcore import FitOptions, KernelConfig, TrainingSet, refit_config
from mixedgp.testbed import empirical_cross_corr, get_testbed_function

CONFIGS = Path(__file__).resolve().parent.parent / "scripts" / "configs"
QUICK_FIT = dict(n_starts=4, max_evals_per_start=300)


def tiny_config(**overrides):
    base = dict(
        functions=("ackley_s4",),
        n_values=(4,),
        families=("EC",),
        replications=2,
        base_seed=11,
        resolution=40,
        test_size=60,
        test_seed=123,
        fit_options=FitOptions(**QUICK_FIT),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# metrics

def test_rmse_identical_matrices_zero():
    m = build_correlation(FamilySpec("EC", 5), [0.4]).values
    assert rmse_corr(m, m) == 0.0


def test_rmse_single_pair_extremes():
    a = np.array([[1.0, 1.0], [1.0, 1.0]])
    b = np.array([[1.0, -1.0], [-1.0, 1.0]])
    assert rmse_corr(a, b) == 2.0


def test_rmse_matches_brute_force_sum():
    rng = np.random.default_rng(1)
    a = rng.uniform(-1, 1, (4, 4))
    a = (a + a.T) / 2
    np.fill_diagonal(a, 1.0)
    b = rng.uniform(-1, 1, (4, 4))
    b = (b + b.T) / 2
    np.fill_diagonal(b, 1.0)
    total = sum((a[i, j] - b[i, j]) ** 2 for i in range(1, 4) for j in range(i))
    assert rmse_corr(a, b) == pytest.approx(np.sqrt(total), rel=1e-14)


def test_rmse_skips_missing_entries():
    a = build_correlation(FamilySpec("EC", 3), [0.5]).values
    b = a.copy()
    b[0, 1] = b[1, 0] = np.nan
    b[0, 2] = b[2, 0] = 0.2
    assert rmse_corr(a, b) == pytest.approx(0.3, abs=1e-14)


@pytest.mark.parametrize("s", [2, 5, 8])
def test_rmse_matches_loop_reference_with_missing_entries(s):
    # the pair-by-pair loop rmse_corr was first written as; summation
    # order may differ, so equality is to rounding
    rng = np.random.default_rng(s)
    a = rng.uniform(-1, 1, (s, s))
    b = rng.uniform(-1, 1, (s, s))
    b[rng.random((s, s)) < 0.3] = np.nan
    total = sum((a[i, j] - b[i, j]) ** 2
                for i in range(1, s) for j in range(i) if not np.isnan(b[i, j]))
    assert rmse_corr(a, b) == pytest.approx(np.sqrt(total), rel=1e-14, abs=0)


def test_rmse_shape_mismatch():
    with pytest.raises(ParamArityError):
        rmse_corr(np.eye(3), np.eye(4))


def test_q2_perfect_prediction():
    y = np.array([1.0, 2.0, 3.0, 4.0])
    assert q_squared(y, y) == 1.0


def test_q2_mean_prediction_zero():
    y = np.array([1.0, 2.0, 3.0, 4.0])
    assert q_squared(y, np.full(4, y.mean())) == 0.0


def test_q2_equals_direct_formula():
    # doubling the centered signal lands exactly at 0: the residual sum
    # equals the total sum
    rng = np.random.default_rng(2)
    y = rng.standard_normal(20)
    pred = 2.0 * y - y.mean()
    direct = 1.0 - ((y - pred) ** 2).sum() / ((y - y.mean()) ** 2).sum()
    got = q_squared(y, pred)
    assert got == pytest.approx(direct, rel=1e-14)
    assert got == pytest.approx(0.0, abs=1e-12)


def test_q2_antifit_negative():
    rng = np.random.default_rng(2)
    y = rng.standard_normal(20)
    pred = 3.0 * y - 2.0 * y.mean()  # residuals twice the deviations
    assert q_squared(y, pred) == pytest.approx(-3.0, abs=1e-12)


def test_q2_constant_truth_undefined():
    with pytest.raises(CriterionUndefinedError):
        q_squared(np.full(5, 2.0), np.arange(5.0))


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_q2_never_exceeds_one(seed):
    rng = np.random.default_rng(seed)
    y = rng.standard_normal(10)
    pred = rng.standard_normal(10)
    assert q_squared(y, pred) <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# test sets and tau extraction

def test_make_test_set_shapes():
    fn = get_testbed_function("ackley_s4")
    ts = make_test_set(fn, 50, seed=5)
    assert ts.X.shape == (50, 2)
    assert ts.Y.shape == (4, 50)
    assert ts.size * ts.s == 200


def test_make_test_set_values_match_direct_evaluation():
    from mixedgp.testbed import eval_sliced_batch

    fn = get_testbed_function("dcs_s4_up13")
    ts = make_test_set(fn, 20, seed=9)
    for i in range(1, 5):
        assert np.array_equal(ts.Y[i - 1], eval_sliced_batch(fn, i, ts.X))


def test_make_test_set_needs_two_points():
    with pytest.raises(ParamDomainError):
        make_test_set(get_testbed_function("ackley_s4"), 1, seed=0)


def test_extract_tau_hat_round_trip():
    rng = np.random.default_rng(3)
    X = rng.random((8, 2))
    levels = np.tile([1, 2], 4)
    y = rng.standard_normal(8)
    train = TrainingSet(X, levels, y, n_levels=2)
    config = KernelConfig(np.array([0.5, 0.5]), FamilySpec("EC", 2), np.array([0.37]))
    gp = refit_config(train, config)
    expected = build_correlation(FamilySpec("EC", 2), [0.37]).values
    assert np.array_equal(extract_tau_hat(gp).values, expected)


def test_extract_tau_hat_continuous_only_rejected():
    rng = np.random.default_rng(4)
    X = rng.random((6, 1))
    train = TrainingSet(X, np.ones(6, int), rng.standard_normal(6))
    gp = refit_config(train, KernelConfig(np.array([0.5])))
    with pytest.raises(ParamDomainError):
        extract_tau_hat(gp)


# ---------------------------------------------------------------------------
# family expansion

def test_applicable_families_s4():
    labels = [spec.label for spec in applicable_families(("auto",), 4)]
    assert labels == ["EC", "LRC2", "MC", "LRC3", "UC"]


def test_applicable_families_s6():
    labels = [spec.label for spec in applicable_families(("auto",), 6)]
    assert labels == ["EC", "LRC2", "MC", "LRC3", "LRC4", "LRC5", "UC"]


def test_family_order_equals_the_former_fixed_tuple_up_to_s8():
    former = ("EC", "LRC2", "MC", "LRC3", "LRC4", "LRC5", "LRC6", "LRC7", "UC")
    for s in range(2, 9):
        labels = [spec.label for spec in applicable_families(("auto",), s)]
        assert labels == [lb for lb in former if not lb.startswith("LRC") or int(lb[3:]) < s]
        backwards = list(reversed(former))
        assert [spec.label for spec in applicable_families(backwards, s)] == labels


def test_applicable_families_s9():
    labels = [spec.label for spec in applicable_families(("auto",), 9)]
    assert labels == ["EC", "LRC2", "MC"] + [f"LRC{r}" for r in range(3, 9)] + ["UC"]


def test_experiment_config_accepts_any_lrc_rank_of_at_least_two():
    assert tiny_config(families=("LRC8",)).families == ("LRC8",)
    assert tiny_config(functions=("ackley_s9",), families=("auto",)).functions == ("ackley_s9",)
    for label in ("LRC", "LRC1", "LRCx", "LRC2.5"):
        with pytest.raises(ConfigError, match=f"unknown family label '{label}'"):
            tiny_config(families=(label,))
    for label in ("LRCx", "LRC2.5"):
        with pytest.raises(ParamDomainError, match="LRC rank must be an integer"):
            applicable_families((label,), 4)


def test_applicable_families_drops_oversized_ranks():
    labels = [spec.label for spec in applicable_families(("EC", "LRC5", "UC"), 4)]
    assert labels == ["EC", "UC"]


def test_applicable_families_bare_lrc_needs_a_rank():
    with pytest.raises(RankRangeError):
        applicable_families(("EC", "LRC"), 4)


# ---------------------------------------------------------------------------
# the experiment loop

def test_run_experiment_tiny_and_deterministic(tmp_path):
    cfg = tiny_config()
    out1, out2 = tmp_path / "a", tmp_path / "b"
    rec1 = run_experiment(cfg, str(out1))
    rec2 = run_experiment(cfg, str(out2))
    assert len(rec1) == 2  # one function, one n, one family, two reps
    lines1 = (out1 / "records.csv").read_text().splitlines()
    lines2 = (out2 / "records.csv").read_text().splitlines()
    assert lines1[0].startswith("# generated")
    # identical except the timestamp header and wall-clock timings
    strip = lambda lines: [
        ",".join(c for k, c in enumerate(ln.split(",")) if k != 8)
        for ln in lines[1:]
    ]
    assert strip(lines1) == strip(lines2)
    for r in rec1:
        assert r.status == "ok"
        assert r.q2 is not None and r.q2 <= 1.0 + 1e-12
        assert r.rmse_corr is not None and r.rmse_corr >= 0.0


def test_run_experiment_timing_none_fully_reproducible(tmp_path):
    cfg = tiny_config(timing="none")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_experiment(cfg, str(out1))
    run_experiment(cfg, str(out2))
    body1 = (out1 / "records.csv").read_text().splitlines()[1:]
    body2 = (out2 / "records.csv").read_text().splitlines()[1:]
    assert body1 == body2


def test_run_experiment_parallel_matches_serial(tmp_path):
    cfg = tiny_config(timing="none", families=("EC", "LRC2"))
    rec_serial = run_experiment(cfg, str(tmp_path / "serial"), jobs=1)
    rec_parallel = run_experiment(cfg, str(tmp_path / "parallel"), jobs=2)
    assert [
        (r.function, r.n, r.family, r.rank, r.rep, r.rmse_corr, r.q2)
        for r in rec_serial
    ] == [
        (r.function, r.n, r.family, r.rank, r.rep, r.rmse_corr, r.q2)
        for r in rec_parallel
    ]


def test_failed_fit_costs_one_record(tmp_path, monkeypatch):
    import mixedgp.bench as bench

    real_fit = bench.fit

    def fit_failing_mc(train, spec, options):
        if spec.family == "MC":
            raise ParamDomainError("injected failure")
        return real_fit(train, spec, options)

    monkeypatch.setattr(bench, "fit", fit_failing_mc)
    records = run_experiment(tiny_config(families=("EC", "MC")), str(tmp_path / "out"))
    assert len(records) == 4
    for r in records:
        if r.family == "MC":
            assert r.status == "failed" and r.rmse_corr is None and r.q2 is None
        else:
            assert r.status == "ok" and r.q2 is not None
    failures = {(row.family, row.metric): row.failures for row in summarize(records)}
    assert failures[("MC", "q2")] == 2 and failures[("EC", "q2")] == 0


def test_record_completeness_counts(tmp_path):
    cfg = tiny_config(families=("EC", "LRC2", "UC"), replications=2, n_values=(4,))
    records = run_experiment(cfg, str(tmp_path / "out"))
    assert len(records) == 1 * 3 * 1 * 2


def test_records_csv_round_trip(tmp_path):
    cfg = tiny_config(families=("EC", "LRC3"), timing="wall")
    records = run_experiment(cfg, str(tmp_path / "out"))
    loaded = read_records_csv(str(tmp_path / "out" / "records.csv"))
    assert [(r.function, r.family, r.rank, r.rep) for r in loaded] == [
        (r.function, r.family, r.rank, r.rep) for r in records
    ]
    assert all(
        a.rmse_corr == b.rmse_corr and a.q2 == b.q2 for a, b in zip(loaded, records)
    )
    assert loaded == records  # fit_seconds included: rounded once, when recorded


RECORDS_HEADER = "function,s,n,family,rank,rep,rmse_corr,q2,fit_seconds,status"
RECORD_OK = "ackley_s4,4,4,EC,,0,0.5,0.9,0.0,ok"


@pytest.mark.parametrize("row,needle", [
    ("ackley_s4,4,4,EC,,0,0.5", "record 2 has 7 cells, expected 10"),
    (RECORD_OK + ",extra", "record 2 has 11 cells, expected 10"),
])
def test_read_records_csv_rejects_a_row_of_the_wrong_width(tmp_path, row, needle):
    path = tmp_path / "records.csv"
    path.write_text(f"# generated now\n{RECORDS_HEADER}\n{RECORD_OK}\n{row}\n")
    with pytest.raises(ConfigError, match=needle) as err:
        read_records_csv(path)
    assert str(path) in str(err.value)


@pytest.mark.parametrize("row,needle", [
    ("ackley_s4,4,4,EC,,0,abc,0.9,0.0,ok", "record 1, rmse_corr: could not convert"),
    ("ackley_s4,four,4,EC,,0,0.5,0.9,0.0,ok", "record 1, s: invalid literal"),
    ("ackley_s4,4,4,EC,,0,0.5,0.9,,ok", "record 1, fit_seconds: could not convert"),
])
def test_read_records_csv_rejects_a_cell_its_field_cannot_parse(tmp_path, row, needle):
    path = tmp_path / "records.csv"
    path.write_text(f"{RECORDS_HEADER}\n{row}\n")
    with pytest.raises(ConfigError, match=needle) as err:
        read_records_csv(path)
    assert str(path) in str(err.value)


def test_csv_columns_are_the_dataclass_fields(tmp_path):
    from dataclasses import fields

    from mixedgp.bench import BenchRecord, SummaryRow, write_csv

    write_csv(tmp_path / "records.csv", BenchRecord, [])
    write_csv(tmp_path / "summary.csv", SummaryRow, [])
    stamp, header = (tmp_path / "records.csv").read_text().splitlines()
    assert stamp.startswith("# generated ")
    assert header.split(",") == [f.name for f in fields(BenchRecord)]
    assert (tmp_path / "summary.csv").read_text().splitlines() == [
        ",".join(f.name for f in fields(SummaryRow))]
    assert read_records_csv(tmp_path / "records.csv") == []


def test_ec_error_bounded_below_on_upended_function(tmp_path):
    # positive-only families cannot reach the negative entries, so the
    # projection distance is a hard floor for their estimation error
    cfg = tiny_config(
        functions=("ackley_s4_up13",), families=("EC", "MC"), replications=2,
        resolution=100,
    )
    records = run_experiment(cfg, str(tmp_path / "out"))
    emp = cached_empirical_corr(get_testbed_function("ackley_s4_up13"), 100)
    tri = emp.matrix[np.triu_indices(4, 1)]
    floor = np.sqrt((tri[tri < 0] ** 2).sum())
    for r in records:
        assert r.rmse_corr >= floor - 1e-12


def test_run_experiment_writes_only_its_two_csv_files(tmp_path):
    run_experiment(tiny_config(), str(tmp_path / "out"))
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["records.csv",
                                                                    "summary.csv"]


def test_cached_inputs_are_computed_once_per_process():
    fn = get_testbed_function("alpine1_s4_up13")
    emp = cached_empirical_corr(fn, 12)
    assert cached_empirical_corr(fn, 12, "ignored") is emp
    assert cached_empirical_corr(fn, 13) is not emp
    assert np.array_equal(emp.matrix, empirical_cross_corr(fn, 12).matrix, equal_nan=True)
    test = cached_test_set(fn, 5, 3)
    assert cached_test_set(fn, 5, 3, "ignored") is test
    assert cached_test_set(fn, 5, 4) is not test
    fresh = make_test_set(fn, 5, 3)
    assert np.array_equal(test.X, fresh.X) and np.array_equal(test.Y, fresh.Y)


def test_cached_inputs_are_read_only():
    fn = get_testbed_function("alpine1_s4_up13")
    emp = cached_empirical_corr(fn, 12)
    test = cached_test_set(fn, 5, 3)
    for array in (emp.matrix, test.X, test.Y):
        with pytest.raises(ValueError):
            array[0, 0] = 0.0


def test_summarize_medians_and_failures():
    from mixedgp.bench import BenchRecord

    records = [
        BenchRecord("f", 4, 4, "EC", None, rep, float(rep), 0.5, 0.0, "ok")
        for rep in range(5)
    ] + [BenchRecord("f", 4, 4, "EC", None, 5, None, None, 0.0, "failed")]
    rows = summarize(records)
    rmse_row = next(r for r in rows if r.metric == "rmse_corr")
    assert rmse_row.median == 2.0
    assert rmse_row.q25 == 1.0 and rmse_row.q75 == 3.0
    assert rmse_row.failures == 1


# ---------------------------------------------------------------------------
# config files

VALID_CONFIG = """\
[experiment]
functions = ackley_s4, ackley_s4_up13
n_values = 4, 8
families = auto
replications = 3
base_seed = 42
resolution = 100
test_size = 200
test_seed = 7

[fit]
n_starts = 6
nugget = 1e-8

[output]
timing = none
"""


def test_load_valid_config(tmp_path):
    path = tmp_path / "study.ini"
    path.write_text(VALID_CONFIG)
    cfg = load_config(str(path))
    assert cfg.functions == ("ackley_s4", "ackley_s4_up13")
    assert cfg.n_values == (4, 8)
    assert cfg.replications == 3
    assert cfg.fit_options.n_starts == 6
    assert cfg.timing == "none"
    assert validate_config(str(path)) == []


def test_config_all_functions(tmp_path):
    path = tmp_path / "study.ini"
    path.write_text("[experiment]\nfunctions = all\nreplications = 1\n")
    cfg = load_config(str(path))
    assert len(cfg.functions) == 14


@pytest.mark.parametrize(
    "mutation,needle",
    [
        ("functions = nosuch_s4", "unknown test function"),
        ("functions = ackley_s1", "'ackley_s1' needs at least 2 slices"),
        ("functions = ackley_s4_up9", "'ackley_s4_up9' upends slice 9 outside 1..4"),
        ("functions = ackley_s4\nbad_key = 1", "unknown key"),
        ("functions = ackley_s4\nreplications = zero", "must be an integer"),
        ("functions = ackley_s4\nfamilies = XX", "unknown family"),
        ("functions = ackley_s4\n[fit]\nn_starts = abc", "n_starts: must be an integer"),
        ("functions = ackley_s4\n[fit]\nn_starts = 0", "n_starts: must be >= 1"),
        ("functions = ackley_s4\n[fit]\nnugget = -1", "nugget: must be >= 0"),
        ("functions = ackley_s4\n[fit]\ncorr_nugget = 0", "corr_nugget: must be > 0"),
        ("functions = ackley_s4\n[fit]\nlengthscale_min = 2\nlengthscale_max = 1",
         "lengthscale bounds must satisfy min < max"),
        ("functions = ackley_s4\nbase_seed = -1", "base_seed: must be >= 0"),
        # only the integer 0 means automatic
        ("functions = ackley_s4\n[fit]\nmax_evals_per_start = 0.0",
         "max_evals_per_start: must be an integer or None, got 0.0"),
        ("functions = ackley_s4\nreplications = 3.0", "replications: must be an integer, got 3.0"),
        ("functions = ackley_s4\n[fit]\nnugget = abc", "nugget: must be a real number"),
        ("functions = 1", "bad function id '1'"),
        # a repeat would fit its cells twice and write each record twice
        ("functions = ackley_s4, ackley_s4", "functions: must be without repeats"),
        ("functions = ackley_s4_up13, ackley_s4_up31",
         "functions: function id 'ackley_s4_up31' is not canonical; "
         "the function's id is 'ackley_s4_up13'"),
        ("functions = ackley_s4\nn_values = 4, 4", "n_values: must be without repeats"),
        ("functions = ackley_s4\nfamilies = EC, ec", "families: must be without repeats"),
    ],
)
def test_validate_config_reports_issues(tmp_path, mutation, needle):
    path = tmp_path / "study.ini"
    path.write_text(f"[experiment]\n{mutation}\n")
    issues = validate_config(str(path))
    assert issues and any(needle in issue for issue in issues)
    with pytest.raises(ConfigError):
        load_config(str(path))


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.ini")), ids=lambda p: p.name)
def test_shipped_configs_are_valid(path):
    assert validate_config(str(path)) == []


def test_validate_config_reports_every_bad_key(tmp_path):
    path = tmp_path / "study.ini"
    path.write_text("[experiment]\nfunctions = nosuch_s4\nreplications = 0\n"
                    "test_size = two\n\n[fit]\nn_starts = 0\ncorr_nugget = 0\n")
    issues = validate_config(str(path))
    for needle in ("unknown test function", "replications: must be >= 1",
                   "test_size: must be an integer", "n_starts: must be >= 1",
                   "corr_nugget: must be > 0"):
        assert sum(needle in issue for issue in issues) == 1, (needle, issues)
    assert len(issues) == 5
    with pytest.raises(ConfigError) as err:
        load_config(str(path))
    assert "replications: must be >= 1" in str(err.value) and "n_starts" in str(err.value)


def test_validate_config_missing_functions_still_checks_the_rest(tmp_path):
    path = tmp_path / "study.ini"
    path.write_text("[experiment]\nresolution = 1\n")
    assert validate_config(str(path)) == ["missing 'functions' in [experiment]",
                                          "resolution: must be >= 2, got 1"]


def test_config_eval_budget_zero_is_automatic_and_negative_rejected(tmp_path):
    path = tmp_path / "study.ini"
    path.write_text("[experiment]\nfunctions = ackley_s4\n[fit]\nmax_evals_per_start = 0\n")
    assert load_config(str(path)).fit_options.max_evals_per_start is None
    path.write_text("[experiment]\nfunctions = ackley_s4\n[fit]\nmax_evals_per_start = -3\n")
    assert any("max_evals_per_start: must be >= 1" in issue for issue in validate_config(str(path)))


@pytest.mark.parametrize("kwargs,needle", [
    (dict(n_starts=0), "n_starts: must be >= 1"),
    (dict(n_starts=-3), "n_starts: must be >= 1"),
    (dict(seed=-1), "seed: must be >= 0"),
    (dict(nugget=-1.0), "nugget: must be >= 0"),
    (dict(nugget=float("nan")), "nugget: must be >= 0"),
    (dict(corr_nugget=0.0), "corr_nugget: must be > 0"),
    (dict(lengthscale_bounds=(2.0, 1.0)), "lengthscale bounds must satisfy min < max"),
    (dict(lengthscale_bounds=(0.0, 1.0)), "lengthscale_bounds: must be > 0"),
    (dict(max_evals_per_start=0), "max_evals_per_start: must be >= 1 or None"),
    (dict(n_starts=2.5), "n_starts: must be an integer, got 2.5"),
    (dict(n_starts=2.0), "n_starts: must be an integer"),
    (dict(seed=1.5), "seed: must be an integer"),
    (dict(seed="3"), "seed: must be an integer"),
    (dict(max_evals_per_start=7.5), "max_evals_per_start: must be an integer or None"),
    (dict(nugget="a"), "nugget: must be a real number, got 'a'"),
    (dict(corr_nugget=None), "corr_nugget: must be a real number, got None"),
    (dict(lengthscale_bounds=(1, "a")), "lengthscale_bounds: must be a pair of real numbers"),
    (dict(lengthscale_bounds=(1,)), "lengthscale_bounds: must be a pair of real numbers"),
    (dict(nugget=float("inf")), "nugget: must be >= 0 and finite"),
    (dict(corr_nugget=float("nan")), "corr_nugget: must be > 0 and finite"),
    (dict(corr_nugget=float("inf")), "corr_nugget: must be > 0 and finite"),
])
def test_fit_options_reject_values_out_of_range(kwargs, needle):
    with pytest.raises(ConfigError, match=needle) as err:
        FitOptions(**kwargs)
    assert len(err.value.issues) == 1


def test_fit_options_list_every_broken_rule():
    with pytest.raises(ConfigError) as err:
        FitOptions(n_starts=0, nugget=-1.0, lengthscale_bounds=(-2.0, -3.0))
    assert len(err.value.issues) == 4  # n_starts, nugget, both bound rules


def test_fit_options_check_ranges_on_integers_only():
    with pytest.raises(ConfigError) as err:
        FitOptions(n_starts=0.5, seed=-1.5, max_evals_per_start="x")
    assert err.value.issues == ["n_starts: must be an integer, got 0.5",
                                "seed: must be an integer, got -1.5",
                                "max_evals_per_start: must be an integer or None, got 'x'"]
    assert FitOptions(n_starts=np.int64(3), seed=np.int32(0)).n_starts == 3


@pytest.mark.parametrize("kwargs,needle", [
    (dict(n_values=(0,)), "n_values: must be >= 1"),
    (dict(families=("XX",)), "unknown family label 'XX'"),
    (dict(families=("EC", "LRC")), "unknown family label 'LRC'"),
    (dict(functions=("nosuch_s4",)), "unknown test function"),
    (dict(test_size=1), "test_size: must be >= 2"),
    (dict(resolution=1), "resolution: must be >= 2"),
    (dict(replications=0), "replications: must be >= 1"),
    (dict(base_seed=-1), "base_seed: must be >= 0"),
    (dict(test_seed=-1), "test_seed: must be >= 0"),
    (dict(timing="cpu"), "timing: must be one of"),
    (dict(n_values=(4.5,)), "n_values: must be integers"),
    (dict(replications=2.5), "replications: must be an integer"),
    (dict(base_seed=1.5), "base_seed: must be an integer"),
    (dict(replications="3"), "replications: must be an integer"),
    (dict(resolution=None), "resolution: must be an integer"),
    (dict(functions=(1,)), r"functions: must be text, got \(1,\)"),
    (dict(families=("EC", 2)), r"families: must be text, got \('EC', 2\)"),
    # one issue for a bare string or a non-iterable, not one per character
    (dict(n_values=4), "^n_values: must be a list of values, got 4$"),
    (dict(functions="ackley_s4"), "^functions: must be a list of values, got 'ackley_s4'$"),
    (dict(families="EC"), "^families: must be a list of values, got 'EC'$"),
])
def test_experiment_config_rejects_values_out_of_range(kwargs, needle):
    with pytest.raises(MixedGPError, match=needle):
        tiny_config(**kwargs)


def test_experiment_config_lists_every_broken_rule():
    with pytest.raises(ConfigError) as err:
        tiny_config(functions=("nosuch_s4", "ackley_s1"), test_size=1, families=("XX",))
    assert len(err.value.issues) == 4


def test_validate_config_missing_file(tmp_path):
    issues = validate_config(str(tmp_path / "nope.ini"))
    assert issues == ["file not found or unreadable"]


def test_validate_config_bad_timing(tmp_path):
    path = tmp_path / "study.ini"
    path.write_text("[experiment]\nfunctions = ackley_s4\n\n[output]\ntiming = cpu\n")
    assert any("timing" in issue for issue in validate_config(str(path)))
