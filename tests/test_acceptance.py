"""Acceptance suite.

Each test implements one acceptance criterion at its stated tolerance
and prints a single PASS/FAIL line (run with ``pytest -s`` to see them
as they happen). Criteria with stated runtime bounds measure and
assert them.
"""

import time
import zlib

import numpy as np

from mixedgp.bench import ExperimentConfig, run_experiment, summarize
from mixedgp.corrparam import (
    FamilySpec,
    build_correlation,
    cat_param_bounds,
    embed_lrc_in_uc,
    lrc_param_count,
    param_count,
    regularize,
    sphere_loading,
)
from mixedgp.gpcore import (
    KernelConfig,
    TrainingSet,
    concentrated_nll,
    predict_batch,
    refit_config,
)
from mixedgp.testbed import (
    empirical_cross_corr,
    get_function,
    make_sliced,
)

import conftest
from test_gpcore import naive_nll, naive_predict
from mixedgp.corrparam import corr_values


def report(num, description, passed, detail=""):
    line = f"[{'PASS' if passed else 'FAIL'}] criterion {num:2d}: {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)


# ---------------------------------------------------------------------------

PRINTED_TABLE = {
    ("ackley", 4): [-32.77, 0.00, 10.92, 32.77],
    ("ackley", 6): [-32.77, -19.66, 0.00, 6.55, 19.66, 32.77],
    ("alpine1", 4): [-10.00, 0.00, 3.33, 10.00],
    ("alpine1", 6): [-10.0, -6.0, 0.0, 2.0, 6.0, 10.0],
    ("dcs", 4): [0.00, 5.00, 6.67, 10.00],
    ("dcs", 6): [0.0, 2.0, 5.0, 6.0, 8.0, 10.0],
    ("doublesum", 4): [-65.54, 0.00, 21.85, 65.54],
    ("doublesum", 6): [-65.54, -39.32, 0.00, 13.11, 39.32, 65.54],
}


def test_criterion_01_slice_position_table():
    t0 = time.perf_counter()
    worst = 0.0
    for (name, s), printed in PRINTED_TABLE.items():
        base = get_function(name)
        from mixedgp.testbed import slice_positions, swap_optimum

        got = swap_optimum(
            slice_positions(*base.bounds[0], s), base.global_opt_pos[0]
        )
        worst = max(worst, float(np.abs(got - np.asarray(printed)).max()))
    elapsed = time.perf_counter() - t0
    ok = worst < 0.005 and elapsed < 1.0
    report(1, "printed slice positions reproduced within 0.005", ok,
           f"max gap {worst:.4f}, {elapsed:.2f}s")
    assert worst < 0.005
    assert elapsed < 1.0


def test_criterion_02_parameter_count_cells():
    cells = {
        ("EC", 4, None): 1, ("EC", 6, None): 1,
        ("MC", 4, None): 4, ("MC", 6, None): 6,
        ("LRC", 4, 2): 3, ("LRC", 6, 2): 5,
        ("LRC", 4, 3): 5, ("LRC", 6, 3): 9,
        ("LRC", 6, 4): 12, ("LRC", 6, 5): 14,
        ("UC", 4, None): 6, ("UC", 6, None): 15,
    }
    bad = {
        key: (param_count(FamilySpec(*key)), want)
        for key, want in cells.items()
        if param_count(FamilySpec(*key)) != want
    }
    report(2, "all 12 printed parameter counts exact", not bad, f"{len(cells)} cells")
    assert not bad, bad


def test_criterion_03_negative_correlation_counts():
    t0 = time.perf_counter()
    failures = []
    for name in ("ackley", "alpine1", "dcs"):
        for s, upend, want_neg in ((4, (1, 3), 4), (6, (1, 2, 4), 9)):
            original = empirical_cross_corr(make_sliced(get_function(name), s), 100)
            tri = original.matrix[np.triu_indices(s, 1)]
            if not np.all(tri > 0):
                failures.append((name, s, "original has non-positive pair"))
            upended = empirical_cross_corr(
                make_sliced(get_function(name), s, upend=upend), 100
            )
            tri = upended.matrix[np.triu_indices(s, 1)]
            n_neg = int((tri < 0).sum())
            if n_neg != want_neg:
                failures.append((name, s, f"{n_neg} negatives, wanted {want_neg}"))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 30.0
    report(3, "upending flips exactly 4/6 and 9/15 pairs negative", ok,
           f"{elapsed:.1f}s")
    assert not failures, failures
    assert elapsed < 30.0


def test_criterion_04_pdude_property_suite():
    t0 = time.perf_counter()
    draws = 10_000
    checked = 0
    for s in (2, 4, 6, 8):
        for family in ("EC", "MC", "UC", "LRC"):
            rng = np.random.default_rng(1000 * s + zlib.crc32(family.encode()) % 997)
            if family == "LRC":
                # cycle the admissible ranks; at s=2 only the full-rank
                # loading (identical to UC) exists
                ranks = list(range(2, s)) or [2]
            for i in range(draws):
                if family == "EC":
                    c = rng.uniform(1e-6, 1 - 1e-6)
                    P = build_correlation(FamilySpec("EC", s), [c]).values
                elif family == "MC":
                    phi = rng.uniform(1e-6, 10.0, size=s)
                    P = build_correlation(FamilySpec("MC", s), phi).values
                elif family == "UC":
                    theta = rng.uniform(1e-6, np.pi - 1e-6, size=s * (s - 1) // 2)
                    P = build_correlation(FamilySpec("UC", s), theta).values
                else:
                    r = ranks[i % len(ranks)]
                    theta = rng.uniform(1e-6, np.pi - 1e-6, size=lrc_param_count(s, r))
                    Q = sphere_loading(theta, s, r)
                    P = regularize(Q @ Q.T).values
                assert np.array_equal(P, P.T)
                assert np.all(np.diag(P) == 1.0)
                assert np.all(np.abs(P) <= 1.0)
                regularize(P).cholesky()
                checked += 1
    elapsed = time.perf_counter() - t0
    ok = checked == 16 * draws and elapsed < 120.0
    report(4, "10k random vectors per family and s are valid PDUDEs", ok,
           f"{checked} matrices, {elapsed:.0f}s")
    assert checked == 16 * draws
    assert elapsed < 120.0


def test_criterion_05_lrc_embeds_in_uc():
    worst = 0.0
    for s, r in ((4, 2), (4, 3), (6, 2), (6, 5)):
        rng = np.random.default_rng(10 * s + r)
        bounds = cat_param_bounds(FamilySpec("LRC", s, r))
        for _ in range(100):
            theta = rng.uniform(bounds[:, 0] + 1e-4, bounds[:, 1] - 1e-4)
            lrc = build_correlation(FamilySpec("LRC", s, r), theta).values
            uc = build_correlation(FamilySpec("UC", s), embed_lrc_in_uc(theta, s, r)).values
            worst = max(worst, float(np.abs(uc - lrc).max()))
    ok = worst < 1e-6
    report(5, "rank-limited angles embed into the full parameterization", ok,
           f"max entrywise gap {worst:.2e}")
    assert worst < 1e-6


def test_criterion_06_closed_form_maps_to_uc():
    from test_corrparam import ec_to_uc_angles, mc_to_uc_angles

    rng = np.random.default_rng(66)
    worst = 0.0
    for _ in range(20):
        c = rng.uniform(0.02, 0.98)
        uc = build_correlation(FamilySpec("UC", 3), ec_to_uc_angles(c))
        gap = np.abs(uc.values - build_correlation(FamilySpec("EC", 3), [c]).values)
        worst = max(worst, float(gap.max()))
    for _ in range(20):
        phi = rng.uniform(0.05, 2.5, size=3)
        uc = build_correlation(FamilySpec("UC", 3), mc_to_uc_angles(phi))
        gap = np.abs(uc.values - build_correlation(FamilySpec("MC", 3), phi).values)
        worst = max(worst, float(gap.max()))
    ok = worst < 1e-10
    report(6, "printed arccos mappings reproduce EC and MC at s=3", ok,
           f"max gap {worst:.2e}")
    assert worst < 1e-10


def exact_predict(X01, levels, y, ls, P, nugget, x0_01, lv0):
    """The predictor at one point by a 50-digit solve from the same doubles.

    The BLUP mu + r0^T R^-1 (y - mu 1), mu the GLS mean, does not depend
    on how the responses are standardized, so y enters unscaled.
    """
    import mpmath  # only this report needs it

    with mpmath.workdps(50):
        def kernel(a, b, la, lb):
            k = mpmath.mpf(1.0 if P is None else P[la - 1, lb - 1])
            for ad, bd, l in zip(a.tolist(), b.tolist(), ls.tolist()):
                t = mpmath.sqrt(5) * abs(mpmath.mpf(ad) - mpmath.mpf(bd)) / mpmath.mpf(l)
                k *= mpmath.exp(-t) * (1 + t + t * t / 3)
            return k

        n = len(y)
        R = mpmath.matrix(n, n)
        for i in range(n):
            for j in range(n):
                R[i, j] = kernel(X01[i], X01[j], levels[i], levels[j])
            R[i, i] += mpmath.mpf(nugget)
        ones = mpmath.matrix([1] * n)
        Ri_y = mpmath.lu_solve(R, mpmath.matrix(y.tolist()))
        Ri_1 = mpmath.lu_solve(R, ones)
        mu = sum(Ri_y) / sum(Ri_1)
        Ri_res = Ri_y - mu * Ri_1
        return mu + sum(kernel(x0_01, X01[i], lv0, levels[i]) * Ri_res[i] for i in range(n))


def test_criterion_07_gp_oracle_equivalence():
    rng = np.random.default_rng(77)
    worst_nll = worst_pred = worst_interp = 0.0
    # beside the gate: how far each side lies from the exact predictor
    worst_ours = worst_oracle = 0.0
    families = ["EC", "MC", "UC", "LRC2"]
    for i in range(30):
        n = int(rng.integers(4, 9))
        q = int(rng.integers(1, 3))
        s = int(rng.integers(2, 4))
        X = rng.random((n, q))
        levels = np.r_[np.arange(1, s + 1), rng.integers(1, s + 1, size=n - s)]
        y = rng.standard_normal(n) * 2.0 + rng.normal()
        train = TrainingSet(X, levels, y, n_levels=s)
        spec = FamilySpec.parse(families[i % 4], s) if s > 2 or families[i % 4] != "LRC2" else FamilySpec("EC", s)
        bounds = cat_param_bounds(spec)
        cat = rng.uniform(bounds[:, 0] + 0.05, np.minimum(bounds[:, 1], 3.0))
        ls = rng.uniform(0.2, 1.5, size=q)
        psi = np.r_[ls, cat]
        ours = concentrated_nll(psi, train, spec, nugget=1e-8)
        P = corr_values(spec, cat)
        theirs = naive_nll(train.X01, levels, y, ls, P, 1e-8)
        worst_nll = max(worst_nll, abs(ours - theirs))

        gp = refit_config(train, KernelConfig(ls, spec, cat, nugget=1e-8))
        x0 = rng.random(q)
        lv0 = int(rng.integers(1, s + 1))
        p_ours = float(predict_batch(gp, x0[None, :], lv0)[0])
        p_naive = naive_predict(train.X01, levels, y, ls, P, 1e-8, x0, lv0)
        worst_pred = max(worst_pred, abs(p_ours - p_naive))
        exact = exact_predict(train.X01, levels, y, ls, P, 1e-8, x0, lv0)
        worst_ours = max(worst_ours, float(abs(p_ours - exact)))
        worst_oracle = max(worst_oracle, float(abs(p_naive - exact)))

        # interpolation with zero nugget on smooth responses
        y_smooth = np.sin(3 * X[:, 0]) + 0.2 * levels
        train_s = TrainingSet(X, levels, y_smooth, n_levels=s)
        gp0 = refit_config(train_s, KernelConfig(ls, spec, cat, nugget=0.0))
        errs = np.abs(predict_batch(gp0, X, levels) - y_smooth)
        worst_interp = max(worst_interp, float(errs.max()))
    ok = worst_nll < 1e-8 and worst_pred < 1e-8 and worst_interp < 1e-6
    report(7, "likelihood and prediction match the explicit-inverse oracle", ok,
           f"nll {worst_nll:.1e}, pred {worst_pred:.1e} (ours - exact {worst_ours:.1e}, "
           f"oracle - exact {worst_oracle:.1e}), interp {worst_interp:.1e}")
    assert worst_nll < 1e-8
    assert worst_pred < 1e-8
    assert worst_interp < 1e-6


def _median(records, label, metric="rmse_corr"):
    rows = summarize(records)
    for row in rows:
        row_label = f"LRC{row.rank}" if row.family == "LRC" else row.family
        if row_label == label and row.metric == metric:
            return row.median
    raise KeyError(label)


def test_criterion_08_desk_scale_orderings(tmp_path):
    t0 = time.perf_counter()
    passing_seeds = 0
    details = []
    # far apart so the replication seed ranges base_seed + 0..19 are disjoint
    for base_seed in (1000, 2000, 3000):
        cfg_up = ExperimentConfig(
            functions=("ackley_s4_up13",), n_values=(8,),
            families=("EC", "MC", "LRC3", "UC"), replications=20,
            base_seed=base_seed, resolution=100, test_size=100, test_seed=4242,
        )
        rec_up = run_experiment(cfg_up, str(tmp_path / f"up{base_seed}"), jobs=2)
        cfg_orig = ExperimentConfig(
            functions=("ackley_s4",), n_values=(4,),
            families=("EC", "UC"), replications=20,
            base_seed=base_seed, resolution=100, test_size=100, test_seed=4242,
        )
        rec_orig = run_experiment(cfg_orig, str(tmp_path / f"orig{base_seed}"), jobs=2)

        med = {lab: _median(rec_up, lab) for lab in ("EC", "MC", "LRC3", "UC")}
        upended_ok = (
            med["LRC3"] < med["EC"] and med["LRC3"] < med["MC"]
            and med["UC"] < med["EC"] and med["UC"] < med["MC"]
        )
        med_orig = {lab: _median(rec_orig, lab) for lab in ("EC", "UC")}
        original_ok = med_orig["EC"] < med_orig["UC"]
        passing_seeds += upended_ok and original_ok
        details.append(
            f"seed {base_seed}: up({med['EC']:.2f}/{med['MC']:.2f} vs "
            f"{med['LRC3']:.2f}/{med['UC']:.2f}) orig({med_orig['EC']:.2f} vs "
            f"{med_orig['UC']:.2f}) -> {'ok' if upended_ok and original_ok else 'no'}"
        )
    elapsed = time.perf_counter() - t0
    ok = passing_seeds >= 2
    report(8, "rank-flexible families beat positive-only ones on upended data",
           ok, f"{passing_seeds}/3 seeds, {elapsed / 60:.1f} min; " + "; ".join(details))
    assert passing_seeds >= 2


def test_criterion_09_metric_unit_checks():
    from mixedgp.bench import q_squared, rmse_corr

    y = np.array([3.0, -1.0, 2.0, 5.0])
    exact = (
        q_squared(y, y) == 1.0
        and q_squared(y, np.full(4, y.mean())) == 0.0
        and rmse_corr(build_correlation(FamilySpec("EC", 3), [0.4]).values,
                      build_correlation(FamilySpec("EC", 3), [0.4]).values) == 0.0
        and rmse_corr(np.array([[1.0, 1.0], [1.0, 1.0]]),
                      np.array([[1.0, -1.0], [-1.0, 1.0]])) == 2.0
    )
    report(9, "metric unit checks are exact", exact)
    assert exact


def test_criterion_10_bench_run_determinism(tmp_path):
    from mixedgp.cli import main

    config = tmp_path / "study.ini"
    config.write_text(
        "[experiment]\n"
        "functions = ackley_s4\n"
        "n_values = 4\n"
        "families = EC, LRC2\n"
        "replications = 2\n"
        "base_seed = 5\n"
        "resolution = 30\n"
        "test_size = 40\n"
        "test_seed = 9\n"
        "\n[fit]\nn_starts = 4\nmax_evals_per_start = 300\n"
        "\n[output]\ntiming = none\n"
    )
    assert main(["bench", "run", "--config", str(config), "--out", str(tmp_path / "r1")]) == 0
    assert main(["bench", "run", "--config", str(config), "--out", str(tmp_path / "r2")]) == 0
    body = lambda p: p.read_text().splitlines()[1:]  # drop the timestamp header
    same = body(tmp_path / "r1" / "records.csv") == body(tmp_path / "r2" / "records.csv")
    report(10, "repeated runs write identical records.csv modulo timestamp", same)
    assert same
