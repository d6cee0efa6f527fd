"""Tests for the mixed-input Gaussian process core."""

import itertools
import json
import math
import operator
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from fractions import Fraction
from pathlib import Path

try:
    import resource
except ImportError:  # not on Windows
    resource = None

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg.blas import dtrsm
from scipy.linalg.lapack import dpotrf, dtrtri
from scipy.optimize import minimize

import mixedgp.corrparam as corrparam
import mixedgp.gpcore as gpcore
from mixedgp.bench import ExperimentConfig
from mixedgp.corrparam import FamilySpec, build_correlation, corr_values
from mixedgp.design import ClusterMap, Design, lhd, to_unit_coords, validate_design
from mixedgp.errors import (
    ConfigError,
    IllConditionedError,
    MixedGPError,
    ParamArityError,
    ParamDomainError,
    as_numbers,
    whole,
)
from mixedgp.gpcore import (
    FitOptions,
    KernelConfig,
    TrainingSet,
    _kernel,
    _pair_columns,
    _profile,
    build_R,
    concentrated_nll,
    fit,
    load_fit,
    predict_batch,
    psi_box,
    refit_config,
    save_fit,
)

QUICK_FIT = FitOptions(n_starts=6, max_evals_per_start=400)


# ---------------------------------------------------------------------------
# independent naive implementation (explicit inverse, no Cholesky)

def naive_matern(h, ls):
    out = 1.0
    for hi, li in zip(np.atleast_1d(h), np.atleast_1d(ls)):
        t = math.sqrt(5.0) * abs(hi) / li
        out *= math.exp(-t) * (t * t / 3.0 + t + 1.0)
    return out


def naive_R(X01, levels, ls, P, nugget):
    n = len(levels)
    R = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            R[i, j] = naive_matern(X01[i] - X01[j], ls)
            if P is not None:
                R[i, j] *= P[levels[i] - 1, levels[j] - 1]
    return R + nugget * np.eye(n)


def naive_nll(X01, levels, y, ls, P, nugget):
    z = (y - y.mean()) / y.std()
    n = len(y)
    R = naive_R(X01, levels, ls, P, nugget)
    Ri = np.linalg.inv(R)
    ones = np.ones(n)
    mu = float(ones @ Ri @ z) / float(ones @ Ri @ ones)
    resid = z - mu
    sigma2 = max(float(resid @ Ri @ resid) / n, 1e-12)
    sign, logdet = np.linalg.slogdet(R)
    assert sign > 0
    return n * math.log(sigma2) + logdet


def naive_predict(X01, levels, y, ls, P, nugget, x0_01, lv0):
    z = (y - y.mean()) / y.std()
    n = len(y)
    R = naive_R(X01, levels, ls, P, nugget)
    Ri = np.linalg.inv(R)
    ones = np.ones(n)
    mu = float(ones @ Ri @ z) / float(ones @ Ri @ ones)
    r0 = np.array([
        naive_matern(x0_01 - X01[i], ls)
        * (P[lv0 - 1, levels[i] - 1] if P is not None else 1.0)
        for i in range(n)
    ])
    return y.mean() + y.std() * (mu + float(r0 @ Ri @ (z - mu)))


def random_instance(rng, n, q=2, s=3):
    X = rng.random((n, q))
    levels = rng.integers(1, s + 1, size=n)
    levels[: min(s, n)] = np.arange(1, min(s, n) + 1)  # ensure several levels
    y = rng.standard_normal(n) * 3.0 + 1.0
    return X, levels, y


# ---------------------------------------------------------------------------
# kernel

def kernel_at(h, lengthscales, P=None, level_pair=(1, 1)):
    """The compound kernel at a single displacement h and level pair."""
    absdiff = np.abs(np.asarray(h, dtype=float))[:, None]
    K = _kernel(absdiff, lengthscales)
    if P is not None:
        K *= P[level_pair[0] - 1, level_pair[1] - 1]
    return float(K[0])


def test_matern_zero_distance_is_one():
    assert kernel_at(np.zeros(3), np.ones(3)) == 1.0


def test_matern_unit_distance_frozen_value():
    # direct evaluation of exp(-sqrt5) (5/3 + sqrt5 + 1)
    assert kernel_at(np.array([1.0]), np.array([1.0])) == pytest.approx(
        0.5239941088318203, abs=1e-15
    )


@settings(max_examples=50, deadline=None)
@given(
    a=st.floats(-3, 3), b=st.floats(-3, 3),
    t1=st.floats(0.05, 5), t2=st.floats(0.05, 5),
)
def test_matern_separability(a, b, t1, t2):
    joint = kernel_at(np.array([a, b]), np.array([t1, t2]))
    split = kernel_at(np.array([a]), np.array([t1])) * kernel_at(np.array([b]), np.array([t2]))
    assert joint == pytest.approx(split, rel=1e-12)


@settings(max_examples=50, deadline=None)
@given(h=st.floats(-10, 10), t=st.floats(0.05, 8))
def test_matern_in_unit_interval(h, t):
    v = kernel_at(np.array([h]), np.array([t]))
    assert 0.0 < v <= 1.0


def loop_kernel(absdiff, lengthscales):
    """The Matern(5/2) product one dimension at a time: the reference.

    ``absdiff`` yields one array per dimension. Returns the product
    (1.0 without dimensions) and the list of each dimension's
    lengthscale_d * d log k / d lengthscale_d, each written out as the
    stacked kernel is expected to compute it.
    """
    K = 1.0
    dlog = []
    for t in map(operator.mul, math.sqrt(5.0) / np.asarray(lengthscales), absdiff):
        K *= np.exp(-t) * (t * t / 3.0 + t + 1.0)
        dlog.append(t * t * (1.0 + t) / (t * t + 3.0 * t + 3.0))
    return K, dlog


@settings(max_examples=80, deadline=None)
@given(
    q=st.integers(min_value=0, max_value=4),
    n=st.integers(min_value=2, max_value=12),
    m=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_stacked_kernel_matches_the_per_dimension_loop(q, n, m, seed):
    # to the last bit: on the training set's packed pair differences,
    # expanded to every ordered pair as the likelihood expands them,
    # against freshly built per-dimension (n, n) arrays, and on a (q, m)
    # stack such as kernel_at's against its rows
    rng = np.random.default_rng(seed)
    ls = np.exp(rng.uniform(math.log(1e-2), math.log(10.0), size=q))
    X = rng.random((n, q))
    train = TrainingSet(X, np.arange(1, n + 1), rng.standard_normal(n))
    fresh = [np.abs(train.X01[:, d, None] - train.X01[None, :, d]) for d in range(q)]
    h = rng.random((q, m)) * rng.choice([0.0, 1.0, 5.0], size=(q, m))
    for absdiff, per_dim, index in ((train.absdiff, fresh, _pair_columns(n)),
                                    (h, list(h), np.arange(m))):
        K, D = _kernel(absdiff, ls, dlog=True)
        assert K.shape == absdiff.shape[1:] and D.shape == absdiff.shape
        assert np.array_equal(_kernel(absdiff, ls), K)
        K, D = K.take(index, axis=-1), D.take(index, axis=-1)
        ref_K, ref_D = loop_kernel(per_dim, ls)
        assert np.array_equal(K, np.broadcast_to(ref_K, K.shape))
        assert all(np.array_equal(d, r) for d, r in zip(D, ref_D, strict=True))


def test_compound_corr_cases():
    config = KernelConfig(np.array([0.5, 0.5]), FamilySpec("EC", 2), np.array([0.4]))
    P = build_correlation(FamilySpec("EC", 2), [0.4]).values
    ls = config.lengthscales
    w = np.array([0.2, 0.7])
    assert kernel_at(w - w, ls, P, (1, 1)) == 1.0
    assert kernel_at(w - w, ls, P, (1, 2)) == pytest.approx(0.4, abs=1e-15)
    far = np.array([0.9, 0.1])
    expected = kernel_at(w - far, ls) * 0.4
    assert kernel_at(w - far, ls, P, (1, 2)) == pytest.approx(expected, rel=1e-14)


# ---------------------------------------------------------------------------
# training set and R

def test_training_set_rejects_duplicates():
    X = np.array([[0.1, 0.2], [0.1, 0.2], [0.5, 0.5]])
    with pytest.raises(ParamDomainError):
        TrainingSet(X, [1, 1, 2], [0.0, 1.0, 2.0])


def test_training_set_needs_two_points():
    with pytest.raises(ParamDomainError):
        TrainingSet(np.array([[0.5]]), [1], [1.0])


def test_training_set_same_x_different_level_ok():
    X = np.array([[0.1, 0.2], [0.1, 0.2], [0.5, 0.5]])
    ts = TrainingSet(X, [1, 2, 1], [0.0, 1.0, 2.0])
    assert ts.n == 3 and ts.n_levels == 2


@pytest.mark.parametrize("where", ["X", "y"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_training_set_rejects_non_finite_data(where, bad):
    X = np.array([[0.1], [0.5], [0.9]])
    y = np.array([0.0, 1.0, 2.0])
    (X if where == "X" else y)[1] = bad
    with pytest.raises(ParamDomainError, match="must be finite"):
        TrainingSet(X, [1, 1, 2], y)


_X3, _Y3 = [[0.1], [0.5], [0.9]], [0.0, 1.0, 2.0]


@pytest.mark.filterwarnings("error")  # numpy warns where it drops an imaginary part
@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: TrainingSet([["a"], [0.5], [0.9]], [1, 1, 2], _Y3), ParamDomainError,
                 "not str; X must be real numbers", id="X-text"),
    pytest.param(lambda: TrainingSet([[0.1, 0.2], [0.5], [0.9]], [1, 1, 2], _Y3), ParamArityError,
                 "X must be numbers or rows", id="X-ragged"),
    pytest.param(lambda: TrainingSet(np.zeros((2, 2, 2)), [1, 2], [0.0, 1.0]), ParamArityError,
                 r"X must have shape \(n, q\), got \(2, 2, 2\)", id="X-3d"),
    pytest.param(lambda: TrainingSet(np.array(_X3) + 1j, [1, 1, 2], _Y3), ParamDomainError,
                 "not complex128; X must be real numbers", id="X-complex"),
    pytest.param(lambda: TrainingSet(np.array([[True], [False]]), [1, 1], [0.0, 1.0]),
                 ParamDomainError, "not bool; X must be real numbers", id="X-boolean"),
    pytest.param(lambda: TrainingSet(_X3, [1, 1, 2], ["0", "1", "2"]), ParamDomainError,
                 "not str; y must be real numbers", id="y-text"),
    pytest.param(lambda: TrainingSet(_X3, [1, 1, 2], [[0.0, 1.0], [2.0]]), ParamArityError,
                 "y must be numbers or rows", id="y-ragged"),
    pytest.param(lambda: TrainingSet(_X3, [1, 1, 2], np.array(_Y3) + 1j), ParamDomainError,
                 "not complex128; y must be real numbers", id="y-complex"),
    pytest.param(lambda: TrainingSet(_X3, [1, 1, 2], [True, False, True]), ParamDomainError,
                 "not bool; y must be real numbers", id="y-boolean"),
    pytest.param(lambda: KernelConfig([0.5 + 0.1j]), ParamDomainError,
                 "not complex; lengthscales must be real numbers", id="lengthscales-complex"),
    pytest.param(lambda: KernelConfig([0.5], FamilySpec("EC", 2), np.array([0.5 + 0j])),
                 ParamDomainError, "not complex128; cat_params must be real numbers",
                 id="cat_params-complex"),
    pytest.param(lambda: concentrated_nll([0.5, 0.5 + 0.1j], TrainingSet(_X3, [1, 1, 2], _Y3),
                                          FamilySpec("EC", 2)),
                 ParamDomainError, "not complex; psi must be real numbers", id="psi-complex"),
    pytest.param(lambda: corrparam.check_params(FamilySpec("MC", 2), np.array([0.5, 1 + 1j])),
                 ParamDomainError, "not complex128; MC parameters must be real numbers",
                 id="check_params-complex"),
    pytest.param(lambda: TrainingSet(_X3, [1, 1, 2], _Y3, bounds=np.array([[0.0, 1.0 + 0j]])),
                 ParamArityError, r"bounds must be 1 \(lower, upper\) pairs", id="bounds-complex"),
])
def test_what_is_no_number_is_rejected_naming_the_argument(call, error, message):
    # numpy reads "1" and True as numbers and a complex number as its real part
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize("values", [
    [1, 3, 2**53 + 1],
    [Fraction(1, 3), Fraction(2, 7), Fraction(5, 2)],
    np.array([0.1, 0.7, 0.3], np.float32),
    np.array([1, 4, 9]),
], ids=["ints", "fractions", "float32", "int-array"])
def test_numbers_convert_to_the_bits_numpy_gives_them(values):
    expected = np.array(values, dtype=float)
    assert as_numbers(values, "v").tobytes() == expected.tobytes()
    ts = TrainingSet([[v] for v in values], [1, 2, 1], values, bounds=[(0, 2**54)])
    assert ts.X.tobytes() == expected.tobytes() and ts.y.tobytes() == expected.tobytes()
    ts = TrainingSet(np.asarray(values)[:, None], np.array([1, 2, 1], np.int32), values,
                     bounds=[(0, 2**54)])
    assert ts.X.tobytes() == expected.tobytes() and ts.levels.tolist() == [1, 2, 1]
    assert KernelConfig(values).lengthscales.tobytes() == expected.tobytes()
    gp = refit_config(ts, KernelConfig([2**52]))
    query = np.asarray(values)[:, None]
    assert predict_batch(gp, query, 1).tobytes() == predict_batch(gp, expected[:, None], 1).tobytes()


# 2**63 is a uint64 to numpy, which astype(int) wraps; 10**30 no int64 at all
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n_levels", [2.9, np.nan, np.inf, -np.inf, 2**63, 10**30, "4x", "4",
                                      4 + 0j])
def test_training_set_rejects_a_non_integral_level_count(n_levels):
    with pytest.raises(ParamDomainError, match="n_levels must be integers"):
        TrainingSet(np.array([[0.1], [0.5]]), [1, 2], [0.0, 1.0], n_levels=n_levels)


def test_training_set_accepts_an_integral_float_level_count():
    ts = TrainingSet(np.array([[0.1], [0.5]]), [1, 2], [0.0, 1.0], n_levels=4.0)
    assert ts.n_levels == 4 and type(ts.n_levels) is int


def test_family_with_another_level_count_than_the_training_set_rejected(tmp_path):
    # a model's level count is its training set's n_levels: a family of
    # fewer levels, or of more, is rejected by every entry point
    rng = np.random.default_rng(2)
    X, levels, y = random_instance(rng, 10, s=4)
    ts = TrainingSet(X, levels, y)
    path = tmp_path / "fit.json"
    save_fit(refit_config(ts, KernelConfig([0.3, 0.4], FamilySpec("EC", 4), [0.5])), path)
    saved = json.loads(path.read_text())
    for s in (3, 5):
        spec = FamilySpec("EC", s)
        config = KernelConfig([0.3, 0.4], spec, [0.5])
        message = f"EC has {s} levels but the training set has 4"
        with pytest.raises(ParamDomainError, match=message):
            fit(ts, spec, QUICK_FIT)
        with pytest.raises(ParamDomainError, match=message):
            refit_config(ts, config)
        with pytest.raises(ParamDomainError, match=message):
            concentrated_nll([0.3, 0.4, 0.5], ts, spec)
        with pytest.raises(ParamDomainError, match=message):
            build_R(ts, config)
        path.write_text(json.dumps({**saved, "s": s}))
        with pytest.raises(ParamDomainError, match=message):
            load_fit(path)


@pytest.mark.parametrize("lengthscales", [[0.3], [0.3, 0.4, 0.5]])
def test_a_wrong_lengthscale_count_rejected(tmp_path, lengthscales):
    rng = np.random.default_rng(2)
    ts = TrainingSet(*random_instance(rng, 10, q=2, s=3))
    spec = FamilySpec("EC", 3)
    config = KernelConfig(lengthscales, spec, [0.5])
    message = f"need 2 lengthscales, one per continuous dimension, got {len(lengthscales)}"
    with pytest.raises(ParamArityError, match=message):
        refit_config(ts, config)
    with pytest.raises(ParamArityError, match=message):
        build_R(ts, config)
    with pytest.raises(ParamArityError):
        concentrated_nll([*lengthscales, 0.5], ts, spec)
    path = tmp_path / "fit.json"
    save_fit(refit_config(ts, KernelConfig([0.3, 0.4], spec, [0.5])), path)
    doc = json.loads(path.read_text())
    doc["lengthscales"] = lengthscales
    path.write_text(json.dumps(doc))
    with pytest.raises(ParamArityError, match=message):
        load_fit(path)


@pytest.mark.parametrize("nugget, corr_nugget", [
    (math.nan, 1e-8), (math.inf, 1e-8), (-1e-9, 1e-8),
    (1e-8, 0.0), (1e-8, -0.5), (1e-8, -1.0), (1e-8, math.nan), (1e-8, math.inf),
    ("1e-8", 1e-8), (1e-8, None),
])
def test_nuggets_must_be_finite_and_in_range(tmp_path, nugget, corr_nugget):
    rng = np.random.default_rng(2)
    ts = TrainingSet(*random_instance(rng, 10, q=2, s=3))
    spec = FamilySpec("LRC", 3, 2)
    lo, hi = psi_box(2, spec, FitOptions())
    theta = (lo[2:] + hi[2:]) / 2
    message = "nugget must be finite and"
    with pytest.raises(ParamDomainError, match=message):
        refit_config(ts, KernelConfig([0.3, 0.4], spec, theta, nugget, corr_nugget))
    with pytest.raises(ParamDomainError, match=message):
        concentrated_nll([0.3, 0.4, *theta], ts, spec, nugget, corr_nugget)
    path = tmp_path / "fit.json"
    save_fit(refit_config(ts, KernelConfig([0.3, 0.4], spec, theta)), path)
    doc = json.loads(path.read_text())
    doc.update(nugget=nugget, corr_nugget=corr_nugget)
    path.write_text(json.dumps(doc))
    with pytest.raises(ParamDomainError, match=message):
        load_fit(path)


def test_fit_is_its_refit_plus_the_start_objectives():
    rng = np.random.default_rng(3)
    ts = TrainingSet(*random_instance(rng, 10, s=3))
    gp = fit(ts, FamilySpec("MC", 3), FitOptions(n_starts=3))
    again = refit_config(ts, gp.config)
    assert len(gp.start_objectives) == 3 and again.start_objectives == ()
    assert gp.neg_log_lik == again.neg_log_lik
    assert np.array_equal(gp.alpha, again.alpha) and np.array_equal(gp.chol_R, again.chol_R)


@pytest.mark.parametrize("bounds", [[[0.0, np.inf]], [[-np.inf, 1.0]], [[np.nan, 1.0]]])
def test_training_set_rejects_non_finite_bounds(bounds):
    with pytest.raises(ParamDomainError, match="bounds must be finite"):
        TrainingSet(np.array([[0.1], [0.5]]), [1, 2], [0.0, 1.0], bounds=bounds)


# bounds that are not q = 2 (lower, upper) pairs: transposed, flat, ragged, booleans
MISSHAPED_BOUNDS = [[[0, 1, 0], [1, 0, 1]], [0, 1, 0, 1], [[0, 1], [0]],
                    [[False, True], [False, True]]]


@pytest.mark.parametrize("bounds", MISSHAPED_BOUNDS)
def test_training_set_rejects_misshaped_bounds(bounds):
    with pytest.raises(ParamArityError, match=r"bounds must be 2 \(lower, upper\) pairs"):
        TrainingSet(np.array([[0.1, 0.2], [0.5, 0.6]]), [1, 2], [0.0, 1.0], bounds=bounds)


def test_training_set_pairwise_differences_are_contiguous_per_dimension():
    rng = np.random.default_rng(4)
    ts = TrainingSet(rng.random((7, 3)), np.ones(7, int), rng.standard_normal(7))
    absdiff = ts.absdiff
    assert absdiff.shape == (3, 22) and absdiff.flags.c_contiguous
    assert ts.absdiff is absdiff
    # every array the likelihood reads is built once and read-only
    arrays = (ts.X01, ts.absdiff, ts.rhs, ts.level_indicator, ts.pair_index)
    assert not any(a.flags.writeable for a in arrays)
    assert [a.shape for a in arrays] == [(7, 3), (3, 22), (2, 7), (7, 1), (7, 7)]
    for d in range(3):
        assert np.array_equal(absdiff[d].take(_pair_columns(7)),
                              np.abs(ts.X01[:, d, None] - ts.X01[None, :, d]))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=40),
    q=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_packed_pair_differences_expand_to_every_ordered_pair(n, q, seed):
    # one column per unordered pair and a zero column for the diagonal;
    # expanded through _pair_columns, each ordered pair's entry is the
    # difference taken in that pair's own order, to the last bit
    rng = np.random.default_rng(seed)
    X = rng.random((n, q)) * rng.choice([1e-3, 1.0], size=(n, q))
    ts = TrainingSet(X, np.arange(1, n + 1), rng.standard_normal(n))
    absdiff, columns = ts.absdiff, _pair_columns(n)
    assert absdiff.shape == (q, n * (n - 1) // 2 + 1) and not absdiff[:, -1].any()
    assert columns.shape == (n, n) and np.array_equal(columns, columns.T)
    assert (np.diag(columns) == n * (n - 1) // 2).all()
    full = absdiff.take(columns, axis=1)
    for i in range(n):
        for j in range(n):
            assert np.array_equal(full[:, i, j], np.abs(ts.X01[i] - ts.X01[j]))


def test_training_set_keeps_its_own_copy_of_the_responses():
    rng = np.random.default_rng(41)
    X, levels, y = random_instance(rng, 10, s=2)
    ts = TrainingSet(X, levels, y)
    z, mean, std = ts.rhs[0], ts.y_mean, ts.y_std
    kept = (z.copy(), mean, std)
    spec = FamilySpec("EC", 2)
    before = fit(ts, spec, QUICK_FIT)
    y *= -3.0
    y[0] = 100.0
    z_after, mean_after, std_after = ts.rhs[0], ts.y_mean, ts.y_std
    assert np.array_equal(z_after, kept[0]) and (mean_after, std_after) == kept[1:]
    assert not (ts.y.flags.writeable or z_after.flags.writeable)
    again = fit(ts, spec, QUICK_FIT)
    assert again.neg_log_lik == before.neg_log_lik
    assert np.array_equal(again.config.lengthscales, before.config.lengthscales)
    assert np.array_equal(again.config.cat_params, before.config.cat_params)
    assert again.y_mean == before.y_mean and again.y_std == before.y_std


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=64),
    exponent=st.integers(min_value=-100, max_value=100),
    offset=st.sampled_from([0.0, 1.0, -3.0e5, 1.0e8, -7.0e12]),
    constant=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_training_set_standardizes_as_numpy_does(n, exponent, offset, constant, seed):
    # y_mean, y_std and z are y.mean(), y.std() and (y - mean) / std to
    # the last bit, on responses of magnitudes 1e-100 to 1e100, with
    # large common offsets (deviations far below the mean) and constant
    rng = np.random.default_rng(seed)
    scale = 10.0 ** exponent
    if constant:
        # an integer times a power of two: the mean is exact, the std 0
        y = np.full(n, float(rng.integers(-999, 1000)) * 2.0 ** round(exponent * math.log2(10)))
    else:
        y = (offset + rng.standard_normal(n)) * scale
    ts = TrainingSet(np.arange(n)[:, None] / n, np.ones(n, int), y)
    mean, std = float(y.mean()), float(y.std())
    std = 1.0 if std < gpcore._YSTD_FLOOR else std
    assert (ts.y_mean.hex(), ts.y_std.hex()) == (mean.hex(), std.hex())
    assert ts.rhs[0].tobytes() == ((y - mean) / std).tobytes()
    assert (ts.rhs[1] == 1.0).all()
    if constant:
        assert ts.y_std == 1.0 and not ts.rhs[0].any()


def test_training_set_normalizes_with_bounds():
    bounds = np.array([[-10.0, 10.0], [0.0, 4.0]])
    ts = TrainingSet(np.array([[0.0, 2.0], [10.0, 0.0]]), [1, 1], [0.0, 1.0], bounds)
    assert np.allclose(ts.X01, [[0.5, 0.5], [1.0, 0.0]])


def test_build_R_far_points_identity():
    ts = TrainingSet(np.array([[0.0], [1.0]]), [1, 1], [0.0, 1.0])
    config = KernelConfig(np.array([1e-2]), nugget=0.0)
    R, L = build_R(ts, config)
    assert np.allclose(R, np.eye(2), atol=1e-12)


def test_build_R_random_points_pd():
    rng = np.random.default_rng(0)
    X, levels, y = random_instance(rng, 10)
    ts = TrainingSet(X, levels, y)
    spec = FamilySpec("EC", int(levels.max()))
    config = KernelConfig(np.array([0.4, 0.4]), spec, np.array([0.6]), nugget=1e-8)
    R, L = build_R(ts, config)
    assert np.allclose(R, R.T)
    assert np.allclose(np.diag(R), 1.0 + 1e-8)
    assert np.linalg.eigvalsh(R).min() > 0
    assert np.allclose(L @ L.T, R, atol=1e-8)


def test_kernel_validity_thirty_random_points():
    rng = np.random.default_rng(99)
    X, levels, y = random_instance(rng, 30, q=3, s=4)
    ts = TrainingSet(X, levels, y)
    spec = FamilySpec("LRC", 4, 2)
    theta = rng.uniform(0.2, np.pi - 0.2, size=3)
    config = KernelConfig(np.array([0.3, 0.5, 0.8]), spec, theta, nugget=0.0)
    R, _ = build_R(ts, KernelConfig(config.lengthscales, spec, theta, nugget=1e-8))
    before = R - 1e-8 * np.eye(30)
    assert np.linalg.eigvalsh(before).min() >= -1e-10
    assert np.linalg.eigvalsh(R).min() > 0


# ---------------------------------------------------------------------------
# concentrated likelihood

def test_nll_far_points_reduces_to_sample_stats():
    # points so far apart (relative to the lengthscale) that R == I
    X = np.linspace(0.0, 1.0, 5)[:, None]
    y = np.array([0.3, -1.2, 2.5, 0.1, 0.9])
    ts = TrainingSet(X, np.ones(5, int), y)
    config = KernelConfig(np.array([1e-2]), nugget=0.0)
    gp = refit_config(ts, config)
    assert gp.mu_hat == pytest.approx(y.mean(), abs=1e-9)
    assert gp.sigma2_hat == pytest.approx(y.var(), rel=1e-9)
    # objective: n log sigma2_z + logdet(I); standardized variance is 1
    assert gp.neg_log_lik == pytest.approx(0.0, abs=1e-9)


def test_nll_constant_responses_guarded():
    X = np.linspace(0.0, 1.0, 4)[:, None]
    ts = TrainingSet(X, np.ones(4, int), np.full(4, 3.3))
    value = concentrated_nll(np.array([0.5]), ts, None, nugget=1e-8)
    assert np.isfinite(value)
    # sigma2 is floored, so the objective is n log(floor) plus logdet(R)
    sign, logdet = np.linalg.slogdet(naive_R(ts.X01, ts.levels, np.array([0.5]), None, 1e-8))
    assert sign > 0
    assert value == pytest.approx(4 * math.log(1e-12) + logdet, abs=1e-8)


def test_nll_matches_naive_inverse():
    rng = np.random.default_rng(17)
    for _ in range(5):
        X, levels, y = random_instance(rng, 6)
        ts = TrainingSet(X, levels, y)
        spec = FamilySpec("EC", int(levels.max()))
        psi = np.array([0.7, 0.4, 0.55])
        ours = concentrated_nll(psi, ts, spec, nugget=1e-8)
        P = corr_values(spec, psi[2:])
        theirs = naive_nll(ts.X01, levels, y, psi[:2], P, 1e-8)
        assert ours == pytest.approx(theirs, abs=1e-8)


def solve_nll(X01, levels, y, ls, P, nugget):
    """Reference likelihood from explicit solves with R and slogdet."""
    z = (y - y.mean()) / y.std()
    n = len(y)
    R = naive_R(X01, levels, ls, P, nugget)
    ones = np.ones(n)
    mu = float(ones @ np.linalg.solve(R, z)) / float(ones @ np.linalg.solve(R, ones))
    resid = z - mu
    sigma2 = max(float(resid @ np.linalg.solve(R, resid)) / n, 1e-12)
    sign, logdet = np.linalg.slogdet(R)
    assert sign > 0
    return n * math.log(sigma2) + logdet


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(["EC", "MC", "LRC", "UC"]),
    s=st.integers(min_value=3, max_value=5),
    n=st.integers(min_value=6, max_value=14),
    log_nugget=st.floats(min_value=-4.0, max_value=-2.0),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_profiled_nll_matches_explicit_solves(family, s, n, log_nugget, seed):
    # psi anywhere in the fit box; the nugget keeps cond(R) below ~1e5,
    # so both computations are accurate far beyond the 1e-10 compared
    rng = np.random.default_rng(seed)
    X, levels, y = random_instance(rng, n, q=2, s=s)
    ts = TrainingSet(X, levels, y, n_levels=s)
    spec = FamilySpec(family, s, 2 if family == "LRC" else None)
    lo, hi = psi_box(ts.q, spec, FitOptions())
    psi = rng.uniform(lo, hi)
    nugget = 10.0**log_nugget
    ours = concentrated_nll(psi, ts, spec, nugget=nugget)
    P = corr_values(spec, psi[2:])
    theirs = solve_nll(ts.X01, levels, y, psi[:2], P, nugget)
    assert abs(ours - theirs) <= 1e-10 * max(1.0, abs(theirs))


def central_gradient(f, psi, step):
    """Five-point central differences of f at psi, step[k] along psi_k."""
    out = np.empty(psi.size)
    for k in range(psi.size):
        e = np.zeros(psi.size)
        e[k] = step[k]
        out[k] = (f(psi - 2 * e) - 8 * f(psi - e) + 8 * f(psi + e) - f(psi + 2 * e)) / (12 * e[k])
    return out


def gradient_gap(f, psi, grad, scale):
    """Largest gap between grad and central differences of f, relative
    to max(1, max|grad|), each component at its best of the steps 1e-3,
    1e-4 and 1e-5 times scale.

    No one step suits every psi: rounding in the objective (cond(R) up
    to ~1e5) spoils small steps, and where two levels' loadings nearly
    coincide the objective bends sharply and truncation spoils large
    ones. A wrong gradient misses at all three.
    """
    gaps = [np.abs(grad - central_gradient(f, psi, frac * scale)) for frac in (1e-3, 1e-4, 1e-5)]
    return np.min(gaps, axis=0).max() / max(1.0, np.abs(grad).max())


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(["EC", "MC", "LRC", "UC", None]),
    s=st.integers(min_value=3, max_value=5),
    n=st.integers(min_value=6, max_value=14),
    log_nugget=st.floats(min_value=-4.0, max_value=-2.0),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_profile_gradient_matches_central_differences(family, s, n, log_nugget, seed):
    # psi anywhere in the fit box but 1% of its width from the faces;
    # the nugget as in the explicit-solve test above; steps scaled by
    # each lengthscale and by each category parameter's distance to its
    # domain's edge
    rng = np.random.default_rng(seed)
    X, levels, y = random_instance(rng, n, q=2, s=s)
    ts = TrainingSet(X, levels, y, n_levels=s)
    spec = None if family is None else FamilySpec(family, s, 2 if family == "LRC" else None)
    lo, hi = psi_box(ts.q, spec, FitOptions())
    margin = 1e-2 * (hi - lo)
    psi = rng.uniform(lo + margin, hi - margin)
    nugget = 10.0**log_nugget

    def nll(p):
        return profile_one(ts, p[:2], spec, p[2:], nugget, 1e-8)[0]

    grad = profile_one(ts, psi[:2], spec, psi[2:], nugget, 1e-8, grad=True)[1]
    scale = np.minimum(psi - lo, hi - psi)
    scale[:2] = psi[:2]
    assert gradient_gap(nll, psi, grad, scale) <= 1e-6


def profile_one(train, lengthscales, spec, cat_params, nugget, corr_nugget, grad=False):
    """_profile at one point, through a stack of one: (value, gradient or None)."""
    nll, *_, g, _ = _profile(train, np.asarray(lengthscales, dtype=float)[None], spec,
                             None if spec is None else np.asarray(cat_params, dtype=float)[None],
                             nugget, corr_nugget, grad=grad)
    return nll[0], None if g is None else g[0]


def reference_profile(train, z, lengthscales, spec, cat_params, nugget, corr_nugget):
    """_profile(grad=True)'s (value, gradient), written out step by step;
    None where R does not factor.

    The kernel comes from :func:`loop_kernel` on one freshly allocated
    array per dimension; P is gathered with np.ix_, the nugget added
    through R.flat, the level sums formed with a fresh indicator and
    the rank-one term with np.outer. Every floating-point operation is
    the one ``_profile`` is meant to perform, in the same order.
    """
    q, n = train.q, train.n
    parts = []
    P = None if spec is None else corr_values(spec, cat_params, corr_nugget, parts=parts)
    fresh = [np.abs(train.X01[:, d, None] - train.X01[None, :, d]) for d in range(q)]
    K, dlog = loop_kernel(fresh, lengthscales)
    K = np.broadcast_to(K, (n, n))
    Ppairs = 1.0 if spec is None else P[np.ix_(train.levels - 1, train.levels - 1)]
    R = K * Ppairs
    R.flat[:: n + 1] += nugget
    L, info = dpotrf(R, lower=1)
    if info != 0:
        return None
    zb = np.asfortranarray(np.column_stack([z, np.ones(n)]))
    a, b = dtrsm(1.0, L, zb, lower=1).T
    mu = float(b @ a) / float(b @ b)
    r = a - mu * b
    rr = float(r @ r) / n
    sigma2 = max(rr, gpcore.SIGMA2_FLOOR)
    value = n * math.log(sigma2) + 2.0 * float(np.log(L.diagonal()).sum())
    Linv = dtrtri(L, lower=1)[0]
    W = Linv.T @ Linv
    if rr > gpcore.SIGMA2_FLOOR:
        alpha = dtrsm(1.0, L, r, lower=1, trans_a=1)
        W -= np.outer(alpha, alpha / sigma2)
    WK = W * K
    WR = WK * Ppairs
    grad = [np.vdot(WR, dl) / ell for ell, dl in zip(lengthscales, dlog)]
    if spec is not None:
        E = (train.levels[:, None] == np.arange(1, spec.s + 1)).astype(float)
        grad.extend(corrparam.corr_grad(spec, cat_params, E.T @ WK @ E, parts, corr_nugget))
    return value, np.array(grad)


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(["EC", "MC", "LRC", "UC", None]),
    s=st.integers(min_value=3, max_value=6),
    q=st.integers(min_value=1, max_value=3),
    n=st.integers(min_value=6, max_value=32),
    k=st.integers(min_value=1, max_value=5),
    bad=st.integers(min_value=0, max_value=5),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_profile_matches_the_per_dimension_reference_bitwise(family, s, q, n, k, bad, seed):
    # the stacked kernel on the memoized (C-contiguous) differences must
    # give the value and gradient of the per-dimension computation to
    # the last bit; strided per-dimension slices would round differently.
    # Each of the k stacked points must give its own bits, whatever the
    # others are: row ``bad`` (if there is one) has lengthscales of
    # -0.05, whose Matern factors grow with distance, so that its R is
    # far from positive definite and does not factor; it must come out
    # as a failed point
    rng = np.random.default_rng(seed)
    X, levels, y = random_instance(rng, n, q=q, s=s)
    ts = TrainingSet(X, levels, y, n_levels=s)
    rank = min(3, s - 1) if family == "LRC" else None
    spec = None if family is None else FamilySpec(family, s, rank)
    lo, hi = psi_box(ts.q, spec, FitOptions())
    psi = rng.uniform(lo, hi, size=(k, lo.size))
    bad = bad if bad < k else None
    if bad is not None:
        psi[bad, :q] = -0.05
    z = ts.rhs[0]
    nugget = 1e-6
    references = [reference_profile(ts, z, p[:q], spec, p[q:], nugget, 1e-8) for p in psi]
    assume(all(ref is not None for i, ref in enumerate(references) if i != bad))
    nll, ok, *_, g, _ = _profile(ts, psi[:, :q], spec, None if spec is None else psi[:, q:],
                                 nugget, 1e-8, grad=True)
    assert nll.shape == ok.shape == (k,) and g.shape == psi.shape
    for i, ref in enumerate(references):
        if i == bad:
            assert ref is None
            assert not ok[i] and nll[i] == gpcore._FAILED_OBJ and not g[i].any()
        else:
            assert ok[i] and nll[i] == ref[0]
            assert np.array_equal(g[i], ref[1])


def test_profile_value_same_with_and_without_gradient():
    rng = np.random.default_rng(3)
    X, levels, y = random_instance(rng, 8)
    ts = TrainingSet(X, levels, y)
    spec = FamilySpec("EC", int(levels.max()))
    plain = profile_one(ts, [0.4, 0.6], spec, [0.5], 1e-6, 1e-8)
    both = profile_one(ts, [0.4, 0.6], spec, [0.5], 1e-6, 1e-8, grad=True)
    assert plain[1] is None and both[1].shape == (3,)
    assert plain[0] == both[0]


def test_categorical_only_model():
    # no continuous inputs: R is P at the level pairs plus the nugget
    ts = TrainingSet(np.empty((4, 0)), [1, 2, 3, 4], [0.3, -1.2, 0.8, 2.0])
    spec = FamilySpec("MC", 4)
    psi = np.array([0.2, 0.5, 0.9, 1.3])
    ours = concentrated_nll(psi, ts, spec, nugget=1e-3)
    theirs = solve_nll(ts.X01, ts.levels, ts.y, [], corr_values(spec, psi), 1e-3)
    assert abs(ours - theirs) <= 1e-10 * max(1.0, abs(theirs))
    gp = fit(ts, spec, FitOptions(n_starts=2))
    assert gp.neg_log_lik == concentrated_nll(gp.config.cat_params, ts, spec)
    assert np.array_equal(build_R(ts, gp.config)[1], gp.chol_R)


@pytest.mark.parametrize("label", ["none", "EC", "MC", "LRC2", "LRC3", "UC"])
def test_build_R_and_concentrated_nll_follow_the_fitted_model(label):
    # every auto family at s = 4: build_R assembles the model's R, and
    # concentrated_nll is the model's k = 1 likelihood, bit for bit
    rng = np.random.default_rng(21)
    X, levels, y = random_instance(rng, 16, s=4)
    ts = TrainingSet(X, levels, y)
    spec = None if label == "none" else FamilySpec.parse(label, 4)
    gp = fit(ts, spec, FitOptions(n_starts=2, max_evals_per_start=60))
    config = gp.config
    R, L = build_R(ts, config)
    assert np.array_equal(L, gp.chol_R)
    assert np.array_equal(np.diag(R), np.full(ts.n, 1.0 + config.nugget))
    cat = config.cat_params
    psi = np.r_[config.lengthscales, () if cat is None else cat]
    value = concentrated_nll(psi, ts, spec, config.nugget, config.corr_nugget)
    assert value == refit_config(ts, config).neg_log_lik
    assert value == profile_one(ts, config.lengthscales, spec, cat, config.nugget,
                                config.corr_nugget)[0]
    assert value == gp.neg_log_lik


@pytest.mark.parametrize("label", ["EC", "MC", "LRC2", "LRC3", "UC"])
def test_profile_category_gradient_builds_the_loading_once(monkeypatch, label):
    # the gradient reuses the loading corr_values built for P; it must
    # give the same numbers as a fresh build, to the last bit
    builds = []
    real_parts = corrparam._sphere_parts

    def count_parts(*args):
        builds.append(args)
        return real_parts(*args)

    weights = []
    real_grad = gpcore.corr_grad

    def keep_weights(spec, values, G, *args):
        weights.append(G)
        return real_grad(spec, values, G, *args)

    monkeypatch.setattr(corrparam, "_sphere_parts", count_parts)
    monkeypatch.setattr(gpcore, "corr_grad", keep_weights)
    rng = np.random.default_rng(sum(map(ord, label)))
    s = 5
    spec = FamilySpec.parse(label, s)
    X, levels, y = random_instance(rng, 14, s=s)
    ts = TrainingSet(X, levels, y, n_levels=s)
    lo, hi = psi_box(ts.q, spec, FitOptions())
    for _ in range(5):
        psi = rng.uniform(lo, hi)
        builds.clear()
        weights.clear()
        g = profile_one(ts, psi[:2], spec, psi[2:], 1e-6, 1e-4, grad=True)[1]
        assert len(builds) == (0 if spec.family in ("EC", "MC") else 1)
        assert len(weights) == 1 and weights[0].shape == (1, s, s)
        fresh = [] if spec.family in ("EC", "MC") else real_parts(psi[2:], s, spec.rank or s)
        assert np.array_equal(g[2:],
                              corrparam.corr_grad(spec, psi[2:], weights[0][0], fresh, 1e-4))


def test_concentrated_nll_singular_R_raises():
    ts = TrainingSet(np.array([[0.0], [5e-324]]), [1, 1], [0.0, 1.0])
    with pytest.raises(IllConditionedError):
        concentrated_nll(np.array([0.5]), ts, None, nugget=0.0)


def test_concentrated_nll_and_build_R_reject_a_family_with_fewer_levels():
    rng = np.random.default_rng(5)
    ts = TrainingSet(*random_instance(rng, 9, s=3))
    spec = FamilySpec("EC", 2)
    message = "EC has 2 levels but the training set has 3"
    with pytest.raises(ParamDomainError, match=message):
        concentrated_nll([0.3, 0.4, 0.5], ts, spec)
    with pytest.raises(ParamDomainError, match=message):
        build_R(ts, KernelConfig([0.3, 0.4], spec, [0.5]))


@pytest.mark.parametrize("family,psi", [
    (None, [0.3]), (None, [0.3, 0.4, 0.5]),
    ("EC", [0.3, 0.4]), ("EC", [0.3, 0.4, 0.5, 0.6]), ("MC", [0.3, 0.4, 0.5]),
])
def test_concentrated_nll_rejects_a_wrong_length_psi(family, psi):
    rng = np.random.default_rng(6)
    ts = TrainingSet(*random_instance(rng, 9, s=3))
    spec = None if family is None else FamilySpec(family, 3)
    with pytest.raises(ParamArityError):
        concentrated_nll(psi, ts, spec)


@pytest.mark.parametrize("lengthscales, cat_params", [
    ([0.3, np.inf], [0.5, 1.0, 1.0]), ([np.nan, 0.4], [0.5, 1.0, 1.0]),
    ([0.3, 0.5], [np.inf, 1.0, 1.0]), ([0.3, 0.5], [0.5, np.nan, 1.0]),
])
def test_non_finite_kernel_parameters_rejected(tmp_path, lengthscales, cat_params):
    # an infinite MC parameter is inside the family's domain (phi > 0),
    # and save_fit would write it as Infinity, which is not JSON
    rng = np.random.default_rng(2)
    ts = TrainingSet(*random_instance(rng, 10, q=2, s=3))
    spec = FamilySpec("MC", 3)
    message = "lengthscales must be positive and finite|cat_params must be finite"
    with pytest.raises(ParamDomainError, match=message):
        KernelConfig(lengthscales, spec, cat_params)
    with pytest.raises(ParamDomainError, match=message):
        concentrated_nll([*lengthscales, *cat_params], ts, spec)
    with pytest.raises(ParamDomainError, match=message):
        refit_config(ts, KernelConfig(lengthscales, spec, cat_params))
    path = tmp_path / "fit.json"
    save_fit(refit_config(ts, KernelConfig([0.3, 0.4], spec, [0.5, 1.0, 1.0])), path)
    doc = json.loads(path.read_text())
    doc.update(lengthscales=lengthscales, cat_params=cat_params)
    path.write_text(json.dumps(doc))  # Infinity and NaN, as Python's json writes them
    assert "Infinity" in path.read_text() or "NaN" in path.read_text()
    with pytest.raises(ParamDomainError, match=message):
        load_fit(path)


@pytest.mark.parametrize("label,values,message", [
    ("EC", [1.0], "EC parameter must lie in (0, 1), got 1.0"),
    ("EC", [np.nan], "EC parameter must lie in (0, 1), got nan"),
    ("MC", [0.5, -0.1, 0.2], "MC parameters must all be positive"),
    ("MC", [0.5, np.nan, 0.2], "MC parameters must all be positive"),
    ("LRC2", [1.0, 3.5], "LRC2 angles must lie in (0, pi)"),
    ("UC", [1.0, 1.0, 0.0], "UC angles must lie in (0, pi)"),
    ("UC", [1.0, np.nan, 1.0], "UC angles must lie in (0, pi)"),
])
def test_family_parameters_outside_the_domain_rejected_where_they_enter(tmp_path, label, values,
                                                                         message):
    # one rule and one text per family (corrparam.check_params), at every
    # entry of one parameter vector; a model meets NaN first in its own
    # finiteness check
    spec = FamilySpec.parse(label, 3)
    rank = spec.rank or 3
    builders = [lambda: corr_values(spec, values), lambda: build_correlation(spec, values)]
    if spec.family in ("UC", "LRC"):
        builders.append(lambda: corrparam.sphere_loading(values, 3, rank))
    if spec.family == "LRC":
        builders.append(lambda: corrparam.embed_lrc_in_uc(values, 3, rank))
    for build in builders:
        with pytest.raises(ParamDomainError, match=re.escape(message)):
            build()
    rng = np.random.default_rng(8)
    ts = TrainingSet(*random_instance(rng, 9, s=3))
    path = tmp_path / "fit.json"
    inside = corrparam.cat_param_bounds(spec).mean(axis=1)
    save_fit(refit_config(ts, KernelConfig([0.3, 0.4], spec, inside)), path)
    doc = json.loads(path.read_text())
    doc["cat_params"] = values
    path.write_text(json.dumps(doc))
    message = "cat_params must be finite" if np.isnan(values).any() else message
    for build in (lambda: KernelConfig([0.3, 0.4], spec, values),
                  lambda: concentrated_nll([0.3, 0.4, *values], ts, spec),
                  lambda: load_fit(path)):
        with pytest.raises(ParamDomainError, match=re.escape(message)):
            build()


def test_fit_evaluates_only_points_inside_the_parameter_box(monkeypatch):
    # _profile checks no parameter: every family row that fit hands it
    # lies in the family's box, inside the domain, and every lengthscale
    # row in lengthscale_bounds as the search's log box maps back to it
    # (exp(log(10)) is 10.000000000000002). The searches reach the box
    # faces, and rows there are in the box too.
    rows = []

    def spy(train, lengthscales, spec, cat_params, *args, **kwargs):
        rows.append((lengthscales.copy(), cat_params.copy()))
        return real_profile(train, lengthscales, spec, cat_params, *args, **kwargs)

    real_profile = gpcore._profile
    monkeypatch.setattr(gpcore, "_profile", spy)
    rng = np.random.default_rng(12)
    ts = TrainingSet(*random_instance(rng, 16, s=4), n_levels=4)
    options = FitOptions(n_starts=6)
    ls_lo, ls_hi = np.exp(np.log(options.lengthscale_bounds))
    for label in ("EC", "MC", "LRC3", "UC"):
        spec = FamilySpec.parse(label, 4)
        rows.clear()
        fit(ts, spec, options)
        ls, cat = (np.concatenate(part) for part in zip(*rows))
        lo, hi = corrparam.cat_param_bounds(spec).T
        assert ((lo <= cat) & (cat <= hi)).all(), label
        assert ((ls_lo <= ls) & (ls <= ls_hi)).all(), label
        assert ((cat == lo) | (cat == hi)).any(), label


@pytest.mark.parametrize("family", [None, "EC"])
@pytest.mark.parametrize("lengthscale", [0.0, -0.2, np.nan])
def test_concentrated_nll_rejects_a_non_positive_lengthscale(family, lengthscale):
    rng = np.random.default_rng(7)
    ts = TrainingSet(*random_instance(rng, 9, s=3))
    spec = None if family is None else FamilySpec(family, 3)
    psi = [0.3, lengthscale] + ([] if spec is None else [0.5])
    with pytest.raises(ParamDomainError, match="lengthscales must be positive"):
        concentrated_nll(psi, ts, spec)


# ---------------------------------------------------------------------------
# fitting

def test_fit_is_deterministic_and_bounded_by_starts():
    rng = np.random.default_rng(2)
    X, levels, y = random_instance(rng, 12, s=2)
    ts = TrainingSet(X, levels, y)
    spec = FamilySpec("EC", 2)
    fit1 = fit(ts, spec, QUICK_FIT)
    fit2 = fit(ts, spec, QUICK_FIT)
    assert np.array_equal(fit1.config.lengthscales, fit2.config.lengthscales)
    assert np.array_equal(fit1.config.cat_params, fit2.config.cat_params)
    assert fit1.neg_log_lik == fit2.neg_log_lik
    finite_starts = [v for v in fit1.start_objectives if np.isfinite(v)]
    assert finite_starts and fit1.neg_log_lik <= min(finite_starts) + 1e-9


def test_fit_recovers_ec_parameter():
    # data generated from a known EC process; the estimate should land
    # near the truth in at least 80% of seeded replications
    from mixedgp.design import cslhd

    hits = 0
    for rep in range(50):
        rng = np.random.default_rng(5000 + rep)
        d, _ = cslhd(20, 2, 1, 5000 + rep)
        P = build_correlation(FamilySpec("EC", 2), [0.8]).values
        points = TrainingSet(d.X, d.levels, np.zeros(40), n_levels=2)
        K = _kernel(points.absdiff, np.array([0.3])).take(_pair_columns(40))
        R = K * np.take(P, points.pair_index)
        R[np.diag_indices_from(R)] += 1e-10
        y = np.linalg.cholesky(R) @ rng.standard_normal(40)
        ts = TrainingSet(d.X, d.levels, y, n_levels=2)
        result = fit(ts, FamilySpec("EC", 2), QUICK_FIT)
        c_hat = float(result.config.cat_params[0])
        hits += abs(c_hat - 0.8) <= 0.15
    assert hits >= 40


def test_fit_single_level_falls_back_to_continuous(recwarn):
    X = np.linspace(0, 1, 8)[:, None]
    y = np.sin(3 * X[:, 0])
    ts = TrainingSet(X, np.ones(8, int), y, n_levels=2)
    with pytest.warns(UserWarning, match="one categorical level"):
        gp = fit(ts, FamilySpec("EC", 2), QUICK_FIT)
    assert gp.config.family_spec is None
    # prediction works for any level and ignores the categorical part
    p1 = predict_batch(gp, np.array([[0.4]]), 1)[0]
    p2 = predict_batch(gp, np.array([[0.4]]), 2)[0]
    assert p1 == p2


def spy_on_searches(monkeypatch):
    """Record (start, box, maxfun, result) of each search of a fit, in
    the order the searches end."""
    searches = []
    real = gpcore._lbfgsb_search

    def spy(u0, lo, hi, maxfun):
        out = yield from real(u0, lo, hi, maxfun)
        searches.append((u0.copy(), np.column_stack([lo, hi]), maxfun, out))
        return out

    monkeypatch.setattr(gpcore, "_lbfgsb_search", spy)
    return searches


def fit_objective(train, spec, options):
    """The objective of fit's searches at one point u alone: (f, g) in u =
    (log lengthscales, family parameters), _FAILED_OBJ and zeros where
    the likelihood fails."""
    q = train.q

    def objective(u):
        ls = np.exp(u[None, :q])
        nll, *_, g, _ = _profile(train, ls, spec, None if spec is None else u[None, q:],
                                 options.nugget, options.corr_nugget, grad=True)
        g[:, :q] *= ls
        return nll[0], g[0]

    return objective


def assert_replays_alone(train, spec, options, searches):
    """Replay each search of a lockstep fit alone, through minimize on the
    single-point objective; each must end exactly as it did in the fit."""
    objective = fit_objective(train, spec, options)
    assert len(searches) == options.n_starts
    for u0, box, maxfun, out in list(searches):  # the replays are recorded too
        f, u, nfev, nit, task = assert_same_search_as_minimize(objective, u0, box, maxfun)
        assert (f, nfev, nit, task) == (out[0], out[2], out[3], out[4])
        assert np.array_equal(u, out[1])


@pytest.mark.parametrize("cap", [None, 7])
def test_fit_caps_evaluations_per_start(monkeypatch, cap):
    # max_evals_per_start is L-BFGS-B's maxfun; None means 150 per parameter
    searches = spy_on_searches(monkeypatch)
    rng = np.random.default_rng(9)
    X, levels, y = random_instance(rng, 9, s=3)
    fit(TrainingSet(X, levels, y), FamilySpec("UC", 3),
        FitOptions(n_starts=2, max_evals_per_start=cap))
    dim = 2 + 3
    assert [search[2] for search in searches] == [cap or 150 * dim] * 2


def test_fit_objective_gradient_matches_its_values(monkeypatch):
    # the search runs on (log lengthscales, cat_params): the gradient
    # L-BFGS-B receives must be the one of the values it receives
    searches = spy_on_searches(monkeypatch)
    rng = np.random.default_rng(5)
    X, levels, y = random_instance(rng, 10, s=3)
    train, spec, options = TrainingSet(X, levels, y), FamilySpec("UC", 3), FitOptions(n_starts=3)
    fit(train, spec, options)
    assert len(searches) == 3
    fun = fit_objective(train, spec, options)
    for u, *_ in searches:
        assert gradient_gap(lambda v: fun(v)[0], u, fun(u)[1], np.maximum(1.0, np.abs(u))) <= 1e-6


# ---------------------------------------------------------------------------
# _lbfgsb_search against scipy.optimize.minimize, its reference

_TASK_NAMES = {4: "CONVERGENCE", 5: "STOP", 8: "ABNORMAL"}


def _lbfgsb(objective, u0, box, maxfun):
    """gpcore._lbfgsb_search run alone: ``objective(u)`` returns (f, g)."""
    search = gpcore._lbfgsb_search(u0, *np.ascontiguousarray(box.T), maxfun)
    try:
        u = next(search)
        while True:
            u = search.send(objective(u))
    except StopIteration as stop:
        return stop.value


def assert_same_search_as_minimize(objective, u0, box, maxfun):
    """Run _lbfgsb and minimize from u0; every reported field must agree.

    Returns _lbfgsb's result (f, u, nfev, nit, task).
    """
    ref = minimize(objective, u0, jac=True, method="L-BFGS-B", bounds=box,
                   options={"maxfun": maxfun})
    out = f, u, nfev, nit, task = _lbfgsb(objective, u0, box, maxfun)
    status = 0 if task[0] == 4 else 1 if nfev > maxfun or nit >= 15000 else 2
    assert (f, nfev, nit, status) == (ref.fun, ref.nfev, ref.nit, ref.status)
    assert np.array_equal(u, ref.x)
    assert ref.message.split(":")[0] == _TASK_NAMES[task[0]]
    return out


def rosenbrock(u):
    f = float(np.sum(100.0 * (u[1:] - u[:-1] ** 2) ** 2 + (1.0 - u[:-1]) ** 2))
    g = np.zeros_like(u)
    g[:-1] = -400.0 * u[:-1] * (u[1:] - u[:-1] ** 2) - 2.0 * (1.0 - u[:-1])
    g[1:] += 200.0 * (u[1:] - u[:-1] ** 2)
    return f, g


def uphill_bowl(u):  # a bowl's value with its negated gradient: no descent
    return float(u @ u), -2.0 * u


def rippled_bowl(u):  # ripples the gradient omits: line searches fail late
    return float(np.sum((u - 0.3) ** 2) + 1e-3 * np.sin(1e4 * u).sum()), 2.0 * (u - 0.3)


@pytest.mark.parametrize("maxfun", [7, 15000])
@pytest.mark.parametrize("upper", [2.0, 0.5])  # 0.5: the optimum is on the box
@pytest.mark.parametrize("dim", [2, 4, 6])
def test_lbfgsb_matches_minimize_on_boxed_rosenbrock(dim, upper, maxfun):
    rng = np.random.default_rng(dim)
    box = np.column_stack([np.full(dim, -1.5), np.full(dim, upper)])
    tasks = {assert_same_search_as_minimize(rosenbrock, rng.uniform(-1.5, upper, dim), box,
                                            maxfun)[4][0]
             for _ in range(4)}
    assert (5 in tasks) == (maxfun == 7)  # stopped by maxfun


def test_lbfgsb_matches_minimize_on_abnormal_exits():
    box = np.column_stack([np.full(3, -2.0), np.full(3, 2.0)])
    for objective in (uphill_bowl, rippled_bowl):
        u0 = np.random.default_rng(0).uniform(-1.0, 1.0, 3)
        assert assert_same_search_as_minimize(objective, u0, box, 100)[4][0] == 8


def test_lbfgsb_clips_a_start_outside_the_box():
    box = np.column_stack([np.zeros(2), np.ones(2)])
    assert_same_search_as_minimize(rosenbrock, np.array([-0.5, 0.3]), box, 150)


@pytest.mark.parametrize("cap", [None, 7])
@pytest.mark.parametrize("label", ["EC", "MC", "LRC2", "UC"])
def test_lbfgsb_matches_minimize_on_the_fit_objective(monkeypatch, label, cap):
    # the fit's searches run in lockstep; each, replayed alone through
    # minimize, must end exactly where it did
    searches = spy_on_searches(monkeypatch)
    rng = np.random.default_rng(21)
    X, levels, y = random_instance(rng, 10, s=3)
    train, spec = TrainingSet(X, levels, y), FamilySpec.parse(label, 3)
    options = FitOptions(n_starts=3, max_evals_per_start=cap)
    fit(train, spec, options)
    assert_replays_alone(train, spec, options, searches)
    for *_, out in searches:
        assert (out[4][0] == 5) == (cap is not None)


def test_lbfgsb_matches_minimize_where_the_fit_search_ends_abnormally(monkeypatch):
    # criterion 8's upended cell at base seed 1000, replication 4: a UC
    # search there ends in an ABNORMAL line search, and minimize reports
    # the last trial's value, not the value at the point it returns
    from mixedgp.design import cslhd, to_problem_coords
    from mixedgp.testbed import eval_sliced_batch, get_testbed_function

    fn = get_testbed_function("ackley_s4_up13")
    d, _ = cslhd(8, fn.s, fn.base.d - 1, 1004)
    X = to_problem_coords(d.X, fn.rest_bounds)
    y = np.empty(d.n_total)
    for lv in range(1, fn.s + 1):
        y[d.levels == lv] = eval_sliced_batch(fn, lv, X[d.levels == lv])
    train = TrainingSet(X, d.levels, y, bounds=fn.rest_bounds, n_levels=fn.s)
    searches = spy_on_searches(monkeypatch)
    spec, options = FamilySpec("UC", 4), FitOptions(seed=1004)
    fit(train, spec, options)
    assert_replays_alone(train, spec, options, searches)
    objective = fit_objective(train, spec, options)
    gaps = [objective(u)[0] - f for *_, (f, u, _, _, task) in searches if task[0] == 8]
    assert any(gap != 0.0 for gap in gaps)


def test_fit_evaluates_each_start_once(monkeypatch):
    calls = []
    real = gpcore._profile

    def spy(train, lengthscales, spec, cat_params, *args, grad=False):
        if grad:  # the search's evaluations; the finished model's is not one
            calls.extend(np.c_[lengthscales, cat_params].tolist())
        return real(train, lengthscales, spec, cat_params, *args, grad=grad)

    monkeypatch.setattr(gpcore, "_profile", spy)
    searches = spy_on_searches(monkeypatch)
    rng = np.random.default_rng(3)
    X, levels, y = random_instance(rng, 10, s=3)
    q = X.shape[1]
    fit(TrainingSet(X, levels, y), FamilySpec("MC", 3), FitOptions(n_starts=4))
    assert len(searches) == 4
    for u0, *_ in searches:
        assert calls.count(np.r_[np.exp(u0[:q]), u0[q:]].tolist()) == 1
    # and no point is evaluated outside the searches' counts
    assert len(calls) == sum(search[3][2] for search in searches)


@pytest.mark.parametrize("n, n_starts, evaluation", [
    pytest.param(10, 4, 0, id="start"),
    pytest.param(10, 4, 3, id="fourth-evaluation"),
    # at N = 30 and q = 2 a stacked call holds 9 rows: the 12 starts take two
    pytest.param(30, 12, 0, id="start-in-a-split-round"),
])
def test_an_exception_at_one_point_ends_only_its_search(monkeypatch, n, n_starts, evaluation):
    # the searches share stacked likelihood calls; a point whose
    # evaluation raises, a start included, must end its own search, as
    # it would alone, and leave every other search's path as it was
    rng = np.random.default_rng(8)
    train, spec = TrainingSet(*random_instance(rng, n, s=3)), FamilySpec("MC", 3)
    options = FitOptions(n_starts=n_starts)
    asked = {}
    real_search = gpcore._lbfgsb_search

    def recording(u0, lo, hi, maxfun):
        asked[u0.tobytes()] = points = []
        answer = None
        search = real_search(u0, lo, hi, maxfun)
        try:
            while True:
                points.append(search.send(answer).copy())
                answer = yield points[-1]
        except StopIteration as stop:
            return stop.value

    monkeypatch.setattr(gpcore, "_lbfgsb_search", recording)
    fit(train, spec, options)
    starts = list(asked)
    poisoned = np.exp(asked[starts[1]][evaluation][:train.q])  # search 1's point
    monkeypatch.setattr(gpcore, "_lbfgsb_search", real_search)
    clean = spy_on_searches(monkeypatch)
    clean_fit = fit(train, spec, options)
    ends = {u0.tobytes(): out for u0, *_, out in clean}
    monkeypatch.setattr(gpcore, "_lbfgsb_search", real_search)
    real_profile = gpcore._profile
    rows = []  # the number of points of each likelihood call

    def raising(train, lengthscales, *args, **kwargs):
        rows.append(len(lengthscales))
        if (lengthscales == poisoned).all(axis=1).any():
            raise RuntimeError("boom")
        return real_profile(train, lengthscales, *args, **kwargs)

    monkeypatch.setattr(gpcore, "_profile", raising)
    hit = spy_on_searches(monkeypatch)
    model = fit(train, spec, options)
    # a search that raises records no end; the others end as before
    assert isinstance(model, gpcore.GPFit)
    assert len(ends) == n_starts and len(hit) == n_starts - 1
    assert starts[1] not in {u0.tobytes() for u0, *_ in hit}
    for u0, *_, (f, u, *rest) in hit:
        g, v, *others = ends[u0.tobytes()]
        assert f == g and np.array_equal(u, v) and rest == others
    # search 1 offers its start unless the start raised
    expected = list(clean_fit.start_objectives)
    if evaluation == 0:
        expected[1] = math.inf
        # the starts' round: only the call holding search 1's start, the
        # first, is made again, one row at a time
        chunk = gpcore._STACK_ELEMENTS // (train.q * n * n)
        sizes = [min(chunk, n_starts - at) for at in range(0, n_starts, chunk)]
        assert rows[:1 + sizes[0] + len(sizes) - 1] == sizes[:1] + [1] * sizes[0] + sizes[1:]
    assert model.start_objectives == tuple(expected)
    assert all(type(v) is float for v in model.start_objectives)


def test_fit_failure_carries_diagnostics(monkeypatch):
    from mixedgp.errors import FitFailureError

    # distinct floats whose kernel correlation rounds to exactly 1 for
    # every lengthscale in the box, so R is singular at every start
    X = np.array([[0.0], [5e-324]])
    assert X[0, 0] != X[1, 0]
    ts = TrainingSet(X, [1, 1], [0.0, 1.0])
    with pytest.raises(FitFailureError) as err:
        fit(ts, None, FitOptions(n_starts=3, nugget=0.0))
    assert len(err.value.diagnostics) == 3
    # a likelihood that raises at every gradient call, so at every start:
    # one diagnostic per search, its exception
    real_profile = gpcore._profile

    def raising(*args, grad=False, **kwargs):
        if grad:
            raise RuntimeError("boom")
        return real_profile(*args, grad=grad, **kwargs)

    monkeypatch.setattr(gpcore, "_profile", raising)
    rng = np.random.default_rng(6)
    ts = TrainingSet(*random_instance(rng, 8, s=2))
    with pytest.raises(FitFailureError) as err:
        fit(ts, FamilySpec("EC", 2), FitOptions(n_starts=3))
    assert err.value.diagnostics == [(idx, "exception: boom") for idx in range(3)]


def test_predict_rejects_unknown_level():
    rng = np.random.default_rng(6)
    X, levels, y = random_instance(rng, 8, s=2)
    ts = TrainingSet(X, levels, y)
    gp = refit_config(
        ts, KernelConfig(np.array([0.5, 0.5]), FamilySpec("EC", 2), np.array([0.5]))
    )
    with pytest.raises(ParamDomainError):
        predict_batch(gp, np.array([[0.5, 0.5]]), 3)


def test_chol_R_is_lower_cholesky_factor_of_R():
    rng = np.random.default_rng(13)
    X, levels, y = random_instance(rng, 12, s=3)
    ts = TrainingSet(X, levels, y)
    spec = FamilySpec("UC", 3)
    config = KernelConfig(np.array([0.4, 0.7]), spec, np.array([1.0, 2.0, 0.5]))
    L = refit_config(ts, config).chol_R
    R, _ = build_R(ts, config)
    assert np.array_equal(L, np.tril(L))
    assert np.all(np.diag(L) > 0)
    assert np.allclose(L @ L.T, R, rtol=0.0, atol=1e-12)


def test_neg_log_lik_matches_recomputation():
    rng = np.random.default_rng(8)
    X, levels, y = random_instance(rng, 10, s=2)
    ts = TrainingSet(X, levels, y)
    spec = FamilySpec("EC", 2)
    gp = fit(ts, spec, QUICK_FIT)
    psi = np.r_[gp.config.lengthscales, gp.config.cat_params]
    again = concentrated_nll(psi, ts, spec, nugget=gp.config.nugget)
    assert gp.neg_log_lik == pytest.approx(again, abs=1e-8)


# ---------------------------------------------------------------------------
# prediction

def make_smooth_instance(rng, n=9, nugget=0.0):
    X = rng.random((n, 2))
    levels = np.tile([1, 2], (n + 1) // 2)[:n]
    y = np.sin(3 * X[:, 0]) + X[:, 1] ** 2 + 0.5 * (levels == 2)
    ts = TrainingSet(X, levels, y, n_levels=2)
    config = KernelConfig(
        np.array([0.5, 0.5]), FamilySpec("EC", 2), np.array([0.7]), nugget=nugget
    )
    return ts, config


def test_interpolation_with_zero_nugget():
    rng = np.random.default_rng(3)
    ts, config = make_smooth_instance(rng)
    gp = refit_config(ts, config)
    preds = predict_batch(gp, ts.X, ts.levels)
    assert np.abs(preds - ts.y).max() < 1e-6


def test_far_query_returns_trend():
    X = np.array([[0.01, 0.01], [0.02, 0.03], [0.03, 0.01]])
    ts = TrainingSet(X, [1, 1, 1], np.array([1.0, 2.0, 3.0]))
    config = KernelConfig(np.array([1e-2, 1e-2]), nugget=1e-8)
    gp = refit_config(ts, config)
    far = float(predict_batch(gp, np.array([[0.99, 0.99]]), 1)[0])
    assert far == pytest.approx(gp.mu_hat, abs=1e-9)


def test_predict_matches_naive_inverse():
    rng = np.random.default_rng(23)
    X, levels, y = random_instance(rng, 5)
    ts = TrainingSet(X, levels, y)
    s = int(levels.max())
    spec = FamilySpec("EC", s)
    config = KernelConfig(np.array([0.6, 0.9]), spec, np.array([0.5]), nugget=1e-8)
    gp = refit_config(ts, config)
    P = corr_values(spec, config.cat_params)
    for _ in range(5):
        x0 = rng.random(2)
        lv0 = int(rng.integers(1, s + 1))
        ours = float(predict_batch(gp, x0[None, :], lv0)[0])
        theirs = naive_predict(ts.X01, levels, y, config.lengthscales, P, 1e-8, x0, lv0)
        assert ours == pytest.approx(theirs, abs=1e-10)


def test_prediction_equivariance_under_response_affine_maps():
    rng = np.random.default_rng(31)
    X, levels, y = random_instance(rng, 10, s=2)
    spec = FamilySpec("EC", 2)
    grid = rng.random((7, 2))
    base = fit(TrainingSet(X, levels, y), spec, QUICK_FIT)
    shifted = fit(TrainingSet(X, levels, y + 11.0), spec, QUICK_FIT)
    scaled = fit(TrainingSet(X, levels, 2.5 * y), spec, QUICK_FIT)
    p0 = predict_batch(base, grid, 1)
    assert np.allclose(predict_batch(shifted, grid, 1), p0 + 11.0, atol=1e-8)
    assert np.allclose(predict_batch(scaled, grid, 1), 2.5 * p0, atol=1e-8)
    # the optimizer saw standardized data equal up to rounding (2.2e-16),
    # which a gradient-based search may carry into the last bits of psi
    assert np.allclose(base.config.lengthscales, scaled.config.lengthscales,
                       rtol=1e-10, atol=0)


@pytest.mark.parametrize(
    "X,levels,error",
    [
        ([[0.2], [0.7]], 1, ParamArityError),  # one column for a q = 2 model
        ([[0.2, 0.3, 0.4]], 1, ParamArityError),
        (np.full((2, 2, 2), 0.5), 1, ParamArityError),
        ([[0.2, np.nan], [0.5, 0.5]], 1, ParamDomainError),
        ([[np.inf, 0.2]], 2, ParamDomainError),
        ([[0.2, 0.3], [0.4, 0.5], [0.6, 0.7]], [1, 2], ParamArityError),
        ([[0.2, 0.3], [0.4, 0.5]], [[1, 2]], ParamArityError),
        ([["0.2", "0.3"]], 1, ParamDomainError),  # text
        ([[0.2, 0.3], [0.4]], 1, ParamArityError),  # ragged
        (np.full((2, 2), 0.5 + 3j), 1, ParamDomainError),
        (np.full((2, 2), True), 1, ParamDomainError),
    ],
)
@pytest.mark.filterwarnings("error")  # numpy warns where it drops an imaginary part
def test_predict_rejects_malformed_queries(X, levels, error):
    rng = np.random.default_rng(6)
    X_train, train_levels, y = random_instance(rng, 8, s=2)
    gp = refit_config(
        TrainingSet(X_train, train_levels, y),
        KernelConfig(np.array([0.5, 0.5]), FamilySpec("EC", 2), np.array([0.5])),
    )
    with pytest.raises(error):
        predict_batch(gp, X, levels)


def test_predict_accepts_one_level_or_one_per_row():
    rng = np.random.default_rng(6)
    X_train, train_levels, y = random_instance(rng, 8, s=2)
    gp = refit_config(
        TrainingSet(X_train, train_levels, y),
        KernelConfig(np.array([0.5, 0.5]), FamilySpec("EC", 2), np.array([0.5])),
    )
    X = rng.random((3, 2))
    each = predict_batch(gp, X, [2, 2, 2])
    assert np.array_equal(predict_batch(gp, X, 2), each)
    assert np.array_equal(predict_batch(gp, X, [2]), each)
    assert np.array_equal(predict_batch(gp, X[0], 2), each[:1])


def test_predict_outside_bounds_rejected():
    ts = TrainingSet(np.array([[0.1], [0.9]]), [1, 1], [0.0, 1.0])
    gp = refit_config(ts, KernelConfig(np.array([0.5])))
    with pytest.raises(ParamDomainError):
        predict_batch(gp, np.array([[1.5]]), 1)


@pytest.mark.filterwarnings("error")  # a complex level cast to int warns
def test_non_integral_levels_rejected():
    rng = np.random.default_rng(6)
    X_train, train_levels, y = random_instance(rng, 8, s=2)
    beyond_int64 = [[*train_levels[:-1].tolist(), big] for big in (2**63, 10**30)]
    # text, None and complex numbers, through each dtype numpy gives them
    others = [[*train_levels[:-1].tolist(), value] for value in ("a", None, 1 + 0j)]
    for bad in (train_levels + 0.5, np.where(train_levels == 2, np.nan, 1.0), *beyond_int64,
                np.array(beyond_int64[0], np.uint64), train_levels.astype(str),
                train_levels.astype(complex), *others):
        with pytest.raises(ParamDomainError, match="integers"):
            TrainingSet(X_train, bad, y)
    ts = TrainingSet(X_train, train_levels.astype(float), y)  # 2.0 is level 2
    assert ts.levels.dtype.kind == "i" and np.array_equal(ts.levels, train_levels)
    gp = refit_config(
        ts, KernelConfig(np.array([0.5, 0.5]), FamilySpec("EC", 2), np.array([0.5]))
    )
    X = rng.random((2, 2))
    assert np.array_equal(predict_batch(gp, X, 2.0), predict_batch(gp, X, 2))
    assert np.array_equal(predict_batch(gp, X, [1.0, 2.0]), predict_batch(gp, X, [1, 2]))
    for bad in (1.9, [1, 1.5], np.nan, np.inf, 2**63, 10**30, [1, 10**30], "2", ["a", "b"],
                None, [None, 1], 1 + 0j, [1 + 0j, 2]):
        with pytest.raises(ParamDomainError, match="integers"):
            predict_batch(gp, X, bad)
    for ragged in ([[1, 2], [1]], [1, [2]]):
        with pytest.raises(ParamArityError, match="levels must be numbers or rows"):
            TrainingSet(X_train, ragged, y)
        with pytest.raises(ParamArityError, match="levels must be numbers or rows"):
            predict_batch(gp, X, ragged)


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda X, levels, y, gp: FitOptions(n_starts=True), ConfigError,
                 "n_starts: must be an integer", id="FitOptions-n_starts"),
    pytest.param(lambda X, levels, y, gp: FitOptions(seed=np.True_), ConfigError,
                 "seed: must be an integer", id="FitOptions-seed"),
    pytest.param(lambda X, levels, y, gp: ExperimentConfig(("ackley_s4",), n_values=(True,)),
                 ConfigError, "n_values: must be integers", id="ExperimentConfig-n_values"),
    pytest.param(lambda X, levels, y, gp: TrainingSet(X, levels > 0, y), ParamDomainError,
                 "levels must be integers", id="TrainingSet-levels"),
    pytest.param(lambda X, levels, y, gp: TrainingSet(X, levels, y, n_levels=True),
                 ParamDomainError, "n_levels must be integers", id="TrainingSet-n_levels"),
    pytest.param(lambda X, levels, y, gp: predict_batch(gp, X, True), ParamDomainError,
                 "levels must be integers", id="predict_batch-level"),
    pytest.param(lambda X, levels, y, gp: predict_batch(gp, X, levels > 0), ParamDomainError,
                 "levels must be integers", id="predict_batch-per-row"),
    pytest.param(lambda X, levels, y, gp: lhd(True, 2, 0), ParamDomainError,
                 "lhd needs integers", id="lhd"),
    pytest.param(lambda X, levels, y, gp: lhd(np.True_, 2, 0), ParamDomainError,
                 "lhd needs integers", id="lhd-numpy-bool"),
    pytest.param(lambda X, levels, y, gp: KernelConfig([True, True]), ParamDomainError,
                 "not bool; lengthscales must be real numbers", id="KernelConfig-lengthscales"),
    pytest.param(lambda X, levels, y, gp: TrainingSet(X > 0.5, levels, y), ParamDomainError,
                 "not bool; X must be real numbers", id="TrainingSet-X"),
    pytest.param(lambda X, levels, y, gp: validate_design(X, levels > 0), ParamDomainError,
                 "not bool; levels must be integers", id="validate_design-levels"),
    pytest.param(lambda X, levels, y, gp: Design(X, levels > 0, 4, 2, 2), ParamDomainError,
                 "not bool; levels must be integers", id="Design-levels"),
    pytest.param(lambda X, levels, y, gp: Design(X > 0.5, levels, 4, 2, 2), ParamDomainError,
                 "not bool; X must be real numbers", id="Design-X"),
    pytest.param(lambda X, levels, y, gp: ClusterMap(levels > 0), ParamDomainError,
                 "not bool; assignment must be integers", id="ClusterMap"),
])
def test_booleans_are_not_integers_at_the_api_boundary(call, error, message):
    # True == 1, but no count, seed or level is written as a boolean
    X, levels, y = random_instance(np.random.default_rng(6), 8, s=2)
    gp = refit_config(TrainingSet(X, levels, y),
                      KernelConfig([0.5, 0.5], FamilySpec("EC", 2), [0.5]))
    with pytest.raises(error, match=message):
        call(X, levels, y, gp)
    assert X.flags.writeable and levels.flags.writeable  # read, not frozen in place


def test_whole_rejects_booleans_and_non_integral_numbers():
    assert whole(3) and whole(np.int64(3)) and whole(np.uint8(0))
    for value in (True, False, np.True_, np.False_, 2.0, np.float64(2.0), "2", None):
        assert not whole(value), value


def test_continuous_only_model_rejects_levels_outside_the_training_set():
    rng = np.random.default_rng(6)
    X_train, train_levels, y = random_instance(rng, 8, s=2)
    gp = refit_config(TrainingSet(X_train, train_levels, y, n_levels=3),
                      KernelConfig(np.array([0.5, 0.5])))
    X = rng.random((2, 2))
    each = predict_batch(gp, X, 1)
    for lv in (2, 3, [3, 1]):
        assert np.array_equal(predict_batch(gp, X, lv), each)
    for lv in (0, 4, -3, 99, [1, 4]):
        with pytest.raises(ParamDomainError, match="outside 1..3"):
            predict_batch(gp, X, lv)


def continuous_factors(fit, X):
    """The Matern factors of the query rows against the training points,
    one (rows, n) array per dimension: the doubles predict_batch uses."""
    train = fit.train
    X01 = to_unit_coords(X, train.bounds)
    absdiff = (np.abs(X01[:, d, None] - train.X01[None, :, d]) for d in range(train.q))
    return [gpcore._matern(t)
            for t in map(operator.mul, gpcore.SQRT5 / fit.config.lengthscales, absdiff)]


def level_factors(fit, X, levels):
    """P[level, training level] per query row, (rows, n); None without a family."""
    P = fit.config.corr_matrix()
    levels = np.broadcast_to(np.asarray(levels, dtype=int), (X.shape[0],))
    return None if P is None else P[np.ix_(levels - 1, fit.train.levels - 1)]


def reference_predict(fit, X, levels):
    """predict_batch as one (rows, n) array per step, without row blocks."""
    r0 = 1.0
    for factor in continuous_factors(fit, X):
        r0 *= factor
    P = level_factors(fit, X, levels)
    if P is not None:
        r0 *= P
    return fit.y_mean + fit.y_std * (fit.mu_z + r0 @ fit.alpha)


def mesh(axes, indexing="ij"):
    """The rows of np.meshgrid over ``axes``, one column per axis."""
    return np.column_stack([a.ravel() for a in np.meshgrid(*axes, indexing=indexing)])


def block_and_cap(n):
    """predict_batch's rows per block off a grid, at n training points
    (one row spare for a lone last row), and the rows to which it caps a
    product grid's tables."""
    return gpcore._rows(gpcore._STACK_ELEMENTS - n, n), gpcore._rows(gpcore._GRID_ELEMENTS, n)


def on_product_grid(X, cap):
    """predict_batch's rule for the one-product path: the rows list every
    combination of the columns' distinct values once, in nested order
    over some order of the columns; some column repeats a value; and no
    table, nor the product of the tables inside the outermost (constant
    columns nest anywhere), has more than ``cap`` rows."""
    rows, q = X.shape
    # each column's distinct values, in the order they first occur
    values = [x[np.sort(np.unique(x, return_index=True)[1])] for x in X.T]
    counts = [v.size for v in values]
    if (math.prod(counts) != rows or not any(c < rows for c in counts)
            or max(counts) > cap):
        return False
    for order in itertools.permutations(range(q)):
        if np.array_equal(mesh([values[d] for d in order]), X[:, order]):
            outer = next(counts[d] for d in order if counts[d] > 1)
            return rows // outer <= cap
    return False


def exact_sum(*factors):
    """sum_j prod_k factors[k][j] of lists of doubles, exactly, and the sum
    of the terms' magnitudes, both Fractions. Every double is an integer
    over a power of two, so one power of two is a common denominator."""
    terms = []
    for xs in zip(*factors):
        num, den = 1, 1
        for x in xs:
            a, b = x.as_integer_ratio()
            num *= a
            den *= b
        terms.append((num, den))
    common = max(den for _, den in terms)
    scaled = [num * (common // den) for num, den in terms]
    return Fraction(sum(scaled), common), Fraction(sum(map(abs, scaled)), common)


def assert_within_rounding(fit, X, levels, rng, *predictions, rows=16):
    """Each prediction lies within the rounding bound of the exact value
    of the same doubles: exactly, on the first and last rows, rows 3 and
    7 (a test grid repeats row 3 at 7) and a sample of others; and on
    every row, within the sum of the two bounds of the first prediction.

    The exact value is y_mean + y_std (mu_z + sum_j r0_j P_lj alpha_j),
    r0_j the product of the q Matern factors. A term takes q + 1
    roundings (q without a family) and the sum n - 1, so the dot
    product errs by at most gamma(n + q) sum_j |r0_j P_lj alpha_j|
    (Higham 2002, sec. 3.1); the three steps after it add a few ulps of
    |y_mean| and of the prediction.
    """
    u = np.finfo(float).eps / 2
    k = fit.train.n + fit.train.q
    gamma = k * u / (1 - k * u)
    factors = continuous_factors(fit, X)
    P = level_factors(fit, X, levels)
    if P is not None:
        factors.append(P)
    # the magnitudes' sum in doubles, scaled up by its own rounding bound
    size = (np.abs(math.prod(factors, start=np.ones((len(X), fit.train.n))))
            @ np.abs(fit.alpha)) * (1 + 2 * gamma)
    first = predictions[0]
    for pred in predictions[1:]:
        slack = (2 * gamma * fit.y_std * size
                 + 4 * u * (2 * abs(fit.y_mean) + np.abs(first) + np.abs(pred)))
        assert (np.abs(pred - first) <= slack).all(), np.flatnonzero(np.abs(pred - first) > slack)
    marked = [i for i in (0, 3, 7, len(X) - 1) if 0 <= i < len(X)]
    sample = np.union1d(rng.choice(len(X), size=min(rows, len(X)), replace=False), marked)
    alpha = fit.alpha.tolist()
    y_mean, y_std, mu_z = map(Fraction, (fit.y_mean, fit.y_std, fit.mu_z))
    for row in sample.tolist():
        total, size = exact_sum(*(f[row].tolist() for f in factors), alpha)
        exact = y_mean + y_std * (mu_z + total)
        for pred in predictions:
            bound = gamma * fit.y_std * float(size) + 4 * u * (abs(fit.y_mean) + abs(pred[row]))
            assert abs(float(Fraction(pred[row]) - exact)) <= bound, (row, pred[row], exact)


@pytest.mark.parametrize(
    "label, q",
    # without continuous inputs only a family model predicts
    [(label, q) for label in ("EC", "MC", "UC", "LRC", None) for q in (1, 2, 3)] + [("EC", 0)],
)
def test_predict_batch_blocks_match_one_array_reference(label, q):
    s, n = 4, 24
    rng = np.random.default_rng(31 + q)
    spec = None if label is None else FamilySpec(label, s, 2 if label == "LRC" else None)
    if q == 0:  # one point per level
        X, levels, y = np.empty((s, 0)), np.arange(1, s + 1), rng.standard_normal(s)
    else:
        X, levels, y = random_instance(rng, n, q=q, s=s)
    train = TrainingSet(X, levels, y, n_levels=s)
    lo, hi = psi_box(q, spec, FitOptions())
    config = KernelConfig(np.exp(rng.uniform(np.log(0.1), np.log(2.0), q)), spec,
                          None if spec is None else rng.uniform(lo[q:], hi[q:]))
    gp = refit_config(train, config)
    block, cap = block_and_cap(train.n)
    # Each query is predicted four times: the model builds its level-free
    # part on the first call, and the others reuse it. Row counts around
    # a block (a lone last row joins the block before it) and around the
    # cap (a line of distinct values is a product grid up to it)
    sets = [Xq for rows in (0, 1, 3, block - 1, block, block + 1, cap, cap + 1, 3 * block + 5)
            for Xq in query_sets(rng, rows, q)]
    if q:
        # full tensor grids of about three blocks (at q = 1 one block, a
        # line of distinct values, which is no grid): in "ij" and "xy"
        # order, with descending values and with a constant column
        side = min(block, math.ceil((3 * block) ** (1 / q)))
        axes = [np.linspace(0.0, 1.0, side + d) for d in range(q)]
        grids = [mesh(axes), mesh(axes, "xy"), mesh(axes)[::-1]]
        if q > 1:
            grids.append(np.insert(mesh(axes[1:]), q // 2, 0.37, axis=1))
        # the cap, on either side: the outermost table, and the fold of
        # the tables inside it, of the cap's rows and of one more
        for size in (cap, cap + 1):
            grids += [mesh([np.linspace(0.0, 1.0, m) for m in (size, 2, 1)[:q]]),
                      mesh([np.linspace(0.0, 1.0, m) for m in (2, size, 1)[:q]])]
        # permuted, a row repeated: no grids (query_sets has all rows equal)
        others = [rng.permutation(grids[0]), np.insert(grids[0], 7, grids[0][3], axis=0)]
        assert [on_product_grid(Xq, cap) for Xq in grids] == (
            [q > 1] * (len(grids) - 2) + [False, False])
        assert not any(on_product_grid(Xq, cap) for Xq in others)
        sets += grids + others
    on_grid = 0
    for Xq in sets:
        for lv in (s, rng.integers(1, s + 1, size=len(Xq)), 1,
                   rng.integers(1, s + 1, size=len(Xq))):
            got, want = predict_batch(gp, Xq, lv), reference_predict(gp, Xq, lv)
            # a product grid is one matrix product, which sums in another
            # order: both lie within the rounding bound of the exact value.
            # Any other query keeps the reference's bits.
            assert (gp._query.tables is not None) == on_product_grid(Xq, cap)
            if on_product_grid(Xq, cap):
                on_grid += 1
                assert_within_rounding(gp, Xq, lv, rng, got, want)
            else:
                assert np.array_equal(got, want)
    assert on_grid >= (40 if q > 1 else 0)


@pytest.mark.parametrize("q", [0, 2])
def test_single_level_and_per_row_routes_agree(q):
    # a single level multiplies every row by one row of the level table,
    # per-row levels each row by its own; with every row at one level the
    # two give the same bits, and with mixed levels each row that of its
    # level: around the block boundaries, on a grid cut after a whole line
    # (a product grid) or within one, and on lines of distinct values on
    # either side of the grid cap
    s = 4
    rng = np.random.default_rng(41 + q)
    if q == 0:  # one point per level
        X, levels, y = np.empty((s, 0)), np.arange(1, s + 1), rng.standard_normal(s)
    else:
        X, levels, y = random_instance(rng, 24, q=q, s=s)
    train = TrainingSet(X, levels, y, n_levels=s)
    gp = refit_config(train, KernelConfig([0.3, 0.6][:q], FamilySpec("UC", s),
                                          [1.0, 2.0, 1.5, 0.5, 2.5, 1.2]))
    block, cap = block_and_cap(train.n)
    sets = []
    for rows in (block - 1, block, block + 1, 3 * block + 5):
        sets.append(rng.random((rows, q)))
        if q:
            side = math.ceil(math.sqrt(rows))
            g = np.linspace(0.0, 1.0, side)
            grid = np.column_stack([a.ravel() for a in np.meshgrid(g, g, indexing="ij")])
            sets += [grid[:rows], grid[:rows // side * side]]
    if q:
        sets += [np.column_stack([np.linspace(0.0, 1.0, rows), np.full(rows, 0.5)])
                 for rows in (cap, cap + 1)]
    for Xq in sets:
        each = [predict_batch(gp, Xq, lv) for lv in range(1, s + 1)]
        for lv in range(1, s + 1):
            assert np.array_equal(each[lv - 1], predict_batch(gp, Xq, np.full(len(Xq), lv)))
        # and with mixed levels, each row has its level's bits
        mixed = rng.integers(1, s + 1, size=len(Xq))
        assert np.array_equal(predict_batch(gp, Xq, mixed), np.choose(mixed - 1, each))
    if q:  # the lines: a grid up to the cap
        assert gp._query.tables is None
        predict_batch(gp, sets[-2], 1)
        assert gp._query.tables is not None


def query_sets(rng, rows, q):
    """Query sets of ``rows`` rows: scattered, then with repeated coordinates.

    Those are a grid in the first dimension only, all rows equal, a line
    (distinct values in the first column, further columns constant),
    which is a product grid up to the grid cap, and a nested grid of
    random values whose distinct counts multiply to the row count, which
    predict_batch predicts as a product grid while its tables hold at
    most the cap's rows, and the same rows permuted, which it does not.
    """
    yield rng.random((rows, q))
    if not (q and rows):
        return
    Xq = rng.random((rows, q))
    Xq[:, 0] = np.linspace(0.0, 1.0, 7)[rng.integers(0, 7, size=rows)]
    yield Xq
    yield np.tile(rng.random(q), (rows, 1))
    if q > 1:
        yield np.column_stack([rng.random(rows), np.tile(rng.random(q - 1), (rows, 1))])
        # the largest divisor up to the square root splits the rows over
        # two columns; further columns are constant
        split = max(d for d in range(1, math.isqrt(rows) + 1) if rows % d == 0)
        grid = mesh([rng.random(m) for m in [rows // split, split, 1][:q]])
        yield grid
        yield rng.permutation(grid)


def test_product_grid_rule_reads_the_nested_order():
    # the columns nest by the runs of their first values, outermost
    # first; each column's values come in row order, and a constant
    # column nests innermost
    g = np.linspace(0.0, 1.0, 3)
    h = np.array([0.9, 0.2, 0.5, 0.1, 0.7])
    for X, order in [(mesh([g, h]), [0, 1]), (mesh([g, h], "xy"), [1, 0]),
                     (mesh([h, g, h]), [0, 1, 2]), (mesh([h, g, h], "xy"), [1, 0, 2]),
                     (mesh([g, [0.4], h]), [0, 2, 1]), (mesh([g, h])[::-1], [0, 1])]:
        grid = gpcore._product_grid(X.T, 25)
        assert [d for d, _ in grid] == order
        for d, values in grid:
            assert np.array_equal(values, X[np.sort(np.unique(X[:, d], return_index=True)[1]), d])
    # rows out of nested order (two swapped; each combination once, but
    # the inner column rotated in each run), a repeated row, a nested
    # pattern that repeats a value, all rows equal, one column,
    # scattered 100-row queries: no grids
    rng = np.random.default_rng(16)
    X = mesh([g, h])
    rotated = np.column_stack([X[:, 0], np.concatenate([np.roll(h, k) for k in range(3)])])
    for other in (X[[1, 0, *range(2, 15)]], rotated, np.insert(X, 4, X[2], axis=0),
                  mesh([g, np.tile(h, 2)]), X[:1].repeat(6, 0), mesh([h]),
                  rng.random((100, 2)), rng.random((100, 3))):
        assert gpcore._product_grid(other.T, 15) is None
        assert not on_product_grid(other, 15)


def test_product_grid_rule_caps_tables():
    # every table, and the fold of the tables inside the outermost, has
    # at most the cap's rows; the rows list every grid point once
    line = np.column_stack([np.linspace(0.0, 1.0, 10), np.full(10, 0.5)])
    assert gpcore._product_grid(line.T, 10) is not None
    assert gpcore._product_grid(line.T, 9) is None
    g = np.linspace(0.0, 1.0, 3)
    cube = mesh([g, g, g])
    assert gpcore._product_grid(cube.T, 9) is not None
    assert gpcore._product_grid(cube.T, 8) is None  # a fold of 3 x 3 rows
    assert gpcore._product_grid(cube[1:].T, 9) is None  # 27 points on 26 rows
    assert gpcore._product_grid(cube[:18].T, 9) is not None  # a grid of 2 x 3 x 3
    # the outermost table may be the largest or the smallest
    wide, tall = mesh([np.arange(8.0), g]), mesh([g, np.arange(8.0)])
    assert gpcore._product_grid(wide.T, 8) is not None and gpcore._product_grid(wide.T, 7) is None
    assert gpcore._product_grid(tall.T, 8) is not None and gpcore._product_grid(tall.T, 7) is None
    for rows in (0, 1):
        assert gpcore._product_grid(np.zeros((rows, 2)).T, 8) is None


FRESH_PAGES = """
import resource
import sys

sys.path.insert(0, sys.argv[1])
import numpy as np
from mixedgp.corrparam import FamilySpec
from mixedgp.gpcore import KernelConfig, TrainingSet, predict_batch, refit_config

n, rows = int(sys.argv[2]), int(sys.argv[3])
rng = np.random.default_rng(17)
train = TrainingSet(rng.random((n, 2)), np.arange(n) % 4 + 1, rng.standard_normal(n))
gp = refit_config(train, KernelConfig([0.3, 0.6], FamilySpec("UC", 4),
                                      [1.0, 2.0, 1.5, 0.5, 2.5, 1.2]))
X = rng.random((rows, 2))
levels = [1, 2, 3, 4, rng.integers(1, 5, size=rows)]
for lv in levels:
    predict_batch(gp, X, lv)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for call in range(20):
    predict_batch(gp, X, levels[call % len(levels)])
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(resource is None, reason="needs the resource module")
@pytest.mark.parametrize("n, rows", [(32, 1_000), (32, 10_000), (48, 1_000), (48, 10_000)])
def test_predict_batch_faults_in_no_fresh_pages(n, rows):
    # once warm, a scattered query's blocks come from the heap: each of
    # their arrays stays under glibc's mmap threshold, and is freed before
    # the next block's are made. Each case runs in a fresh interpreter:
    # glibc raises the threshold to the size of each mapped array it
    # frees, so a process that has freed large arrays hides larger blocks
    src = str(Path(gpcore.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", FRESH_PAGES, src, str(n), str(rows)],
                          capture_output=True, text=True, check=True,
                          env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
    faults = int(done.stdout)
    assert faults < 20, f"{faults} page faults in 20 calls"  # fewer than one a call


def test_predict_batch_memory_is_a_few_blocks():
    # O(block * n), not O(rows * n): one (rows, n) array here is 19 MB
    rng = np.random.default_rng(8)
    X_train, levels, y = random_instance(rng, 24, s=3)
    gp = refit_config(TrainingSet(X_train, levels, y),
                      KernelConfig(np.array([0.3, 0.6]), FamilySpec("EC", 3), np.array([0.4])))
    rows = 100_000
    block, _ = block_and_cap(gp.train.n)
    scattered = rng.random((rows, 2))
    grid = np.column_stack([a.ravel() for a in np.meshgrid(np.linspace(0.0, 1.0, 400),
                                                            np.linspace(0.0, 1.0, 250))])
    # a block's worth of distinct values in the first column, off a product grid
    under = scattered.copy()
    under[:, 0] = np.resize(rng.random(block), rows)
    # a query of 2^20 entries, one (rows, n) array of 8 MB
    large = rng.random(((1 << 20) // gp.train.n, 2))
    # a line: one distinct value per row in the first column, off a product grid
    line = np.column_stack([np.linspace(0.0, 1.0, rows), np.full(rows, 0.5)])
    tracemalloc.start()
    try:
        for X in (scattered, grid, under, large, line):
            for lv in (2, rng.integers(1, 4, size=len(X)), 1):
                tracemalloc.reset_peak()
                out = predict_batch(gp, X, lv)
                peak = tracemalloc.get_traced_memory()[1]
                assert out.shape == (len(X),)
                assert peak < 16e6, f"peak {peak / 1e6:.1f} MB"
    finally:
        tracemalloc.stop()


def arrays_in(value):
    """The numpy arrays in ``value`` and its nested tuples and lists."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from arrays_in(item)


@pytest.mark.parametrize("kind", ["scattered", "grid", "line"])
def test_kept_query_holds_no_array_of_rows_by_training_points(kind):
    # however often a 100,000-row query is predicted, the model keeps
    # its copy, and its unit columns or (on a grid) small tables:
    # O(rows * q + block * n) entries, never a (rows, n) array (6.4 MB
    # here, 2^20 entries or fewer at n = 8)
    rng = np.random.default_rng(15)
    train = TrainingSet(*random_instance(rng, 8, s=3))
    gp = refit_config(train, KernelConfig([0.3, 0.6], FamilySpec("EC", 3), [0.4]))
    rows, n = 100_000, train.n
    if kind == "scattered":
        X = rng.random((rows, 2))
    elif kind == "line":
        X = np.column_stack([np.linspace(0.0, 1.0, rows), np.full(rows, 0.5)])
    else:
        X = np.column_stack([a.ravel() for a in np.meshgrid(np.linspace(0.0, 1.0, 400),
                                                            np.linspace(0.0, 1.0, 250))])
    for lv in (1, 2, 3, rng.integers(1, 4, size=rows), 2):
        predict_batch(gp, X, lv)
    kept = list(arrays_in(gp._query))
    assert kept and all(a.size < rows * n for a in kept)
    # the copy and the unit columns (X.nbytes each); a grid keeps no
    # array of rows but its copy
    assert sum(a.nbytes for a in kept) < (1 if kind == "grid" else 2) * X.nbytes + 1e6


def grid_model(n=16):
    """A UC model on bounds other than the unit box, and a 100 x 100
    query grid over them (np.meshgrid's axes)."""
    rng = np.random.default_rng(18)
    bounds = np.array([[-2.0, 3.0], [10.0, 20.0]])
    X, levels, y = random_instance(rng, n, s=3)
    train = TrainingSet(bounds[:, 0] + X * (bounds[:, 1] - bounds[:, 0]), levels, y,
                        bounds=bounds)
    gp = refit_config(train, KernelConfig([0.3, 0.6], FamilySpec("UC", 3), [1.0, 2.0, 1.5]))
    return gp, [np.linspace(lo, hi, 100) for lo, hi in bounds]


@pytest.mark.parametrize("edit, message", [
    pytest.param(lambda a, b: a.__setitem__(37, 3.5), "outside the model's declared bounds",
                 id="above-bounds"),
    pytest.param(lambda a, b: b.__setitem__(0, 10.0 - 1e-6),
                 "outside the model's declared bounds", id="below-bounds"),
    pytest.param(lambda a, b: b.__setitem__(5, np.inf), "must be finite", id="inf"),
    pytest.param(lambda a, b: a.__setitem__(99, -np.inf), "must be finite", id="minus-inf"),
    # non-finite is reported before out of bounds, whichever column holds it
    pytest.param(lambda a, b: (a.__setitem__(3, 99.0), b.__setitem__(7, np.inf)),
                 "must be finite", id="out-of-bounds-then-inf"),
    pytest.param(lambda a, b: (a.__setitem__(3, -np.inf), b.__setitem__(7, 99.0)),
                 "must be finite", id="minus-inf-then-out-of-bounds"),
    pytest.param(lambda a, b: a.__setitem__(10, np.nan), "must be finite", id="nan"),
])
def test_grid_queries_are_checked_like_any_other(edit, message):
    # a grid checks only its pattern values; every row's value is one of
    # them, so it raises what the same rows permuted (the block path) do
    gp, axes = grid_model()
    edit(*axes)
    X = mesh(axes)
    cap = block_and_cap(gp.train.n)[1]
    # a NaN breaks the rule's exact comparison; inf and out-of-bounds values do not
    assert (gpcore._product_grid(X.T.copy(), cap) is None) == np.isnan(X).any()
    permuted = np.random.default_rng(19).permutation(X)
    assert gpcore._product_grid(permuted.T.copy(), cap) is None
    errors = []
    for Xq in (X, permuted):
        with pytest.raises(ParamDomainError, match=message) as err:
            predict_batch(gp, Xq, 1)
        errors.append(str(err.value))
        assert gp._query is None
    assert errors[0] == errors[1]
    # values within the bounds' 1e-9 slack pass, on a grid as off it
    X = mesh([np.linspace(lo - 5e-10, hi + 5e-10, 100) for lo, hi in gp.train.bounds])
    assert np.isfinite(predict_batch(gp, X, 2)).all() and gp._query.tables is not None


def test_a_model_builds_its_family_matrix_once(monkeypatch, tmp_path):
    # refit_config builds the level table from the P of its own likelihood
    # evaluation: loading a model and predicting a grid and a scattered
    # query at every level and per-row levels call corr_values once
    gp, axes = grid_model()
    path = tmp_path / "model.json"
    save_fit(gp, path)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0].label)
        return real(*args, **kwargs)

    real = gpcore.corr_values
    monkeypatch.setattr(gpcore, "corr_values", counted)
    model = load_fit(path)
    grid = mesh(axes)
    rng = np.random.default_rng(20)
    lo, hi = model.train.bounds.T
    scattered = lo + rng.random((500, 2)) * (hi - lo)
    for X in (grid, scattered):
        for lv in (1, 2, 3, rng.integers(1, 4, size=len(X))):
            predict_batch(model, X, lv)
        assert (model._query.tables is not None) == (X is grid)
    assert calls == ["UC"]
    monkeypatch.setattr(gpcore, "corr_values", real)
    # the (s, n) table is P at (level, training level), read-only, and the
    # same as a second build's to the last bit
    table = model.level_table
    assert not table.flags.writeable and table.shape == (3, model.train.n)
    assert np.array_equal(table, model.config.corr_matrix()[:, model.train.levels - 1])
    # a model without a family: ones
    plain = refit_config(model.train, KernelConfig([0.3, 0.6]))
    assert np.array_equal(plain.level_table, np.ones((3, model.train.n)))
    assert not plain.level_table.flags.writeable
    # fit ends in a dataclasses.replace, which keeps the table
    fitted = fit(model.train, FamilySpec("EC", 3), FitOptions(n_starts=2))
    assert not fitted.level_table.flags.writeable
    assert np.array_equal(fitted.level_table,
                          refit_config(model.train, fitted.config).level_table)


def test_kept_grid_query_holds_no_unit_mapped_rows():
    # a grid keeps its row-major copy of the raw query and its tables;
    # its checks and unit mapping read only the pattern values
    gp, axes = grid_model()
    X = mesh(axes)
    predict_batch(gp, X, 2)
    query = gp._query
    assert query.columns is None and query.X.flags.c_contiguous and not query.X.flags.writeable
    assert np.array_equal(query.X, X) and query.X is not X
    kept = [a for a in arrays_in(query) if a is not query.X]
    assert [a.shape for a in kept] == [(100, gp.train.n)] * 2
    # off a grid, the unit columns are kept
    predict_batch(gp, np.random.default_rng(21).permutation(X), 2)
    assert gp._query.tables is None and len(gp._query.columns) == 2


def test_predict_batch_evaluates_each_distinct_grid_coordinate_once(monkeypatch):
    # on a 100 x 100 grid each column has 100 distinct values: the Matern
    # factor is computed for 2 * 100 * n distances, not 2 * 10,000 * n
    rng = np.random.default_rng(9)
    X_train, levels, y = random_instance(rng, 24, s=3)
    gp = refit_config(TrainingSet(X_train, levels, y),
                      KernelConfig(np.array([0.3, 0.6]), FamilySpec("EC", 3), np.array([0.4])))
    g = np.linspace(0.0, 1.0, 100)
    grid = np.column_stack([a.ravel() for a in np.meshgrid(g, g, indexing="ij")])
    sizes = []

    def counted(t, *args, **kwargs):
        sizes.append(t.size)
        return matern(t, *args, **kwargs)

    matern = gpcore._matern
    monkeypatch.setattr(gpcore, "_matern", counted)
    predict_batch(gp, grid, 2)
    assert sum(sizes) == 2 * 100 * gp.train.n
    # the same query at other levels: from the kept tables
    for lv in (3, 1, [1, 2, 3] * 3333 + [1]):
        predict_batch(gp, grid, lv)
    assert sum(sizes) == 2 * 100 * gp.train.n


def test_predict_batch_keeps_no_stale_query():
    # a model keeps the level-free part of its last query, keyed by the
    # query's values: a query changed in place between calls, and another
    # model on the same training set, predict as a fresh model does
    rng = np.random.default_rng(10)
    train = TrainingSet(*random_instance(rng, 24, s=3))
    ec = refit_config(train, KernelConfig([0.3, 0.6], FamilySpec("EC", 3), [0.4]))
    uc = refit_config(train, KernelConfig([0.5, 0.2], FamilySpec("UC", 3), [1.0, 2.0, 1.5]))
    g = np.linspace(0.0, 1.0, 60)
    Xq = np.column_stack([a.ravel() for a in np.meshgrid(g, g, indexing="ij")])
    assert len(Xq) > block_and_cap(train.n)[0]  # more than a block

    def check(model, lv):
        fresh = refit_config(train, model.config)
        assert np.array_equal(predict_batch(model, Xq, lv), predict_batch(fresh, Xq, lv))

    for model, lv in [(ec, 1), (ec, 2), (uc, 1), (ec, 3), (uc, 2), (uc, 3), (ec, 1)]:
        check(model, lv)
    Xq[::7, 0] = rng.random(len(Xq[::7]))
    for lv in (2, 3, 1):
        check(ec, lv)
    Xq[5, 1] = 0.5
    check(ec, 3)
    check(uc, 1)
    for params in (ec.config.lengthscales, uc.config.cat_params):  # nor its parameters
        with pytest.raises(ValueError, match="read-only"):
            params[0] = 0.9


def test_predict_batch_is_safe_for_concurrent_callers():
    # threads that share one model and alternate two queries see every
    # prediction a fresh model makes: a query's kept part is published
    # complete
    rng = np.random.default_rng(11)
    train = TrainingSet(*random_instance(rng, 24, s=3))
    config = KernelConfig([0.3, 0.6], FamilySpec("MC", 3), [0.4, 0.7, 0.2])
    model = refit_config(train, config)
    g = np.linspace(0.0, 1.0, 50)
    queries = [np.column_stack([a.ravel() for a in np.meshgrid(g, g, indexing="ij")]),
               rng.random((2500, 2))]  # of one shape, so memory of one may serve the other
    expected = {(k, lv): predict_batch(refit_config(train, config), X, lv)
                for k, X in enumerate(queries) for lv in (1, 2, 3)}
    failures = []

    def worker(seed):
        r = np.random.default_rng(seed)
        for _ in range(60):
            k, lv = int(r.integers(2)), int(r.integers(1, 4))
            if not np.array_equal(predict_batch(model, queries[k], lv), expected[k, lv]):
                failures.append((k, lv))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not failures


# ---------------------------------------------------------------------------
# persistence

def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(12)
    X, levels, y = random_instance(rng, 8, s=2)
    ts = TrainingSet(X, levels, y)
    gp = fit(ts, FamilySpec("EC", 2), QUICK_FIT)
    path = tmp_path / "model.json"
    save_fit(gp, path)
    loaded = load_fit(path)
    grid = rng.random((20, 2))
    levels0 = rng.integers(1, 3, size=20)
    before = predict_batch(gp, grid, levels0)
    after = predict_batch(loaded, grid, levels0)
    assert np.array_equal(before, after)
    assert loaded.neg_log_lik == gp.neg_log_lik


def test_reloaded_model_ignores_later_changes_to_the_callers_arrays(tmp_path):
    rng = np.random.default_rng(19)
    X, levels, y = random_instance(rng, 8, s=2)
    levels = np.asarray(levels)
    bounds = np.array([[0.0, 1.0], [0.0, 1.0]])
    ts = TrainingSet(X, levels, y, bounds)
    for mine, theirs in ((ts.X, X), (ts.levels, levels), (ts.bounds, bounds)):
        assert not (np.shares_memory(mine, theirs) or mine.flags.writeable)
    config = KernelConfig(np.array([0.3, 0.4]), FamilySpec("EC", 2), np.array([0.6]))
    gp = refit_config(ts, config)
    X[:, 0] = 0.5
    levels[:] = 3 - levels  # swap levels 1 and 2
    bounds[:, 1] = 2.0
    path = tmp_path / "model.json"
    save_fit(gp, path)
    loaded = load_fit(path)
    grid = rng.random((20, 2))
    for lv in (1, 2):
        assert np.array_equal(predict_batch(loaded, grid, lv), predict_batch(gp, grid, lv))


@settings(max_examples=30, deadline=None)
@given(
    label=st.sampled_from(["EC", "MC", "LRC", "UC", None]),
    s=st.integers(min_value=2, max_value=5),
    unobserved=st.integers(min_value=0, max_value=2),
    q=st.integers(min_value=1, max_value=3),
    n=st.integers(min_value=3, max_value=12),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_save_load_round_trip_random_fits(tmp_path_factory, label, s, unobserved, q, n, seed):
    # the model keeps s levels; the top ``unobserved`` of them have no data
    assume(s - unobserved >= 2 and (label != "LRC" or s >= 3))
    rng = np.random.default_rng(seed)
    rank = int(rng.integers(2, s)) if label == "LRC" else None
    spec = None if label is None else FamilySpec(label, s, rank)
    bounds = np.column_stack([rng.uniform(-5.0, 0.0, q), rng.uniform(0.5, 5.0, q)])
    width = bounds[:, 1] - bounds[:, 0]
    levels = rng.integers(1, s - unobserved + 1, size=n)
    levels[:2] = (1, 2)
    train = TrainingSet(bounds[:, 0] + rng.random((n, q)) * width, levels,
                        rng.standard_normal(n), bounds=bounds, n_levels=s)
    gp = fit(train, spec, FitOptions(n_starts=2, max_evals_per_start=40, seed=seed % 997))
    path = tmp_path_factory.mktemp("fit") / "model.json"
    save_fit(gp, path)
    loaded = load_fit(path)
    grid = bounds[:, 0] + rng.random((15, q)) * width
    grid_levels = rng.integers(1, s + 1, size=15)
    assert loaded.train.n_levels == s
    assert loaded.neg_log_lik == gp.neg_log_lik
    assert np.array_equal(predict_batch(loaded, grid, grid_levels),
                          predict_batch(gp, grid, grid_levels))


def _saved_fit(tmp_path):
    rng = np.random.default_rng(14)
    X, levels, y = random_instance(rng, 6, s=2)
    gp = refit_config(
        TrainingSet(X, levels, y),
        KernelConfig(np.array([0.5, 0.5]), FamilySpec("EC", 2), np.array([0.5])),
    )
    path = tmp_path / "model.json"
    save_fit(gp, path)
    return path, json.loads(path.read_text())


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda doc: doc.pop("lengthscales"), "missing fields lengthscales"),
        (lambda doc: doc.pop("version"), "version-1"),
        (lambda doc: doc.update(version=2), "version-1"),
        # malformed values: each names the file and the field
        (lambda doc: doc.update(train_levels=[1.5] * len(doc["train_levels"])),
         "model.json: field train_levels"),
        (lambda doc: doc.update(lengthscales="abc"), "model.json: field lengthscales"),
        (lambda doc: doc["train_X"][0].append(0.5), "model.json: field train_X"),
        (lambda doc: doc["train_X"].__setitem__(1, 0.5),
         "model.json: field train_X: object of type 'float' has no len"),
        (lambda doc: doc.update(bounds=None), "model.json: field bounds"),
        (lambda doc: doc.update(s="4"), "model.json: field s"),
        (lambda doc: doc.update(nugget="a"),
         "model.json: field nugget: nugget must be finite and nonnegative, got 'a'"),
        (lambda doc: doc.update(corr_nugget=-1.0), "model.json: field corr_nugget"),
        (lambda doc: doc.update(n_levels="4"), "model.json: field n_levels"),
        (lambda doc: doc.update(n_levels=2.5), "model.json: field n_levels"),
        (lambda doc: doc.update(n_levels=None), "model.json: field n_levels"),  # save_fit writes one
        (lambda doc: doc.update(n_levels=10**30),
         "model.json: field n_levels: n_levels must be integers within int64"),
        (lambda doc: doc["train_levels"].__setitem__(0, 10**30),
         "model.json: field train_levels: levels must be integers within int64"),
        (lambda doc: doc.update(family="ZZ"), "model.json: field family: unknown family 'ZZ'"),
        # strings and booleans are no numbers, though numpy reads them as numbers
        (lambda doc: doc.update(train_y=[str(v) for v in doc["train_y"]]),
         "model.json: field train_y: must hold numbers only, not str"),
        (lambda doc: doc.update(train_X=[[str(v) for v in row] for row in doc["train_X"]]),
         "model.json: field train_X: must hold numbers only, not str"),
        (lambda doc: doc.update(lengthscales=[True, True]),
         "model.json: field lengthscales: must hold numbers only, not bool"),
        (lambda doc: doc.update(cat_params=["0.5"]),
         "model.json: field cat_params: must hold numbers only, not str"),
        (lambda doc: doc.update(bounds=[[False, True], [False, True]]),
         "model.json: field bounds: must hold numbers only, not bool"),
        (lambda doc: doc["train_levels"].__setitem__(0, True),
         "model.json: field train_levels: must hold numbers only, not bool"),
        # an integer too large for a float
        (lambda doc: doc["train_X"][0].__setitem__(0, 10**400),
         "model.json: field train_X: int too large to convert to float"),
    ],
)
def test_load_fit_rejects_incomplete_document(tmp_path, edit, message):
    path, doc = _saved_fit(tmp_path)
    edit(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(ParamDomainError, match=message):
        load_fit(path)


def test_nuggets_and_lengthscale_bounds_reject_booleans(tmp_path):
    # True == 1, but no nugget or lengthscale bound is written as a
    # boolean; numpy's bool_ is no real number either
    for value in (True, False, np.True_):
        for zero in (False, True):
            assert corrparam.nugget_rule(value, zero) == "a real number"
            with pytest.raises(ParamDomainError, match=f"got {value!r}"):
                corrparam.check_nugget("nugget", value, zero=zero)
    for kwargs, issues in [
        (dict(nugget=True), ["nugget: must be a real number, got True"]),
        (dict(corr_nugget=True), ["corr_nugget: must be a real number, got True"]),
        # one ConfigError lists every broken rule
        (dict(nugget=True, corr_nugget=True, lengthscale_bounds=(True, 10.0)),
         ["nugget: must be a real number, got True",
          "corr_nugget: must be a real number, got True",
          "lengthscale_bounds: must be a pair of real numbers, got (True, 10.0)"]),
        (dict(lengthscale_bounds=(0.1, np.True_)),
         [f"lengthscale_bounds: must be a pair of real numbers, got {(0.1, np.True_)!r}"]),
    ]:
        with pytest.raises(ConfigError) as err:
            FitOptions(**kwargs)
        assert err.value.issues == issues
    for kwargs, message in [(dict(nugget=True), "nugget must be finite and nonnegative"),
                            (dict(corr_nugget=True), "corr_nugget must be finite and positive")]:
        with pytest.raises(ParamDomainError, match=f"{message}, got True"):
            KernelConfig([0.5, 0.5], **kwargs)
    # a file that holds one names the file and the field
    for key, message in [("nugget", "nugget must be finite and nonnegative"),
                         ("corr_nugget", "corr_nugget must be finite and positive")]:
        path, doc = _saved_fit(tmp_path)
        doc[key] = True
        path.write_text(json.dumps(doc))
        assert f'"{key}": true' in path.read_text()
        with pytest.raises(ParamDomainError,
                           match=re.escape(f"model.json: field {key}: {message}, got True")):
            load_fit(path)


@pytest.mark.parametrize("bounds", MISSHAPED_BOUNDS)
def test_load_fit_rejects_misshaped_bounds(tmp_path, bounds):
    path, doc = _saved_fit(tmp_path)
    doc["bounds"] = bounds
    path.write_text(json.dumps(doc))
    with pytest.raises(MixedGPError, match="bounds"):
        load_fit(path)


def test_load_fit_rejects_truncated_file(tmp_path):
    path, _ = _saved_fit(tmp_path)
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    with pytest.raises(ParamDomainError, match="not valid JSON"):
        load_fit(path)


@pytest.mark.parametrize("encode", [
    # a Latin-1 byte in a string, a leading continuation byte, and UTF-16 with its BOM
    lambda text: text.replace('"EC"', '"\xc9C"').encode("latin-1"),
    lambda text: b"\x80" + text.encode("utf-8"),
    lambda text: text.encode("utf-16"),
])
def test_load_fit_rejects_a_file_that_is_not_utf8(tmp_path, encode):
    path, _ = _saved_fit(tmp_path)
    path.write_bytes(encode(path.read_text(encoding="utf-8")))
    with pytest.raises(ParamDomainError, match=r"model\.json: not UTF-8"):
        load_fit(path)
