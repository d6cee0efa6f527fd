"""Tests for the sliced benchmark functions."""

import numpy as np
import pytest

from mixedgp.bench import make_test_set
from mixedgp.design import cslhd, lhd
from mixedgp.errors import ParamArityError, ParamDomainError
from mixedgp.testbed import (
    ContinuousFunction,
    empirical_cross_corr,
    eval_sliced_batch,
    function_id,
    get_function,
    get_testbed_function,
    make_benchmark_suite,
    make_sliced,
    parse_fid,
    slice_positions,
    standard_functions,
    swap_optimum,
    testbed_ids as suite_ids,
)

# printed slice positions, two decimals (rows keyed by function id and s)
PRINTED_POSITIONS = {
    ("ackley", 4): [-32.77, 0.00, 10.92, 32.77],
    ("ackley", 6): [-32.77, -19.66, 0.00, 6.55, 19.66, 32.77],
    ("alpine1", 4): [-10.00, 0.00, 3.33, 10.00],
    ("alpine1", 6): [-10.0, -6.0, 0.0, 2.0, 6.0, 10.0],
    ("dcs", 4): [0.00, 5.00, 6.67, 10.00],
    ("dcs", 6): [0.0, 2.0, 5.0, 6.0, 8.0, 10.0],
    ("doublesum", 4): [-65.54, 0.00, 21.85, 65.54],
    ("doublesum", 6): [-65.54, -39.32, 0.00, 13.11, 39.32, 65.54],
}

# 1000x1000 brute-force grid maximum of the first Ackley slice (s=4,
# position -32.77), frozen from the grid oracle
ACKLEY_S4_SLICE1_FINE_MAX = 22.153055189384194


# ---------------------------------------------------------------------------
# positions

def test_slice_positions_basic():
    assert np.allclose(slice_positions(0, 10, 4), [0, 10 / 3, 20 / 3, 10])
    assert np.allclose(slice_positions(-1, 1, 2), [-1, 1])


def test_slice_positions_ackley_six():
    got = slice_positions(-32.77, 32.77, 6)
    assert np.allclose(got, [-32.77, -19.662, -6.554, 6.554, 19.662, 32.77], atol=1e-12)


@pytest.mark.parametrize("call", [
    # int() would upend slice 1, and a float s would name ackley_s3.0
    lambda: make_sliced(get_function("ackley"), 4, upend=(1.5,)),
    lambda: make_sliced(get_function("ackley"), 3.0),
    lambda: slice_positions(0, 1, 2.5),
    lambda: lhd(10.5, 2, 0),
    lambda: lhd(10, 2.0, 0),
    lambda: cslhd(4, 3.0, 2, 0),
    lambda: empirical_cross_corr(get_testbed_function("ackley_s4"), resolution=10.5),
    lambda: make_test_set(get_testbed_function("ackley_s4"), size=10.5, seed=0),
], ids=["make_sliced-upend", "make_sliced-s", "slice_positions", "lhd-n", "lhd-q", "cslhd-s",
        "empirical_cross_corr", "make_test_set"])
def test_integer_arguments_must_be_integers(call):
    with pytest.raises(ParamDomainError, match="integer"):
        call()


def test_slice_positions_errors():
    with pytest.raises(ParamDomainError):
        slice_positions(0, 10, 1)
    with pytest.raises(ParamDomainError):
        slice_positions(3, 3, 4)


def test_swap_optimum_tie_takes_lower():
    pre = slice_positions(-32.77, 32.77, 4)
    post = swap_optimum(pre, 0.0)
    assert np.allclose(post, [-32.77, 0.0, 10.923333333333334, 32.77])


def test_swap_optimum_dcs_row():
    post = swap_optimum(slice_positions(0, 10, 4), 5.0)
    assert np.allclose(post, [0.0, 5.0, 20 / 3, 10.0])


def test_swap_optimum_noop_when_exact():
    pos = np.array([0.0, 2.0, 4.0])
    assert np.array_equal(swap_optimum(pos, 2.0), pos)


def test_swap_optimum_outside_span_rejected():
    with pytest.raises(ParamDomainError):
        swap_optimum(np.array([0.0, 1.0]), 2.0)


@pytest.mark.parametrize("key", sorted(PRINTED_POSITIONS))
def test_printed_positions_reproduced(key):
    name, s = key
    fn = make_sliced(get_function(name), s)
    assert np.allclose(fn.positions, PRINTED_POSITIONS[key], atol=0.005)


# ---------------------------------------------------------------------------
# registry

def test_registry_contents():
    funcs = standard_functions()
    assert set(funcs) == {"ackley", "alpine1", "dcs", "doublesum"}
    for fn in funcs.values():
        assert fn.d == 3


def test_registry_is_built_once_and_read_only():
    registry = standard_functions()
    assert standard_functions() is registry
    assert all(registry[name] is get_function(name) for name in registry)
    with pytest.raises(TypeError):
        registry["ackley"] = None


def test_known_optima():
    assert get_function("ackley").evaluate(np.zeros((1, 3)))[0] == pytest.approx(0.0, abs=1e-12)
    assert get_function("alpine1").evaluate(np.zeros((1, 3)))[0] == 0.0
    assert get_function("dcs").evaluate(np.full((1, 3), 5.0))[0] == pytest.approx(-1.0)
    assert get_function("doublesum").evaluate(np.zeros((1, 3)))[0] == 0.0


def test_unknown_function_rejected():
    with pytest.raises(ParamDomainError):
        get_function("rastrigin")


def test_continuous_function_validates_optimum():
    with pytest.raises(ParamDomainError):
        ContinuousFunction(
            "broken", 2, [(0, 1), (0, 1)],
            lambda X: np.atleast_2d(X).sum(axis=1),
            np.array([0.0, 0.0]), 5.0,
        )


# not d = 2 (lower, upper) pairs: transposed, flat, ragged
@pytest.mark.parametrize("bounds", [[[0, 1, 0], [1, 0, 1]], [0, 1, 0, 1], [[0, 1], [0]]])
def test_continuous_function_rejects_misshaped_bounds(bounds):
    with pytest.raises(ParamArityError, match=r"bounds must be 2 \(lower, upper\) pairs"):
        ContinuousFunction("plane", 2, bounds, lambda X: np.atleast_2d(X).sum(axis=1),
                           np.zeros(2), 0.0)


# ---------------------------------------------------------------------------
# slicing and upending

def test_optimum_slice_evaluates_to_optimum():
    fn = make_sliced(get_function("ackley"), 4)
    assert fn.opt_slice == 2
    assert eval_sliced_batch(fn, 2, np.zeros((1, 2)))[0] == pytest.approx(0.0, abs=1e-12)


def test_upended_function_construction():
    fn = make_sliced(get_function("ackley"), 4, upend=(1, 3))
    assert fn.upended == frozenset({1, 3})
    assert set(fn.y_max_hat) == {1, 3}
    assert fn.fid == "ackley_s4_up13"


def test_cannot_upend_optimum_slice():
    with pytest.raises(ParamDomainError, match="global optimum"):
        make_sliced(get_function("ackley"), 4, upend=(2,))


def test_unknown_slice_index():
    # a MixedGPError, which a study cell catches, for every index that
    # names no slice, integral floats and True included
    fn = make_sliced(get_function("ackley"), 4)
    for index in (5, 0, 1.5, 2.0, True):
        with pytest.raises(ParamDomainError, match="slice index must be an integer in 1..4"):
            eval_sliced_batch(fn, index, np.zeros((1, 2)))


def test_upended_slice_range_and_floor():
    fn = make_sliced(get_function("ackley"), 4, upend=(1, 3))
    g = np.linspace(-32.77, 32.77, 101)
    A, B = np.meshgrid(g, g, indexing="ij")
    rest = np.column_stack([A.ravel(), B.ravel()])
    for i in (1, 3):
        bound = fn.base.global_opt_val + fn.y_max_hat[i] / 10.0
        vals = eval_sliced_batch(fn, i, rest)
        assert vals.min() >= bound - 1e-9
        # near the slice maximum the reflection bottoms out at the bound
        assert vals.min() <= bound + 0.05


def test_global_optimum_preserved_after_upending():
    # grid includes the optimum's remaining coordinates for every
    # function (odd resolution hits the midpoint of symmetric bounds)
    for fid in ("ackley_s4_up13", "alpine1_s6_up124", "dcs_s4_up13"):
        fn = get_testbed_function(fid)
        rb = fn.rest_bounds
        g1 = np.linspace(rb[0, 0], rb[0, 1], 101)
        g2 = np.linspace(rb[1, 0], rb[1, 1], 101)
        A, B = np.meshgrid(g1, g2, indexing="ij")
        rest = np.column_stack([A.ravel(), B.ravel()])
        per_slice_min = np.array(
            [eval_sliced_batch(fn, i, rest).min() for i in range(1, fn.s + 1)]
        )
        best_slice = int(np.argmin(per_slice_min)) + 1
        assert best_slice not in fn.upended
        assert per_slice_min.min() == pytest.approx(fn.base.global_opt_val, abs=1e-6)
        for i in fn.upended:
            bound = fn.base.global_opt_val + fn.y_max_hat[i] / 10.0
            assert per_slice_min.min() < bound - 1e-9


# ---------------------------------------------------------------------------
# slice maxima

def test_slice_max_affine_function_exact():
    affine = ContinuousFunction(
        "affine", 3, [(0.0, 1.0)] * 3,
        lambda X: np.atleast_2d(X).sum(axis=1),
        np.zeros(3), 0.0,
    )
    fn = make_sliced(affine, 2, upend=(2,))
    assert fn.y_max_hat[2] == pytest.approx(3.0, abs=1e-9)


def test_slice_max_ackley_matches_fine_grid():
    fn = make_sliced(get_function("ackley"), 4, upend=(1,))
    assert abs(fn.y_max_hat[1] - ACKLEY_S4_SLICE1_FINE_MAX) < 1e-3


def test_slice_max_constant_slice():
    flat = ContinuousFunction(
        "flat", 3, [(0.0, 1.0)] * 3,
        lambda X: np.full(np.atleast_2d(X).shape[0], 7.0),
        np.zeros(3), 7.0,
    )
    fn = make_sliced(flat, 2, upend=(2,))  # slice 1 holds the optimum
    assert fn.y_max_hat[2] == 7.0


# ---------------------------------------------------------------------------
# empirical correlations

def test_empirical_corr_diagonal_and_symmetry():
    fn = make_sliced(get_function("alpine1"), 4)
    est = empirical_cross_corr(fn, resolution=50)
    assert np.all(np.diag(est.matrix) == 1.0)
    assert np.array_equal(est.matrix, est.matrix.T)
    assert np.nanmax(np.abs(est.matrix)) <= 1.0


def test_alpine_slices_perfectly_correlated():
    # additively separable, so all slices differ by constants
    fn = make_sliced(get_function("alpine1"), 4)
    est = empirical_cross_corr(fn, resolution=50)
    off = est.matrix[~np.eye(4, dtype=bool)]
    assert np.all(off > 0.999999)


def test_originals_all_positive_pairs():
    for name in ("ackley", "alpine1", "dcs"):
        fn = make_sliced(get_function(name), 4)
        est = empirical_cross_corr(fn, resolution=100)
        tri = est.matrix[np.triu_indices(4, 1)]
        assert np.all(tri > 0)


def test_upended_sign_structure():
    # upending k slices flips exactly k(s-k) pairs on functions whose
    # original correlations are near one
    fn = get_testbed_function("ackley_s4_up13")
    est = empirical_cross_corr(fn, resolution=100)
    tri = est.matrix[np.triu_indices(4, 1)]
    assert int((tri < 0).sum()) == 4
    negatives = {(i, j) for i in range(4) for j in range(i + 1, 4) if est.matrix[i, j] < 0}
    assert negatives == {(0, 1), (0, 3), (1, 2), (2, 3)}


def test_zero_variance_slice_recorded_missing():
    flat = ContinuousFunction(
        "flat", 3, [(0.0, 1.0)] * 3,
        lambda X: np.full(np.atleast_2d(X).shape[0], 7.0),
        np.zeros(3), 7.0,
    )
    fn = make_sliced(flat, 3)
    with pytest.warns(UserWarning, match="zero variance"):
        est = empirical_cross_corr(fn, resolution=10)
    assert np.all(np.isnan(est.matrix[np.triu_indices(3, 1)]))
    assert np.all(np.diag(est.matrix) == 1.0)


def test_empirical_corr_needs_two_rest_dimensions():
    two_d = ContinuousFunction(
        "plane", 2, [(0.0, 1.0)] * 2,
        lambda X: np.atleast_2d(X).sum(axis=1),
        np.zeros(2), 0.0,
    )
    fn = make_sliced(two_d, 2)
    with pytest.raises(ParamArityError):
        empirical_cross_corr(fn, resolution=10)


# ---------------------------------------------------------------------------
# the benchmark suite

def test_testbed_has_fourteen_functions():
    fns = make_benchmark_suite()
    assert len(fns) == 14
    assert len({fn.fid for fn in fns}) == 14
    by_s = {4: 0, 6: 0}
    for fn in fns:
        by_s[fn.s] += 1
    assert by_s == {4: 7, 6: 7}


def test_testbed_upended_sets():
    by_id = {fn.fid: fn for fn in make_benchmark_suite()}
    for name in ("ackley", "alpine1", "dcs"):
        assert by_id[f"{name}_s4_up13"].upended == frozenset({1, 3})
        assert by_id[f"{name}_s6_up124"].upended == frozenset({1, 2, 4})
    assert by_id["ackley_s4"].upended == frozenset()
    assert "doublesum_s4_up13" not in by_id


def test_every_testbed_id_parses_to_its_own_function():
    for fid in suite_ids():
        assert function_id(*parse_fid(fid)) == fid


@pytest.mark.parametrize("fid, own", [
    ("ackley_s4_up31", "ackley_s4_up13"),
    ("ackley_s4_up113", "ackley_s4_up13"),
    ("ackley_s4_up11", "ackley_s4_up1"),
    ("alpine1_s6_up421", "alpine1_s6_up124"),
    ("ackley_s04", "ackley_s4"),
])
def test_parse_fid_accepts_only_a_functions_own_id(fid, own):
    # one function, one id: records carry the id as written
    with pytest.raises(ParamDomainError, match=f"the function's id is '{own}'"):
        parse_fid(fid)
    parse_fid(own)
    with pytest.raises(ParamDomainError):
        get_testbed_function(fid)


def test_testbed_upends_never_touch_optimum():
    for fn in make_benchmark_suite():
        if fn.upended:
            assert fn.opt_slice not in fn.upended
