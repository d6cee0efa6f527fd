"""Tests for Latin hypercube and clustered sliced Latin hypercube designs."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mixedgp.design import (
    cslhd,
    from_csv,
    lhd,
    scale_to_bounds,
    to_csv,
    to_problem_coords,
    to_unit_coords,
    validate_design,
)
from mixedgp.errors import DesignValidationError, ParamArityError, ParamDomainError


def assert_full_lhd(X, N):
    for d in range(X.shape[1]):
        assert np.array_equal(np.sort(np.floor(X[:, d] * N).astype(int)), np.arange(N))


def assert_sliced_lhd(X, levels, n, s):
    N = n * s
    coarse = np.floor(X * N).astype(int) // s
    for lv in range(1, s + 1):
        m = levels == lv
        for d in range(X.shape[1]):
            assert np.array_equal(np.sort(coarse[m, d]), np.arange(n))


# ---------------------------------------------------------------------------
# plain LHD

def test_lhd_single_point():
    d = lhd(1, 3, seed=0)
    assert d.X.shape == (1, 3)
    assert np.all((d.X >= 0) & (d.X < 1))


def test_lhd_bin_occupancy():
    d = lhd(5, 2, seed=1)
    assert_full_lhd(d.X, 5)


def test_lhd_determinism_and_seed_sensitivity():
    a = lhd(6, 2, seed=7)
    b = lhd(6, 2, seed=7)
    c = lhd(6, 2, seed=8)
    assert np.array_equal(a.X, b.X)
    assert not np.array_equal(a.X, c.X)


def test_lhd_centered_midpoints():
    d = lhd(4, 1, seed=3, centered=True)
    assert np.allclose(np.sort(d.X[:, 0]), (np.arange(4) + 0.5) / 4)


# ---------------------------------------------------------------------------
# CSLHD

def test_cslhd_structure_small():
    d, cm = cslhd(4, 4, 2, seed=0)
    assert d.n_total == 16
    assert np.all(np.bincount(d.levels)[1:] == 4)
    assert_full_lhd(d.X, 16)
    assert_sliced_lhd(d.X, d.levels, 4, 4)
    # clusters contain one point per slice
    for k in range(1, 5):
        assert sorted(d.levels[cm.assignment == k].tolist()) == [1, 2, 3, 4]


def test_cslhd_degenerate_single_cluster():
    d, cm = cslhd(1, 3, 1, seed=5)
    fine = np.floor(d.X[:, 0] * 3).astype(int)
    assert sorted(fine.tolist()) == [0, 1, 2]
    assert np.all(cm.assignment == 1)


@settings(max_examples=40, deadline=None)
@given(
    n=st.sampled_from([1, 2, 4, 8]),
    s=st.sampled_from([2, 4, 6]),
    q=st.sampled_from([1, 2, 3]),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_cslhd_properties_random(n, s, q, seed):
    d, cm = cslhd(n, s, q, seed)
    assert_full_lhd(d.X, n * s)
    assert_sliced_lhd(d.X, d.levels, n, s)
    validate_design(d.X, d.levels)


def test_cslhd_property_sweep():
    # the documented sweep: every (n, s, q) cell over 50 seeds
    for n in (1, 2, 4, 8):
        for s in (2, 4, 6):
            for q in (1, 2, 3):
                for seed in range(50):
                    d, _ = cslhd(n, s, q, seed)
                    assert_full_lhd(d.X, n * s)
                    assert_sliced_lhd(d.X, d.levels, n, s)


def test_cluster_mates_differ_less_than_one_over_n():
    for seed in range(100):
        d, cm = cslhd(4, 4, 2, seed)
        for k in range(1, 5):
            pts = d.X[cm.assignment == k]
            spread = pts.max(axis=0) - pts.min(axis=0)
            assert np.all(spread < 1.0 / 4)


def test_cluster_mate_is_usually_nearest_cross_slice_neighbor():
    # The constructive algorithm guarantees mates share every coarse bin
    # (distance below sqrt(q)/n) but cannot prevent occasional closer
    # points across a coarse-bin boundary, so the nearest-neighbor
    # property is statistical rather than universal.
    mate_nearest = 0
    comparisons = 0
    for seed in range(30):
        d, cm = cslhd(4, 4, 2, seed)
        X, levels, cl = d.X, d.levels, cm.assignment
        for i in range(d.n_total):
            for t in range(1, 5):
                if t == levels[i]:
                    continue
                m = levels == t
                dist = np.linalg.norm(X[m] - X[i], axis=1)
                j = np.where(m)[0][np.argmin(dist)]
                comparisons += 1
                mate_nearest += cl[j] == cl[i]
                # the mate itself is always within sqrt(q)/n
                mate = np.where(m & (cl == cl[i]))[0][0]
                assert np.linalg.norm(X[mate] - X[i]) < np.sqrt(2) / 4
    assert mate_nearest / comparisons > 0.9


def test_cslhd_determinism_byte_for_byte(tmp_path):
    a, _ = cslhd(4, 3, 2, seed=11)
    b, _ = cslhd(4, 3, 2, seed=11)
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    to_csv(a, pa)
    to_csv(b, pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_cslhd_rejects_bad_arguments():
    with pytest.raises(ParamDomainError):
        cslhd(0, 2, 1, 0)
    with pytest.raises(ParamDomainError):
        cslhd(2, 1, 1, 0)


# ---------------------------------------------------------------------------
# scaling

def test_scale_identity_bounds():
    d, _ = cslhd(2, 2, 2, seed=0)
    scaled = scale_to_bounds(d, [(0.0, 1.0), (0.0, 1.0)])
    assert np.array_equal(scaled.problem_coords(), d.X)
    assert scaled.bounds.dtype == float and not scaled.bounds.flags.writeable


def test_scale_symmetric_bounds_center():
    assert to_problem_coords(np.array([[0.5]]), np.array([[-10.0, 10.0]]))[0, 0] == 0.0


def test_scale_round_trip():
    rng = np.random.default_rng(9)
    X = rng.random((50, 3))
    bounds = np.array([[-10.0, 10.0], [0.3, 0.7], [100.0, 101.0]])
    back = to_unit_coords(to_problem_coords(X, bounds), bounds)
    assert np.abs(back - X).max() < 1e-12


def test_scale_rejects_degenerate_bounds():
    d, _ = cslhd(2, 2, 1, seed=0)
    with pytest.raises(ParamDomainError):
        scale_to_bounds(d, [(1.0, 1.0)])


# not q = 2 (lower, upper) pairs: transposed, flat, ragged
@pytest.mark.parametrize("bounds", [[[0, 1, 0], [1, 0, 1]], [0, 1, 0, 1], [[0, 1], [0]]])
def test_scale_rejects_misshaped_bounds(bounds):
    d, _ = cslhd(2, 2, 2, seed=0)
    with pytest.raises(ParamArityError, match=r"bounds must be 2 \(lower, upper\) pairs"):
        scale_to_bounds(d, bounds)


# ---------------------------------------------------------------------------
# CSV round trip and validation

def test_csv_round_trip(tmp_path):
    d, cm = cslhd(3, 4, 2, seed=21)
    path = tmp_path / "design.csv"
    to_csv(d, path)
    loaded, clusters = from_csv(path)
    assert np.array_equal(loaded.X, d.X)
    assert np.array_equal(loaded.levels, d.levels)
    # recovered clusters group the same points (labels may be renumbered)
    for k in np.unique(cm.assignment):
        members = np.where(cm.assignment == k)[0]
        assert len(set(clusters.assignment[members])) == 1


def _partition(assignment):
    return {frozenset(np.flatnonzero(assignment == k)) for k in np.unique(assignment)}


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=6),
    s=st.integers(min_value=2, max_value=12),
    q=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**31),
    centered=st.booleans(),
)
@example(n=1, s=2, q=1, seed=0, centered=False)
@example(n=1, s=12, q=1, seed=0, centered=True)
def test_csv_round_trip_edge_sizes(tmp_path_factory, n, s, q, seed, centered):
    d, cm = cslhd(n, s, q, seed, centered=centered)
    path = tmp_path_factory.mktemp("design") / "design.csv"
    to_csv(d, path)
    loaded, clusters = from_csv(path)
    assert (loaded.n_per_slice, loaded.s, loaded.q) == (n, s, q)
    assert np.array_equal(loaded.X, d.X)
    assert np.array_equal(loaded.levels, d.levels)
    # from_csv numbers clusters by sorted coarse bin, cslhd by row
    assert _partition(clusters.assignment) == _partition(cm.assignment)


def test_csv_includes_problem_coordinates(tmp_path):
    d, _ = cslhd(2, 2, 2, seed=2)
    scaled = scale_to_bounds(d, [(-5.0, 5.0), (0.0, 2.0)])
    path = tmp_path / "design.csv"
    to_csv(scaled, path)
    header = path.read_text().splitlines()[0]
    assert header == "slice,x1,x2,px1,px2"
    loaded, _ = from_csv(path)
    assert np.array_equal(loaded.X, d.X)


def _write_rows(path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")


def test_csv_import_names_first_violated_property(tmp_path):
    d, _ = cslhd(2, 2, 1, seed=4)
    path = tmp_path / "bad.csv"

    # break level counts
    rows = [[1, x] for x in d.X[:, 0]]
    _write_rows(path, "slice,x1", rows[:3] + [[2, rows[3][1]]])
    with pytest.raises(DesignValidationError) as err:
        from_csv(path)
    assert err.value.violated == "level counts"

    # break coordinate range
    rows = [[lv, x] for lv, x in zip(d.levels, d.X[:, 0])]
    rows[0][1] = 1.2
    _write_rows(path, "slice,x1", rows)
    with pytest.raises(DesignValidationError) as err:
        from_csv(path)
    assert err.value.violated == "coordinate range"

    # break the fine-grid LHD by duplicating a bin
    rows = [[lv, x] for lv, x in zip(d.levels, d.X[:, 0])]
    rows[1][1] = rows[0][1]
    _write_rows(path, "slice,x1", rows)
    with pytest.raises(DesignValidationError) as err:
        from_csv(path)
    assert err.value.violated == "full-design Latin hypercube"

    # fine bins fine but slices collapse to the same coarse bins
    _write_rows(path, "slice,x1", [[1, 0.1], [1, 0.3], [2, 0.6], [2, 0.9]])
    with pytest.raises(DesignValidationError) as err:
        from_csv(path)
    assert err.value.violated == "per-slice Latin hypercube"

    # header problems are reported as column structure
    _write_rows(path, "x1,slice", [[0.1, 1]])
    with pytest.raises(DesignValidationError) as err:
        from_csv(path)
    assert err.value.violated == "column structure"


def test_csv_import_checks_cluster_structure(tmp_path):
    # a valid sliced LHD whose slices do not cluster: swap fine bins so
    # two clusters mix coarse bins in one dimension
    path = tmp_path / "noclusters.csv"
    # n=2, s=2, q=2, N=4: fine bins per point, dim1 pairs slices into
    # different coarse bins (0,2) while dim2 keeps them together
    pts = [
        (1, 0.05, 0.05),  # fine (0, 0) coarse (0, 0)
        (1, 0.55, 0.55),  # fine (2, 2) coarse (1, 1)
        (2, 0.30, 0.80),  # fine (1, 3) coarse (0, 1)
        (2, 0.80, 0.30),  # fine (3, 1) coarse (1, 0)
    ]
    _write_rows(path, "slice,x1,x2", pts)
    with pytest.raises(DesignValidationError) as err:
        from_csv(path)
    assert err.value.violated == "cluster structure"
