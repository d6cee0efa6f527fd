"""Tests for the cross-correlation parameterizations."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mixedgp.corrparam import (
    CorrMatrix,
    FamilySpec,
    build_correlation,
    cat_param_bounds,
    corr_grad,
    corr_values,
    embed_lrc_in_uc,
    lrc_param_count,
    param_count,
    regularize,
    sphere_loading,
    sphere_loading_grad,
)
from mixedgp.errors import (
    NumericalRankError,
    ParamArityError,
    ParamDomainError,
    RankRangeError,
)


def random_params(spec, rng, margin=1e-3):
    bounds = cat_param_bounds(spec)
    lo = bounds[:, 0] + margin
    hi = bounds[:, 1] - margin
    return lo + rng.random(bounds.shape[0]) * (hi - lo)


# ---------------------------------------------------------------------------
# parameter counts

@pytest.mark.parametrize(
    "family,s,rank,expected",
    [
        ("EC", 4, None, 1),
        ("EC", 6, None, 1),
        ("MC", 4, None, 4),
        ("MC", 6, None, 6),
        ("LRC", 4, 2, 3),
        ("LRC", 6, 2, 5),
        ("LRC", 4, 3, 5),
        ("LRC", 6, 3, 9),
        ("LRC", 6, 4, 12),
        ("LRC", 6, 5, 14),
        ("UC", 4, None, 6),
        ("UC", 6, None, 15),
    ],
)
def test_param_count_table(family, s, rank, expected):
    assert param_count(FamilySpec(family, s, rank)) == expected


def test_param_count_formulas():
    # LRC2 is s-1 and LRC3 is 2s-3 for any s
    for s in range(3, 9):
        assert param_count(FamilySpec("LRC", s, 2)) == s - 1
    for s in range(4, 9):
        assert param_count(FamilySpec("LRC", s, 3)) == 2 * s - 3


@pytest.mark.parametrize("rank", [0, 1, 6, 7])
def test_lrc_rank_out_of_range(rank):
    with pytest.raises(RankRangeError):
        FamilySpec("LRC", 6, rank)


def test_rank_rejected_for_other_families():
    with pytest.raises(RankRangeError):
        FamilySpec("EC", 4, 2)


def test_family_label_parsing():
    assert FamilySpec.parse("lrc3", 6) == FamilySpec("LRC", 6, 3)
    assert FamilySpec.parse("UC", 4) == FamilySpec("UC", 4)
    assert FamilySpec("LRC", 6, 4).label == "LRC4"


@pytest.mark.parametrize("args,error", [
    (("MC", 3.0), ParamDomainError),
    (("UC", 3.5), ParamDomainError),
    (("EC", "4"), ParamDomainError),
    (("LRC", 4, 2.0), RankRangeError),
    (("LRC", 4, "2"), RankRangeError),
])
def test_family_spec_needs_integer_levels_and_rank(args, error):
    # 3.0 levels or a rank of 2.0 would fail later, in cat_param_bounds
    with pytest.raises(error, match="integer"):
        FamilySpec(*args)
    assert FamilySpec("LRC", np.int64(4), np.int64(2)) == FamilySpec("LRC", 4, 2)


# ---------------------------------------------------------------------------
# EC

def test_ec_all_off_diagonals_equal():
    m = build_correlation(FamilySpec("EC", 3), [0.5])
    expected = np.array([[1, 0.5, 0.5], [0.5, 1, 0.5], [0.5, 0.5, 1.0]])
    assert np.array_equal(m.values, expected)


def test_ec_small_c_near_identity():
    m = build_correlation(FamilySpec("EC", 4), [1e-12])
    assert np.allclose(m.values, np.eye(4), atol=1e-11)


def test_ec_two_levels_exact():
    m = build_correlation(FamilySpec("EC", 2), [0.25])
    assert np.array_equal(m.values, np.array([[1.0, 0.25], [0.25, 1.0]]))


@pytest.mark.parametrize("c", [0.0, 1.0, -0.3, 1.5])
def test_ec_domain_error(c):
    with pytest.raises(ParamDomainError):
        build_correlation(FamilySpec("EC", 3), [c])


# ---------------------------------------------------------------------------
# MC

def test_mc_direct_evaluation():
    m = build_correlation(FamilySpec("MC", 2), np.array([0.5, 0.5]))
    assert m.values[0, 1] == pytest.approx(np.exp(-1.0), abs=1e-15)


def test_mc_large_phi_vanishes():
    m = build_correlation(FamilySpec("MC", 3), np.full(3, 50.0))
    off = m.values[~np.eye(3, dtype=bool)]
    assert np.all(off < 1e-40)


def test_mc_log2_gives_quarter():
    m = build_correlation(FamilySpec("MC", 3), np.full(3, np.log(2.0)))
    off = m.values[~np.eye(3, dtype=bool)]
    assert np.allclose(off, 0.25, atol=1e-15)


def test_mc_domain_and_arity_errors():
    with pytest.raises(ParamDomainError):
        build_correlation(FamilySpec("MC", 2), np.array([0.5, -0.1]))
    with pytest.raises(ParamArityError):
        build_correlation(FamilySpec("MC", 2), np.array([0.5]))


# ---------------------------------------------------------------------------
# UC

def ec_to_uc_angles(c: float) -> np.ndarray:
    """Closed-form angles reproducing the exchangeable matrix at s=3."""
    return np.array([np.arccos(c), np.arccos(c), np.arccos(c / (c + 1.0))])


def mc_to_uc_angles(phi: np.ndarray) -> np.ndarray:
    """Closed-form angles reproducing the multiplicative matrix at s=3."""
    a = np.exp(-(phi[0] + phi[1]))
    b = np.exp(-(phi[0] + phi[2]))
    c = np.exp(-(phi[1] + phi[2]))
    t32 = np.arccos((c - a * b) / (np.sqrt(1 - a**2) * np.sqrt(1 - b**2)))
    return np.array([np.arccos(a), np.arccos(b), t32])


def test_uc_reproduces_ec_half():
    m = build_correlation(FamilySpec("UC", 3), ec_to_uc_angles(0.5))
    ec = build_correlation(FamilySpec("EC", 3), [0.5])
    assert np.allclose(m.values, ec.values, atol=1e-12)


@pytest.mark.parametrize("c", [0.1, 0.5, 0.9])
def test_uc_ec_mapping(c):
    uc = build_correlation(FamilySpec("UC", 3), ec_to_uc_angles(c))
    gap = np.abs(uc.values - build_correlation(FamilySpec("EC", 3), [c]).values)
    assert gap.max() < 1e-12


def test_uc_mc_mapping_random():
    rng = np.random.default_rng(7)
    for _ in range(20):
        phi = rng.uniform(0.1, 2.0, size=3)
        uc = build_correlation(FamilySpec("UC", 3), mc_to_uc_angles(phi))
        gap = np.abs(uc.values - build_correlation(FamilySpec("MC", 3), phi).values)
        assert gap.max() < 1e-10


def test_uc_right_angles_give_identity():
    m = build_correlation(FamilySpec("UC", 4), np.full(6, np.pi / 2))
    assert np.allclose(m.values, np.eye(4), atol=1e-15)


def test_uc_random_theta_positive_definite():
    rng = np.random.default_rng(11)
    theta = random_params(FamilySpec("UC", 5), rng)
    m = build_correlation(FamilySpec("UC", 5), theta)
    assert np.linalg.eigvalsh(m.values).min() > 0.0


def test_uc_arity_and_domain_errors():
    with pytest.raises(ParamArityError):
        build_correlation(FamilySpec("UC", 3), np.array([1.0, 1.0]))
    with pytest.raises(ParamDomainError):
        build_correlation(FamilySpec("UC", 3), np.array([1.0, 1.0, 3.5]))


# ---------------------------------------------------------------------------
# LRC

def test_lrc_rank2_two_levels_orthogonal():
    Q = sphere_loading(np.array([np.pi / 2]), 2, 2)
    m = regularize(Q @ Q.T)
    assert abs(m.values[0, 1]) < 1e-8


def test_lrc_rank2_angle_difference_identity():
    rng = np.random.default_rng(3)
    for _ in range(50):
        s = int(rng.integers(2, 9))
        theta = rng.uniform(1e-3, np.pi - 1e-3, size=lrc_param_count(s, 2))
        loading = sphere_loading(theta, s, 2)
        P = loading @ loading.T
        full = np.r_[0.0, theta]  # first level pinned at angle zero
        for i in range(s):
            for j in range(s):
                assert P[i, j] == pytest.approx(np.cos(full[i] - full[j]), abs=1e-12)


def test_lrc_rank2_reaches_negative_pattern():
    eps = 1e-6
    m = build_correlation(FamilySpec("LRC", 4, 2), np.array([np.pi - eps, eps, np.pi - eps]))
    assert m.values[0, 1] < -0.999
    assert m.values[0, 3] < -0.999
    assert m.values[1, 2] < -0.999
    assert m.values[0, 2] > 0.999
    assert m.values[1, 3] > 0.999


def test_lrc_loading_structure():
    rng = np.random.default_rng(5)
    spec = FamilySpec("LRC", 6, 3)
    Q = sphere_loading(random_params(spec, rng), 6, 3)
    assert Q.shape == (6, 3)
    assert Q[0, 0] == 1.0 and np.all(Q[0, 1:] == 0.0)
    # zero padding beyond min(i, r)
    assert Q[1, 2] == 0.0
    # unit row norms
    assert np.allclose((Q**2).sum(axis=1), 1.0, atol=1e-12)


def _sphere_row(angles):
    """Reference: one loading row from its angles, entry by entry."""
    k = angles.size
    row = np.empty(k + 1)
    c = np.cos(angles)
    sp = np.cumprod(np.sin(angles))
    row[0] = c[0]
    if k > 1:
        row[1:k] = c[1:] * sp[: k - 1]
    row[k] = sp[k - 1]
    return row


def row_recursion_loading(theta, s, rank):
    """Reference: the loading matrix built one row at a time."""
    Q = np.zeros((s, rank))
    Q[0, 0] = 1.0
    off = 0
    for i in range(2, s + 1):
        m = min(i, rank) - 1
        Q[i - 1, : m + 1] = _sphere_row(theta[off : off + m])
        off += m
    return Q


@pytest.mark.parametrize(
    "s,rank", [(s, rank) for s in range(2, 9) for rank in range(2, s + 1)]
)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_sphere_loading_matches_row_recursion_bitwise(s, rank, data):
    k = lrc_param_count(s, rank)
    angle = st.floats(min_value=1e-6, max_value=np.pi - 1e-6)
    theta = np.array(data.draw(st.lists(angle, min_size=k, max_size=k)))
    assert np.array_equal(sphere_loading(theta, s, rank), row_recursion_loading(theta, s, rank))


def test_sphere_loading_errors_name_the_family():
    with pytest.raises(ParamArityError, match="UC with s=3"):
        sphere_loading(np.ones(2), 3, 3)
    with pytest.raises(ParamArityError, match="LRC2 with s=4"):
        sphere_loading(np.ones(2), 4, 2)
    with pytest.raises(ParamDomainError):
        sphere_loading(np.array([1.0, 1.0, 3.5]), 4, 2)


@settings(max_examples=40, deadline=None)
@given(
    s=st.integers(min_value=2, max_value=7),
    rank_offset=st.integers(min_value=0, max_value=5),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_sphere_loading_grad_moves_one_row(s, rank_offset, seed):
    rank = max(2, s - rank_offset)
    rng = np.random.default_rng(seed)
    theta = rng.uniform(1e-3, np.pi - 1e-3, size=lrc_param_count(s, rank))
    Q, rows, dQ = sphere_loading_grad(theta, s, rank)
    assert np.array_equal(Q, sphere_loading(theta, s, rank))
    h = 1e-6
    for k in range(theta.size):
        e = np.zeros(theta.size)
        e[k] = h
        numeric = (sphere_loading(theta + e, s, rank)
                   - sphere_loading(theta - e, s, rank)) / (2 * h)
        assert not np.delete(numeric, rows[k], axis=0).any()
        assert np.abs(numeric[rows[k]] - dQ[k]).max() <= 1e-8


@pytest.mark.parametrize("label", ["EC", "MC", "LRC2", "LRC3", "UC"])
@settings(max_examples=25, deadline=None)
@given(
    s=st.integers(min_value=2, max_value=7),
    log_nugget=st.floats(min_value=-8.0, max_value=-2.0),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_corr_grad_matches_differenced_corr_values(label, s, log_nugget, seed):
    assume(not label.startswith("LRC") or int(label[3:]) <= s - 1)
    spec = FamilySpec.parse(label, s)
    rng = np.random.default_rng(seed)
    theta = random_params(spec, rng)
    G = rng.standard_normal((s, s))
    G += G.T
    nugget = 10.0**log_nugget
    h = 1e-6
    numeric = np.empty(theta.size)
    for k in range(theta.size):
        e = np.zeros(theta.size)
        e[k] = h
        dP = (corr_values(spec, theta + e, nugget) - corr_values(spec, theta - e, nugget)) / (2 * h)
        numeric[k] = (G * dP).sum()
    parts = []
    corr_values(spec, theta, nugget, parts=parts)
    assert np.abs(corr_grad(spec, theta, G, parts, nugget) - numeric).max() <= 1e-7 * max(
        1.0, np.abs(numeric).max())


def straightforward_corr_values(spec, values, nugget):
    """corr_values as first written: np.outer, np.eye, fill_diagonal, np.clip."""
    s = spec.s
    if spec.family == "EC":
        P = np.full((s, s), values[0])
        np.fill_diagonal(P, 1.0)
        return P
    if spec.family == "MC":
        a = np.exp(-values)
        P = np.outer(a, a)
        np.fill_diagonal(P, 1.0)
        return P
    Q = row_recursion_loading(values, s, spec.rank or s)
    P = Q @ Q.T
    if spec.family == "LRC":
        P = (P + nugget * np.eye(s)) / (1.0 + nugget)
    P = (P + P.T) / 2.0
    np.fill_diagonal(P, 1.0)
    return np.clip(P, -1.0, 1.0, out=P)


@pytest.mark.parametrize("label", ["EC", "MC", "LRC2", "LRC3", "UC"])
@settings(max_examples=25, deadline=None)
@given(
    s=st.integers(min_value=2, max_value=7),
    log_nugget=st.floats(min_value=-8.0, max_value=-2.0),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_corr_values_and_grad_match_the_straightforward_build_bitwise(label, s, log_nugget,
                                                                      seed):
    # corr_values writes diagonals through strided views and clips in
    # place; corr_grad zeroes the diagonal of its own copy of G, also
    # when G is Fortran-ordered
    assume(not label.startswith("LRC") or int(label[3:]) <= s - 1)
    spec = FamilySpec.parse(label, s)
    rng = np.random.default_rng(seed)
    theta = random_params(spec, rng)
    nugget = 10.0**log_nugget
    parts = []
    P = corr_values(spec, theta, nugget, parts=parts)
    assert np.array_equal(P, straightforward_corr_values(spec, theta, nugget))
    G = rng.standard_normal((s, s))
    G += G.T
    G = np.asfortranarray(G)
    kept = G.copy()
    off_diagonal = G.copy(order="C")
    np.fill_diagonal(off_diagonal, 0.0)
    g = corr_grad(spec, theta, G, parts, nugget)
    assert np.array_equal(G, kept)
    assert np.array_equal(g, corr_grad(spec, theta, off_diagonal, parts, nugget))
    # in a stack, each row gives the bits it gives alone; a stack is not
    # checked, so a row outside the domain raises nothing and changes no
    # other row
    stack = np.array([random_params(spec, rng), theta, -theta])
    stack_parts = []
    P_stack = corr_values(spec, stack, nugget, parts=stack_parts)
    g_stack = corr_grad(spec, stack, np.stack([G] * 3), stack_parts, nugget)
    assert P_stack.shape == (3, s, s)
    assert np.array_equal(P_stack[1], P) and np.array_equal(g_stack[1], g)
    alone_parts = []
    P_alone = corr_values(spec, stack[0], nugget, parts=alone_parts)
    assert np.array_equal(P_stack[0], P_alone)
    assert np.array_equal(g_stack[0], corr_grad(spec, stack[0], G, alone_parts, nugget))


def test_lrc_rank_before_regularization():
    rng = np.random.default_rng(9)
    for s, r in [(4, 2), (5, 3), (6, 4), (8, 2)]:
        loading = sphere_loading(random_params(FamilySpec("LRC", s, r), rng), s, r)
        sv = np.linalg.svd(loading @ loading.T, compute_uv=False)
        assert sv[r:].max() < 1e-10 if r < s else True


# ---------------------------------------------------------------------------
# regularize

def test_regularize_all_ones():
    m = regularize(np.ones((3, 3)), nugget=1e-8)
    assert np.all(np.diag(m.values) == 1.0)
    assert m.values[0, 1] == pytest.approx(1.0 / (1.0 + 1e-8), abs=1e-16)
    m.cholesky()


def test_regularize_identity_unchanged():
    m = regularize(np.eye(4), nugget=1e-8)
    assert np.allclose(m.values, np.eye(4), atol=1e-15)


def test_regularize_lifts_smallest_eigenvalue():
    rng = np.random.default_rng(13)
    loading = sphere_loading(random_params(FamilySpec("LRC", 5, 2), rng), 5, 2)
    m = regularize(loading @ loading.T, nugget=1e-8)
    assert m.min_eigenvalue() >= 1e-8 / (1 + 1e-8) - 1e-15


def test_regularize_failure_reports_eigenvalue():
    # entries in range but indefinite (triangle of near +/-1 correlations)
    bad = np.array([[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]])
    assert np.linalg.eigvalsh(bad).min() < 0
    with pytest.raises(NumericalRankError) as err:
        regularize(bad, nugget=1e-8)
    assert err.value.smallest_eigenvalue is not None
    assert err.value.smallest_eigenvalue < 0


def test_regularize_rejects_out_of_range_entries():
    with pytest.raises(ParamDomainError):
        regularize(np.array([[1.0, 2.0], [2.0, 1.0]]), nugget=1e-8)


@pytest.mark.parametrize("nugget", [np.inf, np.nan, 0.0, -1e-9, "1e-8"])
def test_regularize_and_lrc_build_take_a_finite_positive_nugget(nugget):
    # the rule KernelConfig applies to corr_nugget
    message = "nugget must be finite and positive"
    with pytest.raises(ParamDomainError, match=message):
        regularize(np.eye(3), nugget)
    with pytest.raises(ParamDomainError, match=message):
        build_correlation(FamilySpec("LRC", 3, 2), [1.0, 1.2], nugget)


# ---------------------------------------------------------------------------
# LRC inside UC

@pytest.mark.parametrize("s,r", [(4, 2), (4, 3), (6, 2), (6, 5)])
def test_embed_lrc_in_uc_random(s, r):
    rng = np.random.default_rng(100 * s + r)
    for _ in range(25):
        theta = random_params(FamilySpec("LRC", s, r), rng)
        lrc = build_correlation(FamilySpec("LRC", s, r), theta)
        uc = build_correlation(FamilySpec("UC", s), embed_lrc_in_uc(theta, s, r))
        assert np.abs(uc.values - lrc.values).max() < 1e-6


def test_embed_rank_s_minus_one_only_adds_epsilon():
    theta = np.array([1.0, 0.8])  # s=3, r=2: rows 2 and 3 carry one angle each
    emb = embed_lrc_in_uc(theta, 3, 2)
    assert emb.size == 3
    assert emb[0] == theta[0] and emb[1] == theta[1]
    assert emb[2] == 1e-9


def test_embed_many_draws_max_gap():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        theta = random_params(FamilySpec("LRC", 6, 3), rng)
        lrc = build_correlation(FamilySpec("LRC", 6, 3), theta)
        uc = build_correlation(FamilySpec("UC", 6), embed_lrc_in_uc(theta, 6, 3))
        worst = max(worst, float(np.abs(uc.values - lrc.values).max()))
    assert worst < 1e-6


# ---------------------------------------------------------------------------
# cross-family properties

@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(["EC", "MC", "UC", "LRC"]),
    s=st.integers(min_value=2, max_value=8),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_every_family_produces_pdude(family, s, seed):
    rng = np.random.default_rng(seed)
    if family == "LRC":
        assume(s > 2)  # model specs require rank < s
        spec = FamilySpec("LRC", s, int(rng.integers(2, s)))
    else:
        spec = FamilySpec(family, s)
    values = random_params(spec, rng)
    m = build_correlation(spec, values)
    assert np.array_equal(m.values, m.values.T)
    assert np.all(np.diag(m.values) == 1.0)
    assert np.all(np.abs(m.values) <= 1.0)
    regularize(m.values).cholesky()


def test_ec_mc_strictly_positive_off_diagonals():
    rng = np.random.default_rng(21)
    for _ in range(50):
        s = int(rng.integers(2, 8))
        ec = build_correlation(FamilySpec("EC", s), [rng.uniform(1e-4, 1 - 1e-4)])
        mc = build_correlation(FamilySpec("MC", s), rng.uniform(0.01, 5.0, size=s))
        for m in (ec, mc):
            off = m.values[~np.eye(s, dtype=bool)]
            assert np.all(off > 0.0)


def test_uc_reaches_negative_correlations():
    theta = np.array([np.pi - 1e-3])
    m = build_correlation(FamilySpec("UC", 3), np.r_[theta, np.full(2, np.pi / 2)])
    assert m.values[0, 1] < -0.99


def test_param_count_matches_builder_arity():
    rng = np.random.default_rng(33)
    specs = [FamilySpec("EC", 5), FamilySpec("MC", 5), FamilySpec("UC", 5),
             FamilySpec("LRC", 5, 2), FamilySpec("LRC", 5, 4)]
    for spec in specs:
        values = random_params(spec, rng)
        assert values.size == param_count(spec)
        build_correlation(spec, values)  # accepts exactly this length
        with pytest.raises(ParamArityError):
            build_correlation(spec, np.r_[values, 0.5])


def test_corr_matrix_rejects_bad_input():
    with pytest.raises(ParamDomainError):
        CorrMatrix(np.array([[1.0, 0.5], [0.4, 1.0]]), 2)
    with pytest.raises(ParamDomainError):
        CorrMatrix(np.array([[1.0, 0.5], [0.5, 0.9]]), 2)
    with pytest.raises(ParamDomainError):
        CorrMatrix(np.array([[1.0, 1.5], [1.5, 1.0]]), 2)
