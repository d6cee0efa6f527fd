"""Ordinary Kriging for mixed continuous and categorical inputs.

The covariance is a product of a Matern(5/2) correlation over the
continuous coordinates and a cross-correlation matrix over the
categorical level pair. Hyperparameters are estimated by minimizing the
concentrated negative log-likelihood (trend and variance profiled out
in closed form) with multi-start L-BFGS-B on the parameter box, using
the likelihood's analytic gradient.
Prediction is the plug-in best linear unbiased predictor.

One expression, ``_matern``, evaluates the Matern(5/2) factor of scaled
distances of any shape. The likelihood applies it once to the whole
(q, n(n-1)/2 + 1) stack of the differences that the training set holds,
one column per unordered pair and one zero column for the diagonal
(R is symmetric, and |x_i - x_j| and |x_j - x_i| are the same double),
and multiplies the q factors along the first axis (``_kernel``), so
each numpy operation runs once for all dimensions and once per pair.
One gather through an (n, n) index of the columns
(``_pair_columns``) expands the product, and the lengthscale
derivatives, to every ordered pair. The expanded lengthscale
derivatives are C-contiguous in (k, q, n, n) order, so each dimension's
(n, n) slice is contiguous: BLAS dot products then accumulate exactly
as on arrays built for one dimension, while strided slices round
differently in the last bits.

Prediction takes one of two paths. A query is a product grid when its
rows list every combination of its columns' distinct values once, in
nested order over some order of the columns (``np.meshgrid`` raveled,
"ij" or "xy"): each column takes its m_d values over runs of rows, the
same within every run of the column outside it, down to runs of one
row. The rule reads each column's run of its first value and checks
the pattern by one reshape; it sorts no row. Some column must repeat a
value, and no table, nor the fold of the tables inside the outermost,
may have more than ``_rows(_GRID_ELEMENTS, n)`` rows. The rule reads the
raw query, in problem units, from one (q, rows) copy with each column
contiguous. Its exact comparison puts every row's value among its
column's m_d pattern values, and no NaN passes it, so a grid checks
(finite first, then within bounds) and maps to unit coordinates only
those values; any other query checks and maps every row. On a grid,
r0 @ alpha at (u_1[i_1], ..., u_q[i_q]) and level l is the contraction
sum_j T_1[i_1, j] ... T_q[i_q, j] P[l, l_j] alpha_j, T_d the (m_d, n)
Matern factors of column d's values u_d, in row order, against the
training set (Gilboa, Saatci & Cunningham 2015). The level is one
more, innermost dimension, of one row P[l, training levels] * alpha.
Row-wise Khatri-Rao products fold it into the tables inside the
outermost, and one BLAS-3 product with the outermost gives the grid in
the query's row order. Per-row levels take each row from its level's
product, with the bits of that level named alone (one product over all
levels would be a gemm where one level's, on a line, is a gemv). The
sums run in another order than the blocks', within the dot product's
rounding bound of the exact sum of the same doubles (a test checks).

Any other query is predicted one block of rows at a time, in fresh
arrays of at most ``_STACK_ELEMENTS`` entries, under glibc's mmap
threshold (blocks keep at least 8 rows): the Matern factor of each
dimension, multiplied into the block's product in dimension order, and
the level factor last, a row gather from the level table. A block's
arrays are freed before the next block's are made, so once the heap
has grown a call faults in no fresh pages, and memory is O(block * n)
for any number of rows. A block has a multiple of 8 rows, one spare
for a lone last row, which joins the block before it (numpy would send
a one-row product to BLAS ddot): the OpenBLAS gemv kernel takes rows in
groups (of 4 on x86-64 Haswell) and rounds its leftover rows
differently, so a block that starts at a multiple of 8 puts every row
in the group and path it has in one product over all rows, and each
prediction is bit for bit that of the one-array expression.

Only the level factor P[level, .] of a row's r0 depends on the level
(Rasmussen & Williams 2006, eq. 2.25), and callers predict every level
of one query in turn. So a model keeps the level-free part of its last
query (``GPFit._query``): a private row-major copy of the query as its
key, and the unit columns, or on a grid the tables. A call whose X
equals the key (``np.array_equal``, about 7 us at 10,000 x 2; 40 us
against a column-major copy) skips the checks, the mapping and the
tables. The kept part is published once complete, so a concurrent call
reads a finished one or none. The (s, n) level table of P at (level,
training level) is the model's own (``GPFit.level_table``), built once
by :func:`refit_config` from the P of its likelihood evaluation; a
model without a family has a table of ones, which changes no bit
(x * 1.0 is x).

One function, ``_profile``, evaluates that likelihood at a stack of k
parameter points at once: for the optimizer, and at k = 1 for the
finished model, in :func:`refit_config`, whose ``neg_log_lik`` is
:func:`concentrated_nll`'s value. One helper, ``_assemble_R``, builds R
for it and for :func:`build_R`: the Matern product gathered to every
pair, times P at the level pairs, with the diagonal set to 1 + nugget.
LAPACK ``dpotrf`` factors each R, and one BLAS ``dtrsm`` solve on
[z, 1] per point yields the GLS mean and profiled variance. (LAPACK ``dtrtrs``
would do the same solve, but OpenBLAS runs it on a second thread even
at a few dozen rows, doubling its CPU time for no gain in wall time.) For the optimizer it
also returns the gradient sum(W * dR/dpsi), W = R^-1 - alpha alpha^T /
sigma2, with R^-1 = L^-T L^-1 from one ``dtrtri`` on the same factor,
in place once alpha is solved, and one product: closed-form Matern
lengthscale terms, and category
terms from W times the Matern product summed by level pair and
contracted with the family's closed-form dP/dtheta
(:func:`corrparam.corr_grad`). (LAPACK ``dpotri`` would give R^-1 in
one call, but OpenBLAS runs it on a second thread at every size the
study fits, N = 16 to 48: 74 us CPU for 44 us wall at N = 32, against
17 us for ``dtrtri`` and the product.) An evaluation builds the UC/LRC
loading once, in ``corr_values``, and hands it to ``corr_grad``; P is
gathered at the level pairs through a flat index that the training set
builds once, as it does the standardized responses and the [z, 1] array
that each solve starts from a copy of.
None of this changes a floating-point operation or its order, so the
searches, and every fitted number, are those of the straightforward
evaluation.

Nor does the stack. Every step is elementwise on (k, ...) arrays, one
LAPACK or BLAS call per point (``dpotrf``, both ``dtrsm`` solves,
``dtrtri``), one small product per matrix, or ``np.vecdot``, which is
BLAS ``ddot`` on each pair of rows; so each point gets the bits it gets
alone (a test pins this). ``np.einsum``, or matrix-vector products in
place of the dot products, did not give the same bits. A point whose R
does not factor fails alone, with ``_FAILED_OBJ`` and a zero gradient.
No parameter is checked here: every point :func:`fit` evaluates lies in
``psi_box``, and :class:`KernelConfig` checks the others.

Each search is scipy's L-BFGS-B driven directly (``_lbfgsb_search``), on
the path of ``scipy.optimize.minimize`` evaluation for evaluation and
bit for bit: a generator that yields each point it needs, its start
first, and is sent that point's value and gradient. :func:`fit` thus
runs its starts in lockstep, each round's points in stacked calls of at
most ``_STACK_ELEMENTS`` entries per (points, q, n, n) array, the
starts in the first round. At N = 24-32 an evaluation's time is mostly
numpy's and LAPACK's per-call overhead, which a stack pays once. A call
that raises is made again row by row, so an exception at any point, the
start included, ends only its own search, which is asked for no more
points.

Continuous inputs are affinely mapped to [0, 1] per dimension using the
training set's declared bounds before any kernel evaluation; responses
are standardized for fitting and de-standardized for prediction.
"""

import functools
import json
import math
import operator
import warnings
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np
from scipy.linalg.blas import dtrsm
from scipy.linalg.lapack import dpotrf, dtrtri
from scipy.optimize._lbfgsb import setulb

from .corrparam import (
    FamilySpec,
    cat_param_bounds,
    check_nugget,
    check_params,
    corr_grad,
    corr_values,
    nugget_rule,
    param_count,
)
from .design import check_bounds, map_to_unit
from .errors import (
    ConfigError,
    FitFailureError,
    IllConditionedError,
    ParamArityError,
    ParamDomainError,
    as_numbers,
    whole,
)

SQRT5 = math.sqrt(5.0)

# Guards for degenerate data; see FitOptions for the tunable knobs.
SIGMA2_FLOOR = 1e-12
_YSTD_FLOOR = 1e-300
_FAILED_OBJ = 1e30

# predict_batch takes a query as a product grid only while each of its
# tables, and the fold of the tables inside the outermost, has at most
# _rows(_GRID_ELEMENTS, n) rows (256 KB at most per table)
_GRID_ELEMENTS = 1 << 15

# fit's stacked likelihood calls and predict_batch's blocks allocate
# arrays of at most this many entries (128 KB, glibc's mmap threshold;
# a call takes at least one point, a block at least 8 rows): larger
# ones come fresh from the OS and fault in their pages each call. Per
# point of a 16-point round at q = 2 (UC, s = 4; BLAS on one thread,
# 2-vCPU x86-64 VM), stacked likelihood calls of 18,432 entries or fewer
# page-faulted no memory, and larger ones 200-2,300 pages a round: at
# N = 32, 8 points a call took 50 us a point and 16 took 68; at N = 48,
# 4 took 110 and 8 took 184; at N = 96, 1 took 435 and 2 took 548.
# Prediction blocks of 2^15 entries per array faulted in 156-2,240
# pages a call on scattered 1,000- and 10,000-row queries (N = 32 and
# 48, each in a fresh interpreter), and blocks of this many none.
_STACK_ELEMENTS = 1 << 14

# scipy.optimize.minimize's L-BFGS-B defaults: corrections kept, factr
# (ftol / machine epsilon), projected-gradient tolerance, line-search
# steps per iteration and iterations
_LBFGSB_M = 10
_LBFGSB_FACTR = 2.2204460492503131e-09 / np.finfo(float).eps
_LBFGSB_PGTOL = 1e-5
_LBFGSB_MAXLS = 20
_LBFGSB_MAXITER = 15000


@dataclass(frozen=True)
class KernelConfig:
    """Kernel hyperparameters: lengthscales, family parameters, nugget.

    ``family_spec``/``cat_params`` are None for a continuous-only model.
    The nugget is added to the diagonal of the training correlation
    matrix (jitter); it is not rescaled away. ``lengthscales`` and
    ``cat_params`` convert by :func:`errors.as_numbers` (a bool, text or
    a complex number raises ``ParamDomainError``); ``cat_params`` must be
    finite and pass the family's rule (:func:`corrparam.check_params`).
    """

    lengthscales: np.ndarray
    family_spec: FamilySpec | None = None
    cat_params: np.ndarray | None = None
    nugget: float = 1e-8
    corr_nugget: float = 1e-8

    def __post_init__(self):
        # private read-only copies, as in TrainingSet: a model keeps
        # products of its last query built from them (predict_batch)
        ls = as_numbers(self.lengthscales, "lengthscales", copy=True).ravel()
        ls.setflags(write=False)
        object.__setattr__(self, "lengthscales", ls)
        if not all(0 < v < math.inf for v in ls.tolist()):  # NaN fails both
            raise ParamDomainError("lengthscales must be positive and finite")
        check_nugget("nugget", self.nugget, zero=True)
        check_nugget("corr_nugget", self.corr_nugget)
        if self.cat_params is not None:
            cat = as_numbers(self.cat_params, "cat_params", copy=True).ravel()
            cat.setflags(write=False)
            object.__setattr__(self, "cat_params", cat)
            if not all(map(math.isfinite, cat.tolist())):
                raise ParamDomainError("cat_params must be finite")
        if (self.family_spec is None) != (self.cat_params is None):
            raise ParamDomainError("family_spec and cat_params must be given together")
        if self.family_spec is not None:
            check_params(self.family_spec, self.cat_params)

    def corr_matrix(self) -> np.ndarray | None:
        if self.family_spec is None:
            return None
        return corr_values(self.family_spec, self.cat_params, self.corr_nugget)


def _outside(columns, bounds: np.ndarray) -> bool:
    """Whether a value of ``columns[d]`` lies more than 1e-9 outside ``bounds[d]``.

    Column by column: numpy compares a (rows, q) array with a length-q
    row of bounds in a length-q inner loop per row, several times slower.
    """
    return any(x.size > 0 and (x.min() < lo - 1e-9 or x.max() > hi + 1e-9)
               for x, (lo, hi) in zip(columns, bounds.tolist()))


class TrainingSet:
    """Observed mixed inputs and responses.

    Parameters
    ----------
    X : (n, q) array
        Continuous coordinates in problem units.
    levels : (n,) int array
        Categorical level per point, 1-based.
    y : (n,) array
        Responses.
    bounds : (q, 2) array, optional
        Per-dimension (lower, upper); defaults to the unit box. Checked
        by :func:`design.check_bounds`, and used to normalize coordinates
        before kernel evaluation.
    n_levels : int, optional
        Number of levels s; defaults to max(levels). An integral float
        such as 4.0 is accepted; a non-integral or non-finite one raises
        ``ParamDomainError``. A model of this set has a family of exactly
        s levels.

    ``X``, ``y``, ``levels`` and ``n_levels`` convert by
    :func:`errors.as_numbers` (levels and ``n_levels`` as integers): a
    bool, text, None or a complex number raises ``ParamDomainError``, a
    ragged list ``ParamArityError``.

    Besides ``X``, ``levels``, ``y``, ``bounds``, ``n``, ``q`` and
    ``n_levels``, a training set holds what every likelihood evaluation
    reads, built once here, each array read-only:

    * ``X01``: the (n, q) coordinates mapped to the unit box;
    * ``absdiff``: the (q, n(n-1)/2 + 1) array of |x_i - x_j| per
      dimension (unit coordinates), one column per pair i < j in
      row-major order, then a zero column for i = j; ``_pair_columns(n)``
      maps each ordered pair to its column (see the module docstring);
    * ``y_mean`` and ``y_std``: the mean and standard deviation of ``y``
      (a std below ``_YSTD_FLOOR`` is taken as 1);
    * ``rhs``: the (2, n) array [z, 1] that the likelihood solves, z the
      standardized responses (y - y_mean) / y_std;
    * ``level_indicator``: the (n, n_levels) 0/1 matrix with row i's 1
      in column levels[i] - 1, so that E^T A E sums an n x n array A by
      level pair;
    * ``pair_index``: the (n, n) flat index of P[level_i, level_j] in an
      n_levels x n_levels P, so that ``np.take(P, pair_index)`` gathers P
      at every training pair with one index array, where ``np.ix_``
      indexing would broadcast two.
    """

    def __init__(self, X, levels, y, bounds=None, n_levels=None):
        # private read-only copies: the arrays built below, and what
        # save_fit writes, must not change when the caller's arrays do
        X = np.atleast_2d(as_numbers(X, "X", copy=True))
        levels = as_numbers(levels, "levels", integral=True).ravel()
        y = as_numbers(y, "y", copy=True).ravel()
        for a in (X, levels, y):
            a.setflags(write=False)
        if X.ndim != 2:
            raise ParamArityError(f"X must have shape (n, q), got {X.shape}")
        n, q = X.shape
        if not (np.isfinite(X).all() and np.isfinite(y).all()):
            raise ParamDomainError("training coordinates and responses must be finite")
        if n < 2:
            raise ParamDomainError(f"need at least 2 training points, got {n}")
        if levels.shape != (n,) or y.shape != (n,):
            raise ParamArityError("X, levels and y must have matching first dimension")
        labels = levels.tolist()
        low, high = min(labels), max(labels)
        if low < 1:
            raise ParamDomainError("levels are 1-based positive integers")
        bounds = check_bounds(np.tile((0.0, 1.0), (q, 1)) if bounds is None else bounds, q)
        # each coordinate column contiguous: checked in problem units, then
        # mapped to the unit box in place (design.map_to_unit)
        columns = X.T.copy()
        if _outside(columns, bounds):
            raise ParamDomainError("training coordinates outside declared bounds")
        if len(set(zip(*columns.tolist(), labels))) != n:
            raise ParamDomainError(
                "duplicate (x, level) points make the correlation matrix singular"
            )
        self.X = X
        self.levels = levels
        self.y = y
        self.bounds = bounds
        self.n = n
        self.q = q
        self.n_levels = high if n_levels is None else as_numbers(n_levels, "n_levels", True).item()
        if self.n_levels < high:
            raise ParamDomainError("n_levels smaller than an observed level")
        map_to_unit(columns, bounds)
        self.X01 = columns.T
        i, j = _upper_pairs(n)
        self.absdiff = np.zeros((q, i.size + 1))
        pairs = self.absdiff[:, :-1]
        np.subtract(columns.take(i, axis=1), columns.take(j, axis=1), out=pairs)
        np.abs(pairs, out=pairs)
        # y.mean() and y.std() by the ufunc calls numpy makes for them, in
        # its order; the deviations y - mean become z in place
        self.rhs = np.empty((2, n))
        z = self.rhs[0]
        self.y_mean = float(np.add.reduce(y) / n)
        np.subtract(y, self.y_mean, out=z)
        std = math.sqrt(np.add.reduce(z * z) / n)
        self.y_std = 1.0 if std < _YSTD_FLOOR else std
        z /= self.y_std
        self.rhs[1] = 1.0
        s, lv = self.n_levels, levels - 1
        self.level_indicator = np.eye(s).take(lv, axis=0)
        self.pair_index = np.add.outer(lv * s, lv)
        for a in (self.X01, self.absdiff, self.rhs, self.level_indicator, self.pair_index):
            a.setflags(write=False)


def _check_config(train: TrainingSet, spec: FamilySpec | None, n_lengthscales: int) -> None:
    """The one check that a model of ``spec`` with ``n_lengthscales`` fits ``train``."""
    if n_lengthscales != train.q:
        raise ParamArityError(f"need {train.q} lengthscales, one per continuous dimension, "
                              f"got {n_lengthscales}")
    if spec is not None and spec.s != train.n_levels:
        raise ParamDomainError(
            f"{spec.label} has {spec.s} levels but the training set has {train.n_levels}"
        )


@functools.lru_cache(maxsize=None)
def _upper_pairs(n: int):
    """The read-only ``np.triu_indices(n, 1)``, which costs more than the
    training set's differences built from it."""
    pairs = np.triu_indices(n, 1)
    for a in pairs:
        a.setflags(write=False)
    return pairs


@functools.lru_cache(maxsize=None)
def _pair_columns(n: int) -> np.ndarray:
    """The (n, n) index of each ordered pair's column in
    ``TrainingSet.absdiff``: (i, j) and (j, i) both map to the
    column of the pair i < j, and the diagonal to the last, zero, column.
    ``a.take(_pair_columns(n), axis=-1)`` expands a (..., n(n-1)/2 + 1)
    array of per-pair values to its (..., n, n) matrices in one gather.
    """
    i, j = _upper_pairs(n)
    index = np.full((n, n), i.size)
    index[i, j] = index[j, i] = np.arange(i.size)
    index.setflags(write=False)
    return index


def _matern(t, dlog=False):
    """The Matern(5/2) factor k(t) = exp(-t) (1 + t + t^2/3), elementwise.

    ``t`` holds scaled distances sqrt(5) |x_d - x'_d| / lengthscale_d,
    in an array of any shape that this overwrites. With ``dlog`` returns
    (k, lengthscale_d * d log k / d lengthscale_d), the latter
    t^2 (1 + t) / (t^2 + 3t + 3).
    """
    # In place: every product and sum has the operands of the plain
    # expression, at most swapped, which leaves each result bit for bit
    # the same, and fewer t-sized arrays are allocated and alive.
    tt = t * t
    if dlog:
        dl = 1.0 + t
        dl *= tt
        den = 3.0 * t
        den += tt
        den += 3.0
        dl /= den
    tt /= 3.0
    tt += t
    tt += 1.0
    tt *= np.exp(np.negative(t, out=t), out=t)
    return (tt, dl) if dlog else tt


def _matern_factor(x, x_train, scale):
    """The (len(x), n) Matern factors of query coordinates ``x`` against
    the n training coordinates ``x_train`` of one dimension (normalized),
    ``scale`` being sqrt(5) / lengthscale_d."""
    t = np.subtract(x[:, None], x_train[None, :])
    np.abs(t, out=t)
    t *= scale
    return _matern(t)


def _kernel(absdiff, lengthscales, dlog=False):
    """The Matern(5/2) product over a stack of differences.

    ``absdiff`` is a (q, ...) array of |x_d - x'_d| per continuous
    dimension (normalized units), C-contiguous. Returns a new array of
    shape ``absdiff.shape[1:]``: the q factors multiplied in dimension
    order. With ``dlog`` returns (K, D), D the (q, ...) array of each
    factor's lengthscale derivative (:func:`_matern`). A (k, q) stack
    of lengthscale vectors gives a leading axis k to K and D.
    """
    ls = np.asarray(lengthscales)
    t = (SQRT5 / ls).reshape(ls.shape + (1,) * (absdiff.ndim - 1)) * absdiff
    if dlog:
        k, D = _matern(t, dlog=True)
        return np.multiply.reduce(k, axis=ls.ndim - 1), D
    return np.multiply.reduce(_matern(t), axis=ls.ndim - 1)


_NOT_POSITIVE_DEFINITE = ("training correlation matrix is not positive definite; "
                          "increase the model nugget")


def _assemble_R(train: TrainingSet, lengthscales, Ppairs, nugget: float, dlog: bool = False):
    """The (k, n, n) training correlation matrices R at a (k, q) stack of lengthscales.

    R is the Matern product K gathered to every ordered pair, times
    ``Ppairs``, the family matrices P gathered at the level pairs (1.0
    without a family), with the diagonal set to 1 + nugget: R's diagonal
    is exactly 1 (Matern(0) = 1 and P's diagonal is 1), so this adds
    the nugget without a read. Returns (R, K, D), D the lengthscale
    derivatives at each unordered pair with ``dlog`` (:func:`_kernel`),
    else None; the gradient needs K itself.
    """
    k, n = len(lengthscales), train.n
    K, D = (_kernel(train.absdiff, lengthscales, dlog=True) if dlog
            else (_kernel(train.absdiff, lengthscales), None))
    K = K.take(_pair_columns(n), axis=1)
    R = K * Ppairs
    R.reshape(k, -1)[:, :: n + 1] = 1.0 + nugget
    return R, K, D


def build_R(train: TrainingSet, config: KernelConfig, P=None):
    """Training correlation matrix with nugget, plus its Cholesky factor.

    Returns (R, L) with R = correlations + nugget * I, assembled as the
    likelihood assembles it (:func:`_assemble_R`), and L lower
    triangular. ``P`` is the s x s array of ``config.corr_matrix()``,
    built here when not given. Raises as :func:`refit_config` does, and
    ``IllConditionedError`` when factorization fails.
    """
    _check_config(train, config.family_spec, config.lengthscales.size)
    if P is None:
        P = config.corr_matrix()
    Ppairs = 1.0 if P is None else np.take(P, train.pair_index)
    R = _assemble_R(train, config.lengthscales[None], Ppairs, config.nugget)[0][0]
    L, info = dpotrf(R.T, lower=1)
    if info != 0:
        raise IllConditionedError(_NOT_POSITIVE_DEFINITE)
    return R, L


def _profile(train: TrainingSet, lengthscales, spec, cat_params, nugget: float,
             corr_nugget: float, grad: bool = False):
    """The profiled likelihood at a stack of k parameter points.

    ``lengthscales`` is a (k, q) array and ``cat_params`` a (k, p) array
    (None without a family), neither checked. Returns (nll, ok, mu,
    sigma2, L, r, g), each with a leading axis k: the objective n
    log(sigma2) + log det R, the mask of the points whose R factors,
    the GLS mean and profiled
    variance of the standardized responses z (``train.rhs[0]``),
    the Cholesky factors L of R (lower, each Fortran-ordered), the
    whitened residuals r = L^-1 (z - mu 1), and, with ``grad``, the
    (k, q + p) gradient g of the objective in (lengthscales, cat_params)
    (else None), and the (k, s, s) family matrices P (None without a
    family). With ``grad`` the factors' memory receives R^-1's
    triangular factors, and L is None. With a = L^-1 z and b = L^-1 1
    from one solve, mu = b.a / b.b and r = a - mu b. A point whose R
    cannot be factored has nll ``_FAILED_OBJ``, a zero gradient and a
    False entry in ``ok``; its other entries are meaningless, and the
    other points are unaffected.
    """
    k, n = len(lengthscales), train.n
    parts = [] if grad else None
    ok = np.ones(k, bool)
    if spec is None:
        P, Ppairs = None, 1.0
    else:
        P = corr_values(spec, cat_params, corr_nugget, parts=parts)
        Ppairs = P.reshape(k, -1).take(train.pair_index, axis=1)
    R, K, dlog = _assemble_R(train, lengthscales, Ppairs, nugget, dlog=grad)
    # each R[i] is factored in place, through its transpose, a Fortran-
    # ordered view: R[i] then holds L_i^T and L[i] is L_i; and [z, 1] is
    # solved in place in ab[i]
    L = R.transpose(0, 2, 1)
    ab = np.empty((k, 2, n))
    ab[...] = train.rhs
    for i, Li in enumerate(L):
        if dpotrf(Li, lower=1, overwrite_a=1)[1]:
            ok[i] = False
            R[i] = np.eye(n)  # a stand-in factor, with which every step below is finite
        else:
            dtrsm(1.0, Li, ab[i].T, lower=1, overwrite_b=1)
    # np.vecdot is BLAS ddot on each pair of rows, so it sums as the dot
    # product of two vectors does; here b.a and b.b in one call
    ba, bb = np.vecdot(ab[:, 1:], ab).T
    mu = ba / bb
    r = ab[:, 0] - mu[:, None] * ab[:, 1]
    rr = np.vecdot(r, r) / n
    sigma2 = np.maximum(rr, SIGMA2_FLOOR)
    nll = 2.0 * np.add.reduce(np.log(R.diagonal(0, 1, 2)), axis=1)  # log det R
    for i, v in enumerate(sigma2.tolist()):
        nll[i] += n * math.log(v)
    g = None
    if grad:
        # df/dpsi = sum(W * dR/dpsi) with W = R^-1 - alpha alpha^T / sigma2
        # and alpha = R^-1 (z - mu 1); the profiled mu drops out
        # (Rasmussen & Williams 2006, sec. 5.4.1). Each L_i first solves
        # for alpha, then becomes L_i^-1 in place, so that R[i] holds
        # L_i^-T and R^-1 = L^-T L^-1 is one product. A floored sigma2
        # does not move with psi: there alpha is +0, and subtracting the
        # +0 products leaves W's bits as they are
        moves = rr > SIGMA2_FLOOR
        alpha = np.where(moves[:, None], r, 0.0)
        for Li, ai, m in zip(L, alpha, moves.tolist()):
            if m:
                dtrsm(1.0, Li, ai, lower=1, trans_a=1, overwrite_b=1)
            dtrtri(Li, lower=1, overwrite_c=1)
        L = None
        W = R @ R.transpose(0, 2, 1)
        W -= alpha[:, :, None] * (alpha / sigma2[:, None])[:, None, :]
        WK = W * K
        WR = WK * Ppairs
        q = lengthscales.shape[1]
        g = np.empty((k, q + (0 if spec is None else cat_params.shape[1])))
        # the lengthscale terms by one dot product per (point, dimension),
        # on contiguous rows (the gather's fresh array), so summed as
        # np.vdot does
        g[:, :q] = np.vecdot(dlog.take(_pair_columns(n).ravel(), axis=2), WR.reshape(k, 1, n * n))
        g[:, :q] /= lengthscales
        if spec is not None:
            E = train.level_indicator
            g[:, q:] = corr_grad(spec, cat_params, E.T @ WK @ E, parts, corr_nugget)
    if False in ok.tolist():
        nll[~ok] = _FAILED_OBJ
        if grad:
            g[~ok] = 0.0
    return nll, ok, mu, sigma2, L, r, g, P


def concentrated_nll(
    psi, train: TrainingSet, spec: FamilySpec | None, nugget: float = 1e-8,
    corr_nugget: float = 1e-8,
) -> float:
    """Profiled negative log-likelihood n log(sigma2_hat) + log det R.

    The trend and process variance are substituted by their closed-form
    generalized-least-squares estimates, so the objective depends only
    on the correlation parameters. Responses are standardized
    internally; the reported value refers to the standardized scale.
    ``psi`` is the lengthscales followed by the family's parameters; a
    wrong length raises ``ParamArityError``, :class:`KernelConfig` and
    the family check the values, and a family with a different number of
    levels than the training set raises ``ParamDomainError``. ``psi``
    converts by :func:`errors.as_numbers`, without a copy of a float
    array.
    """
    psi = as_numbers(psi, "psi").ravel()
    q = train.q
    k = q + (param_count(spec) if spec is not None else 0)
    if psi.size != k:
        raise ParamArityError(f"psi must have length {k}, got {psi.size}")
    config = KernelConfig(psi[:q], spec, None if spec is None else psi[q:], nugget, corr_nugget)
    return refit_config(train, config).neg_log_lik


@dataclass(frozen=True)
class FitOptions:
    """Knobs for maximum-likelihood fitting.

    ``n_starts`` local searches begin from a maximin-spread sample of
    the parameter box; each is L-BFGS-B on the box with the analytic
    gradient, stopping on scipy's default tolerances.
    ``max_evals_per_start`` is L-BFGS-B's ``maxfun``: the budget of
    likelihood evaluations (value and gradient together) of one search,
    the start's included; None means 150 per parameter. It is not a hard
    cap: as in scipy, the count is checked only after each iteration, so
    a search can overrun it by one line search, up to 20 evaluations.
    Building one checks every field by the rules in ``__post_init__`` (the
    nuggets by :func:`corrparam.nugget_rule`, the rule of every nugget),
    for the API and config files alike, and raises one ``ConfigError``
    listing every rule broken.
    """

    n_starts: int = 10
    seed: int = 0
    nugget: float = 1e-8
    corr_nugget: float = 1e-8
    lengthscale_bounds: tuple[float, float] = (1e-2, 10.0)
    max_evals_per_start: int | None = None

    def __post_init__(self):
        n, seed, budget = self.n_starts, self.seed, self.max_evals_per_start
        nugget, corr_nugget, bounds = self.nugget, self.corr_nugget, self.lengthscale_bounds
        nugget_broken, corr_broken = nugget_rule(nugget, zero=True), nugget_rule(corr_nugget)
        try:
            low, high = as_numbers(bounds, "lengthscale_bounds").tolist()
        except (TypeError, ValueError):  # not two real numbers
            low = high = None
        pair = type(low) is float  # not so if a (2, k) array unpacked to two lists
        ConfigError.check((
            ("n_starts", n, "an integer", whole(n)),
            ("seed", seed, "an integer", whole(seed)),
            ("max_evals_per_start", budget, "an integer or None", budget is None or whole(budget)),
            ("nugget", nugget, nugget_broken, nugget_broken is None),
            ("corr_nugget", corr_nugget, corr_broken, corr_broken is None),
            ("lengthscale_bounds", bounds, "a pair of real numbers", pair),
            # ranges of values of the right type only
            ("n_starts", n, ">= 1", not whole(n) or n >= 1),
            ("seed", seed, ">= 0", not whole(seed) or seed >= 0),
            ("lengthscale_bounds", bounds, "> 0", not pair or (low > 0 and high > 0)),
            ("max_evals_per_start", budget, ">= 1 or None", not whole(budget) or budget >= 1),
        ), [] if not pair or low < high else
            [f"lengthscale bounds must satisfy min < max, got {low} and {high}"])


def psi_box(q: int, spec: FamilySpec | None, options: FitOptions):
    """(lower, upper) arrays of the full parameter box."""
    lo = np.full(q, options.lengthscale_bounds[0])
    hi = np.full(q, options.lengthscale_bounds[1])
    if spec is not None:
        cb = cat_param_bounds(spec)
        lo = np.r_[lo, cb[:, 0]]
        hi = np.r_[hi, cb[:, 1]]
    return lo, hi


def maximin_starts(lo, hi, k: int, rng) -> np.ndarray:
    """Greedy maximin-spread subset of uniform candidates in the box."""
    dim = lo.size
    cand = rng.uniform(size=(max(64 * k, 256), dim))
    chosen = [0]
    d2 = ((cand - cand[0]) ** 2).sum(axis=1)
    for _ in range(k - 1):
        j = int(np.argmax(d2))
        chosen.append(j)
        d2 = np.minimum(d2, ((cand - cand[j]) ** 2).sum(axis=1))
    return lo + cand[chosen] * (hi - lo)


def _lbfgsb_search(u0, lo, hi, maxfun: int):
    """L-BFGS-B on the finite box [lo, hi], step for step as scipy's ``minimize``.

    A generator: it yields each point it needs the objective at, and is
    sent back that point's (f, g); a caller whose evaluation raised asks
    it for no more points and leaves it suspended. This is the
    reverse-communication loop of
    ``scipy.optimize.minimize(objective, u0, jac=True, method="L-BFGS-B",
    bounds=np.column_stack([lo, hi]), options={"maxfun": maxfun})`` on
    the same compiled ``setulb`` (Byrd, Lu, Nocedal & Zhu 1995), with its
    defaults and its ``nfev > maxfun`` check after each iteration. As
    there, the first point is the start clipped into the box, and a point
    equal to the last one evaluated is not asked for again, so the path,
    the evaluation count and the result are minimize's to the last bit.
    ``lo`` and ``hi`` are contiguous float64 arrays, as ``setulb`` takes them.

    Returns (f, u, nfev, nit, task): the last value handed to ``setulb``
    (after an ``ABNORMAL`` line-search exit, that of the last trial
    point, not of ``u``, as minimize reports it), the final point, the
    number of evaluations (the start's included), the iterations and
    ``setulb``'s final (task, reason) code pair.
    """
    n = u0.size
    x = np.clip(u0, lo, hi)
    # the last point evaluated, as a list: list equality is 5 times
    # faster than np.array_equal here, with the same answers (the floats
    # are fresh objects, so NaN never equals itself; -0.0 equals 0.0)
    last = x.tolist()
    f_last, g_last = yield x.copy()
    f, g = 0.0, np.zeros(n)
    nbd = np.full(n, 2, np.int32)  # both bounds finite
    wa = np.zeros(2 * _LBFGSB_M * n + 5 * n + 11 * _LBFGSB_M ** 2 + 8 * _LBFGSB_M)
    iwa = np.zeros(3 * n, np.int32)
    task, ln_task = np.zeros(2, np.int32), np.zeros(2, np.int32)
    lsave, isave, dsave = np.zeros(4, np.int32), np.zeros(44, np.int32), np.zeros(29)
    nfev, nit = 1, 0
    while True:
        setulb(_LBFGSB_M, x, lo, hi, nbd, f, g, _LBFGSB_FACTR, _LBFGSB_PGTOL, wa, iwa,
               task, lsave, isave, dsave, _LBFGSB_MAXLS, ln_task)
        if task[0] == 3:  # FG: evaluate at x
            point = x.tolist()
            if point != last:
                last = point
                f_last, g_last = yield x.copy()
                nfev += 1
            # setulb may write into g; the kept gradient must stay as evaluated
            f, g = f_last, g_last.copy()
        elif task[0] == 1:  # NEW_X: an iteration is done
            nit += 1
            if nit >= _LBFGSB_MAXITER:
                task[:] = 5, 504
            elif nfev > maxfun:
                task[:] = 5, 502
        else:
            return f, x, nfev, nit, (int(task[0]), int(task[1]))


@dataclass(frozen=True)
class GPFit:
    """A fitted model: optimized kernel plus cached solves.

    ``mu_hat`` and ``sigma2_hat`` are reported in response units;
    ``neg_log_lik`` is the concentrated objective on the standardized
    scale, reproducible through :func:`concentrated_nll`. ``alpha`` is
    R^-1 (z - mu_z) on the standardized scale, so prediction is a dot
    product per query point. ``level_table`` is the read-only (s, n)
    array of P at (level, training level), from the P that the fit's
    likelihood evaluation built (ones without a family).
    """

    config: KernelConfig
    mu_hat: float
    sigma2_hat: float
    neg_log_lik: float
    chol_R: np.ndarray
    alpha: np.ndarray
    train: TrainingSet
    y_mean: float
    y_std: float
    level_table: np.ndarray = field(repr=False, compare=False)
    start_objectives: tuple = field(default=(), compare=False)
    # the level-free part of the last predict_batch query (_Query)
    _query: object = field(default=None, init=False, repr=False, compare=False)

    @property
    def mu_z(self) -> float:
        return (self.mu_hat - self.y_mean) / self.y_std


def fit(train: TrainingSet, spec: FamilySpec | None, options: FitOptions | None = None) -> GPFit:
    """Maximum-likelihood fit over the box-constrained parameter space.

    Runs ``options.n_starts`` L-BFGS-B searches, with the analytic
    gradient of the profiled likelihood, from maximin-spread start
    points (searching log lengthscales), keeps the best objective (ties
    resolved toward the lowest start index) and returns the finished
    model. Deterministic for a fixed seed. Each search is scipy's
    L-BFGS-B routine with ``minimize``'s defaults, driven directly (see
    the module docstring). A search's first point is its start, evaluated
    once: its value is the start's entry of ``start_objectives`` (``inf``
    if that evaluation raised), and the start is kept if it beats where
    the search ends.

    The searches advance in lockstep, each round's points evaluated in
    stacked likelihood calls, the starts in the first; each search takes
    the path it takes alone, bit for bit. A failed evaluation costs only
    its own search, as does an exception raised at any of its points,
    the start included: that search is asked for no more points. Each
    search has one outcome, its kept (value, point) or one diagnostic:
    a search that raises after its start still offers the start, and a
    ``FitFailureError`` lists one diagnostic per search, ``"exception:
    ..."`` for one that raised.

    The search runs on log lengthscales, so a lengthscale on the upper
    face of ``lengthscale_bounds`` is reported as exp(log(hi)): at the
    default hi = 10 that is 10.000000000000002, one ulp above the bound.

    If fewer than two levels are observed the categorical parameters
    are unidentifiable; a warning is issued and a continuous-only model
    is fitted instead. Raises ``ParamDomainError`` when ``spec`` has a
    different number of levels than the training set's ``n_levels``.
    """
    options = options or FitOptions()
    _check_config(train, spec, train.q)  # the search draws one lengthscale per dimension
    if spec is not None and np.unique(train.levels).size < 2:
        warnings.warn(
            "only one categorical level observed; fitting a continuous-only model",
            stacklevel=2,
        )
        spec = None

    lo, hi = psi_box(train.q, spec, options)
    dim = lo.size
    rng = np.random.default_rng(options.seed)
    starts = maximin_starts(lo, hi, options.n_starts, rng)
    maxfun = options.max_evals_per_start or 150 * dim

    q = train.q
    # The search runs on u = (log lengthscales, cat_params), the same
    # starts and box. In psi, L-BFGS-B's first, unit-length step can
    # carry a lengthscale from mid-box to the lower face, onto the
    # plateau R ~ I where the gradient vanishes and the search stops.
    lo[:q], hi[:q] = np.log(lo[:q]), np.log(hi[:q])
    starts[:, :q] = np.log(starts[:, :q])
    # points per stacked likelihood call: its largest array, the
    # (points, q, n, n) stack of Matern derivatives, stays within
    # _STACK_ELEMENTS entries
    chunk = max(1, _STACK_ELEMENTS // (max(q, 1) * train.n ** 2))

    def replies(U):
        """Each row's (f, g), g in u, from stacked calls of at most
        ``chunk`` rows. A call that raises is made again row by row, so
        that a row that raises gets its exception and ends only its own
        search."""
        out = []
        for at in range(0, len(U), chunk):
            V = U[at:at + chunk]
            try:
                ls = np.exp(V[:, :q])
                nll, *_, g, _ = _profile(train, ls, spec, None if spec is None else V[:, q:],
                                         options.nugget, options.corr_nugget, grad=True)
                g[:, :q] *= ls  # df/dlog(l) = l df/dl
                out += zip(nll, g)
            except Exception as exc:
                out += [exc] if len(V) == 1 else [reply for v in V for reply in replies(v[None])]
        return out

    # The searches run in lockstep: each round evaluates, in stacked
    # calls, the next point of every search that is still running, the
    # starts in the first. Each search receives the (f, g) it would
    # alone, bit for bit; one whose point raised is asked for no more.
    searches = [_lbfgsb_search(u0, lo, hi, maxfun) for u0 in starts]
    ends = [None] * len(searches)  # the result, or the exception that ended each
    firsts = [None] * len(searches)  # each start, as evaluated, and the value there
    # search index -> the point it waits on, first its start
    waiting = {idx: next(search) for idx, search in enumerate(searches)}
    while waiting:
        idxs = list(waiting)
        U = np.array([waiting.pop(idx) for idx in idxs])
        for idx, u, reply in zip(idxs, U, replies(U)):
            failed = isinstance(reply, Exception)
            if firsts[idx] is None:  # the first round evaluates the starts
                firsts[idx] = u, math.inf if failed else float(reply[0])
            if failed:
                ends[idx] = reply
                continue
            try:
                waiting[idx] = searches[idx].send(reply)
            except StopIteration as stop:
                ends[idx] = stop.value

    # one outcome per search: its kept (value, point), the start where it
    # beats the end, or one diagnostic
    best_val = np.inf
    best_u = None
    diagnostics = []
    for idx, ((start, f0), end) in enumerate(zip(firsts, ends)):
        failed = isinstance(end, Exception)
        val, u = (math.inf, None) if failed else end[:2]
        if f0 < val:
            val, u = f0, start
        if not val < _FAILED_OBJ:  # NaN included
            diagnostics.append((idx, f"exception: {end}" if failed
                                else f"no finite objective (start value {f0:.4g})"))
        elif val < best_val - 1e-10:
            best_val, best_u = val, u

    if best_u is None:
        raise FitFailureError(
            f"all {options.n_starts} optimizer starts failed", diagnostics=diagnostics
        )

    config = KernelConfig(
        np.exp(best_u[:q]), spec, best_u[q:] if spec is not None else None,
        nugget=options.nugget, corr_nugget=options.corr_nugget,
    )
    return replace(refit_config(train, config), start_objectives=tuple(f0 for _, f0 in firsts))


def refit_config(train: TrainingSet, config: KernelConfig) -> GPFit:
    """Build a GPFit from known hyperparameters without optimizing.

    The one place a GPFit is built; :func:`fit` and :func:`load_fit` end
    here. Raises ``ParamArityError`` unless ``config`` has one lengthscale
    per continuous dimension, ``ParamDomainError`` when the family has a
    different number of levels than the training set's ``n_levels``, and
    ``IllConditionedError`` when R does not factor.
    """
    _check_config(train, config.family_spec, config.lengthscales.size)
    cat = config.cat_params
    nll, ok, mu, sigma2, L, r, _, P = _profile(
        train, config.lengthscales[None], config.family_spec, None if cat is None else cat[None],
        config.nugget, config.corr_nugget)
    if not ok[0]:
        raise IllConditionedError(_NOT_POSITIVE_DEFINITE)
    y_mean, y_std = train.y_mean, train.y_std
    alpha = dtrsm(1.0, L[0], r[0], lower=1, trans_a=1)
    level_table = (np.ones((train.n_levels, train.n)) if P is None
                   else P[0].take(train.levels - 1, axis=1))
    level_table.setflags(write=False)
    return GPFit(
        config=config,
        mu_hat=y_mean + y_std * float(mu[0]),
        sigma2_hat=y_std * y_std * float(sigma2[0]),
        neg_log_lik=float(nll[0]),
        chol_R=L[0],
        alpha=alpha,
        train=train,
        y_mean=y_mean,
        y_std=y_std,
        level_table=level_table,
    )


class _Query(NamedTuple):
    """The level-free part of a :func:`predict_batch` query, kept on the
    model: ``tables`` on a product grid, else ``columns``; the other is None."""

    X: np.ndarray         # a private copy of the query, row-major
    columns: list | None  # (unit column, training column, scale) per dimension
    tables: list | None   # (m_d, n) factors of each column's values, outermost first


def _rows(elements: int, n: int) -> int:
    """Rows of n entries within ``elements`` entries: a multiple of 8, at least 8."""
    return max(8, elements // n // 8 * 8)


def _product_grid(columns: np.ndarray, cap: int):
    """(column, its values in row order) per column, outermost first, if
    the rows of the (q, rows) array ``columns``, one query column per row,
    list a product grid in nested order whose tables, and the fold of the
    tables inside the outermost, have at most ``cap`` rows (see the module
    docstring), else None. The values are views of ``columns``; every
    value of a column equals one of them, and none is NaN."""
    rows = columns.shape[1]
    # each column's run of its first value (the rows for a constant one,
    # none under two rows); the others nest by their runs, each taking
    # m >= 2 values within a run of the column outside it, down to a run
    # of one row
    runs = [1 if x[1] != x[0] else int(np.argmax(x != x[0])) or rows
            for x in columns if rows > 1]
    nested = sorted((d for d, run in enumerate(runs) if run < rows), key=lambda d: -runs[d])
    periods = [rows] + [runs[d] for d in nested]
    sizes = [p // r for p, r in zip(periods, periods[1:])]
    # one column of distinct values is no grid (some column must repeat a value)
    if (periods[-1] != 1 or len(runs) < 2 or any(p % r for p, r in zip(periods, periods[1:]))
            or min(sizes) < 2 or max(sizes) > cap or rows // sizes[0] > cap):
        return None
    grid = []
    for d, run, m in zip(nested, periods[1:], sizes):
        x = columns[d]
        values = x[:m * run:run]
        ordered = np.sort(values)  # a repeated value has an equal neighbour
        if (ordered[1:] == ordered[:-1]).any() or (x.reshape(-1, m, run) != values[:, None]).any():
            return None
        grid.append((d, values))
    return grid + [(d, columns[d, :1]) for d, run in enumerate(runs) if run == rows]


def _level_free(fit: GPFit, X: np.ndarray, cap: int) -> _Query:
    """The checks and level-free parts of a query ``X`` of the right shape.

    Raises ``ParamDomainError`` for non-finite coordinates, and then for
    out-of-bounds ones. On a product grid only each column's pattern
    values are checked and mapped to unit coordinates: every value of the
    column is one of them.
    """
    train = fit.train
    key = X.copy()  # row-major, which np.array_equal reads fastest
    key.setflags(write=False)  # the caller may change its array, not this
    columns = X.T.copy()  # each column contiguous, for the rule and the checks
    grid = _product_grid(columns, cap)
    checked = columns if grid is None else [values for _, values in sorted(grid)]
    if not all(np.isfinite(x).all() for x in checked):
        raise ParamDomainError("query coordinates must be finite")
    if _outside(checked, train.bounds):
        raise ParamDomainError("query point outside the model's declared bounds")
    map_to_unit(checked, train.bounds)
    scales = SQRT5 / fit.config.lengthscales
    if grid is None:
        return _Query(key, list(zip(columns, train.X01.T, scales)), None)
    return _Query(key, None, [_matern_factor(values, train.X01[:, d], scales[d])
                              for d, values in grid])


def _grid_product(fit: GPFit, query: _Query, at: np.ndarray) -> np.ndarray:
    """r0 @ alpha at every row of a product grid, at the 0-based levels
    ``at``, one or one per row (see the module docstring)."""
    if at.size > 1:  # each row from its level's one-level product
        out = np.empty(at.size)
        for level in range(len(fit.level_table)):
            rows = np.flatnonzero(at == level)
            out[rows] = _grid_product(fit, query, np.array([level])).take(rows)
        return out
    folded = fit.level_table[at] * fit.alpha
    for table in reversed(query.tables[1:]):
        folded = (table[:, None] * folded).reshape(-1, folded.shape[1])
    return (query.tables[0] @ folded.T).reshape(-1)


def _block_product(fit: GPFit, query: _Query, at: np.ndarray, block: int) -> np.ndarray:
    """r0 @ alpha at every query row, at the 0-based levels ``at``, one or
    one per row, block by block (see the module docstring)."""
    rows = len(query.X)
    at = np.broadcast_to(at, (rows,))
    out = np.empty(rows)
    # numpy sends a one-row product to BLAS ddot, which sums in another
    # order than gemv does for the other rows: a lone last row joins the
    # block before it
    starts = range(0, max(rows - 1, 1), block)
    for start, stop in zip(starts, [*starts[1:], rows]):
        # the Matern factors in dimension order, then the level factor,
        # freed before the next block's are made (see the module docstring)
        factors = [*(_matern_factor(x[start:stop], x_train, scale)
                     for x, x_train, scale in query.columns),
                   fit.level_table.take(at[start:stop], axis=0)]
        np.matmul(functools.reduce(operator.imul, factors), fit.alpha, out=out[start:stop])
        del factors
    return out


def predict_batch(fit: GPFit, X, levels) -> np.ndarray:
    """Plug-in best linear unbiased prediction: mu + r0 @ alpha per query row.

    ``X`` is in problem units, one row of q coordinates per query (a
    1-D array is one row); ``levels`` is a scalar, or one level per row.
    Both convert by :func:`errors.as_numbers` (a float array ``X``
    without a copy). Raises ``ParamArityError`` for other shapes and for
    ragged lists, and ``ParamDomainError`` for what is no number (a
    bool, text, None or a complex number), for non-finite or
    out-of-bounds coordinates and for levels that are not integers in
    1..``n_levels``, the training set's level count (a family's ``s``).

    A product grid takes one matrix product, any other query blocks of
    rows (see the module docstring). A call with the model's last ``X``
    reuses its level-free part, with a fresh model's bits.
    """
    train = fit.train
    X = np.atleast_2d(as_numbers(X, "X"))
    if X.ndim != 2 or X.shape[1] != train.q:
        raise ParamArityError(f"X must have shape (rows, {train.q}), got {X.shape}")
    rows, n = X.shape[0], train.n
    levels = as_numbers(levels, "levels", integral=True)
    if levels.ndim > 1 or levels.size not in (1, rows):
        raise ParamArityError(f"levels must be a scalar or have {rows} entries, "
                              f"got shape {levels.shape}")
    query = fit._query
    if query is None or not np.array_equal(X, query.X):
        # the last query's part is freed before this one's is built, and
        # this one's is published complete: a concurrent call reads
        # either a finished query or none
        del query
        object.__setattr__(fit, "_query", None)
        query = _level_free(fit, X, _rows(_GRID_ELEMENTS, n))
        object.__setattr__(fit, "_query", query)
    # item() reads a lone level in well under a microsecond; rows = 0 may name none
    low, high = ((levels.item(),) * 2 if levels.size == 1
                 else (levels.min(initial=1), levels.max(initial=1)))
    if low < 1 or high > train.n_levels:
        raise ParamDomainError(f"query level outside 1..{train.n_levels}")
    at = levels.reshape(-1) - 1
    if query.tables is None:
        # a lone last row joins the block before it, so a block leaves one row spare
        out = _block_product(fit, query, at, _rows(_STACK_ELEMENTS - n, n))
    else:
        out = _grid_product(fit, query, at)
    out += fit.mu_z
    out *= fit.y_std
    out += fit.y_mean
    return out


# ---------------------------------------------------------------------------
# model persistence

def save_fit(fit: GPFit, path) -> None:
    """Write a fitted model as self-describing JSON.

    Stores bounds, family spec, parameters and training data; loading
    recomputes the factorizations from the same numbers, so predictions
    round-trip bit-for-bit under identical arithmetic.
    """
    spec = fit.config.family_spec
    doc = {
        "format": "mixedgp-fit",
        "version": 1,
        "bounds": fit.train.bounds.tolist(),
        "n_levels": fit.train.n_levels,
        "family": None if spec is None else spec.family,
        "s": None if spec is None else spec.s,
        "rank": None if spec is None else spec.rank,
        "cat_params": None
        if fit.config.cat_params is None
        else fit.config.cat_params.tolist(),
        "lengthscales": fit.config.lengthscales.tolist(),
        "nugget": fit.config.nugget,
        "corr_nugget": fit.config.corr_nugget,
        "mu_hat": fit.mu_hat,
        "sigma2_hat": fit.sigma2_hat,
        "neg_log_lik": fit.neg_log_lik,
        "train_X": fit.train.X.tolist(),
        "train_levels": fit.train.levels.tolist(),
        "train_y": fit.train.y.tolist(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)


_FIT_KEYS = ("bounds", "n_levels", "family", "s", "rank", "cat_params", "lengthscales",
             "nugget", "corr_nugget", "train_X", "train_levels", "train_y")


def _integer(value):
    """``value``, an integer."""
    if not whole(value):
        raise TypeError(f"must be an integer, got {value!r}")
    return value


def load_fit(path) -> GPFit:
    """Reconstruct a fitted model saved by :func:`save_fit`.

    A fit file is UTF-8 JSON. Its arrays and ``n_levels`` convert by
    :func:`errors.as_numbers`, the rule of the API, so they hold JSON
    numbers (not strings such as "1.5", nor true or false; null only
    for a continuous-only model's ``cat_params``), and its levels and
    ``n_levels`` integers (2.0 is 2, as in the API); ``s`` and ``rank``
    are JSON integers. Loading rebuilds the
    training set and recomputes the factorization, the GLS mean, the
    variance and the likelihood from the stored parameters and data; the
    stored ``mu_hat``, ``sigma2_hat`` and ``neg_log_lik`` are not read.

    Raises ``ParamDomainError`` for a file that is not UTF-8, not valid
    JSON, not a version-1 mixedgp fit, lacks a field the model is rebuilt
    from, has a field of the wrong type, or a family or nugget that is not
    valid (the error names the file, and the field if there is one); the
    model's own checks apply to the other values.
    """
    try:
        with open(path, "rb", buffering=0) as fh:
            doc = json.loads(fh.read().decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ParamDomainError(f"{path}: not UTF-8 ({exc})") from None
    except json.JSONDecodeError as exc:
        raise ParamDomainError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(doc, dict) or (doc.get("format"), doc.get("version")) != ("mixedgp-fit", 1):
        raise ParamDomainError(f"{path}: not a version-1 mixedgp fit file")
    missing = [key for key in _FIT_KEYS if key not in doc]
    if missing:
        raise ParamDomainError(f"{path}: missing fields {', '.join(missing)}")

    def read(key, convert, *args, null=False, **kwargs):
        """``convert`` of field ``key`` and ``args``; None for null where ``null`` allows it."""
        if null and doc[key] is None:
            return None
        try:
            return convert(doc[key], *args, **kwargs)
        except (TypeError, ValueError, OverflowError) as exc:  # ParamDomainError included
            raise ParamDomainError(f"{path}: field {key}: {exc}") from None

    train = TrainingSet(
        read("train_X", as_numbers, "X"),
        read("train_levels", as_numbers, "levels", integral=True),
        read("train_y", as_numbers, "y"),
        bounds=read("bounds", as_numbers, "bounds"),
        n_levels=read("n_levels", as_numbers, "n_levels", integral=True),
    )
    s, rank = read("s", _integer, null=True), read("rank", _integer, null=True)
    config = KernelConfig(
        read("lengthscales", as_numbers, "lengthscales"),
        read("family", lambda family: FamilySpec(family, s, rank), null=True),
        read("cat_params", as_numbers, "cat_params", null=True),
        nugget=read("nugget", functools.partial(check_nugget, "nugget", zero=True)),
        corr_nugget=read("corr_nugget", functools.partial(check_nugget, "corr_nugget")),
    )
    return refit_config(train, config)
