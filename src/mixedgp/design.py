"""Space-filling designs for mixed inputs.

One construction draws both designs: ``cslhd`` a clustered sliced
Latin hypercube with n points per slice over s slices, and ``lhd`` a
plain Latin hypercube, its s = 1 case:

* the full N = n*s points form an LHD on N fine bins per dimension,
* each slice collapses to an LHD on n coarse bins per dimension,
* the s points of a cluster share the same coarse bin in every
  dimension, so cluster mates differ by less than 1/n per coordinate.

Construction: per dimension, a random permutation assigns coarse bins
to clusters; within each cluster's coarse bin a random bijection
assigns the s fine sub-bins to the slices, all n bijections drawn by
one ``rng.permuted`` call, which takes them from the stream as n calls
of ``rng.permutation(s)`` do (and ``permutation(1)`` draws nothing);
positions are jittered uniformly within fine bins (or centered with
``centered=True``)."""

import csv
from dataclasses import dataclass

import numpy as np

from .errors import DesignValidationError, ParamArityError, ParamDomainError, as_numbers, whole

@dataclass(frozen=True)
class Design:
    """A slice-structured design with normalized coordinates in [0, 1).

    ``bounds`` is attached by :func:`scale_to_bounds`; coordinates stay
    stored normalized, with problem units available via
    :meth:`problem_coords`.
    """

    X: np.ndarray
    levels: np.ndarray
    n_per_slice: int
    s: int
    q: int
    seed: int | None = None
    bounds: np.ndarray | None = None

    def __post_init__(self):
        # private read-only copies, read by the one number rule
        X = as_numbers(self.X, "X", copy=True)
        levels = as_numbers(self.levels, "levels", integral=True)
        X.setflags(write=False)
        levels.setflags(write=False)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "levels", levels)

    @property
    def n_total(self) -> int:
        return self.X.shape[0]

    def problem_coords(self) -> np.ndarray:
        if self.bounds is None:
            return self.X.copy()
        return to_problem_coords(self.X, self.bounds)


@dataclass(frozen=True)
class ClusterMap:
    """Point index -> cluster index in 1..n; clusters have one point per slice."""

    assignment: np.ndarray

    def __post_init__(self):
        a = as_numbers(self.assignment, "assignment", integral=True)
        a.setflags(write=False)
        object.__setattr__(self, "assignment", a)


def _sliced_lhd(n: int, s: int, q: int, seed: int, centered: bool) -> Design:
    """The design of the module docstring, rows slice-major: row t*n + k is
    cluster k + 1 of slice t + 1."""
    rng = np.random.default_rng(seed)
    N = n * s
    fine = np.empty((N, q), dtype=int)
    for d in range(q):
        coarse = rng.permutation(n)
        sub = rng.permuted(np.tile(np.arange(s), (n, 1)), axis=1)  # row k: cluster k's bijection
        fine[:, d] = (coarse[:, None] * s + sub).T.ravel()
    jitter = np.full((N, q), 0.5) if centered else rng.random((N, q))
    return Design((fine + jitter) / N, np.repeat(np.arange(1, s + 1), n), n, s, q, seed)


def lhd(n: int, q: int, seed: int, centered: bool = False) -> Design:
    """Latin hypercube: one point per bin [k/n, (k+1)/n) per dimension."""
    if not (whole(n) and whole(q)) or n < 1 or q < 1:
        raise ParamDomainError(f"lhd needs integers n >= 1 and q >= 1, got n={n!r}, q={q!r}")
    return _sliced_lhd(n, 1, q, seed, centered)


def cslhd(n: int, s: int, q: int, seed: int, centered: bool = False):
    """Clustered sliced Latin hypercube; returns (Design, ClusterMap).

    Points are ordered slice-major: rows [t*n : (t+1)*n] carry level
    t+1, and within a slice row k belongs to cluster k+1.
    """
    for name, value, least in (("n", n, 1), ("s", s, 2), ("q", q, 1)):
        if not whole(value) or value < least:
            raise ParamDomainError(f"cslhd needs an integer {name} >= {least}, got {value!r}")
    return _sliced_lhd(n, s, q, seed, centered), ClusterMap(np.tile(np.arange(1, n + 1), s))


def to_problem_coords(X01: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    bounds = np.asarray(bounds, dtype=float)
    return bounds[:, 0] + np.asarray(X01) * (bounds[:, 1] - bounds[:, 0])


def map_to_unit(columns, bounds) -> None:
    """Map each coordinate column ``columns[d]`` to [0, 1] by ``bounds[d]``, in place.

    ``columns`` holds one float array per dimension, each ``x -= lo_d;
    x /= hi_d - lo_d`` with scalar operands: numpy would subtract a
    length-q row of bounds from a (rows, q) array in a length-q inner
    loop per row, several times slower.
    """
    for x, (lo, hi) in zip(columns, np.asarray(bounds, dtype=float).tolist()):
        x -= lo
        x /= hi - lo


def to_unit_coords(X: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """The (rows, q) coordinates ``X`` mapped to [0, 1] per dimension by ``bounds``.

    Returns a (rows, q) view of a C-contiguous (q, rows) array, so each
    column is contiguous, mapped by :func:`map_to_unit`.
    """
    X01 = np.asarray(X, dtype=float).T.copy()
    map_to_unit(X01, bounds)
    return X01.T


def check_bounds(bounds, q: int) -> np.ndarray:
    """``bounds`` as a read-only (q, 2) float array of (lower, upper) per dimension.

    Raises ``ParamArityError`` unless ``bounds`` is q pairs of real
    numbers by :func:`errors.as_numbers` (a flat list of 2q numbers, a
    ragged list, and booleans, text or complex numbers are not), and
    ``ParamDomainError`` unless every bound is finite with lower < upper.
    """
    try:
        checked = as_numbers(bounds, "bounds", copy=True)
    except (ParamArityError, ParamDomainError):  # a ragged list, or not real numbers
        checked = None
    if checked is None or checked.shape != (q, 2):
        raise ParamArityError(f"bounds must be {q} (lower, upper) pairs, got {bounds!r}")
    if not np.isfinite(checked).all():
        raise ParamDomainError("bounds must be finite")
    if any(lo >= hi for lo, hi in checked.tolist()):
        raise ParamDomainError("bounds must satisfy lower < upper per dimension")
    checked.setflags(write=False)
    return checked


def scale_to_bounds(design: Design, bounds) -> Design:
    """Attach problem-coordinate bounds to a design.

    Bounds are checked by :func:`check_bounds`. The affine map and its
    inverse are exact to floating-point roundoff.
    """
    return Design(
        design.X, design.levels, design.n_per_slice, design.s, design.q,
        design.seed, check_bounds(bounds, design.q),
    )


def _violation(prop: str, detail: str) -> DesignValidationError:
    return DesignValidationError(f"{prop} violated{detail}", violated=prop)


def validate_design(X: np.ndarray, levels: np.ndarray) -> ClusterMap:
    """Check all structural properties; raise on the first violation.

    Checks, in order: level counts, coordinate range, full-design LHD
    on N fine bins (naming the first failing dimension), per-slice LHD
    on n coarse bins after collapsing (the first failing slice, and
    its first failing dimension), and the cluster structure: exactly n
    distinct coarse-bin signatures. That suffices: each slice, an LHD
    on the n coarse bins, has n distinct signatures, so if the design
    has only n, each holds exactly one point of every slice. Returns
    the cluster map that numbers the signatures in lexicographic order.
    ``X`` and ``levels`` are read by :func:`errors.as_numbers`, levels
    as integers.
    """
    X = as_numbers(X, "X")
    levels = as_numbers(levels, "levels", integral=True)
    if X.ndim != 2 or levels.shape != X.shape[:1]:
        raise ParamArityError(f"X must have shape (N, q) and levels (N,), got {X.shape} "
                              f"and {levels.shape}")
    N, q = X.shape
    uniq = np.unique(levels)
    s = uniq.size
    if not np.array_equal(uniq, np.arange(1, s + 1)):
        raise _violation("level counts", f": levels must be 1..s, found {uniq.tolist()}")
    counts = np.bincount(levels, minlength=s + 1)[1:]
    if not np.all(counts == counts[0]):
        raise _violation("level counts", f": unequal slice sizes {counts.tolist()}")
    n = int(counts[0])
    if np.any(X < 0.0) or np.any(X >= 1.0):
        raise _violation("coordinate range", ": coordinates must lie in [0, 1)")
    fine = np.floor(X * N).astype(int)
    bad = np.any(np.sort(fine, axis=0) != np.arange(N)[:, None], axis=0)
    if bad.any():
        raise _violation("full-design Latin hypercube", f" in dimension {bad.argmax() + 1}")
    coarse = fine // s
    # (slice, coarse bin, dimension), each slice's bins sorted
    per_slice = np.sort(coarse[np.argsort(levels)].reshape(s, n, q), axis=1)
    bad = np.any(per_slice != np.arange(n)[:, None], axis=1)
    if bad.any():
        slice_, d = np.argwhere(bad)[0]  # the first in slice-major order
        raise _violation("per-slice Latin hypercube",
                         f" for slice {slice_ + 1}, dimension {d + 1}")
    signatures, cluster = np.unique(coarse, axis=0, return_inverse=True)
    if len(signatures) != n:
        raise _violation("cluster structure",
                         f": expected {n} clusters, found {len(signatures)}")
    return ClusterMap(cluster + 1)


def to_csv(design: Design, path) -> None:
    """Write columns slice, x1..xq (normalized) and, when bounds are
    attached, problem-coordinate columns px1..pxq."""
    header = ["slice"] + [f"x{d + 1}" for d in range(design.q)]
    scaled = None
    if design.bounds is not None:
        header += [f"px{d + 1}" for d in range(design.q)]
        scaled = design.problem_coords()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(design.n_total):
            row = [int(design.levels[i])] + [repr(float(v)) for v in design.X[i]]
            if scaled is not None:
                row += [repr(float(v)) for v in scaled[i]]
            writer.writerow(row)


def from_csv(path):
    """Read a design written by :func:`to_csv`, validating all properties.

    Returns (Design, ClusterMap). Raises ``DesignValidationError``
    naming the first violated property.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        rows = [r for r in reader if r]
    if not rows or rows[0][0] != "slice":
        raise _violation("column structure", ": missing 'slice' header column")
    header = rows[0]
    q = sum(1 for name in header if name.startswith("x"))
    if q == 0 or header[1 : 1 + q] != [f"x{d + 1}" for d in range(q)]:
        raise _violation("column structure", ": expected columns x1..xq after 'slice'")
    if len(rows) == 1:
        raise _violation("column structure", ": no rows below the header")
    try:
        levels = np.array([int(r[0]) for r in rows[1:]], dtype=int)
        X = np.array([[float(v) for v in r[1 : 1 + q]] for r in rows[1:]], dtype=float)
    except ValueError as exc:
        raise _violation("column structure", f": non-numeric cell ({exc})") from None
    clusters = validate_design(X, levels)
    s = int(levels.max())
    design = Design(X, levels, X.shape[0] // s, s, q)
    return design, clusters
