"""Space-filling designs for mixed inputs.

``lhd`` draws a plain Latin hypercube; ``cslhd`` draws a clustered
sliced Latin hypercube with n points per slice over s slices:

* the full N = n*s points form an LHD on N fine bins per dimension,
* each slice collapses to an LHD on n coarse bins per dimension,
* the s points of a cluster share the same coarse bin in every
  dimension, so cluster mates differ by less than 1/n per coordinate.

Construction: per dimension, a random permutation assigns coarse bins
to clusters; within each cluster's coarse bin a random bijection
assigns the s fine sub-bins to the slices; positions are jittered
uniformly within fine bins (or centered with ``centered=True``).
"""

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
        X = np.asarray(self.X, dtype=float)
        levels = np.asarray(self.levels, dtype=int)
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
        a = np.asarray(self.assignment, dtype=int)
        a.setflags(write=False)
        object.__setattr__(self, "assignment", a)


def lhd(n: int, q: int, seed: int, centered: bool = False) -> Design:
    """Latin hypercube: one point per bin [k/n, (k+1)/n) per dimension."""
    if not (whole(n) and whole(q)) or n < 1 or q < 1:
        raise ParamDomainError(f"lhd needs integers n >= 1 and q >= 1, got n={n!r}, q={q!r}")
    rng = np.random.default_rng(seed)
    X = np.empty((n, q))
    for d in range(q):
        bins = rng.permutation(n)
        X[:, d] = bins
    jitter = np.full((n, q), 0.5) if centered else rng.random((n, q))
    X = (X + jitter) / n
    return Design(X, np.ones(n, dtype=int), n, 1, q, seed)


def cslhd(n: int, s: int, q: int, seed: int, centered: bool = False):
    """Clustered sliced Latin hypercube; returns (Design, ClusterMap).

    Points are ordered slice-major: rows [t*n : (t+1)*n] carry level
    t+1, and within a slice row k belongs to cluster k+1.
    """
    for name, value, least in (("n", n, 1), ("s", s, 2), ("q", q, 1)):
        if not whole(value) or value < least:
            raise ParamDomainError(f"cslhd needs an integer {name} >= {least}, got {value!r}")
    rng = np.random.default_rng(seed)
    N = n * s
    fine = np.empty((N, q), dtype=int)
    for d in range(q):
        coarse_of_cluster = rng.permutation(n)
        for k in range(n):
            sub = rng.permutation(s)
            for t in range(s):
                fine[t * n + k, d] = coarse_of_cluster[k] * s + sub[t]
    jitter = np.full((N, q), 0.5) if centered else rng.random((N, q))
    X = (fine + jitter) / N
    levels = np.repeat(np.arange(1, s + 1), n)
    clusters = np.tile(np.arange(1, n + 1), s)
    return Design(X, levels, n, s, q, seed), ClusterMap(clusters)


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


def validate_design(X: np.ndarray, levels: np.ndarray) -> ClusterMap:
    """Check all structural properties; raise on the first violation.

    Checks, in order: level counts, coordinate range, full-design LHD
    on N fine bins, per-slice LHD on n coarse bins after collapsing,
    and the cluster structure (coarse-bin signatures contain one point
    per slice). Returns the recovered cluster map.
    """
    X = np.asarray(X, dtype=float)
    levels = np.asarray(levels, dtype=int)
    N, q = X.shape
    uniq = np.unique(levels)
    s = uniq.size
    if not np.array_equal(uniq, np.arange(1, s + 1)):
        raise DesignValidationError(
            f"level counts violated: levels must be 1..s, found {uniq.tolist()}",
            violated="level counts",
        )
    counts = np.bincount(levels, minlength=s + 1)[1:]
    if not np.all(counts == counts[0]):
        raise DesignValidationError(
            f"level counts violated: unequal slice sizes {counts.tolist()}",
            violated="level counts",
        )
    n = int(counts[0])
    if np.any(X < 0.0) or np.any(X >= 1.0):
        raise DesignValidationError(
            "coordinate range violated: coordinates must lie in [0, 1)",
            violated="coordinate range",
        )
    fine = np.floor(X * N).astype(int)
    for d in range(q):
        if not np.array_equal(np.sort(fine[:, d]), np.arange(N)):
            raise DesignValidationError(
                f"full-design Latin hypercube violated in dimension {d + 1}",
                violated="full-design Latin hypercube",
            )
    coarse = fine // s
    for lv in range(1, s + 1):
        m = levels == lv
        for d in range(q):
            if not np.array_equal(np.sort(coarse[m, d]), np.arange(n)):
                raise DesignValidationError(
                    f"per-slice Latin hypercube violated for slice {lv}, dimension {d + 1}",
                    violated="per-slice Latin hypercube",
                )
    signatures = {}
    assignment = np.zeros(N, dtype=int)
    for i in range(N):
        sig = tuple(coarse[i])
        signatures.setdefault(sig, []).append(i)
    if len(signatures) != n:
        raise DesignValidationError(
            f"cluster structure violated: expected {n} clusters, found {len(signatures)}",
            violated="cluster structure",
        )
    for k, (sig, members) in enumerate(sorted(signatures.items()), start=1):
        got = sorted(int(levels[i]) for i in members)
        if got != list(range(1, s + 1)):
            raise DesignValidationError(
                f"cluster structure violated: coarse bin {sig} holds slices {got}",
                violated="cluster structure",
            )
        for i in members:
            assignment[i] = k
    return ClusterMap(assignment)


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
        raise DesignValidationError(
            "column structure violated: missing 'slice' header column",
            violated="column structure",
        )
    header = rows[0]
    q = sum(1 for name in header if name.startswith("x"))
    if q == 0 or header[1 : 1 + q] != [f"x{d + 1}" for d in range(q)]:
        raise DesignValidationError(
            "column structure violated: expected columns x1..xq after 'slice'",
            violated="column structure",
        )
    try:
        levels = np.array([int(r[0]) for r in rows[1:]], dtype=int)
        X = np.array([[float(v) for v in r[1 : 1 + q]] for r in rows[1:]], dtype=float)
    except ValueError as exc:
        raise DesignValidationError(
            f"column structure violated: non-numeric cell ({exc})",
            violated="column structure",
        ) from None
    clusters = validate_design(X, levels)
    s = int(levels.max())
    design = Design(X, levels, X.shape[0] // s, s, q)
    return design, clusters
