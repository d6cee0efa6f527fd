"""Mixed-input benchmark functions built by slicing continuous ones.

The first dimension of a continuous test function is discretized at s
positions, turning it into a categorical input. Positions are
equidistant between the bounds, then the position closest to the
global optimum is exchanged for the optimum's coordinate so the sliced
function keeps the original optimum. Selected slices can be "upended"
(smoothly reflected around their maximum) to inject negative
cross-correlations while the global optimum stays in a non-upended
slice.
"""

import warnings
from dataclasses import dataclass, field
from functools import cache, lru_cache
from types import MappingProxyType

import numpy as np
from scipy.optimize import minimize_scalar

from .design import check_bounds
from .errors import ParamArityError, ParamDomainError, whole

UPEND_RATE = 0.5  # exponential cdf rate in the reflection smoothing
_SLICE_MAX_RESOLUTION = 100  # _slice_max's grid points per non-sliced dimension
_SLICE_MAX_TOP_CELLS = 5  # grid cells its coordinate descent starts from


@dataclass(frozen=True)
class ContinuousFunction:
    """A continuous test function with known bounds and global minimum."""

    name: str
    d: int
    bounds: np.ndarray
    evaluate: callable
    global_opt_pos: np.ndarray
    global_opt_val: float

    def __post_init__(self):
        bounds = check_bounds(self.bounds, self.d)
        pos = np.asarray(self.global_opt_pos, dtype=float).ravel()
        object.__setattr__(self, "bounds", bounds)
        object.__setattr__(self, "global_opt_pos", pos)
        if np.any(pos < bounds[:, 0]) or np.any(pos > bounds[:, 1]):
            raise ParamDomainError(f"{self.name}: optimum outside bounds")
        val = float(self.evaluate(pos[None, :])[0])
        if abs(val - self.global_opt_val) > 1e-9:
            raise ParamDomainError(
                f"{self.name}: evaluate(optimum) = {val}, expected {self.global_opt_val}"
            )


def ackley(X: np.ndarray) -> np.ndarray:
    X = np.atleast_2d(X)
    radial = np.sqrt((X**2).mean(axis=1))
    return (
        -20.0 * np.exp(-0.2 * radial)
        - np.exp(np.cos(2.0 * np.pi * X).mean(axis=1))
        + 20.0
        + np.e
    )


def alpine1(X: np.ndarray) -> np.ndarray:
    X = np.atleast_2d(X)
    return np.abs(X * np.sin(X) + 0.1 * X).sum(axis=1)


def deflected_corrugated_spring(X: np.ndarray) -> np.ndarray:
    # center alpha=5, wave number K=5; minimum -1 at (5, ..., 5)
    X = np.atleast_2d(X)
    sq = ((X - 5.0) ** 2).sum(axis=1)
    return 0.1 * sq - np.cos(5.0 * np.sqrt(sq))


def double_sum(X: np.ndarray) -> np.ndarray:
    X = np.atleast_2d(X)
    return (np.cumsum(X, axis=1) ** 2).sum(axis=1)


@cache
def standard_functions() -> MappingProxyType:
    """The four three-dimensional benchmark functions, keyed by id: one
    read-only mapping, built once per process."""
    cube = lambda l, u: [(l, u)] * 3
    return MappingProxyType({
        "ackley": ContinuousFunction(
            "ackley", 3, cube(-32.77, 32.77), ackley, np.zeros(3), 0.0
        ),
        "alpine1": ContinuousFunction(
            "alpine1", 3, cube(-10.0, 10.0), alpine1, np.zeros(3), 0.0
        ),
        "dcs": ContinuousFunction(
            "dcs", 3, cube(0.0, 10.0), deflected_corrugated_spring,
            np.full(3, 5.0), -1.0,
        ),
        "doublesum": ContinuousFunction(
            "doublesum", 3, cube(-65.54, 65.54), double_sum, np.zeros(3), 0.0
        ),
    })


def get_function(name: str) -> ContinuousFunction:
    registry = standard_functions()
    if name not in registry:
        raise ParamDomainError(
            f"unknown test function {name!r}; known: {sorted(registry)}"
        )
    return registry[name]


def slice_positions(l: float, u: float, s: int) -> np.ndarray:
    """Equidistant positions pos_i = l + (i-1)(u-l)/(s-1), i = 1..s."""
    if not whole(s) or s < 2:
        raise ParamDomainError(f"need an integer number of slices s >= 2, got s={s!r}")
    if not l < u:
        raise ParamDomainError(f"need l < u, got ({l}, {u})")
    i = np.arange(1, s + 1)
    return l + (i - 1) * (u - l) / (s - 1)


def swap_optimum(positions: np.ndarray, opt_coord: float) -> np.ndarray:
    """Exchange the position closest to the optimum for the optimum.

    On a two-way distance tie, the lower of the two positions is
    replaced.
    """
    positions = np.asarray(positions, dtype=float)
    if not positions.min() <= opt_coord <= positions.max():
        raise ParamDomainError(
            f"optimum coordinate {opt_coord} outside the positions' span"
        )
    dist = np.abs(positions - opt_coord)
    ties = np.where(dist <= dist.min() + 1e-12)[0]
    idx = ties[np.argmin(positions[ties])]
    out = positions.copy()
    out[idx] = opt_coord
    return out


@dataclass(frozen=True)
class SlicedFunction:
    """A continuous function with its first dimension pinned to s positions.

    ``upended`` slices (1-based indices) return the smoothed reflection
    of the original values; their maxima ``y_max_hat`` are estimated at
    construction time. Slice 1-based index i evaluates the base
    function with its first coordinate at positions[i-1].
    """

    fid: str
    base: ContinuousFunction
    positions: np.ndarray
    upended: frozenset = frozenset()
    y_max_hat: dict = field(default_factory=dict)

    def __post_init__(self):
        positions = np.asarray(self.positions, dtype=float)
        positions.setflags(write=False)
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "upended", frozenset(self.upended))
        l, u = self.base.bounds[0]
        if np.any(positions < l) or np.any(positions > u):
            raise ParamDomainError("slice positions outside the sliced dimension's bounds")
        opt = self.opt_slice
        if opt in self.upended:
            raise ParamDomainError(
                f"cannot upend slice {opt}: it contains the global optimum"
            )
        for i in self.upended:
            if i not in self.y_max_hat:
                raise ParamDomainError(f"missing slice-max estimate for upended slice {i}")

    @property
    def s(self) -> int:
        return self.positions.size

    @property
    def opt_slice(self) -> int:
        """1-based index of the slice holding the global optimum."""
        opt = self.base.global_opt_pos[0]
        matches = np.where(self.positions == opt)[0]
        if matches.size != 1:
            raise ParamDomainError(
                "exactly one slice position must equal the optimum coordinate"
            )
        return int(matches[0]) + 1

    @property
    def rest_bounds(self) -> np.ndarray:
        return self.base.bounds[1:].copy()


def base_slice_values(fn: SlicedFunction, slice_idx: int, x_rest) -> np.ndarray:
    """Original (never upended) values of one slice, ``slice_idx`` in 1..s."""
    if not (whole(slice_idx) and 1 <= slice_idx <= fn.s):
        raise ParamDomainError(f"slice index must be an integer in 1..{fn.s}, got {slice_idx!r}")
    pts = np.insert(np.atleast_2d(x_rest), 0, fn.positions[slice_idx - 1], axis=1)
    return fn.base.evaluate(pts)


def upend_values(values: np.ndarray, y_max_hat: float, y_star: float) -> np.ndarray:
    """Smoothed reflection: y* + z (1 - exp(-z/2)) + y_max_hat / 10.

    z is the gap to the slice maximum; multiplying by the exponential
    cdf keeps the result nonnegative even when the max was slightly
    underestimated, and the final offset keeps the original optimum
    strictly below every reflected value.
    """
    z = y_max_hat - np.asarray(values, dtype=float)
    return y_star + z * (1.0 - np.exp(-UPEND_RATE * z)) + y_max_hat / 10.0


def eval_sliced_batch(fn: SlicedFunction, slice_idx: int, x_rest) -> np.ndarray:
    """Vectorized slice evaluation with upending applied."""
    vals = base_slice_values(fn, slice_idx, x_rest)
    if slice_idx in fn.upended:
        return upend_values(vals, fn.y_max_hat[slice_idx], fn.base.global_opt_val)
    return vals


def _slice_max(base: ContinuousFunction, position: float) -> float:
    """Maximum of one slice: dense grid plus coordinate-descent refinement.

    Each coordinate update does an exact line search (dense scan over a
    window of a few grid cells, then a bounded scalar polish), which
    lets the search walk across oscillation ridges that alias on the
    base grid. Refinement is repeated from the best few grid cells. The
    returned value is attained by the function, so it never exceeds the
    true maximum.
    """
    grids = [np.linspace(lo, hi, _SLICE_MAX_RESOLUTION) for lo, hi in base.bounds[1:]]
    mesh = np.meshgrid(*grids, indexing="ij")
    rest_pts = np.column_stack([m.ravel() for m in mesh])
    vals = base.evaluate(np.insert(rest_pts, 0, position, axis=1))
    order = np.argsort(vals)[::-1][:_SLICE_MAX_TOP_CELLS]

    def value_at(x_rest):
        return float(base.evaluate(np.insert(x_rest[None, :], 0, position, axis=1))[0])

    best = float(vals[order[0]])
    for idx in order:
        x = rest_pts[idx].copy()
        current = float(vals[idx])
        for _ in range(100):
            before = current
            for j, (lo_d, hi_d) in enumerate(base.bounds[1:]):
                h = (hi_d - lo_d) / (_SLICE_MAX_RESOLUTION - 1)
                lo = max(lo_d, x[j] - 2.5 * h)
                hi = min(hi_d, x[j] + 2.5 * h)
                ts = np.linspace(lo, hi, 256)
                scan = np.tile(x, (ts.size, 1))
                scan[:, j] = ts
                fv = base.evaluate(np.insert(scan, 0, position, axis=1))
                k = int(np.argmax(fv))
                res = minimize_scalar(
                    lambda t: -value_at(np.r_[x[:j], t, x[j + 1 :]]),
                    bounds=(ts[max(0, k - 1)], ts[min(ts.size - 1, k + 1)]),
                    method="bounded",
                    options={"xatol": 1e-11},
                )
                cand_t, cand_v = (
                    (float(res.x), -float(res.fun))
                    if -res.fun >= fv[k]
                    else (float(ts[k]), float(fv[k]))
                )
                if cand_v > current:
                    current = cand_v
                    x[j] = cand_t
            if current - before < 1e-9:
                break
        best = max(best, current)
    return best


def make_sliced(base: ContinuousFunction, s: int, upend=()) -> SlicedFunction:
    """Slice ``base`` in its first dimension into s levels, estimating the
    maxima of the ``upend`` slices; the id is ``<name>_s<s>[_up<slices>]``."""
    l, u = base.bounds[0]
    positions = swap_optimum(slice_positions(l, u, s), base.global_opt_pos[0])
    upend = tuple(upend)
    for i in upend:
        if not whole(i) or not 1 <= i <= s:
            raise ParamDomainError(f"upended slice index {i!r} is not an integer in 1..{s}")
    upend = frozenset(map(int, upend))
    y_max = {i: _slice_max(base, positions[i - 1]) for i in sorted(upend)}
    return SlicedFunction(function_id(base.name, s, upend), base, positions, upend, y_max)


def function_id(name: str, s: int, upend=()) -> str:
    """The id ``<name>_s<s>[_up<slices>]``, the upended slices in increasing order."""
    fid = f"{name}_s{s}"
    if upend:
        fid += "_up" + "".join(str(i) for i in sorted(upend))
    return fid


@dataclass(frozen=True)
class CrossCorrEstimate:
    """Pairwise Pearson correlations of slice values on a shared grid.

    Entries for zero-variance slices are NaN (excluded downstream).
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


def empirical_cross_corr(fn: SlicedFunction, resolution: int = 100) -> CrossCorrEstimate:
    """Empirical cross-correlations on a resolution^2 grid.

    The function must have exactly two non-sliced dimensions; all
    slices are evaluated at the same grid spanning the whole domain.
    """
    if fn.base.d - 1 != 2:
        raise ParamArityError(
            "empirical cross-correlation needs exactly 2 non-sliced dimensions, "
            f"got {fn.base.d - 1}"
        )
    if not whole(resolution) or resolution < 2:
        raise ParamDomainError(f"grid resolution must be an integer >= 2, got {resolution!r}")
    rb = fn.rest_bounds
    g1 = np.linspace(rb[0, 0], rb[0, 1], resolution)
    g2 = np.linspace(rb[1, 0], rb[1, 1], resolution)
    A, B = np.meshgrid(g1, g2, indexing="ij")
    rest = np.column_stack([A.ravel(), B.ravel()])
    values = np.array([eval_sliced_batch(fn, i, rest) for i in range(1, fn.s + 1)])
    std = values.std(axis=1)
    degenerate = np.where(std == 0.0)[0]
    if degenerate.size:
        warnings.warn(
            f"{fn.fid}: slice(s) {[int(i) + 1 for i in degenerate]} have zero variance; "
            "their correlations are undefined",
            stacklevel=2,
        )
    matrix = np.eye(fn.s)
    centered = values - values.mean(axis=1, keepdims=True)
    for i in range(fn.s):
        for j in range(i + 1, fn.s):
            if std[i] == 0.0 or std[j] == 0.0:
                matrix[i, j] = matrix[j, i] = np.nan
            else:
                r = float((centered[i] @ centered[j]) / (values.shape[1] * std[i] * std[j]))
                matrix[i, j] = matrix[j, i] = min(1.0, max(-1.0, r))
    return CrossCorrEstimate(matrix)


_SUITE_UPENDS = {4: (1, 3), 6: (1, 2, 4)}


def testbed_ids() -> list[str]:
    """Identifiers of the 14 benchmark functions (no construction cost)."""
    out = []
    for s in (4, 6):
        for name in ("ackley", "alpine1", "dcs", "doublesum"):
            out.append(f"{name}_s{s}")
        for name in ("ackley", "alpine1", "dcs"):
            out.append(function_id(name, s, _SUITE_UPENDS[s]))
    return out


def parse_fid(fid: str) -> tuple[str, int, tuple[int, ...]]:
    """Split an identifier like ``ackley_s4_up13`` into its parts.

    Raises ``ParamDomainError`` for an id the testbed cannot build: a
    bad form, an unknown function, fewer than 2 slices, or an upended
    slice outside 1..s; and for an id other than the function's own
    (:func:`function_id`), such as ``ackley_s4_up31`` or ``ackley_s04``,
    so that one function has one id in every record.
    """
    parts = fid.split("_")
    upend: tuple[int, ...] = ()
    if parts and parts[-1].startswith("up"):
        digits = parts[-1][2:]
        if not digits.isdecimal():
            raise ParamDomainError(f"bad upend suffix in function id {fid!r}")
        upend = tuple(int(ch) for ch in digits)
        parts = parts[:-1]
    if len(parts) < 2 or not parts[-1].startswith("s") or not parts[-1][1:].isdecimal():
        raise ParamDomainError(f"bad function id {fid!r}; expected <name>_s<levels>[_up<slices>]")
    s = int(parts[-1][1:])
    name = "_".join(parts[:-1])
    if name not in standard_functions():
        raise ParamDomainError(f"unknown test function {name!r} in id {fid!r}")
    if s < 2:
        raise ParamDomainError(f"function id {fid!r} needs at least 2 slices, got s={s}")
    bad = [i for i in upend if not 1 <= i <= s]
    if bad:
        raise ParamDomainError(f"function id {fid!r} upends slice {bad[0]} outside 1..{s}")
    own = function_id(name, s, set(upend))
    if fid != own:
        raise ParamDomainError(
            f"function id {fid!r} is not canonical; the function's id is {own!r}")
    return name, s, upend


@lru_cache(maxsize=64)
def get_testbed_function(fid: str) -> SlicedFunction:
    """Build (and cache) one sliced function from its identifier."""
    name, s, upend = parse_fid(fid)
    return make_sliced(get_function(name), s, upend=upend)


def make_benchmark_suite() -> list[SlicedFunction]:
    """The 14 benchmark functions: originals at s = 4 and 6 plus the
    upended variants of the three all-positively-correlated ones."""
    return [get_testbed_function(fid) for fid in testbed_ids()]

