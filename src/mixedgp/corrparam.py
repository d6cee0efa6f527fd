"""Cross-correlation matrix parameterizations for a categorical input.

Maps box-constrained parameter vectors to valid s x s cross-correlation
matrices. Four families are supported:

EC
    exchangeable / compound symmetry: one parameter c in (0, 1), all
    off-diagonal entries equal c.
MC
    multiplicative: s positive parameters, tau_ij = exp(-(phi_i + phi_j))
    off the diagonal. Only positive correlations are reachable.
UC
    unrestrictive hypersphere decomposition of the Cholesky factor,
    s(s-1)/2 angles in (0, pi). Every valid correlation matrix is
    reachable.
LRC_r
    low-rank loading matrix Q (s x r) built from spherical coordinates,
    returning Q Q^T with a nugget. (r-1)(s - r/2) angles. Parsimonious
    but still able to express negative correlations.

Angle vectors for UC and LRC are flattened row-major: rows i = 2..s,
and within row i the angles theta_{i,1}, ..., theta_{i,min(i,r)-1}
(min(i, s) for UC).

:func:`corr_values` and :func:`corr_grad` also take a (k, p) stack of k
parameter vectors, for the likelihood's stacked evaluation: every step
is elementwise or one small product per matrix, so each row of the
result is bit for bit that of its vector alone. Only one vector is
checked, by its family's one rule (:func:`check_params`).
"""

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    NumericalRankError,
    ParamArityError,
    ParamDomainError,
    RankRangeError,
    whole,
)

DEFAULT_NUGGET = 1e-8

# Box margin used when the mathematical domain is an open interval;
# optimizers need closed boxes.
ANGLE_MARGIN = 1e-6

# Each family's open domain (low, high) for every parameter, MC's without
# an upper end. The angles are kept in (0, pi) only to identify them
# (Pinheiro & Bates 1996): every real angle vector gives a valid matrix.
_DOMAIN = {"EC": (0.0, 1.0), "MC": (0.0, None), "UC": (0.0, math.pi), "LRC": (0.0, math.pi)}
FAMILIES = tuple(_DOMAIN)


@dataclass(frozen=True)
class FamilySpec:
    """Identifies one parameterization family for s categorical levels."""

    family: str
    s: int
    rank: int | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ParamDomainError(f"unknown family {self.family!r}")
        if not whole(self.s) or self.s < 2:
            raise ParamDomainError(f"need an integer number of levels s >= 2, got s={self.s!r}")
        if self.family == "LRC":
            if self.rank is None:
                raise RankRangeError("LRC requires a rank")
            if not whole(self.rank) or not 2 <= self.rank <= self.s - 1:
                raise RankRangeError(f"rank must be an integer with 2 <= rank <= s-1, "
                                     f"got rank={self.rank!r} for s={self.s}")
        elif self.rank is not None:
            raise RankRangeError(f"rank is only meaningful for LRC, not {self.family}")

    @property
    def label(self) -> str:
        return f"LRC{self.rank}" if self.family == "LRC" else self.family

    @property
    def order(self) -> float:
        """Sort key of the study order EC, LRC2, MC, LRC3, ..., LRC_{s-1}, UC."""
        return {"EC": 1, "MC": 2.5, "UC": math.inf}.get(self.family, self.rank)

    @classmethod
    def parse(cls, label: str, s: int | None = None) -> "FamilySpec":
        """Parse a label such as ``"EC"`` or ``"LRC3"`` into a spec; without
        ``s``, at the fewest levels the label admits, to check it alone.
        An LRC rank that is not an integer raises ``ParamDomainError``."""
        label = label.strip().upper()
        try:
            rank = int(label[3:]) if label.startswith("LRC") and len(label) > 3 else None
        except ValueError:
            raise ParamDomainError(f"LRC rank must be an integer, got {label!r}") from None
        s = max(2, (rank or 0) + 1) if s is None else s
        return cls(label, s) if rank is None else cls("LRC", s, rank)


def lrc_param_count(s: int, rank: int) -> int:
    """(rank-1)(s - rank/2) angles, computed in integer arithmetic.

    The loading builder accepts any 2 <= rank <= s; a model spec
    additionally requires rank < s (rank s is just the unrestrictive
    parameterization).
    """
    if not 2 <= rank <= s:
        raise RankRangeError(f"rank must satisfy 2 <= rank <= s, got rank={rank} for s={s}")
    return (rank - 1) * s - rank * (rank - 1) // 2


def param_count(spec: FamilySpec) -> int:
    """Number of free parameters of the family for ``spec.s`` levels."""
    s = spec.s
    if spec.family == "EC":
        return 1
    if spec.family == "MC":
        return s
    if spec.family == "UC":
        return s * (s - 1) // 2
    return lrc_param_count(s, spec.rank)


def cat_param_bounds(spec: FamilySpec) -> np.ndarray:
    """Optimizer box for the family, shape (param_count, 2).

    The family's open domain ((0,1), (0,inf), (0,pi)) shrunk by
    ``ANGLE_MARGIN`` at each end, so box-constrained optimizers stay
    strictly inside. MC has no natural upper bound; 10 is used since
    exp(-20) is already indistinguishable from zero correlation.
    """
    low, high = _DOMAIN[spec.family]
    box = (low + ANGLE_MARGIN, 10.0 if high is None else high - ANGLE_MARGIN)
    return np.tile(box, (param_count(spec), 1))


def check_params(spec: FamilySpec, values) -> np.ndarray:
    """``values`` as one float vector of the family's parameters, after the
    family's one rule: ``ParamArityError`` unless there are :func:`param_count`
    of them, ``ParamDomainError`` unless each lies in its open domain (NaN does not).
    """
    values = np.asarray(values, dtype=float)
    s, family, k = spec.s, spec.family, param_count(spec)
    if values.shape != (k,):
        raise ParamArityError({
            "EC": "EC takes a single parameter",
            "MC": f"MC needs {s} parameters",
        }.get(family, f"{spec.label} with s={s} needs {k} angles") + f", got shape {values.shape}")
    low, high = _DOMAIN[family]
    if not all(low < v and (high is None or v < high) for v in values.tolist()):
        raise ParamDomainError({
            "EC": f"EC parameter must lie in (0, 1), got {values[0]}",
            "MC": "MC parameters must all be positive",
        }.get(family, f"{spec.label} angles must lie in (0, pi)"))
    return values


def nugget_rule(value, zero: bool = False) -> str | None:
    """The rule of every nugget: what ``value`` must be and is not, or
    None. A nugget is a real number, not a bool, finite and > 0 (>= 0
    with ``zero``)."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return "a real number"
    if not ((0 <= value) if zero else (0 < value)) or not value < math.inf:
        return ">= 0 and finite" if zero else "> 0 and finite"
    return None


def check_nugget(name: str, value, zero: bool = False):
    """``value``, if it keeps :func:`nugget_rule`, else ``ParamDomainError``
    naming ``name``."""
    if nugget_rule(value, zero) is not None:
        words = "nonnegative" if zero else "positive"
        raise ParamDomainError(f"{name} must be finite and {words}, got {value!r}")
    return value


@dataclass(frozen=True)
class CorrMatrix:
    """An s x s symmetric cross-correlation matrix with unit diagonal."""

    values: np.ndarray
    s: int

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.s, self.s):
            raise ParamArityError(f"expected shape ({self.s}, {self.s}), got {values.shape}")
        if not np.array_equal(values, values.T):
            raise ParamDomainError("correlation matrix must be stored symmetrically")
        if not np.all(np.diag(values) == 1.0):
            raise ParamDomainError("correlation matrix must have unit diagonal")
        if np.any(np.abs(values) > 1.0):
            raise ParamDomainError("correlation entries must lie in [-1, 1]")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.values)[0])

    def cholesky(self) -> np.ndarray:
        """Lower Cholesky factor; raises ``NumericalRankError`` if not pd."""
        try:
            return np.linalg.cholesky(self.values)
        except np.linalg.LinAlgError:
            raise NumericalRankError(
                f"matrix is not positive definite "
                f"(smallest eigenvalue {self.min_eigenvalue():.3e})",
                smallest_eigenvalue=self.min_eigenvalue(),
            ) from None


def _set_diagonal(P: np.ndarray, value: float) -> None:
    """Set the diagonal of each s x s matrix of a C-contiguous (..., s, s) array."""
    s = P.shape[-1]
    P.reshape(-1, s * s)[:, :: s + 1] = value


def _symmetrize(P: np.ndarray) -> np.ndarray:
    # force exact symmetry / unit diagonal / range against fp noise
    P = (P + P.swapaxes(-1, -2)) / 2.0
    _set_diagonal(P, 1.0)
    return P.clip(-1.0, 1.0, out=P)


@functools.lru_cache(maxsize=None)
def _angle_slots(s: int, rank: int) -> np.ndarray:
    """Flat positions of the angle vector in the (s-1) x (rank-1) grid.

    Grid row i-2 holds the min(i, rank) - 1 angles of loading row i;
    the slots after them stay zero.
    """
    counts = np.minimum(np.arange(2, s + 1), rank) - 1
    slots = np.concatenate([row * (rank - 1) + np.arange(k) for row, k in enumerate(counts)])
    slots.setflags(write=False)
    return slots


@functools.lru_cache(maxsize=None)
def _angle_cells(s: int, rank: int):
    """Where each angle sits in Q, for :func:`sphere_loading_grad`.

    Returns (rows, later, own, own_sp): the row of Q each angle moves;
    a (k, rank) 0/1 mask of the entries after the angle's own column;
    a (k, rank) boolean mask of the angle's own column; and the flat
    position of the angle's preceding-sines product in ``sp``.
    """
    grid_row, col = divmod(_angle_slots(s, rank), rank - 1)
    later = (np.arange(rank) > col[:, None]).astype(float)
    own = np.arange(rank) == col[:, None]
    own_sp = grid_row * rank + col
    for a in (grid_row, later, own, own_sp):
        a.setflags(write=False)
    return grid_row + 1, later, own, own_sp


def _checked_angles(theta, s: int, rank: int) -> np.ndarray:
    """One angle vector, checked as UC's at rank s and as LRC_rank's below."""
    return check_params(FamilySpec("UC", s) if rank == s else FamilySpec("LRC", s, rank), theta)


def _angle_grid(theta: np.ndarray, s: int, rank: int) -> np.ndarray:
    """The (s-1) x (rank-1) zero-padded grid of the float array ``theta``;
    a (k, p) stack of angle vectors gives the (k, s-1, rank-1) stack."""
    lead = theta.shape[:-1]
    grid = np.zeros(lead + ((s - 1) * (rank - 1),))
    grid[..., _angle_slots(s, rank)] = theta
    return grid.reshape(lead + (s - 1, rank - 1))


def _sphere_parts(theta: np.ndarray, s: int, rank: int):
    """Q of :func:`sphere_loading` with the sine products that built it.

    Returns (Q, sp): sp[i - 1, j] is the product of the first j sines
    of row i's zero-padded angles (sp[:, 0] = 1), so that
    Q[1:] = [cos(angles), 1] * sp. A (k, p) stack of angle vectors
    gives stacks of both, with a leading axis k.
    """
    grid = _angle_grid(theta, s, rank)
    lead = grid.shape[:-2]
    sp = np.ones(lead + (s - 1, rank))
    np.multiply.accumulate(np.sin(grid), axis=-1, out=sp[..., 1:])  # cumprod
    Q = np.zeros(lead + (s, rank))
    Q[..., 0, 0] = 1.0
    np.multiply(np.cos(grid), sp[..., :-1], out=Q[..., 1:, :-1])
    Q[..., 1:, -1] = sp[..., -1]
    return Q, sp


def sphere_loading(theta: np.ndarray, s: int, rank: int) -> np.ndarray:
    """The s x rank loading matrix Q with unit rows, first row (1, 0, ...).

    Row i is the point on the unit sphere in min(i, rank) dimensions
    given by its angles, zero-padded beyond: entry j is cos(theta_j)
    times the product of the preceding sines, the last entry the product
    of all sines. At rank s this is the lower-triangular Cholesky factor
    of the unrestrictive family; at rank < s only differences from the
    first row matter, which is what saves one angle per column.

    The rows are built at once on a zero-padded angle grid: cos(0) = 1
    and sin(0) = 0 put the product of all sines at each row's last
    entry and zeros after it. ``theta`` is one vector, checked by
    :func:`check_params`.
    """
    return _sphere_parts(_checked_angles(theta, s, rank), s, rank)[0]


def sphere_loading_grad(theta: np.ndarray, s: int, rank: int, parts=None):
    """Q of :func:`sphere_loading` and its closed-form angle derivatives.

    Returns (Q, rows, dQ): angle k moves only row ``rows[k]`` of Q, and
    dQ[k] is that row's derivative in theta_k. For the angle in column
    j of its row, entry j's derivative is -sin(theta_k) times the
    preceding sines; every later entry carries sin(theta_k) as a
    factor, so its derivative is the entry times cot(theta_k); earlier
    entries do not depend on it.

    ``parts`` is the (Q, sp) that :func:`corr_values` built at the same
    angles, and with it a (k, p) stack of angle vectors gives stacks of
    Q and dQ; without it ``theta`` is one vector, checked, and they are
    built here.
    """
    theta = np.asarray(theta, dtype=float)
    Q, sp = parts or _sphere_parts(_checked_angles(theta, s, rank), s, rank)
    rows, later, own, own_sp = _angle_cells(s, rank)
    sn = np.sin(theta)
    dQ = Q.take(rows, axis=-2) * (later * (np.cos(theta) / sn)[..., None])
    own_sp = sp.reshape(sp.shape[:-2] + (-1,)).take(own_sp, axis=-1)
    np.copyto(dQ, (-sn * own_sp)[..., None], where=own)
    return Q, rows, dQ


def regularize(P: np.ndarray, nugget: float = DEFAULT_NUGGET) -> CorrMatrix:
    """Add ``nugget`` to the diagonal and rescale so the diagonal is 1.

    (P + nugget I) / (1 + nugget) keeps entries in [-1, 1] and lifts the
    smallest eigenvalue to at least nugget / (1 + nugget) for psd P.
    The nugget must be finite and positive (:func:`check_nugget`).
    """
    check_nugget("nugget", nugget)
    P = np.asarray(P, dtype=float)
    s = P.shape[0]
    if np.abs(P - P.T).max() > 1e-12:
        raise ParamDomainError("regularize expects a symmetric matrix")
    if np.abs(np.diag(P) - 1.0).max() > 1e-12:
        raise ParamDomainError("regularize expects a unit diagonal")
    if np.abs(P).max() > 1.0 + 1e-12:
        raise ParamDomainError("regularize expects entries in [-1, 1]")
    out = (P + nugget * np.eye(s)) / (1.0 + nugget)
    result = CorrMatrix(_symmetrize(out), s)
    result.cholesky()  # NumericalRankError if still not pd
    return result


def embed_lrc_in_uc(
    theta_lrc: np.ndarray, s: int, rank: int, eps: float = 1e-9
) -> np.ndarray:
    """UC angle vector whose matrix matches the LRC one entrywise.

    A rank-r loading pattern is the special case of the full hypersphere
    recursion with theta_{i,r} = 0 for rows i > r: the sine factor then
    zeroes every later column. Zero is outside the open angle domain, so
    ``eps`` is substituted; the entrywise gap it causes is O(s * eps),
    far below 1e-6 at the default. Angles after position r are
    unidentified and fixed at pi/2: on the UC angle grid, the LRC grid
    fills the first rank - 1 columns, eps the next and pi/2 the rest.
    """
    grid = np.full((s - 1, s - 1), np.pi / 2.0)
    grid[:, : rank - 1] = _angle_grid(_checked_angles(theta_lrc, s, rank), s, rank)
    grid[:, rank - 1 : rank] = eps
    return grid.ravel()[_angle_slots(s, s)]


def corr_values(
    spec: FamilySpec, values: np.ndarray, nugget: float = DEFAULT_NUGGET, parts=None
) -> np.ndarray:
    """The family's s x s matrix at ``values``.

    EC and MC are exactly symmetric with unit diagonal as built; UC
    (Q Q^T at rank s) and LRC ((Q Q^T + nugget I) / (1 + nugget)) are
    symmetrized against rounding. The likelihood uses this array;
    :func:`build_correlation` wraps it in a checked CorrMatrix. For UC
    and LRC, a list ``parts`` receives the loading Q and its sine
    products, which :func:`corr_grad` needs at the same parameters.

    One vector is checked first (:func:`check_params`). A (k, p) stack,
    the likelihood's rows, which lie in the family's box, is not: it
    gives the (k, s, s) stack of their matrices, and ``parts`` stacks.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        values = check_params(spec, values)
    s, family = spec.s, spec.family
    if family == "EC":
        P = np.empty(values.shape[:-1] + (s, s))
        P[...] = values[..., None]
        _set_diagonal(P, 1.0)
    elif family == "MC":
        a = np.exp(-values)
        P = a[..., :, None] * a[..., None, :]
        _set_diagonal(P, 1.0)
    else:
        Q, sp = _sphere_parts(values, s, s if family == "UC" else spec.rank)
        if parts is not None:
            parts.extend((Q, sp))
        P = Q @ Q.swapaxes(-1, -2)
        if family == "LRC":  # (P + nugget I) / (1 + nugget) off the diagonal, in place
            P /= 1.0 + nugget  # _symmetrize sets the diagonal to 1
        P = _symmetrize(P)
    return P


def corr_grad(
    spec: FamilySpec, values: np.ndarray, G: np.ndarray, parts, nugget: float = DEFAULT_NUGGET
) -> np.ndarray:
    """The directional sums <G, dP/dvalues_k> of :func:`corr_values`.

    ``G`` is a symmetric s x s weight matrix; its diagonal is ignored,
    since every family pins P's diagonal at 1. ``parts`` is the list
    that :func:`corr_values` filled at the same ``values`` and nugget
    (empty for EC and MC). Closed forms: EC sums the off-diagonal
    weights; MC has dP_ab/dphi_k = -P_ab (1[a=k] + 1[b=k]) off the
    diagonal; UC and LRC have dP = dQ Q^T + Q dQ^T, scaled by
    1 / (1 + nugget) for LRC, and each angle moves one row of Q
    (:func:`sphere_loading_grad`, on the Q that ``parts`` holds). With a
    (k, p) stack of ``values``, ``G`` is a (k, s, s) stack and ``parts``
    holds stacks; the result is (k, p).
    """
    G = np.array(G, dtype=float, order="C")  # reshape below is then a view
    _set_diagonal(G, 0.0)
    values = np.asarray(values, dtype=float)
    if spec.family == "EC":
        return np.add.reduce(G.reshape(G.shape[:-2] + (-1,)), axis=-1)[..., None]
    if spec.family == "MC":
        a = np.exp(-values)
        return -2.0 * a * (G @ a[..., None])[..., 0]
    rank = spec.s if spec.family == "UC" else spec.rank
    Q, rows, dQ = sphere_loading_grad(values, spec.s, rank, parts)
    scale = 2.0 if spec.family == "UC" else 2.0 / (1.0 + nugget)
    return scale * np.add.reduce((G @ Q).take(rows, axis=-2) * dQ, axis=-1)


def build_correlation(
    spec: FamilySpec, values: np.ndarray, nugget: float = DEFAULT_NUGGET
) -> CorrMatrix:
    """Validated correlation matrix for any family: :func:`corr_values` as a CorrMatrix.

    LRC's nugget must be finite and positive (:func:`check_nugget`), and
    its regularized matrix must factor (``NumericalRankError``
    otherwise); EC, MC and UC use no nugget, and are positive definite
    for every valid parameter vector.
    """
    if spec.family == "LRC":
        check_nugget("nugget", nugget)
    result = CorrMatrix(corr_values(spec, values, nugget), spec.s)
    if spec.family == "LRC":
        result.cholesky()
    return result
