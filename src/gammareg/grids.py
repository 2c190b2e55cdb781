"""Grid functions on [0, 1] with discrete L2, sup, and H1_0 structure.

Two grid flavors cover every consumer in the package: full grids include
both endpoints and have spacing 1/(m-1); interior-node grids (the FEM
unknowns) omit the endpoints, carry an implicit zero boundary, and have
spacing 1/(n+1).
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import GridCompatibilityError

__all__ = [
    "NormTag",
    "GridFunction",
    "grid_nodes",
    "trapezoid_weights",
    "weighted_l2",
    "norm",
    "resample",
    "interpolation_weights",
    "interpolation_matrix",
    "interpolate_rows",
    "restrict_columns",
    "resample_matrix",
    "from_callable",
]


class NormTag(enum.Enum):
    L2 = "l2"
    LINF = "linf"
    H1_0 = "h1_0"


def grid_nodes(m: int, includes_endpoints: bool = True) -> np.ndarray:
    """Node coordinates of the uniform grid with `m` stored values."""
    if includes_endpoints:
        if m < 2:
            raise GridCompatibilityError("full grid needs at least 2 nodes")
        return np.linspace(0.0, 1.0, m)
    if m < 1:
        raise GridCompatibilityError("interior grid needs at least 1 node")
    h = 1.0 / (m + 1)
    return h * np.arange(1, m + 1)


@functools.lru_cache(maxsize=128)
def trapezoid_weights(m: int, includes_endpoints: bool = True) -> np.ndarray:
    """Composite-trapezoid quadrature weights matching `grid_nodes`.

    Interior-node grids inherit the weights of the full trapezoid rule
    with the implicit zero endpoints dropped, i.e. weight h per node.
    One read-only vector per grid is built and shared by every caller.
    """
    if includes_endpoints:
        h = 1.0 / (m - 1)
        w = np.full(m, h)
        w[0] = w[-1] = 0.5 * h
    else:
        w = np.full(m, 1.0 / (m + 1))
    w.setflags(write=False)
    return w


@dataclass(frozen=True)
class GridFunction:
    """Real-valued function sampled on a uniform grid over [0, 1].

    Immutable after construction: the value buffer is copied and marked
    read-only, so instances can be shared freely between studies.
    """

    values: np.ndarray
    includes_endpoints: bool = True

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        if vals.ndim != 1:
            raise GridCompatibilityError("grid values must be one-dimensional")
        if self.includes_endpoints and vals.size < 2:
            raise GridCompatibilityError("full grid needs at least 2 nodes")
        if not self.includes_endpoints and vals.size < 1:
            raise GridCompatibilityError("interior grid needs at least 1 node")
        if not np.all(np.isfinite(vals)):
            raise GridCompatibilityError("grid values must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def node_count(self) -> int:
        return self.values.size

    @property
    def spacing(self) -> float:
        m = self.values.size
        return 1.0 / (m - 1) if self.includes_endpoints else 1.0 / (m + 1)

    @property
    def nodes(self) -> np.ndarray:
        return grid_nodes(self.node_count, self.includes_endpoints)

    def same_grid(self, other: "GridFunction") -> bool:
        return (
            self.node_count == other.node_count
            and self.includes_endpoints == other.includes_endpoints
        )

    def _require_same_grid(self, other: "GridFunction"):
        if not self.same_grid(other):
            raise GridCompatibilityError(
                f"grid mismatch: {self.node_count} nodes "
                f"(endpoints={self.includes_endpoints}) vs {other.node_count} "
                f"(endpoints={other.includes_endpoints})"
            )

    def __add__(self, other: "GridFunction") -> "GridFunction":
        self._require_same_grid(other)
        return GridFunction(self.values + other.values, self.includes_endpoints)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        self._require_same_grid(other)
        return GridFunction(self.values - other.values, self.includes_endpoints)

    def __mul__(self, scalar: float) -> "GridFunction":
        return GridFunction(self.values * float(scalar), self.includes_endpoints)

    __rmul__ = __mul__

    def __neg__(self) -> "GridFunction":
        return GridFunction(-self.values, self.includes_endpoints)


def from_callable(
    f: Callable[[np.ndarray], np.ndarray], m: int, includes_endpoints: bool = True
) -> GridFunction:
    """Sample a vectorized callable on the uniform grid."""
    x = grid_nodes(m, includes_endpoints)
    return GridFunction(np.asarray(f(x), dtype=float), includes_endpoints)


def weighted_l2(vals: np.ndarray, w: np.ndarray) -> float:
    """sqrt(sum_i w_i vals_i^2): the discrete L2 norm of nodal values
    under quadrature weights w."""
    return math.sqrt(max(float(vals * vals @ w), 0.0))


def norm(g: GridFunction, tag: NormTag = NormTag.L2) -> float:
    """Discrete norm of a grid function.

    L2 uses the composite trapezoid rule, the sup norm is the max of
    |values|, and H1_0 is the broken-gradient norm with the implicit
    zero boundary; the latter is defined for interior-node grids only.
    """
    v = g.values
    if tag is NormTag.L2:
        return weighted_l2(v, trapezoid_weights(g.node_count, g.includes_endpoints))
    if tag is NormTag.LINF:
        return float(np.max(np.abs(v)))
    if tag is NormTag.H1_0:
        if g.includes_endpoints:
            raise GridCompatibilityError(
                "H1_0 norm applies to interior-node grid functions only"
            )
        h = g.spacing
        d = np.diff(np.concatenate(([0.0], v, [0.0]))) / h
        return float(np.sqrt(d @ d * h))
    raise GridCompatibilityError(f"unknown norm tag {tag!r}")


def _effective_nodes_values(g: GridFunction):
    # Interior functions get their zero boundary made explicit so that
    # piecewise-linear interpolation sees the whole of [0, 1].
    if g.includes_endpoints:
        return g.nodes, g.values
    xs = np.concatenate(([0.0], g.nodes, [1.0]))
    vs = np.concatenate(([0.0], g.values, [0.0]))
    return xs, vs


def resample(
    g: GridFunction, target_m: int, includes_endpoints: bool = True
) -> GridFunction:
    """Piecewise-linear interpolation onto another uniform grid."""
    xs, vs = _effective_nodes_values(g)
    xt = grid_nodes(target_m, includes_endpoints)
    return GridFunction(np.interp(xt, xs, vs), includes_endpoints)


def interpolation_weights(
    src_nodes: np.ndarray, points: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Piecewise-linear interpolation weights at arbitrary points.

    Returns (idx, theta): the value at points[i] is
    (1 - theta[i]) * v[idx[i]] + theta[i] * v[idx[i] + 1].
    """
    idx = np.clip(np.searchsorted(src_nodes, points, side="right") - 1, 0, src_nodes.size - 2)
    theta = (points - src_nodes[idx]) / (src_nodes[idx + 1] - src_nodes[idx])
    return idx, theta


def interpolation_matrix(src_nodes: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Rows of piecewise-linear interpolation weights at arbitrary points."""
    idx, theta = interpolation_weights(src_nodes, points)
    mat = np.zeros((points.size, src_nodes.size))
    rows = np.arange(points.size)
    mat[rows, idx] = 1.0 - theta
    mat[rows, idx + 1] += theta
    return mat


def interpolate_rows(weights: tuple[np.ndarray, np.ndarray], mat: np.ndarray) -> np.ndarray:
    """`interpolation_matrix(src, points) @ mat`, two source rows per point."""
    idx, theta = weights
    theta = theta.reshape(theta.shape + (1,) * (mat.ndim - 1))
    out = mat[idx]
    out *= 1.0 - theta
    upper = mat[idx + 1]
    upper *= theta
    out += upper
    return out


def restrict_columns(
    mat: np.ndarray, weights: tuple[np.ndarray, np.ndarray], src_m: int
) -> np.ndarray:
    """`mat @ interpolation_matrix(src, points)` for src_m source nodes.

    The columns of `mat` belong to the points, which must be sorted; each
    is added, with its two weights, into the columns of its interval ends.
    """
    idx, theta = weights
    if np.any(np.diff(idx) < 0):
        raise GridCompatibilityError("restrict_columns needs sorted points")
    starts = np.flatnonzero(np.diff(idx, prepend=-1))  # first point of each interval
    ends = idx[starts]
    out = np.zeros(mat.shape[:-1] + (src_m,))
    out[..., ends] = np.add.reduceat(mat * (1.0 - theta), starts, axis=-1)
    out[..., ends + 1] += np.add.reduceat(mat * theta, starts, axis=-1)
    return out


def resample_matrix(
    src_m: int,
    dst_m: int,
    src_endpoints: bool = True,
    dst_endpoints: bool = True,
) -> np.ndarray:
    """Dense matrix realization of `resample` (it is a linear map)."""
    xs = grid_nodes(src_m, src_endpoints)
    if not src_endpoints:
        xs = np.concatenate(([0.0], xs, [1.0]))
    mat = interpolation_matrix(xs, grid_nodes(dst_m, dst_endpoints))
    if not src_endpoints:
        mat = mat[:, 1:-1]  # implicit zero boundary carries no unknowns
    return mat
