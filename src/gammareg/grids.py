"""Grid functions on [0, 1] with discrete L2, sup, and H1_0 structure.

Every grid function lives on a uniform grid of [0, 1] that includes both
endpoints: m stored values, spacing 1/(m-1). FEM solutions store their
zero boundary values too, so one grid flavor covers every consumer.
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
    "norm",
    "resample",
    "resample_matrix",
    "from_callable",
]


class NormTag(enum.Enum):
    L2 = "l2"
    LINF = "linf"
    H1_0 = "h1_0"


def grid_nodes(m: int) -> np.ndarray:
    """Node coordinates of the uniform grid with `m` stored values."""
    if m < 2:
        raise GridCompatibilityError("grid needs at least 2 nodes")
    return np.linspace(0.0, 1.0, m)


@functools.lru_cache(maxsize=128)
def trapezoid_weights(m: int) -> np.ndarray:
    """Composite-trapezoid quadrature weights matching `grid_nodes`.

    One read-only vector per grid is built and shared by every caller.
    """
    h = 1.0 / (m - 1)
    w = np.full(m, h)
    w[0] = w[-1] = 0.5 * h
    w.setflags(write=False)
    return w


@dataclass(frozen=True)
class GridFunction:
    """Real-valued function sampled on a uniform grid over [0, 1].

    Immutable after construction: the value buffer is copied and marked
    read-only, so instances can be shared freely between studies.
    """

    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        if vals.ndim != 1:
            raise GridCompatibilityError("grid values must be one-dimensional")
        if vals.size < 2:
            raise GridCompatibilityError("grid needs at least 2 nodes")
        if not np.all(np.isfinite(vals)):
            raise GridCompatibilityError("grid values must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def node_count(self) -> int:
        return self.values.size

    @property
    def spacing(self) -> float:
        return 1.0 / (self.values.size - 1)

    @property
    def nodes(self) -> np.ndarray:
        return grid_nodes(self.node_count)

    def same_grid(self, other: "GridFunction") -> bool:
        return self.node_count == other.node_count

    def _require_same_grid(self, other: "GridFunction"):
        if not self.same_grid(other):
            raise GridCompatibilityError(
                f"grid mismatch: {self.node_count} nodes vs {other.node_count}"
            )

    def __add__(self, other: "GridFunction") -> "GridFunction":
        self._require_same_grid(other)
        return GridFunction(self.values + other.values)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        self._require_same_grid(other)
        return GridFunction(self.values - other.values)

    def __mul__(self, scalar: float) -> "GridFunction":
        return GridFunction(self.values * float(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "GridFunction":
        return GridFunction(-self.values)


def from_callable(f: Callable[[np.ndarray], np.ndarray], m: int) -> GridFunction:
    """Sample a vectorized callable on the uniform grid."""
    return GridFunction(np.asarray(f(grid_nodes(m)), dtype=float))


def weighted_l2(vals: np.ndarray, w: np.ndarray) -> float:
    """sqrt(sum_i w_i vals_i^2): the discrete L2 norm of nodal values
    under quadrature weights w."""
    return math.sqrt(max(float(vals * vals @ w), 0.0))


def norm(g: GridFunction, tag: NormTag = NormTag.L2) -> float:
    """Discrete norm of a grid function.

    L2 uses the composite trapezoid rule, the sup norm is the max of
    |values|, and H1_0 is the broken-gradient norm; the latter is defined
    for grid functions with a zero boundary only.
    """
    v = g.values
    if tag is NormTag.L2:
        return weighted_l2(v, trapezoid_weights(g.node_count))
    if tag is NormTag.LINF:
        return float(np.max(np.abs(v)))
    if tag is NormTag.H1_0:
        if v[0] != 0.0 or v[-1] != 0.0:
            raise GridCompatibilityError("H1_0 norm needs zero boundary values")
        h = g.spacing
        d = np.diff(v) / h
        return float(np.sqrt(d @ d * h))
    raise GridCompatibilityError(f"unknown norm tag {tag!r}")


def resample(g: GridFunction, target_m: int) -> GridFunction:
    """Piecewise-linear interpolation onto another uniform grid."""
    return GridFunction(np.interp(grid_nodes(target_m), g.nodes, g.values))


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


def resample_matrix(src_m: int, dst_m: int) -> np.ndarray:
    """Dense matrix realization of `resample` (it is a linear map)."""
    return interpolation_matrix(grid_nodes(src_m), grid_nodes(dst_m))
