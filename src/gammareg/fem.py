"""Galerkin solver for -u'' + c u = f on (0,1) with zero Dirichlet data.

Piecewise-linear hats at the n interior nodes of a uniform grid; a
solution stores its two zero boundary values as well. The stiffness part is
assembled exactly; potential and load terms use a composite two-point
Gauss rule per element, which is exact for the polynomial degrees that
appear when c and f are piecewise linear.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import EllipticityError, GridCompatibilityError, NumericalError
from .grids import (
    GridFunction,
    grid_nodes,
    interpolation_matrix,
    resample,
    resample_matrix,  # unused here; bench/tracer.py wraps it under this module
    trapezoid_weights,
    weighted_l2,
)
from .operators import DomainSpec, ForwardOperator, OperatorFamily, _prolongation, whole_space
from .operators import _ldl, _ldl_solve, _tridiagonal_times
from .studies import ReportRow, _level_rows, _verdict_word

__all__ = [
    "EllipticProblem",
    "assemble",
    "thomas_solve",
    "solve_bvp",
    "make_fem_family",
    "l2_error_vs_exact",
    "rate_study",
    "RateStudy",
]

_GAUSS_OFFSET = 0.5 / np.sqrt(3.0)  # two-point rule on the unit element
# Left and right hats of an element at its two Gauss points.
_PHI_L1, _PHI_L2 = 0.5 + _GAUSS_OFFSET, 0.5 - _GAUSS_OFFSET
_PHI_R1, _PHI_R2 = 0.5 - _GAUSS_OFFSET, 0.5 + _GAUSS_OFFSET
# `l2_error_vs_exact` measures on a grid this many times finer than the level.
_OVERSAMPLE = 4
# A rate study passes when its slope lies in this window: P1 elements converge at
# second order in L2, so the error falls like n^-2.
RATE_SLOPE_WINDOW = (-2.2, -1.8)

PointFunction = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class EllipticProblem:
    """Data for -u'' + c u = f with homogeneous Dirichlet conditions.

    Coefficients are vectorized callables of the points in [0, 1]; a sampled
    coefficient is an `np.interp` closure over its table. `solution`, when
    given, is the manufactured exact solution used by convergence studies.
    """

    potential: PointFunction
    source: PointFunction
    solution: PointFunction | None = None


@dataclass(frozen=True)
class TridiagonalSystem:
    """Symmetric tridiagonal system: `off` is both the sub- and superdiagonal.

    `rhs` has shape (n,) or, for stacked right-hand sides, (n, k).
    """

    diag: np.ndarray
    off: np.ndarray
    rhs: np.ndarray

    def __post_init__(self):
        n = self.diag.size
        if self.off.size != n - 1 or self.rhs.shape[0] != n:
            raise GridCompatibilityError("tridiagonal bands and rhs sizes disagree")
        if np.any(self.diag <= 0.0):
            raise NumericalError("assembled diagonal must be positive")


def _to_interior_nodes(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Interior node i sums the left part of element i and the right part of element i - 1."""
    return left[1:] + right[:-1]


def assemble(problem: EllipticProblem, n: int) -> TridiagonalSystem:
    """Stiffness + potential mass matrix and load with n interior nodes; a `source`
    returning k columns per point gives a k-column load (`fem_operator_matrix`)."""
    if n < 1:
        raise GridCompatibilityError("Galerkin level needs n >= 1 interior nodes")
    h = 1.0 / (n + 1)
    z_left = h * np.arange(n + 1)  # left endpoint of each element
    p1 = z_left + h * (0.5 - _GAUSS_OFFSET)
    p2 = z_left + h * (0.5 + _GAUSS_OFFSET)
    c1 = np.asarray(problem.potential(p1), dtype=float)
    c2 = np.asarray(problem.potential(p2), dtype=float)
    if not (np.all(np.isfinite(c1)) and np.all(np.isfinite(c2))):
        raise EllipticityError("potential must be finite at every quadrature point")
    if np.any(c1 < 0.0) or np.any(c2 < 0.0):
        bad = min(np.min(c1), np.min(c2))
        raise EllipticityError(
            f"potential must be nonnegative; found c = {bad:.3e} at a quadrature point"
        )

    w = 0.5 * h
    m_ll = w * (c1 * _PHI_L1**2 + c2 * _PHI_L2**2)
    m_rr = w * (c1 * _PHI_R1**2 + c2 * _PHI_R2**2)
    m_lr = w * (c1 * _PHI_L1 * _PHI_R1 + c2 * _PHI_L2 * _PHI_R2)
    diag = 2.0 / h + _to_interior_nodes(m_ll, m_rr)
    off = -1.0 / h + m_lr[1:n]  # element i+1 couples interior nodes i and i+1

    f1 = np.asarray(problem.source(p1), dtype=float)
    f2 = np.asarray(problem.source(p2), dtype=float)
    rhs = _to_interior_nodes(
        w * (_PHI_L1 * f1 + _PHI_L2 * f2), w * (_PHI_R1 * f1 + _PHI_R2 * f2)
    )
    return TridiagonalSystem(diag, off, rhs)


def thomas_solve(system: TridiagonalSystem) -> np.ndarray:
    """Solve through the L D L^T factors of the bands; rhs may carry multiple columns.
    The system may be indefinite, but a pivot below 1e-300 in magnitude raises."""
    p, r = _ldl(system.diag, system.off)
    if np.any(np.abs(p) < 1e-300):
        raise NumericalError("zero pivot in tridiagonal elimination")
    return _ldl_solve(p, r, system.off, system.rhs)


def _checked_solution(system: TridiagonalSystem) -> np.ndarray:
    """The Thomas solution u with its two zero boundary rows, once the normwise
    backward error ||Au - b|| / (||A|| ||u|| + ||b||) of each column, in the sup
    norm, is at most 1e-12; a NaN error fails. Unlike ||Au - b|| / ||b||, it does
    not grow with the condition number. `solve_bvp` and `fem_operator_matrix`
    both solve through here."""
    u = thomas_solve(system)
    res = _tridiagonal_times(system.diag, system.off, u)
    res -= system.rhs
    res = np.max(np.abs(res, out=res), axis=0)
    off = np.abs(system.off)
    rows = np.abs(system.diag) + np.pad(off, (1, 0)) + np.pad(off, (0, 1))  # |A| row sums
    scale = np.max(rows) * np.max(np.abs(u), axis=0) + np.max(np.abs(system.rhs), axis=0)
    fails = ~(res <= 1e-12 * scale)  # a column whose load and solution are 0 passes
    if np.any(fails):
        raise NumericalError(f"tridiagonal solve backward error "
                             f"{np.max(res[fails] / scale[fails]):.2e} exceeds 1e-12")
    return np.pad(u, [(1, 1)] + [(0, 0)] * (u.ndim - 1))


def solve_bvp(problem: EllipticProblem, n: int) -> GridFunction:
    """Solve with n interior nodes: n + 2 nodal values, the two boundary zeros
    included, the normwise backward error checked (`_checked_solution`)."""
    return GridFunction(_checked_solution(assemble(problem, n)))


# (potential, n, input_m) -> padded solution columns, while an operator keeps them
_CORES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def fem_operator_matrix(
    potential: PointFunction, n: int, input_m: int, output_m: int,
    domain: DomainSpec | None = None,
) -> ForwardOperator:
    """The level forward map: one checked Galerkin solution per piecewise-linear
    basis function of the input grid (`assemble`, `_checked_solution`), padded
    with the zero boundary rows, prolonged onto the output_m-node grid. The
    operator keeps that padded array as its core, without a copy.

    `potential` must be a pure function of t. While an operator keeps a core,
    every call with the same potential object, n and input_m reuses it, each
    operator with its own domain and prolongation; a potential that cannot be
    hashed is solved anew each call.
    """
    key = (potential, n, input_m)
    try:
        u_cols = _CORES.get(key)
    except TypeError:  # an unhashable potential is not shared
        key = u_cols = None
    if u_cols is None:
        src_nodes = grid_nodes(input_m)
        basis = EllipticProblem(potential, lambda x: interpolation_matrix(src_nodes, x))
        u_cols = _checked_solution(assemble(basis, n))
        if key is not None:
            _CORES[key] = u_cols
    return ForwardOperator._adopt(u_cols, domain or whole_space(), _prolongation(n + 2, output_m))


def make_fem_family(
    potential: PointFunction,
    levels: Sequence[int],
    input_m: int = 65,
    domain: DomainSpec | None = None,
) -> OperatorFamily:
    """Family of Galerkin forward maps with reference level n_ref = 16 max(levels) + 1.

    The studies rely on a reference substantially finer than every tested
    level; 16x the largest is that margin. `potential` must be a pure function
    of t: families built from the same potential object share the reference
    and level cores (`fem_operator_matrix`) while any of them keeps one.
    """
    levels = tuple(int(n) for n in levels)
    n_ref = 16 * max(levels) + 1
    dom = domain or whole_space()
    output_m = n_ref + 2

    def build(n: int) -> ForwardOperator:
        return fem_operator_matrix(potential, n, input_m, output_m, dom)

    return OperatorFamily(levels, build(n_ref), build)


def l2_error_vs_exact(u: GridFunction, exact: PointFunction) -> float:
    """L2 distance between a FEM solution and a callable on a finer grid."""
    m_fine = _OVERSAMPLE * (u.node_count - 1) + 1
    uh = resample(u, m_fine)
    diff = uh.values - np.asarray(exact(uh.nodes), dtype=float)
    return weighted_l2(diff, trapezoid_weights(m_fine))


@dataclass(frozen=True)
class RateStudy:
    levels: tuple[int, ...]
    errors: tuple[float, ...]
    slope: float

    @property
    def verdict(self) -> bool:
        low, high = RATE_SLOPE_WINDOW
        return low <= self.slope <= high

    def rows(self, kind: str) -> list[ReportRow]:
        return _level_rows(kind, self.levels, l2_error=self.errors) + [
            ReportRow(kind, None, "rate_slope", self.slope, _verdict_word(self.verdict)),
        ]


def rate_study(problem: EllipticProblem, levels: Sequence[int]) -> RateStudy:
    """Least-squares slope of log-error against log-level.

    Requires a manufactured solution and at least three levels; refuses
    to fit a slope through vanishing errors.
    """
    if problem.solution is None:
        raise GridCompatibilityError("rate study needs a manufactured solution")
    levels = tuple(int(n) for n in levels)
    if len(levels) < 3:
        raise GridCompatibilityError("rate study needs at least three levels")
    errors = []
    for n in levels:
        u = solve_bvp(problem, n)
        errors.append(l2_error_vs_exact(u, problem.solution))
    if min(errors) <= 0.0:
        raise NumericalError("exact discrete solution; convergence rate undefined")
    slope = float(np.polyfit(np.log(np.asarray(levels, dtype=float)), np.log(errors), 1)[0])
    return RateStudy(levels, tuple(errors), slope)
