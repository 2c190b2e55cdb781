"""Galerkin solver for -u'' + c u = f on (0,1) with zero Dirichlet data.

Piecewise-linear hats at the n interior nodes of a uniform grid; a
solution stores its two zero boundary values as well. The stiffness part is
assembled exactly; potential and load terms use a composite two-point
Gauss rule per element, which is exact for the polynomial degrees that
appear when c and f are piecewise linear.
"""

from __future__ import annotations

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
from .operators import _ldl, _ldl_solve

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

    def matvec(self, u: np.ndarray) -> np.ndarray:
        out = self.diag * u
        out[:-1] += self.off * u[1:]
        out[1:] += self.off * u[:-1]
        return out


def _to_interior_nodes(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Interior node i sums the left part of element i and the right part of element i - 1."""
    return left[1:] + right[:-1]


def _galerkin_system(
    potential: PointFunction, source: PointFunction, n: int
) -> TridiagonalSystem:
    """Bands and load with n interior nodes; a `source` returning k columns per
    point gives a k-column rhs."""
    if n < 1:
        raise GridCompatibilityError("Galerkin level needs n >= 1 interior nodes")
    h = 1.0 / (n + 1)
    z_left = h * np.arange(n + 1)  # left endpoint of each element
    p1 = z_left + h * (0.5 - _GAUSS_OFFSET)
    p2 = z_left + h * (0.5 + _GAUSS_OFFSET)
    c1 = np.asarray(potential(p1), dtype=float)
    c2 = np.asarray(potential(p2), dtype=float)
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

    f1 = np.asarray(source(p1), dtype=float)
    f2 = np.asarray(source(p2), dtype=float)
    rhs = _to_interior_nodes(
        w * (_PHI_L1 * f1 + _PHI_L2 * f2), w * (_PHI_R1 * f1 + _PHI_R2 * f2)
    )
    return TridiagonalSystem(diag, off, rhs)


def assemble(problem: EllipticProblem, n: int) -> TridiagonalSystem:
    """Stiffness + potential mass matrix and load vector with n interior nodes."""
    return _galerkin_system(problem.potential, problem.source, n)


def thomas_solve(system: TridiagonalSystem) -> np.ndarray:
    """Solve through the L D L^T factors of the bands; rhs may carry multiple columns.
    The system may be indefinite, but a pivot below 1e-300 in magnitude raises."""
    p, r = _ldl(system.diag, system.off)
    if np.any(np.abs(p) < 1e-300):
        raise NumericalError("zero pivot in tridiagonal elimination")
    return _ldl_solve(p, r, system.off, system.rhs)


def solve_bvp(problem: EllipticProblem, n: int) -> GridFunction:
    """Solve with n interior nodes: n + 2 nodal values, the two boundary zeros included.

    Verifies the normwise backward error of the solve:
    ||Au - b|| / (||A|| ||u|| + ||b||) in the sup norm must stay below 1e-12;
    unlike ||Au - b|| / ||b||, it does not grow with the condition number.
    """
    system = assemble(problem, n)
    u = thomas_solve(system)
    res = np.max(np.abs(system.matvec(u) - system.rhs))
    off = np.abs(system.off)
    rows = np.abs(system.diag) + np.pad(off, (1, 0)) + np.pad(off, (0, 1))  # |A| row sums
    scale = np.max(rows) * np.max(np.abs(u)) + np.max(np.abs(system.rhs))
    if res > 1e-12 * scale:
        raise NumericalError(f"tridiagonal solve backward error {res / scale:.2e} exceeds 1e-12")
    return GridFunction(np.pad(u, 1))


def fem_operator_matrix(
    potential: PointFunction, n: int, input_m: int, output_m: int,
    domain: DomainSpec | None = None,
) -> ForwardOperator:
    """The level forward map: its Thomas solution columns, padded with the
    zero boundary rows, prolonged onto the output_m-node grid."""
    src_nodes = grid_nodes(input_m)
    # The load columns are the input grid's piecewise-linear basis.
    system = _galerkin_system(potential, lambda x: interpolation_matrix(src_nodes, x), n)
    u_cols = np.pad(thomas_solve(system), ((1, 1), (0, 0)))  # zero boundary rows
    return ForwardOperator(u_cols, domain or whole_space(), _prolongation(n + 2, output_m))


def make_fem_family(
    potential: PointFunction,
    levels: Sequence[int],
    input_m: int = 65,
    domain: DomainSpec | None = None,
) -> OperatorFamily:
    """Family of Galerkin forward maps with reference level n_ref = 16 max(levels) + 1.

    The studies rely on a reference substantially finer than every tested
    level; 16x the largest is that margin.
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
