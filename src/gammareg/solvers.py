"""Minimization backends: normal equations, projected gradient, pseudoinverse ladder.

All gradients keep the discrete L2 geometry explicit. The coordinate
gradient of 0.5 ||Ax - y||_W^2 is A^T W (Ax - y); dividing by the input
weights gives the Riesz representative, which is what descent steps and
norm-ball projections use so that radial scaling is the exact metric
projection. Both solvers read one description of an operator, its kept
Gram A^T W A: the closed form solves with it, and projected gradient
takes its values and gradients from it before each step is confirmed on
the full formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    GridCompatibilityError,
    InconsistentDataError,
    NumericalError,
    UnsupportedPenaltyError,
)
from .functionals import TikhonovProblem, _power, eval_T
from .grids import GridFunction, NormTag, trapezoid_weights, weighted_l2
from .operators import DomainSpec, ForwardOperator, membership

__all__ = [
    "SolveConfig",
    "SolveResult",
    "solve_linear_quadratic",
    "projected_gradient",
    "minimize_problem",
    "min_penalty_solution",
    "grad_check",
]


# Armijo backtracking of `projected_gradient`
_STEP0 = 1.0  # first trial step of each run
_SHRINK = 0.5  # factor applied to a rejected step
_SUFFICIENT_DECREASE = 1e-2
# Decreasing alpha rungs of `min_penalty_solution`, a constant ratio apart.
# Rungs below ~1e-7 would push the normal-equation condition number past
# the point where the solves keep enough digits to extrapolate.
_LADDER = (1e-3, 1e-5, 1e-7)


@dataclass(frozen=True)
class SolveConfig:
    max_iter: int = 500
    grad_tol: float = 1e-8
    restarts: int = 0

    def __post_init__(self):
        if self.max_iter < 1:
            raise GridCompatibilityError("max_iter must be at least 1")
        if self.grad_tol <= 0.0:
            raise GridCompatibilityError("grad_tol must be positive")
        if self.restarts < 0:
            raise GridCompatibilityError("restarts must be nonnegative")


@dataclass(frozen=True)
class SolveResult:
    minimizer: GridFunction
    value: float  # math.inf when infeasible
    iterations: int
    # converged | max_iter | stalled (no step passed the line search before
    # max_iter) | infeasible
    status: str
    grad_norm_final: float


class TikhonovObjective:
    """Value/gradient oracle for a Tikhonov problem on nodal coordinates."""

    def __init__(self, problem: TikhonovProblem):
        self.problem = problem
        self.w_out = trapezoid_weights(problem.operator.output_m)
        self.w_in = trapezoid_weights(problem.operator.input_m)

    def value_at(self, vals: np.ndarray) -> float:
        return self.problem.value_at(vals)

    def coordinate_gradient(self, vals: np.ndarray) -> np.ndarray:
        pr, op = self.problem, self.problem.operator
        if pr.exponent_p <= 1.0:
            raise UnsupportedPenaltyError("discrepancy exponent p = 1 is not smooth")
        r = op.forward(vals) - pr.data_y.values
        return _gradient(pr, vals, op.adjoint(self.w_out * r), lambda: weighted_l2(r, self.w_out))


def _gradient(
    problem: TikhonovProblem, vals: np.ndarray, half_sq: np.ndarray, misfit: Callable[[], float]
) -> np.ndarray:
    """Coordinate gradient of T from `half_sq`, that of 0.5 ||F x - y||_W^2.

    `misfit()` gives ||F x - y||_W; it is needed, and called, for p != 2 only.
    """
    p, g = problem.exponent_p, half_sq
    if p != 2.0:
        size = misfit()
        g = _power(size, p - 2.0) * g if size > 0.0 else 0.0 * g
    if problem.alpha > 0.0:
        g = g + problem.alpha * problem.penalty.coordinate_gradient(GridFunction(vals))
    return g


class _GramModel:
    """Value and gradient of T through the operator's kept Gram G = A^T W A.

    With b = A^T W y, ||A x - y||_W^2 = x^T (G x - b) - b^T x + ||y||_W^2 and
    A^T W (A x - y) = G x - b (W the output weights), so both cost input_m^2
    flops instead of output_m * input_m, from the Gram the closed form reads.
    """

    def __init__(self, objective: TikhonovObjective):
        pr = objective.problem
        y, w = pr.data_y.values, objective.w_out
        self.problem = pr
        self.gram = pr.operator.gram()
        self.b = pr.operator.adjoint(w * y)
        self.y_sq = float(y * y @ w)

    def _misfit(self, vals: np.ndarray, half_sq: np.ndarray) -> float:
        """||A x - y||_W from x and its G x - b; rounding below 0 reads as 0."""
        return math.sqrt(max(float(vals @ (half_sq - self.b)) + self.y_sq, 0.0))

    def value_at(self, vals: np.ndarray) -> float:
        return self.problem._value(self._misfit(vals, self.gram @ vals - self.b), vals)

    def coordinate_gradient(self, vals: np.ndarray) -> np.ndarray:
        half_sq = self.gram @ vals - self.b
        return _gradient(self.problem, vals, half_sq, lambda: self._misfit(vals, half_sq))


def _project(domain: DomainSpec, vals: np.ndarray, w_in: np.ndarray) -> np.ndarray:
    """Exact metric projection onto the domain in the weighted-L2 geometry."""
    if domain.nonneg:
        vals = np.maximum(vals, 0.0)
    if domain.radius == math.inf:
        return vals
    if domain.tag is NormTag.LINF:
        return np.clip(vals, -domain.radius, domain.radius)
    size = weighted_l2(vals, w_in)
    if size <= domain.radius:
        return vals
    # The scaled norm can round to a step above the radius; shrink the
    # factor until the norm, computed as `grids.norm` does, fits.
    scale = domain.radius / size
    out = vals * scale
    while weighted_l2(out, w_in) > domain.radius:
        scale = math.nextafter(scale, 0.0)
        out = vals * scale
    return out


def normal_equations(problem: TikhonovProblem) -> tuple[np.ndarray, np.ndarray]:
    """Gram matrix A^T W A + alpha W_X and right side A^T W y + alpha W_X x0.

    W and W_X are the trapezoid weights of the output and input grids; x0
    is the penalty shift on the input grid, or 0. A^T W A is the operator's
    kept Gram, formed on its first solve.
    """
    op, alpha = problem.operator, problem.alpha
    w_in = trapezoid_weights(op.input_m)
    gram = op.gram().copy()
    gram.flat[:: op.input_m + 1] += alpha * w_in
    rhs = op.adjoint(trapezoid_weights(op.output_m) * problem.data_y.values)
    if problem.penalty.shift is not None:
        rhs = rhs + alpha * w_in * problem.penalty._shift_on(op.input_m).values
    return gram, rhs


def _relative_residual(gram: np.ndarray, x: np.ndarray, rhs: np.ndarray) -> float:
    """||gram x - rhs|| / ||rhs||, with ||rhs|| floored at 1e-30.

    Both vectors are divided by max|rhs| before their norms are taken, so
    neither norm overflows while the entries of rhs are finite.
    """
    peak = float(np.max(np.abs(rhs))) or 1.0
    residual = float(np.linalg.norm((gram @ x - rhs) / peak))
    return residual / max(float(np.linalg.norm(rhs / peak)), 1e-30)


def solve_linear_quadratic(problem: TikhonovProblem) -> SolveResult:
    """Closed-form minimizer: solves the system of `normal_equations`.

    Verifies the relative residual of the solve; at alpha = 0 a
    rank-deficient operator yields an infeasible result instead of a
    spurious solution.
    """
    if not problem.is_linear_quadratic:
        raise UnsupportedPenaltyError(
            "normal equations need p = 2, a (shifted) half-squared-L2 penalty, "
            "and an unconstrained domain"
        )
    op = problem.operator
    # a prolongation onto a finer grid is injective, so P C has the rank of C
    if problem.alpha == 0.0 and np.linalg.matrix_rank(op.core) < op.input_m:
        zero = GridFunction(np.zeros(op.input_m))
        return SolveResult(zero, math.inf, 0, "infeasible", math.inf)

    gram, rhs = normal_equations(problem)
    x = np.linalg.solve(gram, rhs)
    residual = _relative_residual(gram, x, rhs)
    if residual > 1e-10:
        x = np.linalg.lstsq(gram, rhs, rcond=None)[0]
        residual = _relative_residual(gram, x, rhs)
        if residual > 1e-10:
            raise NumericalError(
                f"normal equations residual {residual:.2e} exceeds 1e-10 relative"
            )
    minimizer = GridFunction(x)
    value = eval_T(problem, minimizer)  # refuses a T that overflows before its gradient does
    w_in = trapezoid_weights(op.input_m)
    grad = (gram @ x - rhs) / w_in  # the coordinate gradient of T is gram x - rhs
    return SolveResult(minimizer, value, 1, "converged", weighted_l2(grad, w_in))


@np.errstate(over="ignore")  # a candidate that overflows is worth inf, and rejected
def projected_gradient(
    problem: TikhonovProblem,
    x0: GridFunction,
    config: SolveConfig = SolveConfig(),
) -> SolveResult:
    """Monotone projected gradient descent with Armijo backtracking.

    Smooth objectives only. Convergence is declared when the projected
    gradient norm drops below grad_tol; a line search that accepts no step
    ends the run early with status "stalled". Gradients come from the
    operator's kept Gram (`_GramModel`), the one the closed form reads, and
    each candidate must pass the Armijo test on that model before the same
    test on T itself decides it, so every accepted step decreases T as
    `eval_T` computes it.
    """
    if not problem.penalty.is_smooth and problem.alpha > 0.0:
        raise UnsupportedPenaltyError(
            "projected gradient needs a smooth penalty: the L2 tag and q >= 2"
        )
    if problem.exponent_p <= 1.0:
        raise UnsupportedPenaltyError("projected gradient needs p > 1")
    objective = TikhonovObjective(problem)
    if x0.node_count != problem.operator.input_m:
        raise GridCompatibilityError("x0 must live on the operator input grid")
    if not membership(problem.operator.domain, x0):
        return SolveResult(x0, math.inf, 0, "infeasible", math.inf)

    w_in = objective.w_in
    x = x0.values.copy()
    f = eval_T(problem, x0)  # refuses a start where T overflows
    model = _GramModel(objective)
    f_model = model.value_at(x)
    iterations = 0
    grad_norm = math.inf

    for attempt in range(config.restarts + 1):
        step = _STEP0
        status = "max_iter"
        for _ in range(config.max_iter):
            g = model.coordinate_gradient(x) / w_in
            moved = _project(problem.operator.domain, x - g, w_in)
            grad_norm = weighted_l2(x - moved, w_in)
            if grad_norm <= config.grad_tol:
                status = "converged"
                break
            iterations += 1
            accepted = False
            t = step
            while t > 1e-18:
                candidate = _project(problem.operator.domain, x - t * g, w_in)
                delta = candidate - x
                move = float(delta * delta @ w_in)
                decrease = _SUFFICIENT_DECREASE / max(t, 1e-30) * move
                f_model_new = model.value_at(candidate)
                if f_model_new <= f_model - decrease and move > 0.0:
                    f_new = objective.value_at(candidate)
                    if f_new <= f - decrease:
                        x, f, f_model = candidate, f_new, f_model_new
                        accepted = True
                        step = min(t * 2.0, 1e6)
                        break
                t *= _SHRINK
            if not accepted:
                status = "stalled"
                break
        if status == "converged":
            break

    minimizer = GridFunction(x)
    return SolveResult(
        minimizer,
        eval_T(problem, minimizer),
        iterations,
        status,
        grad_norm,
    )


def minimize_problem(problem: TikhonovProblem, config: SolveConfig = SolveConfig()) -> SolveResult:
    """Closed form when available, projected gradient from zero otherwise."""
    if problem.is_linear_quadratic:
        return solve_linear_quadratic(problem)
    return projected_gradient(problem, GridFunction(np.zeros(problem.operator.input_m)), config)


def min_penalty_solution(operator: ForwardOperator, y: GridFunction) -> GridFunction:
    """Minimum-L2-norm solution of F x = y via a vanishing-alpha ladder.

    Solves the regularized normal equations at the three alpha rungs of
    `_LADDER` and Richardson-extrapolates them (the solution path is
    analytic in alpha near zero). Refuses data outside the range of F:
    the least-squares residual must be below 1e-8.
    """
    a = operator.matrix
    sqrt_w = np.sqrt(trapezoid_weights(operator.output_m))
    x_ls = np.linalg.lstsq(sqrt_w[:, None] * a, sqrt_w * y.values, rcond=None)[0]
    ls_residual = float(np.linalg.norm(sqrt_w * (a @ x_ls - y.values)))
    if ls_residual > 1e-8:
        raise InconsistentDataError(
            f"y is not attainable: least-squares residual {ls_residual:.2e} > 1e-8"
        )

    x1, x2, x3 = (
        np.linalg.solve(*normal_equations(TikhonovProblem(operator, y, alpha)))
        for alpha in _LADDER
    )
    ratio = _LADDER[1] / _LADDER[2]
    e12 = x2 + (x2 - x1) / (ratio - 1.0)
    e23 = x3 + (x3 - x2) / (ratio - 1.0)
    refined = e23 + (e23 - e12) / (ratio**2 - 1.0)
    return GridFunction(refined)


def grad_check(
    problem: TikhonovProblem, x: GridFunction, h_fd: float = 1e-5
) -> float:
    """Max deviation between analytic and central-difference gradients.

    Normalized by max(1, ||grad||_inf) so the figure reads as a relative
    error on well-scaled problems without blowing up near zero entries.
    """
    objective = TikhonovObjective(problem)
    vals = x.values.astype(float)
    g = objective.coordinate_gradient(vals)
    fd = np.empty_like(g)
    for i in range(vals.size):
        bump = np.zeros_like(vals)
        bump[i] = h_fd
        fd[i] = (objective.value_at(vals + bump) - objective.value_at(vals - bump)) / (2 * h_fd)
    denom = max(1.0, float(np.max(np.abs(g))))
    return float(np.max(np.abs(fd - g))) / denom
