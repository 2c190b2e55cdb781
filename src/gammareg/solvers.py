"""Minimization backends: closed form, projected gradient, vanishing-alpha ladder.

All gradients keep the discrete L2 geometry explicit. The coordinate
gradient of 0.5 ||Ax - y||_W^2 is A^T W (Ax - y); dividing by the input
weights gives the Riesz representative, which is what descent steps and
norm-ball projections use so that radial scaling is the exact metric
projection. One objective per problem, `TikhonovObjective`, reads the
operator's kept Gram A^T W A to model T for projected gradient.

`_closed_form` is the one place that forms and solves the normal equations:
of linear-quadratic problems that share one operator, alpha, penalty and
scale (a run of levels of a constant family, the one problem of
`solve_linear_quadratic`, or one rung of the minimum-penalty ladder), with
one factorization and a right side per problem; its docstring gives the
dual and primal paths. Every dense solve is refused, column by column, with
NumericalError unless its solution is finite and its relative residual is
at most 1e-10 (so a NaN residual is refused); so is a matrix numpy cannot
factor. Projected gradient runs on nodal arrays: it takes its values and
gradients from the objective, whose G x - b of an accepted step feeds the
next gradient, before each step is confirmed on the full formula, which
`grad_check` differentiates to check the gradient projected gradient follows.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    GridCompatibilityError,
    InconsistentDataError,
    NumericalError,
    UnsupportedPenaltyError,
)
from .functionals import TikhonovProblem, _power, eval_T
from .grids import GridFunction, NormTag, resample, trapezoid_weights, weighted_l2
from .operators import DomainSpec, ForwardOperator, _tridiagonal_times, membership

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
        if not self.grad_tol > 0.0:
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
    """T and its coordinate gradient on nodal values, through the kept Gram.

    With G = A^T W A (W the output weights) and b = A^T W y,
    ||A x - y||_W^2 = x^T (G x - b) - b^T x + ||y||_W^2 and
    A^T W (A x - y) = G x - b, so the model value and the gradient cost
    input_m^2 flops instead of output_m * input_m. `value_at` is T on the
    full formula, as `eval_T` computes it.
    """

    def __init__(self, problem: TikhonovProblem):
        op = problem.operator
        self.problem = problem
        self.w_in = trapezoid_weights(op.input_m)
        self.gram = op.gram()
        self.b = op.adjoint(trapezoid_weights(op.output_m) * problem.data_y.values)

    @functools.cached_property
    def y_sq(self) -> float:  # lazy: a p = 2 gradient never squares data near the float limit
        y = self.problem.data_y.values
        return float(y * y @ trapezoid_weights(self.problem.operator.output_m))

    def value_at(self, vals: np.ndarray) -> float:
        return self.problem.value_at(vals)

    def _misfit(self, vals: np.ndarray, half_sq: np.ndarray) -> float:
        """||A x - y||_W from x and its G x - b; rounding below 0 reads as 0."""
        return math.sqrt(max(float(vals @ (half_sq - self.b)) + self.y_sq, 0.0))

    def model_at(self, vals: np.ndarray) -> tuple[float, np.ndarray]:
        """The model value of T at vals, and the G x - b it was formed from."""
        gap = self.gram @ vals - self.b
        return self.problem._value(self._misfit(vals, gap), vals), gap

    def coordinate_gradient(self, vals: np.ndarray, gap: np.ndarray | None = None) -> np.ndarray:
        """The gradient at vals; `gap` is its G x - b when `model_at` already formed it."""
        pr, p = self.problem, self.problem.exponent_p
        if p <= 1.0:
            raise UnsupportedPenaltyError("discrepancy exponent p = 1 is not smooth")
        g = self.gram @ vals - self.b if gap is None else gap
        if p != 2.0:
            size = self._misfit(vals, g)
            g = _power(size, p - 2.0) * g if size > 0.0 else 0.0 * g
        if pr.alpha > 0.0:
            g = g + pr.alpha * pr.penalty.gradient_at(vals)
        return pr.scale * g


def _normal_matrix(gram: np.ndarray, alpha: float, w_in: np.ndarray, lam: float) -> np.ndarray:
    """lam (G + alpha W_X), a new array."""
    matrix = np.multiply(gram, lam)
    matrix.flat[:: w_in.size + 1] += lam * alpha * w_in
    return matrix


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


def _refusal(x: np.ndarray, gap: np.ndarray, rhs: np.ndarray) -> NumericalError | None:
    """The error refusing the first column j of x (a vector is one column) that is not
    finite or whose residual ||gap_j|| / ||rhs_j|| is not <= 1e-10, so a NaN residual is
    refused; None when every column passes. The error's `column` is j.

    gap_j and rhs_j are divided by max|rhs_j| before their norms are taken, so neither
    norm overflows while the entries of rhs are finite; ||rhs_j|| is floored at 1e-30.
    """
    x, gap, rhs = (a.reshape(len(a), -1) for a in (x, gap, rhs))
    peak = np.max(np.abs(rhs), axis=0)
    peak[peak == 0.0] = 1.0
    residuals = np.linalg.norm(gap / peak, axis=0)
    residuals /= np.maximum(np.linalg.norm(rhs / peak, axis=0), 1e-30)
    for j, (finite, residual) in enumerate(zip(np.isfinite(x).all(axis=0), residuals)):
        if not finite:
            error = NumericalError("normal equations solution is not finite")
        elif not residual <= 1e-10:
            error = NumericalError(f"normal equations residual {residual:.2e} exceeds 1e-10 relative")
        else:
            continue
        error.column = j
        return error
    return None


@np.errstate(invalid="ignore", over="ignore")  # a non-finite x is refused, not warned about
def _checked_solve(matrix: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x and its gap matrix x - rhs for matrix x = rhs, rhs one right side or a block of
    them; NumericalError refuses a column as `_refusal` judges it, and an unfactorable matrix."""
    try:
        x = np.linalg.solve(matrix, rhs)
    except np.linalg.LinAlgError as err:
        raise NumericalError(f"normal equations not solved: {err}") from None
    gap = matrix @ x - rhs
    error = _refusal(x, gap, rhs)
    if error is not None:
        raise error
    return x, gap


@np.errstate(invalid="ignore", over="ignore")  # a non-finite x is refused, not warned about
def _dual(op: ForwardOperator, alpha: float, lam: float, w_in: np.ndarray, pw: np.ndarray,
          x0: np.ndarray | None, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """x and its primal gap lam (G + alpha W_X) x - rhs, through the k core rows; None when
    the k x k system is singular or a column fails `_refusal`. See `_closed_form`."""
    c = op.core
    d, e = op._weight_bands()
    system = _tridiagonal_times(d, e, (c / w_in) @ c.T)
    system.flat[:: c.shape[0] + 1] += alpha
    r = pw if x0 is None else pw - _tridiagonal_times(d, e, c @ x0)[:, None]
    try:
        s = np.linalg.solve(system, r)
    except np.linalg.LinAlgError:
        return None
    x = (c.T @ s) / w_in[:, None]
    if x0 is not None:
        x += x0[:, None]
    gap = lam * (c.T @ _tridiagonal_times(d, e, c @ x) + alpha * w_in[:, None] * x) - rhs
    return None if _refusal(x, gap, rhs) else (x, gap)


def _closed_form(problems: Sequence[TikhonovProblem]) -> list[SolveResult]:
    """The minimizers of linear-quadratic problems that share one operator, alpha,
    penalty and scale lam, from one solve with a right side per problem.

    With A = P C, W the output weights, W_X the input weights, G = A^T W A and x0 the
    penalty shift on the input grid (or 0), problem j's minimizer x solves
    lam (G + alpha W_X) x = b_j, b_j = lam (A^T W y_j + alpha W_X x0); one block
    product forms every A^T W y_j.

    - **Dual**, when C has k < input_m rows and alpha > 0: s solves the k x k system
      (T K + alpha I) s = P^T W y_j - T C x0, with T = P^T W P and K = C W_X^-1 C^T,
      and x = x0 + W_X^-1 C^T s. That is exact, since
      (G + alpha W_X)(x - x0) = C^T (T K s + alpha s). The primal gap of x is formed
      through the factors, lam (C^T (T (C x)) + alpha W_X x) - b_j, with no input_m^2
      array and no Gram, and every column must pass the rule of `_checked_solve`.
    - **Primal** otherwise, and when a dual column fails that rule (the cancellation
      in C^T s costs about eps cond, which a small alpha makes large): the
      `_checked_solve` of lam (G + alpha W_X), G the operator's kept Gram.

    A refused column raises NumericalError whose `column` is its index.
    """
    head = problems[0]
    op, alpha, lam = head.operator, head.alpha, head.scale
    w_in = trapezoid_weights(op.input_m)
    wy = trapezoid_weights(op.output_m)[:, None] * np.column_stack(
        [pr.data_y.values for pr in problems]
    )
    pw = op.restrict(wy)
    rhs = op.core.T @ pw  # the adjoint A^T W y_j
    x0 = None if head.penalty.shift is None else resample(head.penalty.shift, op.input_m).values
    if x0 is not None:
        rhs += (alpha * w_in * x0)[:, None]
    rhs *= lam
    solved = None
    if alpha > 0.0 and op.core.shape[0] < op.input_m:
        solved = _dual(op, alpha, lam, w_in, pw, x0, rhs)
    if solved is None:
        solved = _checked_solve(_normal_matrix(op.gram(), alpha, w_in, lam), rhs)
    x, gap = solved
    results = []
    for j, problem in enumerate(problems):
        minimizer = GridFunction(x[:, j])
        value = eval_T(problem, minimizer)  # refuses a T that overflows before its gradient does
        grad = gap[:, j] / w_in  # the coordinate gradient of T is lam (G + alpha W_X) x - b
        results.append(SolveResult(minimizer, value, 1, "converged", weighted_l2(grad, w_in)))
    return results


def solve_linear_quadratic(problem: TikhonovProblem) -> SolveResult:
    """Closed-form minimizer: the `_closed_form` of the one problem, on the path
    that function's docstring gives. At alpha = 0 a rank-deficient operator
    yields an infeasible result instead of a spurious solution.
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
    return _closed_form([problem])[0]


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
    operator's kept Gram (`TikhonovObjective`), the one the closed form
    reads, and each candidate must pass the Armijo test on that model before
    the same test on T itself decides it, so every accepted step decreases T
    as `eval_T` computes it, and the value returned is that T.
    """
    if not problem.penalty.is_smooth and problem.alpha > 0.0:
        raise UnsupportedPenaltyError(
            "projected gradient needs a smooth penalty: the L2 tag and q >= 2"
        )
    if problem.exponent_p <= 1.0:
        raise UnsupportedPenaltyError("projected gradient needs p > 1")
    if x0.node_count != problem.operator.input_m:
        raise GridCompatibilityError("x0 must live on the operator input grid")
    if not membership(problem.operator.domain, x0):
        return SolveResult(x0, math.inf, 0, "infeasible", math.inf)

    x = x0.values.copy()
    f = eval_T(problem, x0)  # refuses a start where T overflows
    objective = TikhonovObjective(problem)
    w_in = objective.w_in
    f_model, gap = objective.model_at(x)
    iterations = 0
    grad_norm = math.inf

    for attempt in range(config.restarts + 1):
        step = _STEP0
        status = "max_iter"
        for _ in range(config.max_iter):
            g = objective.coordinate_gradient(x, gap) / w_in
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
                f_model_new, gap_new = objective.model_at(candidate)
                if f_model_new <= f_model - decrease and move > 0.0:
                    f_new = objective.value_at(candidate)
                    if f_new <= f - decrease:
                        x, f, f_model, gap = candidate, f_new, f_model_new, gap_new
                        accepted = True
                        step = min(t * 2.0, 1e6)
                        break
                t *= _SHRINK
            if not accepted:
                status = "stalled"
                break
        if status == "converged":
            break

    # f is T at x as `eval_T` computes it: at x0 by that call, later by the
    # full formula each accepted step passed
    return SolveResult(GridFunction(x), f, iterations, status, grad_norm)


def minimize_problem(problem: TikhonovProblem, config: SolveConfig = SolveConfig()) -> SolveResult:
    """Closed form when available, projected gradient from zero otherwise."""
    if problem.is_linear_quadratic:
        return solve_linear_quadratic(problem)
    return projected_gradient(problem, GridFunction(np.zeros(problem.operator.input_m)), config)


def min_penalty_solution(operator: ForwardOperator, y: GridFunction) -> GridFunction:
    """Minimum-L2-norm solution of F x = y via a vanishing-alpha ladder.

    Solves the problem at each of the three alpha rungs of `_LADDER` by
    `_closed_form` and Richardson-extrapolates them (the solution path is
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

    x1, x2, x3 = (_closed_form([TikhonovProblem(operator, y, alpha)])[0].minimizer.values
                  for alpha in _LADDER)
    ratio = _LADDER[1] / _LADDER[2]
    e12 = x2 + (x2 - x1) / (ratio - 1.0)
    e23 = x3 + (x3 - x2) / (ratio - 1.0)
    refined = e23 + (e23 - e12) / (ratio**2 - 1.0)
    return GridFunction(refined)


def grad_check(
    problem: TikhonovProblem, x: GridFunction, h_fd: float = 1e-5
) -> float:
    """Max deviation between analytic and central-difference gradients.

    The analytic gradient is the Gram gradient projected gradient follows;
    the differences are taken of T's full formula. Normalized by
    max(1, ||grad||_inf) so the figure reads as a relative error on
    well-scaled problems without blowing up near zero entries.
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
