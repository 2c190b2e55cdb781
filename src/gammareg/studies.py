"""Desk-scale audits of variational convergence for Tikhonov sequences.

Each study turns one piece of the Gamma-convergence story into a finite
computation with an explicit verdict: convergence of infima, behavior
of epsilon-minimizer chains, direct neighborhood-infimum estimation of
Gamma-limits, the equi-coercivity inclusion, the vanishing-alpha limit
toward minimum-penalty solutions, and invariance under positive scaling.

Everything here works on fixed grids, so statements about topologies
collapse to norm statements (finite-dimensional collapse): every study
measures in a norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    GridCompatibilityError,
    NumericalError,
    ResolutionError,
    StudyRefusal,
    UnsupportedPenaltyError,
)
from .functionals import ApproxSequence, TikhonovProblem, eval_T, eval_Tn, is_eps_minimizer
from .grids import GridFunction, norm
from .solvers import (
    SolveConfig,
    SolveResult,
    min_penalty_solution,
    minimize_problem,
    normal_equations,
)

__all__ = [
    "InfConvergenceReport",
    "inf_convergence_study",
    "EpsChainReport",
    "eps_minimizer_chain",
    "GammaEstimate",
    "estimate_gamma_limits",
    "CoercivityProbe",
    "equi_coercivity_probe",
    "AlphaZeroReport",
    "alpha_zero_study",
    "ScalingReport",
    "scaling_invariance_check",
    "richardson_limit",
]

# Contractual default tolerances of the study verdicts; `config` reads them too.
INF_STUDY_TOL = 1e-6  # final gap |inf T_n - min T|
ALPHA_ZERO_TOL = 1e-3  # final distance to the minimum-penalty solution
EPS_CHAIN_TOL = 1e-4  # |T(cluster) - last chain value|

_TAIL_SLACK = 0.1  # multiplicative slack per step of a tail-monotone sequence
_GAMMA_TAIL_FRACTION = 0.5  # share of the index window that is the tail
_GAMMA_STABILIZATION_TOL = 1e-2  # last change across radii of a stable estimate
# C7's contractual bounds: identity residual, argmin distance, limit gap
_SCALING_IDENTITY_TOL = 1e-12
_SCALING_ARGMIN_TOL = 1e-8
_SCALING_LIMIT_TOL = 1e-8


def _solve(problem: TikhonovProblem, solver: SolveConfig, where: str) -> SolveResult:
    """Minimize `problem`; a status other than converged raises NumericalError."""
    result = minimize_problem(problem, solver)
    if result.status != "converged":
        raise NumericalError(f"solver failed at {where}: status {result.status}")
    return result


def _tail_monotone(values: Sequence[float], tail: int = 3) -> bool:
    window = list(values[-tail:])
    return all(b <= a * (1.0 + _TAIL_SLACK) for a, b in zip(window, window[1:]))


def richardson_limit(levels: Sequence[int], values: Sequence[float]) -> float:
    """Two-point extrapolation of v(n) = L + c/n from the last two levels."""
    if len(levels) < 2:
        return float(values[-1])
    n1, n2 = float(levels[-2]), float(levels[-1])
    v1, v2 = float(values[-2]), float(values[-1])
    return v2 + (v2 - v1) * (1.0 / n2) / (1.0 / n1 - 1.0 / n2)


@dataclass(frozen=True)
class InfConvergenceReport:
    levels: tuple[int, ...]
    inf_values: tuple[float, ...]
    reference_min: float
    gaps: tuple[float, ...]
    minimizer_distances: tuple[float, ...]
    verdict: bool


def inf_convergence_study(
    seq: ApproxSequence,
    solver: SolveConfig = SolveConfig(),
    tol: float = INF_STUDY_TOL,
) -> InfConvergenceReport:
    """Check inf T_n -> min T against a reference solve.

    Verdict: final gap <= tol and gaps non-increasing over the last
    three levels, each step allowed a multiplicative slack of 10%. A solve
    that does not converge, of the reference or of a level, raises
    NumericalError naming where it failed.
    """
    ref = _solve(seq.target, solver, "reference")
    inf_values, gaps, distances = [], [], []
    for n in seq.levels:
        res = _solve(seq.problem_at(n), solver, f"level {n}")
        inf_values.append(res.value)
        gaps.append(abs(res.value - ref.value))
        distances.append(norm(res.minimizer - ref.minimizer))
    verdict = gaps[-1] <= tol and _tail_monotone(gaps)
    return InfConvergenceReport(
        tuple(seq.levels),
        tuple(inf_values),
        ref.value,
        tuple(gaps),
        tuple(distances),
        verdict,
    )


@dataclass(frozen=True)
class EpsChainReport:
    levels: tuple[int, ...]
    eps_values: tuple[float, ...]
    chain_values: tuple[float, ...]
    certified: tuple[bool, ...]
    step_distances: tuple[float, ...]
    cluster_found: bool
    cluster_point: GridFunction | None
    exact_value_at_cluster: float
    final_value_gap: float
    verdict: bool | None


def eps_minimizer_chain(
    seq: ApproxSequence,
    eps_at: Callable[[int], float] | None = None,
    solver: SolveConfig = SolveConfig(),
    value_gap_tol: float = EPS_CHAIN_TOL,
    cauchy_tol: float = 1e-3,
    tail: int = 3,
) -> EpsChainReport:
    """Follow eps_n-minimizers x_n of T_n and test their cluster point.

    Produces certified eps-minimizers level by level, detects a cluster
    point through a Cauchy criterion on the chain tail, and compares
    T(cluster) with the last chain value. A missing Cauchy tail is a
    diagnostic (verdict None), not a failure.
    """
    eps_at = eps_at or (lambda n: 1.0 / n)
    xs, values, eps_values, certified = [], [], [], []
    for n in seq.levels:
        eps = eps_at(n)
        if eps <= 0.0:
            raise GridCompatibilityError("eps sequence must stay positive")
        res = _solve(seq.problem_at(n), solver, f"level {n}")
        xs.append(res.minimizer)
        values.append(res.value)
        eps_values.append(eps)
        certified.append(is_eps_minimizer(res.value, res.value, eps))
    steps = tuple(norm(b - a) for a, b in zip(xs, xs[1:]))
    tail_pts = xs[-tail:]
    spread = max(
        (norm(b - a) for i, a in enumerate(tail_pts) for b in tail_pts[i + 1 :]),
        default=math.inf,
    )
    cluster_found = spread <= cauchy_tol
    cluster = xs[-1]
    exact_value = eval_T(seq.target, cluster)
    final_gap = abs(exact_value - values[-1])
    verdict = None if not cluster_found else final_gap <= value_gap_tol
    return EpsChainReport(
        tuple(seq.levels),
        tuple(eps_values),
        tuple(values),
        tuple(certified),
        steps,
        cluster_found,
        cluster,
        exact_value,
        final_gap,
        verdict,
    )


@dataclass(frozen=True)
class GammaEstimate:
    """Neighborhood-infimum estimates of lower/upper Gamma-limits at a point.

    `lower`/`upper` are the tail liminf/limsup of the neighborhood
    infima at the smallest radius; the per-radius tables let callers
    inspect how the estimate stabilized as neighborhoods shrank. The
    conservative point estimate is the lower value.
    """

    point: float
    radii: tuple[float, ...]
    lower_by_radius: tuple[float, ...]
    upper_by_radius: tuple[float, ...]
    lower: float
    upper: float
    lower_stabilized: bool
    upper_stabilized: bool
    tail_range: tuple[int, int]

    @property
    def estimate(self) -> float:
        return self.lower

    @property
    def gap(self) -> float:
        return self.upper - self.lower


def _neighborhood(grid: np.ndarray, point: float, r: float) -> np.ndarray:
    """Mask of the grid nodes x with |x - point| < r.

    Refuses (ResolutionError) a neighborhood that resolves fewer than two
    grid nodes.
    """
    mask = np.abs(grid - point) < r
    if int(mask.sum()) < 2:
        raise ResolutionError(f"radius {r:g} resolves fewer than two grid nodes near {point:g}")
    return mask


def estimate_gamma_limits(
    family: Callable[[int, np.ndarray], np.ndarray],
    grid: np.ndarray,
    point: float,
    radii: Sequence[float],
    index_window: int,
) -> GammaEstimate:
    """Estimate Gamma-liminf/limsup of f_j at a point on a fixed 1D grid.

    For each radius r the open neighborhood infimum inf_{|x' - x| < r}
    f_j(x') is computed over the tail of the index window; the tail
    minimum and maximum estimate liminf and limsup, and the supremum
    over shrinking radii is reported as the smallest-radius value with
    a stabilization flag. Neighborhoods that resolve fewer than two
    grid nodes are refused.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 3 or np.any(np.diff(grid) <= 0):
        raise GridCompatibilityError("grid must be a 1D strictly increasing array")
    if not (grid[0] < point < grid[-1]):
        raise GridCompatibilityError("point must lie inside the grid")
    radii = [float(r) for r in radii]
    if not radii or any(r <= 0 for r in radii) or any(
        b >= a for a, b in zip(radii, radii[1:])
    ):
        raise GridCompatibilityError("radii must be positive and strictly decreasing")
    if index_window < 2:
        raise GridCompatibilityError("index window must cover at least two indices")

    tail_start = max(1, index_window - int(index_window * _GAMMA_TAIL_FRACTION) + 1)
    tail = range(tail_start, index_window + 1)
    values = np.stack([np.asarray(family(j, grid), dtype=float) for j in tail])
    if not np.all(np.isfinite(values)):
        raise NumericalError("family returned non-finite values on the grid")

    lower_by_radius, upper_by_radius = [], []
    for r in radii:
        # on a strictly increasing grid the neighborhood is one run of nodes: a slice
        near = np.flatnonzero(_neighborhood(grid, point, r))
        neigh_inf = values[:, near[0] : near[-1] + 1].min(axis=1)
        lower_by_radius.append(float(neigh_inf.min()))
        upper_by_radius.append(float(neigh_inf.max()))

    def stabilized(seq_vals: list[float]) -> bool:
        if len(seq_vals) < 2:
            return False
        return abs(seq_vals[-1] - seq_vals[-2]) <= _GAMMA_STABILIZATION_TOL

    return GammaEstimate(
        float(point),
        tuple(radii),
        tuple(lower_by_radius),
        tuple(upper_by_radius),
        lower_by_radius[-1],
        upper_by_radius[-1],
        stabilized(lower_by_radius),
        stabilized(upper_by_radius),
        (tail_start, index_window),
    )


@dataclass(frozen=True)
class CoercivityProbe:
    delta: float
    levels: tuple[int, ...]
    thresholds: tuple[float, ...]
    samples_checked: int
    antecedent_hits: int
    violations: tuple[tuple[int, int, float], ...]
    witness_bound: float | None
    verdict: bool


def equi_coercivity_probe(
    seq: ApproxSequence,
    samples: Sequence[GridFunction],
    thresholds: Sequence[float],
    solver: SolveConfig = SolveConfig(),
) -> CoercivityProbe:
    """Audit the inclusion {T_n <= t} within {Omega <= t/delta}.

    delta is the uniform lower bound on the alpha_n; schedules tending
    to zero are refused because no such delta exists. When the target is
    linear-quadratic the probe also reports the boundedness witness of
    the minimizer sequence (the mild-coercivity route).
    """
    if seq.alpha_limit <= 0.0:
        raise StudyRefusal(
            "equi-coercivity needs alpha_n >= delta > 0 for some delta; "
            "the supplied schedule tends to alpha = 0"
        )
    delta = min([seq.alpha_limit] + [seq.alpha_at(n) for n in seq.levels])
    omegas = [seq.target.penalty.evaluate(x) for x in samples]  # Omega does not depend on n
    violations = []
    hits = 0
    for n in seq.levels:
        for i, (x, omega) in enumerate(zip(samples, omegas)):
            value = eval_Tn(seq, n, x)
            for t in thresholds:
                if value <= t:
                    hits += 1
                    if omega > t / delta:
                        violations.append((n, i, float(t)))

    witness = None
    if seq.target.is_linear_quadratic:
        witness = max(
            norm(_solve(seq.problem_at(n), solver, f"level {n}").minimizer) for n in seq.levels
        )
    return CoercivityProbe(
        delta,
        tuple(seq.levels),
        tuple(float(t) for t in thresholds),
        len(samples),
        hits,
        tuple(violations),
        witness,
        not violations,
    )


@dataclass(frozen=True)
class AlphaZeroReport:
    levels: tuple[int, ...]
    alphas: tuple[float, ...]
    noise_ratios: tuple[float, ...]
    operator_ratios: tuple[float, ...]
    distances: tuple[float, ...]
    omega_gaps: tuple[float, ...]
    x_dagger: GridFunction
    verdict: bool


def alpha_zero_study(
    seq: ApproxSequence,
    solver: SolveConfig = SolveConfig(),
    tol: float = ALPHA_ZERO_TOL,
) -> AlphaZeroReport:
    """Vanishing-alpha limit toward the minimum-penalty solution.

    Requires a target with alpha = 0 and attainable data. The decay
    hypotheses ||y_n - y|| / alpha_n^(1/p) -> 0 and
    ||F_n(x') - F(x')|| / alpha_n^(1/p) -> 0 at the minimum-penalty
    solution x' are measured; schedules whose measured ratios fail to
    decrease across the window are refused with the numbers in hand.
    Since alpha_n > 0, the scaled functional (1/alpha_n) T_n shares its
    minimizers with T_n, so levels are solved directly.
    """
    if seq.target.alpha != 0.0:
        raise GridCompatibilityError("alpha-zero study needs a target with alpha = 0")
    p = seq.target.exponent_p
    x_dagger = min_penalty_solution(seq.target.operator, seq.target.data_y)
    f_ref = seq.target.operator.apply(x_dagger)

    levels = seq.levels
    alphas = [seq.alpha_at(n) for n in levels]
    noise_ratios, op_ratios = [], []
    for n, alpha in zip(levels, alphas):
        scale = alpha ** (1.0 / p)
        noise_ratios.append(norm(seq.data_at(n) - seq.target.data_y) / scale)
        op_ratios.append(norm(seq.family.operator_at(n).apply(x_dagger) - f_ref) / scale)

    for label, ratios in (("noise", noise_ratios), ("operator", op_ratios)):
        if ratios[-1] > 1e-12 and ratios[-1] >= ratios[0] * (1.0 - 1e-9):
            raise StudyRefusal(
                f"{label} ratio fails to decay: "
                f"{ratios[0]:.3e} at n={levels[0]} vs {ratios[-1]:.3e} at n={levels[-1]}"
            )

    penalty = seq.target.penalty
    omega_dagger = penalty.evaluate(x_dagger)
    distances, omega_gaps = [], []
    for n in levels:
        res = _solve(seq.problem_at(n), solver, f"level {n}")
        distances.append(norm(res.minimizer - x_dagger))
        omega_gaps.append(abs(penalty.evaluate(res.minimizer) - omega_dagger))
    return AlphaZeroReport(
        tuple(levels),
        tuple(alphas),
        tuple(noise_ratios),
        tuple(op_ratios),
        tuple(distances),
        tuple(omega_gaps),
        x_dagger,
        distances[-1] <= tol,
    )


@dataclass(frozen=True)
class ScalingReport:
    levels: tuple[int, ...]
    lambdas: tuple[float, ...]
    inf_values: tuple[float, ...]
    scaled_inf_values: tuple[float, ...]
    identity_residuals: tuple[float, ...]
    argmin_distances: tuple[float, ...]
    unscaled_limit: float
    scaled_limit: float
    lam_limit: float
    identity_ok: bool
    limit_ok: bool
    verdict: bool


def scaling_invariance_check(
    seq: ApproxSequence,
    lam_at: Callable[[int], float],
    lam_limit: float,
    solver: SolveConfig = SolveConfig(),
) -> ScalingReport:
    """Positive scalings: inf(lam_n T_n) = lam_n inf(T_n), argmin fixed.

    The scaled infimum is computed through an independent solve of the
    scaled normal equations, not by multiplying the unscaled value, so
    the identity check has teeth. Limits are estimated by two-point 1/n
    extrapolation; the scaled limit must equal lam * (unscaled limit).
    Zero or infinite scalings are unsupported.
    """
    if not (0.0 < lam_limit < math.inf):
        raise GridCompatibilityError("scaling limit must be positive and finite")
    if not seq.target.is_linear_quadratic:
        raise UnsupportedPenaltyError("scaling check uses the closed-form solver")

    levels = seq.levels
    lambdas, values, scaled_values = [], [], []
    residuals, distances = [], []
    for n in levels:
        lam = float(lam_at(n))
        if not (0.0 < lam < math.inf):
            raise GridCompatibilityError("per-level scaling must be positive and finite")
        problem = seq.problem_at(n)
        res = _solve(problem, solver, f"level {n}")
        gram, rhs = normal_equations(problem)
        x_scaled = np.linalg.solve(lam * gram, lam * rhs)
        v_scaled = lam * problem.value_at(x_scaled)
        lambdas.append(lam)
        values.append(res.value)
        scaled_values.append(v_scaled)
        residuals.append(abs(lam * res.value - v_scaled) / max(1.0, abs(v_scaled)))
        distances.append(norm(GridFunction(x_scaled) - res.minimizer))

    unscaled_limit = richardson_limit(levels, values)
    scaled_limit = richardson_limit(levels, scaled_values)
    identity_ok = (
        max(residuals) <= _SCALING_IDENTITY_TOL and max(distances) <= _SCALING_ARGMIN_TOL
    )
    limit_gap = abs(scaled_limit - lam_limit * unscaled_limit)
    limit_ok = limit_gap <= _SCALING_LIMIT_TOL * max(1.0, abs(scaled_limit))
    return ScalingReport(
        tuple(levels),
        tuple(lambdas),
        tuple(values),
        tuple(scaled_values),
        tuple(residuals),
        tuple(distances),
        unscaled_limit,
        scaled_limit,
        lam_limit,
        identity_ok,
        limit_ok,
        identity_ok and limit_ok,
    )
