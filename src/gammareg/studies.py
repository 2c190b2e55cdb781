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

import itertools
import math
import numbers
from dataclasses import dataclass, replace
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
from .grids import GridFunction, _refuse_unindexable, norm, resample
from .operators import OperatorFamily, uniform_gap
from .solvers import SolveConfig, SolveResult, _closed_form, min_penalty_solution, minimize_problem

__all__ = [
    "ReportRow",
    "UniformGapReport",
    "uniform_gap_study",
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
_GAMMA_STABILIZATION_TOL = 1e-2  # last change across radii of a stable estimate
# C7's contractual bounds: identity residual, argmin distance, limit gap
_SCALING_IDENTITY_TOL = 1e-12
_SCALING_ARGMIN_TOL = 1e-8
_SCALING_LIMIT_TOL = 1e-8


@dataclass(frozen=True)
class ReportRow:
    """A level's value, or with level None the whole study's; a verdict row spells it."""

    study: str
    level: int | None
    metric: str
    value: float
    verdict: str = ""
    wall_time_ms: float = 0.0


def _verdict_word(verdict: bool | None) -> str:
    if verdict is None:
        return "diagnostic"
    return "pass" if verdict else "fail"


def _level_rows(kind: str, levels, **columns) -> list[ReportRow]:
    """One row per level and column: level by level, the columns in the order given."""
    return [ReportRow(kind, n, metric, value)
            for n, *values in zip(levels, *columns.values())
            for metric, value in zip(columns, values)]


def _solve(problem: TikhonovProblem, solver: SolveConfig, where: str) -> SolveResult:
    """Minimize `problem`; a NumericalError, or a status other than converged, raises
    NumericalError naming `where`."""
    try:
        result = minimize_problem(problem, solver)
    except NumericalError as err:
        raise NumericalError(f"solver failed at {where}: {err}") from None
    if result.status != "converged":
        raise NumericalError(f"solver failed at {where}: status {result.status}")
    return result


def _runs(seq: ApproxSequence) -> list[tuple[int, ...]]:
    """The levels in order, cut into runs: consecutive linear-quadratic levels whose
    problems share one operator object, alpha and penalty form one run, so one
    factorization solves them; every other level is a run of its own."""

    def system(n: int):
        pr = seq.problem_at(n)
        return (id(pr.operator), pr.alpha, id(pr.penalty)) if pr.is_linear_quadratic else n

    return [tuple(run) for _, run in itertools.groupby(seq.levels, system)]


def _solve_run(
    seq: ApproxSequence, levels: tuple[int, ...], solver: SolveConfig
) -> list[SolveResult]:
    """The converged solves of one run of `_runs`: a single level by `_solve`, several
    together by one `_closed_form`. A refused solve raises NumericalError naming its level."""
    if len(levels) == 1:
        return [_solve(seq.problem_at(levels[0]), solver, f"level {levels[0]}")]
    try:
        return _closed_form([seq.problem_at(n) for n in levels])
    except NumericalError as err:
        n = levels[getattr(err, "column", 0)]
        raise NumericalError(f"solver failed at level {n}: {err}") from None


def _sweep(seq: ApproxSequence, solver: SolveConfig) -> list[SolveResult]:
    """The converged solve of every level, in level order, run by run (`_solve_run`)."""
    return [res for levels in _runs(seq) for res in _solve_run(seq, levels, solver)]


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
class UniformGapReport:
    levels: tuple[int, ...]
    gaps: tuple[float, ...]
    verdict: bool

    def rows(self, kind: str) -> list[ReportRow]:
        return _level_rows(kind, self.levels, uniform_gap=self.gaps) + [
            ReportRow(kind, None, "final_gap", self.gaps[-1], _verdict_word(self.verdict)),
        ]


def uniform_gap_study(family: OperatorFamily, samples: Sequence[GridFunction]) -> UniformGapReport:
    """The uniform gap sup ||F_n(x) - F(x)|| over `samples` at each level of `family`.

    Verdict: the last gap is at most a quarter of the first, or at most 1e-12.
    """
    gaps = tuple(uniform_gap(family, n, samples) for n in family.levels)
    return UniformGapReport(tuple(family.levels), gaps,
                            gaps[-1] <= max(gaps[0] / 4.0, 1e-12))


@dataclass(frozen=True)
class InfConvergenceReport:
    levels: tuple[int, ...]
    inf_values: tuple[float, ...]
    reference_min: float
    gaps: tuple[float, ...]
    minimizer_distances: tuple[float, ...]
    verdict: bool

    def rows(self, kind: str) -> list[ReportRow]:
        return _level_rows(kind, self.levels, inf_value=self.inf_values, gap=self.gaps,
                           min_distance=self.minimizer_distances) + [
            ReportRow(kind, None, "reference_min", self.reference_min),
            ReportRow(kind, None, "final_gap", self.gaps[-1], _verdict_word(self.verdict)),
        ]


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
    results = _sweep(seq, solver)
    inf_values = [res.value for res in results]
    gaps = [abs(v - ref.value) for v in inf_values]
    distances = [norm(res.minimizer - ref.minimizer) for res in results]
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

    def rows(self, kind: str) -> list[ReportRow]:
        return (
            _level_rows(kind, self.levels, eps=self.eps_values, chain_value=self.chain_values,
                        certified=map(float, self.certified))
            + _level_rows(kind, self.levels[1:], step_distance=self.step_distances)
            + [
                ReportRow(kind, None, "cluster_found", float(self.cluster_found)),
                ReportRow(kind, None, "exact_value_at_cluster", self.exact_value_at_cluster),
                ReportRow(kind, None, "final_value_gap", self.final_value_gap,
                          _verdict_word(self.verdict)),
            ]
        )


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
    eps_values = [eps_at(n) for n in seq.levels]
    if not all(eps > 0.0 for eps in eps_values):
        raise GridCompatibilityError("eps sequence must stay positive")
    results = _sweep(seq, solver)
    xs = [res.minimizer for res in results]
    values = [res.value for res in results]
    certified = [is_eps_minimizer(v, v, eps) for v, eps in zip(values, eps_values)]
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

    @property
    def verdict(self) -> bool:
        """The certified number is the lower (liminf-side) estimate; the upper side is
        aliasing-prone on a fixed grid and stays diagnostic."""
        return self.lower_stabilized

    def rows(self, kind: str) -> list[ReportRow]:
        # `:g` when it reads back as the radius, else repr: distinct radii, distinct labels
        labels = [f"{r:g}" if float(f"{r:g}") == r else repr(r) for r in self.radii]
        rows = [ReportRow(kind, None, f"{side}@r={label}", value)
                for label, lo, up in zip(labels, self.lower_by_radius, self.upper_by_radius)
                for side, value in (("lower", lo), ("upper", up))]
        return rows + [
            ReportRow(kind, None, "estimate", self.estimate, _verdict_word(self.verdict)),
            ReportRow(kind, None, "upper_stabilized", float(self.upper_stabilized),
                      "diagnostic"),
            ReportRow(kind, None, "limit_gap", self.gap),
        ]


def _neighborhood(grid: np.ndarray, point: float, r: float) -> slice:
    """The grid nodes x with |x - point| < r, as a slice: on a strictly increasing
    grid they are one run of nodes.

    Refuses (ResolutionError) a neighborhood that resolves fewer than two
    grid nodes.
    """
    near = np.flatnonzero(np.abs(grid - point) < r)
    if near.size < 2:
        raise ResolutionError(f"radius {r:g} resolves fewer than two grid nodes near {point:g}")
    return slice(near[0], near[-1] + 1)


def _gamma_tail(index_window: int, grid_m: int) -> range:
    """The last half of the indices 1 ... index_window. A (tail x grid_m) block of
    values that numpy cannot index raises MemoryError, as one too large to allocate does.
    The estimator forms only the largest neighborhood's columns; this guard bounds the
    worst case, a neighborhood that covers the grid, so `StudySpec.grid` can apply it
    before any neighborhood is known."""
    _refuse_unindexable(index_window // 2 * grid_m,
                        f"index_window = {index_window} on {grid_m} grid nodes: its tail is")
    return range(index_window - index_window // 2 + 1, index_window + 1)


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

    `family(j, x)` returns f_j at each node of x, pointwise: f_j(x_i) does not
    depend on the other nodes of x. Gamma-limits are local, so the family is
    called once per tail index on the nodes of the largest neighborhood only,
    and non-finite values elsewhere on the grid are never seen. A result that is
    not one value a node is refused.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 3 or np.any(np.diff(grid) <= 0):
        raise GridCompatibilityError("grid must be a 1D strictly increasing array")
    if not (grid[0] < point < grid[-1]):
        raise GridCompatibilityError("point must lie inside the grid")
    radii = [float(r) for r in radii]
    if not radii or any(not 0.0 < r for r in radii) or any(
        not b < a for a, b in zip(radii, radii[1:])
    ):
        raise GridCompatibilityError("radii must be positive and strictly decreasing")
    if not (isinstance(index_window, numbers.Integral) and index_window >= 2):
        raise GridCompatibilityError("index window must be an integer of at least 2")

    tail = _gamma_tail(index_window, grid.size)
    # radii decrease, so every neighborhood lies inside the largest one
    sub = grid[_neighborhood(grid, point, radii[0])]
    values = np.stack([np.asarray(family(j, sub), dtype=float) for j in tail])
    if values.shape != (len(tail), sub.size):
        raise GridCompatibilityError(
            f"family returned shape {values.shape[1:]} on {sub.size} nodes, not one value a node")
    if not np.all(np.isfinite(values)):
        raise NumericalError(f"family returned non-finite values within {radii[0]:g} of {point:g}")

    lower_by_radius, upper_by_radius = [], []
    for r in radii:
        neigh_inf = values[:, _neighborhood(sub, point, r)].min(axis=1)
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
        (tail.start, index_window),
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

    def rows(self, kind: str) -> list[ReportRow]:
        witness = [] if self.witness_bound is None else [
            ReportRow(kind, None, "witness_bound", self.witness_bound)]
        return [
            ReportRow(kind, None, "delta", self.delta),
            ReportRow(kind, None, "antecedent_hits", float(self.antecedent_hits)),
            ReportRow(kind, None, "violations", float(len(self.violations))),
            *witness,
            ReportRow(kind, None, "inclusion_holds", float(self.verdict),
                      _verdict_word(self.verdict)),
        ]


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
    # Omega and every T_n judge each sample on the input grid, where T_n evaluates it
    samples = [resample(x, seq.target.operator.input_m) for x in samples]
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
        witness = max(norm(res.minimizer) for res in _sweep(seq, solver))
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

    def rows(self, kind: str) -> list[ReportRow]:
        return _level_rows(kind, self.levels, alpha=self.alphas, noise_ratio=self.noise_ratios,
                           operator_ratio=self.operator_ratios,
                           distance_to_min_penalty=self.distances,
                           omega_gap=self.omega_gaps) + [
            ReportRow(kind, None, "final_distance", self.distances[-1],
                      _verdict_word(self.verdict)),
        ]


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
    results = _sweep(seq, solver)
    distances = [norm(res.minimizer - x_dagger) for res in results]
    omega_gaps = [abs(penalty.evaluate(res.minimizer) - omega_dagger) for res in results]
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

    Each scaled level is its own problem, `TikhonovProblem` with scale lam_n, minimized
    by `_solve` as every level is, so the scaled infimum comes from an independent
    solve of lam_n (G + alpha W_X) x = lam_n b_n, not from multiplying the unscaled
    value, and the identity check has teeth. Limits are estimated by two-point 1/n
    extrapolation; the scaled limit must equal lam * (unscaled limit). Zero or
    infinite scalings are unsupported.
    """
    if not (0.0 < lam_limit < math.inf):
        raise GridCompatibilityError("scaling limit must be positive and finite")
    if not seq.target.is_linear_quadratic:
        raise UnsupportedPenaltyError("scaling check uses the closed-form solver")

    levels = seq.levels
    lambdas = [float(lam_at(n)) for n in levels]
    if not all(0.0 < lam < math.inf for lam in lambdas):
        raise GridCompatibilityError("per-level scaling must be positive and finite")
    values, scaled_values, residuals, distances = [], [], [], []
    for n, lam, res in zip(levels, lambdas, _sweep(seq, solver)):
        level = seq.problem_at(n)
        scaled = _solve(replace(level, scale=lam * level.scale), solver, f"scaled level {n}")
        values.append(res.value)
        scaled_values.append(scaled.value)
        residuals.append(abs(lam * res.value - scaled.value) / max(1.0, abs(scaled.value)))
        distances.append(norm(scaled.minimizer - res.minimizer))

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
