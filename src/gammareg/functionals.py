"""Tikhonov functionals, penalties, and their approximating sequences.

The functional is T(x) = (1/p) ||F(x) - y||^p + alpha * Omega(x) on the
feasible domain and +infinity outside it. Approximations T_n replace F,
y, alpha by level-n versions. T takes values in [0, +inf], so evaluation
returns a float, math.inf outside the domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GridCompatibilityError, UnsupportedPenaltyError
from .grids import (
    GridFunction,
    NormTag,
    from_callable,
    nodal_norm,
    norm,
    resample,
    trapezoid_weights,
    weighted_l2,
)
from .operators import DomainSpec, ForwardOperator, OperatorFamily, membership

__all__ = [
    "PenaltySpec",
    "half_sq_l2",
    "p_power_norm",
    "linf_penalty",
    "shifted_half_sq",
    "TikhonovProblem",
    "AlphaSchedule",
    "NoiseSchedule",
    "ApproxSequence",
    "make_approx_sequence",
    "noise_direction",
    "eval_T",
    "eval_Tn",
    "is_eps_minimizer",
]

# The schedule kinds; the config reads its choices from these same tuples.
ALPHA_KINDS = ("constant", "power")
NOISE_KINDS = ("none", "power", "seeded")
NOISE_DIRECTIONS = ("oscillatory", "constant")


@dataclass(frozen=True)
class PenaltySpec:
    """Omega(x) = (1/q) ||x - x0||_tag^q, finite q >= 1; x0 is the shift, 0 without one.

    A shift on another grid than x is resampled onto x's grid. Omega is +inf
    where (1/q) ||.||^q overflows the floats. It is smooth, and has a coordinate
    gradient, for the L2 tag and q >= 2. `value_at` and `gradient_at` take
    nodal values; `evaluate` and `coordinate_gradient` are the same on a
    grid function.
    """

    q: float = 2.0
    tag: NormTag = NormTag.L2
    shift: GridFunction | None = None

    def __post_init__(self):
        if not 1.0 <= self.q < math.inf:
            raise UnsupportedPenaltyError("penalty needs q >= 1 and finite")

    @property
    def is_smooth(self) -> bool:
        return self.tag is NormTag.L2 and self.q >= 2.0

    def _offset(self, vals: np.ndarray) -> np.ndarray:
        return vals if self.shift is None else vals - resample(self.shift, vals.size).values

    def value_at(self, vals: np.ndarray) -> float:
        return _power(nodal_norm(self._offset(vals), self.tag), self.q) / self.q

    def gradient_at(self, vals: np.ndarray) -> np.ndarray:
        """Gradient with respect to the nodal values (not the L2 metric)."""
        if not self.is_smooth:
            raise UnsupportedPenaltyError(
                f"penalty (1/q) ||x||_{self.tag.value}^q with q = {self.q:g} is not smooth"
            )
        d = self._offset(vals)
        grad = trapezoid_weights(vals.size) * d
        return grad if self.q == 2.0 else nodal_norm(d) ** (self.q - 2.0) * grad

    def evaluate(self, x: GridFunction) -> float:
        return self.value_at(x.values)

    def coordinate_gradient(self, x: GridFunction) -> np.ndarray:
        return self.gradient_at(x.values)


def half_sq_l2() -> PenaltySpec:
    return PenaltySpec()


def p_power_norm(q: float, tag: NormTag = NormTag.L2) -> PenaltySpec:
    return PenaltySpec(q, tag)


def linf_penalty() -> PenaltySpec:
    return PenaltySpec(1.0, NormTag.LINF)


def shifted_half_sq(x0: GridFunction) -> PenaltySpec:
    return PenaltySpec(shift=x0)


@dataclass(frozen=True)
class TikhonovProblem:
    """Target functional: operator, data, finite alpha >= 0 and exponent p >= 1;
    +inf off operator.domain.

    `scale` is a positive finite factor lam of the whole functional: the problem is
    lam * T, which has T's minimizers and lam times its values and gradients.
    """

    operator: ForwardOperator
    data_y: GridFunction
    alpha: float
    exponent_p: float = 2.0
    penalty: PenaltySpec = field(default_factory=half_sq_l2)
    scale: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.alpha < math.inf:
            raise GridCompatibilityError("alpha must be nonnegative and finite")
        if not 1.0 <= self.exponent_p < math.inf:
            raise GridCompatibilityError("discrepancy exponent p must be >= 1 and finite")
        if not 0.0 < self.scale < math.inf:
            raise GridCompatibilityError("scale must be positive and finite")
        if self.data_y.node_count != self.operator.output_m:
            raise GridCompatibilityError("data must live on the operator output grid")

    @property
    def is_linear_quadratic(self) -> bool:
        """Solvable in closed form by the normal equations."""
        return linear_quadratic(self.exponent_p, self.penalty, self.operator.domain)

    def value_at(self, vals: np.ndarray) -> float:
        """T at nodal values on the operator's input grid, domain not checked."""
        op = self.operator
        residual = op.forward(vals)  # a new array, so the data is taken off in place
        residual -= self.data_y.values
        return self._value(weighted_l2(residual, trapezoid_weights(op.output_m)), vals)

    def _value(self, misfit: float, vals: np.ndarray) -> float:
        """T at nodal values whose weighted misfit ||F x - y||_W is `misfit`."""
        p = self.exponent_p
        value = _power(misfit, p) / p
        if self.alpha > 0.0:
            value += self.alpha * self.penalty.value_at(vals)
        return self.scale * value


def _power(base: float, p: float) -> float:
    """base ** p for base >= 0, inf where the float result overflows."""
    try:
        return base**p
    except OverflowError:
        return math.inf


def linear_quadratic(exponent_p: float, penalty: PenaltySpec, domain: DomainSpec) -> bool:
    """p = 2, a (shifted) half-squared L2 penalty (q = 2) and the whole space."""
    return (
        exponent_p == 2.0
        and penalty.q == 2.0
        and penalty.tag is NormTag.L2
        and domain.radius == math.inf
    )


def eval_T(problem: TikhonovProblem, x: GridFunction) -> float:
    """Evaluate the target functional, +inf outside the domain.

    x is resampled once onto the operator's input grid and judged there:
    membership is tested on the resampled x, the one T is evaluated at.
    Inside the domain T is finite, so a value that overflowed is refused
    with a ValueError instead of passing for +inf.
    """
    op = problem.operator
    x = resample(x, op.input_m)
    if not membership(op.domain, x):
        return math.inf
    with np.errstate(over="ignore"):  # an overflow is refused just below
        value = float(problem.value_at(x.values))
    if not math.isfinite(value):
        raise ValueError(f"T is not finite inside its domain: {value!r}")
    return value


def _positive_finite(*values: float) -> bool:
    """Every value lies in (0, inf); NaN does not."""
    return all(0.0 < v < math.inf for v in values)


@dataclass(frozen=True)
class AlphaSchedule:
    """alpha_n = alpha + amplitude * n^(-exponent); 'constant' keeps alpha.

    The offset is the limit alpha of the problem the sequence targets,
    so the same schedule kind covers alpha > 0 and the alpha = 0 limit.
    """

    kind: str = "constant"
    amplitude: float = 1.0
    exponent: float = 1.0

    def __post_init__(self):
        if self.kind not in ALPHA_KINDS:
            raise GridCompatibilityError(f"unknown alpha schedule {self.kind!r}")
        if self.kind == "power" and not _positive_finite(self.amplitude, self.exponent):
            raise GridCompatibilityError(
                "power schedule needs positive finite amplitude and exponent"
            )

    def value(self, alpha_limit: float, n: int) -> float:
        if self.kind == "constant":
            return alpha_limit
        return alpha_limit + self.amplitude * float(n) ** (-self.exponent)

    def first_unusable(self, alpha_limit: float, levels) -> tuple[int, float] | None:
        """(n, alpha_n) for the first level n whose alpha_n is not positive and finite, or None."""
        for n in levels:
            try:
                alpha_n = self.value(alpha_limit, n)
            except OverflowError:  # float(n) of a level past the float range: alpha_n is NaN
                alpha_n = math.nan
            if not _positive_finite(alpha_n):
                return n, alpha_n
        return None


@dataclass(frozen=True)
class NoiseSchedule:
    """Perturbation of the data with ||y_n - y|| = amplitude * n^(-exponent).

    Directions are deterministic: a fixed profile rescaled to the exact
    prescribed norm, or a seeded random draw that depends only on
    (seed, level) so access order cannot change the data.
    """

    kind: str = "none"
    amplitude: float = 1.0
    exponent: float = 1.0
    direction: str = "oscillatory"
    seed: int = 0

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise GridCompatibilityError(f"unknown noise schedule {self.kind!r}")
        if self.direction not in NOISE_DIRECTIONS:
            raise GridCompatibilityError(f"unknown noise direction {self.direction!r}")
        if self.kind != "none" and not _positive_finite(self.amplitude, self.exponent):
            raise GridCompatibilityError(
                "noise schedule needs positive finite amplitude and exponent"
            )


def noise_direction(schedule: NoiseSchedule, m: int, n: int) -> GridFunction:
    """Unit-L2-norm perturbation profile on an m-node output grid."""
    if schedule.kind == "seeded":
        rng = np.random.default_rng([schedule.seed, n])
        g = GridFunction(rng.standard_normal(m))
    elif schedule.direction == "constant":
        g = GridFunction(np.ones(m))
    else:
        g = from_callable(lambda t: np.sin(14.0 * np.pi * t), m)
    return g * (1.0 / norm(g, NormTag.L2))


@dataclass(frozen=True)
class ApproxSequence:
    """Levelwise data (F_n, y_n, alpha_n) approximating a target problem."""

    target: TikhonovProblem
    family: OperatorFamily
    alpha_schedule: AlphaSchedule = field(default_factory=AlphaSchedule)
    noise_schedule: NoiseSchedule = field(default_factory=NoiseSchedule)

    def __post_init__(self):
        if self.target.operator.output_m != self.family.reference.output_m:
            raise GridCompatibilityError(
                "target operator and family reference must share the output grid"
            )
        if self.alpha_schedule.first_unusable(self.target.alpha, self.family.levels):
            raise GridCompatibilityError("alpha_n must be positive and finite at every level")
        object.__setattr__(self, "_problems", {})

    @property
    def levels(self) -> tuple[int, ...]:
        return self.family.levels

    @property
    def alpha_limit(self) -> float:
        return self.target.alpha

    def alpha_at(self, n: int) -> float:
        return self.alpha_schedule.value(self.target.alpha, n)

    def data_at(self, n: int) -> GridFunction:
        y = self.target.data_y
        if self.noise_schedule.kind == "none":
            return y
        e = noise_direction(self.noise_schedule, y.node_count, n)
        size = self.noise_schedule.amplitude * float(n) ** (-self.noise_schedule.exponent)
        return y + e * size

    def problem_at(self, n: int) -> TikhonovProblem:
        """The level-n functional packaged as a standalone problem, with the target's scale.

        Each level's problem is built once and kept, as `OperatorFamily.operator_at`
        keeps its operator: y_n depends only on the schedules and n, and studies
        evaluate T_n at many samples per level.
        """
        problems = self._problems
        if n not in problems:
            problems[n] = TikhonovProblem(
                self.family.operator_at(n),
                self.data_at(n),
                self.alpha_at(n),
                self.target.exponent_p,
                self.target.penalty,
                self.target.scale,
            )
        return problems[n]


def make_approx_sequence(
    problem: TikhonovProblem,
    family: OperatorFamily,
    alpha_schedule: AlphaSchedule | None = None,
    noise_schedule: NoiseSchedule | None = None,
) -> ApproxSequence:
    return ApproxSequence(
        problem,
        family,
        alpha_schedule or AlphaSchedule(),
        noise_schedule or NoiseSchedule(),
    )


def eval_Tn(seq: ApproxSequence, n: int, x: GridFunction) -> float:
    """Evaluate the level-n functional, +inf outside dom(F_n)."""
    return eval_T(seq.problem_at(n), x)


def is_eps_minimizer(value: float, inf_estimate: float, eps: float) -> bool:
    """value <= max(inf + eps, -1/eps).

    The -1/eps floor keeps the test meaningful when the infimum is
    -infinity: candidates must sit below a finite bar that drops as eps
    shrinks.
    """
    if not eps > 0.0:
        raise GridCompatibilityError("eps must be positive")
    return value <= max(inf_estimate + eps, -1.0 / eps)
