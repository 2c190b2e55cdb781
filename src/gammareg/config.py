"""INI study configurations: parsing, validation, and object builders.

A study run is described by an INI file with sections [study],
[problem], [schedule], [solver]. Parsing is total: every problem found,
unknown sections and keys included, is collected (with its line number
when it can be located) and reported in a single ConfigError, so a user
fixes the file in one round trip instead of replaying errors one at a time.
"""

from __future__ import annotations

import configparser
import math
import re
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .errors import ConfigError, ResolutionError
from .fem import make_fem_family
from .functionals import (
    ALPHA_KINDS,
    NOISE_DIRECTIONS,
    NOISE_KINDS,
    AlphaSchedule,
    ApproxSequence,
    NoiseSchedule,
    TikhonovProblem,
    half_sq_l2,
    linear_quadratic,
    linf_penalty,
    p_power_norm,
)
from .grids import GridFunction, from_callable
from .operators import (
    DomainSpec,
    ForwardOperator,
    KernelSpec,
    OperatorFamily,
    constant_kernel,
    gaussian_kernel,
    identity_operator,
    make_constant_family,
    make_quadrature_family,
    norm_ball,
    norm_ball_nonneg,
    separable_kernel,
    whole_space,
)
from .solvers import SolveConfig
from .studies import ALPHA_ZERO_TOL, EPS_CHAIN_TOL, INF_STUDY_TOL, _neighborhood

__all__ = [
    "StudySpec",
    "ProblemSpec",
    "ScheduleSpec",
    "RunSpec",
    "parse_config",
    "load_config",
    "build_target",
    "build_family",
    "build_sequence",
    "truth_profile",
    "resolve_potential",
]

STUDY_KINDS = (
    "fem-rate",
    "integral-demo",
    "inf-study",
    "eps-chain",
    "gamma-estimate",
    "coercivity",
    "alpha-zero",
)
# The named choices below are the keys of the dicts that build their values,
# in the order a refused choice lists them.
GAMMA_FAMILIES = {
    "oscillation": lambda j, x: np.sin(j * x),
    "uniform_shift": lambda j, x: x * x + 1.0 / j,
}
POTENTIALS = {
    "zero": lambda t: np.zeros_like(t),
    "one": lambda t: np.ones_like(t),
    "sin_pi": lambda t: np.sin(np.pi * t),
    "cosine": lambda t: 1.0 + 0.5 * np.cos(np.pi * t),
}
# problem -> its feasible set D(F)
DOMAINS = {
    "whole_space": lambda p: whole_space(),
    "l2_ball": lambda p: norm_ball(p.radius),
    "l2_ball_nonneg": lambda p: norm_ball_nonneg(p.radius),
}
# problem -> its penalty Omega
PENALTIES = {
    "half_sq_l2": lambda p: half_sq_l2(),
    "p_power_norm": lambda p: p_power_norm(p.penalty_q),
    "linf": lambda p: linf_penalty(),
}
# (problem, nodes t) -> the ground-truth input at t
TRUTHS = {
    "sine": lambda p, t: p.truth_amplitude * np.sin(p.truth_frequency * np.pi * t),
    "bump": lambda p, t: p.truth_amplitude * 4.0 * t * (1.0 - t),
    "constant": lambda p, t: np.full_like(t, p.truth_amplitude),
    "zero": lambda p, t: np.zeros_like(t),
}
# (problem, reference operator) -> the data y
DATA = {
    "forward_of_truth": lambda p, op: op.apply(truth_profile(p, op.input_m)),
    "direct_profile": lambda p, op: truth_profile(p, op.output_m),
}


@dataclass(frozen=True)
class _Quadrature:
    """Builds the quadrature family of the kernel `kernel_of(problem)`; quad_m bounds its levels."""

    kernel_of: Callable[[ProblemSpec], KernelSpec]

    def __call__(self, p: ProblemSpec, s: ScheduleSpec, domain: DomainSpec) -> OperatorFamily:
        levels = (p.quad_m,) if s.exact_family else s.levels  # an exact family needs no levels
        return make_quadrature_family(self.kernel_of(p), levels, p.quad_m, p.input_m, domain)


# (problem, schedule, domain) -> the operator family
KERNELS = {
    "identity": lambda p, s, domain: make_constant_family(
        identity_operator(p.input_m, domain), s.levels),
    "constant": _Quadrature(lambda p: constant_kernel(p.kappa)),
    "separable": _Quadrature(lambda p: separable_kernel()),
    "gaussian": _Quadrature(lambda p: gaussian_kernel(p.sigma)),
    "fem": lambda p, s, domain: make_fem_family(
        resolve_potential(p.potential), s.levels, input_m=p.input_m, domain=domain),
}

DEFAULT_LEVELS = (8, 16, 32, 64, 128)

# The kinds that read a tolerance, each with its default
_TOL_DEFAULTS = {
    "inf-study": INF_STUDY_TOL, "eps-chain": EPS_CHAIN_TOL, "alpha-zero": ALPHA_ZERO_TOL
}

# [study] keys that only some kinds read, every other kind refusing them: the
# name a refusal gives the key, and the kinds that read it
_KIND_KEYS = {
    "tol": ("tolerance", tuple(_TOL_DEFAULTS)),
    "thresholds": ("thresholds", ("coercivity",)),
    **{key: (key, ("gamma-estimate",))
       for key in ("family", "point", "radii", "index_window", "grid_m")},
}


def _read_by(kinds: tuple[str, ...]) -> str:
    """'a reads it', or 'a, b and c read it'."""
    if len(kinds) == 1:
        return f"{kinds[0]} reads it"
    return f"{', '.join(kinds[:-1])} and {kinds[-1]} read it"


@dataclass(frozen=True)
class StudySpec:
    kind: str
    tol: float | None = None
    # gamma-estimate parameters
    gamma_family: str = "oscillation"
    point: float = math.pi / 4.0
    radii: tuple[float, ...] = (0.2, 0.1, 0.05)
    index_window: int = 512
    grid_m: int = 4096
    # coercivity parameters
    thresholds: tuple[float, ...] = (0.5, 1.0, 2.0)

    @property
    def grid(self) -> np.ndarray:
        """The gamma-estimate grid: grid_m nodes on [0, 2 pi]."""
        return np.linspace(0.0, 2.0 * np.pi, self.grid_m)


@dataclass(frozen=True)
class ProblemSpec:
    kernel: str = "gaussian"
    sigma: float = 0.2
    kappa: float = 1.0
    potential: str = "one"
    input_m: int = 65
    quad_m: int = 129
    alpha: float = 0.05
    exponent_p: float = 2.0
    penalty: str = "half_sq_l2"
    penalty_q: float = 2.0
    domain: str = "whole_space"
    radius: float = 1.0
    truth: str = "sine"
    truth_amplitude: float = 0.1
    truth_frequency: int = 1
    data: str = "forward_of_truth"


@dataclass(frozen=True)
class ScheduleSpec:
    levels: tuple[int, ...] = DEFAULT_LEVELS
    alpha_kind: str = "constant"
    alpha_amplitude: float = 1.0
    alpha_exponent: float = 1.0
    noise_kind: str = "none"
    noise_amplitude: float = 1.0
    noise_exponent: float = 1.0
    noise_direction: str = "oscillatory"
    noise_seed: int = 0
    exact_family: bool = False


@dataclass(frozen=True)
class RunSpec:
    study: StudySpec
    problem: ProblemSpec = field(default_factory=ProblemSpec)
    schedule: ScheduleSpec = field(default_factory=ScheduleSpec)
    solver: SolveConfig = field(default_factory=SolveConfig)


class _Collector:
    """Typed readers over configparser that log problems instead of raising."""

    def __init__(self, parser: configparser.ConfigParser, raw_lines: list[str]):
        self.parser = parser
        self.lines = raw_lines
        self.problems: list[str] = []
        self.read: set[tuple[str, str]] = set()
        self.flagged: set[tuple[str, str | None]] = set()  # keys with a complaint

    def _where(self, section: str, key: str | None) -> str:
        in_section = False
        header = f"[{section}]"
        for i, raw in enumerate(self.lines, start=1):
            stripped = raw.strip()
            if stripped.startswith("[") and stripped.endswith("]"):
                if in_section and key is not None:
                    break
                in_section = stripped == header
                if in_section and key is None:
                    return f" (line {i})"
            elif in_section and key is not None:
                if re.match(rf"\s*{re.escape(key)}\s*[=:]", raw, re.IGNORECASE):
                    return f" (line {i})"
        return ""

    def complain(self, section: str, key: str | None, message: str) -> None:
        name = f"[{section}] {key}" if key else f"[{section}]"
        self.problems.append(f"{name}: {message}{self._where(section, key)}")
        self.flagged.add((section, key))

    def conflict(self, section: str, key: str, message: str, *reads: tuple[str, str]) -> None:
        """Complain of a cross-field conflict on `key`, unless `key` or another
        key the check `reads` already has a complaint: its value is then a
        default the config did not give, and the conflict is not the config's."""
        if self.flagged.isdisjoint([(section, key), *reads]):
            self.complain(section, key, message)

    def raw(self, section: str, key: str) -> str | None:
        self.read.add((section, key))
        if self.parser.has_option(section, key):
            return self.parser.get(section, key).strip()
        return None

    def choice(self, section: str, key: str, allowed, default: str) -> str:
        text = self.raw(section, key)
        if text is None:
            return default
        if text not in allowed:
            self.complain(section, key, f"expected one of {', '.join(allowed)}; got {text!r}")
            return default
        return text

    def number(
        self,
        section: str,
        key: str,
        default: float,
        positive: bool = False,
        nonnegative: bool = False,
    ) -> float:
        text = self.raw(section, key)
        if text is None:
            return default
        try:
            value = float(text)
        except ValueError:
            self.complain(section, key, f"not a number: {text!r}")
            return default
        if not math.isfinite(value):
            self.complain(section, key, "must be finite")
            return default
        if positive and value <= 0.0:
            self.complain(section, key, "must be positive")
            return default
        if nonnegative and value < 0.0:
            self.complain(section, key, "must be nonnegative")
            return default
        return value

    def integer(self, section: str, key: str, default: int, minimum: int = 1) -> int:
        text = self.raw(section, key)
        if text is None:
            return default
        try:
            value = int(text)
        except ValueError:
            self.complain(section, key, f"not an integer: {text!r}")
            return default
        if value < minimum:
            self.complain(section, key, f"must be >= {minimum}")
            return default
        return value

    def boolean(self, section: str, key: str, default: bool) -> bool:
        text = self.raw(section, key)
        if text is None:
            return default
        lowered = text.lower()
        if lowered in ("true", "yes", "on", "1"):
            return True
        if lowered in ("false", "no", "off", "0"):
            return False
        self.complain(section, key, f"not a boolean: {text!r}")
        return default

    def levels(self, section: str, key: str, default: tuple[int, ...]) -> tuple[int, ...]:
        text = self.raw(section, key)
        if text is None:
            return default
        match = re.fullmatch(r"doubling:(\d+):(\d+)", text)
        if match:
            start, count = int(match.group(1)), int(match.group(2))
            if start < 2 or count < 2:
                self.complain(section, key, "doubling needs start >= 2 and count >= 2")
                return default
            return tuple(start * 2**k for k in range(count))
        try:
            values = tuple(int(part) for part in text.split(","))
        except ValueError:
            self.complain(section, key, f"not a comma list of integers: {text!r}")
            return default
        if len(values) < 2 or any(b <= a for a, b in zip(values, values[1:])) or values[0] < 2:
            self.complain(
                section, key, "need at least two strictly increasing levels, all >= 2"
            )
            return default
        return values

    def floats(self, section: str, key: str, default: tuple[float, ...]) -> tuple[float, ...]:
        text = self.raw(section, key)
        if text is None:
            return default
        try:
            values = tuple(float(part) for part in text.split(","))
        except ValueError:
            self.complain(section, key, f"not a comma list of numbers: {text!r}")
            return default
        if not all(map(math.isfinite, values)):
            self.complain(section, key, "must be finite")
            return default
        return values


def _potential_label(col: _Collector) -> str:
    """Potential label: a name in POTENTIALS or a table that resolve_potential accepts."""
    text = col.raw("problem", "potential")
    if text is None:
        return ProblemSpec.potential
    try:
        resolve_potential(text)
    except KeyError:
        col.complain("problem", "potential", f"expected one of {', '.join(POTENTIALS)} "
                     f"or table:v0,v1,...; got {text!r}")
    except ValueError as exc:
        col.complain("problem", "potential", str(exc))
    else:
        return text
    return ProblemSpec.potential


def parse_config(text: str) -> RunSpec:
    """Parse and validate an INI study description.

    Raises ConfigError carrying every problem found; returns a fully
    typed RunSpec otherwise.
    """
    # no header can spell the default section, so [DEFAULT] is an ordinary,
    # unknown section instead of keys that reach every other one
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError([f"INI syntax: {exc.message.splitlines()[0]}"]) from exc

    lines = text.splitlines()
    col = _Collector(parser, lines)

    known = ("study", "problem", "schedule", "solver")
    for section in parser.sections():
        if section not in known:
            col.complain(section, None, "unknown section")

    if not parser.has_section("study"):
        col.problems.append("[study]: section is required")
        kind = "inf-study"
    else:
        kind_text = col.raw("study", "kind")
        if kind_text is None:
            col.complain("study", None, "missing required key 'kind'")
            kind = "inf-study"
        elif kind_text not in STUDY_KINDS:
            col.complain(
                "study", "kind", f"expected one of {', '.join(STUDY_KINDS)}; got {kind_text!r}"
            )
            kind = "inf-study"
        else:
            kind = kind_text

    # a [study] key its kind does not read is refused (unless the kind itself
    # was), then dropped, so that its value draws no second complaint
    if parser.has_section("study"):
        for key in parser.options("study"):
            noun, readers = _KIND_KEYS.get(key, (key, STUDY_KINDS))
            if kind not in readers:
                col.raw("study", key)  # read: refused, not unknown
                col.conflict("study", key, f"kind {kind} has no {noun}; {_read_by(readers)}",
                             ("study", "kind"), ("study", None))
                parser.remove_option("study", key)
    tol = col.number("study", "tol", _TOL_DEFAULTS.get(kind), positive=True)

    # Fallbacks come from the spec dataclasses, so each default is written once.
    d = StudySpec(kind)
    radii = col.floats("study", "radii", d.radii)
    if any(r <= 0 for r in radii) or any(b >= a for a, b in zip(radii, radii[1:])):
        col.complain("study", "radii", "must be positive and strictly decreasing")
        radii = d.radii
    thresholds = col.floats("study", "thresholds", d.thresholds)
    if any(t <= 0 for t in thresholds):
        col.complain("study", "thresholds", "must be positive")
        thresholds = d.thresholds

    study = StudySpec(
        kind=kind,
        tol=tol,
        gamma_family=col.choice("study", "family", GAMMA_FAMILIES, d.gamma_family),
        point=col.number("study", "point", d.point),
        radii=radii,
        index_window=col.integer("study", "index_window", d.index_window, minimum=2),
        grid_m=col.integer("study", "grid_m", d.grid_m, minimum=16),
        thresholds=thresholds,
    )

    d = ProblemSpec()
    problem = ProblemSpec(
        kernel=col.choice("problem", "kernel", KERNELS, d.kernel),
        sigma=col.number("problem", "sigma", d.sigma, positive=True),
        kappa=col.number("problem", "kappa", d.kappa),
        potential=_potential_label(col),
        input_m=col.integer("problem", "input_m", d.input_m, minimum=3),
        quad_m=col.integer("problem", "quad_m", d.quad_m, minimum=3),
        alpha=col.number("problem", "alpha", d.alpha, nonnegative=True),
        exponent_p=col.number("problem", "exponent_p", d.exponent_p),
        penalty=col.choice("problem", "penalty", PENALTIES, d.penalty),
        penalty_q=col.number("problem", "penalty_q", d.penalty_q),
        domain=col.choice("problem", "domain", DOMAINS, d.domain),
        radius=col.number("problem", "radius", d.radius, positive=True),
        truth=col.choice("problem", "truth", TRUTHS, d.truth),
        truth_amplitude=col.number("problem", "truth_amplitude", d.truth_amplitude),
        truth_frequency=col.integer("problem", "truth_frequency", d.truth_frequency, minimum=1),
        data=col.choice("problem", "data", DATA, d.data),
    )
    if problem.exponent_p < 1.0:
        col.complain("problem", "exponent_p", "must be >= 1")
        problem = replace(problem, exponent_p=d.exponent_p)
    if problem.penalty == "p_power_norm" and problem.penalty_q < 1.0:
        col.complain("problem", "penalty_q", "must be >= 1")
        problem = replace(problem, penalty_q=d.penalty_q)

    d = ScheduleSpec()
    schedule = ScheduleSpec(
        levels=col.levels("schedule", "levels", d.levels),
        alpha_kind=col.choice("schedule", "alpha_kind", ALPHA_KINDS, d.alpha_kind),
        alpha_amplitude=col.number("schedule", "alpha_amplitude", d.alpha_amplitude, positive=True),
        alpha_exponent=col.number("schedule", "alpha_exponent", d.alpha_exponent, positive=True),
        noise_kind=col.choice("schedule", "noise_kind", NOISE_KINDS, d.noise_kind),
        noise_amplitude=col.number("schedule", "noise_amplitude", d.noise_amplitude, positive=True),
        noise_exponent=col.number("schedule", "noise_exponent", d.noise_exponent, positive=True),
        noise_direction=col.choice(
            "schedule", "noise_direction", NOISE_DIRECTIONS, d.noise_direction
        ),
        noise_seed=col.integer("schedule", "noise_seed", d.noise_seed, minimum=0),
        exact_family=col.boolean("schedule", "exact_family", d.exact_family),
    )

    d = SolveConfig()
    solver = SolveConfig(
        max_iter=col.integer("solver", "max_iter", d.max_iter, minimum=1),
        grad_tol=col.number("solver", "grad_tol", d.grad_tol, positive=True),
        restarts=col.integer("solver", "restarts", d.restarts, minimum=0),
    )
    # a key no reader above asked for is unknown
    for section in parser.sections():
        if section in known:
            for key in parser.options(section):
                if (section, key) not in col.read:
                    col.complain(section, key, "unknown key")

    # cross-field checks
    if (
        kind not in ("fem-rate", "gamma-estimate")  # the kinds that build no family
        and isinstance(KERNELS[problem.kernel], _Quadrature)
        and not schedule.exact_family
        and max(schedule.levels) > problem.quad_m
    ):
        col.conflict(
            "schedule", "levels", f"largest level exceeds quad_m = {problem.quad_m}",
            ("problem", "quad_m"), ("problem", "kernel"), ("schedule", "exact_family"),
        )
    if kind == "fem-rate" and len(schedule.levels) < 3:
        col.conflict("schedule", "levels", "fem-rate needs at least three levels")
    if kind == "gamma-estimate":
        grid = study.grid
        if not grid[0] < study.point < grid[-1]:
            col.conflict("study", "point", f"must lie inside the grid (0, {grid[-1]:g})",
                         ("study", "grid_m"))
        else:
            for r in study.radii:
                try:
                    _neighborhood(grid, study.point, r)
                except ResolutionError as exc:
                    col.conflict("study", "radii", f"{exc} with grid_m = {study.grid_m}",
                                 ("study", "grid_m"), ("study", "point"))
    if problem.alpha == 0.0 and schedule.alpha_kind == "constant" and kind != "fem-rate":
        col.conflict(
            "schedule", "alpha_kind", "alpha = 0 with a constant schedule gives alpha_n = 0",
            ("problem", "alpha"),
        )
    if kind == "alpha-zero" and problem.alpha != 0.0:
        col.conflict("problem", "alpha", "alpha-zero study needs alpha = 0")
    if kind == "alpha-zero" and problem.data != "forward_of_truth":
        col.conflict("problem", "data", "alpha-zero study needs attainable data")
    if kind == "coercivity" and problem.alpha <= 0.0:
        col.conflict("problem", "alpha", "coercivity probe needs alpha > 0")
    penalty = PENALTIES[problem.penalty](problem)
    if (
        kind in ("inf-study", "eps-chain", "alpha-zero")
        and not linear_quadratic(problem.exponent_p, penalty, DOMAINS[problem.domain](problem))
        and (problem.exponent_p <= 1.0 or not penalty.is_smooth)
    ):
        key = "exponent_p" if problem.exponent_p <= 1.0 else "penalty"
        col.conflict("problem", key, f"{kind} outside p = 2, q = 2, whole_space runs "
                     "projected gradient, which needs p > 1 and a smooth penalty",
                     ("problem", "exponent_p"), ("problem", "penalty"),
                     ("problem", "penalty_q"), ("problem", "domain"))

    if col.problems:
        raise ConfigError(col.problems)
    return RunSpec(study, problem, schedule, solver)


def load_config(path: str) -> RunSpec:
    """Read a config file from disk and parse it."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config(handle.read())


def resolve_potential(label: str):
    """Potential coefficient from its label: a POTENTIALS name (else KeyError) or
    table:v0,v1,..., >= 2 finite nonnegative values on [0, 1] (else ValueError)."""
    if not label.startswith("table:"):
        return POTENTIALS[label]
    try:
        values = np.array([float(v) for v in label[len("table:") :].split(",")])
    except ValueError:
        raise ValueError(f"bad table values in {label!r}") from None
    if values.size < 2 or any(values < 0):
        raise ValueError("table needs >= 2 nonnegative values")
    if not np.isfinite(values).all():
        raise ValueError("table values must be finite")
    xs = np.linspace(0.0, 1.0, values.size)
    return lambda t: np.interp(t, xs, values)


def truth_profile(spec: ProblemSpec, m: int) -> GridFunction:
    """The configured ground-truth input on an m-node endpoint grid."""
    return from_callable(lambda t: TRUTHS[spec.truth](spec, t), m)


def build_family(run: RunSpec) -> OperatorFamily:
    """Assemble the approximating operator family a RunSpec describes."""
    p, s = run.problem, run.schedule
    family = KERNELS[p.kernel](p, s, DOMAINS[p.domain](p))
    if s.exact_family:
        family = make_constant_family(family.reference, s.levels)
    return family


def build_target(run: RunSpec, family: OperatorFamily | None = None) -> TikhonovProblem:
    """The limit problem: reference operator, configured data and penalty."""
    family = family or build_family(run)
    op: ForwardOperator = family.reference
    p = run.problem
    return TikhonovProblem(op, DATA[p.data](p, op), p.alpha, p.exponent_p, PENALTIES[p.penalty](p))


def build_sequence(run: RunSpec) -> ApproxSequence:
    """Target + family + schedules."""
    family = build_family(run)
    target = build_target(run, family)
    s = run.schedule
    alpha = AlphaSchedule(s.alpha_kind, s.alpha_amplitude, s.alpha_exponent)
    noise = NoiseSchedule(
        s.noise_kind, s.noise_amplitude, s.noise_exponent, s.noise_direction, s.noise_seed
    )
    return ApproxSequence(target, family, alpha, noise)
