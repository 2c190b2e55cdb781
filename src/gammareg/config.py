"""INI study configurations: parsing, validation, and object builders.

A study run is described by an INI file with sections [study],
[problem], [schedule], [solver]. Parsing is total: every problem found,
unknown sections and keys included, is collected (with its line number
when it can be located) and reported in a single ConfigError, so a user
fixes the file in one round trip instead of replaying errors one at a time.
"""

from __future__ import annotations

import configparser
import enum
import math
import re
import sys
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import fem, studies
from .errors import ConfigError, GridCompatibilityError, ResolutionError
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
from .grids import GridFunction, _refuse_unindexable, from_callable
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
    membership,
    norm_ball,
    norm_ball_nonneg,
    separable_kernel,
    standard_samples,
    whole_space,
)
from .solvers import SolveConfig
from .studies import ALPHA_ZERO_TOL, EPS_CHAIN_TOL, INF_STUDY_TOL, _gamma_tail, _neighborhood

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
# What a study's run builds, each stage on top of the one before and bringing its own rules
Builds = enum.IntEnum("Builds", "NOTHING FAMILY SEQUENCE SOLVED", start=0)


@dataclass(frozen=True)
class Study:
    """A kind: its runner, the [study] keys it reads beside kind, its default tol, its stage."""

    run: Callable[[RunSpec], object]
    keys: tuple[str, ...] = ()
    tol: float | None = None
    builds: Builds = Builds.NOTHING


# The studies are looked up on their modules at each call, where a tracer wraps them
STUDIES = {
    "fem-rate": Study(lambda run: fem.rate_study(
        _manufactured(resolve_potential(run.problem.potential)), run.schedule.levels)),
    "integral-demo": Study(lambda run: studies.uniform_gap_study(
        build_family(run), _samples(run)), builds=Builds.FAMILY),
    "inf-study": Study(lambda run: studies.inf_convergence_study(
        build_sequence(run), run.solver, tol=run.study.tol),
        ("tol",), INF_STUDY_TOL, Builds.SOLVED),
    "eps-chain": Study(lambda run: studies.eps_minimizer_chain(
        build_sequence(run), solver=run.solver, value_gap_tol=run.study.tol),
        ("tol",), EPS_CHAIN_TOL, Builds.SOLVED),
    "gamma-estimate": Study(lambda run: studies.estimate_gamma_limits(
        GAMMA_FAMILIES[run.study.gamma_family], run.study.grid, run.study.point,
        run.study.radii, run.study.index_window),
        ("family", "point", "radii", "index_window", "grid_m")),
    "coercivity": Study(lambda run: studies.equi_coercivity_probe(
        build_sequence(run), _samples(run), run.study.thresholds, run.solver),
        ("thresholds",), builds=Builds.SEQUENCE),
    "alpha-zero": Study(lambda run: studies.alpha_zero_study(
        build_sequence(run), run.solver, tol=run.study.tol),
        ("tol",), ALPHA_ZERO_TOL, Builds.SOLVED),
}
assert all(("tol" in s.keys) == (s.tol is not None) for s in STUDIES.values())


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
        """The gamma-estimate grid: grid_m nodes on [0, 2 pi]. A grid, or a block of
        family values over the window's tail, whose size in bytes numpy cannot index
        raises MemoryError, as one too large to allocate does."""
        _refuse_unindexable(self.grid_m, f"grid_m = {self.grid_m} nodes are")
        _gamma_tail(self.index_window, self.grid_m)
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
    """[schedule]: levels, the library's AlphaSchedule and NoiseSchedule, and exact_family."""

    levels: tuple[int, ...] = (8, 16, 32, 64, 128)
    alpha: AlphaSchedule = field(default_factory=AlphaSchedule)
    noise: NoiseSchedule = field(default_factory=NoiseSchedule)
    exact_family: bool = False


@dataclass(frozen=True)
class RunSpec:
    """A parsed config, one field per section, in the library's own types where it has them."""

    study: StudySpec
    problem: ProblemSpec = field(default_factory=ProblemSpec)
    schedule: ScheduleSpec = field(default_factory=ScheduleSpec)
    solver: SolveConfig = field(default_factory=SolveConfig)


class _Collector:
    """One reader over configparser that logs problems instead of raising."""

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

    def value(self, section: str, key: str, default, parse: Callable[[str], object], *checks):
        """The key's text as `parse` reads it, or `default` when the key is absent or
        refused: a refusal logs the parser's ValueError, or else the complaint of the
        first check `(refuses, complaint)` whose `refuses(value)` holds."""
        text = self.raw(section, key)
        if text is None:
            return default
        try:
            value = parse(text)
        except ValueError as exc:
            self.complain(section, key, str(exc))
            return default
        for refuses, complaint in checks:
            if refuses(value):
                self.complain(section, key, complaint)
                return default
        return value


# Parsers: each returns the value its text spells, or raises ValueError with
# the complaint that refuses the text.


def _as(convert: Callable[[str], object], noun: str, text: str):
    try:
        return convert(text)
    except (KeyError, ValueError):
        raise ValueError(f"not {noun}: {text!r}") from None


def _finite(values):
    if not np.isfinite(values).all():
        raise ValueError("must be finite")
    return values


def _number(text: str) -> float:
    return _finite(_as(float, "a number", text))


def _numbers(text: str) -> tuple[float, ...]:
    return _finite(_as(lambda t: tuple(map(float, t.split(","))), "a comma list of numbers", text))


def _integer(text: str) -> int:
    return _as(int, "an integer", text)


def _boolean(text: str) -> bool:
    return _as(lambda t: configparser.ConfigParser.BOOLEAN_STATES[t.lower()], "a boolean", text)


def _levels(text: str) -> tuple[int, ...]:
    """doubling:start:count, or a comma list of integers."""
    match = re.fullmatch(r"doubling:(\d+):(\d+)", text)
    if not match:
        return _as(lambda t: tuple(map(int, t.split(","))), "a comma list of integers", text)
    start, count = int(match.group(1)), int(match.group(2))
    if start < 2 or count < 2:
        raise ValueError("doubling needs start >= 2 and count >= 2")
    return tuple(start * 2**k for k in range(count))


def _one_of(allowed) -> Callable[[str], str]:
    """The parser of a name in `allowed`."""
    def parse(text: str) -> str:
        if text not in allowed:
            raise ValueError(f"expected one of {', '.join(allowed)}; got {text!r}")
        return text
    return parse


def _potential(text: str) -> str:
    """A name in POTENTIALS, or a table that resolve_potential accepts."""
    try:
        resolve_potential(text)  # a table it refuses raises ValueError
    except KeyError:
        raise ValueError(f"expected one of {', '.join(POTENTIALS)} "
                         f"or table:v0,v1,...; got {text!r}") from None
    return text


# Checks: (refuses, complaint)
_POSITIVE = (lambda v: v <= 0.0, "must be positive")
_NONNEGATIVE = (lambda v: v < 0.0, "must be nonnegative")


def _at_least(minimum: int):
    return (lambda v: v < minimum, f"must be >= {minimum}")


# sin(truth_frequency * pi * t) needs the product finite
_MAX_FREQUENCY = sys.float_info.max / math.pi


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

    if not parser.has_option("study", "kind"):
        col.complain("study", None, "missing required key 'kind'"
                     if parser.has_section("study") else "section is required")
    kind = col.value("study", "kind", None, _one_of(STUDIES))
    record = STUDIES.get(kind, Study(None))  # no kind: no key read, no rule applied

    # a [study] key its kind does not read is refused (unless the kind itself
    # was), then dropped, so that its value draws no second complaint
    if parser.has_section("study"):
        for key in parser.options("study"):
            readers = [name for name, study in STUDIES.items() if key in study.keys]
            if readers and key not in record.keys:
                col.raw("study", key)  # read: refused, not unknown
                noun = "tolerance" if key == "tol" else key
                *others, last = readers  # 'a reads it', or 'a, b and c read it'
                read_by = f"{', '.join(others)} and {last} read" if others else f"{last} reads"
                col.conflict("study", key, f"kind {kind} has no {noun}; {read_by} it",
                             ("study", "kind"), ("study", None))
                parser.remove_option("study", key)

    # Fallbacks come from the spec dataclasses, so each default is written once.
    # Keyword arguments are read in the order written, which is the order of
    # the complaints.
    d = StudySpec(kind)
    study = StudySpec(
        kind=kind,
        tol=col.value("study", "tol", record.tol, _number, _POSITIVE),
        radii=col.value("study", "radii", d.radii, _numbers, (
            lambda rs: min(rs) <= 0 or any(b >= a for a, b in zip(rs, rs[1:])),
            "must be positive and strictly decreasing")),
        thresholds=col.value("study", "thresholds", d.thresholds, _numbers, (
            lambda ts: min(ts) <= 0, "must be positive")),
        gamma_family=col.value("study", "family", d.gamma_family, _one_of(GAMMA_FAMILIES)),
        point=col.value("study", "point", d.point, _number),
        index_window=col.value("study", "index_window", d.index_window, _integer, _at_least(2)),
        grid_m=col.value("study", "grid_m", d.grid_m, _integer, _at_least(16)),
    )

    d = ProblemSpec()
    problem = ProblemSpec(
        kernel=col.value("problem", "kernel", d.kernel, _one_of(KERNELS)),
        sigma=col.value("problem", "sigma", d.sigma, _number, _POSITIVE),
        kappa=col.value("problem", "kappa", d.kappa, _number),
        potential=col.value("problem", "potential", d.potential, _potential),
        input_m=col.value("problem", "input_m", d.input_m, _integer, _at_least(3)),
        quad_m=col.value("problem", "quad_m", d.quad_m, _integer, _at_least(3)),
        alpha=col.value("problem", "alpha", d.alpha, _number, _NONNEGATIVE),
        exponent_p=col.value("problem", "exponent_p", d.exponent_p, _number),
        penalty=col.value("problem", "penalty", d.penalty, _one_of(PENALTIES)),
        penalty_q=col.value("problem", "penalty_q", d.penalty_q, _number),
        domain=col.value("problem", "domain", d.domain, _one_of(DOMAINS)),
        radius=col.value("problem", "radius", d.radius, _number, _POSITIVE),
        truth=col.value("problem", "truth", d.truth, _one_of(TRUTHS)),
        truth_amplitude=col.value("problem", "truth_amplitude", d.truth_amplitude, _number),
        truth_frequency=col.value(
            "problem", "truth_frequency", d.truth_frequency, _integer, _at_least(1),
            (lambda f: f > _MAX_FREQUENCY, f"must be <= {_MAX_FREQUENCY:.6g}")),
        data=col.value("problem", "data", d.data, _one_of(DATA)),
    )
    if problem.exponent_p < 1.0:
        col.complain("problem", "exponent_p", "must be >= 1")
        problem = replace(problem, exponent_p=d.exponent_p)
    if problem.penalty == "p_power_norm" and problem.penalty_q < 1.0:
        col.complain("problem", "penalty_q", "must be >= 1")
        problem = replace(problem, penalty_q=d.penalty_q)

    d = ScheduleSpec()
    schedule = ScheduleSpec(
        levels=col.value("schedule", "levels", d.levels, _levels, (
            lambda ls: len(ls) < 2 or ls[0] < 2 or any(b <= a for a, b in zip(ls, ls[1:])),
            "need at least two strictly increasing levels, all >= 2")),
        alpha=AlphaSchedule(
            col.value("schedule", "alpha_kind", d.alpha.kind, _one_of(ALPHA_KINDS)),
            col.value("schedule", "alpha_amplitude", d.alpha.amplitude, _number, _POSITIVE),
            col.value("schedule", "alpha_exponent", d.alpha.exponent, _number, _POSITIVE),
        ),
        noise=NoiseSchedule(
            col.value("schedule", "noise_kind", d.noise.kind, _one_of(NOISE_KINDS)),
            col.value("schedule", "noise_amplitude", d.noise.amplitude, _number, _POSITIVE),
            col.value("schedule", "noise_exponent", d.noise.exponent, _number, _POSITIVE),
            col.value("schedule", "noise_direction", d.noise.direction, _one_of(NOISE_DIRECTIONS)),
            col.value("schedule", "noise_seed", d.noise.seed, _integer, _at_least(0)),
        ),
        exact_family=col.value("schedule", "exact_family", d.exact_family, _boolean),
    )

    d = SolveConfig()
    solver = SolveConfig(
        max_iter=col.value("solver", "max_iter", d.max_iter, _integer, _at_least(1)),
        grad_tol=col.value("solver", "grad_tol", d.grad_tol, _number, _POSITIVE),
        restarts=col.value("solver", "restarts", d.restarts, _integer, _at_least(0)),
    )
    # a key no reader above asked for is unknown
    for section in parser.sections():
        if section in known:
            for key in parser.options(section):
                if (section, key) not in col.read:
                    col.complain(section, key, "unknown key")

    # cross-field checks
    if (
        record.builds >= Builds.FAMILY
        and isinstance(KERNELS[problem.kernel], _Quadrature)
        and not schedule.exact_family
        and max(schedule.levels) > problem.quad_m
    ):
        col.conflict("schedule", "levels", f"largest level exceeds quad_m = {problem.quad_m}",
                     ("problem", "quad_m"), ("problem", "kernel"), ("schedule", "exact_family"))
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
    if problem.kernel == "gaussian":
        try:
            gaussian_kernel(problem.sigma)
        except GridCompatibilityError as exc:
            col.conflict("problem", "sigma", str(exc), ("problem", "kernel"))
    if kind == "alpha-zero" and problem.alpha != 0.0:
        col.conflict("problem", "alpha", "alpha-zero study needs alpha = 0")
    if kind == "alpha-zero" and problem.data != "forward_of_truth":
        col.conflict("problem", "data", "alpha-zero study needs attainable data")
    if kind == "coercivity" and problem.alpha <= 0.0:
        col.conflict("problem", "alpha", "coercivity probe needs alpha > 0")
    # a sequence refuses an alpha_n it cannot use, after the kind rules, which name its
    # cause more closely; its noise size amplitude * n^(-exponent) needs float(n) of the
    # last level
    sequence = record.builds >= Builds.SEQUENCE
    if sequence and (unusable := schedule.alpha.first_unusable(problem.alpha, schedule.levels)):
        # an unwritten alpha_kind is the constant schedule, whose alpha_n is alpha
        written = col.parser.has_option("schedule", "alpha_kind")
        section, key = ("schedule", "alpha_kind") if written else ("problem", "alpha")
        col.conflict(section, key, "alpha_n must be positive and finite at every level; "
                     "it is {1:g} at level {0}".format(*unusable),
                     ("problem", "alpha"), ("schedule", "alpha_kind"),
                     ("schedule", "alpha_amplitude"), ("schedule", "alpha_exponent"),
                     ("schedule", "levels"))
    if sequence and schedule.noise.kind != "none" and schedule.levels[-1] > sys.float_info.max:
        col.conflict("schedule", "levels", f"noise_kind = {schedule.noise.kind} needs every "
                     f"level within the float range; {schedule.levels[-1]} is not",
                     ("schedule", "noise_kind"))
    penalty = PENALTIES[problem.penalty](problem)
    if (
        record.builds >= Builds.SOLVED
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
    return ApproxSequence(build_target(run, family), family, run.schedule.alpha, run.schedule.noise)


def _samples(run: RunSpec) -> list[GridFunction]:
    """The standard samples on the input grid, scaled to the domain's radius, that lie
    in the configured domain: a nonnegative ball drops the ones that change sign."""
    p = run.problem
    domain = DOMAINS[p.domain](p)
    radius = domain.radius if domain.radius < math.inf else 1.0
    return [x for x in standard_samples(p.input_m, radius) if membership(domain, x)]


def _manufactured(potential) -> fem.EllipticProblem:
    """-u'' + c u = f with the exact solution sin(pi t)."""
    def source(t):
        return (np.pi**2) * np.sin(np.pi * t) + potential(t) * np.sin(np.pi * t)

    return fem.EllipticProblem(potential, source, lambda t: np.sin(np.pi * t))
