"""Spans and counts around gammareg's public functions, from outside the package.

The tracer replaces module attributes where the package looks functions
up (`gammareg.studies.minimize_problem`, not `gammareg.solvers.minimize_problem`,
is what the studies call) and a few methods on their classes. Each call
records a span [name, start, end, parent]; the layer of a span is the first
part of its name. Spans stay in memory and are analysed after the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import defaultdict

LAYERS = ("grids", "operators", "fem", "functionals", "solvers", "studies", "config")


def self_times(spans: list) -> list[float]:
    """Span duration minus the time covered by its direct children.

    Spans of one thread nest, so direct children never overlap each other
    and their durations add up to the covered part of the parent.
    """
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.regions: list[tuple[int, dict]] = []  # (root span index, counts)
        self.counts: dict = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, after=None):
        """`fn` recording one span per call; `after(counts, args, result)` adds counts."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.counts[name + ".failed"] += 1
                raise
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(self.counts, args, kwargs, result)
            return result

        return traced

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    @contextlib.contextmanager
    def region(self, name: str):
        """A top-level span with counts of its own, e.g. one set-up or one pass."""
        if self._stack:
            raise RuntimeError("regions do not nest")
        index = len(self.spans)
        record = [name, 0.0, 0.0, -1]
        self.spans.append(record)
        self.counts = defaultdict(float)
        self.regions.append((index, self.counts))
        with self.installed():
            self._stack.append(index)
            record[1] = time.perf_counter()
            try:
                yield
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()

    @contextlib.contextmanager
    def installed(self):
        """Install the wrappers for the duration of the block."""
        for module, attr, name, after in _targets(self):
            owner = importlib.import_module(module)
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            original = owner.__dict__[attr]
            if callable(name):
                replacement = name(original)
            else:
                replacement = self.wrap(name, original, after)
            setattr(owner, attr, replacement)
            self._patches.append((owner, attr, original))
        try:
            yield
        finally:
            for owner, attr, original in reversed(self._patches):
                setattr(owner, attr, original)
            self._patches.clear()

    def region_summary(self, index: int) -> dict:
        """Self time and call count per span name, and counts, of one region."""
        root, counts = self.regions[index]
        end = self.regions[index + 1][0] if index + 1 < len(self.regions) else len(self.spans)
        spans = self.spans[root:end]
        rebased = [[n, s, e, p - root if p >= 0 else -1] for n, s, e, p in spans]
        own = self_times(rebased)
        self_s, calls = defaultdict(float), defaultdict(int)
        for (name, _, _, _), t in zip(rebased[1:], own[1:]):
            self_s[name] += t
            calls[name] += 1
        return {
            "wall": spans[0][2] - spans[0][1],
            "self_s": dict(self_s),
            "calls": dict(calls),
            "counts": dict(counts),
        }

    def dump(self, path: str, regions: list[int], origin: float) -> None:
        """Write the spans of the given regions as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for index in regions:
                root = self.regions[index][0]
                end = (self.regions[index + 1][0] if index + 1 < len(self.regions)
                       else len(self.spans))
                for i in range(root, end):
                    name, start, stop, parent = self.spans[i]
                    handle.write(json.dumps({"id": i, "name": name, "start": start - origin,
                                             "end": stop - origin, "parent": parent}) + "\n")


def _bytes(key):
    def after(counts, args, kwargs, result):
        counts[key] += result.nbytes
    return after


def _thomas_columns(counts, args, kwargs, result):
    counts["fem.thomas_solve.columns"] += 1 if result.ndim == 1 else result.shape[1]


def _gram_flop(m_out: int, m_in: int) -> float:
    # A^T W A for an m_out x m_in operator, counted as 2 m_out m_in^2 flops.
    return 2.0 * m_out * m_in * m_in


def _normal_eq(counts, args, kwargs, result):
    if result.status != "infeasible":
        op = args[0].operator
        counts["solvers.normal_eq.gram_flop"] += _gram_flop(op.output_m, op.input_m)


def _min_penalty(counts, args, kwargs, result):
    op = args[0]
    counts["solvers.normal_eq.gram_flop"] += _gram_flop(op.output_m, op.input_m)


def _scaling(counts, args, kwargs, result):
    # the check assembles its own scaled Gram matrix at every level
    op = args[0].target.operator
    counts["solvers.normal_eq.gram_flop"] += len(result.levels) * _gram_flop(
        op.output_m, op.input_m
    )


def _coercivity(counts, args, kwargs, result):
    counts["studies.coercivity.hits"] += result.antecedent_hits


def _projected_gradient(counts, args, kwargs, result):
    from gammareg.solvers import SolveConfig

    config = args[2] if len(args) > 2 else kwargs.get("config", SolveConfig())
    counts["solvers.pg.iterations"] += result.iterations
    # Every iteration accepts a step, except a last one whose line search
    # failed, which ends the solve before max_iter (exact for restarts = 0).
    failed_last = result.status != "converged" and 0 < result.iterations < config.max_iter
    counts["solvers.pg.accepted"] += result.iterations - int(failed_last)
    counts["solvers.pg.unconverged"] += result.status != "converged"


def _targets(tracer: Tracer):
    """(module, attribute, span name or wrapper factory, after-hook)."""

    def value_at(counts, args, kwargs, result):
        if tracer.inside("solvers.pg"):
            counts["solvers.pg.value_evals"] += 1

    def operator_at(original):
        built = tracer.wrap("operators.level_build", original)
        cached = tracer.wrap("operators.operator_at", original)

        @functools.wraps(original)
        def lookup(family, n):
            return (cached if n in family._cache else built)(family, n)

        return lookup

    return [
        ("gammareg.operators", "resample_matrix", "grids.resample_matrix",
         _bytes("grids.resample_matrix.bytes")),
        ("gammareg.fem", "resample_matrix", "grids.resample_matrix",
         _bytes("grids.resample_matrix.bytes")),
        ("gammareg.config", "make_quadrature_family", "operators.reference_build", None),
        ("gammareg.operators", "integral_matrix", "operators.integral_matrix",
         _bytes("operators.integral_matrix.bytes")),
        ("gammareg.operators", "OperatorFamily.operator_at", operator_at, None),
        ("gammareg.operators", "ForwardOperator.apply", "operators.apply", None),
        ("gammareg.operators", "uniform_gap", "operators.uniform_gap", None),
        ("gammareg.config", "make_fem_family", "fem.make_fem_family", None),
        ("gammareg.fem", "fem_operator_matrix", "fem.operator_matrix", None),
        ("gammareg.fem", "thomas_solve", "fem.thomas_solve", _thomas_columns),
        ("gammareg.fem", "assemble", "fem.assemble", None),
        ("gammareg.fem", "solve_bvp", "fem.solve_bvp", None),
        ("gammareg.fem", "rate_study", "fem.rate_study", None),
        ("gammareg.studies", "eval_Tn", "functionals.eval_Tn", None),
        ("gammareg.functionals", "eval_Tn", "functionals.eval_Tn", None),
        ("gammareg.studies", "eval_T", "functionals.eval_T", None),
        ("gammareg.functionals", "eval_T", "functionals.eval_T", None),
        ("gammareg.solvers", "eval_T", "functionals.eval_T", None),
        ("gammareg.functionals", "ApproxSequence.problem_at", "functionals.problem_at", None),
        ("gammareg.functionals", "noise_direction", "functionals.noise_direction", None),
        ("gammareg.studies", "minimize_problem", "solvers.minimize_problem", None),
        ("gammareg.solvers", "solve_linear_quadratic", "solvers.normal_eq", _normal_eq),
        ("gammareg.solvers", "projected_gradient", "solvers.pg", _projected_gradient),
        ("gammareg.solvers", "TikhonovObjective.value_at", "solvers.value_at", value_at),
        ("gammareg.studies", "min_penalty_solution", "solvers.min_penalty", _min_penalty),
        ("gammareg.studies", "inf_convergence_study", "studies.inf_convergence", None),
        ("gammareg.studies", "eps_minimizer_chain", "studies.eps_chain", None),
        ("gammareg.studies", "equi_coercivity_probe", "studies.coercivity", _coercivity),
        ("gammareg.studies", "estimate_gamma_limits", "studies.gamma_estimate", None),
        ("gammareg.studies", "alpha_zero_study", "studies.alpha_zero", None),
        ("gammareg.studies", "scaling_invariance_check", "studies.scaling", _scaling),
        ("gammareg.config", "parse_config", "config.parse", None),
        ("gammareg.config", "build_sequence", "config.build_sequence", None),
    ]
