"""Command-line front end: run configured studies, emit deterministic reports.

Subcommands:
  gammareg run --config PATH [--out PATH] [--format csv|jsonl] [--seed N] [--timings]
  gammareg validate --config PATH

Exit codes: 0 the study passed, or an eps-chain found no Cauchy tail (a
diagnostic verdict), 2 a verdict was negative, the config invalid or a value
could not be computed (a solve that does not converge, in any study, prints
"error: solver failed at <stage>: status <status>", and running out of memory
prints one "error:" line too), 3 the study refused to run (violated
hypotheses, with the measured numbers on stderr), 4 I/O failure.

Reports are byte-deterministic by default: floats are written with
repr (shortest round-trip form), rows are emitted in a fixed order, and
wall_time_ms stays 0 unless timings are requested explicitly.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time
from dataclasses import astuple, dataclass, fields, replace

import numpy as np

from .config import (
    GAMMA_FAMILIES,
    RunSpec,
    build_family,
    build_sequence,
    load_config,
    resolve_potential,
)
from .errors import ConfigError, NumericalError, StudyRefusal
from .fem import EllipticProblem, rate_study
from .operators import OperatorFamily, membership, standard_samples, uniform_gap
from .studies import (
    alpha_zero_study,
    eps_minimizer_chain,
    equi_coercivity_probe,
    estimate_gamma_limits,
    inf_convergence_study,
)

__all__ = ["main", "run_study", "ReportRow", "rows_to_csv", "rows_to_jsonl"]

EXIT_PASS = 0
EXIT_FAIL = 2
EXIT_REFUSED = 3
EXIT_IO = 4


@dataclass(frozen=True)
class ReportRow:
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


def _plain(row: ReportRow) -> dict:
    """The row's columns by name, in field order, each float column a Python float."""
    return {f.name: float(v) if f.type == "float" else v
            for f, v in zip(fields(row), astuple(row))}


def rows_to_csv(rows: list[ReportRow]) -> str:
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, [f.name for f in fields(ReportRow)], lineterminator="\n")
    writer.writeheader()
    writer.writerows(map(_plain, rows))
    return buffer.getvalue()


def rows_to_jsonl(rows: list[ReportRow]) -> str:
    return "".join(json.dumps(_plain(row), sort_keys=True) + "\n" for row in rows)


_EXACT_SINE = lambda t: np.sin(np.pi * t)  # noqa: E731


def _manufactured(potential) -> EllipticProblem:
    def source(t):
        return (np.pi**2) * np.sin(np.pi * t) + potential(t) * np.sin(np.pi * t)

    return EllipticProblem(potential, source, _EXACT_SINE)


def _samples(run: RunSpec, family: OperatorFamily):
    """The standard samples on the input grid, scaled to the domain's radius, that lie
    in the family's domain: a nonnegative ball drops the ones that change sign."""
    domain = family.reference.domain
    radius = domain.radius if domain.radius < math.inf else 1.0
    samples = standard_samples(run.problem.input_m, radius)
    return [x for x in samples if membership(domain, x)]


def _level_rows(kind: str, levels, **columns) -> list[ReportRow]:
    """One row per level and column: level by level, the columns in the order given."""
    return [ReportRow(kind, n, metric, value)
            for n, *values in zip(levels, *columns.values())
            for metric, value in zip(columns, values)]


def run_study(run: RunSpec) -> tuple[list[ReportRow], bool | None]:
    """Execute the configured study; return its rows and overall verdict.

    Raises StudyRefusal when the study declines its hypotheses; the
    caller maps that to the refusal exit code.
    """
    kind = run.study.kind
    rows: list[ReportRow] = []
    solver = run.solver

    if kind == "fem-rate":
        report = rate_study(_manufactured(resolve_potential(run.problem.potential)), run.schedule.levels)
        rows = _level_rows(kind, report.levels, l2_error=report.errors)
        verdict = -2.2 <= report.slope <= -1.8
        rows.append(ReportRow(kind, None, "rate_slope", report.slope, _verdict_word(verdict)))
        return rows, verdict

    if kind == "gamma-estimate":
        st = run.study
        estimate = estimate_gamma_limits(
            GAMMA_FAMILIES[st.gamma_family], st.grid, st.point, st.radii, st.index_window
        )
        for r, lo, up in zip(estimate.radii, estimate.lower_by_radius, estimate.upper_by_radius):
            rows.append(ReportRow(kind, None, f"lower@r={r:g}", lo))
            rows.append(ReportRow(kind, None, f"upper@r={r:g}", up))
        # the certified number is the lower (liminf-side) estimate; the upper
        # side is aliasing-prone on a fixed grid and stays diagnostic
        verdict = estimate.lower_stabilized
        rows.append(ReportRow(kind, None, "estimate", estimate.estimate, _verdict_word(verdict)))
        rows.append(
            ReportRow(kind, None, "upper_stabilized", 1.0 if estimate.upper_stabilized else 0.0,
                      "diagnostic")
        )
        rows.append(ReportRow(kind, None, "limit_gap", estimate.gap))
        return rows, verdict

    if kind == "integral-demo":
        family = build_family(run)
        samples = _samples(run, family)
        gaps = [uniform_gap(family, n, samples) for n in family.levels]
        rows = _level_rows(kind, family.levels, uniform_gap=gaps)
        verdict = gaps[-1] <= max(gaps[0] / 4.0, 1e-12)
        rows.append(ReportRow(kind, None, "final_gap", gaps[-1], _verdict_word(verdict)))
        return rows, verdict

    seq = build_sequence(run)

    if kind == "inf-study":
        report = inf_convergence_study(seq, solver, tol=run.study.tol)
        rows = _level_rows(kind, report.levels, inf_value=report.inf_values, gap=report.gaps,
                           min_distance=report.minimizer_distances)
        rows.append(ReportRow(kind, None, "reference_min", report.reference_min))
        rows.append(
            ReportRow(kind, None, "final_gap", report.gaps[-1], _verdict_word(report.verdict))
        )
        return rows, report.verdict

    if kind == "eps-chain":
        report = eps_minimizer_chain(seq, solver=solver, value_gap_tol=run.study.tol)
        rows = _level_rows(kind, report.levels, eps=report.eps_values,
                           chain_value=report.chain_values, certified=map(float, report.certified))
        rows += _level_rows(kind, report.levels[1:], step_distance=report.step_distances)
        rows.append(
            ReportRow(kind, None, "cluster_found", 1.0 if report.cluster_found else 0.0)
        )
        rows.append(ReportRow(kind, None, "exact_value_at_cluster", report.exact_value_at_cluster))
        rows.append(
            ReportRow(
                kind, None, "final_value_gap", report.final_value_gap,
                _verdict_word(report.verdict),
            )
        )
        return rows, report.verdict

    if kind == "coercivity":
        probe = equi_coercivity_probe(seq, _samples(run, seq.family), run.study.thresholds, solver)
        rows.append(ReportRow(kind, None, "delta", probe.delta))
        rows.append(ReportRow(kind, None, "antecedent_hits", float(probe.antecedent_hits)))
        rows.append(ReportRow(kind, None, "violations", float(len(probe.violations))))
        if probe.witness_bound is not None:
            rows.append(ReportRow(kind, None, "witness_bound", probe.witness_bound))
        rows.append(
            ReportRow(kind, None, "inclusion_holds", 1.0 if probe.verdict else 0.0,
                      _verdict_word(probe.verdict))
        )
        return rows, probe.verdict

    if kind == "alpha-zero":
        report = alpha_zero_study(seq, solver, tol=run.study.tol)
        rows = _level_rows(kind, report.levels, alpha=report.alphas,
                           noise_ratio=report.noise_ratios, operator_ratio=report.operator_ratios,
                           distance_to_min_penalty=report.distances, omega_gap=report.omega_gaps)
        rows.append(
            ReportRow(kind, None, "final_distance", report.distances[-1],
                      _verdict_word(report.verdict))
        )
        return rows, report.verdict

    raise ConfigError([f"[study] kind: no runner for {kind!r}"])


def _write_output(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    with open(out_path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


def _report_problems(exc: ConfigError) -> int:
    for problem in exc.problems:
        print(problem, file=sys.stderr)
    return EXIT_FAIL


def _load(path: str) -> RunSpec | int:
    """The config at `path`, or the exit code once its problems are on stderr."""
    try:
        return load_config(path)
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO
    except ConfigError as exc:
        return _report_problems(exc)
    except MemoryError as exc:
        return _out_of_memory(exc)


def _out_of_memory(exc: MemoryError) -> int:
    print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
    return EXIT_FAIL


def _cmd_validate(args) -> int:
    run = _load(args.config)
    if isinstance(run, int):
        return run
    print(f"config ok: {run.study.kind}")
    return EXIT_PASS


def _cmd_run(args) -> int:
    run = _load(args.config)
    if isinstance(run, int):
        return run

    if args.seed is not None:
        noise = replace(run.schedule.noise, seed=args.seed)
        run = replace(run, schedule=replace(run.schedule, noise=noise))
    started = time.perf_counter()
    try:
        rows, verdict = run_study(run)
    except StudyRefusal as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except ConfigError as exc:
        return _report_problems(exc)
    except (ValueError, NumericalError) as exc:
        # domain errors surfaced while assembling or running the study
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except MemoryError as exc:
        return _out_of_memory(exc)
    elapsed_ms = (time.perf_counter() - started) * 1000.0

    if args.timings and rows:
        last = rows[-1]
        rows[-1] = ReportRow(
            last.study, last.level, last.metric, last.value, last.verdict, elapsed_ms
        )
    text = rows_to_jsonl(rows) if args.format == "jsonl" else rows_to_csv(rows)
    try:
        _write_output(text, args.out)
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_PASS if verdict is not False else EXIT_FAIL


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="gammareg",
        description="Variational-convergence studies for Tikhonov regularization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a configured study and emit a report")
    run_p.add_argument("--config", required=True, help="path to an INI study description")
    run_p.add_argument("--out", default=None, help="report file (default: stdout)")
    run_p.add_argument("--format", choices=("csv", "jsonl"), default="csv", help="report format")
    run_p.add_argument("--seed", type=int, default=None, help="sets [schedule] noise_seed")
    run_p.add_argument(
        "--timings", action="store_true", help="record wall time (breaks byte determinism)"
    )
    run_p.set_defaults(func=_cmd_run)

    val_p = sub.add_parser("validate", help="check a config and list every problem")
    val_p.add_argument("--config", required=True, help="path to an INI study description")
    val_p.set_defaults(func=_cmd_validate)

    args = parser.parse_args(argv)
    if args.command == "run" and args.seed is not None and args.seed < 0:
        run_p.error("argument --seed: must be >= 0")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
