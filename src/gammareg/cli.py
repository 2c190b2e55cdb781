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
import sys
import time
from dataclasses import astuple, fields, replace

from .config import STUDIES, RunSpec, load_config
from .errors import ConfigError, NumericalError, StudyRefusal
from .studies import ReportRow

__all__ = ["main", "run_study", "ReportRow", "rows_to_csv", "rows_to_jsonl"]

EXIT_PASS = 0
EXIT_FAIL = 2
EXIT_REFUSED = 3
EXIT_IO = 4


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


def run_study(run: RunSpec) -> tuple[list[ReportRow], bool | None]:
    """Execute the configured study; return its rows and overall verdict.

    Raises StudyRefusal when the study declines its hypotheses; the
    caller maps that to the refusal exit code.
    """
    report = STUDIES[run.study.kind].run(run)
    return report.rows(run.study.kind), report.verdict


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
    except (ValueError, NumericalError) as exc:
        # domain errors surfaced while assembling or running the study
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except MemoryError as exc:
        return _out_of_memory(exc)
    elapsed_ms = (time.perf_counter() - started) * 1000.0

    if args.timings and rows:
        rows[-1] = replace(rows[-1], wall_time_ms=elapsed_ms)
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
