"""Correctness checks against the reference values in pinned.json.

An outcome is the JSON-ready summary of one operation:

    {"verdict": True | False | None,
     "values": {name: number or list of numbers},   # primary quantities
     "seeded": [names of values that depend on the workload seed],
     "bounds": {name: [values, bound]},             # round-off quantities
     "violations": [contract statements the result breaks]}

Primary quantities are compared with a fixed relative tolerance, and only
at the seed they were pinned at when they depend on the seed. Round-off
quantities are held to their stated bound. Verdicts must equal the pinned
verdict at every seed.

Apart from the pinned values, every outcome must keep its study's own
contract: finite primary quantities, and no "violations". A broken contract
is a failed operation; a departure from a pinned value is a wrong answer.
No operation broke its contract at pinning (pin.py refuses to pin one that
does), so every pinned value is a number.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os

RTOL = 1e-6
ATOL = 1e-12

PINNED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pinned.json")


def load_pinned() -> dict:
    with open(PINNED_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _flat(value) -> list:
    values = value if isinstance(value, list) else [value]
    return [float(v) for v in values]


def _close(actual: float, expected: float) -> bool:
    return abs(actual - expected) <= RTOL * abs(expected) + ATOL


def contract_violations(outcome: dict) -> list[str]:
    problems = list(outcome.get("violations", ()))
    for name, value in outcome["values"].items():
        if not all(math.isfinite(v) for v in _flat(value)):
            problems.append(f"{name} is not finite")
    return problems


def check_outcome(outcome: dict, pinned: dict, seed_is_default: bool) -> list[tuple[str, bool]]:
    """Problems with one outcome, each flagged True when it is a wrong answer."""
    problems = [(p, False) for p in contract_violations(outcome)]
    return problems + [(p, True) for p in compare_outcome(outcome, pinned, seed_is_default)]


def check_report(text: str, exit_code: int, pinned: dict) -> list[tuple[str, bool]]:
    """Problems with one CLI run, each flagged True when it is a wrong answer.

    The run must exit with the pinned code and write the pinned rows: keys
    and verdicts exactly, values within tolerance. A missing or unreadable
    report is a wrong answer.
    """
    try:
        rows = parse_report(text)
    except (ValueError, IndexError) as exc:
        return [(f"unreadable report (exit {exit_code}): {exc}", True)]
    problems = [(f"row {'/'.join(r[:3])} value {r[3]!r} is not finite", False)
                for r in rows if not math.isfinite(r[3])]
    wrong = compare_report(rows, pinned["rows"])
    if exit_code != pinned["exit"]:
        wrong.append(f"exit code {exit_code} != pinned {pinned['exit']}")
    return problems + [(p, True) for p in wrong]


def compare_outcome(outcome: dict, pinned: dict, seed_is_default: bool) -> list[str]:
    """Every way `outcome` departs from its pinned reference; empty if none."""
    problems = []
    if outcome["verdict"] != pinned["verdict"]:
        problems.append(f"verdict {outcome['verdict']} != pinned {pinned['verdict']}")
    seeded = set(outcome.get("seeded", ()))
    for name, expected in pinned["values"].items():
        if name in seeded and not seed_is_default:
            continue
        if name not in outcome["values"]:
            problems.append(f"{name} missing")
            continue
        got, want = _flat(outcome["values"][name]), _flat(expected)
        if len(got) != len(want):
            problems.append(f"{name} has {len(got)} entries, pinned {len(want)}")
        elif not all(_close(a, b) for a, b in zip(got, want)):
            worst = max(abs(a - b) for a, b in zip(got, want))
            problems.append(f"{name} off its pinned value by {worst:.3e}")
    for name, (values, bound) in outcome.get("bounds", {}).items():
        if not all(v <= bound for v in _flat(values)):
            problems.append(f"{name} exceeds its bound {bound:g}")
    return problems


def parse_report(text: str) -> list[list]:
    """CSV report rows as [study, level, metric, value, verdict]."""
    rows = list(csv.reader(io.StringIO(text)))[1:]
    return [[r[0], r[1], r[2], float(r[3]), r[4]] for r in rows]


def compare_report(rows: list[list], pinned_rows: list[list]) -> list[str]:
    """Row keys and verdicts must match exactly, values within tolerance."""
    if len(rows) != len(pinned_rows):
        return [f"report has {len(rows)} rows, pinned {len(pinned_rows)}"]
    problems = []
    for got, want in zip(rows, pinned_rows):
        key = "/".join(str(part) for part in want[:3])
        if got[:3] != want[:3]:
            problems.append(f"row {key}: {got} != pinned {want}")
        elif got[4] != want[4]:
            problems.append(f"row {key}: verdict {got[4]!r} != pinned {want[4]!r}")
        elif not _close(got[3], want[3]):
            problems.append(f"row {key}: value {got[3]!r} != pinned {want[3]!r}")
    return problems
