"""Record the reference values of pinned.json from the code as it stands.

    python3 bench/pin.py

Runs one pass of every workload at DEFAULT_SEED, and each workload's CLI
job, and writes what they returned. Refuses to pin when a call raises or
breaks its study's contract (see checks.py), or a CLI job does: the
workloads are chosen so that no operation fails, and a defect is never the
expected result. Re-pin only together with a change to what a study is
specified to return.
"""

import hashlib
import json
import os
import sys
import tempfile

# the same BLAS setting as the benchmark's own processes, before numpy loads
os.environ.update({k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from child import call  # noqa: E402
from instances import DEFAULT_SEED, WORKLOADS  # noqa: E402


def pin_ops(name: str) -> dict:
    state = workloads.setup(WORKLOADS[name], DEFAULT_SEED)
    entries = {}
    for op in workloads.ops(WORKLOADS[name], state, DEFAULT_SEED):
        status, value = call(op)
        if status == "raised":
            raise SystemExit(f"{name}/{op.name} raised {value}")
        outcome = op.outcome(value)
        entry = {"verdict": outcome["verdict"], "values": outcome["values"]}
        problems = [p for p, _ in checks.check_outcome(outcome, entry, True)]
        if problems:
            raise SystemExit(f"{name}/{op.name}: {'; '.join(problems)}")
        entries[op.name] = entry
    return entries


def pin_cli(name: str, tmp: str) -> dict:
    result = run.run_cli(name, DEFAULT_SEED, tmp, False, run.Clock())
    entry = {"exit": result["exit"], "rows": checks.parse_report(result["report"])}
    if not entry["rows"]:
        raise SystemExit(f"{name}: the CLI wrote no report (exit {result['exit']})")
    problems = [p for p, _ in checks.check_report(result["report"], result["exit"], entry)]
    if problems:
        raise SystemExit(f"{name} CLI: {'; '.join(problems)}")
    # the report's bytes, for cli.reports_identical
    entry["sha256"] = hashlib.sha256(result["report"].encode()).hexdigest()
    return entry


def main() -> None:
    pinned = {"seed": DEFAULT_SEED, "ops": {}, "cli": {}}
    with tempfile.TemporaryDirectory(dir=BENCH) as tmp:
        for name in WORKLOADS:
            pinned["ops"][name] = pin_ops(name)
            pinned["cli"][name] = pin_cli(name, tmp)
    with open(checks.PINNED_PATH, "w", encoding="utf-8") as handle:
        json.dump(pinned, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    main()
