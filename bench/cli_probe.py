"""`python -m gammareg.cli`, timing the import of gammareg and report rendering.

    python3 bench/cli_probe.py TIMINGS_JSON run --config ... --out ...

Runs the CLI's own `main` in this fresh process with the given arguments,
writes {"import_s", "render_s"} to TIMINGS_JSON and exits with the CLI's
exit code. Used by the traced run of run.py.
"""

import json
import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)

t0 = time.perf_counter()
import gammareg.cli as cli  # noqa: E402

import_s = time.perf_counter() - t0

render_s = []
rows_to_csv = cli.rows_to_csv


def timed_rows_to_csv(rows):
    t = time.perf_counter()
    text = rows_to_csv(rows)
    render_s.append(time.perf_counter() - t)
    return text


cli.rows_to_csv = timed_rows_to_csv
code = cli.main(sys.argv[2:])
with open(sys.argv[1], "w", encoding="utf-8") as handle:
    json.dump({"import_s": import_s, "render_s": sum(render_s)}, handle)
sys.exit(code)
