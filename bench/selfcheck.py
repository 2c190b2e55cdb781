"""Self-check of the benchmark: tracer arithmetic, report checks, tiny workloads, metric names.

    python3 bench/selfcheck.py

Runs in a few seconds and exits non-zero on the first failed check. The
tiny workloads go through the same set-up, pass recipes, tracer and
per-layer derivation as the real ones, on instances small enough to be
quick.
"""

from __future__ import annotations

import json
import math
import os
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402
from gammareg import errors, fem  # noqa: E402

import checks  # noqa: E402
import child  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from instances import WORKLOADS, Workload  # noqa: E402
from tracer import Tracer, _targets, self_times  # noqa: E402

TINY_CONFTEST = """\
[study]
kind = coercivity
thresholds = 0.1, 1, 10
[problem]
input_m = 9
quad_m = 65
alpha = 0.1
truth_amplitude = 0.003
[schedule]
levels = 5, 9, 17
alpha_kind = power
noise_kind = power
"""

TINY_LQ = """\
[study]
kind = inf-study
[problem]
input_m = 17
quad_m = 129
alpha = 0.1
truth_amplitude = 0.003
[schedule]
levels = 5, 9, 17, 33
alpha_kind = power
noise_kind = power
"""

TINY_ALPHA_ZERO = """\
[study]
kind = alpha-zero
[problem]
input_m = 9
quad_m = 65
alpha = 0
truth_amplitude = 0.003
[schedule]
levels = doubling:8:3
alpha_kind = power
alpha_exponent = 0.5
noise_kind = power
exact_family = true
"""

TINY_FEM_BALL = """\
[study]
kind = inf-study
[problem]
kernel = fem
input_m = 9
domain = l2_ball
radius = 0.05
truth_amplitude = 0.1
[schedule]
levels = 4, 8
"""

TINY_FEM_PNORM = """\
[study]
kind = eps-chain
[problem]
kernel = fem
input_m = 9
exponent_p = 3
penalty = p_power_norm
penalty_q = 3
truth_amplitude = 0.1
[schedule]
levels = 4, 8
noise_kind = seeded
noise_amplitude = 0.01
noise_seed = {seed}
"""

TINY = (
    Workload("tiny-lq", "lq",
             {"lq": TINY_LQ, "alpha_zero": TINY_ALPHA_ZERO, "conftest": TINY_CONFTEST}, "lq",
             probe_samples=16),
    Workload("tiny-fem", "fem", {"ball": TINY_FEM_BALL, "pnorm": TINY_FEM_PNORM}, "ball",
             rate_levels=(7, 15, 31)),
)


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selfcheck FAILED: {message}")


def check_self_time_arithmetic() -> None:
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9]
    spans = [["root", 0.0, 10.0, -1], ["a", 1.0, 4.0, 0], ["b", 2.0, 3.0, 1],
             ["c", 5.0, 9.0, 0]]
    expect(self_times(spans) == [3.0, 2.0, 1.0, 4.0], f"self times {self_times(spans)}")

    tracer = Tracer()
    inner = tracer.wrap("x.inner", lambda: sum(range(20000)))
    outer = tracer.wrap("x.outer", lambda: [inner() for _ in range(3)])
    with tracer.region("bench.pass"):
        outer()
        inner()
    summary = tracer.region_summary(0)
    expect(summary["calls"] == {"x.outer": 1, "x.inner": 4}, f"calls {summary['calls']}")
    own = sum(summary["self_s"].values())
    expect(0.0 < own <= summary["wall"], "self times must sum to within the region")


def check_tiny(workload: Workload) -> None:
    originals = [_owner_attr(module, attr) for module, attr, _, _ in _targets(Tracer())]
    tracer = Tracer()
    with tracer.region("bench.setup"):
        state = workloads.setup(workload, 42)
    ops = workloads.ops(workload, state, 42)
    with tracer.region("bench.pass"):
        results = [child.call(op) for op in ops]
    for op, (status, value) in zip(ops, results):
        expect(status == "ok", f"{workload.name}/{op.name}: {value}")
        outcome = op.outcome(value)
        expect(not checks.contract_violations(outcome),
               f"{workload.name}/{op.name}: {checks.contract_violations(outcome)}")
        json.dumps(outcome)
    restored = [_owner_attr(module, attr) for module, attr, _, _ in _targets(Tracer())]
    expect(restored == originals, f"{workload.name}: wrappers were not removed")

    setup, pass_ = tracer.region_summary(0), tracer.region_summary(1)
    layers = child.layer_metrics(setup, pass_, state.kept_bytes() / 1e6, 100.0)
    expect(all(math.isfinite(v) for v in layers.values()), f"{workload.name}: {layers}")
    expect(0.0 < layers["trace.pass_self_share"] <= 1.0,
           f"{workload.name}: pass self share {layers['trace.pass_self_share']}")
    calls = pass_["calls"]
    if workload.kind == "lq":
        levels = len(state.seqs["conftest"].levels)
        expect(calls["functionals.eval_Tn"] == workload.probe_samples * levels,
               f"eval_Tn calls {calls.get('functionals.eval_Tn')}")
        expect(all(layers[name] > 0 for name in (
            "studies.coercivity.s", "studies.coercivity.hits", "studies.gamma_estimate.s",
            "operators.uniform_gap.s")), "the probe path is measured")
        expect(layers["solvers.normal_eq.solves"] > 0 and layers["solvers.pg.solves"] == 0,
               "lq solves by normal equations only")
    if workload.kind == "fem":
        expect(layers["solvers.pg.solves"] > 0 and layers["solvers.normal_eq.solves"] == 0,
               "fem solves by projected gradient only")
        expect(layers["fem.solve_bvp.calls"] == len(workload.rate_levels), "rate study solves")


def _owner_attr(module: str, attr: str):
    owner = sys.modules[module]
    for part in attr.split("."):
        owner = owner.__dict__[part]
    return owner


def check_metric_names() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    expect({w["name"] for w in spec["workloads"]} <= set(WORKLOADS), "workload names")
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END,
           "end-to-end metrics and units")
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect(all(run.per_layer_unit(name) == unit for name, unit in per_layer.items()),
           "per-layer units")
    empty = {"wall": 1.0, "self_s": {}, "calls": {}, "counts": {}}
    derived = set(child.layer_metrics(empty, empty, 1.0, 1.0))
    derived |= {"cli.import.s", "cli.render.s", "cli.reports_identical", "trace.overhead"}
    expect(set(per_layer) == derived, f"per-layer names differ: {set(per_layer) ^ derived}")


def check_reports() -> None:
    header = "study,level,metric,value,verdict,wall_time_ms\n"
    good = header + "s,1,gap,0.5,,0.0\ns,,final_gap,0.5,pass,0.0\n"
    pinned = {"exit": 0, "rows": checks.parse_report(good)}

    def wrong(text, code):
        return [p for p, is_wrong in checks.check_report(text, code, pinned) if is_wrong]

    expect(checks.check_report(good, 0, pinned) == [], "the pinned report passes")
    expect(wrong(good, 2), "the exit code is pinned")
    expect(wrong("", 0), "a missing report is wrong")
    expect(wrong(good.replace("0.5,,", "0.6,,"), 0), "values are pinned")
    expect(wrong(good.replace(",pass,", ",fail,"), 0), "verdicts are pinned")
    expect(checks.check_report(good.replace("0.5,pass", "inf,pass"), 0, pinned),
           "a non-finite value fails")


def report_known_defect() -> None:
    """Say whether the rate-study defect the workloads stop short of is
    still there; it does not fail the self-check."""
    problem = fem.EllipticProblem(
        lambda t: np.ones_like(t),
        lambda t: (np.pi**2 + 1.0) * np.sin(np.pi * t),
        lambda t: np.sin(np.pi * t),
    )
    levels = WORKLOADS["fem-pg-8193"].rate_levels + (512,)
    try:
        fem.rate_study(problem, levels)
    except errors.NumericalError as exc:
        print(f"known defect still present: rate_study at levels {levels} raises: {exc}")
    else:
        print(f"known defect gone: rate_study at levels {levels} passes; "
              "the fem-pg-8193 rate levels can go up to 512")


def check_tail() -> None:
    expect(run.tail([3.0, 1.0, 2.0]) == (2.0, 0.5), "few samples give the median")
    value, q = run.tail([float(i) for i in range(40)])
    expect(q == 0.75 and value == 29.25, f"40 samples give p75, got p{100 * q} = {value}")
    expect(run.tail([float(i) for i in range(1000)])[1] == 0.9, "p90 at most")


def main() -> None:
    check_self_time_arithmetic()
    check_tail()
    check_reports()
    check_metric_names()
    for workload in TINY:
        check_tiny(workload)
    report_known_defect()
    print("selfcheck ok")


if __name__ == "__main__":
    main()
