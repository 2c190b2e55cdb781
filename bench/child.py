"""One client of a workload, in a fresh process.

    python3 bench/child.py WORKLOAD SEED SECONDS TRACE [TRACE_OUT]

Sets up once, then runs passes over the workload's study calls in a closed
loop until SECONDS have gone, and prints one JSON object on stdout. With
TRACE = 1 the set-up is traced and passes alternate untraced and traced;
TRACE_OUT receives the spans of the set-up and of the median traced pass.
run.py starts it with BLAS threads pinned to 1.
"""

import time

T0 = time.perf_counter()  # set-up is timed from the child's first line

import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")
sys.path.insert(0, SRC)

import gammareg  # noqa: E402

if os.path.dirname(os.path.abspath(gammareg.__file__)) != os.path.join(SRC, "gammareg"):
    sys.exit(f"gammareg was imported from {gammareg.__file__}, not from {SRC}")

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from instances import DEFAULT_SEED, WORKLOADS  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
    }


def call(op):
    try:
        return "ok", op.call()
    except Exception as exc:  # a raising study call is a failed operation
        return "raised", f"{type(exc).__name__}: {exc}"


def check(workload: str, seed: int, ops, passes) -> dict:
    """Count attempted, failed and wrong operations over all passes.

    The first result of each call is checked against its contract and
    pinned.json; every later pass must reproduce it exactly.
    """
    pinned = checks.load_pinned()["ops"][workload]
    first = {}
    attempted = failed = incorrect = 0
    failures = Counter()
    for _, _, results in passes:
        for op, (status, value) in zip(ops, results):
            attempted += 1
            if status == "raised":
                failed += 1
                failures[f"{op.name} raised {value}"] += 1
                continue
            outcome = json.dumps(op.outcome(value), sort_keys=True)
            if op.name not in first:
                first[op.name] = outcome, checks.check_outcome(
                    json.loads(outcome), pinned[op.name], seed == DEFAULT_SEED
                )
            first_outcome, problems = first[op.name]
            if outcome != first_outcome:
                problems = [("differs from its first pass", True)]
            if problems:
                failed += 1
                incorrect += any(wrong for _, wrong in problems)
                failures[f"{op.name}: {problems[0][0]}"] += 1
    return {"attempted": attempted, "failed": failed, "incorrect": incorrect,
            "failures": dict(failures)}


def layer_metrics(setup: dict, pass_: dict, kept_mb: float, rss_mb: float) -> dict:
    """Per-layer metrics of one set-up plus one pass; see NOTES.md."""
    self_s, calls, counts = {}, {}, {}
    for part in (setup, pass_):
        for key, into in (("self_s", self_s), ("calls", calls), ("counts", counts)):
            for name, value in part[key].items():
                into[name] = into.get(name, 0) + value

    def s(name):
        return self_s.get(name, 0.0)

    def c(name):
        return calls.get(name, 0)

    def k(name):
        return counts.get(name, 0.0)

    hits, builds = c("operators.operator_at"), c("operators.level_build")
    value_evals = k("solvers.pg.value_evals")
    m = {
        "grids.resample_matrix.s": s("grids.resample_matrix"),
        "grids.resample_matrix.calls": c("grids.resample_matrix"),
        "grids.resample_matrix.mb": k("grids.resample_matrix.bytes") / 1e6,
        "operators.reference_build.s": s("operators.reference_build"),
        "operators.integral_matrix.s": s("operators.integral_matrix"),
        "operators.integral_matrix.mb": k("operators.integral_matrix.bytes") / 1e6,
        "operators.level_build.s": s("operators.level_build"),
        "operators.level_build.count": builds,
        "operators.operator_cache.hit_ratio": hits / (hits + builds) if hits + builds else 0.0,
        "operators.kept_mb": kept_mb,
        "operators.rss_over_kept": rss_mb / kept_mb,
        "operators.apply.calls": c("operators.apply"),
        "operators.uniform_gap.s": s("operators.uniform_gap"),
        "fem.operator_matrix.s": s("fem.operator_matrix"),
        "fem.thomas_solve.s": s("fem.thomas_solve"),
        "fem.thomas_solve.columns": k("fem.thomas_solve.columns"),
        "fem.assemble.calls": c("fem.assemble"),
        "fem.solve_bvp.calls": c("fem.solve_bvp"),
        "fem.solve_bvp.failed": k("fem.solve_bvp.failed"),
        "fem.rate_study.s": s("fem.rate_study"),
        "functionals.eval_T.calls": c("functionals.eval_T"),
        "functionals.eval_T.s": s("functionals.eval_T"),
        "functionals.problem_at.calls": c("functionals.problem_at"),
        "functionals.problem_at.s": s("functionals.problem_at"),
        "functionals.noise_direction.calls": c("functionals.noise_direction"),
        "solvers.normal_eq.solves": c("solvers.normal_eq"),
        "solvers.normal_eq.s": s("solvers.normal_eq"),
        "solvers.normal_eq.gram_gflop": k("solvers.normal_eq.gram_flop") / 1e9,
        "solvers.min_penalty.s": s("solvers.min_penalty"),
        "solvers.pg.solves": c("solvers.pg"),
        "solvers.pg.s": s("solvers.pg"),
        "solvers.pg.iterations": k("solvers.pg.iterations"),
        "solvers.pg.value_evals": value_evals,
        "solvers.pg.accept_ratio": k("solvers.pg.accepted") / value_evals if value_evals else 0.0,
        "solvers.pg.unconverged": k("solvers.pg.unconverged"),
        "studies.inf_convergence.s": s("studies.inf_convergence"),
        "studies.eps_chain.s": s("studies.eps_chain"),
        "studies.coercivity.s": s("studies.coercivity"),
        "studies.gamma_estimate.s": s("studies.gamma_estimate"),
        "studies.alpha_zero.s": s("studies.alpha_zero"),
        "studies.scaling.s": s("studies.scaling"),
        "studies.coercivity.hits": k("studies.coercivity.hits"),
        "config.parse.s": s("config.parse"),
        "config.build_sequence.s": s("config.build_sequence"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum((t for name, t in self_s.items()
                                    if name.split(".")[0] == layer), 0.0)
    m["trace.pass_self_share"] = sum(
        t for name, t in pass_["self_s"].items() if name.split(".")[0] in LAYERS
    ) / pass_["wall"]
    return m


def main(argv: list[str]) -> None:
    workload, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    tracer = Tracer() if trace else None

    def traced_region(name: str, on: bool):
        return tracer.region(name) if on else contextlib.nullcontext()

    with traced_region("bench.setup", trace):
        state = workloads.setup(WORKLOADS[workload], seed)
    setup_s = time.perf_counter() - T0
    kept_mb = state.kept_bytes() / 1e6
    ops = workloads.ops(WORKLOADS[workload], state, seed)

    passes = []  # (wall seconds, traced, results)
    rss_before_traced_passes = None
    started = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        if traced and rss_before_traced_passes is None:
            rss_before_traced_passes = peak_rss_mb()
        with traced_region("bench.pass", traced):
            t0 = time.perf_counter()
            results = [call(op) for op in ops]
            wall = time.perf_counter() - t0
        passes.append((wall, traced, results))
        if time.perf_counter() - started >= seconds and (not trace or len(passes) >= 2):
            break

    out = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "passes": [[wall, traced] for wall, traced, _ in passes],
        "env": environment(),
    }
    out.update(check(workload, seed, ops, passes))
    if trace:
        summaries = [tracer.region_summary(i) for i in range(len(tracer.regions))]
        by_wall = sorted(range(1, len(summaries)), key=lambda i: summaries[i]["wall"])
        median = by_wall[(len(by_wall) - 1) // 2]
        out["layers"] = layer_metrics(
            summaries[0], summaries[median], kept_mb, rss_before_traced_passes
        )
        out["pass_counts"] = [
            {"calls": summ["calls"], "counts": summ["counts"]} for summ in summaries[1:]
        ]
        if len(argv) > 4:
            tracer.dump(argv[4], [0, median], T0)
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
