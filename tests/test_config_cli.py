"""Config parsing and the command-line interface, including determinism.

Every `gammareg` call checked here is a row of CASES, run in this process by
`check` through `gammareg.cli.main` with Python warnings recorded: a row fails
on any warning, as the numpy warnings a subprocess would print on stderr.  A
row's key is its test id; `name[id]` keys make one parametrized test.  One
test alone starts `python -m gammareg.cli` as a process.
"""

from __future__ import annotations

import csv
import importlib
import importlib.util
import io
import itertools
import json
import pkgutil
import re
import subprocess
import sys
import textwrap
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import gammareg
from gammareg import (
    ConfigError,
    NumericalError,
    ProblemSpec,
    ScheduleSpec,
    SolveConfig,
    StudyRefusal,
    StudySpec,
    UnsupportedPenaltyError,
    build_family,
    build_target,
    fem,
    parse_config,
    resolve_potential,
)
from gammareg.cli import run_study
from gammareg.config import (
    DATA, DOMAINS, GAMMA_FAMILIES, KERNELS, PENALTIES, STUDIES, TRUTHS, Builds,
)
from gammareg.functionals import ALPHA_KINDS, NOISE_DIRECTIONS, NOISE_KINDS


# ---------------------------------------------------------------- parsing


def test_minimal_config_uses_defaults():
    run = parse_config("[study]\nkind = inf-study\n")
    assert run.study.kind == "inf-study"
    assert run.problem.kernel == "gaussian"
    assert run.problem.input_m == 65
    assert run.schedule.levels == (8, 16, 32, 64, 128)
    assert run.solver.max_iter == 500
    assert run.study == StudySpec("inf-study", tol=1e-6)
    assert run.problem == ProblemSpec()
    assert run.schedule == ScheduleSpec()
    assert run.solver == SolveConfig()


def test_full_config_round_trip():
    run = parse_config(
        textwrap.dedent(
            """
            [study]
            kind = inf-study
            tol = 1e-4

            [problem]
            kernel = gaussian
            sigma = 0.3
            input_m = 17
            quad_m = 65
            alpha = 0.2
            truth = sine
            truth_amplitude = 0.01

            [schedule]
            levels = 5, 9, 17
            alpha_kind = power
            alpha_amplitude = 1.0
            alpha_exponent = 1.0
            noise_kind = seeded
            noise_amplitude = 0.5
            noise_exponent = 1.0
            noise_seed = 7

            [solver]
            max_iter = 800
            grad_tol = 1e-9
            """
        )
    )
    assert run.study.tol == pytest.approx(1e-4)
    assert run.problem.sigma == pytest.approx(0.3)
    assert run.schedule.levels == (5, 9, 17)
    assert run.schedule.noise.kind == "seeded"
    assert run.solver.max_iter == 800


def test_readme_config_block_validates():
    # the README's example lists every key; all but tol and point at their defaults,
    # and the keys of other kinds commented out
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```ini\n(.*?)```", readme, re.S)
    run = parse_config(block)
    assert run.study == StudySpec("inf-study", tol=1e-3)
    for kind, keys, spec in [
        ("gamma-estimate", "family|point|radii|index_window|grid_m",
         StudySpec("gamma-estimate", point=0.785)),
        ("coercivity", "thresholds", StudySpec("coercivity")),
    ]:
        text = block.replace("kind = inf-study", f"kind = {kind}").replace("tol = 1e-3\n", "")
        assert parse_config(re.sub(rf"^;({keys}) =", r"\1 =", text, flags=re.M)).study == spec
    assert run.problem == ProblemSpec()
    assert run.schedule == ScheduleSpec()
    assert run.solver == SolveConfig()


def test_readme_kind_table_is_the_studies_records():
    # each kind's [study] keys, default tol and what it builds, as README's table gives them
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (table,) = re.findall(r"^\| kind \|.*\n\| ---.*\n((?:\|.*\n)+)", readme, re.M)
    builds = {"nothing": Builds.NOTHING, "a family": Builds.FAMILY,
              "a sequence": Builds.SEQUENCE, "a solved sequence": Builds.SOLVED}
    rows = []
    for line in table.splitlines():
        kind, keys, tol, built, _rules = (cell.strip() for cell in line.strip("|").split("|"))
        rows.append((kind.strip("`"), tuple(re.findall(r"`(\w+)`", keys)),
                     None if tol == "—" else float(tol), builds[built]))
    assert rows == [(kind, s.keys, s.tol, s.builds) for kind, s in STUDIES.items()]


def test_doubling_levels_grammar():
    run = parse_config(
        "[study]\nkind = inf-study\n[schedule]\nlevels = doubling:5:4\n"
    )
    assert run.schedule.levels == (5, 10, 20, 40)


def test_level_list_must_increase():
    with pytest.raises(ConfigError):
        parse_config("[study]\nkind = inf-study\n[schedule]\nlevels = 9, 9, 17\n")


def test_config_errors_are_aggregated():
    with pytest.raises(ConfigError) as err:
        parse_config(
            "[study]\nkind = bogus\n[problem]\nalpha = -1\nkernel = nope\n"
        )
    text = "\n".join(err.value.problems)
    assert "kind" in text
    assert "alpha" in text
    assert "kernel" in text
    assert len(err.value.problems) >= 3


def test_unknown_sections_are_rejected():
    with pytest.raises(ConfigError):
        parse_config("[study]\nkind = inf-study\n[mystery]\nx = 1\n")


def test_capitalised_keys_are_located():
    # configparser lowercases option names; the line is found all the same
    for line, problem in [
        ("Kernl = separable", "[problem] kernl: unknown key (line 4)"),
        ("Kernel = nope", "[problem] kernel: expected one of identity, constant, separable, "
                          "gaussian, fem; got 'nope' (line 4)"),
    ]:
        with pytest.raises(ConfigError) as err:
            parse_config(f"[study]\nkind = inf-study\n[problem]\n{line}\n")
        assert err.value.problems == [problem]


@pytest.mark.parametrize("key, value", [("thresholds", "0.5, nan"), ("radii", "0.2, inf")])
def test_non_finite_list_values_are_refused(key, value):
    kind = "coercivity" if key == "thresholds" else "gamma-estimate"  # the kind that reads it
    with pytest.raises(ConfigError) as err:
        parse_config(f"[study]\nkind = {kind}\n{key} = {value}\n")
    assert err.value.problems == [f"[study] {key}: must be finite (line 3)"]


@pytest.mark.parametrize("kind, section, line, problem", [
    ("inf-study", "problem", "sigma = abc", "sigma: not a number: 'abc'"),
    ("inf-study", "problem", "radius = 0", "radius: must be positive"),
    ("inf-study", "problem", "alpha = -1", "alpha: must be nonnegative"),
    ("inf-study", "problem", "alpha = inf", "alpha: must be finite"),
    ("inf-study", "problem", "quad_m = 9.5", "quad_m: not an integer: '9.5'"),
    ("inf-study", "problem", "input_m = 2", "input_m: must be >= 3"),
    ("inf-study", "problem", "exponent_p = 0.5", "exponent_p: must be >= 1"),
    ("inf-study", "schedule", "exact_family = maybe", "exact_family: not a boolean: 'maybe'"),
    ("inf-study", "schedule", "levels = 4, x", "levels: not a comma list of integers: '4, x'"),
    ("coercivity", "study", "thresholds = 1, x", "thresholds: not a comma list of numbers: '1, x'"),
])
def test_each_reader_complaint_names_its_key_and_line(kind, section, line, problem):
    text = f"[study]\nkind = {kind}\n" + ("" if section == "study" else f"[{section}]\n")
    with pytest.raises(ConfigError) as err:
        parse_config(f"{text}{line}\n")
    assert err.value.problems == [f"[{section}] {problem} (line {text.count(chr(10)) + 1})"]


def test_syntax_errors_are_reported_as_config_errors():
    with pytest.raises(ConfigError):
        parse_config("not an ini file")


def test_levels_must_not_exceed_quadrature_resolution():
    with pytest.raises(ConfigError) as err:
        parse_config(
            "[study]\nkind = inf-study\n[problem]\nquad_m = 33\n"
            "[schedule]\nlevels = 17, 65\n"
        )
    assert any("quad_m" in p for p in err.value.problems)


def test_alpha_zero_study_needs_zero_alpha():
    with pytest.raises(ConfigError):
        parse_config(
            "[study]\nkind = alpha-zero\n[problem]\nalpha = 0.1\n"
            "[schedule]\nalpha_kind = power\n"
        )


def test_coercivity_needs_positive_alpha():
    with pytest.raises(ConfigError):
        parse_config("[study]\nkind = coercivity\n[problem]\nalpha = 0\n")


def test_constant_schedule_with_zero_alpha_is_rejected():
    with pytest.raises(ConfigError):
        parse_config("[study]\nkind = inf-study\n[problem]\nalpha = 0\n")


def test_validated_configs_have_a_supported_penalty():
    # kind x penalty x p x domain x kernel at tiny sizes: a config that
    # validates must not fail in the solver on its penalty or exponent
    penalties = [("half_sq_l2", 2), ("linf", 2)] + [("p_power_norm", q) for q in (1.5, 2, 3)]
    refused = 0
    for kind, (penalty, q), p, domain, kernel in itertools.product(
        ("inf-study", "eps-chain", "alpha-zero", "coercivity"),
        penalties,
        (1, 1.5, 2, 3),
        ("whole_space", "l2_ball"),
        ("gaussian", "fem"),
    ):
        text = (
            f"[study]\nkind = {kind}\n[problem]\nkernel = {kernel}\ninput_m = 9\n"
            f"quad_m = 33\nalpha = {0 if kind == 'alpha-zero' else 0.1}\nexponent_p = {p}\n"
            f"penalty = {penalty}\npenalty_q = {q}\ndomain = {domain}\n"
            "truth_amplitude = 0.01\n[schedule]\nlevels = 4, 8\nalpha_kind = power\n"
            "[solver]\nmax_iter = 50\n"
        )
        try:
            run = parse_config(text)
        except ConfigError as exc:
            assert len(exc.problems) == 1
            assert exc.problems[0].startswith(("[problem] penalty:", "[problem] exponent_p:"))
            refused += 1
            continue
        try:
            run_study(run)
        except UnsupportedPenaltyError as exc:
            pytest.fail(f"{kind} {penalty} q={q} p={p} {domain} {kernel} validates "
                        f"but raises: {exc}")
        except (NumericalError, StudyRefusal):
            pass
    # linf or q = 1.5, or p = 1, in each of the three solver-backed kinds
    assert refused == 3 * 11 * 4


# --------------------------------------------------------------- potentials


def test_builtin_potentials_are_callables():
    one = resolve_potential("one")
    assert np.allclose(one(np.array([0.0, 0.5, 1.0])), 1.0)
    zero = resolve_potential("zero")
    assert np.allclose(zero(np.array([0.25])), 0.0)


def test_table_potential_interpolates():
    table = resolve_potential("table:1.0,2.0")
    ts = np.array([0.0, 0.5, 1.0])
    assert np.allclose(table(ts), [1.0, 1.5, 2.0], atol=1e-15)


def test_table_potential_validation():
    with pytest.raises(ConfigError):
        parse_config(
            "[study]\nkind = fem-rate\n[problem]\nkernel = fem\npotential = table:1.0\n"
        )
    with pytest.raises(ConfigError):
        parse_config(
            "[study]\nkind = fem-rate\n[problem]\nkernel = fem\npotential = table:1.0,-2.0\n"
        )


def test_unknown_potential_rejected():
    with pytest.raises(ConfigError):
        parse_config(
            "[study]\nkind = fem-rate\n[problem]\nkernel = fem\npotential = quartic\n"
        )


# ----------------------------------------------------------------- builders


def test_build_family_shapes():
    run = parse_config(
        "[study]\nkind = inf-study\n[problem]\ninput_m = 9\nquad_m = 33\n"
        "[schedule]\nlevels = 5, 9\n"
    )
    family = build_family(run)
    assert family.levels == (5, 9)
    assert family.reference.output_m == 33
    assert family.reference.input_m == 9


def test_exact_family_reuses_the_reference():
    for kernel in ("gaussian", "fem", "identity"):
        run = parse_config(
            f"[study]\nkind = inf-study\n[problem]\nkernel = {kernel}\ninput_m = 9\n"
            "quad_m = 33\n[schedule]\nlevels = 5, 9\nexact_family = true\n"
        )
        family = build_family(run)
        ref = family.reference
        assert family.levels == (5, 9)
        assert family.operator_at(5) is ref
        assert family.operator_at(9) is ref


def test_build_target_applies_truth():
    run = parse_config(
        "[study]\nkind = inf-study\n[problem]\ninput_m = 9\nquad_m = 33\n"
        "truth_amplitude = 0.25\n[schedule]\nlevels = 5, 9\n"
    )
    target = build_target(run)
    assert target.alpha == pytest.approx(0.05)
    assert target.data_y.node_count == 33


# --------------------------------------------------------------------- CLI


@dataclass(frozen=True)
class Case:
    """One `gammareg` call: the config text it reads as {config}, its argv ({config}
    and {tmp}, the test's directory, are filled in), the exit code, the stderr (the
    exact text, or a check on it), a check on the report, and a partner call whose
    report must be the same (`same`) or differ, and an attribute to patch first."""

    config: str
    argv: str
    code: int
    stderr: str | Callable[[str], bool] = ""
    report: Callable[[str], bool] | None = None
    partner: Case | None = None
    same: bool = True
    patch: tuple[str, object] | None = None


def check(case: Case, cli, tmp_path, monkeypatch, name: str = "row") -> str:
    """Run `case` and assert what it expects; return its report: stdout, or the
    --out file when the run wrote one."""
    if case.patch is not None:
        monkeypatch.setattr(*case.patch)
    config = tmp_path / f"{name}.ini"
    config.write_text(textwrap.dedent(case.config))
    argv = [arg.format(config=config, tmp=tmp_path) for arg in case.argv.split()]
    got = cli(*argv)
    assert got.warnings == []
    assert got.code == case.code, got.stderr
    if callable(case.stderr):
        assert case.stderr(got.stderr), got.stderr
    else:
        assert got.stderr == case.stderr
    if argv[0] == "run":
        # run refuses a config exactly as validate does, or validate accepts it
        validated = cli("validate", "--config", argv[argv.index("--config") + 1])
        assert validated.warnings == []
        assert validated.code == 0 or (validated.code, validated.stderr) == (got.code, got.stderr)
    out = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
    report = out.read_bytes().decode() if out and out.exists() else got.stdout
    if case.report is not None:
        assert case.report(report), report
    if case.partner is not None:
        theirs = check(case.partner, cli, tmp_path, monkeypatch, "partner")
        assert (theirs == report) is case.same
    return report


def write_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text))
    return str(path)


def metric(report: str, name: str) -> tuple[float, str]:
    """Value and verdict of the first CSV report row with this metric."""
    row = next(r for r in csv.reader(io.StringIO(report)) if r[2] == name)
    return float(row[3]), row[4]


def metrics(report: str) -> list[str]:
    return [r[2] for r in csv.reader(io.StringIO(report))][1:]


def _layout(report: str) -> str:
    """The CSV report without its value column, once every value reads as a float."""
    rows = list(csv.reader(io.StringIO(report)))
    for row in rows[1:]:
        float(row[3])
    return "".join(",".join(row[:3] + row[4:]) + "\n" for row in rows)


def _csv_schema(report: str) -> bool:
    rows = list(csv.reader(io.StringIO(report)))
    return (
        rows[0] == ["study", "level", "metric", "value", "verdict", "wall_time_ms"]
        and {"inf_value", "gap", "min_distance", "reference_min", "final_gap"}
        <= set(metrics(report))
        # timings stay zeroed unless requested, so output is reproducible
        and all(r[5] == "0.0" for r in rows[1:])
        and metric(report, "final_gap")[1] == "pass"
    )


def _json_lines(report: str) -> bool:
    records = [json.loads(line) for line in report.splitlines()]
    return records[-1]["metric"] == "final_gap" and all(
        set(rec) == {"study", "level", "metric", "value", "verdict", "wall_time_ms"}
        for rec in records
    )


def _one_line(prefix: str) -> Callable[[str], bool]:
    return lambda err: err.startswith(prefix) and err.count("\n") == 1 and err.endswith("\n")


def _no_memory(*args):
    raise MemoryError


def _no_memory_for_128_tib(*args):
    raise MemoryError(
        "Unable to allocate 128. TiB for an array with shape (17592186044418,) "
        "and data type int64"
    )


FAST_INF_STUDY = """
    [study]
    kind = inf-study
    tol = 1e-2

    [problem]
    input_m = 17
    quad_m = 65
    alpha = 0.1
    truth_amplitude = 0.01

    [schedule]
    levels = 5, 9, 17
    alpha_kind = power
    noise_kind = seeded
    noise_amplitude = 0.01
    noise_seed = 11
"""

STALLED_INF_STUDY = """
    [study]
    kind = inf-study

    [problem]
    kernel = gaussian
    sigma = 0.2
    input_m = 5
    quad_m = 33
    alpha = 0.01
    exponent_p = 3
    penalty = p_power_norm
    penalty_q = 2
    truth_amplitude = 1e3
    data = direct_profile

    [schedule]
    levels = doubling:2:4
    alpha_kind = power
"""

FEM_RATE = """
    [study]
    kind = fem-rate

    [problem]
    kernel = fem
    potential = one

    [schedule]
    levels = 7, 15, 31, 63
"""

NONNEG_DEMO = """
    [study]
    kind = integral-demo

    [problem]
    kernel = {kernel}
    input_m = 9
    quad_m = 65
    domain = l2_ball_nonneg
    radius = 0.5

    [schedule]
    levels = 5, 9, 17
"""

INTEGRAL_DEMO = "[study]\nkind = integral-demo\n[problem]\ninput_m = 9\nquad_m = 65\n" \
                "[schedule]\nlevels = 5, 9, 17\n"

COERCIVITY = """
    [study]
    kind = coercivity
    thresholds = 0.1, 1.0, 10.0

    [problem]
    input_m = 17
    quad_m = 65
    alpha = 0.1
    truth_amplitude = 0.01

    [schedule]
    levels = 5, 9, 17
    alpha_kind = power
"""

ALPHA_ZERO = """
    [study]
    kind = alpha-zero
    tol = 1e-2

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

PENALTY = "[study]\nkind = inf-study\n[problem]\ninput_m = 17\nquad_m = 65\npenalty = {}\n" \
          "[schedule]\nlevels = 5, 9, 17, 33\n"
FEM_INF_STUDY = "[study]\nkind = inf-study\n[problem]\nkernel = fem\ninput_m = 17\n" \
                "potential = {}\n[schedule]\nlevels = 4, 8, 16\n"

# A tiny config of each kind and its report without the value column, so that each
# report's rows keep their order, levels, metrics and verdict words. The full bytes
# of a gamma-estimate report are pinned in CASES.
_HEADER = "study,level,metric,verdict,wall_time_ms\n"
LAYOUTS = {
    "fem-rate": (FEM_RATE, _HEADER + """\
fem-rate,7,l2_error,,0.0
fem-rate,15,l2_error,,0.0
fem-rate,31,l2_error,,0.0
fem-rate,63,l2_error,,0.0
fem-rate,,rate_slope,pass,0.0
"""),
    "integral-demo": (INTEGRAL_DEMO, _HEADER + """\
integral-demo,5,uniform_gap,,0.0
integral-demo,9,uniform_gap,,0.0
integral-demo,17,uniform_gap,,0.0
integral-demo,,final_gap,pass,0.0
"""),
    "inf-study": (FAST_INF_STUDY, _HEADER + """\
inf-study,5,inf_value,,0.0
inf-study,5,gap,,0.0
inf-study,5,min_distance,,0.0
inf-study,9,inf_value,,0.0
inf-study,9,gap,,0.0
inf-study,9,min_distance,,0.0
inf-study,17,inf_value,,0.0
inf-study,17,gap,,0.0
inf-study,17,min_distance,,0.0
inf-study,,reference_min,,0.0
inf-study,,final_gap,pass,0.0
"""),
    # an exact last level (129 = quad_m): the chain's tail is Cauchy
    "eps-chain": ("[study]\nkind = eps-chain\n[problem]\ninput_m = 9\nquad_m = 129\n"
                  "alpha = 0.1\ntruth_amplitude = 0.01\n[schedule]\nlevels = 17, 33, 65, 129\n",
                  _HEADER + """\
eps-chain,17,eps,,0.0
eps-chain,17,chain_value,,0.0
eps-chain,17,certified,,0.0
eps-chain,33,eps,,0.0
eps-chain,33,chain_value,,0.0
eps-chain,33,certified,,0.0
eps-chain,65,eps,,0.0
eps-chain,65,chain_value,,0.0
eps-chain,65,certified,,0.0
eps-chain,129,eps,,0.0
eps-chain,129,chain_value,,0.0
eps-chain,129,certified,,0.0
eps-chain,33,step_distance,,0.0
eps-chain,65,step_distance,,0.0
eps-chain,129,step_distance,,0.0
eps-chain,,cluster_found,,0.0
eps-chain,,exact_value_at_cluster,,0.0
eps-chain,,final_value_gap,pass,0.0
"""),
    # noise of size n^(-1/2) keeps the chain's steps far above the Cauchy tolerance
    "eps-chain-without-cluster": (
        "[study]\nkind = eps-chain\n[problem]\ninput_m = 9\nquad_m = 33\nalpha = 0.1\n"
        "truth_amplitude = 0.01\n[schedule]\nlevels = 5, 9, 17\nnoise_kind = seeded\n"
        "noise_amplitude = 1\nnoise_exponent = 0.5\n", _HEADER + """\
eps-chain,5,eps,,0.0
eps-chain,5,chain_value,,0.0
eps-chain,5,certified,,0.0
eps-chain,9,eps,,0.0
eps-chain,9,chain_value,,0.0
eps-chain,9,certified,,0.0
eps-chain,17,eps,,0.0
eps-chain,17,chain_value,,0.0
eps-chain,17,certified,,0.0
eps-chain,9,step_distance,,0.0
eps-chain,17,step_distance,,0.0
eps-chain,,cluster_found,,0.0
eps-chain,,exact_value_at_cluster,,0.0
eps-chain,,final_value_gap,diagnostic,0.0
"""),
    "coercivity": (COERCIVITY, _HEADER + """\
coercivity,,delta,,0.0
coercivity,,antecedent_hits,,0.0
coercivity,,violations,,0.0
coercivity,,witness_bound,,0.0
coercivity,,inclusion_holds,pass,0.0
"""),
    # a ball makes the target not linear-quadratic: no witness_bound row
    "coercivity-on-a-ball": (
        "[study]\nkind = coercivity\nthresholds = 0.1, 1.0, 10.0\n[problem]\ninput_m = 9\n"
        "quad_m = 33\nalpha = 0.1\ndomain = l2_ball\ntruth_amplitude = 0.01\n"
        "[schedule]\nlevels = 5, 9, 17\n", _HEADER + """\
coercivity,,delta,,0.0
coercivity,,antecedent_hits,,0.0
coercivity,,violations,,0.0
coercivity,,inclusion_holds,pass,0.0
"""),
    "alpha-zero": (ALPHA_ZERO, _HEADER + "".join(
        f"alpha-zero,{n},{name},,0.0\n" for n in (8, 16, 32)
        for name in ("alpha", "noise_ratio", "operator_ratio", "distance_to_min_penalty",
                     "omega_gap")) + "alpha-zero,,final_distance,pass,0.0\n"),
}

# A tiny config of each kind but coercivity whose study reads False as a library call.
# No config makes a coercivity probe fail: T_n >= delta Omega on every level (see
# test_studies.py for a functional that breaks that bound).
FAILING = {
    # levels too coarse for the second-order asymptotics
    "fem-rate": "[study]\nkind = fem-rate\n[schedule]\nlevels = 2, 3, 4\n",
    # neighbouring levels: the gap of level 17 is not a quarter of level 16's
    "integral-demo": "[study]\nkind = integral-demo\n[problem]\ninput_m = 9\nquad_m = 65\n"
                     "[schedule]\nlevels = 16, 17\n",
    "inf-study": FAST_INF_STUDY.replace("tol = 1e-2", "tol = 1e-12"),
    # a Cauchy tail whose last level is not exact: T(cluster) misses the chain by 6e-11
    "eps-chain": "[study]\nkind = eps-chain\ntol = 1e-15\n[problem]\ninput_m = 9\n"
                 "quad_m = 129\nalpha = 0.1\ntruth_amplitude = 0.01\n[schedule]\n"
                 "levels = 17, 33, 65\n",
    # inf x^2 + 1/j over |x - 1| < r is (1 - r)^2 + 1/j: it moves with r
    "gamma-estimate": "[study]\nkind = gamma-estimate\nfamily = uniform_shift\npoint = 1.0\n"
                      "radii = 0.5, 0.1\nindex_window = 8\ngrid_m = 256\n",
    "alpha-zero": ALPHA_ZERO.replace("tol = 1e-2", "tol = 1e-6"),
}


@pytest.mark.parametrize("kind", FAILING)
def test_a_study_verdict_can_fail_as_a_library_call(kind):
    run = parse_config(textwrap.dedent(FAILING[kind]))
    assert run.study.kind == kind
    report = STUDIES[kind].run(run)
    assert report.verdict is False
    assert "fail" in [row.verdict for row in report.rows(kind)]


RUN = "run --config {config}"
VALIDATE = "validate --config {config}"
BOGUS_KIND = ("[study] kind: expected one of fem-rate, integral-demo, inf-study, eps-chain, "
              "gamma-estimate, coercivity, alpha-zero; got 'bogus' (line 2)\n")
UNSEEDED = FAST_INF_STUDY.replace("noise_seed = 11", "")


def _overflow(amplitude: str, exponent_p: str = "2") -> Case:
    # T overflows to inf inside its domain: stderr carries the refusal alone,
    # with no numpy warning before it
    return Case(
        FAST_INF_STUDY.replace(
            "truth_amplitude = 0.01",
            f"truth_amplitude = {amplitude}\n    exponent_p = {exponent_p}",
        ),
        RUN, 2, "error: T is not finite inside its domain: inf\n",
    )


CASES: dict[str, Case] = {
    # ------------------------------------------------ validate refuses
    "test_validate_accepts_a_good_config": Case(
        FAST_INF_STUDY, VALIDATE, 0, report=lambda out: out == "config ok: inf-study\n"),
    "test_validate_reports_problems_and_fails": Case(
        "[study]\nkind = bogus\n", VALIDATE, 2, BOGUS_KIND),
    # a misspelled key used to leave its setting at the default, silently
    "test_unknown_keys_are_refused": Case(
        "[study]\nkind = inf-study\n[problem]\nkernl = separable\ninput_m = 9\n"
        "[schedule]\nlevels = 4, 8\n[solver]\nmax_iters = 10\n", VALIDATE, 2,
        "[problem] kernl: unknown key (line 4)\n[solver] max_iters: unknown key (line 9)\n"),
    # --out, --format, --timings and --seed are the only owners of what it held
    "test_output_section_is_refused": Case(
        "[study]\nkind = inf-study\n[output]\nformat = jsonl\nseed = 3\n", VALIDATE, 2,
        "[output]: unknown section (line 3)\n"),
    # [DEFAULT] keys used to reach every section unchecked
    "test_default_section_is_refused": Case(
        "[DEFAULT]\nkernl = x\n[study]\nkind = inf-study\n", VALIDATE, 2,
        "[DEFAULT]: unknown section (line 1)\n"),
    # the cross-field check against quad_m used to judge the default levels
    # that replaced the refused list, and printed a second, false complaint
    "test_an_invalid_level_list_gets_one_complaint": Case(
        "[study]\nkind = inf-study\n[problem]\nquad_m = 33\n[schedule]\nlevels = 2, 4, 8, 40, 1\n",
        VALIDATE, 2,
        "[schedule] levels: need at least two strictly increasing levels, all >= 2 (line 6)\n"),
    # one level: no integral-demo verdict can pass, no alpha-zero ratio can decay
    "test_doubling_needs_two_levels": Case(
        "[study]\nkind = integral-demo\n[schedule]\nlevels = doubling:8:1\n", VALIDATE, 2,
        "[schedule] levels: doubling needs start >= 2 and count >= 2 (line 4)\n"),
    # a tolerance for a kind that reads none used to validate, run and pass
    **{
        f"test_tol_is_refused_by_a_kind_that_reads_none[{kind}]": Case(
            f"[study]\nkind = {kind}\ntol = 1e-30\n", VALIDATE, 2,
            f"[study] tol: kind {kind} has no tolerance; "
            "inf-study, eps-chain and alpha-zero read it (line 3)\n")
        for kind in ("fem-rate", "integral-demo", "gamma-estimate", "coercivity")
    },
    # the gamma-estimate and coercivity keys used to validate for every kind, and
    # the run ignored them; a refused value draws no second complaint
    "test_study_keys_are_refused_by_a_kind_that_reads_none[inf-study]": Case(
        "[study]\nkind = inf-study\nthresholds = -5\ngrid_m = 99\nfamily = uniform_shift\n",
        VALIDATE, 2,
        "[study] thresholds: kind inf-study has no thresholds; coercivity reads it (line 3)\n"
        "[study] grid_m: kind inf-study has no grid_m; gamma-estimate reads it (line 4)\n"
        "[study] family: kind inf-study has no family; gamma-estimate reads it (line 5)\n"),
    **{
        f"test_study_keys_are_refused_by_a_kind_that_reads_none[{kind}-{key}]": Case(
            f"[study]\nkind = {kind}\n{key} = {value}\n", VALIDATE, 2,
            f"[study] {key}: kind {kind} has no {key}; {reader} reads it (line 3)\n")
        for kind, key, value, reader in [
            ("fem-rate", "family", "oscillation", "gamma-estimate"),
            ("integral-demo", "grid_m", "4096", "gamma-estimate"),
            ("coercivity", "index_window", "64", "gamma-estimate"),
            ("inf-study", "point", "0.5", "gamma-estimate"),
            ("eps-chain", "radii", "0.2, 0.1", "gamma-estimate"),
            ("gamma-estimate", "thresholds", "1", "coercivity"),
        ]
    },
    # the kind is not known, so no key can be judged against it
    "test_a_refused_kind_refuses_no_other_study_key": Case(
        "[study]\nkind = bogus\nthresholds = 1\n", VALIDATE, 2, BOGUS_KIND),
    # nor any rule of a kind: a missing or refused kind used to be judged as an inf-study,
    # whose projected-gradient and alpha_n rules then complained of the other keys
    **{
        f"test_a_config_without_a_kind_is_judged_by_no_kind[{label}]": Case(
            config, VALIDATE, 2, stderr)
        for label, config, stderr in [
            ("refused-kind-p-1", "[study]\nkind = bogus\n[problem]\nexponent_p = 1\n",
             BOGUS_KIND),
            ("refused-kind-alpha-0", "[study]\nkind = bogus\n[problem]\nalpha = 0\n", BOGUS_KIND),
            # no kind reads tol, so its value is not judged either
            ("refused-kind-tol", "[study]\nkind = bogus\ntol = -1\n", BOGUS_KIND),
            ("no-study-section-p-1", "[problem]\nexponent_p = 1\n",
             "[study]: section is required\n"),
        ]
    },
    # each cross-field rule, pinned on a kind whose record it follows from
    **{
        f"test_a_cross_field_rule_refuses_the_kinds_it_applies_to[{label}]": Case(
            config, VALIDATE, 2, stderr)
        for label, config, stderr in [
            ("family-levels-past-quad-m",
             "[study]\nkind = integral-demo\n[problem]\nquad_m = 33\n[schedule]\nlevels = 17, 65\n",
             "[schedule] levels: largest level exceeds quad_m = 33 (line 6)\n"),
            ("sequence-level-past-the-floats",
             "[study]\nkind = coercivity\n[problem]\nkernel = identity\ninput_m = 9\n"
             f"[schedule]\nlevels = 2, {10**309}\nnoise_kind = power\n",
             "[schedule] levels: noise_kind = power needs every level within the float range; "
             f"{10**309} is not (line 7)\n"),
            # the kind rule names the cause, so the sequence rule adds no second line
            ("sequence-alpha-n-and-coercivity-alpha",
             "[study]\nkind = coercivity\n[problem]\nalpha = 0\n",
             "[problem] alpha: coercivity probe needs alpha > 0 (line 4)\n"),
            # with no alpha_kind written the constant schedule's alpha_n is alpha
            ("sequence-alpha-n-without-alpha-kind",
             "[study]\nkind = inf-study\n[problem]\nalpha = 0\n",
             "[problem] alpha: alpha_n must be positive and finite at every level; "
             "it is 0 at level 8 (line 4)\n"),
            ("coercivity-alpha",
             "[study]\nkind = coercivity\n[problem]\nalpha = 0\n[schedule]\nalpha_kind = power\n",
             "[problem] alpha: coercivity probe needs alpha > 0 (line 4)\n"),
            ("alpha-zero-alpha",
             "[study]\nkind = alpha-zero\n[problem]\nalpha = 0.1\n[schedule]\nalpha_kind = power\n",
             "[problem] alpha: alpha-zero study needs alpha = 0 (line 4)\n"),
            ("alpha-zero-data",
             "[study]\nkind = alpha-zero\n[problem]\nalpha = 0\ndata = direct_profile\n"
             "[schedule]\nalpha_kind = power\n",
             "[problem] data: alpha-zero study needs attainable data (line 5)\n"),
            ("solved-inf-study-p-1", "[study]\nkind = inf-study\n[problem]\nexponent_p = 1\n",
             "[problem] exponent_p: inf-study outside p = 2, q = 2, whole_space runs projected "
             "gradient, which needs p > 1 and a smooth penalty (line 4)\n"),
            ("solved-eps-chain-linf", "[study]\nkind = eps-chain\n[problem]\npenalty = linf\n",
             "[problem] penalty: eps-chain outside p = 2, q = 2, whole_space runs projected "
             "gradient, which needs p > 1 and a smooth penalty (line 4)\n"),
            ("solved-alpha-zero-q-1.5",
             "[study]\nkind = alpha-zero\n[problem]\nalpha = 0\npenalty = p_power_norm\n"
             "penalty_q = 1.5\n[schedule]\nalpha_kind = power\n",
             "[problem] penalty: alpha-zero outside p = 2, q = 2, whole_space runs projected "
             "gradient, which needs p > 1 and a smooth penalty (line 5)\n"),
        ]
    },
    # and passes a kind that does not build what the rule judges
    "test_a_cross_field_rule_passes_the_kinds_it_does_not_apply_to[family-gamma-estimate]": Case(
        "[study]\nkind = gamma-estimate\n[problem]\nquad_m = 33\n[schedule]\nlevels = 17, 65\n",
        VALIDATE, 0, report=lambda out: out == "config ok: gamma-estimate\n"),
    # the probe solves no level, so a non-smooth penalty does not stop it
    "test_a_cross_field_rule_passes_the_kinds_it_does_not_apply_to[solved-coercivity]": Case(
        "[study]\nkind = coercivity\n[problem]\ninput_m = 9\nquad_m = 33\nalpha = 0.1\n"
        "penalty = p_power_norm\npenalty_q = 1.5\ntruth_amplitude = 0.01\n[schedule]\n"
        "levels = 5, 9, 17\n", RUN, 0,
        report=lambda out: metric(out, "inclusion_holds")[1] == "pass"),
    "test_a_cross_field_rule_passes_the_kinds_it_does_not_apply_to[sequence-fem-rate]": Case(
        FEM_RATE.replace("potential = one", "potential = one\n    alpha = 0"), RUN, 0,
        report=lambda out: metric(out, "rate_slope")[1] == "pass"),
    "test_validate_agrees_with_run_on_grids[fem-rate-two-levels]": Case(
        "[study]\nkind = fem-rate\n[schedule]\nlevels = 8, 16\n", VALIDATE, 2,
        "[schedule] levels: fem-rate needs at least three levels (line 4)\n"),
    "test_validate_agrees_with_run_on_grids[gamma-point-off-grid]": Case(
        "[study]\nkind = gamma-estimate\npoint = 7\n", VALIDATE, 2,
        "[study] point: must lie inside the grid (0, 6.28319) (line 3)\n"),
    "test_validate_agrees_with_run_on_grids[gamma-radius-unresolved]": Case(
        "[study]\nkind = gamma-estimate\nradii = 0.2, 0.001\ngrid_m = 64\n", VALIDATE, 2,
        "[study] radii: radius 0.001 resolves fewer than two grid nodes near 0.785398 "
        "with grid_m = 64 (line 3)\n"),
    # fem-rate builds no quadrature family, so quad_m does not bound its levels
    "test_validate_agrees_with_run_on_grids[fem-rate-levels-past-quad-m]": Case(
        "[study]\nkind = fem-rate\n[schedule]\nlevels = doubling:8:6\n", RUN, 0,
        report=lambda out: metric(out, "rate_slope")[1] == "pass"),
    # run would stop with "grid values must be finite"
    "test_validate_agrees_with_run_on_grids[fem-rate-table-not-finite]": Case(
        "[study]\nkind = fem-rate\n[problem]\nkernel = fem\npotential = table:1,nan\n",
        VALIDATE, 2, "[problem] potential: table values must be finite (line 5)\n"),
    # validated, then the sequence refused alpha_n with "must be positive and finite at
    # every level": 1e-300 * 8^-100 underflows to 0, 1e308 + 1e308 * 8^-1e-300 overflows
    **{
        f"test_validate_judges_alpha_n_as_the_sequence_does[{label}-{command}]": Case(
            f"[study]\nkind = inf-study\n[problem]\ninput_m = 9\nquad_m = 33\nalpha = {alpha}\n"
            f"[schedule]\nlevels = 8, 16\nalpha_kind = power\nalpha_amplitude = {amplitude}\n"
            f"alpha_exponent = {exponent}\n", argv, 2,
            "[schedule] alpha_kind: alpha_n must be positive and finite at every level; "
            f"it is {alpha_n} at level 8 (line 9)\n")
        for label, alpha, amplitude, exponent, alpha_n in (
            ("underflow", "0", "1e-300", "100", "0"),
            ("overflow", "1e308", "1e308", "1e-300", "inf"),
        )
        for command, argv in (("validate", VALIDATE), ("run", RUN))
    },
    # validated, then the run ended in a traceback: float(n) raised OverflowError
    "test_validate_judges_alpha_n_as_the_sequence_does[level-past-the-floats]": Case(
        "[study]\nkind = inf-study\n[problem]\nkernel = identity\ninput_m = 9\n"
        f"[schedule]\nlevels = 2, {10**309}\nalpha_kind = power\n", RUN, 2,
        "[schedule] alpha_kind: alpha_n must be positive and finite at every level; "
        f"it is nan at level {10**309} (line 8)\n"),
    # validated, then the noise size's float(n) raised OverflowError in the run
    **{
        f"test_a_noisy_sequence_needs_levels_within_the_float_range[{command}]": Case(
            "[study]\nkind = inf-study\n[problem]\nkernel = identity\ninput_m = 9\n"
            f"[schedule]\nlevels = 2, {10**309}\nnoise_kind = power\n", argv, 2,
            "[schedule] levels: noise_kind = power needs every level within the float "
            f"range; {10**309} is not (line 7)\n")
        for command, argv in (("validate", VALIDATE), ("run", RUN))
    },
    # neither kind builds a sequence, yet "alpha = 0 with a constant schedule" refused both
    "test_a_kind_without_a_sequence_takes_alpha_zero[gamma-estimate]": Case(
        "[study]\nkind = gamma-estimate\n[problem]\nalpha = 0\n", VALIDATE, 0,
        report=lambda out: out == "config ok: gamma-estimate\n"),
    "test_a_kind_without_a_sequence_takes_alpha_zero[integral-demo]": Case(
        "[study]\nkind = integral-demo\n[problem]\ninput_m = 9\nquad_m = 65\nalpha = 0\n"
        "[schedule]\nlevels = 9, 17, 33\n", RUN, 0,
        report=lambda out: metric(out, "final_gap")[1] == "pass"),
    # the 745 GiB grid of grid_m = 1e11 cannot be allocated
    "test_out_of_memory_in_validate_exits_two": Case(
        "[study]\nkind = gamma-estimate\ngrid_m = 100000000000\n", VALIDATE, 2,
        "error: out of memory\n",
        patch=("gammareg.config.StudySpec.grid", property(_no_memory))),
    # np.linspace raised "Maximum allowed size exceeded" past 2**60 nodes
    "test_a_grid_numpy_cannot_index_exits_two": Case(
        "[study]\nkind = gamma-estimate\ngrid_m = 100000000000000000000000\n", RUN, 2,
        "error: grid_m = 100000000000000000000000 nodes are more than numpy can index\n"),
    # validated, then the tail's int(index_window * 0.5) raised OverflowError (10**330),
    # or the family was evaluated for 5e19 indices (10**20)
    **{
        f"test_a_gamma_tail_numpy_cannot_index_exits_two[{label}-{command}]": Case(
            f"[study]\nkind = gamma-estimate\nindex_window = {window}\n", argv, 2,
            f"error: index_window = {window} on 4096 grid nodes: its tail is more than "
            "numpy can index\n")
        for label, window in (("1e330", 10**330), ("1e20", 10**20))
        for command, argv in (("validate", VALIDATE), ("run", RUN))
    },
    # validated, then np.linspace returned no nodes and the run read node -1
    **{
        f"test_an_operator_grid_numpy_cannot_index_exits_two[{key}]": Case(
            f"[study]\nkind = integral-demo\n[problem]\n{key} = {2**63 - 1}\n", RUN, 2,
            f"error: {2**63 - 1} grid nodes are more than numpy can index\n")
        for key in ("input_m", "quad_m")
    },
    # validated, then the sine truth raised OverflowError converting it to a float
    "test_a_truth_frequency_past_the_floats_is_refused": Case(
        f"[study]\nkind = inf-study\n[problem]\ntruth_frequency = 1{'0' * 330}\n", RUN, 2,
        "[problem] truth_frequency: must be <= 5.72223e+307 (line 4)\n"),
    # validated, then sigma**2 raised OverflowError (1e160), or numpy warned of
    # an overflow in 1/sigma**2 (1e-160)
    **{
        f"test_a_gaussian_width_whose_square_leaves_the_floats_is_refused[{sigma}]": Case(
            f"[study]\nkind = inf-study\n[problem]\nsigma = {sigma}\n", RUN, 2,
            "[problem] sigma: gaussian kernel needs sigma**2 and 1/sigma**2 finite (line 4)\n")
        for sigma in ("1e160", "1e-160")
    },
    # ------------------------------------------------ run, exit codes
    "test_missing_config_is_an_io_error": Case(
        "", "run --config {tmp}/absent.ini", 4, _one_line("cannot read config: ")),
    "test_unwritable_output_is_an_io_error": Case(
        FAST_INF_STUDY, RUN + " --out {tmp}/no_dir/x.csv", 4, _one_line("cannot write output: ")),
    "test_negative_seed_flag_is_refused": Case(
        FAST_INF_STUDY, RUN + " --seed -1", 2,
        lambda err: err.endswith("error: argument --seed: must be >= 0\n")),
    "test_failed_verdict_exits_two": Case(
        FAST_INF_STUDY.replace("tol = 1e-2", "tol = 1e-12"), RUN, 2,
        report=lambda out: metric(out, "final_gap")[1] == "fail"),
    "test_overflow_prints_one_error_line[1e160]": _overflow("1e160"),
    "test_overflow_prints_one_error_line[1e200]": _overflow("1e200"),
    # for p = 3 the misfit is finite but its cube overflows
    "test_overflowing_power_exits_two": _overflow("1e120", exponent_p="3"),
    # projected gradient stalls on the p = 3 reference problem, which validate
    # accepts: the run ends with one error line, not a report row of nan
    "test_unconverged_solve_exits_two": Case(
        STALLED_INF_STUDY, RUN, 2, "error: solver failed at reference: status stalled\n",
        report=lambda out: out == ""),
    # a candidate whose q = 3 penalty overflows is worth inf and rejected; the model
    # screen used to raise OverflowError from ||x||**3 instead
    "test_an_overflowing_penalty_is_rejected_not_raised": Case(
        "[study]\nkind = inf-study\n[problem]\nkernel = identity\ninput_m = 9\nalpha = 1\n"
        "exponent_p = 3\npenalty = p_power_norm\npenalty_q = 3\ntruth_amplitude = 1e60\n"
        "[schedule]\nlevels = 2, 3\n", RUN, 2,
        "error: solver failed at reference: status stalled\n", report=lambda out: out == ""),
    # a rank-one Gram plus 1e-300 W_X cannot be factored; the run used to print
    # numpy's bare "error: Singular matrix", naming no stage
    "test_a_singular_closed_form_names_its_stage": Case(
        "[study]\nkind = inf-study\n[problem]\nkernel = constant\ninput_m = 17\nquad_m = 65\n"
        "alpha = 1e-300\n[schedule]\nlevels = 9, 17, 33\nalpha_kind = power\n", RUN, 2,
        _one_line("error: solver failed at reference: "), report=lambda out: out == ""),
    "test_refused_study_exits_three": Case(
        """
        [study]
        kind = alpha-zero

        [problem]
        input_m = 9
        quad_m = 33
        alpha = 0
        truth_amplitude = 0.01

        [schedule]
        levels = 8, 16, 32
        alpha_kind = power
        alpha_exponent = 4.0
        noise_kind = power
        noise_amplitude = 0.1
        exact_family = true
        """, RUN, 3,
        "refused: noise ratio fails to decay: 8.000e-01 at n=8 vs 3.200e+00 at n=32\n"),
    # the reference level of levels 2 ... 2^40 needs 128 TiB
    "test_out_of_memory_in_run_exits_two": Case(
        FEM_INF_STUDY.format("one").replace("4, 8, 16", "doubling:2:40"), RUN, 2,
        "error: Unable to allocate 128. TiB for an array with shape (17592186044418,) "
        "and data type int64\n",
        patch=("gammareg.fem.fem_operator_matrix", _no_memory_for_128_tib)),
    # ------------------------------------------------ run, reports
    "test_run_emits_csv_with_fixed_schema": Case(FAST_INF_STUDY, RUN, 0, report=_csv_schema),
    "test_run_emits_parseable_json_lines": Case(
        FAST_INF_STUDY, RUN + " --format jsonl", 0, report=_json_lines),
    "test_timings_flag_stamps_the_last_row": Case(
        FAST_INF_STUDY, RUN + " --timings", 0,
        report=lambda out: float(out.splitlines()[-1].split(",")[5]) > 0.0
        and all(line.endswith(",0.0") for line in out.splitlines()[1:-1])),
    "test_identical_config_and_seed_give_identical_bytes": Case(
        FAST_INF_STUDY, RUN + " --out {tmp}/first.csv --seed 42", 0,
        partner=Case(FAST_INF_STUDY, RUN + " --out {tmp}/second.csv --seed 42", 0)),
    "test_different_seed_changes_the_report": Case(
        FAST_INF_STUDY, RUN + " --seed 1", 0,
        partner=Case(FAST_INF_STUDY, RUN + " --seed 2", 0), same=False),
    # --seed 7 is noise_seed = 7
    "test_seed_flag_sets_noise_seed": Case(
        UNSEEDED, RUN + " --seed 7", 0,
        partner=Case(FAST_INF_STUDY.replace("noise_seed = 11", "noise_seed = 7"), RUN, 0)),
    # p_power_norm with q = 2 spells the functional half_sq_l2 names
    "test_p_power_norm_with_q_2_reports_like_half_sq_l2": Case(
        PENALTY.format("half_sq_l2"), RUN, 0,
        partner=Case(PENALTY.format("p_power_norm"), RUN, 0)),
    # a numerically singular operator goes through projected gradient, which reads its Gram
    "test_gaussian_kernel_on_a_ball_passes": Case(
        "[study]\nkind = inf-study\n[problem]\nkernel = gaussian\nsigma = 0.6\ninput_m = 33\n"
        "quad_m = 129\ndomain = l2_ball\nradius = 0.05\n[schedule]\nlevels = 9, 17, 33\n", RUN, 0,
        report=lambda out: metric(out, "final_gap")[1] == "pass"),
    # quad_m 1000 nests neither input_m 65 nor any of the levels
    "test_separable_kernel_on_grids_that_do_not_nest_passes": Case(
        "[study]\nkind = inf-study\n[problem]\nkernel = separable\ninput_m = 65\nquad_m = 1000\n"
        "[schedule]\nlevels = 9, 33, 100, 513\n", RUN, 0,
        report=lambda out: metric(out, "final_gap")[1] == "pass"),
    "test_fem_rate_study_passes": Case(
        FEM_RATE, RUN, 0,
        report=lambda out: metric(out, "rate_slope")[1] == "pass"
        and fem.RATE_SLOPE_WINDOW[0] <= metric(out, "rate_slope")[0] <= fem.RATE_SLOPE_WINDOW[1]),
    # a sampled coefficient spells the same problem as the builtin it tabulates
    "test_table_potential_runs_like_the_builtin": Case(
        FEM_RATE.replace("potential = one", "potential = table:1,1"), RUN, 0,
        report=lambda out: abs(metric(out, "rate_slope")[0] + 1.8927475517462562) <= 1e-9,
        partner=Case(FEM_RATE, RUN, 0)),
    "test_table_potential_runs_like_the_builtin_in_an_inf_study": Case(
        FEM_INF_STUDY.format("table:1,1,1"), RUN, 0,
        partner=Case(FEM_INF_STUDY.format("one"), RUN, 0)),
    "test_gamma_estimate_study_runs": Case(
        """
        [study]
        kind = gamma-estimate
        family = oscillation
        point = 1.3
        radii = 0.5, 0.1, 0.02
        index_window = 128
        grid_m = 1024
        """, RUN, 0,
        report=lambda out: metric(out, "estimate")[1] == "pass"
        and abs(metric(out, "estimate")[0] + 1.0) < 0.1),
    # neighborhoods clipped at the grid's start: the family is evaluated on the
    # largest one only, and the report keeps the bytes of a whole-grid evaluation
    "test_gamma_estimate_clipped_at_the_grid_start_keeps_its_report": Case(
        "[study]\nkind = gamma-estimate\npoint = 0.1\nradii = 0.5, 0.1, 0.05\n", RUN, 0,
        report=lambda out: out == (
            "study,level,metric,value,verdict,wall_time_ms\n"
            "gamma-estimate,,lower@r=0.5,-0.9999999264297993,,0.0\n"
            "gamma-estimate,,upper@r=0.5,-0.9848077530122158,,0.0\n"
            "gamma-estimate,,lower@r=0.1,-0.9999999264297993,,0.0\n"
            "gamma-estimate,,upper@r=0.1,-0.976606336287479,,0.0\n"
            "gamma-estimate,,lower@r=0.05,-0.9999999264297993,,0.0\n"
            "gamma-estimate,,upper@r=0.05,-0.9697363656686188,,0.0\n"
            "gamma-estimate,,estimate,-0.9999999264297993,pass,0.0\n"
            "gamma-estimate,,upper_stabilized,1.0,diagnostic,0.0\n"
            "gamma-estimate,,limit_gap,0.03026356076118053,,0.0\n")),
    # 0.1000001 and 0.1 both read 0.1 under `:g`, which labelled two radii alike;
    # a radius `:g` does not write back exactly is labelled by its repr
    "test_gamma_estimate_labels_each_radius_apart": Case(
        "[study]\nkind = gamma-estimate\nradii = 0.2, 0.1000001, 0.1\n", RUN, 0,
        report=lambda out: metrics(out)[:6] == [
            f"{side}@r={r}" for r in ("0.2", "0.1000001", "0.1") for side in ("lower", "upper")]),
    "test_integral_demo_study_runs": Case(
        INTEGRAL_DEMO, RUN, 0,
        report=lambda out: metric(out, "final_gap")[0] < metric(out, "uniform_gap")[0]),
    # sin 3 pi x and cos 2 pi x change sign: the demo measures the gap on
    # the standard samples that lie in the nonnegative ball, not on all
    **{
        f"test_integral_demo_on_a_nonnegative_ball_runs_as_validated[{kernel}]": Case(
            NONNEG_DEMO.format(kernel=kernel), RUN, 0,
            report=lambda out: metrics(out) == ["uniform_gap"] * 3 + ["final_gap"])
        for kernel in ("identity", "constant", "separable", "gaussian")
    },
    "test_coercivity_study_runs": Case(
        COERCIVITY, RUN, 0,
        report=lambda out: metric(out, "inclusion_holds")[1] == "pass"
        and metric(out, "violations")[0] == 0.0),
    # the other alpha-zero rows are refusals; this one runs to its verdict
    "test_alpha_zero_study_runs": Case(
        ALPHA_ZERO, RUN, 0,
        report=lambda out: metrics(out) == ["alpha", "noise_ratio", "operator_ratio",
                                            "distance_to_min_penalty", "omega_gap"] * 3
        + ["final_distance"] and metric(out, "final_distance")[1] == "pass"
        and abs(metric(out, "final_distance")[0] - 0.0025761298758422454) <= 1e-12),
    **{
        f"test_each_kind_keeps_its_report_layout[{key}]": Case(
            config, RUN, 0, report=lambda out, layout=layout: _layout(out) == layout)
        for key, (config, layout) in LAYOUTS.items()
    },
}


def _table_test(name: str, keys: list[str]):
    """The test `name`: its one row, or its rows keyed `name[id]` as parameters."""
    if keys == [name]:
        def test(cli, tmp_path, monkeypatch):
            check(CASES[name], cli, tmp_path, monkeypatch)
    else:
        @pytest.mark.parametrize("key", keys, ids=[key[len(name) + 1 : -1] for key in keys])
        def test(key, cli, tmp_path, monkeypatch):
            check(CASES[key], cli, tmp_path, monkeypatch)
    test.__name__ = name
    return test


for _name in dict.fromkeys(key.partition("[")[0] for key in CASES):
    globals()[_name] = _table_test(_name, [k for k in CASES if k.partition("[")[0] == _name])


# ------------------------------------------------------- drawn configs

# The values each key is drawn from: small sizes, and the extreme values that
# used to validate and then end in a traceback or a numpy warning
_HUGE_GRID = "100000000000000000000000"
_HUGE_FREQUENCY = "1" + "0" * 330
_DRAWN_KEYS = {
    "problem": {
        "kernel": st.sampled_from(list(KERNELS)),
        "sigma": st.sampled_from(["0.2", "0.6", "1e160", "1e-160"]),
        "kappa": st.sampled_from(["1", "-0.5"]),
        "potential": st.sampled_from(["one", "cosine", "table:1,2,0.5"]),
        "input_m": st.integers(3, 17),
        "quad_m": st.sampled_from([9, 17, 33, 65]),
        "alpha": st.sampled_from(["0", "0.05", "0.1"]),
        "exponent_p": st.sampled_from(["1", "1.5", "2", "3"]),
        "penalty": st.sampled_from(list(PENALTIES)),
        "penalty_q": st.sampled_from(["1.5", "2", "3"]),
        "domain": st.sampled_from(list(DOMAINS)),
        "radius": st.sampled_from(["0.05", "1"]),
        "truth": st.sampled_from(list(TRUTHS)),
        "truth_amplitude": st.sampled_from(["0.01", "1"]),
        "truth_frequency": st.sampled_from(["1", "3", _HUGE_FREQUENCY]),
        "data": st.sampled_from(list(DATA)),
    },
    "schedule": {
        "levels": st.one_of(
            st.lists(st.integers(2, 33), min_size=2, max_size=4, unique=True).map(
                lambda ls: ", ".join(map(str, sorted(ls)))),
            st.sampled_from(["doubling:2:5", "doubling:4:3"])),
        "alpha_kind": st.sampled_from(ALPHA_KINDS),
        "alpha_amplitude": st.sampled_from(["0.5", "1"]),
        "alpha_exponent": st.sampled_from(["1", "2"]),
        "noise_kind": st.sampled_from(NOISE_KINDS),
        "noise_amplitude": st.sampled_from(["0.01", "1"]),
        "noise_exponent": st.sampled_from(["1", "2"]),
        "noise_direction": st.sampled_from(NOISE_DIRECTIONS),
        "noise_seed": st.integers(0, 9),
        "exact_family": st.booleans(),
    },
    "solver": {
        "max_iter": st.integers(1, 50),
        "grad_tol": st.sampled_from(["1e-8", "1e-4"]),
        "restarts": st.integers(0, 2),
    },
}
# [study] keys, each drawn for the kinds that read it
_DRAWN_STUDY_KEYS = {
    "tol": st.sampled_from(["1e-2", "1e-6"]),
    "family": st.sampled_from(list(GAMMA_FAMILIES)),
    "point": st.sampled_from(["0.5", "1.3"]),
    "radii": st.sampled_from(["0.5, 0.1", "0.2, 0.1, 0.05"]),
    "index_window": st.sampled_from([16, 64]),
    "grid_m": st.sampled_from(["64", "256", _HUGE_GRID]),
    "thresholds": st.sampled_from(["0.5, 1, 2", "0.1, 10"]),
}


def _ini(sections: dict) -> str:
    return "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                   for name, keys in sections.items())


@st.composite
def drawn_configs(draw) -> str:
    kind = draw(st.sampled_from(list(STUDIES)))
    study = draw(st.fixed_dictionaries({}, optional={
        key: values for key, values in _DRAWN_STUDY_KEYS.items() if key in STUDIES[kind].keys}))
    sections = {"study": {"kind": kind, **study}}
    for name, keys in _DRAWN_KEYS.items():
        sections[name] = draw(st.fixed_dictionaries({}, optional=keys))
    return _ini(sections)


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(config=drawn_configs())
@example(config=f"[study]\nkind = gamma-estimate\ngrid_m = {_HUGE_GRID}\n")
@example(config=f"[study]\nkind = inf-study\n[problem]\ntruth_frequency = {_HUGE_FREQUENCY}\n")
@example(config="[study]\nkind = integral-demo\n[problem]\nsigma = 1e160\n")
@example(config="[study]\nkind = inf-study\n[problem]\nsigma = 1e-160\ninput_m = 9\nquad_m = 33\n"
         "[schedule]\nlevels = 5, 9\n")
def test_a_config_is_refused_by_validate_or_runs_to_an_exit_code(cli, tmp_path, config):
    # no exception escapes main, and no warning is raised, on either command
    path = tmp_path / "drawn.ini"
    path.write_text(config)
    validated = cli("validate", "--config", str(path))
    assert validated.warnings == []
    assert validated.code in (0, 2), validated.stderr
    if validated.code == 0:
        ran = cli("run", "--config", str(path))
        assert ran.warnings == []
        assert ran.code in (0, 2, 3), ran.stderr


def test_module_entry_point_passes_mains_exit_code_on(cli, tmp_path):
    # the one test that starts a process: `python -m gammareg.cli` ends in
    # sys.exit(main()), and a fresh interpreter, with its own hash seed,
    # prints the bytes and exits with the code of the in-process call
    good = write_config(tmp_path, FAST_INF_STUDY, "good.ini")
    bad = write_config(tmp_path, "[study]\nkind = bogus\n", "bad.ini")
    codes = []
    for argv in (["run", "--config", good], ["validate", "--config", bad]):
        proc = subprocess.run([sys.executable, "-m", "gammareg.cli", *argv],
                              capture_output=True, text=True, timeout=120)
        here = cli(*argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (here.code, here.stdout, here.stderr)
        codes.append(proc.returncode)
    assert codes == [0, 2]


# ---------------------------------------------------------- public names


def test_every_exported_name_resolves():
    # a stale __all__ entry would break `from gammareg import *`
    names = ["gammareg"] + [f"gammareg.{m.name}" for m in pkgutil.iter_modules(gammareg.__path__)]
    for name in names:
        module = importlib.import_module(name)
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert missing == [], name


def test_every_traced_attribute_exists():
    # bench/tracer.py wraps these (module, attribute) pairs by name; a renamed
    # or removed one would fail only a benchmark run. The file is read, not run.
    spec = importlib.util.spec_from_file_location(
        "bench_tracer", Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    )
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for module, attr, _, _ in tracer._targets(tracer.Tracer()):
        owner = importlib.import_module(module)
        *cls, name = attr.split(".")
        if cls:
            owner = getattr(owner, cls[0], None)
        if name not in getattr(owner, "__dict__", {}):
            missing.append(f"{module}.{attr}")
    assert missing == []


def test_exported_names_are_listed_where_they_are_defined():
    # one list of public names per module: what the package exports, the
    # module that defines it lists too, and what a library module lists, the
    # package exports, once
    unlisted = []
    for name in gammareg.__all__:
        if name == "__version__":
            continue
        module = sys.modules[getattr(gammareg, name).__module__]
        if hasattr(module, "__all__") and name not in module.__all__:
            unlisted.append(f"{module.__name__}.{name}")
    assert unlisted == []
    unexported = []
    for info in pkgutil.iter_modules(gammareg.__path__):
        if info.name == "cli":  # the command line, not the library
            continue
        module = importlib.import_module(f"gammareg.{info.name}")
        unexported += [f"{info.name}.{n}" for n in module.__all__ if n not in gammareg.__all__]
    assert unexported == []
    assert len(gammareg.__all__) == len(set(gammareg.__all__))
