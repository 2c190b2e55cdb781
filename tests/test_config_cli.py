"""Config parsing and the command-line interface, including determinism."""

from __future__ import annotations

import csv
import importlib
import io
import itertools
import json
import pkgutil
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

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
    load_config,
    parse_config,
    resolve_potential,
)
from gammareg.cli import main, run_study

RUN = [sys.executable, "-m", "gammareg.cli"]


def cli(*args, **kwargs):
    return subprocess.run(
        RUN + list(args), capture_output=True, text=True, timeout=120, **kwargs
    )


def write_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text))
    return str(path)


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
    assert run.schedule.noise_kind == "seeded"
    assert run.solver.max_iter == 800


def test_readme_config_block_validates():
    # the README's example lists every key; all but tol and point at their defaults
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```ini\n(.*?)```", readme, re.S)
    run = parse_config(block)
    assert run.study == StudySpec("inf-study", tol=1e-3, point=0.785)
    assert run.problem == ProblemSpec()
    assert run.schedule == ScheduleSpec()
    assert run.solver == SolveConfig()


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


def test_output_section_is_refused(tmp_path):
    # --out, --format, --timings and --seed are the only owners of what it held
    text = "[study]\nkind = inf-study\n[output]\nformat = jsonl\nseed = 3\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.problems == ["[output]: unknown section (line 3)"]
    proc = cli("validate", "--config", write_config(tmp_path, text))
    assert proc.returncode == 2
    assert proc.stderr == "[output]: unknown section (line 3)\n"


def test_unknown_keys_are_refused():
    # a misspelled key used to leave its setting at the default, silently
    with pytest.raises(ConfigError) as err:
        parse_config(
            "[study]\nkind = inf-study\n[problem]\nkernl = separable\ninput_m = 9\n"
            "[schedule]\nlevels = 4, 8\n[solver]\nmax_iters = 10\n"
        )
    assert err.value.problems == [
        "[problem] kernl: unknown key (line 4)",
        "[solver] max_iters: unknown key (line 9)",
    ]


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


def test_default_section_is_refused(tmp_path):
    # [DEFAULT] keys used to reach every section unchecked
    text = "[DEFAULT]\nkernl = x\n[study]\nkind = inf-study\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.problems == ["[DEFAULT]: unknown section (line 1)"]
    proc = cli("validate", "--config", write_config(tmp_path, text))
    assert proc.returncode == 2
    assert proc.stderr == "[DEFAULT]: unknown section (line 1)\n"


@pytest.mark.parametrize("key, value", [("thresholds", "0.5, nan"), ("radii", "0.2, inf")])
def test_non_finite_list_values_are_refused(key, value):
    with pytest.raises(ConfigError) as err:
        parse_config(f"[study]\nkind = coercivity\n{key} = {value}\n")
    assert err.value.problems == [f"[study] {key}: must be finite (line 3)"]


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


def test_an_invalid_level_list_gets_one_complaint(tmp_path):
    # the cross-field check against quad_m used to judge the default levels
    # that replaced the refused list, and printed a second, false complaint
    text = "[study]\nkind = inf-study\n[problem]\nquad_m = 33\n[schedule]\nlevels = 2, 4, 8, 40, 1\n"
    proc = cli("validate", "--config", write_config(tmp_path, text))
    assert proc.returncode == 2
    assert proc.stderr == (
        "[schedule] levels: need at least two strictly increasing levels, all >= 2 (line 6)\n"
    )


@pytest.mark.parametrize(
    "text, refused_key",
    [
        ("[study]\nkind = fem-rate\n[schedule]\nlevels = 8, 16\n", "[schedule] levels"),
        ("[study]\nkind = gamma-estimate\npoint = 7\n", "[study] point"),
        ("[study]\nkind = gamma-estimate\nradii = 0.2, 0.001\ngrid_m = 64\n", "[study] radii"),
        # fem-rate builds no quadrature family, so quad_m does not bound its levels
        ("[study]\nkind = fem-rate\n[schedule]\nlevels = doubling:8:6\n", None),
        # run would stop with "grid values must be finite"
        ("[study]\nkind = fem-rate\n[problem]\nkernel = fem\npotential = table:1,nan\n",
         "[problem] potential"),
    ],
    ids=["fem-rate-two-levels", "gamma-point-off-grid", "gamma-radius-unresolved",
         "fem-rate-levels-past-quad-m", "fem-rate-table-not-finite"],
)
def test_validate_agrees_with_run_on_grids(text, refused_key):
    if refused_key is None:
        assert run_study(parse_config(text))[1] is True
        return
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert [p.split(":")[0] for p in err.value.problems] == [refused_key]


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


def test_seed_flag_sets_noise_seed(tmp_path):
    # --seed 7 is noise_seed = 7, and the seed reaches the noise draw
    unseeded = FAST_INF_STUDY.replace("noise_seed = 11", "")
    reports = {}
    for name, text, flags in (
        ("flag", unseeded, ["--seed", "7"]),
        ("config", FAST_INF_STUDY.replace("noise_seed = 11", "noise_seed = 7"), []),
        ("default", unseeded, []),
    ):
        out = tmp_path / f"{name}.csv"
        path = write_config(tmp_path, text, f"{name}.ini")
        assert main(["run", "--config", path, "--out", str(out), *flags]) == 0
        reports[name] = out.read_bytes()
    assert reports["flag"] == reports["config"]
    assert reports["flag"] != reports["default"]


def test_negative_seed_flag_is_refused(tmp_path, capsys):
    path = write_config(tmp_path, FAST_INF_STUDY)
    with pytest.raises(SystemExit) as stop:
        main(["run", "--config", path, "--seed", "-1"])
    assert stop.value.code == 2
    assert capsys.readouterr().err.endswith("error: argument --seed: must be >= 0\n")


# --------------------------------------------------------------------- CLI

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


def test_validate_accepts_a_good_config(tmp_path):
    path = write_config(tmp_path, FAST_INF_STUDY)
    proc = cli("validate", "--config", path)
    assert proc.returncode == 0
    assert "config ok: inf-study" in proc.stdout


def test_validate_reports_problems_and_fails(tmp_path):
    path = write_config(tmp_path, "[study]\nkind = bogus\n")
    proc = cli("validate", "--config", path)
    assert proc.returncode == 2
    assert "kind" in proc.stderr


def test_missing_config_is_an_io_error(tmp_path):
    proc = cli("run", "--config", str(tmp_path / "absent.ini"))
    assert proc.returncode == 4
    assert "cannot read config" in proc.stderr


def test_unwritable_output_is_an_io_error(tmp_path):
    path = write_config(tmp_path, FAST_INF_STUDY)
    proc = cli("run", "--config", path, "--out", str(tmp_path / "no_dir" / "x.csv"))
    assert proc.returncode == 4
    assert "cannot write output" in proc.stderr


def test_run_emits_csv_with_fixed_schema(tmp_path):
    path = write_config(tmp_path, FAST_INF_STUDY)
    proc = cli("run", "--config", path)
    assert proc.returncode == 0, proc.stderr
    rows = list(csv.reader(io.StringIO(proc.stdout)))
    assert rows[0] == ["study", "level", "metric", "value", "verdict", "wall_time_ms"]
    metrics = {r[2] for r in rows[1:]}
    assert {"inf_value", "gap", "min_distance", "reference_min", "final_gap"} <= metrics
    # timings stay zeroed unless requested, so output is reproducible
    assert all(r[5] == "0.0" for r in rows[1:])
    final = [r for r in rows if r[2] == "final_gap"][0]
    assert final[4] == "pass"


def test_run_emits_parseable_json_lines(tmp_path):
    path = write_config(tmp_path, FAST_INF_STUDY)
    proc = cli("run", "--config", path, "--format", "jsonl")
    assert proc.returncode == 0, proc.stderr
    records = [json.loads(line) for line in proc.stdout.splitlines()]
    assert all(
        set(rec) == {"study", "level", "metric", "value", "verdict", "wall_time_ms"}
        for rec in records
    )
    assert records[-1]["metric"] == "final_gap"


def test_failed_verdict_exits_two(tmp_path):
    strict = FAST_INF_STUDY.replace("tol = 1e-2", "tol = 1e-12")
    path = write_config(tmp_path, strict)
    proc = cli("run", "--config", path)
    assert proc.returncode == 2
    assert "fail" in proc.stdout


def test_overflowing_functional_exits_two(tmp_path, capsys):
    # T overflows to inf inside its domain; the run must end with the
    # documented exit code and a message, not a report of inf values
    huge = FAST_INF_STUDY.replace("truth_amplitude = 0.01", "truth_amplitude = 1e200")
    with np.errstate(over="ignore"):
        code = main(["run", "--config", write_config(tmp_path, huge)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("amplitude", ["1e160", "1e200"])
def test_overflow_prints_one_error_line(tmp_path, amplitude):
    # stderr carries the refusal alone, with no numpy warnings before it
    huge = FAST_INF_STUDY.replace("truth_amplitude = 0.01", f"truth_amplitude = {amplitude}")
    proc = cli("run", "--config", write_config(tmp_path, huge))
    assert proc.returncode == 2
    assert proc.stderr == "error: T is not finite inside its domain: inf\n"


def test_overflowing_power_exits_two(tmp_path):
    # for p = 3 the misfit is finite but its cube overflows; the run refuses
    # T = inf with the documented exit code instead of a traceback
    huge = FAST_INF_STUDY.replace(
        "truth_amplitude = 0.01", "truth_amplitude = 1e120\n    exponent_p = 3"
    )
    proc = cli("run", "--config", write_config(tmp_path, huge))
    assert proc.returncode == 2
    assert proc.stderr == "error: T is not finite inside its domain: inf\n"


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


def test_unconverged_solve_exits_two(tmp_path):
    # projected gradient stalls on the p = 3 reference problem: the run ends
    # with one error line, not a report row of nan
    path = write_config(tmp_path, STALLED_INF_STUDY)
    assert cli("validate", "--config", path).returncode == 0
    proc = cli("run", "--config", path)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: solver failed at reference: status stalled\n"


def test_refused_study_exits_three(tmp_path):
    refusal = """
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
    """
    path = write_config(tmp_path, refusal)
    proc = cli("run", "--config", path)
    assert proc.returncode == 3
    assert "refused" in proc.stderr
    assert "fails to decay" in proc.stderr


def test_identical_config_and_seed_give_identical_bytes(tmp_path):
    path = write_config(tmp_path, FAST_INF_STUDY)
    out1 = tmp_path / "first.csv"
    out2 = tmp_path / "second.csv"
    p1 = cli("run", "--config", path, "--out", str(out1), "--seed", "42")
    p2 = cli("run", "--config", path, "--out", str(out2), "--seed", "42")
    assert p1.returncode == 0 and p2.returncode == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_different_seed_changes_the_report(tmp_path):
    path = write_config(tmp_path, FAST_INF_STUDY)
    a = cli("run", "--config", path, "--seed", "1").stdout
    b = cli("run", "--config", path, "--seed", "2").stdout
    assert a != b


def test_timings_flag_stamps_the_last_row(tmp_path):
    path = write_config(tmp_path, FAST_INF_STUDY)
    proc = cli("run", "--config", path, "--timings")
    rows = list(csv.reader(io.StringIO(proc.stdout)))
    assert float(rows[-1][5]) > 0.0
    assert all(r[5] == "0.0" for r in rows[1:-1])


def test_fem_rate_study_passes(tmp_path):
    config = """
        [study]
        kind = fem-rate

        [problem]
        kernel = fem
        potential = one

        [schedule]
        levels = 7, 15, 31, 63
    """
    path = write_config(tmp_path, config)
    proc = cli("run", "--config", path)
    assert proc.returncode == 0, proc.stderr
    rows = list(csv.reader(io.StringIO(proc.stdout)))
    slope = [r for r in rows if r[2] == "rate_slope"][0]
    assert slope[4] == "pass"
    assert -2.2 <= float(slope[3]) <= -1.8


def test_table_potential_runs_like_the_builtin(tmp_path):
    config = """
        [study]
        kind = fem-rate

        [problem]
        kernel = fem
        potential = table:1.0,1.0,1.0

        [schedule]
        levels = 7, 15, 31, 63
    """
    path = write_config(tmp_path, config)
    proc = cli("run", "--config", path)
    assert proc.returncode == 0, proc.stderr
    rows = list(csv.reader(io.StringIO(proc.stdout)))
    slope = float([r for r in rows if r[2] == "rate_slope"][0][3])
    # the constant-1 table must reproduce the builtin potential's slope
    assert slope == pytest.approx(-1.8927475517462562, abs=1e-9)


def test_gamma_estimate_study_runs(tmp_path):
    config = """
        [study]
        kind = gamma-estimate
        family = oscillation
        point = 1.3
        radii = 0.5, 0.1, 0.02
        index_window = 128
        grid_m = 1024
    """
    path = write_config(tmp_path, config)
    proc = cli("run", "--config", path)
    assert proc.returncode == 0, proc.stderr
    rows = list(csv.reader(io.StringIO(proc.stdout)))
    estimate = [r for r in rows if r[2] == "estimate"][0]
    assert estimate[4] == "pass"
    assert abs(float(estimate[3]) + 1.0) < 0.1


def test_integral_demo_study_runs(tmp_path):
    config = """
        [study]
        kind = integral-demo

        [problem]
        input_m = 9
        quad_m = 65

        [schedule]
        levels = 5, 9, 17
    """
    path = write_config(tmp_path, config)
    proc = cli("run", "--config", path)
    assert proc.returncode == 0, proc.stderr
    rows = list(csv.reader(io.StringIO(proc.stdout)))
    gaps = [float(r[3]) for r in rows if r[2] == "uniform_gap"]
    assert gaps[-1] < gaps[0]


@pytest.mark.parametrize("kernel", ["identity", "constant", "separable", "gaussian"])
def test_integral_demo_on_a_nonnegative_ball_runs_as_validated(tmp_path, kernel):
    # sin 3 pi x and cos 2 pi x change sign: the demo measures the gap on
    # the standard samples that lie in the nonnegative ball, not on all
    config = f"""
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
    path = write_config(tmp_path, config)
    assert cli("validate", "--config", path).returncode == 0
    proc = cli("run", "--config", path)
    assert proc.returncode in (0, 2), proc.stderr
    assert proc.stderr == ""
    rows = list(csv.reader(io.StringIO(proc.stdout)))
    assert [r[2] for r in rows[1:]] == ["uniform_gap"] * 3 + ["final_gap"]


def test_coercivity_study_runs(tmp_path):
    config = """
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
    path = write_config(tmp_path, config)
    proc = cli("run", "--config", path)
    assert proc.returncode == 0, proc.stderr
    rows = list(csv.reader(io.StringIO(proc.stdout)))
    verdict = [r for r in rows if r[2] == "inclusion_holds"][0]
    assert verdict[4] == "pass"
    violations = [r for r in rows if r[2] == "violations"][0]
    assert float(violations[3]) == 0.0


# ---------------------------------------------------------- public names


def test_every_exported_name_resolves():
    # a stale __all__ entry would break `from gammareg import *`
    names = ["gammareg"] + [f"gammareg.{m.name}" for m in pkgutil.iter_modules(gammareg.__path__)]
    for name in names:
        module = importlib.import_module(name)
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert missing == [], name


def test_exported_names_are_listed_where_they_are_defined():
    # one list of public names per module: what the package exports, the
    # module that defines it lists too
    unlisted = []
    for name in gammareg.__all__:
        if name == "__version__":
            continue
        module = sys.modules[getattr(gammareg, name).__module__]
        if hasattr(module, "__all__") and name not in module.__all__:
            unlisted.append(f"{module.__name__}.{name}")
    assert unlisted == []
