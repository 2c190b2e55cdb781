"""Convergence studies: infima, epsilon chains, coercivity, limits, scaling."""

from __future__ import annotations

import dataclasses
from collections import Counter

import numpy as np
import pytest

from gammareg import (
    AlphaSchedule,
    ForwardOperator,
    GridCompatibilityError,
    GridFunction,
    NoiseSchedule,
    NumericalError,
    OperatorFamily,
    ResolutionError,
    SolveConfig,
    StudyRefusal,
    TikhonovProblem,
    UnsupportedPenaltyError,
    alpha_zero_study,
    eps_minimizer_chain,
    equi_coercivity_probe,
    estimate_gamma_limits,
    eval_T,
    eval_Tn,
    from_callable,
    gaussian_kernel,
    half_sq_l2,
    identity_operator,
    inf_convergence_study,
    make_approx_sequence,
    make_constant_family,
    make_fem_family,
    make_quadrature_family,
    minimize_problem,
    norm,
    norm_ball,
    p_power_norm,
    projected_gradient,
    richardson_limit,
    scaling_invariance_check,
    shifted_half_sq,
    solve_linear_quadratic,
    standard_samples,
    uniform_gap,
    uniform_gap_study,
)
from gammareg import functionals, operators, solvers, studies

from conftest import build_gaussian_sequence


# -------------------------------------------------------------- richardson


def test_richardson_removes_a_pure_first_order_term():
    # v_n = 3 + 1/n is extrapolated exactly from the last two levels
    levels = (2, 4)
    values = (3.5, 3.25)
    assert richardson_limit(levels, values) == pytest.approx(3.0, abs=1e-14)


def test_richardson_uses_the_last_two_levels():
    # a wrong early value must not influence the extrapolation
    assert richardson_limit((2, 4, 8), (99.0, 3.25, 3.125)) == pytest.approx(
        3.0, abs=1e-14
    )


def test_richardson_is_exact_on_constants():
    assert richardson_limit((3, 9), (7.0, 7.0)) == 7.0


def test_richardson_single_level_falls_back_to_the_value():
    assert richardson_limit((4,), (1.25,)) == 1.25


# ------------------------------------------------------- infimum convergence


def test_infima_approach_the_reference_minimum(gaussian_sequence):
    report = inf_convergence_study(gaussian_sequence, tol=1e-3)
    assert report.levels == (9, 17, 33, 65, 129)
    assert all(g > 0 for g in report.gaps)
    assert all(b < a for a, b in zip(report.gaps, report.gaps[1:]))
    assert report.gaps[-1] < 1e-3
    assert report.verdict is True
    # the reference minimum matches an independent direct solve
    direct = minimize_problem(gaussian_sequence.target).value
    assert report.reference_min == pytest.approx(direct, rel=1e-13)


def test_minimizer_distances_shrink(gaussian_sequence):
    report = inf_convergence_study(gaussian_sequence, tol=1e-3)
    assert report.minimizer_distances[-1] < report.minimizer_distances[0]


def unconverged_on_call(monkeypatch, k):
    """Make the k-th solve of a study end with status max_iter."""
    calls = []

    def capped(problem, solver=SolveConfig()):
        calls.append(problem)
        res = minimize_problem(problem, solver)
        return dataclasses.replace(res, status="max_iter") if len(calls) == k else res

    monkeypatch.setattr(studies, "minimize_problem", capped)


def test_an_unconverged_solve_ends_the_study(gaussian_sequence, monkeypatch):
    # the third solve is level 17, after the reference and level 9: the study
    # raises instead of reporting the levels it reached
    unconverged_on_call(monkeypatch, 3)
    with pytest.raises(NumericalError, match="^solver failed at level 17: status max_iter$"):
        inf_convergence_study(gaussian_sequence, tol=1e-3)
    unconverged_on_call(monkeypatch, 1)
    with pytest.raises(NumericalError, match="^solver failed at reference: status max_iter$"):
        inf_convergence_study(gaussian_sequence, tol=1e-3)
    # the coercivity witness and the scaling check's solves too
    unconverged_on_call(monkeypatch, 2)
    with pytest.raises(NumericalError, match="^solver failed at level 17:"):
        equi_coercivity_probe(gaussian_sequence, [], (1.0,))
    # (levels of one alpha share one closed-form solve, which cannot end unconverged;
    # a power schedule gives each level its own alpha and its own solve)
    powered = scaling_sequence(alpha=AlphaSchedule("power"))
    unconverged_on_call(monkeypatch, 2)
    with pytest.raises(NumericalError, match="^solver failed at level 8: status max_iter$"):
        scaling_invariance_check(powered, lambda n: 2.0, 2.0)
    # the scaled solves follow the three unscaled ones, each a problem of its own
    unconverged_on_call(monkeypatch, 5)
    with pytest.raises(NumericalError, match="^solver failed at scaled level 8: status max_iter$"):
        scaling_invariance_check(powered, lambda n: 2.0, 2.0)


# ------------------------------------------------------------ epsilon chain


def test_eps_chain_certifies_and_clusters(gaussian_sequence):
    report = eps_minimizer_chain(
        gaussian_sequence, eps_at=lambda j: 1.0 / j, cauchy_tol=1e-3, tail=2
    )
    assert all(report.certified)
    assert report.cluster_found
    assert report.verdict is True
    assert report.final_value_gap < 1e-4
    # steps contract as the levels refine
    assert report.step_distances[-1] < report.step_distances[0]
    # the recorded exact value is T evaluated at the cluster point
    recomputed = eval_T(gaussian_sequence.target, report.cluster_point)
    assert report.exact_value_at_cluster == pytest.approx(recomputed, rel=1e-13)


def test_eps_chain_without_cluster_is_diagnostic(gaussian_sequence):
    # the three-level tail of this chain is still 3.6e-3 wide, so the
    # stricter default tail reports no cluster -- a diagnostic, not a failure
    report = eps_minimizer_chain(
        gaussian_sequence, eps_at=lambda j: 1.0 / j, cauchy_tol=1e-3, tail=3
    )
    assert not report.cluster_found
    assert report.verdict is None


def test_eps_chain_rejects_nonpositive_eps(gaussian_sequence):
    with pytest.raises(GridCompatibilityError):
        eps_minimizer_chain(gaussian_sequence, eps_at=lambda j: 0.0)
    with pytest.raises(GridCompatibilityError, match="eps sequence"):
        eps_minimizer_chain(gaussian_sequence, eps_at=lambda j: float("nan"))


# ---------------------------------------------------------- equi-coercivity


def test_coercivity_probe_finds_no_violations(gaussian_sequence):
    samples = standard_samples(65, rho=1.0)
    probe = equi_coercivity_probe(gaussian_sequence, samples, (0.1, 1.0, 10.0))
    assert probe.delta == pytest.approx(0.1, abs=1e-15)
    assert probe.samples_checked == 8
    assert probe.antecedent_hits > 0
    assert probe.violations == ()
    assert probe.verdict is True
    assert probe.witness_bound is not None and probe.witness_bound < 1.0


def test_coercivity_probe_refuses_vanishing_alpha():
    op = identity_operator(9)
    y = from_callable(lambda t: np.sin(np.pi * t), 9)
    target = TikhonovProblem(op, y, alpha=0.0)
    seq = make_approx_sequence(
        target,
        make_constant_family(op, (2, 4, 8)),
        AlphaSchedule("power", amplitude=1.0, exponent=0.5),
    )
    with pytest.raises(StudyRefusal):
        equi_coercivity_probe(seq, standard_samples(9), (1.0,))


def test_coercivity_probe_builds_each_level_problem_once(monkeypatch):
    # T_n is still evaluated once per sample and level, but y_n, which every
    # evaluation used to rebuild, is built once per level
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(functionals, "noise_direction",
                        counted("noise_direction", functionals.noise_direction))
    monkeypatch.setattr(studies, "eval_Tn", counted("eval_Tn", studies.eval_Tn))
    seq = build_gaussian_sequence()
    samples = standard_samples(65, rho=1.0)
    equi_coercivity_probe(seq, samples, (0.1, 1.0, 10.0))
    assert 0 < calls["noise_direction"] <= len(seq.levels)
    assert calls["eval_Tn"] == len(samples) * len(seq.levels)


def test_coercivity_probe_evaluates_the_penalty_once_per_sample(monkeypatch):
    # Omega(x) does not depend on the level; T_n's own penalty terms reach
    # evaluate with copies, so a call on a sample itself is the probe's
    seq = build_gaussian_sequence()
    samples = standard_samples(65, rho=1.0)
    thresholds = (0.1, 1.0, 10.0)
    penalty = seq.target.penalty
    delta = min([seq.alpha_limit] + [seq.alpha_at(n) for n in seq.levels])
    hits, violations = 0, []
    for n in seq.levels:
        for i, x in enumerate(samples):
            value, omega = eval_Tn(seq, n, x), penalty.evaluate(x)
            hits += sum(value <= t for t in thresholds)
            violations += [(n, i, t) for t in thresholds if value <= t and omega > t / delta]

    sample_ids, on_samples = {id(x) for x in samples}, []
    evaluate = functionals.PenaltySpec.evaluate

    def counted(self, x):
        on_samples.append(id(x) in sample_ids)
        return evaluate(self, x)

    monkeypatch.setattr(functionals.PenaltySpec, "evaluate", counted)
    probe = equi_coercivity_probe(seq, samples, thresholds)
    assert sum(on_samples) == len(samples)
    assert (probe.antecedent_hits, probe.violations) == (hits, tuple(violations))


def test_coercivity_probe_judges_omega_on_the_input_grid():
    # 5 at the odd nodes of 33, 0 at the even ones: 0 on the 17 input nodes, where
    # T_n evaluates it (T_9 = 6.2e-3 <= 0.5), so Omega must read 0 there too, not the
    # 6.25 > t / delta = 5 of its own grid
    family = make_quadrature_family(gaussian_kernel(0.2), (9, 17), 65, input_m=17)
    truth = from_callable(lambda t: 0.01 * np.sin(np.pi * t), 17)
    target = TikhonovProblem(family.reference, family.reference.apply(truth), alpha=0.1)
    seq = make_approx_sequence(target, family, AlphaSchedule("power"), NoiseSchedule("power"))
    spikes = GridFunction(5.0 * (np.arange(33) % 2))
    assert half_sq_l2().evaluate(spikes) > 0.5 / 0.1
    assert eval_Tn(seq, 9, spikes) <= 0.5
    probe = equi_coercivity_probe(seq, [spikes], (0.5,))
    assert probe.antecedent_hits == 2
    assert probe.violations == ()
    assert probe.verdict is True


def test_coercivity_probe_fails_on_a_functional_below_delta_omega():
    # T_n >= alpha_n Omega >= delta Omega makes the inclusion hold; scaled by 1/100,
    # T_n drops below delta Omega, and samples near y with Omega > t / delta enter
    # the sublevel set {T_n <= t}
    op = identity_operator(9)
    y = from_callable(lambda t: np.sin(np.pi * t), 9)
    samples = standard_samples(9, rho=1.0)
    for scale, verdict in [(1.0, True), (0.01, False)]:
        target = TikhonovProblem(op, y, alpha=0.1, scale=scale)
        seq = make_approx_sequence(target, make_constant_family(op, (2, 4, 8)))
        probe = equi_coercivity_probe(seq, samples, (0.01,))
        assert probe.verdict is verdict
        assert probe.rows("coercivity")[-1].verdict == ("pass" if verdict else "fail")


# ------------------------------------------------------------- uniform gaps


def test_uniform_gap_study_fails_when_the_last_gap_stays_large():
    # F_n = (1 + 1/n) I has gaps proportional to 1/n: the last of 2, 4, 8, 16 is an
    # eighth of the first and passes; a last level (1 + 1/6) I leaves a third and fails
    op = identity_operator(9)
    samples = standard_samples(9)
    for last, verdict in [(1.0 / 16, True), (1.0 / 6, False)]:
        family = OperatorFamily((2, 4, 8, 16), op, lambda n, last=last: ForwardOperator(
            (1.0 + (last if n == 16 else 1.0 / n)) * np.eye(9)))
        report = uniform_gap_study(family, samples)
        assert report.gaps == tuple(uniform_gap(family, n, samples) for n in family.levels)
        assert report.verdict is verdict
        assert report.rows("integral-demo")[-1].verdict == ("pass" if verdict else "fail")


# ------------------------------------------------------------- alpha to zero


def identity_alpha_zero_sequence(alpha_exponent=0.5, levels=(8, 16, 32, 64, 128)):
    op = identity_operator(9)
    truth = from_callable(lambda t: 0.5 * np.sin(np.pi * t), 9)
    target = TikhonovProblem(op, op.apply(truth), alpha=0.0)
    return make_approx_sequence(
        target,
        make_constant_family(op, levels),
        AlphaSchedule("power", amplitude=1.0, exponent=alpha_exponent),
        NoiseSchedule("power", amplitude=1.0, exponent=1.0),
    )


def test_alpha_zero_converges_to_min_penalty_solution():
    seq = identity_alpha_zero_sequence()
    report = alpha_zero_study(seq, tol=1e-1)
    # identity operator: the minimum-penalty solution is the data itself
    assert norm(report.x_dagger - seq.target.data_y) < 1e-10
    assert all(b < a for a, b in zip(report.noise_ratios, report.noise_ratios[1:]))
    assert all(r == 0.0 for r in report.operator_ratios)
    assert report.distances[-1] < report.distances[0]
    assert report.verdict is True


def test_alpha_zero_refuses_fast_alpha_decay():
    # alpha_n = n^-4 makes ||y_n - y|| / alpha_n^(1/2) grow; the study
    # must refuse with the measured ratios rather than produce numbers
    seq = identity_alpha_zero_sequence(alpha_exponent=4.0)
    with pytest.raises(StudyRefusal, match="fails to decay"):
        alpha_zero_study(seq)


def test_alpha_zero_needs_zero_alpha_target(gaussian_sequence):
    with pytest.raises(GridCompatibilityError):
        alpha_zero_study(gaussian_sequence)


# ---------------------------------------------------------- limit estimation


def test_oscillation_family_liminf_is_minus_one():
    grid = np.linspace(0.0, 2.0 * np.pi, 2048)
    est = estimate_gamma_limits(
        lambda j, x: np.sin(j * x), grid, 1.3, (0.5, 0.1, 0.02), 256
    )
    assert abs(est.lower + 1.0) < 0.05
    assert est.lower_stabilized
    assert est.tail_range == (129, 256)
    # the tail maximum of the neighborhood infima also hugs -1: at radius
    # 0.02 every tail index sweeps more than five radians of phase across
    # the window, which always comes close to a trough
    assert est.lower <= est.upper < -0.9
    assert est.gap == pytest.approx(est.upper - est.lower)


def test_constant_family_recovers_the_function_value():
    grid = np.linspace(0.0, 2.0 * np.pi, 2048)
    f = lambda x: x**2 - 0.5  # noqa: E731
    point = 1.3
    radii = (0.5, 0.1, 0.02)
    est = estimate_gamma_limits(lambda j, x: f(x), grid, point, radii, 64)
    lip = 2.0 * (point + radii[-1])
    spacing = grid[1] - grid[0]
    assert abs(est.lower - f(point)) <= lip * (radii[-1] + spacing)
    assert est.lower == est.upper  # no j-dependence


def test_uniform_shift_family_converges_to_the_base_function():
    grid = np.linspace(0.0, 2.0 * np.pi, 2048)
    f = lambda x: x**2 - 0.5  # noqa: E731
    point = 1.3
    radii = (0.5, 0.1, 0.02)
    window = 64
    est = estimate_gamma_limits(
        lambda j, x: f(x) + 1.0 / j, grid, point, radii, window
    )
    lip = 2.0 * (point + radii[-1])
    spacing = grid[1] - grid[0]
    tail_start = est.tail_range[0]
    assert abs(est.lower - f(point)) <= 1.0 / tail_start + lip * (radii[-1] + spacing)


def test_limit_estimator_validates_geometry():
    grid = np.linspace(0.0, 1.0, 128)
    family = lambda j, x: np.sin(j * x)  # noqa: E731
    with pytest.raises(GridCompatibilityError):
        estimate_gamma_limits(family, grid, 2.0, (0.1,), 8)  # point outside
    with pytest.raises(GridCompatibilityError):
        estimate_gamma_limits(family, grid, 0.5, (0.1, 0.2), 8)  # radii increase
    with pytest.raises(GridCompatibilityError):
        estimate_gamma_limits(family, grid, 0.5, (0.1,), 1)  # window too short
    with pytest.raises(ResolutionError):
        estimate_gamma_limits(family, grid, 0.5, (1e-5,), 8)  # under-resolved


def test_limit_estimator_rejects_non_finite_families():
    grid = np.linspace(0.0, 1.0, 128)
    with np.errstate(invalid="ignore"), pytest.raises(NumericalError):
        estimate_gamma_limits(lambda j, x: x * np.inf, grid, 0.5, (0.1,), 8)


def test_limit_estimator_refuses_nan_radii_and_fractional_windows():
    grid = np.linspace(0.0, 1.0, 128)
    family = lambda j, x: np.sin(j * x)  # noqa: E731
    for radii in ((np.nan,), (0.5, np.nan), (np.nan, 0.1)):
        with pytest.raises(GridCompatibilityError, match="radii"):
            estimate_gamma_limits(family, grid, 0.5, radii, 8)
    with pytest.raises(GridCompatibilityError, match="index window"):
        estimate_gamma_limits(family, grid, 0.5, (0.1,), 8.0)
    # a numpy integer is a window like any other
    assert estimate_gamma_limits(family, grid, 0.5, (0.1,), np.int64(8)) == (
        estimate_gamma_limits(family, grid, 0.5, (0.1,), 8))


def _full_grid_limits(family, grid, point, radii, window):
    """Lower and upper limits by radius with the family evaluated on every grid node."""
    tail = range(window - window // 2 + 1, window + 1)
    values = np.stack([family(j, grid) for j in tail])
    lower, upper = [], []
    for r in radii:
        near = np.flatnonzero(np.abs(grid - point) < r)
        neigh_inf = values[:, near[0] : near[-1] + 1].min(axis=1)
        lower.append(float(neigh_inf.min()))
        upper.append(float(neigh_inf.max()))
    return tuple(lower), tuple(upper)


@pytest.mark.parametrize("family", [
    pytest.param(lambda j, x: np.sin(j * x), id="oscillation"),
    pytest.param(lambda j, x: x * x + 1.0 / j, id="shift"),
])
@pytest.mark.parametrize("point, radii, clipped", [
    *[pytest.param(p, (0.5, 0.1, 0.02, 0.004), False, id=f"c6-{p}")
      for p in (0.7, 1.3, 2.6, 3.9, 5.2)],
    pytest.param(0.1, (0.5, 0.1), True, id="clipped-at-start"),
    pytest.param(6.2, (0.5, 0.1), True, id="clipped-at-end"),
    pytest.param(1.3, (np.inf, 0.1), True, id="whole-grid"),
])
def test_limit_estimator_evaluates_the_family_on_the_largest_neighborhood_only(
    family, point, radii, clipped
):
    seen = []

    def spy(j, x):
        seen.append(x.copy())
        return family(j, x)

    grid = np.linspace(0.0, 2.0 * np.pi, 4096)
    window = 512
    est = estimate_gamma_limits(spy, grid, point, radii, window)
    largest = grid[np.abs(grid - point) < radii[0]]
    assert bool(largest[0] == grid[0] or largest[-1] == grid[-1]) == clipped
    assert len(seen) == window // 2
    assert all(np.array_equal(x, largest) for x in seen)
    lower, upper = _full_grid_limits(family, grid, point, radii, window)
    assert est.lower_by_radius == lower
    assert est.upper_by_radius == upper


def test_limit_estimator_refuses_a_family_that_is_not_one_value_a_node():
    grid = np.linspace(0.0, 1.0, 128)
    # values on the whole grid, whatever nodes it is given, would be read as
    # the neighborhood's values
    for family in (lambda j, x: np.sin(j * grid), lambda j, x: 1.0):
        with pytest.raises(GridCompatibilityError, match="one value a node"):
            estimate_gamma_limits(family, grid, 0.5, (0.1,), 8)


def test_limit_estimator_ignores_values_outside_the_largest_neighborhood():
    grid = np.linspace(0.0, 1.0, 128)

    def far_pole(j, x):
        return np.where(x > 0.9, np.inf, np.sin(j * x))

    est = estimate_gamma_limits(far_pole, grid, 0.3, (0.1,), 8)
    lower, upper = _full_grid_limits(lambda j, x: np.sin(j * x), grid, 0.3, (0.1,), 8)
    assert (est.lower_by_radius, est.upper_by_radius) == (lower, upper)

    # a pole inside the largest neighborhood is seen, even outside the smallest one
    def near_pole(j, x):
        return np.where(x > 0.35, np.inf, np.sin(j * x))

    with pytest.raises(NumericalError, match="non-finite"):
        estimate_gamma_limits(near_pole, grid, 0.3, (0.1, 0.02), 8)


# ----------------------------------------------------------------- scaling


def scaling_sequence(penalty=half_sq_l2(), alpha=None, noise=None, levels=(4, 8, 16)):
    family = make_quadrature_family(gaussian_kernel(0.2), levels, 33, input_m=33)
    op = family.reference
    truth = from_callable(lambda t: np.sin(np.pi * t), 33)
    target = TikhonovProblem(op, op.apply(truth), alpha=0.1, penalty=penalty)
    return make_approx_sequence(target, make_constant_family(op, levels), alpha, noise)


def test_scaling_identity_holds_per_level_and_in_the_limit():
    # noiseless constant family: level values are n-independent, so the
    # extrapolated limits obey the scaling identity exactly; the shifted
    # penalty adds its alpha W_X x0 term to the scaled right-hand side
    shift = from_callable(lambda t: 0.5 * np.cos(np.pi * t), 33)
    for seq in (scaling_sequence(), scaling_sequence(shifted_half_sq(shift))):
        report = scaling_invariance_check(seq, lambda n: 2.0 + 1.0 / n, 2.0)
        assert max(report.identity_residuals) < 1e-12
        assert max(report.argmin_distances) < 1e-8
        assert report.identity_ok and report.limit_ok and report.verdict
        assert report.scaled_limit == pytest.approx(
            2.0 * report.unscaled_limit, rel=1e-12
        )
        assert report.lambdas == tuple(2.0 + 1.0 / n for n in (4, 8, 16))


def test_an_inaccurate_scaled_solve_is_refused(monkeypatch):
    # only the scaled systems, whose right sides lam = 1e6 lifts past 1e3, are
    # solved 1e-6 off: the check refuses them instead of reporting a verdict
    solve, peaks = np.linalg.solve, []

    def off_when_scaled(gram, rhs):
        peaks.append(np.max(np.abs(rhs)))
        return solve(gram, rhs) * (1.0 + 1e-6 if peaks[-1] > 1e3 else 1.0)

    monkeypatch.setattr(np.linalg, "solve", off_when_scaled)
    with pytest.raises(NumericalError, match="normal equations residual"):
        scaling_invariance_check(scaling_sequence(), lambda n: 1e6, 1e6)
    # the one solve of the three unscaled levels passed first, its right sides far below 1e3
    assert len(peaks) == 2 and peaks[0] < 1.0 and peaks[1] > 1e3


def _counting_solves(monkeypatch):
    """A list that grows by the matrix shape of every np.linalg.solve call."""
    shapes, solve = [], np.linalg.solve

    def counting(matrix, rhs):
        shapes.append(matrix.shape)
        return solve(matrix, rhs)

    monkeypatch.setattr(np.linalg, "solve", counting)
    return shapes


def test_a_shared_run_is_factored_once(monkeypatch):
    # a constant family at constant alpha: L levels share one G + alpha W_X, so
    # the unscaled solves are one call, and each scaled solve stays its own
    levels = (2, 4, 8, 16, 32)
    seq = scaling_sequence(noise=NoiseSchedule("power", 0.05, 1.0), levels=levels)
    shapes = _counting_solves(monkeypatch)
    report = scaling_invariance_check(seq, lambda n: 2.0 + 1.0 / n, 2.0)
    assert report.identity_ok
    assert len(shapes) == len(levels) + 1
    # a quadrature family has one operator per level: one solve each, as before
    shapes.clear()
    seq = build_gaussian_sequence()
    inf_convergence_study(seq)
    assert len(shapes) == 1 + len(seq.levels)


def test_a_shared_run_matches_its_levels_solved_alone():
    shift = from_callable(lambda t: 0.5 * np.cos(np.pi * t), 33)
    for penalty in (half_sq_l2(), shifted_half_sq(shift)):
        seq = scaling_sequence(penalty, noise=NoiseSchedule("power", 0.05, 1.0))
        assert studies._runs(seq) == [(4, 8, 16)]
        for n, res in zip(seq.levels, studies._sweep(seq, SolveConfig())):
            alone = solve_linear_quadratic(seq.problem_at(n))
            gap = norm(res.minimizer - alone.minimizer)
            assert gap <= 1e-13 * norm(alone.minimizer)
            assert res.value == pytest.approx(alone.value, rel=1e-13)


def test_a_refused_column_names_its_level(monkeypatch):
    # the second of three right sides solved 1e-6 off: the run is refused at level 8
    solve = np.linalg.solve

    def off_in_column_1(matrix, rhs):
        x = solve(matrix, rhs)
        if x.ndim == 2 and x.shape[1] == 3:
            x[:, 1] *= 1.0 + 1e-6
        return x

    monkeypatch.setattr(np.linalg, "solve", off_in_column_1)
    seq = scaling_sequence(noise=NoiseSchedule("power", 0.05, 1.0))
    with pytest.raises(NumericalError,
                       match="^solver failed at level 8: normal equations residual"):
        inf_convergence_study(seq)


def test_a_scaled_matrix_left_unscaled_fails_the_scaling_check(monkeypatch):
    # a mutant that scales the right side of the scaled normal equations but not its
    # matrix solves for lam x*: the check must see it, not pass it
    seq = scaling_sequence()
    assert scaling_invariance_check(seq, lambda n: 2.0 + 1.0 / n, 2.0).verdict
    normal_matrix = solvers._normal_matrix
    monkeypatch.setattr(solvers, "_normal_matrix",
                        lambda gram, alpha, w_in, lam: normal_matrix(gram, alpha, w_in, 1.0))
    report = scaling_invariance_check(seq, lambda n: 2.0 + 1.0 / n, 2.0)
    assert not report.identity_ok and not report.verdict
    assert min(report.argmin_distances) > 1e-2


def test_the_scaling_check_solves_scaled_problems_only():
    # each scaled level is a TikhonovProblem with its scale, minimized as every level is
    for name in ("TikhonovObjective", "_checked_solve", "ClosedForm"):
        assert not hasattr(studies, name)
    assert not hasattr(solvers, "ClosedForm")


def test_scaling_check_validates_scalings():
    seq = scaling_sequence()
    with pytest.raises(GridCompatibilityError):
        scaling_invariance_check(seq, lambda n: 2.0, 0.0)
    with pytest.raises(GridCompatibilityError):
        scaling_invariance_check(seq, lambda n: 0.0, 2.0)


def test_scaling_check_needs_closed_form_target():
    family = make_quadrature_family(gaussian_kernel(0.2), (4, 8), 33, input_m=33)
    op = family.reference
    y = op.apply(from_callable(lambda t: np.sin(np.pi * t), 33))
    target = TikhonovProblem(op, y, alpha=0.1, penalty=p_power_norm(3.0))
    seq = make_approx_sequence(target, make_constant_family(op, (4, 8)))
    with pytest.raises(UnsupportedPenaltyError):
        scaling_invariance_check(seq, lambda n: 2.0, 2.0)


def test_each_operator_forms_its_gram_once(monkeypatch):
    # the closed-form solves of three studies, the scaled solves of the
    # scaling check among them, form at most one Gram per operator; a level's
    # is formed from its n quadrature rows, the reference's from its m_ref rows,
    # by either recipe
    formed = Counter()
    for recipe in ("_tridiagonal_gram", "_shift_gram"):
        def counting(c, *weights, form=getattr(operators, recipe)):
            formed[c.shape[0]] += 1
            return form(c, *weights)

        monkeypatch.setattr(operators, recipe, counting)
    seq = build_gaussian_sequence()
    inf_convergence_study(seq)
    eps_minimizer_chain(seq)
    # a level with fewer quadrature rows than inputs is solved in k dimensions, with no Gram
    family = seq.family
    primal = [n for n in family.levels if n >= family.reference.input_m]
    assert primal == [65, 129]
    assert formed == Counter([family.reference.output_m] + primal)
    # each scaled level takes its level's path again: a dual one forms no Gram, and a
    # primal one reads the Gram its level formed
    before = Counter(formed)
    scaling_invariance_check(seq, lambda n: 2.0 + 1.0 / n, 2.0)
    assert formed == before

    # projected gradient reads the same kept Gram: on a ball every solve of an
    # inf-study and an eps-chain is iterative, and still one Gram per operator
    formed.clear()
    family = make_fem_family(lambda t: 1.0 + t, (4, 8, 16), input_m=33, domain=norm_ball(0.05))
    truth = from_callable(lambda t: np.sin(np.pi * t), 33)
    target = TikhonovProblem(family.reference, family.reference.apply(truth), alpha=0.01)
    fem_seq = make_approx_sequence(target, family)
    inf_convergence_study(fem_seq)
    eps_minimizer_chain(fem_seq)
    ops = [family.reference] + [family.operator_at(n) for n in family.levels]
    assert formed == Counter(op.core.shape[0] for op in ops)

    # on one operator, an iterative solve forms the Gram a closed-form solve reads
    formed.clear()
    op = make_quadrature_family(gaussian_kernel(0.2), (9,), 257, input_m=17).operator_at(9)
    problem = TikhonovProblem(op, op.apply(GridFunction(np.ones(17))), alpha=0.1)
    projected_gradient(problem, GridFunction(np.zeros(17)))
    assert formed == Counter([9])
    solve_linear_quadratic(problem)
    assert formed == Counter([9])


def test_no_solve_or_evaluation_forms_a_prolonged_level(monkeypatch):
    # every level below has a prolongation; its dense product may be formed
    # by an oracle, never by a solve, an evaluation or an apply
    dense = ForwardOperator.matrix

    def refusing(op):
        if op.prolong is not None:
            raise AssertionError("the dense product of a prolonged level was formed")
        return dense.fget(op)

    monkeypatch.setattr(ForwardOperator, "matrix", property(refusing))
    seq = build_gaussian_sequence()
    with pytest.raises(AssertionError, match="dense product"):
        seq.family.operator_at(seq.levels[0]).matrix
    inf_convergence_study(seq)
    samples = standard_samples(65, rho=1.0)
    equi_coercivity_probe(seq, samples, (0.1, 1.0, 10.0))
    for n in seq.levels:
        uniform_gap(seq.family, n, samples)

    family = make_fem_family(lambda t: 1.0 + t, (4, 8, 16), input_m=33, domain=norm_ball(0.05))
    truth = from_callable(lambda t: np.sin(np.pi * t), 33)
    target = TikhonovProblem(family.reference, family.reference.apply(truth), alpha=0.01)
    fem_seq = make_approx_sequence(target, family)
    assert not fem_seq.problem_at(4).is_linear_quadratic  # a ball: projected gradient
    eps_minimizer_chain(fem_seq)

