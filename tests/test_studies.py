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
)
from gammareg import functionals, operators, studies

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
    # the coercivity witness and the scaling check's unscaled solves too
    unconverged_on_call(monkeypatch, 2)
    with pytest.raises(NumericalError, match="^solver failed at level 17:"):
        equi_coercivity_probe(gaussian_sequence, [], (1.0,))
    unconverged_on_call(monkeypatch, 2)
    with pytest.raises(NumericalError, match="^solver failed at level 8: status max_iter$"):
        scaling_invariance_check(scaling_sequence(), lambda n: 2.0, 2.0)


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


# ----------------------------------------------------------------- scaling


def scaling_sequence(penalty=half_sq_l2()):
    family = make_quadrature_family(gaussian_kernel(0.2), (4, 8, 16), 33, input_m=33)
    op = family.reference
    truth = from_callable(lambda t: np.sin(np.pi * t), 33)
    target = TikhonovProblem(op, op.apply(truth), alpha=0.1, penalty=penalty)
    return make_approx_sequence(target, make_constant_family(op, (4, 8, 16)))


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
    # the closed-form solves of three studies, the scaled solve of the
    # scaling check among them, share one Gram per operator; a level's is
    # formed from its n quadrature rows, the reference's from its m_ref rows
    formed = Counter()
    tridiagonal_gram = operators._tridiagonal_gram

    def counting(c, d, e):
        formed[c.shape[0]] += 1
        return tridiagonal_gram(c, d, e)

    monkeypatch.setattr(operators, "_tridiagonal_gram", counting)
    seq = build_gaussian_sequence()
    inf_convergence_study(seq)
    eps_minimizer_chain(seq)
    scaling_invariance_check(seq, lambda n: 2.0 + 1.0 / n, 2.0)
    family = seq.family
    assert formed == Counter((family.reference.output_m,) + family.levels)

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

