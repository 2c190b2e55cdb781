"""Closed-form and projected-gradient solvers, gradient checks, min-penalty."""

from __future__ import annotations

import dataclasses
import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gammareg import (
    ForwardOperator,
    GridCompatibilityError,
    GridFunction,
    InconsistentDataError,
    NumericalError,
    SolveConfig,
    TikhonovProblem,
    UnsupportedPenaltyError,
    build_sequence,
    constant_kernel,
    eval_T,
    from_callable,
    gaussian_kernel,
    grad_check,
    half_sq_l2,
    identity_operator,
    linf_penalty,
    make_fem_family,
    make_quadrature_family,
    NormTag,
    membership,
    min_penalty_solution,
    minimize_problem,
    norm,
    norm_ball,
    norm_ball_nonneg,
    p_power_norm,
    parse_config,
    projected_gradient,
    shifted_half_sq,
    solve_linear_quadratic,
    trapezoid_weights,
)
from gammareg import solvers
from gammareg.grids import weighted_l2
from gammareg.operators import _GRAM_ROWS
from gammareg.solvers import TikhonovObjective, _project

from conftest import LEVEL_CASES, LEVEL_IDS, dense_normal_equations, level_family, uphill_steps


def doubling_surrogate():
    """F = 2I on two nodes, y = 1, alpha = 1: minimum 0.1 at the constant 0.4."""
    op = ForwardOperator(2.0 * np.eye(2))
    return TikhonovProblem(op, GridFunction(np.ones(2)), alpha=1.0)


def random_problem(seed):
    """Random quadratic problem on 3 to 9 nodes with alpha in [0.01, 1]."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(3, 10))
    op = ForwardOperator(rng.standard_normal((m, m)))
    y = GridFunction(rng.standard_normal(m))
    return TikhonovProblem(op, y, alpha=float(rng.uniform(0.01, 1.0)))


def gaussian_problem(m=17, alpha=0.1):
    family = make_quadrature_family(gaussian_kernel(0.2), (m,), m, input_m=m)
    op = family.reference
    y = op.apply(from_callable(lambda t: np.sin(np.pi * t), m))
    return TikhonovProblem(op, y, alpha=alpha)


# ------------------------------------------------------------- closed form


def test_closed_form_matches_hand_minimum():
    res = solve_linear_quadratic(doubling_surrogate())
    assert res.status == "converged"
    assert np.allclose(res.minimizer.values, 0.4, atol=1e-12)
    assert res.value == pytest.approx(0.1, abs=1e-12)


def test_identity_with_zero_alpha_returns_the_data():
    op = identity_operator(9)
    y = from_callable(lambda t: np.sin(np.pi * t) + 0.2, 9)
    res = solve_linear_quadratic(TikhonovProblem(op, y, alpha=0.0))
    assert np.allclose(res.minimizer.values, y.values, atol=1e-12)
    assert res.value == pytest.approx(0.0, abs=1e-14)


def test_rank_deficient_operator_with_zero_alpha_is_infeasible():
    op = ForwardOperator(np.zeros((5, 5)))
    y = GridFunction(np.ones(5))
    res = solve_linear_quadratic(TikhonovProblem(op, y, alpha=0.0))
    assert res.status == "infeasible"
    assert res.value == math.inf


def test_closed_form_requires_linear_quadratic_shape():
    problem = gaussian_problem()
    cubic = TikhonovProblem(problem.operator, problem.data_y, 0.1, exponent_p=3.0)
    with pytest.raises(UnsupportedPenaltyError):
        solve_linear_quadratic(cubic)


def test_shifted_penalty_recenters_the_solution():
    # with y = F(shift) and the penalty centered at the same shift, the
    # shift itself is the exact minimizer for every alpha
    op = identity_operator(9)
    shift = from_callable(lambda t: 0.3 * np.cos(np.pi * t), 9)
    problem = TikhonovProblem(op, shift, alpha=0.7, penalty=shifted_half_sq(shift))
    res = solve_linear_quadratic(problem)
    assert np.allclose(res.minimizer.values, shift.values, atol=1e-12)


def test_shift_on_another_grid_is_resampled_by_the_closed_form():
    # the normal equations bring a coarse shift onto the input grid as the
    # penalty's value and gradient do, so both solvers find one minimizer
    base = gaussian_problem(m=17)
    shift = from_callable(lambda t: 0.5 * np.cos(np.pi * t), 9)
    problem = TikhonovProblem(base.operator, base.data_y, 0.1, penalty=shifted_half_sq(shift))
    exact = solve_linear_quadratic(problem)
    assert exact.grad_norm_final < 1e-10
    config = SolveConfig(max_iter=2000, grad_tol=1e-9)
    res = projected_gradient(problem, GridFunction(np.zeros(17)), config)
    assert res.status == "converged"
    assert norm(res.minimizer - exact.minimizer) < 1e-6
    assert norm(exact.minimizer - solve_linear_quadratic(base).minimizer) > 1e-2


def test_closed_form_gradient_is_small_at_solution():
    res = solve_linear_quadratic(gaussian_problem())
    assert res.grad_norm_final < 1e-10


def test_residual_check_survives_huge_right_sides(monkeypatch):
    # entries of rhs near 1e157 overflow ||rhs||^2; the check must still
    # accept the true solution and refuse one that is off by 1e-6
    op = identity_operator(9)
    y = from_callable(lambda t: 1e158 * (1.0 + t), 9)
    problem = TikhonovProblem(op, y, alpha=0.5)
    gram, rhs = dense_normal_equations(problem)
    assert np.max(np.abs(rhs)) > 1e157
    peak = np.max(np.abs(rhs))
    x, gap = solvers._checked_solve(gram, rhs)
    assert np.array_equal(gap, gram @ x - rhs)
    residual = np.linalg.norm(gap / peak)
    assert residual < 1e-15 * np.linalg.norm(rhs / peak)
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda g, r: solve(g, r) * (1.0 + 1e-6))
    with pytest.raises(NumericalError):
        solve_linear_quadratic(problem)


def test_a_nan_residual_or_a_singular_system_is_refused():
    # x = [inf, 1]: 0 * inf makes the residual NaN, which `residual > 1e-10` let pass
    with pytest.raises(NumericalError, match="not finite"):
        solvers._checked_solve(np.array([[1e-308, 0.0], [0.0, 1.0]]), np.array([1e10, 1.0]))
    with pytest.raises(NumericalError, match="not solved: Singular matrix"):
        solvers._checked_solve(np.ones((2, 2)), np.ones(2))


def _dual_levels():
    """(case, operator) for every LEVEL_CASES level whose core has fewer rows than inputs."""
    return [(case_id, op) for case_id in LEVEL_IDS for op in _level_operators(case_id)
            if op.core.shape[0] < op.input_m]


def _primal(problem):
    """The checked solve of the primal normal equations, formed from the kept Gram and
    the factored adjoint as the closed form forms them (no scale, no shift)."""
    op = problem.operator
    w_in, w = trapezoid_weights(op.input_m), trapezoid_weights(op.output_m)
    matrix = solvers._normal_matrix(op.gram(), problem.alpha, w_in, 1.0)
    return solvers._checked_solve(matrix, op.adjoint(w * problem.data_y.values))[0]


def test_dual_closed_form_matches_the_primal_solve():
    # every level with k < input_m: prolonged quadrature and FEM cores, plus a
    # core without a prolongation, each with and without a penalty shift
    rng = np.random.default_rng(3)
    ops = [op for _, op in _dual_levels()] + [ForwardOperator(rng.standard_normal((9, 65)))]
    assert {op.prolong is None for op in ops} == {True, False} and len(ops) >= 7
    shift = from_callable(lambda t: 0.5 * np.cos(np.pi * t), 33)
    for op in ops:
        y = GridFunction(op.forward(np.ones(op.input_m)) + 0.1 * rng.standard_normal(op.output_m))
        for penalty in (half_sq_l2(), shifted_half_sq(shift)):
            problem = TikhonovProblem(op, y, alpha=0.1, penalty=penalty)
            x = solve_linear_quadratic(problem).minimizer.values
            exact = np.linalg.solve(*dense_normal_equations(problem))
            assert np.linalg.norm(x - exact) <= 1e-12 * np.linalg.norm(exact)


def test_dual_closed_form_solves_k_rows_and_forms_no_gram(monkeypatch):
    shapes, solve = [], np.linalg.solve

    def spy(matrix, rhs):
        shapes.append(matrix.shape)
        return solve(matrix, rhs)

    monkeypatch.setattr(np.linalg, "solve", spy)
    family = make_quadrature_family(gaussian_kernel(0.2), (9,), 257, input_m=33)
    op = family.operator_at(9)
    problem = TikhonovProblem(op, family.reference.apply(GridFunction(np.ones(33))), alpha=0.1)
    res = solve_linear_quadratic(problem)
    assert shapes == [(9, 9)]
    assert op._gram is None
    assert res.status == "converged" and res.grad_norm_final < 1e-10


def test_a_refused_dual_residual_falls_back_to_the_primal_solve():
    # at alpha = 1e-12 the dual residual of this level is about 2e-8: the
    # closed form forms the Gram and returns the primal solve, bit for bit
    family = make_quadrature_family(gaussian_kernel(0.2), (17,), 129, input_m=33)
    op = family.operator_at(17)
    y = family.reference.apply(from_callable(lambda t: np.sin(np.pi * t), 33))
    y = y + from_callable(lambda t: 0.01 * np.sin(14 * np.pi * t), 129)
    problem = TikhonovProblem(op, y, alpha=1e-12)
    res = solve_linear_quadratic(problem)
    assert op._gram is not None
    x = _primal(problem)
    assert np.array_equal(res.minimizer.values, x)
    assert res.value == eval_T(problem, GridFunction(x))


def test_a_dual_system_numpy_cannot_factor_falls_back_to_the_primal_solve(monkeypatch):
    # only the k x k dual system is refused: the closed form forms the Gram and
    # returns the primal solve, bit for bit
    family = make_quadrature_family(gaussian_kernel(0.2), (9,), 257, input_m=33)
    op = family.operator_at(9)
    problem = TikhonovProblem(op, family.reference.apply(GridFunction(np.ones(33))), alpha=0.1)
    solve = np.linalg.solve

    def refuse_k_by_k(matrix, rhs):
        if matrix.shape == (9, 9):
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(matrix, rhs)

    monkeypatch.setattr(np.linalg, "solve", refuse_k_by_k)
    res = solve_linear_quadratic(problem)
    assert op._gram is not None
    assert np.array_equal(res.minimizer.values, _primal(problem))


# ------------------------------------------------------- projected gradient


def test_projected_gradient_matches_closed_form():
    problem = gaussian_problem(m=17)
    exact = solve_linear_quadratic(problem)
    x0 = GridFunction(np.zeros(17))
    res = projected_gradient(problem, x0, SolveConfig(max_iter=2000, grad_tol=1e-9))
    assert res.status == "converged"
    assert norm(res.minimizer - exact.minimizer) < 1e-6


def test_ball_constraint_saturates_when_unconstrained_solution_is_outside():
    # unconstrained minimizer of 0.5||x - y||^2 + alpha 0.5||x||^2 is
    # y/(1 + alpha) with norm 2/(1 + alpha) > 0.3, so the constrained
    # minimizer sits on the boundary of the 0.3-ball
    op = identity_operator(9, norm_ball(0.3))
    y = GridFunction(np.full(9, 2.0))
    for alpha in (0.1, 0.5):
        problem = TikhonovProblem(op, y, alpha=alpha)
        res = projected_gradient(
            problem, GridFunction(np.zeros(9)), SolveConfig(max_iter=500, grad_tol=1e-10)
        )
        assert res.status == "converged"
        assert norm(res.minimizer) == pytest.approx(0.3, abs=1e-9)


def test_failed_line_search_is_reported_as_stalled():
    # p = 3 with data of size 1e3: at level 2 no trial step passes the
    # Armijo test long before max_iter, and the run says so
    run = parse_config(
        "[study]\nkind = eps-chain\n[problem]\nkernel = gaussian\nsigma = 0.2\n"
        "input_m = 5\nquad_m = 33\nalpha = 0.01\nexponent_p = 3\npenalty = p_power_norm\n"
        "penalty_q = 2\ntruth_amplitude = 1e3\ndata = direct_profile\n"
        "[schedule]\nlevels = doubling:2:4\nalpha_kind = power\n"
    )
    config = SolveConfig()
    res = minimize_problem(build_sequence(run).problem_at(2), config)
    assert res.status == "stalled"
    assert res.iterations < config.max_iter
    assert res.grad_norm_final > config.grad_tol


def test_restarts_continue_an_unconverged_run():
    # each restart runs up to max_iter more iterations from the last iterate,
    # never uphill, until one converges
    problem, x0 = gaussian_problem(m=17), GridFunction(np.zeros(17))
    runs = [
        projected_gradient(problem, x0, SolveConfig(max_iter=10, grad_tol=1e-9, restarts=r))
        for r in range(4)
    ]
    assert [r.status for r in runs] == ["max_iter"] * 3 + ["converged"]
    assert [r.iterations for r in runs] == [10, 20, 30, 33]
    assert all(b.value <= a.value for a, b in zip(runs, runs[1:]))


def test_restarts_leave_a_converged_run_alone():
    problem, x0 = gaussian_problem(m=17), GridFunction(np.zeros(17))
    once = projected_gradient(problem, x0, SolveConfig(max_iter=2000, grad_tol=1e-9))
    spare = projected_gradient(problem, x0, SolveConfig(max_iter=2000, grad_tol=1e-9, restarts=3))
    assert once.status == "converged"
    assert np.array_equal(once.minimizer.values, spare.minimizer.values)
    assert (once.value, once.iterations, once.grad_norm_final) == (
        spare.value, spare.iterations, spare.grad_norm_final
    )


def test_infeasible_start_is_reported():
    op = identity_operator(9, norm_ball(0.5))
    problem = TikhonovProblem(op, GridFunction(np.zeros(9)), alpha=1.0)
    res = projected_gradient(problem, GridFunction(np.full(9, 1.0)))
    assert res.status == "infeasible"
    assert res.value == math.inf
    assert res.iterations == 0


def test_gradient_method_needs_smooth_pieces():
    op = identity_operator(5)
    y = GridFunction(np.zeros(5))
    x0 = GridFunction(np.zeros(5))
    with pytest.raises(UnsupportedPenaltyError):
        projected_gradient(TikhonovProblem(op, y, 1.0, penalty=linf_penalty()), x0)
    with pytest.raises(UnsupportedPenaltyError):
        projected_gradient(TikhonovProblem(op, y, 1.0, exponent_p=1.0), x0)


def test_quartic_discrepancy_is_solved_to_tolerance():
    # p = 4 with a power penalty: smooth but not linear-quadratic
    problem = TikhonovProblem(
        identity_operator(9),
        from_callable(lambda t: np.sin(np.pi * t), 9),
        alpha=0.01,
        exponent_p=4.0,
        penalty=p_power_norm(2.0),
    )
    res = projected_gradient(
        problem, GridFunction(np.zeros(9)), SolveConfig(max_iter=3000, grad_tol=1e-9)
    )
    assert res.status == "converged"
    assert res.grad_norm_final <= 1e-9


def test_minimize_problem_dispatches_on_shape():
    lq = gaussian_problem()
    assert solve_linear_quadratic(lq).value == pytest.approx(
        minimize_problem(lq).value, abs=1e-15
    )
    constrained = TikhonovProblem(
        ForwardOperator(lq.operator.matrix, norm_ball(10.0)), lq.data_y, lq.alpha
    )
    res = minimize_problem(constrained, SolveConfig(max_iter=2000, grad_tol=1e-9))
    assert res.status == "converged"
    assert res.value == pytest.approx(solve_linear_quadratic(lq).value, rel=1e-6)


def test_solver_config_validation():
    with pytest.raises(GridCompatibilityError):
        SolveConfig(max_iter=0)
    with pytest.raises(GridCompatibilityError):
        SolveConfig(grad_tol=0.0)
    with pytest.raises(GridCompatibilityError):
        SolveConfig(grad_tol=math.nan)
    with pytest.raises(GridCompatibilityError):
        SolveConfig(restarts=-1)


def test_overflowing_start_is_refused():
    # T(0) = ||y||^3 / 3 overflows although ||y|| is finite; the solve
    # refuses it as eval_T does instead of raising OverflowError
    y = GridFunction(np.full(9, 1e120))
    problem = TikhonovProblem(identity_operator(9), y, alpha=0.1, exponent_p=3.0)
    with pytest.raises(ValueError, match="not finite"):
        projected_gradient(problem, GridFunction(np.zeros(9)))


# --------------------------------------------------------- scaled problems


def _scaled_cases():
    """A linear-quadratic problem, the same with a shifted penalty, and a p = 3,
    q = 3 problem on a ball."""
    base = gaussian_problem(m=17)
    shift = from_callable(lambda t: 0.5 * np.cos(np.pi * t), 17)
    ball = ForwardOperator(base.operator.matrix, norm_ball(0.2))
    return [
        base,
        dataclasses.replace(base, penalty=shifted_half_sq(shift)),
        TikhonovProblem(ball, base.data_y, 0.1, exponent_p=3.0, penalty=p_power_norm(3.0)),
    ]


def test_a_scaled_problem_has_scaled_values_gradients_and_normal_equations():
    rng = np.random.default_rng(11)
    for problem in _scaled_cases():
        for lam in (1e-3, 0.37, 2.5, 1e4):
            scaled = dataclasses.replace(problem, scale=lam)
            plain, times = TikhonovObjective(problem), TikhonovObjective(scaled)
            vals = 0.05 * rng.standard_normal(17)
            x = GridFunction(vals)
            assert eval_T(scaled, x) == pytest.approx(lam * eval_T(problem, x), rel=1e-15)
            assert times.model_at(vals)[0] == pytest.approx(
                lam * plain.model_at(vals)[0], rel=1e-15
            )
            assert np.allclose(times.coordinate_gradient(vals),
                               lam * plain.coordinate_gradient(vals), rtol=1e-15, atol=0.0)
            if not problem.is_linear_quadratic:
                continue
            # the closed form's matrix and right side both carry lam: its solution
            # solves the dense lam-scaled system
            gram, w_in = problem.operator.gram(), trapezoid_weights(17)
            m_lam = solvers._normal_matrix(gram, problem.alpha, w_in, lam)
            m = solvers._normal_matrix(gram, problem.alpha, w_in, 1.0)
            assert np.allclose(m_lam, lam * m, rtol=1e-15, atol=0.0)
            dense_m, dense_b = dense_normal_equations(scaled)
            assert np.allclose(m_lam, dense_m, rtol=1e-13, atol=1e-13 * np.max(np.abs(dense_m)))
            x_lam = solvers._closed_form([scaled])[0].minimizer.values
            assert np.linalg.norm(dense_m @ x_lam - dense_b) <= 1e-10 * np.linalg.norm(dense_b)


def test_a_scaled_closed_form_keeps_the_minimizer():
    # the primal path (17 core rows, 17 inputs) and the dual one (9 core rows)
    dual_op = make_quadrature_family(gaussian_kernel(0.2), (9,), 257, input_m=17).operator_at(9)
    dual_y = dual_op.apply(from_callable(lambda t: np.sin(np.pi * t), 17))
    for problem in _scaled_cases()[:2] + [TikhonovProblem(dual_op, dual_y, alpha=0.1)]:
        exact = solve_linear_quadratic(problem)
        scaled = solve_linear_quadratic(dataclasses.replace(problem, scale=40.0))
        assert norm(scaled.minimizer - exact.minimizer) <= 1e-13 * norm(exact.minimizer)
        assert scaled.value == pytest.approx(40.0 * exact.value, rel=1e-13)


def test_projected_gradient_on_a_scaled_ball_problem_keeps_the_minimizer():
    problem = _scaled_cases()[2]
    config = SolveConfig(max_iter=5000, grad_tol=1e-11)
    x0 = GridFunction(np.zeros(17))
    plain = projected_gradient(problem, x0, config)
    assert plain.status == "converged"
    assert norm(plain.minimizer) == pytest.approx(0.2, rel=1e-9)  # on the ball's boundary
    for lam in (0.25, 8.0):
        scaled = projected_gradient(dataclasses.replace(problem, scale=lam), x0, config)
        assert scaled.status == "converged"
        assert norm(scaled.minimizer - plain.minimizer) < 1e-8
        assert scaled.value == pytest.approx(lam * plain.value, rel=1e-9)


# ------------------------------------------------------------- Gram model


def _reference_operator(kind, rng):
    if kind == "identity":
        return identity_operator(int(rng.integers(2, 40)))
    kernel = gaussian_kernel(0.6) if kind == "gaussian" else constant_kernel(1.0)
    m_ref = int(rng.integers(3, 120))
    return make_quadrature_family(kernel, (m_ref,), m_ref, input_m=int(rng.integers(2, 40))).reference


@functools.cache
def _level_operators(case_id):
    """Every level of a LEVEL_CASES family, built once per session."""
    kind, m_ref, levels = LEVEL_CASES[LEVEL_IDS.index(case_id)]
    family = level_family(kind, m_ref, levels)
    return [family.operator_at(n) for n in levels]


@pytest.mark.parametrize("kind", ["identity", "gaussian", "constant", *LEVEL_IDS])
@settings(deadline=None, max_examples=20)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.sampled_from([2.0, 3.0, 4.0]),
    st.booleans(),
)
def test_gram_model_matches_the_full_formula(kind, seed, p, in_range):
    # references of random sizes, and every level of a LEVEL_CASES family:
    # prolonged quadrature and FEM levels, and levels with n = m_ref
    rng = np.random.default_rng(seed)
    ops = [_reference_operator(kind, rng)] if kind in ("identity", "gaussian", "constant") \
        else _level_operators(kind)
    for op in ops:
        a = op.matrix
        y = a @ rng.standard_normal(op.input_m) if in_range else rng.standard_normal(op.output_m)
        problem = TikhonovProblem(op, GridFunction(y), alpha=0.1, exponent_p=p)
        objective = TikhonovObjective(problem)
        x = rng.standard_normal(op.input_m)
        # |A||x| + |y| bounds every partial sum of the residual, so these scales
        # bound what rounding can do to either formula
        w = trapezoid_weights(op.output_m)
        bound = np.abs(a) @ np.abs(x) + np.abs(y)
        size = weighted_l2(bound, w)
        value = objective.value_at(x)
        assert abs(objective.model_at(x)[0] - value) <= 1e-13 * (size**p + value)
        grad_scale = (
            size ** (p - 2.0) * (np.abs(a).T @ (w * bound)) + 0.1 * objective.w_in * np.abs(x)
        )
        gap = np.abs(objective.coordinate_gradient(x) - _dense_gradient(problem, x))
        assert np.all(gap <= 1e-13 * grad_scale)


def _first_solve_peak(op):
    """Traced peak of a projected-gradient solve that forms op's Gram."""
    problem = TikhonovProblem(op, op.apply(GridFunction(np.ones(op.input_m))), alpha=0.1)
    x0 = GridFunction(np.zeros(op.input_m))
    assert op._gram is None
    tracemalloc.start()
    try:
        projected_gradient(problem, x0, SolveConfig(max_iter=3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert op._gram is not None
    return peak


def test_gram_model_forms_no_weighted_copy_of_the_operator():
    op = make_quadrature_family(gaussian_kernel(0.2), (9,), 4097, input_m=257).reference
    peak = _first_solve_peak(op)
    # the kept Gram, one weighted block of rows and its product; a dozen
    # vectors on the output grid: data, weights, A x, residuals, the check's
    cols = op.input_m
    bound = 2 * cols * cols * 8 + _GRAM_ROWS * cols * 8 + 12 * op.output_m * 8
    assert bound < op.matrix.nbytes  # a weighted copy of the operator cannot fit
    assert peak < bound, f"peak {peak / 1e6:.2f} MB, bound {bound / 1e6:.2f} MB"


def _dense_gradient(problem, vals):
    """A^T (W r) ||r||_W^(p - 2) + alpha grad Omega, r = A x - y, from the dense A."""
    a, w = problem.operator.matrix, trapezoid_weights(problem.operator.output_m)
    r = a @ vals - problem.data_y.values
    grad = a.T @ (w * r) * weighted_l2(r, w) ** (problem.exponent_p - 2.0)
    return grad + problem.alpha * problem.penalty.coordinate_gradient(GridFunction(vals))


def _gradient_mapping(problem, x):
    """||x - P(x - grad T(x))|| with the gradient of the dense formula."""
    w_in = trapezoid_weights(problem.operator.input_m)
    g = _dense_gradient(problem, x.values) / w_in
    moved = _project(problem.operator.domain, x.values - g, w_in)
    return weighted_l2(x.values - moved, w_in)


def test_a_model_without_the_data_norm_is_caught_at_the_minimizer(monkeypatch):
    # data far outside the range of a smoothing operator, so ||y||_W^2 is
    # most of the misfit; for p = 3 the misfit scales the gradient
    family = make_quadrature_family(gaussian_kernel(0.6), (17,), 65, input_m=17)
    y = GridFunction(np.random.default_rng(7).standard_normal(65))
    problems = [
        TikhonovProblem(op, y, alpha=0.1, exponent_p=3.0)
        for op in (family.reference, family.operator_at(17))
    ]
    assert problems[1].operator.prolong is not None
    x0, config = GridFunction(np.zeros(17)), SolveConfig(max_iter=2000, grad_tol=1e-9)
    for problem in problems:
        assert _gradient_mapping(problem, projected_gradient(problem, x0, config).minimizer) < 1e-8

    class WithoutDataNorm(TikhonovObjective):
        def __init__(self, problem):
            super().__init__(problem)
            self.y_sq = 0.0

    monkeypatch.setattr(solvers, "TikhonovObjective", WithoutDataNorm)
    for problem in problems:
        assert _gradient_mapping(problem, projected_gradient(problem, x0, config).minimizer) > 1e-4


def test_gram_model_of_a_level_reads_only_its_core_rows():
    # the first solve forms the level's Gram from its k core rows, not from
    # the m_ref reference rows
    family = make_quadrature_family(gaussian_kernel(0.2), (9,), 8193, input_m=513)
    op = family.operator_at(9)
    peak = _first_solve_peak(op)
    # the kept Gram and the product of its one block (the check's |G| comes
    # after that product is freed); a dozen vectors on the reference grid
    cols = op.input_m
    bound = 2 * cols * cols * 8 + 12 * op.output_m * 8
    assert bound < 2 * _GRAM_ROWS * cols * 8  # a Gram from reference rows cannot fit
    assert peak < bound, f"peak {peak / 1e6:.2f} MB, bound {bound / 1e6:.2f} MB"


def _pg_operators(case_id):
    if case_id != "fem-ball":
        return _level_operators(case_id)
    family = make_fem_family(lambda t: 1.0 + t, (8, 16), input_m=33, domain=norm_ball(0.05))
    return [family.operator_at(16)]


@pytest.mark.parametrize("case_id", [*LEVEL_IDS, "fem-ball"])
def test_projected_gradient_value_is_eval_T_at_its_minimizer(case_id):
    # the value a run returns is the one its last accepted step passed on T's
    # full formula, so it is eval_T at the minimizer, bit for bit
    rng = np.random.default_rng(5)
    for op in _pg_operators(case_id):
        y = op.forward(np.ones(op.input_m)) + 0.1 * rng.standard_normal(op.output_m)
        p = 2.0 if op.domain.radius < math.inf else 3.0  # never linear-quadratic
        problem = TikhonovProblem(op, GridFunction(y), alpha=0.1, exponent_p=p)
        res = projected_gradient(problem, GridFunction(np.zeros(op.input_m)),
                                 SolveConfig(max_iter=200))
        assert res.iterations > 0
        assert res.value == eval_T(problem, res.minimizer)


@functools.cache
def _fem_ball_level_16():
    """Level 16 of the `fem-pg-8193` benchmark's ball instance, at n_ref 513."""
    run = parse_config(
        "[study]\nkind = inf-study\n[problem]\nkernel = fem\npotential = one\ninput_m = 65\n"
        "domain = l2_ball\nradius = 0.05\ntruth = sine\ntruth_amplitude = 0.1\n"
        "[schedule]\nlevels = 8, 16, 32\n"
    )
    return build_sequence(run).problem_at(16), run.solver


def test_projected_gradient_on_the_fem_ball_level_keeps_its_result():
    # recorded before the loop moved onto nodal arrays, which changed no bit of it; the
    # value is compared to 1e-12, as another numpy or CPU may let BLAS round apart
    problem, config = _fem_ball_level_16()
    res = projected_gradient(problem, GridFunction(np.zeros(65)), config)
    assert (res.iterations, res.status) == (114, "converged")
    assert res.value == pytest.approx(float.fromhex("0x1.244466fad7cfbp-16"), rel=1e-12)


def test_projected_gradient_builds_no_grid_function_per_iteration(monkeypatch):
    # iterates, candidates, penalties and gradients stay nodal arrays; only the start
    # and the result are grid functions (about 4 per iteration used to be built)
    problem, _ = _fem_ball_level_16()
    x0 = GridFunction(np.zeros(problem.operator.input_m))
    built = []
    post_init = GridFunction.__post_init__
    monkeypatch.setattr(GridFunction, "__post_init__",
                        lambda self: built.append(1) or post_init(self))
    counts = []
    for max_iter in (50, 100):
        built.clear()
        res = projected_gradient(problem, x0, SolveConfig(max_iter, grad_tol=1e-300))
        assert (res.iterations, res.status) == (max_iter, "max_iter")
        counts.append(len(built))
    assert counts[1] <= counts[0] <= 3


# ----------------------------------------------------------- gradient check


def test_grad_check_catches_a_gram_off_by_1e_3():
    # the analytic side is the Gram gradient projected gradient follows, and
    # the differences are of T's full formula, so the two disagree
    op = identity_operator(9)
    problem = TikhonovProblem(op, from_callable(lambda t: np.sin(np.pi * t), 9), alpha=0.1)
    x = from_callable(lambda t: 0.4 + 0.2 * t, 9)
    assert grad_check(problem, x) < 1e-10
    object.__setattr__(op, "_gram", op.gram() * (1.0 + 1e-3))
    assert grad_check(problem, x) > 1e-5


def test_grad_check_tiny_on_quadratic_problems():
    problem = gaussian_problem(m=17)
    x = from_callable(lambda t: 0.5 * np.cos(np.pi * t), 17)
    assert grad_check(problem, x) < 1e-10


def test_grad_check_scales_with_step_on_quartic_problems():
    # central differences are second order: shrinking h by 1000 must win
    # at least a factor 10 on a smooth non-quadratic objective
    problem = TikhonovProblem(
        identity_operator(9),
        from_callable(lambda t: np.sin(np.pi * t), 9),
        alpha=0.1,
        exponent_p=4.0,
    )
    x = from_callable(lambda t: 0.4 + 0.2 * t, 9)
    coarse = grad_check(problem, x, h_fd=1e-2)
    fine = grad_check(problem, x, h_fd=1e-5)
    assert fine < coarse / 10.0


# ------------------------------------------------------------- min penalty


def test_min_penalty_solution_identity_returns_data():
    op = identity_operator(9)
    y = from_callable(lambda t: np.sin(np.pi * t), 9)
    x = min_penalty_solution(op, y)
    assert norm(x - y) < 1e-12


def test_min_penalty_solution_rank_one_hand_value():
    # constant kernel kappa = 2 maps x to the constant 2 * integral(x);
    # among all profiles with integral 0.3 the constant 0.3 has least L2
    # norm, so it is the minimum-penalty solution for y = 0.6
    family = make_quadrature_family(constant_kernel(2.0), (33,), 33, input_m=33)
    y = GridFunction(np.full(33, 0.6))
    x = min_penalty_solution(family.reference, y)
    assert np.allclose(x.values, 0.3, atol=1e-7)


def test_min_penalty_solution_consistency_on_smoothing_kernel():
    family = make_quadrature_family(gaussian_kernel(0.2), (65,), 65, input_m=65)
    op = family.reference
    truth = from_callable(lambda t: np.sin(np.pi * t), 65)
    y = op.apply(truth)
    x = min_penalty_solution(op, y)
    # attains the data and penalizes no harder than the generating profile
    assert norm(op.apply(x) - y) < 1e-5
    assert half_sq_l2().evaluate(x) <= half_sq_l2().evaluate(truth) + 1e-6


def test_min_penalty_rungs_come_from_normal_equations(monkeypatch):
    # the normal equations are formed in one place: each rung is a one-problem
    # closed form at its alpha
    alphas = []
    closed_form = solvers._closed_form

    def spy(problems):
        assert len(problems) == 1
        alphas.append(problems[0].alpha)
        return closed_form(problems)

    monkeypatch.setattr(solvers, "_closed_form", spy)
    min_penalty_solution(identity_operator(9), from_callable(np.sin, 9))
    assert alphas == list(solvers._LADDER)


def test_an_inaccurate_rung_solve_is_refused(monkeypatch):
    # every rung is a checked solve: one off by 1e-6 must not pass silently
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda g, r: solve(g, r) * (1.0 + 1e-6))
    with pytest.raises(NumericalError, match="normal equations residual"):
        min_penalty_solution(identity_operator(9), from_callable(np.sin, 9))


def test_min_penalty_solution_refuses_unattainable_data():
    # a constant-kernel operator only produces constants; a ramp is out
    family = make_quadrature_family(constant_kernel(1.0), (33,), 33, input_m=33)
    ramp = from_callable(lambda t: t, 33)
    with pytest.raises(InconsistentDataError):
        min_penalty_solution(family.reference, ramp)


# -------------------------------------------------------------- properties


@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=0, max_value=10_000))
def test_descent_is_never_violated(seed):
    problem = random_problem(seed)
    assert uphill_steps(problem, GridFunction(np.zeros(problem.operator.input_m))) == []


def test_descent_check_finds_an_uphill_line_search(monkeypatch):
    # a line search that accepts steps up to 10 % uphill must be caught
    monkeypatch.setattr(solvers, "_SUFFICIENT_DECREASE", -0.1)
    problems = [random_problem(seed) for seed in range(10)]
    assert any(uphill_steps(pr, GridFunction(np.zeros(pr.operator.input_m))) for pr in problems)


@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=0, max_value=10_000))
def test_closed_form_gradient_vanishes(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(3, 12))
    mat = rng.standard_normal((m, m))
    op = ForwardOperator(mat)
    y = GridFunction(rng.standard_normal(m))
    problem = TikhonovProblem(op, y, alpha=float(rng.uniform(0.05, 1.0)))
    res = solve_linear_quadratic(problem)
    assert res.status == "converged"
    assert res.grad_norm_final < 1e-8


@settings(deadline=None)
@given(
    st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=2, max_size=600),
    st.floats(1e-3, 10.0),
    st.sampled_from([norm_ball, norm_ball_nonneg]),
    st.sampled_from([NormTag.L2, NormTag.LINF]),
)
def test_projection_lands_inside_the_ball(values, radius, ball, tag):
    # a projection one rounding step outside would make T = +inf there
    vals = np.asarray(values)
    domain = ball(radius, tag)
    projected = _project(domain, vals, trapezoid_weights(vals.size))
    assert membership(domain, GridFunction(projected))
