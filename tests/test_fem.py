"""Galerkin discretization of -u'' + c u = f with zero boundary values."""

from __future__ import annotations

import gc

import numpy as np
import pytest

from gammareg import config, fem, operators
from gammareg.grids import interpolation_matrix
from gammareg import (
    EllipticProblem,
    EllipticityError,
    GridCompatibilityError,
    GridFunction,
    NormTag,
    NumericalError,
    ReportRow,
    assemble,
    from_callable,
    grid_nodes,
    l2_error_vs_exact,
    make_fem_family,
    norm,
    rate_study,
    resample,
    resample_matrix,
    solve_bvp,
    thomas_solve,
)

ONE = lambda t: np.ones_like(t)  # noqa: E731
ZERO = lambda t: np.zeros_like(t)  # noqa: E731


def manufactured_sine(potential):
    """Problem with exact solution sin(pi t) for the given potential."""

    def source(t):
        return (np.pi**2) * np.sin(np.pi * t) + potential(t) * np.sin(np.pi * t)

    return EllipticProblem(potential, source, lambda t: np.sin(np.pi * t))


# ------------------------------------------------------------- assembly


def test_assembly_hand_values_single_node():
    # n = 1, h = 1/2, c = f = 1: stiffness 2/h = 4, mass diag = integral of
    # the tent squared = 1/3, load = tent area = 1/2
    system = assemble(EllipticProblem(ONE, ONE), 1)
    assert system.diag[0] == pytest.approx(4.0 + 1.0 / 3.0, abs=1e-14)
    assert system.rhs[0] == pytest.approx(0.5, abs=1e-14)


def test_assembly_hand_values_two_nodes():
    # n = 2, h = 1/3: diag 2/h + 2h/3 = 6 + 2/9, off-diagonal -1/h + h/6
    # = -3 + 1/18, load h = 1/3
    system = assemble(EllipticProblem(ONE, ONE), 2)
    assert np.allclose(system.diag, 6.0 + 2.0 / 9.0, atol=1e-14)
    assert np.allclose(system.off, -3.0 + 1.0 / 18.0, atol=1e-14)
    assert np.allclose(system.rhs, 1.0 / 3.0, atol=1e-14)


def test_energy_identity_without_potential():
    # with c = 0 the bilinear form is exactly the broken-gradient inner
    # product: v' A v equals the squared H1_0 seminorm of the hat expansion
    system = assemble(EllipticProblem(ZERO, ONE), 7)
    rng = np.random.default_rng(5)
    v = rng.standard_normal(7)
    quad = float(v @ operators._tridiagonal_times(system.diag, system.off, v))
    g = GridFunction(np.pad(v, 1))
    assert quad == pytest.approx(norm(g, NormTag.H1_0) ** 2, rel=1e-12)


def test_negative_potential_rejected():
    with pytest.raises(EllipticityError):
        assemble(EllipticProblem(lambda t: t - 0.5, ONE), 3)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_non_finite_potential_rejected(bad):
    # NaN passes a `c < 0` test; it would fill the core with NaN
    with pytest.raises(EllipticityError, match="potential must be finite"):
        make_fem_family(lambda t: np.where(t > 0.5, bad, 1.0), (4, 8), input_m=9)


def test_tabulated_potential_accepted():
    # a sampled coefficient is an interpolating callable over its table
    table = from_callable(ONE, 9)
    tabulated = lambda t: np.interp(t, table.nodes, table.values)  # noqa: E731
    system = assemble(EllipticProblem(tabulated, ONE), 2)
    assert np.allclose(system.diag, 6.0 + 2.0 / 9.0, atol=1e-12)


def test_level_needs_interior_nodes():
    with pytest.raises(GridCompatibilityError):
        assemble(EllipticProblem(ONE, ONE), 0)
    with pytest.raises(GridCompatibilityError):
        fem.fem_operator_matrix(ONE, 0, 9, 9)


# --------------------------------------------------------- linear algebra


def test_thomas_solve_matches_dense_solver():
    system = assemble(EllipticProblem(ONE, ONE), 9)
    dense = (
        np.diag(system.diag)
        + np.diag(system.off, -1)
        + np.diag(system.off, 1)
    )
    expected = np.linalg.solve(dense, system.rhs)
    assert np.allclose(thomas_solve(system), expected, atol=1e-13)


def test_thomas_solve_accepts_stacked_right_hand_sides():
    system = assemble(EllipticProblem(ONE, ONE), 5)
    rhs = np.stack([system.rhs, 2.0 * system.rhs], axis=1)
    out = thomas_solve(fem.TridiagonalSystem(system.diag, system.off, rhs))
    assert out.shape == (5, 2)
    assert np.allclose(out[:, 1], 2.0 * out[:, 0], atol=1e-13)


def test_thomas_solve_accepts_an_indefinite_system():
    # pivots 1 and -3: nonzero, so the system is solved though not positive definite
    system = fem.TridiagonalSystem(np.array([1.0, 1.0]), np.array([2.0]), np.array([3.0, 3.0]))
    assert np.allclose(thomas_solve(system), [1.0, 1.0], atol=1e-15)


def test_thomas_solve_refuses_a_zero_pivot():
    # the second pivot is 4 - 2 * 2 / 1 = 0 exactly
    system = fem.TridiagonalSystem(np.array([1.0, 4.0]), np.array([2.0]), np.ones(2))
    with pytest.raises(NumericalError, match="zero pivot in tridiagonal elimination"):
        thomas_solve(system)


def _row_loop_ldl_solve(p, r, e, b):
    # the row loop `_ldl_solve` replaced, kept as its oracle
    x = np.array(b, dtype=float)
    rows = x.reshape(len(p), -1)
    for i in range(1, len(p)):
        rows[i] -= r[i - 1] * rows[i - 1]
    rows[-1] /= p[-1]
    for i in range(len(p) - 2, -1, -1):
        rows[i] -= e[i] * rows[i + 1]
        rows[i] /= p[i]
    return x


@pytest.mark.parametrize("k", [1, 2, 8193])
@pytest.mark.parametrize("columns", [None, 65], ids=["vector", "block"])
def test_ldl_solve_is_bitwise_the_row_loop(k, columns):
    rng = np.random.default_rng(k)
    d, e = 2.0 + rng.random(k), -rng.random(k - 1)
    p, r = operators._ldl(d, e)
    b = rng.standard_normal(k if columns is None else (k, columns))
    b[::3] = 0.0
    b[1::3] *= -0.0  # zeros of both signs
    got, want = operators._ldl_solve(p, r, e, b), _row_loop_ldl_solve(p, r, e, b)
    assert got.shape == b.shape
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


# ---------------------------------------------------------------- solving


def test_parabola_is_reproduced_exactly():
    # u = t(1-t) solves -u'' = 2 with u(0) = u(1) = 0; it lies in every
    # piecewise-linear space at the nodes, and two-point Gauss quadrature
    # integrates the quadratic load exactly, so nodal values are exact
    for n in (1, 2, 9, 31):
        u = solve_bvp(EllipticProblem(ZERO, lambda t: 2.0 * np.ones_like(t)), n)
        nodes = u.nodes
        assert np.allclose(u.values, nodes * (1.0 - nodes), atol=1e-13)


def test_solution_is_interior_grid_function():
    # the n interior values are the level's unknowns; the two ends are the
    # zero boundary, stored on the grid of n + 2 nodes
    problem = manufactured_sine(ONE)
    u = solve_bvp(problem, 5)
    assert u.node_count == 7
    assert u.values[0] == 0.0 and u.values[-1] == 0.0
    assert np.array_equal(u.values[1:-1], thomas_solve(assemble(problem, 5)))
    assert np.array_equal(u.nodes[1:-1], (1.0 / 6.0) * np.arange(1, 6))


def test_errors_shrink_at_second_order():
    problem = manufactured_sine(ONE)
    errors = [
        l2_error_vs_exact(solve_bvp(problem, n), problem.solution)
        for n in (7, 15, 31)
    ]
    assert errors[0] > errors[1] > errors[2]
    # halving h divides the L2 error by about four
    assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.3)
    assert errors[1] / errors[2] == pytest.approx(4.0, rel=0.3)


def test_rate_study_slope_is_second_order():
    study = rate_study(manufactured_sine(ONE), (7, 15, 31, 63))
    assert study.levels == (7, 15, 31, 63)
    assert len(study.errors) == 4
    low, high = fem.RATE_SLOPE_WINDOW
    assert low <= study.slope <= high


def test_rate_study_frozen_slope():
    # regression pin for the slope on the 4-level ladder with c = 1
    study = rate_study(manufactured_sine(ONE), (7, 15, 31, 63))
    assert study.slope == pytest.approx(-1.8927475517462562, abs=1e-9)


def test_rate_study_verdict_is_the_slope_window():
    # second order within RATE_SLOPE_WINDOW, ends included, passes; any other slope fails
    for slope, verdict in [(-2.0, True), (-2.2, True), (-1.8, True),
                           (-2.25, False), (-1.75, False), (-1.0, False)]:
        study = fem.RateStudy((8, 16, 32), (1.0, 0.25, 0.0625), slope)
        assert study.verdict is verdict
        assert study.rows("fem-rate")[-1] == ReportRow(
            "fem-rate", None, "rate_slope", slope, "pass" if verdict else "fail")


def test_rate_study_runs_past_the_conditioning_of_fine_levels():
    # ||Au - b|| / ||b|| grows like the condition number (about n^2) and
    # exceeds 1e-12 from n = 300 on; the backward error stays near 1e-16
    study = rate_study(manufactured_sine(ONE), (16, 32, 64, 128, 256, 512))
    assert study.levels[-1] == 512
    low, high = fem.RATE_SLOPE_WINDOW
    assert low <= study.slope <= high


def test_solve_bvp_refuses_a_perturbed_solution(monkeypatch):
    # a 1e-11 relative error, alternating in sign, is a backward error of
    # about 1e-11, far above what Thomas elimination leaves behind
    exact_solve = fem.thomas_solve

    def perturbed(system):
        u = exact_solve(system)
        return u * (1.0 + 1e-11 * (-1.0) ** np.arange(u.shape[0]))

    monkeypatch.setattr(fem, "thomas_solve", perturbed)
    with pytest.raises(NumericalError, match="backward error"):
        solve_bvp(manufactured_sine(ONE), 64)


@pytest.mark.parametrize("spoil", [lambda v: v * (1.0 + 1e-9), lambda v: np.nan],
                         ids=["relative-1e-9", "nan"])
def test_an_operator_solve_is_checked_column_by_column(monkeypatch, spoil):
    # one entry of one load column is spoiled, at the column's largest value: a
    # backward error of about 5e-10 in that column, or NaN, and the others exact
    exact_solve = fem.thomas_solve

    def spoiled(system):
        u = exact_solve(system)
        row = np.argmax(np.abs(u[:, 3]))
        u[row, 3] = spoil(u[row, 3])
        return u

    monkeypatch.setattr(fem, "thomas_solve", spoiled)
    with pytest.raises(NumericalError, match="backward error"):
        fem.fem_operator_matrix(lambda t: np.ones_like(t), 63, 9, 65)  # a potential of its own


def test_rate_study_needs_three_levels():
    with pytest.raises(GridCompatibilityError):
        rate_study(manufactured_sine(ONE), (7, 15))


def test_rate_study_needs_manufactured_solution():
    with pytest.raises(GridCompatibilityError):
        rate_study(EllipticProblem(ONE, ONE), (7, 15, 31))


def test_rate_study_refuses_exact_discrete_solutions():
    # zero data give the zero solution at every level; no rate fits through
    # a vanishing error curve
    problem = EllipticProblem(ZERO, ZERO, lambda t: np.zeros_like(t))
    with pytest.raises(NumericalError):
        rate_study(problem, (7, 15, 31))


# ------------------------------------------------------------ forward map


def test_fem_family_matches_forward_solves():
    family = make_fem_family(ONE, (3, 7), input_m=9)
    assert family.reference.output_m == 115  # reference level 16 * 7 + 1, plus its two ends
    f = from_callable(lambda t: np.sin(np.pi * t), 9)
    applied = family.operator_at(7).apply(f)
    source = lambda t: np.interp(t, f.nodes, f.values)  # noqa: E731
    direct = resample(solve_bvp(EllipticProblem(ONE, source), 7), 115)
    assert np.allclose(applied.values, direct.values, atol=1e-12)


def test_fem_family_approximates_reference():
    family = make_fem_family(ONE, (3, 7, 15), input_m=9)
    f = from_callable(lambda t: np.sin(np.pi * t), 9)
    ref = family.reference.apply(f)
    gaps = [norm(family.operator_at(n).apply(f) - ref) for n in family.levels]
    assert gaps[0] > gaps[1] > gaps[2]


def _dense_fem_operator(potential, n, input_m, output_m):
    # the dense prolongation fem_operator_matrix avoids, kept as the oracle;
    # its load columns are the input grid's hats at the Gauss points
    src = grid_nodes(input_m)
    system = assemble(EllipticProblem(potential, lambda t: interpolation_matrix(src, t)), n)
    return resample_matrix(n + 2, output_m)[:, 1:-1] @ thomas_solve(system)


@pytest.mark.parametrize("potential", [ONE, lambda t: 1.0 + np.cos(3.0 * t)], ids=["one", "cos"])
def test_fem_family_operators_equal_the_dense_products(potential):
    n_ref, levels = 1025, (8, 16, 33, 64)
    family = make_fem_family(potential, levels, input_m=65)
    for n, op in [(n_ref, family.reference)] + [(n, family.operator_at(n)) for n in levels]:
        want = _dense_fem_operator(potential, n, 65, n_ref + 2)
        assert np.max(np.abs(op.matrix - want)) <= 1e-13 * np.max(np.abs(want))


def test_fem_reference_prolongation_is_zero_padding():
    op = fem.fem_operator_matrix(ONE, 255, 33, 257)
    assert op.prolong is None  # the output grid is the padded solution's own
    got = op.matrix
    want = _dense_fem_operator(ONE, 255, 33, 257)
    assert np.array_equal(got[[0, -1]], np.zeros((2, 33)))
    assert np.array_equal(got[1:-1], want[1:-1])


# ------------------------------------------------------------ shared cores


def _cores(family):
    return [family.reference.core] + [family.operator_at(n).core for n in family.levels]


def test_families_of_one_potential_share_their_cores():
    potential = lambda t: 1.0 + t  # noqa: E731
    whole = make_fem_family(potential, (4, 8), input_m=9)
    ball = make_fem_family(potential, (4, 8), input_m=9, domain=operators.norm_ball(0.5))
    assert all(a is b for a, b in zip(_cores(whole), _cores(ball)))
    assert whole.reference.domain == operators.whole_space()
    assert ball.reference.domain == ball.operator_at(4).domain == operators.norm_ball(0.5)
    assert whole.operator_at(4).domain == operators.whole_space()


def test_a_core_is_shared_only_at_its_potential_level_and_input_grid():
    potential = lambda t: 1.0 + t  # noqa: E731
    core = fem.fem_operator_matrix(potential, 7, 9, 9).core
    twin = lambda t: 1.0 + t  # noqa: E731
    for other in (fem.fem_operator_matrix(twin, 7, 9, 9),
                  fem.fem_operator_matrix(potential, 7, 17, 9),
                  fem.fem_operator_matrix(potential, 15, 9, 17)):
        assert other.core is not core
    assert fem.fem_operator_matrix(potential, 7, 9, 33).core is core  # another output grid


def test_a_core_is_released_with_its_last_holder():
    potential = lambda t: 1.0 + t  # noqa: E731
    family = make_fem_family(potential, (4, 8), input_m=9)
    assert any(key[0] is potential for key in list(fem._CORES.keys()))
    del family
    gc.collect()
    assert not any(key[0] is potential for key in list(fem._CORES.keys()))


def test_an_unhashable_potential_is_solved_anew():
    class Table:  # eq without hash: instances are unhashable
        def __eq__(self, other):
            return isinstance(other, Table)

        def __call__(self, t):
            return np.ones_like(t)

    potential = Table()
    first = fem.fem_operator_matrix(potential, 7, 9, 9)
    second = fem.fem_operator_matrix(potential, 7, 9, 9)
    assert first.core is not second.core
    assert np.array_equal(first.core, second.core)
    assert np.array_equal(first.core, fem.fem_operator_matrix(ONE, 7, 9, 9).core)


def test_config_sequences_on_one_potential_share_the_reference_core():
    common = "kernel = fem\npotential = one\ninput_m = 17\ntruth = sine\n"
    ball = config.parse_config("[study]\nkind = inf-study\n[problem]\n" + common
                               + "domain = l2_ball\nradius = 0.05\n[schedule]\nlevels = 4, 8\n")
    pnorm = config.parse_config("[study]\nkind = eps-chain\n[problem]\n" + common
                                + "alpha = 0.05\n[schedule]\nlevels = 4, 8\n")
    first, second = config.build_sequence(ball), config.build_sequence(pnorm)
    assert first.family.reference.core is second.family.reference.core
    assert first.family.reference.domain != second.family.reference.domain
