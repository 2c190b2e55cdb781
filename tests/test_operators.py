"""Integral-operator discretizations, operator families, and uniform gaps."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from gammareg import (
    DomainSpec,
    ForwardOperator,
    GridCompatibilityError,
    GridFunction,
    KernelSpec,
    NoiseSchedule,
    NormTag,
    NumericalError,
    TikhonovProblem,
    constant_kernel,
    from_callable,
    gaussian_kernel,
    grid_nodes,
    identity_operator,
    integral_matrix,
    make_constant_family,
    make_fem_family,
    make_quadrature_family,
    membership,
    noise_direction,
    norm,
    norm_ball,
    norm_ball_nonneg,
    resample,
    resample_matrix,
    separable_kernel,
    solve_linear_quadratic,
    standard_samples,
    trapezoid_weights,
    uniform_gap,
    whole_space,
)
from gammareg import operators
from gammareg.grids import interpolate_rows, interpolation_weights
from gammareg.operators import (
    _BLOCK_ROWS, _GRAM_ROWS, _nested_shift, _quadrature_matrix, _shift_gram, _tridiagonal_gram,
)
from gammareg.solvers import TikhonovObjective

from conftest import (
    ASYMMETRIC_KERNEL, FAMILY_CASES, LEVEL_CASES, LEVEL_IDS, dense_normal_equations, level_family,
)


# ------------------------------------------------------------- kernels


def test_constant_kernel_rows_are_kappa_times_weights():
    mat = integral_matrix(constant_kernel(3.0), 4)
    expected = 3.0 * np.tile(trapezoid_weights(4), (4, 1))
    assert np.allclose(mat, expected, atol=1e-15)


def test_constant_kernel_integrates_constants_exactly():
    # k(s,t) = 2: (Fx)(s) = 2 * integral of x; for x = 1 that is 2
    out = integral_matrix(constant_kernel(2.0), 5) @ np.ones(5)
    assert np.allclose(out, 2.0, atol=1e-15)


def test_separable_kernel_matrix_has_rank_one():
    mat = integral_matrix(separable_kernel(), 9)
    s = np.linalg.svd(mat, compute_uv=False)
    assert s[0] > 0.1
    assert s[1] < 1e-14


def test_separable_kernel_hand_value():
    # k(s,t) = s*t applied to x(t) = t: (Fx)(s) = s * integral t^2 dt.
    # Trapezoid at 3 nodes integrates t^2 to 3/8 (h^2/6 overshoot of 1/3).
    out = integral_matrix(separable_kernel(), 3) @ grid_nodes(3)
    assert np.allclose(out, 0.375 * grid_nodes(3), atol=1e-15)


def test_integral_matrix_integrates_over_the_first_kernel_argument():
    # (Fx)(t) = integral K(s, t) x(s) ds: with K(s, t) = t and x = 1 that is
    # t, where integrating over the second argument would give 1/2
    out = integral_matrix(KernelSpec(lambda s, t: t + 0.0 * s, "t"), 5) @ np.ones(5)
    assert np.allclose(out, grid_nodes(5), atol=1e-15)


def test_gaussian_kernel_is_symmetric():
    k = gaussian_kernel(0.2).evaluator
    s = np.array([0.3])
    t = np.array([0.8])
    assert k(s, t)[0] == pytest.approx(k(t, s)[0], abs=0)


def test_gaussian_kernel_peaks_on_diagonal():
    k = gaussian_kernel(0.5).evaluator
    d = np.array([0.4])
    assert k(d, d)[0] == pytest.approx(1.0, abs=0)
    assert k(d, np.array([0.9]))[0] < 1.0


def test_gaussian_kernel_needs_positive_width():
    # and one whose square is a float with a float reciprocal: sigma**2
    # overflows past 1.3e154, and 1/sigma**2 below 7.5e-155
    for sigma in (0.0, 1e160, 1e-160):
        with pytest.raises(GridCompatibilityError):
            gaussian_kernel(sigma)


# ------------------------------------------------------------ operators


def test_identity_operator_applies_as_identity():
    op = identity_operator(9)
    g = from_callable(np.sin, 9)
    assert np.array_equal(op.apply(g).values, g.values)


def test_operator_matrix_shape_validated():
    # the grid sizes are read off the matrix, which must be 2-D
    op = ForwardOperator(np.zeros((3, 4)))
    assert (op.output_m, op.input_m) == (3, 4)
    with pytest.raises(GridCompatibilityError):
        ForwardOperator(np.ones(3))


@pytest.mark.parametrize(
    "idx, theta", [([0, 2], [0.0, 0.5]), ([-1, 0], [0.0, 0.5]), ([0, 1], [0.0])],
    ids=["past-the-core", "negative", "unpaired"],
)
def test_prolongation_must_fit_the_core(idx, theta):
    # an interpolation row reads core rows idx and idx + 1
    ForwardOperator(np.ones((3, 2)), prolong=(np.array([0, 1]), np.array([0.0, 0.5])))
    with pytest.raises(GridCompatibilityError, match="prolongation"):
        ForwardOperator(np.ones((3, 2)), prolong=(np.array(idx), np.array(theta)))


def test_operator_matrix_is_read_only():
    op = identity_operator(3)
    with pytest.raises(ValueError):
        op.matrix[0, 0] = 2.0


def test_apply_resamples_mismatched_input():
    op = identity_operator(9)
    coarse = from_callable(lambda t: t, 5)
    assert np.allclose(op.apply(coarse).values, grid_nodes(9), atol=1e-14)


# -------------------------------------------------------------- domains


def test_membership_whole_space():
    assert membership(whole_space(), GridFunction(np.full(5, 100.0)))


def test_membership_l2_ball():
    ball = norm_ball(0.5)
    assert membership(ball, GridFunction(np.full(5, 0.5)))
    assert not membership(ball, GridFunction(np.full(5, 0.6)))


def test_membership_nonnegative_ball():
    dom = norm_ball_nonneg(1.0)
    assert membership(dom, GridFunction(np.full(5, 0.1)))
    assert not membership(dom, GridFunction(np.array([0.1, -0.1, 0.1, 0.1, 0.1])))


def test_ball_needs_positive_radius():
    with pytest.raises(GridCompatibilityError):
        norm_ball(0.0)


def test_domain_refuses_what_no_projection_handles():
    # balls are measured in L2 or the sup norm, and a nonnegative domain
    # is the nonnegative part of a finite ball
    with pytest.raises(GridCompatibilityError):
        norm_ball(1.0, NormTag.H1_0)
    with pytest.raises(GridCompatibilityError):
        DomainSpec(tag=NormTag.H1_0)
    with pytest.raises(GridCompatibilityError):
        DomainSpec(nonneg=True)
    assert norm_ball_nonneg(1.0, NormTag.LINF) == DomainSpec(1.0, NormTag.LINF, nonneg=True)


# -------------------------------------------------------------- families


def test_quadrature_family_levels_and_reference_grid():
    family = make_quadrature_family(gaussian_kernel(0.2), (9, 17), 129, input_m=17)
    assert family.levels == (9, 17)
    assert family.reference.output_m == 129
    assert family.operator_at(9).output_m == 129
    with pytest.raises(GridCompatibilityError):
        family.operator_at(10)


def test_quadrature_family_gap_decays_with_level():
    family = make_quadrature_family(gaussian_kernel(0.2), (5, 9, 17, 33), 129, input_m=17)
    samples = standard_samples(17)
    gaps = [uniform_gap(family, n, samples) for n in family.levels]
    assert all(g > 0 for g in gaps)
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    # trapezoid quadrature of a smooth kernel is second order: each level
    # roughly doubles the node count, so gaps shrink about fourfold
    assert gaps[-1] < gaps[0] / 20.0


def _exp_plus_offset(d):
    return np.exp(d) + d


# a stationary kernel whose profile is not even: k(s - t) read as k(t - s) is caught
EXP_PLUS_OFFSET = KernelSpec(
    lambda s, t: _exp_plus_offset(s - t), "exp-plus-offset", _exp_plus_offset
)
KERNELS = [gaussian_kernel(0.2), separable_kernel(), constant_kernel(1.5), ASYMMETRIC_KERNEL]


def _assert_rel_close(got, want, rtol):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.label)
@pytest.mark.parametrize("m_ref, levels", FAMILY_CASES)
def test_family_operators_equal_the_dense_products(kernel, m_ref, levels):
    # the dense formulas the family assembly avoids, kept here as the oracle;
    # the oracle's kernel has no profile, so it evaluates K at every node pair
    family = make_quadrature_family(kernel, levels, m_ref, input_m=65)
    pointwise = KernelSpec(kernel.evaluator, kernel.label)
    ref = integral_matrix(pointwise, m_ref) @ resample_matrix(65, m_ref)
    _assert_rel_close(family.reference.matrix, ref, 1e-13)
    for n in levels:
        dense = resample_matrix(n, m_ref) @ integral_matrix(pointwise, n) @ resample_matrix(65, n)
        _assert_rel_close(family.operator_at(n).matrix, dense, 1e-13)


@pytest.mark.parametrize("kernel", KERNELS + [EXP_PLUS_OFFSET], ids=lambda k: k.label)
@pytest.mark.parametrize(
    "quad_m, input_m",
    [(9, 65), (100, 7), (65, 65), (257, 17), (1025, 5), (33, 2), (17, 3), (301, 101)],
)
def test_quadrature_matrix_equals_the_dense_product(kernel, quad_m, input_m):
    # quadrature coarser than the input, grids that do not nest, and nested
    # grids, quad_m - 1 = r (input_m - 1): r = 1, 16 and 256, grids with end
    # columns only or one interior column, and r = 3, whose nodes round; the
    # oracle's kernel has no profile, so it evaluates K at every node pair
    pointwise = KernelSpec(kernel.evaluator, kernel.label)
    dense = integral_matrix(pointwise, quad_m) @ resample_matrix(input_m, quad_m)
    _assert_rel_close(_quadrature_matrix(kernel, quad_m, input_m), dense, 1e-13)


def _hand_scatter_quadrature_matrix(kernel, quad_m, input_m):
    # `_quadrature_matrix` as it was before `interpolation_matrix` gave it its
    # weights, kept as its oracle: the block's weights scattered by hand, the
    # nested correlations' hats formed with np.where
    s, w = grid_nodes(quad_m), trapezoid_weights(quad_m)
    idx, theta = interpolation_weights(grid_nodes(input_m), s)
    if kernel.profile is not None:
        k = np.asarray(kernel.profile(np.concatenate((-s[:0:-1], s))), dtype=float)
        if _nested_shift(kernel, quad_m, input_m) is not None:
            r = (quad_m - 1) // (input_m - 1)

            def correlation(i, js):
                hat = np.where(idx[js] == i, 1.0 - theta[js], 0.0)
                hat += np.where(idx[js] + 1 == i, theta[js], 0.0)
                return np.correlate(k, w[js] * hat, "valid")

            out = np.empty((quad_m, input_m))
            out[:, 0] = correlation(0, slice(0, r + 1))[quad_m - 1 :: -1]
            out[:, -1] = correlation(input_m - 1, slice(quad_m - 1 - r, quad_m))[::-1][:quad_m]
            if input_m > 2:
                g = correlation(1, slice(0, 2 * r + 1))
                out[:, 1:-1] = sliding_window_view(g, r * (input_m - 3) + 1)[::-1, ::r]
            return out
        windows = sliding_window_view(k[::-1].copy(), quad_m)
    at = np.zeros((input_m, quad_m))
    for start in range(0, quad_m, _BLOCK_ROWS):
        js = slice(start, min(start + _BLOCK_ROWS, quad_m))
        first = idx[js.start]
        cols = np.arange(js.stop - js.start)
        p = np.zeros((idx[js.stop - 1] + 2 - first, cols.size))
        p[idx[js] - first, cols] = w[js] * (1.0 - theta[js])
        p[idx[js] + 1 - first, cols] += w[js] * theta[js]
        if kernel.profile is None:
            g = np.asarray(kernel.evaluator(s[js, None], s[None, :]), dtype=float)
        else:
            g = windows[quad_m - 1 - js.start - cols]
        at[first : first + p.shape[0]] += p @ g
    return at.T


@pytest.mark.parametrize(
    "kernel", [gaussian_kernel(0.2), separable_kernel(), constant_kernel(1.5)],
    ids=lambda k: k.label,
)
@pytest.mark.parametrize(
    "quad_m, input_m",
    [(8193, 513), (4097, 257), (8193, 500), (1000, 65), (301, 101), (100, 3), (100, 7),
     (9, 65), (65, 65), (1025, 5), (33, 2), (17, 3)],
)
def test_quadrature_matrix_is_the_hand_scatter_to_the_bit(kernel, quad_m, input_m):
    # the separable kernel takes the evaluator's blocks; the stationary ones take
    # the window blocks, or the nested correlations where quad_m - 1 = r (input_m - 1)
    got = _quadrature_matrix(kernel, quad_m, input_m)
    want = _hand_scatter_quadrature_matrix(kernel, quad_m, input_m)
    assert got.flags.c_contiguous == want.flags.c_contiguous
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


# A stationary kernel K(s, t) = k(s - t) is evaluated once per node offset.
# On 2^k + 1 grids the offsets are the node differences exactly; elsewhere
# they may differ from them by an ulp, and so may the kernel values.
STATIONARY = [gaussian_kernel(0.2), constant_kernel(1.5)]


@pytest.mark.parametrize("kernel", STATIONARY, ids=lambda k: k.label)
@pytest.mark.parametrize("quad_m, input_m", [(257, 17), (2049, 65), (8193, 513)])
def test_stationary_kernel_matrix_is_the_pointwise_one_to_the_bit(kernel, quad_m, input_m):
    # these grids nest, so the profile's matrix comes from correlations that
    # sum in another order than the pointwise block loop: a gaussian agrees to
    # 1e-14, and a constant kernel, whose dyadic sums are exact, to the bit
    pointwise = _quadrature_matrix(KernelSpec(kernel.evaluator, kernel.label), quad_m, input_m)
    got = _quadrature_matrix(kernel, quad_m, input_m)
    if kernel.label.startswith("constant"):
        assert got.tobytes() == pointwise.tobytes()
    else:
        _assert_rel_close(got, pointwise, 1e-14)


@pytest.mark.parametrize("kernel", STATIONARY, ids=lambda k: k.label)
@pytest.mark.parametrize("quad_m, input_m", [(1000, 65), (100, 7)])
def test_stationary_kernel_matrix_is_the_pointwise_one_off_dyadic_grids(kernel, quad_m, input_m):
    pointwise = _quadrature_matrix(KernelSpec(kernel.evaluator, kernel.label), quad_m, input_m)
    _assert_rel_close(_quadrature_matrix(kernel, quad_m, input_m), pointwise, 1e-14)


def test_stationary_kernel_integrates_over_the_first_kernel_argument():
    # K(s, t) = k(s - t), k(d) = exp(d) + d: with x = 1, (Fx)(t) is the
    # integral of exp(s - t) + s - t over s, (e - 1) exp(-t) + 1/2 - t; read
    # as k(t - s) it would be (1 - 1/e) exp(t) + t - 1/2
    t = grid_nodes(257)
    out = integral_matrix(EXP_PLUS_OFFSET, 257) @ np.ones(257)
    # the trapezoid error is h^2 / 12 times the integrand's derivative jump, below 1e-5
    assert np.allclose(out, (np.e - 1.0) * np.exp(-t) + 0.5 - t, rtol=0.0, atol=1e-5)


@pytest.mark.parametrize(
    "evaluator, profile",
    [
        (gaussian_kernel(0.2).evaluator, lambda d: np.exp(-d)),
        (lambda s, t: np.exp(s - t), lambda d: np.exp(-d)),  # k(t - s), the sign flipped
        (lambda s, t: np.exp(s - t), lambda d: np.exp(d) * (1.0 + 1e-9)),
        (constant_kernel(1.5).evaluator, lambda d: 1.5),  # a scalar, not elementwise
        (lambda s, t: 0.0 * (s - t), lambda d: np.where(d == 0.0, np.nan, 0.0)),
    ],
    ids=["other-formula", "flipped", "1e-9-off", "scalar", "nan"],
)
def test_a_profile_that_disagrees_with_its_kernel_is_refused(evaluator, profile):
    with pytest.raises(GridCompatibilityError, match="profile"):
        KernelSpec(evaluator, "disagreeing", profile)


def test_kept_operator_matrices_are_c_contiguous():
    quad = make_quadrature_family(gaussian_kernel(0.2), (9, 33), 129, input_m=17)
    fem = make_fem_family(lambda t: np.ones_like(t), (4, 8), input_m=17)
    ops = [quad.reference, fem.reference, identity_operator(5)]
    ops += [family.operator_at(n) for family in (quad, fem) for n in family.levels]
    for op in ops:
        assert op.core.flags.c_contiguous and op.matrix.flags.c_contiguous


@pytest.mark.parametrize("kind, m_ref, levels", LEVEL_CASES, ids=LEVEL_IDS)
def test_factored_levels_equal_their_dense_formulas(kind, m_ref, levels):
    # a level keeps C and P; the oracle forms the dense P C and applies the
    # formulas the factored path avoids
    family = level_family(kind, m_ref, levels)
    rng = np.random.default_rng(11)
    for n in levels:
        op = family.operator_at(n)
        assert op.output_m == m_ref
        a, w = op.matrix, trapezoid_weights(m_ref)
        x, y = rng.standard_normal(op.input_m), rng.standard_normal(m_ref)
        _assert_rel_close(op.forward(x), a @ x, 1e-13)
        _assert_rel_close(op.adjoint(w * y), a.T @ (w * y), 1e-13)
        problem = TikhonovProblem(op, GridFunction(y), alpha=0.1)
        r = a @ x - y
        omega = problem.penalty.evaluate(GridFunction(x))
        value = 0.5 * float(r * r @ w) + 0.1 * omega
        assert abs(problem.value_at(x) - value) <= 1e-13 * value
        grad = a.T @ (w * r) + 0.1 * problem.penalty.coordinate_gradient(GridFunction(x))
        objective = TikhonovObjective(problem)
        _assert_rel_close(objective.coordinate_gradient(x), grad, 1e-13)
        exact = np.linalg.solve(*dense_normal_equations(problem))
        _assert_rel_close(solve_linear_quadratic(problem).minimizer.values, exact, 1e-12)


@pytest.mark.parametrize("kind, m_ref, levels", LEVEL_CASES, ids=LEVEL_IDS)
def test_prolonged_forward_is_interpolate_rows_of_the_core_product_to_the_bit(kind, m_ref, levels):
    # forward takes the rows idx + 1 without a shifted copy of idx; the result must
    # keep interpolate_rows' arithmetic, (1 - theta) v[idx] + theta v[idx + 1]
    family = level_family(kind, m_ref, levels)
    rng = np.random.default_rng(17)
    for n in levels:
        op = family.operator_at(n)
        if op.prolong is None:
            continue
        idx, theta = op.prolong
        for x in (rng.standard_normal(op.input_m), rng.standard_normal((op.input_m, 3))):
            v = op.core @ x
            t = theta.reshape(theta.shape + (1,) * (v.ndim - 1))
            got = op.forward(x)
            assert np.array_equal(got, interpolate_rows(op.prolong, v))
            assert np.array_equal(got, v[idx] * (1.0 - t) + v[idx + 1] * t)


def test_reference_must_be_at_least_as_fine_as_levels():
    with pytest.raises(GridCompatibilityError):
        make_quadrature_family(gaussian_kernel(0.2), (9, 17), 15, input_m=9)


def test_constant_family_has_zero_gap():
    op = identity_operator(9)
    family = make_constant_family(op, (2, 4, 8))
    samples = standard_samples(9)
    for n in family.levels:
        assert uniform_gap(family, n, samples) == 0.0
        assert family.operator_at(n) is op


def test_family_levels_must_increase():
    with pytest.raises(GridCompatibilityError):
        make_constant_family(identity_operator(5), (4, 4, 8))


def test_shrinking_domains_radius_formula():
    family = make_quadrature_family(
        gaussian_kernel(0.2),
        (2, 4, 8),
        65,
        input_m=9,
        domain=norm_ball(1.0),
        shrinking_domains=True,
    )
    for n in family.levels:
        assert family.operator_at(n).domain.radius == pytest.approx(1.0 - 1.0 / n, abs=1e-15)
    # level domains are strict subsets: a point near the reference boundary
    # is feasible for the limit problem but not for any level
    edge = standard_samples(9, rho=1.0)[0]  # norm 0.999
    assert membership(family.reference.domain, edge)
    assert not membership(family.operator_at(8).domain, edge)


def test_shrinking_domains_need_a_ball():
    with pytest.raises(GridCompatibilityError):
        make_quadrature_family(
            gaussian_kernel(0.2), (2, 4), 65, input_m=9, shrinking_domains=True
        )


def test_uniform_gap_rejects_samples_outside_domain():
    family = make_quadrature_family(
        gaussian_kernel(0.2),
        (2, 4),
        65,
        input_m=9,
        domain=norm_ball(1.0),
        shrinking_domains=True,
    )
    outside = standard_samples(9, rho=1.0)[:1]  # norm 0.999 > 1 - 1/2
    with pytest.raises(GridCompatibilityError):
        uniform_gap(family, 2, outside)


def test_uniform_gap_needs_samples():
    family = make_constant_family(identity_operator(5), (2, 4))
    with pytest.raises(GridCompatibilityError):
        uniform_gap(family, 2, [])


@pytest.mark.parametrize("kind, m_ref, levels", LEVEL_CASES, ids=LEVEL_IDS)
def test_uniform_gap_is_the_largest_sample_gap(kind, m_ref, levels):
    # the per-sample formula the block product replaces, as the oracle; the gap
    # is a difference of nearly equal vectors, so the bound is on the scale of F x
    family = level_family(kind, m_ref, levels)
    rng = np.random.default_rng(5)
    samples = standard_samples(65) + [GridFunction(rng.standard_normal(65)) for _ in range(4)]
    samples.append(GridFunction(rng.standard_normal(33)))  # off the input grid: resampled
    scale = max(norm(family.reference.apply(x)) for x in samples)
    for n in levels:
        op = family.operator_at(n)
        want = max(norm(op.apply(x) - family.reference.apply(x)) for x in samples)
        assert abs(uniform_gap(family, n, samples) - want) <= 1e-13 * scale


def test_uniform_gap_resamples_samples_off_the_input_grid():
    family = level_family("quadrature", 257, (9, 17))
    coarse = GridFunction(np.random.default_rng(3).standard_normal(33))
    assert uniform_gap(family, 9, [coarse]) == uniform_gap(family, 9, [resample(coarse, 65)])
    assert uniform_gap(family, 9, [coarse]) > 0.0


def test_uniform_gap_judges_a_sample_on_the_input_grid():
    # 1 at the even nodes of 33, 0 at the odd ones, L2 norm 0.9: on the 17 input
    # nodes, where F_9 and F evaluate it, it is constant with norm 1.27 > 1
    family = make_quadrature_family(
        gaussian_kernel(0.2), (9, 17), 65, input_m=17, domain=norm_ball(1.0)
    )
    comb = GridFunction((np.arange(33) % 2 == 0).astype(float))
    comb = comb * (0.9 / norm(comb))
    assert norm(resample(comb, 17)) > 1.2
    with pytest.raises(GridCompatibilityError, match=r"^sample 0 lies outside dom\(F_9\)$"):
        uniform_gap(family, 9, [comb])


def test_uniform_gap_names_the_first_sample_outside_the_domain():
    family = make_quadrature_family(
        gaussian_kernel(0.2), (2, 4), 65, input_m=9, domain=norm_ball(1.0),
        shrinking_domains=True,
    )
    inside, outside = standard_samples(9, rho=0.5)[0], standard_samples(9, rho=1.0)[0]
    with pytest.raises(GridCompatibilityError, match=r"^sample 2 lies outside dom\(F_4\)$"):
        uniform_gap(family, 4, [inside, inside, outside, outside])


# --------------------------------------------------------------- samples


def test_standard_samples_norms_follow_scales():
    samples = standard_samples(65, rho=2.0)
    assert len(samples) == 8
    scales = (0.999, 0.9, 0.75, 0.6, 0.5, 0.4, 0.3, 0.2)
    for g, scale in zip(samples, scales):
        assert norm(g) == pytest.approx(2.0 * scale, rel=1e-12)


def test_standard_samples_respect_sup_norm_tag():
    samples = standard_samples(33, rho=1.0, tag=NormTag.LINF)
    for g in samples:
        assert norm(g, NormTag.LINF) <= 1.0 + 1e-12


# ----------------------------------------------------------- noise shapes


def test_oscillatory_direction_has_unit_norm():
    d = noise_direction(NoiseSchedule("power"), 65, 4)
    assert norm(d) == pytest.approx(1.0, abs=1e-12)


def test_constant_direction_has_unit_norm():
    d = noise_direction(NoiseSchedule("power", direction="constant"), 65, 4)
    assert norm(d) == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(d.values, d.values[0])


def test_seeded_direction_is_reproducible_per_level():
    sched = NoiseSchedule("seeded", seed=11)
    a = noise_direction(sched, 65, 4)
    b = noise_direction(sched, 65, 4)
    c = noise_direction(sched, 65, 8)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
    assert norm(a) == pytest.approx(1.0, abs=1e-12)


def test_seeded_direction_depends_on_seed():
    a = noise_direction(NoiseSchedule("seeded", seed=1), 65, 4)
    b = noise_direction(NoiseSchedule("seeded", seed=2), 65, 4)
    assert not np.array_equal(a.values, b.values)


# ------------------------------------------------------------- properties


@given(st.integers(min_value=2, max_value=40), st.floats(min_value=0.1, max_value=5.0))
def test_uniform_gap_is_zero_for_constant_families(m, rho):
    family = make_constant_family(identity_operator(m), (2, 4))
    assert uniform_gap(family, 2, standard_samples(m, rho=rho)) == 0.0


@given(st.floats(min_value=0.05, max_value=2.0))
def test_gaussian_kernel_bounded_by_one(sigma):
    k = gaussian_kernel(sigma).evaluator
    s = np.linspace(0.0, 1.0, 7)
    vals = k(s[None, :], s[:, None])
    assert np.all(vals <= 1.0 + 1e-15)
    assert np.all(vals > 0.0)


# --------------------------------------------------------- assembly memory
#
# Peak traced memory of assembling a whole family (reference and every
# level) may exceed the bytes of the operators it keeps only by scratch
# that does not grow with m_ref squared. Numpy reports its buffers to
# tracemalloc. A dense m_ref x m_ref kernel matrix or m_ref x n_ref
# prolongation at 4097 is 134 MB on its own.

F64 = 8  # bytes


def _assemble_traced(build):
    tracemalloc.start()
    try:
        family = build()
        ops = [family.reference] + [family.operator_at(n) for n in family.levels]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, sum(op.nbytes for op in ops), max(op.nbytes for op in ops)


def test_quadrature_family_memory_follows_kept_operators():
    m_ref = 4097
    peak, kept, largest = _assemble_traced(
        lambda: make_quadrature_family(gaussian_kernel(0.2), (9, 33, 129, 513), m_ref, input_m=65)
    )
    # Kernel values at one block of quadrature nodes, with up to five live
    # arrays of that size (the previous block, the kernel expression's
    # temporaries), and two operator-sized arrays besides the kept one (the
    # transposed accumulator of a level that does not nest and its C-ordered copy).
    bound = kept + 6 * _BLOCK_ROWS * m_ref * F64 + 2 * largest
    assert bound < m_ref * m_ref * F64 / 2  # a dense kernel matrix cannot fit
    assert peak < bound, f"peak {peak / 1e6:.1f} MB, bound {bound / 1e6:.1f} MB"


def test_fem_family_memory_follows_kept_operators():
    n_ref = 4097  # 16 * 256 + 1
    peak, kept, largest = _assemble_traced(
        lambda: make_fem_family(lambda t: np.ones_like(t), (8, 32, 128, 256), input_m=65)
    )
    # The reference level carries n_ref x input_m arrays only: two Gauss-point
    # interpolations, load terms, the Thomas right side and solution, the
    # residual check's two, the padded solution and the two gather halves;
    # a dozen of them at most.
    bound = kept + 12 * largest
    assert bound < n_ref * n_ref * F64 / 2  # a dense prolongation cannot fit
    assert peak < bound, f"peak {peak / 1e6:.1f} MB, bound {bound / 1e6:.1f} MB"


def test_a_level_build_forms_no_dense_level():
    # level 513 keeps a 513 x 513 core and two weights per reference node
    family = make_quadrature_family(gaussian_kernel(0.2), (513,), 8193, input_m=513)
    tracemalloc.start()
    try:
        op = family.operator_at(513)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    dense = 8193 * 513 * F64  # 33.6 MB
    assert op.nbytes < dense / 10
    assert peak < dense, f"peak {peak / 1e6:.1f} MB, one dense level {dense / 1e6:.1f} MB"


def test_the_public_constructor_copies_the_callers_array():
    # the read-only flag lands on the operator's copy, never on the caller's array
    a = np.arange(12.0).reshape(4, 3)
    op = ForwardOperator(a)
    assert a.flags.writeable and not op.core.flags.writeable
    a[0, 0] = 99.0
    assert op.core[0, 0] == 0.0


def test_a_quadrature_reference_keeps_its_core_without_a_copy():
    m_ref = 4097
    tracemalloc.start()
    try:
        op = make_quadrature_family(gaussian_kernel(0.2), (9,), m_ref, input_m=257).reference
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    bound = op.core.nbytes + _BLOCK_ROWS * m_ref * F64
    assert bound < 2 * op.core.nbytes  # a copy of the core cannot fit
    assert peak < bound, f"peak {peak / 1e6:.2f} MB, bound {bound / 1e6:.2f} MB"


def test_nested_stationary_quadrature_takes_o_quad_m_scratch():
    # 4097 - 1 = 16 (257 - 1): the matrix is built in place from correlations
    # of the kernel's offset vector, with no kernel block or transposed copy
    tracemalloc.start()
    try:
        core = _quadrature_matrix(gaussian_kernel(0.2), 4097, 257)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    bound = core.nbytes + 16 * 4097 * F64
    assert core.flags.c_contiguous
    assert peak < bound, f"peak {peak / 1e6:.2f} MB, bound {bound / 1e6:.2f} MB"


# ------------------------------------------------------------------ Gram


@settings(deadline=None, max_examples=25)
@given(
    st.integers(min_value=2, max_value=3 * _GRAM_ROWS),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=0, max_value=10_000),
)
def test_gram_matches_the_dense_weighted_product(output_m, input_m, seed):
    a = np.random.default_rng(seed).standard_normal((output_m, input_m))
    op = ForwardOperator(a)
    w = trapezoid_weights(output_m)
    dense = a.T @ (w[:, None] * a)
    gram = op.gram()
    assert np.max(np.abs(gram - dense)) <= 1e-14 * np.max(np.abs(dense))
    assert np.array_equal(gram, gram.T)
    assert not gram.flags.writeable
    assert op.gram() is gram


@settings(deadline=None, max_examples=25)
@given(
    st.integers(min_value=2, max_value=3 * _GRAM_ROWS),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=0, max_value=10_000),
)
def test_tridiagonal_gram_matches_the_dense_product(n, cols, seed):
    # rows on both sides of a block boundary meet in the off-diagonal terms
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((n, cols))
    e = rng.uniform(-1.0, 1.0, n - 1)
    d = 2.0 + rng.uniform(0.0, 1.0, n)  # diagonally dominant, so positive definite
    t = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    dense = c.T @ t @ c
    gram = _tridiagonal_gram(c, d, e)
    assert np.max(np.abs(gram - dense)) <= 1e-13 * np.max(np.abs(dense))
    assert np.array_equal(gram, gram.T)


@pytest.mark.parametrize(
    "d, e", [((1.0, 1.0), (2.0,)), ((0.0, 1.0), (0.0,)), ((1.0, np.nan), (0.0,))],
    ids=["indefinite", "zero-pivot", "nan"],
)
def test_gram_weight_must_be_positive_definite(d, e):
    with pytest.raises(GridCompatibilityError, match="positive definite"):
        _tridiagonal_gram(np.ones((2, 3)), np.array(d), np.array(e))


def test_a_gram_off_by_1e_6_is_refused_where_it_is_formed():
    # both solvers trust the kept Gram, and the closed form's gradient reads
    # it, so gram() checks G 1 against A^T (W (A 1)) whichever recipe forms
    # it: the nested reference takes the shift recipe, the prolonged level the
    # block recipe, and each is refused only when its own recipe is off
    for recipe in ("_shift_gram", "_tridiagonal_gram"):
        family = make_quadrature_family(gaussian_kernel(0.2), (17,), 257, input_m=17)
        reference, level = family.reference, family.operator_at(17)
        mutated, intact = (reference, level) if recipe == "_shift_gram" else (level, reference)
        formed = getattr(operators, recipe)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(operators, recipe, lambda *args: formed(*args) * (1.0 + 1e-6))
            with pytest.raises(NumericalError, match="Gram check"):
                mutated.gram()
            intact.gram()


def test_an_operator_that_annihilates_constants_passes_the_gram_check():
    # A 1 = 0, so A^T W A 1 holds no scale; the check measures against ||G||_inf
    op = ForwardOperator(np.diff(np.eye(9), axis=0))
    w = trapezoid_weights(8)
    dense = op.core.T @ (w[:, None] * op.core)
    assert np.max(np.abs(op.gram() - dense)) <= 1e-15


# nested levels (n - 1 divides m_ref - 1), levels that do not nest, and n = m_ref
@pytest.mark.parametrize("m_ref, levels", [(8193, (9, 513)), (1000, (7, 100, 1000))])
def test_level_gram_matches_the_dense_weighted_product(m_ref, levels):
    family = make_quadrature_family(gaussian_kernel(0.2), levels, m_ref, input_m=17)
    w = trapezoid_weights(m_ref)
    for n in levels:
        op = family.operator_at(n)
        gram = op.gram()
        dense = op.matrix.T @ (w[:, None] * op.matrix)
        assert np.max(np.abs(gram - dense)) <= 1e-14 * np.max(np.abs(dense))
        assert np.array_equal(gram, gram.T)
        assert not gram.flags.writeable
        assert op.gram() is gram


def test_reference_gram_is_the_row_block_formula_to_the_bit(monkeypatch):
    # with a diagonal weight the zero off-diagonal adds nothing, not even a
    # rounding: the Gram is the row-block sum of (sqrt(w) a)^T (sqrt(w) a). The
    # weights are the pivots, so no L D L^T is formed. A quadrature reference on
    # grids that do not nest, and a FEM reference, take this recipe.
    def no_ldl(d, e):
        raise AssertionError("a diagonal weight needs no L D L^T")

    monkeypatch.setattr(operators, "_ldl", no_ldl)
    refs = [
        make_quadrature_family(gaussian_kernel(0.2), (9,), 2 * _GRAM_ROWS + 501, 33).reference,
        make_fem_family(lambda t: 1.0 + np.cos(3.0 * t), (4, 128), input_m=33).reference,
    ]
    for op in refs:
        sqrt_w = np.sqrt(trapezoid_weights(op.output_m))
        want = np.zeros((op.input_m, op.input_m))
        for start in range(0, op.output_m, _GRAM_ROWS):
            rows = slice(start, start + _GRAM_ROWS)
            block = sqrt_w[rows, None] * op.matrix[rows]
            want += block.T @ block
        assert op.gram().tobytes() == want.tobytes()


# Grids that nest, quad_m - 1 = r (input_m - 1): those of FAMILY_CASES on 65
# input nodes, the bench's, one whose nodes are not dyadic (r = 3), r = 1, and
# cores with one interior column or none.
NESTED_GRIDS = sorted(
    {(q, 65) for m_ref, levels in FAMILY_CASES for q in (m_ref, *levels) if (q - 1) % 64 == 0}
) + [(8193, 513), (4097, 257), (2049, 65), (301, 101), (129, 129), (17, 3), (33, 2)]


@pytest.mark.parametrize("kernel", [gaussian_kernel(0.2), EXP_PLUS_OFFSET], ids=lambda k: k.label)
@pytest.mark.parametrize("quad_m, input_m", NESTED_GRIDS, ids=lambda g: str(g))
def test_shift_gram_of_a_nested_reference_is_the_block_gram(kernel, quad_m, input_m):
    op = make_quadrature_family(kernel, (9,), quad_m, input_m).reference
    c, r = op.core, _nested_shift(kernel, quad_m, input_m)
    # every interior column is the one before it shifted down r rows, to the bit
    assert r * (input_m - 1) == quad_m - 1
    assert np.array_equal(c[r:, 2:-1], c[:-r, 1:-2])
    w = trapezoid_weights(quad_m)
    want = _tridiagonal_gram(c, w, np.zeros(quad_m - 1))
    gram = op.gram()
    assert gram.tobytes() == _shift_gram(c, w, r).tobytes()
    assert np.max(np.abs(gram - want)) <= 1e-13 * np.max(np.abs(want))
    assert np.array_equal(gram, gram.T)
    # a recipe that reads the rows one further apart than the core shifts them
    # fails, where there are interior columns to shift (input_m > 3)
    if input_m > 3:
        mutant = _shift_gram(c, w, r + 1)
        assert np.max(np.abs(mutant - want)) > 1e-13 * np.max(np.abs(want))


def test_gram_memory_is_the_gram_plus_one_block():
    # 4097 - 1 = 16 (257 - 1) nests and takes the shift recipe, 256 does not
    # and takes the block recipe
    for input_m in (257, 256):
        op = make_quadrature_family(gaussian_kernel(0.2), (9,), 4097, input_m=input_m).reference
        tracemalloc.start()
        try:
            op.gram()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the kept Gram, one weighted block of rows, and the block's product,
        # which is input_m x input_m and so no larger than the block here; the
        # shift recipe takes less, a few input_m x input_m arrays
        bound = op.input_m**2 * F64 + 2 * _GRAM_ROWS * op.input_m * F64
        assert bound < op.matrix.nbytes  # a weighted copy of the operator cannot fit
        assert peak < bound, f"peak {peak / 1e6:.2f} MB, bound {bound / 1e6:.2f} MB"
