"""Grid containers, trapezoid quadrature, discrete norms, and resampling."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gammareg import (
    GridCompatibilityError,
    GridFunction,
    NormTag,
    from_callable,
    grid_nodes,
    norm,
    resample,
    resample_matrix,
    trapezoid_weights,
)
from gammareg.grids import (
    interpolate_rows,
    interpolation_matrix,
    interpolation_weights,
)


# ---------------------------------------------------------------- nodes


def test_nodes_with_endpoints_hand_values():
    assert np.array_equal(grid_nodes(3), np.array([0.0, 0.5, 1.0]))


def test_too_few_nodes_rejected():
    with pytest.raises(GridCompatibilityError):
        grid_nodes(1)
    with pytest.raises(GridCompatibilityError):
        GridFunction(np.zeros(1))


# -------------------------------------------------------------- weights


def test_trapezoid_weights_hand_values():
    # m = 3 on [0,1]: h = 1/2, composite rule gives h*(1/2, 1, 1/2)
    assert np.allclose(trapezoid_weights(3), [0.25, 0.5, 0.25], rtol=0, atol=0)


def test_endpoint_weights_sum_to_interval_length():
    assert trapezoid_weights(65).sum() == pytest.approx(1.0, abs=1e-14)


def test_trapezoid_weights_are_shared_and_read_only():
    w = trapezoid_weights(17)
    assert trapezoid_weights(17) is w
    assert not w.flags.writeable


# ---------------------------------------------------------------- norms


def test_l2_norm_of_sine_is_sqrt_half_at_any_resolution():
    # trapezoid sums of sin^2(pi t) telescope exactly, independent of m
    for m in (9, 33, 2049):
        g = from_callable(lambda t: np.sin(np.pi * t), m)
        assert norm(g) == pytest.approx(np.sqrt(0.5), abs=1e-13)


def test_l2_norm_of_constant():
    g = GridFunction(np.full(17, -3.0))
    assert norm(g) == pytest.approx(3.0, abs=1e-14)


def test_sup_norm():
    g = GridFunction(np.array([1.0, -7.0, 3.0]))
    assert norm(g, NormTag.LINF) == 7.0


def test_h1_norm_of_unit_tent():
    # one interior node of value 1: slopes +/-2 over two cells of width 1/2,
    # so the squared broken-gradient norm is 4 and the norm is 2
    tent = GridFunction(np.array([0.0, 1.0, 0.0]))
    assert norm(tent, NormTag.H1_0) == pytest.approx(2.0, abs=1e-14)


def test_h1_norm_rejects_nonzero_boundary():
    for values in ([1.0, 1.0, 0.0], [0.0, 1.0, -1e-300]):
        with pytest.raises(GridCompatibilityError):
            norm(GridFunction(np.array(values)), NormTag.H1_0)


# ------------------------------------------------------------ container


def test_values_are_read_only():
    g = GridFunction(np.zeros(4))
    with pytest.raises(ValueError):
        g.values[0] = 1.0


def test_constructor_copies_input():
    raw = np.zeros(4)
    g = GridFunction(raw)
    raw[0] = 5.0
    assert g.values[0] == 0.0


def test_non_finite_values_rejected():
    with pytest.raises(GridCompatibilityError):
        GridFunction(np.array([0.0, np.nan]))
    with pytest.raises(GridCompatibilityError):
        GridFunction(np.array([0.0, np.inf]))


def test_spacing_and_nodes():
    g = GridFunction(np.zeros(5))
    assert g.spacing == pytest.approx(0.25, abs=0)
    assert np.array_equal(g.nodes, grid_nodes(5))


def test_same_grid():
    a = GridFunction(np.zeros(4))
    assert a.same_grid(GridFunction(np.ones(4)))
    assert not a.same_grid(GridFunction(np.ones(5)))


def test_from_callable_evaluates_at_nodes():
    g = from_callable(lambda t: t**2, 9)
    assert np.array_equal(g.values, grid_nodes(9) ** 2)


# ------------------------------------------------------------ resampling


def test_resample_exact_on_linear_functions():
    g = from_callable(lambda t: 3.0 * t - 1.0, 5)
    fine = resample(g, 17)
    assert np.allclose(fine.values, 3.0 * grid_nodes(17) - 1.0, atol=1e-14)


def test_resample_preserves_constants():
    g = GridFunction(np.full(7, 2.5))
    for target in (3, 20, 65):
        assert np.allclose(resample(g, target).values, 2.5, atol=1e-14)


def test_resample_matrix_agrees_with_resample():
    g = from_callable(np.cos, 9)
    mat = resample_matrix(9, 33)
    assert np.allclose(mat @ g.values, resample(g, 33).values, atol=1e-14)


def test_resample_roundtrip_on_coarse_profile():
    # coarse -> fine -> coarse is the identity for piecewise-linear data
    # when the coarse nodes are a subset of the fine ones (5 -> 17 -> 5)
    g = from_callable(lambda t: np.abs(t - 0.5), 5)
    back = resample(resample(g, 17), 5)
    assert np.allclose(back.values, g.values, atol=1e-14)


# ---------------------------------------------------- algebraic properties


@st.composite
def value_pairs(draw):
    m = draw(st.integers(min_value=2, max_value=30))
    box = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)
    a = draw(st.lists(box, min_size=m, max_size=m))
    b = draw(st.lists(box, min_size=m, max_size=m))
    return np.asarray(a), np.asarray(b)


@given(value_pairs())
def test_norm_triangle_inequality(pair):
    a, b = pair
    lhs = norm(GridFunction(a + b))
    assert lhs <= norm(GridFunction(a)) + norm(GridFunction(b)) + 1e-9


@given(
    st.lists(
        st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
        min_size=2,
        max_size=30,
    ),
    st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
)
def test_norm_absolute_homogeneity(values, scale):
    g = GridFunction(np.asarray(values))
    scaled = GridFunction(scale * g.values)
    assert norm(scaled) == pytest.approx(abs(scale) * norm(g), rel=1e-10, abs=1e-10)


@given(
    st.integers(min_value=2, max_value=30),
    st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=20),
    st.data(),
)
def test_interpolation_matrix_at_arbitrary_points(m, points, data):
    # nodes and both endpoints are always among the points
    nodes = grid_nodes(m)
    pts = np.concatenate((points, nodes, [0.0, 1.0]))
    box = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)
    v = np.array(data.draw(st.lists(box, min_size=m, max_size=m)))
    mat = interpolation_matrix(nodes, pts)
    assert mat.shape == (pts.size, m)
    assert np.allclose(mat.sum(axis=1), 1.0, rtol=0.0, atol=1e-14)
    assert np.allclose(mat @ v, np.interp(pts, nodes, v), rtol=0.0, atol=1e-11)


# The two-point applications against the dense interpolation matrix. The
# error bound is relative to |P| @ |M| (resp. |M| @ |P|), the size of the
# terms each entry sums, so cancelling entries do not inflate it.

def _source_nodes(m, interior):
    # interior-node sources: the FEM unknowns, extrapolated beyond them
    return grid_nodes(m + 2)[1:-1] if interior else grid_nodes(m)


_SIZES = st.integers(min_value=2, max_value=200)
# (source nodes, target nodes, interior-node source, columns, seed)
TWO_POINT_CASES = st.tuples(
    _SIZES, _SIZES, st.booleans(), st.integers(1, 5), st.integers(0, 2**32 - 1)
)


def _check_gather(src_m, dst_m, interior, cols, seed):
    src, pts = _source_nodes(src_m, interior), grid_nodes(dst_m)
    mat = np.random.default_rng(seed).standard_normal((src_m, cols))
    dense = interpolation_matrix(src, pts)
    got = interpolate_rows(interpolation_weights(src, pts), mat)
    assert np.all(np.abs(got - dense @ mat) <= 1e-14 * (np.abs(dense) @ np.abs(mat)))


@settings(deadline=None)
@given(TWO_POINT_CASES)
def test_interpolate_rows_equals_the_dense_product(case):
    # nested (e.g. 9 -> 33), non-nested, coarser and finer sources
    _check_gather(*case)


@pytest.mark.parametrize("src_m, dst_m", [(65, 1000), (65, 8193), (1000, 65), (9, 33)])
def test_two_point_applications_at_operator_sizes(src_m, dst_m):
    for interior in (False, True):
        _check_gather(src_m, dst_m, interior, 3, src_m + dst_m)


def test_interpolate_rows_of_a_vector_is_resampling():
    v = np.sin(3.0 * grid_nodes(17))
    got = interpolate_rows(interpolation_weights(grid_nodes(17), grid_nodes(40)), v)
    assert np.allclose(got, resample(GridFunction(v), 40).values, rtol=0.0, atol=1e-15)
