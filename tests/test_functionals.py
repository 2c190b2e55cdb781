"""Epsilon minimizers, penalties, Tikhonov functionals, approximating sequences."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gammareg import (
    AlphaSchedule,
    ApproxSequence,
    GridCompatibilityError,
    GridFunction,
    NoiseSchedule,
    TikhonovProblem,
    UnsupportedPenaltyError,
    eval_T,
    eval_Tn,
    from_callable,
    gaussian_kernel,
    grid_nodes,
    half_sq_l2,
    identity_operator,
    is_eps_minimizer,
    linf_penalty,
    make_approx_sequence,
    make_constant_family,
    make_quadrature_family,
    norm,
    norm_ball,
    p_power_norm,
    resample,
    shifted_half_sq,
    NormTag,
    PenaltySpec,
)

# ------------------------------------------------------ epsilon minimizers


_EPS_TABLE = [
    # finite inf: the bar is inf + eps
    (0.5, 0.0, 0.5, True),
    (0.6, 0.0, 0.5, False),
    # the -1/eps floor keeps the test meaningful at inf = -infinity
    (-3.0, -math.inf, 0.5, True),  # -3 <= -1/0.5 = -2
    (-0.4, -math.inf, 2.0, False),  # -0.4 > -1/2
    (-math.inf, -math.inf, 2.0, True),
    # inf = +infinity certifies anything
    (math.inf, math.inf, 0.1, True),
    (5.0, math.inf, 0.1, True),
    # the floor can rescue a value far below a finite inf bar
    (-10.0, 0.0, 0.1, True),
]


@pytest.mark.parametrize(
    "value, inf_estimate, eps, expected",
    _EPS_TABLE,
    # row ids name the row index, so they do not depend on how values print
    ids=[f"value{i}-inf_estimate{i}-{e}-{x}" for i, (_, _, e, x) in enumerate(_EPS_TABLE)],
)
def test_eps_minimizer_table(value, inf_estimate, eps, expected):
    assert is_eps_minimizer(value, inf_estimate, eps) is expected


def test_eps_must_be_positive():
    with pytest.raises(GridCompatibilityError):
        is_eps_minimizer(0.0, 0.0, 0.0)
    with pytest.raises(GridCompatibilityError):
        is_eps_minimizer(0.0, 0.0, -1.0)


def test_eps_minimizer_accepts_plain_floats():
    assert is_eps_minimizer(0.5, 0.0, 0.5)
    assert not is_eps_minimizer(0.6, 0.0, 0.5)


@given(
    st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
    st.floats(min_value=0.01, max_value=10.0),
    st.floats(min_value=0.0, max_value=10.0),
)
def test_eps_minimizer_is_monotone_in_eps(inf_value, eps, extra):
    # once certified at eps, a candidate stays certified at any larger eps
    value = inf_value + eps * 0.5
    inf_est = inf_value
    assert is_eps_minimizer(value, inf_est, eps)
    assert is_eps_minimizer(value, inf_est, eps + extra)


@given(st.floats(min_value=-50.0, max_value=50.0), st.floats(min_value=0.01, max_value=5.0))
def test_true_minimizer_is_always_certified(inf_value, eps):
    assert is_eps_minimizer(inf_value, inf_value, eps)


# --------------------------------------------------------------- penalties


def test_half_squared_norm_hand_value():
    x = GridFunction(np.full(17, 3.0))  # L2 norm is 3
    assert half_sq_l2().evaluate(x) == pytest.approx(4.5, abs=1e-12)


def test_power_norm_hand_value():
    x = GridFunction(np.full(17, 2.0))  # (1/3) * 2^3
    assert p_power_norm(3.0).evaluate(x) == pytest.approx(8.0 / 3.0, abs=1e-12)


def test_sup_norm_penalty_hand_value():
    x = GridFunction(np.array([0.5, -2.0, 1.0]))
    assert linf_penalty().evaluate(x) == 2.0


def test_shifted_penalty_hand_value():
    grid = np.full(9, 1.0)
    shift = GridFunction(grid)
    x = GridFunction(grid + 2.0)
    assert shifted_half_sq(shift).evaluate(x) == pytest.approx(2.0, abs=1e-12)


def test_shifted_penalty_resamples_shift():
    shift = GridFunction(np.full(5, 1.0))
    x = GridFunction(np.full(9, 1.0))
    assert shifted_half_sq(shift).evaluate(x) == pytest.approx(0.0, abs=1e-14)


def test_power_norm_needs_q_at_least_one():
    with pytest.raises(UnsupportedPenaltyError):
        p_power_norm(0.5)
    with pytest.raises(UnsupportedPenaltyError):
        PenaltySpec(0.5, NormTag.LINF)


def test_sup_norm_penalty_is_not_smooth():
    pen = linf_penalty()
    assert not pen.is_smooth
    with pytest.raises(UnsupportedPenaltyError):
        pen.coordinate_gradient(GridFunction(np.ones(5)))


def test_gradient_matches_difference_quotient():
    pen = half_sq_l2()
    x = from_callable(lambda t: np.sin(2 * np.pi * t) + 0.3, 9)
    grad = pen.coordinate_gradient(x)
    h = 1e-7
    for i in (0, 4, 8):
        bumped = x.values.copy()
        bumped[i] += h
        fd = (pen.evaluate(GridFunction(bumped)) - pen.evaluate(x)) / h
        assert grad[i] == pytest.approx(fd, rel=1e-5, abs=1e-8)


# ------------------------------------------------------------- functionals


def scalar_surrogate():
    """Two-node realization of the closed-form worked example.

    F doubles the input, the data is the constant 1, and alpha = 1 with the
    half-squared-L2 penalty. Constants have L2 norm equal to their absolute
    value, so T restricted to constants is 0.5(2c-1)^2 + 0.5c^2, minimized
    at c = 0.4 with value 0.1.
    """
    from gammareg import ForwardOperator

    doubling = ForwardOperator(2.0 * np.eye(2))
    return TikhonovProblem(
        doubling, GridFunction(np.ones(2)), alpha=1.0, penalty=half_sq_l2()
    )


def test_scalar_surrogate_value_by_grid_search():
    problem = scalar_surrogate()
    cs = np.linspace(-1.0, 1.0, 20001)
    values = [
        eval_T(problem, GridFunction(np.full(2, c))) for c in (0.3, 0.4, 0.5)
    ]
    assert values[1] == pytest.approx(0.1, abs=1e-12)
    assert values[1] < values[0] and values[1] < values[2]
    best = min(cs, key=lambda c: 0.5 * (2 * c - 1) ** 2 + 0.5 * c**2)
    assert best == pytest.approx(0.4, abs=1e-4)


def test_functional_is_plus_infinity_outside_domain():
    op = identity_operator(5, norm_ball(0.1))
    problem = TikhonovProblem(op, GridFunction(np.zeros(5)), alpha=1.0)
    outside = GridFunction(np.full(5, 0.2))
    assert eval_T(problem, outside) == math.inf
    inside = GridFunction(np.full(5, 0.05))
    value = eval_T(problem, inside)
    assert type(value) is float and math.isfinite(value)


def test_membership_is_tested_on_the_resampled_x():
    # the tent has L2 norm 0.707 on its own 3 nodes, above the radius, but
    # 0.577 resampled onto the 65-node input grid, where T is evaluated
    problem = TikhonovProblem(
        identity_operator(65, norm_ball(0.6)), GridFunction(np.zeros(65)), alpha=0.1
    )
    tent = GridFunction(np.array([0.0, 1.0, 0.0]))
    assert norm(tent) > 0.6 > norm(resample(tent, 65))
    value = eval_T(problem, tent)
    assert math.isfinite(value) and value == eval_T(problem, resample(tent, 65))


def test_overflowing_functional_is_refused():
    # inside the domain T is finite; an overflow must not pass for +inf
    problem = TikhonovProblem(identity_operator(5), GridFunction(np.zeros(5)), alpha=1.0)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="not finite"):
        eval_T(problem, GridFunction(np.full(5, 1e200)))


def test_alpha_zero_functional_is_pure_discrepancy():
    op = identity_operator(9)
    y = from_callable(np.sin, 9)
    problem = TikhonovProblem(op, y, alpha=0.0)
    x = from_callable(np.cos, 9)
    expected = 0.5 * norm(GridFunction(x.values - y.values)) ** 2
    assert eval_T(problem, x) == pytest.approx(expected, rel=1e-13)


def test_problem_validation():
    op = identity_operator(5)
    y = GridFunction(np.zeros(5))
    with pytest.raises(GridCompatibilityError):
        TikhonovProblem(op, y, alpha=-0.1)
    with pytest.raises(GridCompatibilityError):
        TikhonovProblem(op, y, alpha=1.0, exponent_p=0.5)
    with pytest.raises(GridCompatibilityError):
        TikhonovProblem(op, GridFunction(np.zeros(6)), alpha=1.0)


def test_linear_quadratic_detection():
    op = identity_operator(5)
    y = GridFunction(np.zeros(5))
    assert TikhonovProblem(op, y, 1.0).is_linear_quadratic
    assert TikhonovProblem(op, y, 1.0, penalty=shifted_half_sq(y)).is_linear_quadratic
    assert not TikhonovProblem(op, y, 1.0, exponent_p=3.0).is_linear_quadratic
    assert not TikhonovProblem(op, y, 1.0, penalty=p_power_norm(3.0)).is_linear_quadratic
    # the closed form follows the functional: (1/2) ||x||^2 is half_sq_l2
    assert p_power_norm(2.0) == half_sq_l2()
    assert TikhonovProblem(op, y, 1.0, penalty=p_power_norm(2.0)).is_linear_quadratic
    sup = p_power_norm(2.0, NormTag.LINF)
    assert not TikhonovProblem(op, y, 1.0, penalty=sup).is_linear_quadratic
    constrained = TikhonovProblem(identity_operator(5, norm_ball(1.0)), y, 1.0)
    assert not constrained.is_linear_quadratic


# ---------------------------------------------------------------- schedules


def test_alpha_schedule_offset_power_form(gaussian_sequence):
    # alpha_n = alpha + amplitude / n^exponent on top of the target alpha
    assert gaussian_sequence.alpha_at(9) == pytest.approx(0.1 + 1.0 / 9.0, abs=1e-15)
    assert gaussian_sequence.alpha_at(129) == pytest.approx(0.1 + 1.0 / 129.0, abs=1e-15)


def test_constant_alpha_schedule():
    op = identity_operator(9)
    y = from_callable(np.sin, 9)
    target = TikhonovProblem(op, y, alpha=0.25)
    seq = make_approx_sequence(target, make_constant_family(op, (2, 4, 8)))
    assert seq.alpha_at(8) == 0.25
    assert seq.alpha_limit == 0.25


def test_alpha_schedule_validation():
    with pytest.raises(GridCompatibilityError):
        AlphaSchedule("bogus")
    with pytest.raises(GridCompatibilityError):
        AlphaSchedule("power", amplitude=-1.0)


def test_noise_schedule_validation():
    with pytest.raises(GridCompatibilityError):
        NoiseSchedule("bogus")
    with pytest.raises(GridCompatibilityError):
        NoiseSchedule("power", exponent=0.0)
    with pytest.raises(GridCompatibilityError):
        NoiseSchedule("power", direction="bogus")


def test_vanishing_alpha_levels_are_rejected():
    # a target with alpha = 0 under a constant schedule would make some
    # T_n carry alpha_n = 0, which the sequence refuses
    op = identity_operator(9)
    y = from_callable(np.sin, 9)
    target = TikhonovProblem(op, y, alpha=0.0)
    with pytest.raises(GridCompatibilityError):
        make_approx_sequence(target, make_constant_family(op, (2, 4)))


def test_noise_magnitude_is_exact(gaussian_sequence):
    target_y = gaussian_sequence.target.data_y
    for n in gaussian_sequence.levels:
        gap = norm(gaussian_sequence.data_at(n) - target_y)
        assert gap == pytest.approx(1.0 / n, rel=1e-12)


def test_no_noise_returns_target_data():
    op = identity_operator(9)
    y = from_callable(np.sin, 9)
    target = TikhonovProblem(op, y, alpha=0.5)
    seq = make_approx_sequence(target, make_constant_family(op, (2, 4)))
    assert np.array_equal(seq.data_at(4).values, y.values)


def test_problem_at_wires_level_pieces(gaussian_sequence):
    n = 33
    level_problem = gaussian_sequence.problem_at(n)
    assert level_problem.alpha == pytest.approx(0.1 + 1.0 / 33.0)
    assert level_problem.operator is gaussian_sequence.family.operator_at(n)
    assert np.array_equal(
        level_problem.data_y.values, gaussian_sequence.data_at(n).values
    )


def test_problem_at_keeps_each_level_problem(gaussian_sequence):
    # y_n is a function of the schedules and n alone, so the kept problem is
    # the one a fresh build would give
    n = 17
    level_problem = gaussian_sequence.problem_at(n)
    assert gaussian_sequence.problem_at(n) is level_problem
    assert level_problem.data_y.values.tobytes() == gaussian_sequence.data_at(n).values.tobytes()


def test_level_problem_takes_its_level_operators_domain():
    # shrinking level balls of radius 1 - 1/n: a point inside the reference
    # ball but outside level 8's is feasible for T and +inf for T_8
    family = make_quadrature_family(
        gaussian_kernel(0.2), (2, 4, 8), 65, input_m=9,
        domain=norm_ball(1.0), shrinking_domains=True,
    )
    target = TikhonovProblem(family.reference, GridFunction(np.zeros(65)), alpha=0.1)
    seq = make_approx_sequence(target, family)
    x = from_callable(np.ones_like, 9) * 0.9
    assert 1.0 - 1.0 / 8 < norm(x) < 1.0
    assert math.isfinite(eval_T(target, x))
    assert eval_Tn(seq, 8, x) == math.inf
    assert seq.problem_at(8).operator.domain.radius == pytest.approx(1.0 - 1.0 / 8)


def test_eval_level_functional_matches_manual_formula(gaussian_sequence):
    n = 17
    x = from_callable(lambda t: 0.01 * np.cos(np.pi * t), 65)
    manual = (
        0.5
        * norm(gaussian_sequence.family.operator_at(n).apply(x) - gaussian_sequence.data_at(n))
        ** 2
        + gaussian_sequence.alpha_at(n) * half_sq_l2().evaluate(x)
    )
    assert eval_Tn(gaussian_sequence, n, x) == pytest.approx(manual, rel=1e-13)


# ------------------------------------------------------------- properties

_PROP_FAMILY = make_quadrature_family(gaussian_kernel(0.3), (3, 5, 9), 65, input_m=9)
_PROP_Y = _PROP_FAMILY.reference.apply(from_callable(lambda t: np.sin(np.pi * t), 9))
_PROP_TARGET = TikhonovProblem(_PROP_FAMILY.reference, _PROP_Y, alpha=0.2)
_PROP_SEQ = make_approx_sequence(
    _PROP_TARGET,
    _PROP_FAMILY,
    AlphaSchedule("power", amplitude=0.5, exponent=1.0),
    NoiseSchedule("power", amplitude=0.3, exponent=1.0),
)

coeff_boxes = st.lists(
    st.floats(min_value=-3.0, max_value=3.0, allow_nan=False), min_size=9, max_size=9
)


@given(coeff_boxes)
def test_functional_dominates_alpha_times_penalty(values):
    x = GridFunction(np.asarray(values))
    total = eval_T(_PROP_TARGET, x)
    assert total >= _PROP_TARGET.alpha * half_sq_l2().evaluate(x) - 1e-12


@given(coeff_boxes, st.floats(min_value=0.0, max_value=5.0))
def test_functional_is_monotone_in_alpha(values, bump):
    x = GridFunction(np.asarray(values))
    lo = TikhonovProblem(_PROP_FAMILY.reference, _PROP_Y, alpha=0.2)
    hi = TikhonovProblem(_PROP_FAMILY.reference, _PROP_Y, alpha=0.2 + bump)
    assert eval_T(lo, x) <= eval_T(hi, x) + 1e-12


@settings(deadline=None)
@given(coeff_boxes, st.sampled_from([3, 5, 9]))
def test_level_deviation_obeys_triangle_bound(values, n):
    # |T_n(x) - T(x)| is controlled by the residual sizes, the operator and
    # data gaps, and the alpha offset; quadratic expansion of p = 2 terms
    x = GridFunction(np.asarray(values))
    seq = _PROP_SEQ
    rn = norm(seq.family.operator_at(n).apply(x) - seq.data_at(n))
    r = norm(seq.target.operator.apply(x) - seq.target.data_y)
    gap_f = norm(seq.family.operator_at(n).apply(x) - seq.target.operator.apply(x))
    gap_y = norm(seq.data_at(n) - seq.target.data_y)
    omega = half_sq_l2().evaluate(x)
    bound = 0.5 * (rn + r) * (gap_f + gap_y) + abs(seq.alpha_at(n) - seq.target.alpha) * omega
    deviation = abs(eval_Tn(seq, n, x) - eval_T(seq.target, x))
    assert deviation <= bound + 1e-10


@given(coeff_boxes, coeff_boxes)
def test_quadratic_functional_midpoint_convexity(a_vals, b_vals):
    a = GridFunction(np.asarray(a_vals))
    b = GridFunction(np.asarray(b_vals))
    mid = GridFunction(0.5 * (a.values + b.values))
    fa = eval_T(_PROP_TARGET, a)
    fb = eval_T(_PROP_TARGET, b)
    fm = eval_T(_PROP_TARGET, mid)
    assert fm <= 0.5 * (fa + fb) + 1e-10
