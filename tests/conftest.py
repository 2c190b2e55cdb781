"""Shared fixtures: deterministic problem instances reused across test files.

The smoothing-kernel sequence below is the workhorse instance: five coarse
quadrature levels of a Gaussian-kernel integral operator measured against a
fine reference discretization, with a small smooth truth profile, a power-law
alpha schedule sitting on top of the target alpha, and deterministic
oscillatory data noise of size 1/n.
"""

from __future__ import annotations

import io
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import numpy as np
import pytest

from gammareg import (
    AlphaSchedule,
    GridFunction,
    KernelSpec,
    NoiseSchedule,
    SolveConfig,
    TikhonovProblem,
    eval_T,
    gaussian_kernel,
    grid_nodes,
    make_approx_sequence,
    make_fem_family,
    make_quadrature_family,
    projected_gradient,
    trapezoid_weights,
)
from gammareg.cli import main

GAUSS_SIGMA = 0.2
GAUSS_LEVELS = (9, 17, 33, 65, 129)
GAUSS_M_REF = 2049
INPUT_M = 65
TRUTH_AMPLITUDE = 0.003
TARGET_ALPHA = 0.1


def build_gaussian_sequence(levels=GAUSS_LEVELS):
    """Construct the shared smoothing-kernel approximating sequence.

    `levels` only changes where the sequence is sampled; the instance
    (kernel, reference grid, truth, alpha and noise schedules) is fixed.
    """
    family = make_quadrature_family(
        gaussian_kernel(GAUSS_SIGMA), levels, GAUSS_M_REF, input_m=INPUT_M
    )
    t = grid_nodes(INPUT_M)
    truth = GridFunction(TRUTH_AMPLITUDE * np.sin(np.pi * t))
    data = family.reference.apply(truth)
    target = TikhonovProblem(family.reference, data, alpha=TARGET_ALPHA)
    return make_approx_sequence(
        target,
        family,
        AlphaSchedule("power", amplitude=1.0, exponent=1.0),
        NoiseSchedule("power", amplitude=1.0, exponent=1.0),
    )


# the other kernels under test are symmetric, so a swap of s and t would pass their oracles
ASYMMETRIC_KERNEL = KernelSpec(lambda s, t: np.exp(s - 2.0 * t) + s, "asymmetric")
# reference grids, with levels that nest (n - 1 divides m_ref - 1), do not nest, or equal m_ref
FAMILY_CASES = [(257, (9, 17, 100, 257)), (1000, (9, 33, 65, 513, 1000))]
# Level operators, each its core C and its prolongation P: the quadrature levels
# of FAMILY_CASES, and FEM levels prolonged from n + 2 nodes onto the 1025 + 2
# reference nodes. Their oracles form the dense P C through `.matrix`.
LEVEL_CASES = [("quadrature", m_ref, levels) for m_ref, levels in FAMILY_CASES]
LEVEL_CASES += [("fem", 16 * 64 + 3, (8, 16, 33, 64))]
LEVEL_IDS = [f"{kind}-{m_ref}" for kind, m_ref, _ in LEVEL_CASES]


def level_family(kind, m_ref, levels):
    """The family of a LEVEL_CASES row, on 65 input nodes."""
    if kind == "fem":
        return make_fem_family(lambda t: 1.0 + np.cos(3.0 * t), levels, input_m=65)
    return make_quadrature_family(ASYMMETRIC_KERNEL, levels, m_ref, input_m=65)


@pytest.fixture(scope="session")
def gaussian_sequence():
    return build_gaussian_sequence()


def dense_normal_equations(problem):
    """lam (A^T W A + alpha W_X) and lam (A^T W y + alpha W_X x0) of a linear-quadratic
    problem, formed densely from `operator.matrix` and the trapezoid weights: W on the
    output grid, W_X on the input grid, lam the scale, x0 the penalty shift
    interpolated onto the input grid, or 0. An oracle for the closed form."""
    op, alpha, lam = problem.operator, problem.alpha, problem.scale
    a, w, w_in = op.matrix, trapezoid_weights(op.output_m), trapezoid_weights(op.input_m)
    shift = problem.penalty.shift
    x0 = 0.0 if shift is None else np.interp(grid_nodes(op.input_m), shift.nodes, shift.values)
    matrix = lam * (a.T @ (w[:, None] * a) + alpha * np.diag(w_in))
    return matrix, lam * (a.T @ (w * problem.data_y.values) + alpha * w_in * x0)


def uphill_steps(problem, x0, k_max=20):
    """Iteration counts k <= k_max whose projected-gradient value exceeds k - 1's.

    A run capped at k iterations repeats the first k - 1 iterations of the
    run capped at k - 1, so the values of the capped runs are the values
    along one descent path; the solver's own bookkeeping is not consulted.
    """
    values = [eval_T(problem, x0)]
    for k in range(1, k_max + 1):
        config = SolveConfig(max_iter=k, grad_tol=1e-300)
        values.append(projected_gradient(problem, x0, config).value)
    return [k for k in range(1, k_max + 1) if values[k] > values[k - 1]]


@dataclass(frozen=True)
class CliRun:
    code: int
    stdout: str
    stderr: str
    warnings: list[str]


def run_cli(*argv: str) -> CliRun:
    """`gammareg argv` in this process: its exit code, its output, and every Python
    warning it raised, which a subprocess would have printed on stderr."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, redirect_stdout(out), \
            redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = main(list(argv))
        except SystemExit as stop:  # argparse refusing its arguments
            code = stop.code
    return CliRun(code, out.getvalue(), err.getvalue(),
                  [f"{w.category.__name__}: {w.message}" for w in caught])


@pytest.fixture
def cli():
    return run_cli


# Acceptance tests append one "name: PASS/FAIL (details)" line each; the
# summary hook prints them after the run so the verdict of every criterion
# is visible even when its test passed and captured its stdout.
ACCEPTANCE_LINES: list[str] = []


@pytest.fixture(scope="session")
def acceptance_log():
    return ACCEPTANCE_LINES


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
