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
    NoiseSchedule,
    SolveConfig,
    TikhonovProblem,
    eval_T,
    gaussian_kernel,
    grid_nodes,
    make_approx_sequence,
    make_quadrature_family,
    projected_gradient,
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


@pytest.fixture(scope="session")
def gaussian_sequence():
    return build_gaussian_sequence()


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
