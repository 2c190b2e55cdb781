"""Set-up and study calls of each workload, and what each call must return.

Library calls go through module attributes (`studies.inf_convergence_study`,
not a name imported into this file), so that the tracer's wrappers, which
replace those attributes, see them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from gammareg import config, fem, functionals, operators, studies
from gammareg.grids import GridFunction, grid_nodes
from gammareg.solvers import SolveConfig

from instances import Workload

# C6: five points of sin(j x) on a 4096-node grid over [0, 2 pi].
GAMMA_POINTS = (0.7, 1.3, 2.6, 3.9, 5.2)
GAMMA_RADII = (0.5, 0.1, 0.02, 0.004)
GAMMA_WINDOW = 512
# C1 verdict: second order within [-2.2, -1.8].
RATE_SLOPE = (-2.2, -1.8)


@dataclass
class Op:
    """One study call of a pass, and the outcome summary of its result."""

    name: str
    call: Callable[[], object]
    outcome: Callable[[object], dict]


@dataclass
class State:
    runs: dict  # instance -> RunSpec
    seqs: dict  # instance -> ApproxSequence

    def kept_bytes(self) -> int:
        """Bytes of the operator matrices the sequences keep after set-up."""
        seen = {}
        for seq in self.seqs.values():
            family = seq.family
            mats = [seq.target.operator.matrix, family.reference.matrix]
            mats += [family.operator_at(n).matrix for n in family.levels]
            for mat in mats:
                seen[id(mat)] = mat.nbytes
        return sum(seen.values())


def setup(workload: Workload, seed: int) -> State:
    """Parse the configs, build each sequence and every level operator."""
    runs, seqs = {}, {}
    for instance in workload.configs:
        runs[instance] = config.parse_config(workload.config_text(instance, seed))
        seqs[instance] = config.build_sequence(runs[instance])
    if workload.kind == "lq":
        seqs["scaling"] = _scaling_sequence(seqs["lq"].target.operator, seqs["lq"].levels)
    for seq in seqs.values():
        for n in seq.levels:
            seq.family.operator_at(n)
    return State(runs, seqs)


def _scaling_sequence(op, levels):
    # C7 recipe on a constant family over the given reference operator.
    truth = GridFunction(np.sin(np.pi * grid_nodes(op.input_m)))
    target = functionals.TikhonovProblem(op, op.apply(truth), alpha=0.1)
    return functionals.make_approx_sequence(
        target,
        operators.make_constant_family(op, levels),
        functionals.AlphaSchedule("constant"),
        functionals.NoiseSchedule("power", 0.05, 1.0),
    )


def _solver(run) -> SolveConfig:
    s = run.solver
    return SolveConfig(max_iter=s.max_iter, grad_tol=s.grad_tol, restarts=s.restarts)


def probe_samples(seed: int, m: int, count: int) -> list[GridFunction]:
    """The C4 recipe: random profiles with log-uniform scales."""
    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(count):
        scale = 10.0 ** rng.uniform(-2.0, 0.5)
        samples.append(GridFunction(scale * rng.standard_normal(m)))
    return samples


def ops(workload: Workload, state: State, seed: int) -> list[Op]:
    """The study calls of one pass, with their inputs generated from `seed`."""
    runs, seqs = state.runs, state.seqs
    if workload.kind == "lq":
        seq, run = seqs["lq"], runs["lq"]
        zero, zero_run = seqs["alpha_zero"], runs["alpha_zero"]
        return [
            Op("inf_convergence",
               lambda: studies.inf_convergence_study(seq, _solver(run), tol=run.study.tol),
               _inf_convergence),
            Op("eps_chain", lambda: studies.eps_minimizer_chain(seq, solver=_solver(run)),
               _eps_chain),
            Op("scaling",
               lambda: studies.scaling_invariance_check(
                   seqs["scaling"], lambda n: 2.0 + 1.0 / n, 2.0, _solver(run)),
               _scaling),
            Op("alpha_zero",
               lambda: studies.alpha_zero_study(zero, _solver(zero_run), tol=zero_run.study.tol),
               _alpha_zero),
        ] + _probe_ops(seqs["conftest"], runs["conftest"],
                       probe_samples(seed, runs["conftest"].problem.input_m,
                                     workload.probe_samples))
    if workload.kind == "fem":
        ball, ball_run = seqs["ball"], runs["ball"]
        pnorm, pnorm_run = seqs["pnorm"], runs["pnorm"]
        problem = fem.EllipticProblem(
            lambda t: np.ones_like(t),
            lambda t: (np.pi**2 + 1.0) * np.sin(np.pi * t),
            lambda t: np.sin(np.pi * t),
        )
        return [
            Op("inf_convergence",
               lambda: studies.inf_convergence_study(
                   ball, _solver(ball_run), tol=ball_run.study.tol),
               _inf_convergence),
            Op("eps_chain",
               lambda: studies.eps_minimizer_chain(pnorm, solver=_solver(pnorm_run)),
               lambda r: _eps_chain(r, seeded=True)),
            Op("rate_study", lambda: fem.rate_study(problem, workload.rate_levels), _rate),
        ]
    raise KeyError(workload.kind)


def _probe_ops(seq, run, samples) -> list[Op]:
    """The C4 probe on `samples`, the uniform gap at each level on the same
    samples, and the C6 Gamma-limit estimates."""
    grid = np.linspace(0.0, 2.0 * np.pi, 4096)
    out = [
        Op(
            "coercivity",
            lambda: studies.equi_coercivity_probe(seq, samples, run.study.thresholds,
                                                  _solver(run)),
            _coercivity,
        )
    ]
    out += [
        Op(f"uniform_gap@{n}", lambda n=n: operators.uniform_gap(seq.family, n, samples),
           _uniform_gap)
        for n in seq.levels
    ]
    out += [
        Op(
            f"gamma@{point}",
            lambda point=point: studies.estimate_gamma_limits(
                _oscillation, grid, point, GAMMA_RADII, GAMMA_WINDOW
            ),
            _gamma,
        )
        for point in GAMMA_POINTS
    ]
    return out


def _oscillation(j, x):
    return np.sin(j * x)


def _floats(values) -> list[float]:
    return [float(v) for v in values]


def _coercivity(r) -> dict:
    return {
        "verdict": r.verdict,
        "values": {
            "antecedent_hits": float(r.antecedent_hits),
            "violations": float(len(r.violations)),
            "delta": r.delta,
            "witness_bound": r.witness_bound,
        },
        "seeded": ["antecedent_hits", "violations"],
    }


def _uniform_gap(gap) -> dict:
    return {"verdict": None, "values": {"gap": gap}, "seeded": ["gap"]}


def _gamma(r) -> dict:
    return {
        "verdict": r.lower_stabilized,
        "values": {"lower_by_radius": _floats(r.lower_by_radius),
                   "upper_by_radius": _floats(r.upper_by_radius)},
    }


def _inf_convergence(r) -> dict:
    return {
        "verdict": r.verdict,
        "values": {
            "inf_values": _floats(r.inf_values),
            "gaps": _floats(r.gaps),
            "minimizer_distances": _floats(r.minimizer_distances),
            "reference_min": r.reference_min,
        },
    }


def _eps_chain(r, seeded: bool = False) -> dict:
    values = {
        "chain_values": _floats(r.chain_values),
        "step_distances": _floats(r.step_distances),
        "certified": _floats(r.certified),
        "cluster_found": float(r.cluster_found),
        "final_value_gap": r.final_value_gap,
    }
    return {"verdict": r.verdict, "values": values, "seeded": list(values) if seeded else []}


def _scaling(r) -> dict:
    return {
        "verdict": r.verdict,
        "values": {
            "inf_values": _floats(r.inf_values),
            "scaled_inf_values": _floats(r.scaled_inf_values),
            "unscaled_limit": r.unscaled_limit,
            "scaled_limit": r.scaled_limit,
        },
        # C7's stated bounds; the quantities themselves are round-off.
        "bounds": {"identity_residuals": [_floats(r.identity_residuals), 1e-12],
                   "argmin_distances": [_floats(r.argmin_distances), 1e-8]},
    }


def _alpha_zero(r) -> dict:
    return {
        "verdict": r.verdict,
        "values": {
            "distances": _floats(r.distances),
            "omega_gaps": _floats(r.omega_gaps),
            "noise_ratios": _floats(r.noise_ratios),
            "operator_ratios": _floats(r.operator_ratios),
        },
    }


def _rate(r) -> dict:
    lo, hi = RATE_SLOPE
    ok = lo <= r.slope <= hi
    return {"verdict": ok,
            "values": {"errors": _floats(r.errors), "slope": r.slope},
            "violations": [] if ok else [f"slope {r.slope:.4f} outside [{lo}, {hi}]"]}
