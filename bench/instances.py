"""The benchmark's workloads as data: study configs, CLI jobs and sizes.

Nothing here imports gammareg, so the harness can read it before it
knows whether the package is present.
"""

from __future__ import annotations

from dataclasses import dataclass

# Seed at which every seed-dependent reference value in pinned.json was
# recorded. It is also the seed of the C4 recipe in tests/test_acceptance.py.
DEFAULT_SEED = 42

# The conftest instance (tests/conftest.py): gaussian kernel, m_ref 2049.
# It carries the C4 coercivity probe of the lq-8193 pass.
CONFTEST_2049 = """\
[study]
kind = coercivity
thresholds = 0.1, 1, 10

[problem]
kernel = gaussian
sigma = 0.2
input_m = 65
quad_m = 2049
alpha = 0.1
truth = sine
truth_amplitude = 0.003

[schedule]
levels = 9, 17, 33, 65, 129
alpha_kind = power
alpha_amplitude = 1
alpha_exponent = 1
noise_kind = power
noise_amplitude = 1
noise_exponent = 1
"""

# The same problem at the largest ROADMAP size.
LQ_8193 = """\
[study]
kind = inf-study

[problem]
kernel = gaussian
sigma = 0.2
input_m = 513
quad_m = 8193
alpha = 0.1
truth = sine
truth_amplitude = 0.003

[schedule]
levels = 9, 17, 33, 65, 129, 257, 513
alpha_kind = power
alpha_amplitude = 1
alpha_exponent = 1
noise_kind = power
noise_amplitude = 1
noise_exponent = 1
"""

# Vanishing alpha on an exact family (the C5 setting at 257/4097).
ALPHA_ZERO_4097 = """\
[study]
kind = alpha-zero

[problem]
kernel = gaussian
sigma = 0.2
input_m = 257
quad_m = 4097
alpha = 0
truth = sine
truth_amplitude = 0.003

[schedule]
levels = doubling:8:7
alpha_kind = power
alpha_amplitude = 1
alpha_exponent = 0.5
noise_kind = power
noise_amplitude = 1
noise_exponent = 1
exact_family = true
"""

# Galerkin forward maps, n_ref = 16 * 512 + 1 = 8193. The radius-0.05 ball
# excludes the truth (L2 norm 0.1 / sqrt 2), so every solve is projected
# gradient. At the default alpha 0.05 the minimizers have norm about 0.01
# and lie inside the ball. (At alpha 0.001 they lie on its boundary, and
# at n = 512 the projection lands one rounding step outside it: see the
# known defects in NOTES.md.)
FEM_BALL = """\
[study]
kind = inf-study

[problem]
kernel = fem
potential = one
input_m = 65
domain = l2_ball
radius = 0.05
truth = sine
truth_amplitude = 0.1

[schedule]
levels = doubling:8:7
"""

# p = 3 discrepancy with a q = 3 norm penalty: smooth but not quadratic, so
# the solves are projected gradient. The noise draw follows the seed.
FEM_PNORM = """\
[study]
kind = eps-chain

[problem]
kernel = fem
potential = one
input_m = 65
alpha = 0.05
exponent_p = 3
penalty = p_power_norm
penalty_q = 3
truth = sine
truth_amplitude = 0.1

[schedule]
levels = doubling:8:7
noise_kind = seeded
noise_amplitude = 0.01
noise_seed = {seed}
"""


# Fresh client processes per run, each setting up once and then running
# passes in a closed loop: three give setup_s and peak_rss_mb a median.
CLIENTS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # lq | fem: which pass recipe of workloads.py runs
    configs: dict  # instance name -> INI text, formatted with the seed
    cli_instance: str  # the instance whose config `gammareg run` executes
    # Fresh `gammareg run` processes per run. Cheap ones get more
    # repetitions; host speed varies by 10-50 % within seconds, and medians
    # of more samples settle better.
    cli_runs: int = 9
    # The C4 recipe draws 1024 samples; an eighth keeps the probe (about
    # 0.4 s) a small part of the lq-8193 pass (about 3.5 s without it).
    probe_samples: int = 128
    # The manufactured problem's solve_bvp refuses its own solution from
    # n = 300 on (a known defect, see NOTES.md), so the levels end at 256.
    rate_levels: tuple = (16, 32, 64, 128, 256)

    def config_text(self, instance: str, seed: int) -> str:
        return self.configs[instance].format(seed=seed)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "lq-8193",
            "lq",
            {"lq": LQ_8193, "alpha_zero": ALPHA_ZERO_4097, "conftest": CONFTEST_2049},
            "lq",
            cli_runs=5,
        ),
        Workload(
            "fem-pg-8193",
            "fem",
            {"ball": FEM_BALL, "pnorm": FEM_PNORM},
            "ball",
        ),
    )
}
