"""First-kind integral operators, their quadrature approximations, and domains.

Every operator here is linear and maps nodal values on a fixed input grid
to nodal values on an output grid: a quadrature-weighted collocation
matrix, spread onto a finer output grid by linear interpolation where it
is an approximating level. Approximation families share one reference
output grid so that levels can be compared in the same discrete L2 norm.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field, replace
from itertools import chain
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import GridCompatibilityError, NumericalError
from .grids import (
    GridFunction,
    NormTag,
    from_callable,
    grid_nodes,
    interpolate_rows,
    interpolation_weights,
    norm,
    resample,
    resample_matrix,  # unused here; bench/tracer.py wraps it under this module
    trapezoid_weights,
)

__all__ = [
    "KernelSpec",
    "constant_kernel",
    "separable_kernel",
    "gaussian_kernel",
    "DomainSpec",
    "whole_space",
    "norm_ball",
    "norm_ball_nonneg",
    "membership",
    "ForwardOperator",
    "identity_operator",
    "integral_matrix",
    "OperatorFamily",
    "make_quadrature_family",
    "make_constant_family",
    "uniform_gap",
    "standard_samples",
]


@dataclass(frozen=True)
class KernelSpec:
    """Continuous kernel K(s, t) on [0,1]^2, evaluated with broadcasting.

    An optional `profile` k marks a stationary kernel, K(s, t) = k(s - t),
    evaluated elementwise on an array of offsets. On a uniform grid such a
    kernel has one value per node offset, so quadrature evaluates k at the
    2 quad_m - 1 offsets instead of K at quad_m^2 node pairs. The profile must
    agree with the evaluator on the 5 x 5 probe, to 1e-12 of its largest value.
    """

    evaluator: Callable[[np.ndarray, np.ndarray], np.ndarray]
    label: str
    profile: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        probe = np.linspace(0.0, 1.0, 5)
        s, t = probe[None, :], probe[:, None]
        vals = np.asarray(self.evaluator(s, t), dtype=float)
        if vals.shape != (5, 5) or not np.all(np.isfinite(vals)):
            raise GridCompatibilityError(
                f"kernel {self.label!r} must evaluate finitely on [0,1]^2 "
                "with numpy broadcasting"
            )
        if self.profile is not None:
            prof = np.asarray(self.profile(s - t), dtype=float)
            if prof.shape != (5, 5) or not np.max(abs(prof - vals)) <= 1e-12 * np.max(abs(vals)):
                raise GridCompatibilityError(
                    f"kernel {self.label!r}: profile k(s - t) disagrees with K(s, t)"
                )


def _stationary(profile: Callable[[np.ndarray], np.ndarray], label: str) -> KernelSpec:
    """K(s, t) = profile(s - t), evaluator and profile from one formula."""
    return KernelSpec(lambda s, t: profile(s - t), label, profile)


def constant_kernel(kappa: float = 1.0) -> KernelSpec:
    return _stationary(lambda d: np.full(np.shape(d), float(kappa)), f"constant({kappa})")


def separable_kernel() -> KernelSpec:
    return KernelSpec(lambda s, t: s * t, "separable")


def gaussian_kernel(sigma: float) -> KernelSpec:
    if sigma <= 0:
        raise GridCompatibilityError("gaussian kernel needs sigma > 0")
    return _stationary(lambda d: np.exp(-(d**2) / sigma**2), f"gaussian({sigma})")


@dataclass(frozen=True)
class DomainSpec:
    """D(F) = {x : ||x||_tag <= radius, and x >= 0 if nonneg}.

    An infinite radius is the whole space; a nonnegative domain needs a
    finite radius. Balls are measured in the L2 or the sup norm.
    """

    radius: float = math.inf
    tag: NormTag = NormTag.L2
    nonneg: bool = False

    def __post_init__(self):
        if not self.radius > 0.0:
            raise GridCompatibilityError("norm ball needs a positive radius")
        if self.nonneg and self.radius == math.inf:
            raise GridCompatibilityError("nonnegative domain needs a finite radius")
        if self.tag is NormTag.H1_0:
            raise GridCompatibilityError("domain balls support L2 and sup norms only")


def whole_space() -> DomainSpec:
    return DomainSpec()


def norm_ball(radius: float, tag: NormTag = NormTag.L2) -> DomainSpec:
    return DomainSpec(radius, tag)


def norm_ball_nonneg(radius: float, tag: NormTag = NormTag.L2) -> DomainSpec:
    return DomainSpec(radius, tag, nonneg=True)


def membership(domain: DomainSpec, x: GridFunction) -> bool:
    if domain.nonneg and np.min(x.values) < 0.0:
        return False
    return domain.radius == math.inf or norm(x, domain.tag) <= domain.radius


@dataclass(frozen=True)
class ForwardOperator:
    """Linear map between grid functions, P C, with its domain D(F).

    `core` C is a k x input_m matrix. The prolongation P, `prolong` =
    (idx, theta), spreads k-node values onto the output grid by linear
    interpolation: output row i is (1 - theta_i) C[idx_i] + theta_i C[idx_i + 1].
    None is the identity, so the output grid is the k core rows. An
    approximating level keeps its n x input_m core and two weights per output
    node; the output_m x input_m product `matrix` is formed only on request.
    """

    core: np.ndarray
    domain: DomainSpec = field(default_factory=whole_space)
    prolong: tuple[np.ndarray, np.ndarray] | None = None

    def __post_init__(self):
        core = np.array(self.core, dtype=float, order="C")
        if core.ndim != 2:
            raise GridCompatibilityError(f"operator core must be 2-D, got shape {core.shape}")
        core.setflags(write=False)
        object.__setattr__(self, "core", core)
        object.__setattr__(self, "_gram", None)
        if self.prolong is not None:
            idx, theta = self.prolong
            fits = idx.ndim == 1 and idx.shape == theta.shape
            if not (fits and 0 <= idx.min() and idx.max() < core.shape[0] - 1):
                raise GridCompatibilityError(
                    f"prolongation does not fit a core of {core.shape[0]} rows"
                )

    @property
    def input_m(self) -> int:
        return self.core.shape[1]

    @property
    def output_m(self) -> int:
        return self.core.shape[0] if self.prolong is None else self.prolong[0].size

    @property
    def matrix(self) -> np.ndarray:
        """The dense output_m x input_m realization, read-only.

        Without a prolongation it is the core. A prolonged operator forms it
        on each access and does not keep it; solves, evaluations and `apply`
        go through `forward` and `adjoint`.
        """
        if self.prolong is None:
            return self.core
        mat = interpolate_rows(self.prolong, self.core)
        mat.setflags(write=False)
        return mat

    @property
    def nbytes(self) -> int:
        """Bytes the operator keeps: the core, the prolongation weights and a formed Gram."""
        kept = self.core.nbytes
        if self.prolong is not None:
            kept += sum(a.nbytes for a in self.prolong)
        if self._gram is not None:
            kept += self._gram.nbytes
        return kept

    def forward(self, x: np.ndarray) -> np.ndarray:
        """P (C x), nodal values on the output grid; x may be a block of columns."""
        v = self.core @ x
        return v if self.prolong is None else interpolate_rows(self.prolong, v)

    def adjoint(self, v: np.ndarray) -> np.ndarray:
        """C^T (P^T v): the transpose applied to nodal values on the output grid."""
        if self.prolong is not None:  # P^T v sums the output nodes onto the k core rows
            idx, theta = self.prolong
            k = self.core.shape[0]
            v = np.bincount(idx, (1.0 - theta) * v, k) + np.bincount(idx + 1, theta * v, k)
        return self.core.T @ v

    def gram(self) -> np.ndarray:
        """A^T W A, W the output trapezoid weights; read-only and kept.

        Both solvers read it, and solves on the same operator differ only in
        alpha W_X and the right side, so the operator keeps this input_m x
        input_m product, formed on the first call as C^T (P^T W P) C from the
        k core rows in blocks of 1024. P^T W P is tridiagonal; without a
        prolongation it is W. Once formed, G 1 must match A^T (W (A 1)) to
        1e-10 of ||G||_inf (a scale that holds when A 1 = 0), else NumericalError.
        """
        if self._gram is None:
            gram = _tridiagonal_gram(self.core, *self._weight_bands())
            ones = np.ones(self.input_m)
            through_a = self.adjoint(trapezoid_weights(self.output_m) * self.forward(ones))
            gap = float(np.max(np.abs(gram @ ones - through_a)))
            if not gap <= 1e-10 * float(np.max(np.abs(gram).sum(axis=1))):
                raise NumericalError(f"Gram check: G 1 is off A^T W A 1 by {gap:.2e}")
            gram.setflags(write=False)
            object.__setattr__(self, "_gram", gram)
        return self._gram

    def _weight_bands(self) -> tuple[np.ndarray, np.ndarray]:
        """Diagonal and off-diagonal of P^T W P."""
        w = trapezoid_weights(self.output_m)
        k = self.core.shape[0]
        if self.prolong is None:
            return w, np.zeros(k - 1)
        # reference node i adds w_i (1 - theta_i)^2 at idx_i, w_i theta_i^2
        # at idx_i + 1 and w_i (1 - theta_i) theta_i between them
        idx, theta = self.prolong
        lower, upper = w * (1.0 - theta), w * theta
        d = np.bincount(np.concatenate((idx, idx + 1)),
                        np.concatenate((lower * (1.0 - theta), upper * theta)), minlength=k)
        return d, np.bincount(idx, lower * theta, minlength=k - 1)

    def apply(self, x: GridFunction) -> GridFunction:
        if x.node_count != self.input_m:
            x = resample(x, self.input_m)
        return GridFunction(self.forward(x.values))


def _prolongation(k: int, m: int) -> tuple[np.ndarray, np.ndarray] | None:
    """Linear interpolation from the k-node grid onto the m-node grid, as a
    `ForwardOperator` prolongation; None, the identity, when k = m."""
    return None if k == m else interpolation_weights(grid_nodes(k), grid_nodes(m))


def identity_operator(m: int, domain: DomainSpec | None = None) -> ForwardOperator:
    return ForwardOperator(np.eye(m), domain or whole_space())


_BLOCK_ROWS = 64  # quadrature nodes evaluated at once: O(_BLOCK_ROWS * quad_m) scratch
_GRAM_ROWS = 1024  # core rows weighted at once by `_tridiagonal_gram`


def _row_blocks(m: int, block: int = _BLOCK_ROWS):
    return (slice(i, min(i + block, m)) for i in range(0, m, block))


def _ldl(d: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pivots p and ratios r of L D L^T, the symmetric tridiagonal matrix with diagonal d
    and off-diagonal e: D = diag(p), L is unit lower bidiagonal with subdiagonal r (last r 0).
    Callers check p, each for its own condition; after a zero pivot the rest are NaN."""
    p, r, carry = array("d"), array("d"), 0.0  # raw doubles: no float object per row
    for di, ei in zip(memoryview(d), chain(memoryview(e), [0.0])):  # last row: no e
        p.append(pivot := di - carry)
        r.append(ratio := ei / pivot if pivot else math.nan)
        carry = ei * ratio
    return np.frombuffer(p), np.frombuffer(r)


def _ldl_solve(p: np.ndarray, r: np.ndarray, e: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with L D L^T x = b, p, r = `_ldl(d, e)`; b is (k,) or (k, columns), solved in one copy."""
    x = np.array(b, dtype=float)
    rows = x.reshape(len(p), -1)  # a view; a row of a vector is one element
    p, r, e = memoryview(p), memoryview(r), memoryview(e)  # rows index as Python floats
    for i in range(1, len(p)):  # z = L^-1 b
        rows[i] -= r[i - 1] * rows[i - 1]
    rows[-1] /= p[-1]
    for i in range(len(p) - 2, -1, -1):  # x_i = (z_i - e_i x_{i+1}) / p_i
        rows[i] -= e[i] * rows[i + 1]
        rows[i] /= p[i]
    return x


def _tridiagonal_gram(c: np.ndarray, d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """`c.T @ t @ c`, t the symmetric positive definite tridiagonal matrix with diagonal d
    and off-diagonal e.

    With t = L D L^T (`_ldl`) it is B^T B, B = sqrt(D) L^T c, row i of B being
    sqrt(p_i) (c_i + r_i c_{i+1}); with r = 0 (a diagonal t) that is sqrt(p) c
    to the bit, but for the sign of a zero. B is formed a block of rows at a
    time: each block adds a symmetric rank-k update, so the sum is exactly
    symmetric, and the scratch is one block of rows, not a copy of `c`.
    """
    p, r = _ldl(d, e)
    if not np.all(p > 0.0):
        i = int(np.argmin(p > 0.0))
        raise GridCompatibilityError(
            f"Gram weight is not positive definite: pivot {p[i]:g} at row {i}"
        )
    gram = np.zeros((c.shape[1], c.shape[1]))
    for rows in _row_blocks(c.shape[0], _GRAM_ROWS):
        # rows i + 1; past the last row, "clip" repeats it and r = 0 drops it
        block = np.take(c, np.arange(rows.start + 1, rows.stop + 1), axis=0, mode="clip")
        block *= r[rows, None]
        block += c[rows]
        block *= np.sqrt(p[rows])[:, None]
        gram += block.T @ block
        del block  # else the next block is built while this one is alive
    return gram


def integral_matrix(kernel: KernelSpec, quad_m: int) -> np.ndarray:
    """Collocation matrix of x |-> integral K(s, .) x(s) ds.

    Trapezoid quadrature at quad_m nodes; the result is evaluated at the
    same quad_m output nodes, so the matrix is square.
    """
    return _quadrature_matrix(kernel, quad_m, quad_m)


def _quadrature_matrix(kernel: KernelSpec, quad_m: int, input_m: int) -> np.ndarray:
    """`integral_matrix(kernel, quad_m) @ resample_matrix(input_m, quad_m)`.

    Row i sums K(s_j, s_i) w_j times the interpolation row of s_j, which
    holds 1 - theta_j at input node idx_j and theta_j at idx_j + 1. The
    transpose is built a block of quadrature nodes at a time: the kernel
    block G[j, i] = K(s_j, s_i) over every output node enters one product
    P @ G, P the dense (input nodes spanned x block) matrix holding
    w_j (1 - theta_j) and w_j theta_j. With input_m = quad_m those weights
    are exactly 1 and 0, so `integral_matrix` is K(s_j, s_i) w_j to the bit.

    A stationary kernel, K(s_j, s_i) = k(s_j - s_i), is evaluated once on the
    2 quad_m - 1 node offsets (-s[:0:-1], s); with that vector reversed, row j
    of G is its window of quad_m values that starts at quad_m - 1 - j, so a
    block of G is a row gather. On 2^k + 1 grids the node differences are
    exact, and G is the evaluator's to the bit.

    Cost: the kernel at 2 quad_m - 1 offsets if it is stationary, else at
    quad_m^2 points, and 2 c quad_m^2 flops, c the input nodes a block spans
    (about _BLOCK_ROWS (input_m - 1) / (quad_m - 1) + 2; 6 at 8193 x 513).
    Scratch is a few kernel blocks, O(_BLOCK_ROWS * quad_m); no
    quad_m x quad_m array is formed. The result is the F-ordered transpose of
    the accumulator.
    """
    s = grid_nodes(quad_m)
    w = trapezoid_weights(quad_m)
    idx, theta = interpolation_weights(grid_nodes(input_m), s)
    if kernel.profile is not None:
        k = np.asarray(kernel.profile(np.concatenate((-s[:0:-1], s))), dtype=float)
        windows = sliding_window_view(k[::-1].copy(), quad_m)
    at = np.zeros((input_m, quad_m))
    for js in _row_blocks(quad_m):
        first = idx[js.start]
        cols = np.arange(js.stop - js.start)
        p = np.zeros((idx[js.stop - 1] + 2 - first, cols.size))
        p[idx[js] - first, cols] = w[js] * (1.0 - theta[js])
        p[idx[js] + 1 - first, cols] += w[js] * theta[js]
        # no `del g` before this: freeing the block first made it ~2x slower
        if kernel.profile is None:
            g = np.asarray(kernel.evaluator(s[js, None], s[None, :]), dtype=float)
        else:
            g = windows[quad_m - 1 - js.start - cols]
        at[first : first + p.shape[0]] += p @ g
    return at.T


@dataclass(frozen=True)
class OperatorFamily:
    """Approximating operators F_n plus the reference F they converge to.

    All levels share the reference output grid; `operator_at` caches the
    assembled operators because studies revisit levels repeatedly. Each
    level operator carries its own domain D(F_n).
    """

    levels: tuple[int, ...]
    reference: ForwardOperator
    _build: Callable[[int], ForwardOperator]

    def __post_init__(self):
        if not self.levels:
            raise GridCompatibilityError("family needs at least one level")
        if list(self.levels) != sorted(set(self.levels)):
            raise GridCompatibilityError("family levels must be strictly increasing")
        object.__setattr__(self, "_cache", {})

    def operator_at(self, n: int) -> ForwardOperator:
        if n not in self.levels:
            raise GridCompatibilityError(f"level {n} not in family levels {self.levels}")
        cache = self._cache
        if n not in cache:
            cache[n] = self._build(n)
        return cache[n]


def make_quadrature_family(
    kernel: KernelSpec,
    levels: Sequence[int],
    m_ref: int,
    input_m: int = 65,
    domain: DomainSpec | None = None,
    shrinking_domains: bool = False,
) -> OperatorFamily:
    """Family F_n = n-node trapezoid quadrature of an integral operator.

    Level outputs are resampled onto the reference grid (m_ref nodes) so
    that || F_n(x) - F(x) || is a plain discrete L2 norm there. With
    `shrinking_domains` the level domains are the spec'd strict
    subdomains: balls of radius rho * (1 - 1/n) inside the reference ball.

    A level is P Q_n: Q_n, its n x input_m quadrature matrix, is the core,
    and P the two-weight prolongation onto the reference grid.
    """
    levels = tuple(int(n) for n in levels)
    if max(levels) > m_ref:
        raise GridCompatibilityError("reference grid must be at least as fine as levels")
    dom = domain or whole_space()
    if shrinking_domains and dom.radius == math.inf:
        raise GridCompatibilityError("shrinking domains need a norm-ball reference domain")

    def build(n: int) -> ForwardOperator:
        core = _quadrature_matrix(kernel, n, input_m)
        return ForwardOperator(core, domain_at(n), _prolongation(n, m_ref))

    def domain_at(n: int) -> DomainSpec:
        if shrinking_domains:
            return replace(dom, radius=dom.radius * (1.0 - 1.0 / n))
        return dom

    reference = ForwardOperator(_quadrature_matrix(kernel, m_ref, input_m), dom)
    return OperatorFamily(levels, reference, build)


def make_constant_family(
    operator: ForwardOperator, levels: Sequence[int]
) -> OperatorFamily:
    """Family with F_n = F at every level.

    Isolates the effect of data and alpha schedules from operator
    discretization; the uniform gap is exactly zero.
    """
    levels = tuple(int(n) for n in levels)
    return OperatorFamily(levels, operator, lambda n: operator)


def uniform_gap(
    family: OperatorFamily, n: int, samples: Sequence[GridFunction]
) -> float:
    """Sampled sup of ||F_n(x) - F(x)||_L2 over the given sample set.

    The samples, each resampled onto the input grid as `apply` does, are the
    columns of one input_m x S block, so F_n and F take one product each.
    """
    if not samples:
        raise GridCompatibilityError("uniform_gap needs at least one sample")
    op, m = family.operator_at(n), family.reference.input_m
    for i, x in enumerate(samples):
        if not membership(op.domain, x):
            raise GridCompatibilityError(f"sample {i} lies outside dom(F_{n})")
    block = np.column_stack([(x if x.node_count == m else resample(x, m)).values for x in samples])
    diff = op.forward(block) - family.reference.forward(block)
    return math.sqrt(float(np.max(trapezoid_weights(op.output_m) @ (diff * diff))))


def standard_samples(
    input_m: int, rho: float = 1.0, tag: NormTag = NormTag.L2
) -> list[GridFunction]:
    """Deterministic probe set inside the norm ball of radius rho.

    Mixes smooth, oscillatory, and near-boundary profiles; used by the
    uniform-gap diagnostics and the domain-membership checks.
    """
    profiles = [
        lambda x: np.sin(np.pi * x),
        lambda x: np.sin(3 * np.pi * x),
        lambda x: np.cos(2 * np.pi * x),
        lambda x: x,
        lambda x: 1.0 - x,
        lambda x: 4.0 * x * (1.0 - x),
        lambda x: np.ones_like(x),
        lambda x: np.exp(x) - 1.0,
    ]
    scales = [0.999, 0.9, 0.75, 0.6, 0.5, 0.4, 0.3, 0.2]
    out = []
    for f, scale in zip(profiles, scales):
        g = from_callable(f, input_m)
        size = norm(g, tag)
        if size == 0.0:
            continue
        out.append(g * (scale * rho / size))
    return out
