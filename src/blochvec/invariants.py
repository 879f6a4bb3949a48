"""Trace invariants Tr(rho^m) by closed contractions, Casimir invariants,
and spectrum-degeneracy diagnostics.

Tr(rho^m) has two routes.  The direct one is
:func:`~blochvec.positivity.matrix_trace_powers` of the rebuilt density
matrix :func:`~blochvec.coherence.from_coherence`: multiplying rho by
itself is the product rule of the (identity, lam_k) decomposition, f and
d together, carried out on N x N matrices.  This module holds the closed
one, contraction formulas for the fully symmetrized traces

    T_k(n) = Tr_sym(lam_{i_1} ... lam_{i_k}) n_{i_1} ... n_{i_k}
           = Tr((n . lam)^k),

built from the d-chain contractions of n (:meth:`StructureTensors.d_chain`,
traces of N x N operator products, computed once per state), then sums
the binomial expansion of Tr(rho^m).  The two routes share only the
basis; agreement with direct eigenvalue sums is enforced by the test
suite.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from .coherence import CoherenceState, coherence_scale
from .errors import (
    DimensionError,
    DomainError,
    LayoutError,
    StarUndefinedError,
    UnsupportedOrderError,
)
from .su_basis import BasisSet, StructureTensors

MAX_CLOSED_ORDER = 9


def _sym_trace_values(n: np.ndarray, tensors: StructureTensors) -> list[float]:
    """[T_0, ..., T_9] with T_k = Tr((n.lam)^k) from closed contractions."""
    N = tensors.dim
    c = tensors.d_chain(n)
    p, wn, ww = c[2], c[3], c[4]
    return [
        float(N),
        0.0,
        2.0 * p,
        2.0 * wn,
        (4.0 / N) * p**2 + 2.0 * ww,
        (8.0 / N) * p * wn + 2.0 * c[5],
        (8.0 / N**2) * p**3 + (12.0 / N) * p * ww + 2.0 * c[6],
        (24.0 / N**2) * p**2 * wn
        + (12.0 / N) * p * c[5]
        + (4.0 / N) * wn * ww
        + 2.0 * c[7],
        (16.0 / N**3) * p**4
        + (48.0 / N**2) * p**2 * ww
        + (4.0 / N) * ww**2
        + (16.0 / N) * p * c[6]
        + 2.0 * c[8],
        (64.0 / N**3) * p**3 * wn
        + (32.0 / N**2) * p * ww * wn
        + (48.0 / N**2) * p**2 * c[5]
        + (8.0 / N) * ww * c[5]
        + (16.0 / N) * p * c[7]
        + 2.0 * c[9],
    ]


def symmetric_trace_contraction(k: int, n: np.ndarray,
                                tensors: StructureTensors) -> float:
    """The symmetrized k-factor trace contracted with n, for k in 2..9.

    For example T_2 = 2 n.n, T_3 = 2 d_ijk n_i n_j n_k, and
    T_5 = (4/N)(delta d + delta d) + 2 d_ijm d_kln d_mnq contracted with
    five copies of n.
    """
    if not 2 <= k <= MAX_CLOSED_ORDER:
        raise UnsupportedOrderError(f"symmetric traces implemented for k in 2..9, got {k}")
    if np.iscomplexobj(n):
        raise DomainError("symmetric traces take a real vector; got a complex one")
    n = np.asarray(n, dtype=float)
    if n.shape != (tensors.dim**2 - 1,):
        raise LayoutError(f"vector must have length {tensors.dim**2 - 1}")
    return _sym_trace_values(n, tensors)[k]


def trace_power_closed(state: CoherenceState, m: int,
                       tensors: StructureTensors) -> float:
    """Tr(rho^m) = (1/N^m) sum_k C(m,k) c^k T_k, for m in 2..9.

    T_0 = N and T_1 = 0; for m = 2, 3 this reduces to
    Tr(rho^2) = (1/N)[1 + (N-1) n.n] and
    Tr(rho^3) = (1/N^2)[1 + 3(N-1) n.n + (N-1)(N-2) (n*n).n].
    """
    if not 2 <= m <= MAX_CLOSED_ORDER:
        raise UnsupportedOrderError(f"closed trace powers implemented for m in 2..9, got {m}")
    if state.dim != tensors.dim:
        raise LayoutError("state and tensors must share one dimension")
    N = state.dim
    c = coherence_scale(N)
    T = _sym_trace_values(state.n, tensors)
    return float(sum(comb(m, k) * c**k * T[k] for k in range(m + 1)) / N**m)


@dataclass(frozen=True)
class CasimirSet:
    """Casimir invariant values c_m of one state, keyed by order m."""

    dim: int
    values: dict[int, float]

    def __getitem__(self, m: int) -> float:
        return self.values[m]


def casimirs(state: CoherenceState, tensors: StructureTensors,
             up_to: int) -> CasimirSet:
    """Casimir invariants c_2 .. c_up_to of a state.

    c_2 = n.n and c_3 = (n*n).n; for m >= 4, c_m is the pure d-chain term
    of T_m (the unique term carrying m - 2 d-tensors) rescaled by
    (c/(N-2))^(m-2) so that the star-product convention of c_2, c_3
    extends: every c_m equals 1 on pure states.
    """
    N = state.dim
    if tensors.dim != N:
        raise LayoutError("state and tensors must share one dimension")
    if up_to < 2:
        raise UnsupportedOrderError("casimir order starts at 2")
    if up_to >= 3 and N < 3:
        raise StarUndefinedError("cubic and higher Casimirs require N >= 3")
    if up_to > min(N, MAX_CLOSED_ORDER):
        raise UnsupportedOrderError(
            f"casimir order limited to min(N, 9) = {min(N, MAX_CLOSED_ORDER)}, got {up_to}"
        )
    chains = tensors.d_chain(state.n)
    kappa = coherence_scale(N) / (N - 2) if N > 2 else 0.0
    values = {m: kappa ** (m - 2) * chains[m] for m in range(2, up_to + 1)}
    return CasimirSet(dim=N, values=values)


def casimir_operator(m: int, basis: BasisSet) -> np.ndarray:
    """The quadratic or cubic Casimir operator on the defining representation.

    C_2 = sum_a lam_a lam_a (flat metric delta_ab, which is proportional to
    the Killing form for su(N)) and C_3 = sum d_abc lam_a lam_b lam_c; both
    come out proportional to the identity, C_3 = 2(N^2-1)(N^2-4)/N^2
    (Haber, arXiv:1912.13302).  The product rule
    sum_c d_abc lam_c = {lam_a, lam_b}/2 - (2/N) delta_ab 1 gives
    C_3 = sum_ab lam_a lam_b {lam_a, lam_b}/2 - (2/N) C_2 in O(N^4) memory.
    """
    if m not in (2, 3):
        raise UnsupportedOrderError("casimir operators implemented for m in {2, 3}")
    elems = basis.elements
    c2 = np.einsum("aij,ajk->ik", elems, elems)
    if m == 2:
        return c2
    quartic = 0.0
    for lam in elems:
        left = lam @ elems  # lam_a lam_b for every b
        quartic = quartic + np.einsum("bij,bjk->ik", left, left + elems @ lam)
    return quartic / 2.0 - (2.0 / basis.dim) * c2


class Degeneracy3(enum.Enum):
    THREE_FOLD_DEGENERATE = "ThreeFoldDegenerate"
    TWO_LARGE_ONE_SMALL = "TwoLargeOneSmall"
    TWO_SMALL_ONE_LARGE = "TwoSmallOneLarge"
    NON_DEGENERATE = "NonDegenerate"


def classify_degeneracy_3(c2: float, c3: float, tol: float = 1e-9) -> Degeneracy3:
    """Spectrum-degeneracy diagnosis for a three-level state from c_2, c_3.

    A degenerate pair forces c_3 = -(c_2)^(3/2) when the pair is larger
    than the remaining eigenvalue and +(c_2)^(3/2) when smaller; c_2 = 0
    means a fully degenerate spectrum.
    """
    if c2 < -tol:
        raise DomainError(f"c2 = n.n must be nonnegative, got {c2}")
    if c2 <= tol:
        return Degeneracy3.THREE_FOLD_DEGENERATE
    bound = c2**1.5
    scale = max(1.0, bound)
    if abs(c3 + bound) <= tol * scale:
        return Degeneracy3.TWO_LARGE_ONE_SMALL
    if abs(c3 - bound) <= tol * scale:
        return Degeneracy3.TWO_SMALL_ONE_LARGE
    return Degeneracy3.NON_DEGENERATE


class Degeneracy4(enum.Enum):
    PATTERN_ABBB = "PatternABBB"
    PATTERN_AABB = "PatternAABB"
    UNRESOLVED = "Unresolved"


@lru_cache(maxsize=1)
def _abbb_reference_constants() -> tuple[float, float]:
    """(|c3|/c2^1.5, c4/c2^2) measured on a reference (a, b, b, b) state."""
    from .su_basis import build_gellmann_basis, gellmann_tensors
    from .coherence import to_coherence

    basis = build_gellmann_basis(4)
    tensors = gellmann_tensors(4)
    rho = np.diag([0.7, 0.1, 0.1, 0.1]).astype(complex)
    cas = casimirs(to_coherence(rho, basis), tensors, up_to=4)
    return abs(cas[3]) / cas[2] ** 1.5, cas[4] / cas[2] ** 2


def classify_degeneracy_4(cas: CasimirSet, tol: float = 1e-9) -> Degeneracy4:
    """Degeneracy pattern of a four-level spectrum from c_2, c_3, c_4.

    Spectrum (a, b, b, b) makes every c_i proportional to |n|^i, with
    proportionality constants calibrated on a reference diagonal state;
    (a, a, b, b) zeroes every Casimir beyond the quadratic.  Spectra of
    the form (a, b, c, c) or non-degenerate ones are reported unresolved.
    The fully degenerate state (n = 0) trivially matches the (a, b, b, b)
    proportionality and is reported as such.
    """
    if cas.dim != 4:
        raise DimensionError(f"four-level classifier needs dim 4, got {cas.dim}")
    if not {2, 3, 4} <= set(cas.values):
        raise UnsupportedOrderError("classifier needs c2, c3 and c4")
    c2, c3, c4 = cas[2], cas[3], cas[4]
    k3, k4 = _abbb_reference_constants()
    scale = max(1.0, c2**2)
    if abs(abs(c3) - k3 * c2**1.5) <= tol * scale and abs(c4 - k4 * c2**2) <= tol * scale:
        return Degeneracy4.PATTERN_ABBB
    if c2 > tol and abs(c3) <= tol * scale and abs(c4) <= tol * scale:
        return Degeneracy4.PATTERN_AABB
    return Degeneracy4.UNRESOLVED
