"""Trace invariants Tr(rho^m) by closed contractions, Casimir invariants,
and the multiplicity pattern of the spectrum read from the same report.

Tr(rho^m) has two routes.  The direct one is
:func:`~blochvec.positivity.matrix_trace_powers` of the rebuilt density
matrix :func:`~blochvec.coherence.from_coherence`: multiplying rho by
itself is the product rule of the (identity, lam_k) decomposition, f and
d together, carried out on N x N matrices.  This module holds the closed
one, contraction formulas for the fully symmetrized traces

    T_k(n) = Tr_sym(lam_{i_1} ... lam_{i_k}) n_{i_1} ... n_{i_k}
           = Tr((n . lam)^k),

built once per state by :func:`closed_invariants` from the d-chain of n
(:meth:`BasisSet.d_chain`: the basis applies its own d tensor) as far as
they are read, then sums the binomial expansion of Tr(rho^m).  The two
routes share only the basis; agreement with direct eigenvalue sums is
enforced by the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb
from operator import mul

import numpy as np

from .coherence import CoherenceState, coherence_scale
from .errors import (
    EPS_ZERO,
    DomainError,
    LayoutError,
    StarUndefinedError,
    UnsupportedOrderError,
)
from .su_basis import BasisSet, checked_int

MAX_CLOSED_ORDER = 9

#: Highest order of the first level of a report (see :class:`ClosedInvariants`):
#: c_2..c_4 and T_0..T_4 need one N x N product.
_FIRST_ORDER = 4


@lru_cache(maxsize=None)
def trace_power_weights(dim: int) -> tuple[tuple[float, ...], ...]:
    """Row m = (C(m,k) c^k for k = 0..m), m = 0..9, of one dimension: the
    weights of Tr(rho^m) = (1/N^m) sum_k C(m,k) c^k T_k in
    :meth:`ClosedInvariants.trace_power`, which the coherence gate's error
    estimate reads too."""
    c = coherence_scale(dim)
    return tuple(tuple(comb(m, k) * c**k for k in range(m + 1))
                 for m in range(MAX_CLOSED_ORDER + 1))


@dataclass(frozen=True, eq=False)
class CasimirSet:
    """Casimir invariant values c_m of one state, keyed by order m.  Sets
    compare and hash by identity, as the other records that hold data."""

    dim: int
    values: dict[int, float]

    def __getitem__(self, m: int) -> float:
        if m not in self.values:
            raise UnsupportedOrderError(
                f"no Casimir of order {m}; this set holds orders {sorted(self.values)}")
        return self.values[m]


@dataclass(frozen=True, eq=False)
class ClosedInvariants:
    """The closed invariants of one coherence state, from one d-chain:
    ``chain`` = (0, 0, c_2, ..., c_9) of :meth:`BasisSet.d_chain`,
    ``T`` = (T_0, ..., T_9), e.g. T_2 = 2 n.n and T_3 = 2 d_ijk n_i n_j n_k,
    and ``S234`` of :func:`~blochvec.positivity.closed_S234`.  ``trace_power``
    and ``casimirs`` refuse the orders that their public views refuse.

    At N <= 4 a report is built as far as it is read.  It is made with the
    values of order <= 4 (c_2..c_4, T_0..T_4, S_2..S_4 and Tr(rho^2..4),
    from one N x N product), and it keeps X = n.lam and W of the d-chain,
    read-only, to add the values of order 5..9 (two more products) the
    first time one is read: ``chain``, ``T``, :meth:`degeneracy`, or
    :meth:`trace_power` of an order >= 5.  At N >= 5
    it is made whole.  Each Tr(rho^m) is computed once, when its level is
    built.  Reports compare and hash by identity, as the other records
    that hold arrays."""

    dim: int
    S234: tuple[float, float, float]
    _chain: tuple[float, ...] = field(repr=False)
    _T: tuple[float, ...] = field(repr=False)
    _powers: tuple[float, ...] = field(repr=False)  # Tr(rho^m) at index m
    _stage: tuple | None = field(repr=False)  # (basis, X, W) to build orders 5..9 from

    @property
    def chain(self) -> tuple[float, ...]:
        return self._to_order(MAX_CLOSED_ORDER)._chain

    @property
    def T(self) -> tuple[float, ...]:
        return self._to_order(MAX_CLOSED_ORDER)._T

    def _to_order(self, m: int) -> ClosedInvariants:
        """This report, with its values up to order ``m`` built;
        :class:`DomainError` when one of them is not finite."""
        if m >= len(self._powers):
            # from the first level only, which no thread changes: a thread
            # that builds a level another has built sets the same values
            basis, X, W = self._stage
            ch = self._chain[:_FIRST_ORDER + 1]
            ch += basis._chain_tail(X, W, ch[4])
            T = self._T[:_FIRST_ORDER + 1] + _high_traces(self.dim, ch)
            _check_finite(T)
            # _powers last: a thread that sees it built sees _chain and _T so
            object.__setattr__(self, "_chain", ch)
            object.__setattr__(self, "_T", T)
            object.__setattr__(self, "_powers", _closed_trace_powers(self.dim, T))
        return self

    def trace_power(self, m: int) -> float:
        """Tr(rho^m) of :func:`trace_power_closed`, from the weights of
        :func:`trace_power_weights`; the coherence gate feeds these to
        Newton's identities for S_5..S_N."""
        m = checked_int(m, 2, MAX_CLOSED_ORDER, UnsupportedOrderError, "closed trace power order")
        return self._to_order(m)._powers[m]

    def casimirs(self, up_to: int) -> CasimirSet:
        """c_2 .. c_up_to of :func:`casimirs`."""
        N = self.dim
        up_to = checked_int(up_to, 2, None, UnsupportedOrderError, "casimir order")
        if up_to >= 3 and N < 3:
            raise StarUndefinedError("cubic and higher Casimirs require N >= 3")
        if up_to > min(N, MAX_CLOSED_ORDER):
            raise UnsupportedOrderError(f"casimir order limited to min(N, 9) = "
                                        f"{min(N, MAX_CLOSED_ORDER)}, got {up_to}")
        kappa = coherence_scale(N) / (N - 2) if N > 2 else 0.0
        # up_to <= N: a report at N <= 4 holds the orders asked for already
        return CasimirSet(N, {m: kappa ** (m - 2) * self._chain[m] for m in range(2, up_to + 1)})

    def degeneracy(self) -> tuple[int, ...] | None:
        """Multiplicities of the distinct eigenvalues of rho, largest
        eigenvalue first, e.g. (1, 2) for (0.8, 0.1, 0.1); None when they do
        not resolve.  Needs T_0..T_(2N-1), so 2 <= N <= 5.

        rho has eigenvalues (1 + c mu)/N, where T_k = sum_i mu_i^k are the
        power sums of the eigenvalues mu of n.lam.  Scaled free of |n| to
        t_k = T_k / s^k, s^2 = T_2 / N, the Hankel matrix H_ij = t_(i+j)
        (i, j < N) has rank r = the number of distinct mu (Hermite's
        quadratic form; Basu, Pollack & Roy, *Algorithms in Real Algebraic
        Geometry*, ch. 4), counted as singular values above EPS_ZERO times
        the largest.  The distinct mu are the roots of the monic degree-r
        polynomial orthogonal to t, i.e. the eigenvalues of the symmetric
        pencil (t_(i+j+1), t_(i+j)) for i, j < r, and their multiplicities
        are N times the squared first components of its eigenvectors
        (Golub & Welsch, Math. Comp. 23, 1969), which sum to N.  A pattern
        is returned only if every multiplicity lies within sqrt(EPS_ZERO)
        of a positive integer: the rank cutoff acts on squared eigenvalue
        gaps.  |n| <= EPS_ZERO counts as the maximally mixed state, (N,).
        """
        N = self.dim
        if 2 * N - 1 > MAX_CLOSED_ORDER:
            raise UnsupportedOrderError(f"degeneracy needs T_0..T_{2 * N - 1}; N <= 5, got {N}")
        if self.chain[2] <= EPS_ZERO**2:
            return (N,)
        half = (self.T[2] / N) ** (np.arange(len(self.T)) / 4.0)  # s^k in two halves:
        t = np.asarray(self.T) / half / half  # s^9 overflows from |n| of about 1e34
        H = t[np.add.outer(np.arange(N), np.arange(N + 1))]
        sv = np.linalg.svd(H[:, :N], compute_uv=False)
        r = int(np.count_nonzero(sv > EPS_ZERO * sv[0]))
        try:
            L = np.linalg.cholesky(H[:r, :r])
        except np.linalg.LinAlgError:
            return None
        _, Q = np.linalg.eigh(np.linalg.solve(L, np.linalg.solve(L, H[:r, 1:r + 1]).T))
        m = N * Q[0, ::-1] ** 2
        k = np.rint(m)
        if np.any(k < 1) or np.any(np.abs(m - k) > np.sqrt(EPS_ZERO)):
            return None
        return tuple(int(v) for v in k)


def closed_invariants(state: CoherenceState, basis: BasisSet) -> ClosedInvariants:
    """The closed invariants of ``state``; :class:`LayoutError` unless
    ``basis`` has the state's dimension.  The report of the last state
    asked for is kept, so the views (:func:`trace_power_closed`,
    :func:`casimirs`, :func:`~blochvec.positivity.closed_S234`) and the
    coherence gate at N <= 9
    (:func:`~blochvec.positivity.check_positivity_coherence`) that read
    one state in a row compute its d-chain once.  The report is built to
    order 4 here and to order 9 on its first read of a higher order (see
    :class:`ClosedInvariants`); a value that is not finite raises
    :class:`DomainError` when its level is built."""
    if state.dim != basis.dim:
        raise LayoutError("state and basis must share one dimension")
    return _closed_invariants(basis, state.n.tobytes())


@lru_cache(maxsize=1)
def _closed_invariants(basis: BasisSet, n_bytes: bytes) -> ClosedInvariants:
    """The report of :func:`closed_invariants`, keyed by the basis (by
    identity) and the bytes of n; :class:`DomainError` when a value is not
    finite (|n| beyond about 1e38; :meth:`BasisSet.d_chain` refuses the
    longest vectors before it forms a matrix).

    The coherence gate reads orders up to N.  At N <= 4 the report is
    built to order 4 from the first stage of the d-chain, and keeps what
    the second stage needs; at N >= 5 it is built to order 9 from the whole
    d-chain."""
    N = basis.dim
    n = np.frombuffer(n_bytes)
    if N <= _FIRST_ORDER:
        p, wn, ww, X, W = basis._chain_head(n)
        ch, stage = (0.0, 0.0, p, wn, ww), (basis, X, W)
    else:
        ch, stage = basis.d_chain(n), None
        p, wn, ww = ch[2], ch[3], ch[4]
    T = (float(N), 0.0, 2.0 * p, 2.0 * wn, (4.0 / N) * p**2 + 2.0 * ww)
    if stage is None:
        T += _high_traces(N, ch)
    c = coherence_scale(N)
    S2 = (N - 1) / (2.0 * N) * (1.0 - p)
    S3 = (N - 1) / (6.0 * N**2) * ((N - 2) * (1.0 - 3.0 * p) + 2.0 * c * wn)
    S4 = (N - 1) / (24.0 * N**3) * (
        (N - 2) * (N - 3) * (1.0 - 6.0 * p)
        + 8.0 * (N - 3) * c * wn
        + 3.0 * (N - 1) * (N - 2) * p**2
        - 6.0 * c**2 * ww
    )
    S234 = (S2, S3, S4)
    _check_finite(T + S234)
    return ClosedInvariants(N, S234, ch, T, _closed_trace_powers(N, T), stage)


def _high_traces(N: int, ch: tuple[float, ...]) -> tuple[float, ...]:
    """T_5..T_9 from the d-chain ``ch`` = (0, 0, c_2, ..., c_9)."""
    p, wn, ww = ch[2], ch[3], ch[4]
    return (
        (8.0 / N) * p * wn + 2.0 * ch[5],
        (8.0 / N**2) * p**3 + (12.0 / N) * p * ww + 2.0 * ch[6],
        (24.0 / N**2) * p**2 * wn
        + (12.0 / N) * p * ch[5]
        + (4.0 / N) * wn * ww
        + 2.0 * ch[7],
        (16.0 / N**3) * p**4
        + (48.0 / N**2) * p**2 * ww
        + (4.0 / N) * ww**2
        + (16.0 / N) * p * ch[6]
        + 2.0 * ch[8],
        (64.0 / N**3) * p**3 * wn
        + (32.0 / N**2) * p * ww * wn
        + (48.0 / N**2) * p**2 * ch[5]
        + (8.0 / N) * ww * ch[5]
        + (16.0 / N) * p * ch[7]
        + 2.0 * ch[9],
    )


def _check_finite(values: tuple[float, ...]) -> None:
    if not all(map(math.isfinite, values)):
        raise DomainError("the closed invariants of this coherence vector overflow")


def _closed_trace_powers(N: int, T: tuple[float, ...]) -> tuple[float, ...]:
    """Tr(rho^m) at index m, for m < len(T): N and 1 exactly, then
    (1/N^m) sum_k C(m,k) c^k T_k."""
    weights = trace_power_weights(N)
    return (float(N), 1.0, *[sum(map(mul, weights[m], T)) / N**m for m in range(2, len(T))])


def trace_power_closed(state: CoherenceState, m: int, basis: BasisSet) -> float:
    """Tr(rho^m) = (1/N^m) sum_k C(m,k) c^k T_k, for m in 2..9.

    T_0 = N and T_1 = 0; for m = 2, 3 this reduces to
    Tr(rho^2) = (1/N)[1 + (N-1) n.n] and
    Tr(rho^3) = (1/N^2)[1 + 3(N-1) n.n + (N-1)(N-2) (n*n).n].
    """
    return closed_invariants(state, basis).trace_power(m)


def casimirs(state: CoherenceState, basis: BasisSet, up_to: int) -> CasimirSet:
    """Casimir invariants c_2 .. c_up_to of a state.

    c_2 = n.n and c_3 = (n*n).n; for m >= 4, c_m is the pure d-chain term
    of T_m (the unique term carrying m - 2 d-tensors) rescaled by
    (c/(N-2))^(m-2) so that the star-product convention of c_2, c_3
    extends: every c_m equals 1 on pure states.
    """
    return closed_invariants(state, basis).casimirs(up_to)


def casimir_operator(m: int, basis: BasisSet) -> np.ndarray:
    """The quadratic or cubic Casimir operator on the defining representation.

    C_2 = sum_a lam_a lam_a (flat metric delta_ab, which is proportional to
    the Killing form for su(N)) and C_3 = sum d_abc lam_a lam_b lam_c; both
    come out proportional to the identity, C_3 = 2(N^2-1)(N^2-4)/N^2
    (Haber, arXiv:1912.13302).  The product rule
    sum_c d_abc lam_c = {lam_a, lam_b}/2 - (2/N) delta_ab 1 gives
    C_3 = sum_ab lam_a lam_b {lam_a, lam_b}/2 - (2/N) C_2 in O(N^4) memory.
    """
    m = checked_int(m, 2, 3, UnsupportedOrderError, "casimir operator order")
    elems = basis.elements
    c2 = np.einsum("aij,ajk->ik", elems, elems)
    if m == 2:
        return c2
    quartic = 0.0
    for lam in elems:
        left = lam @ elems  # lam_a lam_b for every b
        quartic = quartic + np.einsum("bij,bjk->ik", left, left + elems @ lam)
    return quartic / 2.0 - (2.0 / basis.dim) * c2

