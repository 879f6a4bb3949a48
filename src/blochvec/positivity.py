"""Positive semidefiniteness via characteristic-polynomial coefficients.

The characteristic polynomial of an N x N matrix A is

    det(A - x 1) = x^N - S_1 x^(N-1) + S_2 x^(N-2) - ... + (-1)^N S_N,

with S_k = e_k(lambda) the elementary symmetric polynomials of the
eigenvalues.  Newton's identities give them from the power traces,

    S_k = (1/k) [Tr(A) S_{k-1} - Tr(A^2) S_{k-2} + ... + (-1)^{k-1} Tr(A^k)].

For a Hermitian matrix (real spectrum) A is positive semidefinite exactly
when every S_k >= 0, and the number of sign changes in the coefficient
sequence (1, -S_1, S_2, ...) equals the number of strictly positive
eigenvalues.

Two routes compute the S_k, and the loop of :func:`positivity_verdict`
judges them both.  The coherence gate decides a state with N <= 9 by the
paper's region S_k(n) >= 0 in the closed Casimir invariants of
:func:`~blochvec.invariants.closed_invariants`, where the same loop, run on
error intervals, finds each S_k in one verdict class (see
:func:`_closed_symmetric_functions`).  Every matrix, and the rebuilt
operator where the closed S_k stay in doubt or N >= 10, goes through
:func:`symmetric_functions`: e_k of the spectrum from one LAPACK call,
which keeps the sign of small S_k where the power-trace recursion loses it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from operator import mul

import numpy as np

from .coherence import (
    CoherenceState,
    coherence_scale,
    from_coherence,
    require_hermitian,
)
from .errors import EPS_POS, EPS_ZERO, MAX_TOL, DomainError, LayoutError
from .invariants import (
    MAX_CLOSED_ORDER,
    closed_invariants,
    trace_power_weights,
)
from .su_basis import (
    BasisSet,
    checked_complex,
    checked_dim,
    checked_float,
    checked_int,
    checked_real,
)

#: Safety factor of the closed route's rounding-error estimate (see
#: :func:`_closed_symmetric_functions`).  On spectra with an exact zero
#: next to an eigenvalue of 1e-2..1e-8, 0.25 already let no wrong verdict
#: through at N <= 4, nor 0.05 at N = 5..9; 0.05 let a few through at N = 3.
#: The determinant that replaces a lone ambiguous S_N erred by at most
#: 0.074 times its estimate taken with a factor of 1.
_CLOSED_ERROR_GAMMA = 4.0
_UNIT_ROUNDOFF = 2.0**-53


class Verdict(enum.Enum):
    PSD = "PSD"
    NOT_PSD = "NotPSD"
    BOUNDARY = "Boundary"


@dataclass(frozen=True, eq=False)
class SymFnSequence:
    """Characteristic-polynomial coefficients S_1..S_N with the verdict.
    ``S`` is a nonempty real sequence of
    :func:`~blochvec.su_basis.checked_real`, held as a frozen copy."""

    dim: int
    S: np.ndarray
    sign_changes: int
    verdict: Verdict

    def __post_init__(self):
        # a frozen copy: the caller's array stays writable
        S = np.array(checked_real(self.S, None, "coefficient sequence"))
        S.setflags(write=False)
        object.__setattr__(self, "S", S)

    @property
    def is_psd(self) -> bool:
        return self.verdict is not Verdict.NOT_PSD


def newton_symmetric_functions(traces) -> np.ndarray:
    """Elementary symmetric functions S_1..S_N from power traces Tr(A^1..A^N),
    a nonempty real sequence of :func:`~blochvec.su_basis.checked_real`."""
    traces = checked_real(traces, None, "power traces")
    # (-1)^(j-1) p_j, for j = 1..N; the sign flips are exact
    signed = [p if j % 2 else -p for j, p in enumerate(traces.tolist(), start=1)]
    S = [1.0]
    for k in range(1, len(signed) + 1):
        acc = 0.0
        for j in range(1, k + 1):
            acc += signed[j - 1] * S[k - j]
        S.append(acc / k)
    return np.array(S[1:])


def matrix_trace_powers(mat: np.ndarray, up_to: int) -> np.ndarray:
    """[Tr(A), Tr(A^2), ..., Tr(A^up_to)] (real parts) by iterated
    multiplication A^(m+1) = A^m A.

    The diagonal of each power is copied into one (up_to, N) buffer, summed
    row by row at the end, so no more than one N x N power is held at a
    time.  ``up_to`` must be an integer >= 0, else :class:`DomainError`, and
    ``mat`` a square matrix of :func:`~blochvec.su_basis.checked_complex`.
    """
    up_to = checked_int(up_to, 0, None, DomainError, "number of power traces")
    mat = checked_complex(mat, None, "matrix")
    diagonals = np.empty((up_to, mat.shape[0]), dtype=complex)
    power = mat
    for m in range(up_to):
        diagonals[m] = power.diagonal()
        if m + 1 < up_to:
            power = power @ mat
    return diagonals.sum(axis=1).real


def symmetric_functions(mat: np.ndarray) -> np.ndarray:
    """S_1..S_N of a Hermitian matrix (hermiticity is checked and required:
    the sign-change eigenvalue count assumes a real spectrum).

    S_k = e_k(lambda) of the spectrum from one LAPACK call
    (``np.linalg.eigvalsh``, a Householder reduction, backward stable),
    by Vieta's recurrence e_j <- e_j + lambda_i e_(j-1), j descending,
    over the ascending eigenvalues.  No power traces are formed, so small
    S_k keep their sign where Newton's identities lose it (from N = 9 on).
    """
    e = [1.0]
    for lam in np.linalg.eigvalsh(require_hermitian(mat)).tolist():
        e.append(lam * e[-1])
        for j in range(len(e) - 2, 0, -1):
            e[j] += lam * e[j - 1]
    return np.array(e[1:])


def closed_S234(state: CoherenceState, basis: BasisSet) -> tuple[float, float, float]:
    """(S_2, S_3, S_4) of a trace-one operator straight from its coherence vector.

    S_2 = (N-1)/(2N) [1 - n.n],
    S_3 = (N-1)(N-2)/(6 N^2) [1 - 3 n.n + 2 (n*n).n],
    S_4 = (N-1)(N-2)(N-3)/(24 N^3) [1 - 6 n.n + 8 (n*n).n
          + 3(N-1)/(N-3) (n.n)^2 - 6(N-2)/(N-3) (n*n).(n*n)].

    Terms are evaluated as raw d-contractions with explicit (N-2), (N-3)
    factors, so S_3 = S_4 = 0 identically at N = 2 and S_4 = 0 at N = 3
    without ever dividing by N - 2 or N - 3.  The values are those of
    :func:`~blochvec.invariants.closed_invariants`.
    """
    return closed_invariants(state, basis).S234


def _verdict_band(tol: float | None) -> float:
    """The verdict band of ``tol``: EPS_POS by default, else a real number
    in [0, MAX_TOL] by :func:`~blochvec.su_basis.checked_float`
    (:class:`DomainError` otherwise)."""
    return EPS_POS if tol is None else checked_float(tol, 0.0, MAX_TOL, DomainError,
                                                     "verdict tolerance")


def positivity_verdict(S, *, tol: float | None = None) -> SymFnSequence:
    """Classify a coefficient sequence S_1..S_N computed from a Hermitian matrix.

    A coefficient counts as zero when it is negligible at its own scale:
    |S_k| <= tol * |last non-negligible coefficient| (with S_0 = 1 as the
    anchor and tol defaulting to EPS_POS = 1e-9; a tol outside
    [0, MAX_TOL] raises :class:`DomainError`).  The magnitudes of the
    S_k shrink combinatorially with k, so a fixed absolute cutoff would miss
    honest tiny determinants or keep pure roundoff on degenerate spectra;
    the running band tracks the eigenvalue-counting cutoff at every scale.

    S is a nonempty real sequence of :func:`~blochvec.su_basis.checked_real`,
    and a NaN or infinite coefficient raises :class:`DomainError`.
    Verdict: NotPSD iff some non-negligible S_k is negative, Boundary when
    PSD but some coefficient is negligible (rank deficiency within
    tolerance), PSD otherwise.  Negligible entries are skipped when
    counting the sign changes of (1, -S_1, S_2, ...), whose number equals
    the count of strictly positive eigenvalues for a real spectrum.
    """
    return _verdict(checked_real(S, None, "coefficient sequence"), None, _verdict_band(tol))


def _verdict(S: np.ndarray, E, band: float) -> SymFnSequence | int:
    """The verdict of :func:`positivity_verdict` on the 1-D float array
    ``S`` at the checked ``band``.

    With error estimates ``E`` (E_k of S_k, in a list) the loop first asks
    whether [S_k - E_k, S_k + E_k] lies in one class: below -cut, within
    the cut or above it.  At the first k where it does not, it stops and
    returns k if S_1..S_(k-1) are all positive and non-negligible, else 0.
    """
    ref = 1.0
    changes = 0
    previous_sign = 1.0  # sign of the leading coefficient
    negative = False
    negligible = False
    for k, value in enumerate(S.tolist(), start=1):
        cut = band * ref
        if E is not None:
            low, high = value - E[k - 1], value + E[k - 1]
            if (low > cut) != (high > cut) or (low < -cut) != (high < -cut):
                return 0 if negative or negligible else k
        if abs(value) <= cut:
            negligible = True
            continue
        ref = abs(value)
        if not ref < math.inf:  # NaN and inf are never negligible
            raise DomainError(f"coefficient S_{k} is not finite: {value}")
        negative = negative or value < 0.0
        sign = (1.0 if value > 0.0 else -1.0) * (-1.0) ** k
        if sign != previous_sign:
            changes += 1
        previous_sign = sign
    if negative:
        verdict = Verdict.NOT_PSD
    else:
        verdict = Verdict.BOUNDARY if negligible else Verdict.PSD
    return SymFnSequence(dim=S.size, S=S, sign_changes=changes, verdict=verdict)


def check_positivity(mat: np.ndarray, *, tol: float | None = None) -> SymFnSequence:
    """Full gate for a Hermitian matrix: the S_k of
    :func:`symmetric_functions`, then the verdict of
    :func:`positivity_verdict`."""
    return positivity_verdict(symmetric_functions(mat), tol=tol)


def _closed_symmetric_functions(state: CoherenceState, basis: BasisSet):
    """(S, E, s, report) of a state with N <= MAX_CLOSED_ORDER: the lists
    S_1..S_N and E_1..E_N of its coefficients and their rounding-error
    estimates, the error scale s = gamma N^2 u and the closed report they
    come from; None when the report or a value overflows.

    S_1 = 1 and S_2..S_4 are those of :func:`closed_S234`; for k >= 5
    Newton's identities k S_k = sum_j (-1)^(j-1) p_j S_(k-j) continue them
    on p_j = Tr(rho^j) of :meth:`ClosedInvariants.trace_power` (p_1 = 1),
    read by index from the report, which holds the orders up to N.
    Each S_k carries a running error estimate E_k (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2002, ch. 3):

    * E_1 = 0;
    * k <= 4: E_k = s M_k, where M_k is the closed S_k formula with every
      term taken by magnitude and the d-chain terms at their largest for
      p = n.n, |(n*n).n| -> (2p)^(3/2) and (n*n).(n*n) -> (2p)^2;
    * k >= 5: E_k = (1/k) [sum_j (dp_j |S_(k-j)| + |p_j| E_(k-j))
      + s sum_j |p_j S_(k-j)|], with dp_j = s sum_i C(j,i) c^i A_i / N^j
      and A_i >= sum |mu|^i over the eigenvalues mu of n.lam: T_i for even
      i, sqrt(T_(i-1) T_(i+1)) for odd i <= 7 and sqrt(T_2) T_8 for i = 9.

    :func:`check_positivity_coherence` runs the loop of
    :func:`positivity_verdict` on these intervals: the values decide only
    if every [S_k - E_k, S_k + E_k] lies in one class (negative, negligible
    or positive, against the running band).  Newton's identities lose the
    sign of small S_k (Wilkinson, *The Algebraic Eigenvalue Problem*,
    1965), and the loop hands those to :func:`symmetric_functions`.

    One case is decided without that spectral fallback: S_N alone is in doubt while
    S_1..S_(N-1) are all positive and non-negligible, as on a state of
    rank N - 1.  Then S_N = Re det rho, with rho rebuilt by
    :func:`from_coherence` and its determinant taken by LU with partial
    pivoting, and the loop runs again with E_N = s (||rho||_F S_(N-1) +
    |S_N|), ||rho||_F = sqrt(Tr rho^2) from the report.  To first order a
    perturbation Delta of rho (the rebuild and the LU's backward error,
    both O(N u ||rho||)) moves the determinant by at most
    e_(N-1)(|lambda|) ||Delta||_2 (Higham, 2002, ch. 9 and 14), and |S_N|
    covers the rounding of the product of U's diagonal.  With
    S_1..S_(N-1) > 0 the first N terms of (1, -S_1, S_2, ...) alternate, so
    rho has at least N - 1 positive eigenvalues and at most one that is
    not; S_N within its band makes that one tiny, so e_(N-1)(|lambda|)
    equals S_(N-1) = e_(N-1)(lambda) up to a term of its order.  Where S_N
    stays in doubt, the spectrum decides.
    """
    N = state.dim
    try:
        report = closed_invariants(state, basis)  # it holds the orders up to N
    except DomainError:  # the report overflows
        return None
    p, c = report._chain[2], coherence_scale(N)
    cubic, quartic = c * (2.0 * p) ** 1.5, c**2 * (2.0 * p) ** 2
    magnitudes = (
        (N - 1) / (2.0 * N) * (1.0 + p),
        (N - 1) / (6.0 * N**2) * ((N - 2) * (1.0 + 3.0 * p) + 2.0 * cubic),
        (N - 1) / (24.0 * N**3) * ((N - 2) * (N - 3) * (1.0 + 6.0 * p) + 8.0 * (N - 3) * cubic
                                   + 3.0 * (N - 1) * (N - 2) * p**2 + 6.0 * quartic),
    )
    scale = _CLOSED_ERROR_GAMMA * N**2 * _UNIT_ROUNDOFF
    S = [1.0, 1.0, *report.S234[:N - 1]]  # from S_0, E_0
    E = [0.0, 0.0, *(scale * m for m in magnitudes[:N - 1])]
    if N >= 5:
        t0, t2, t4, t6, t8 = [max(t, 0.0) for t in report._T[0:9:2]]
        A = (t0, math.sqrt(t0 * t2), t2, math.sqrt(t2 * t4), t4, math.sqrt(t4 * t6), t6,
             math.sqrt(t6 * t8), t8, math.sqrt(t2) * t8)
        weights = trace_power_weights(N)
        # p_j with alternating sign, |p_j| and dp_j + s |p_j|, for j = 1..N;
        # p_1 = Tr(rho) = 1 exactly
        signed, traces, weighted = [1.0], [1.0], [scale]
        for j, trace in enumerate(report._powers[2:N + 1], start=2):
            signed.append(trace if j % 2 else -trace)
            traces.append(abs(trace))
            weighted.append(scale * (sum(map(mul, weights[j], A)) / N**j + abs(trace)))
        abs_S = list(map(abs, S))
        for k in range(5, N + 1):
            value = err = 0.0
            for j in range(1, k + 1):
                value += signed[j - 1] * S[k - j]
                err += weighted[j - 1] * abs_S[k - j] + traces[j - 1] * E[k - j]
            S.append(value / k)
            E.append(err / k)
            abs_S.append(abs(value / k))
        if not all(map(math.isfinite, S + E)):
            return None
    return S[1:], E[1:], scale, report


def check_positivity_coherence(state: CoherenceState, basis: BasisSet, *,
                               tol: float | None = None) -> SymFnSequence:
    """Positivity gate of the trace-one operator represented by a coherence
    vector, with the verdict band ``tol`` of :func:`check_positivity`.

    For N <= 9 the S_k come from the report of
    :func:`~blochvec.invariants.closed_invariants` (the one that
    :func:`closed_S234`, :func:`~blochvec.invariants.casimirs` and
    :func:`~blochvec.invariants.trace_power_closed` then read), where they
    decide within their rounding error (:func:`_closed_symmetric_functions`).
    Otherwise, and for every larger N, the S_k of rho are taken from
    :func:`symmetric_functions`.  rho is rebuilt by :func:`from_coherence`
    (one :meth:`BasisSet.expand`) at most once per call: the determinant
    step and the spectrum share it.  Either way the loop
    of :func:`positivity_verdict` gives the verdict, and a ``tol`` outside
    [0, MAX_TOL] raises :class:`DomainError`.
    """
    band = _verdict_band(tol)
    N = state.dim
    closed = _closed_symmetric_functions(state, basis) if N <= MAX_CLOSED_ORDER else None
    rho = None
    if closed is not None:
        S, E, scale, report = closed
        seq = _verdict(np.array(S), E, band)
        if seq == N:  # S_N alone is in doubt, after positive S_1..S_(N-1)
            rho = from_coherence(state, basis)
            S[-1] = float(np.linalg.det(rho).real)
            E[-1] = scale * (math.sqrt(report._powers[2]) * S[-2] + abs(S[-1]))
            seq = _verdict(np.array(S), E, band)
        if not isinstance(seq, int):
            return seq
    if rho is None:
        rho = from_coherence(state, basis)
    return _verdict(symmetric_functions(rho), None, band)


@dataclass(frozen=True, eq=False)
class AffineMap:
    """A map of coherence vectors n -> T n + t of a checked ``dim``, with a
    real T and t of :func:`~blochvec.su_basis.checked_real`."""

    dim: int
    T: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dim", checked_dim(self.dim))
        k = self.dim**2 - 1
        # frozen copies, as in CoherenceState
        T = checked_real(self.T, (k, k), "affine map matrix T").copy()
        t = checked_real(self.t, (k,), "affine map vector t").copy()
        T.setflags(write=False)
        t.setflags(write=False)
        object.__setattr__(self, "T", T)
        object.__setattr__(self, "t", t)


def apply_affine_map(mapping: AffineMap, state: CoherenceState) -> CoherenceState:
    """n' = T n + t.  No positivity is implied; gate the image separately."""
    if mapping.dim != state.dim:
        raise LayoutError("map and state dimensions differ")
    return CoherenceState(dim=state.dim, n=mapping.T @ state.n + mapping.t)


def universal_inversion(state: CoherenceState, b: float) -> tuple[float, CoherenceState]:
    """The inversion-family image rho -> (1/N)(b 1 - c n.lam).

    Returned as (weight, flipped state) with weight = b, so that the image
    equals weight * from_coherence(flipped).  b = N - 1 reproduces 1 - rho.
    ``b`` is a positive real number of :func:`~blochvec.su_basis.checked_float`.
    """
    b = checked_float(b, 0.0, math.inf, DomainError, "inversion weight", open_low=True)
    return b, CoherenceState(dim=state.dim, n=-state.n / b)


def universal_inversion_matrix(state: CoherenceState, b: float,
                               basis: BasisSet) -> np.ndarray:
    """Dense matrix of the inversion-family image (1/N)(b 1 - c n.lam)."""
    weight, flipped = universal_inversion(state, b)
    return weight * from_coherence(flipped, basis)


def diagonal_family_matrix(N: int, a: float) -> np.ndarray:
    """The one-parameter diagonal family (1/N)[1 + a diag(1, ..., 1, -(N-1))].

    Positive semidefinite exactly for -1 <= a <= 1/(N-1); ``a`` is a real
    number of :func:`~blochvec.su_basis.checked_float`, else
    :class:`DomainError`.
    """
    N = checked_dim(N)
    a = checked_float(a, -math.inf, math.inf, DomainError, "family parameter")
    diag = np.full(N, 1.0 + a)
    diag[-1] = 1.0 - (N - 1) * a
    return np.diag(diag).astype(complex) / N


def inversion_bound_check(a: float, b: float, N: int) -> bool:
    """True iff inverting the diagonal-family state with weight b stays PSD.

    The family member (1/N)[1 + a diag(1, ..., 1, -(N-1))] must itself be a
    state, which restricts a to [-1, 1/(N-1)], widened by EPS_ZERO at both
    ends; its image under rho -> (1/N)(b 1 - c n.lam) is gated through the
    S_k test of :func:`check_positivity`.  Closed form of the admissible
    region: b >= max(a, (1-N) a).
    """
    N = checked_dim(N)
    a = checked_float(a, -1.0 - EPS_ZERO, 1.0 / (N - 1) + EPS_ZERO, DomainError,
                      "family parameter")
    b = checked_float(b, -math.inf, math.inf, DomainError, "inversion weight")
    diag = np.full(N, b - a)
    diag[-1] = b + (N - 1) * a
    image = np.diag(diag).astype(complex) / N
    return check_positivity(image).is_psd
