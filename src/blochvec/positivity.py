"""Positive semidefiniteness via characteristic-polynomial coefficients.

The characteristic polynomial of an N x N matrix A is

    det(A - x 1) = x^N - S_1 x^(N-1) + S_2 x^(N-2) - ... + (-1)^N S_N,

with S_k = e_k(lambda) the elementary symmetric polynomials of the
eigenvalues.  For a Hermitian matrix (real spectrum) A is positive
semidefinite exactly when every S_k >= 0, and the number of sign changes
in the coefficient sequence (1, -S_1, S_2, ...) equals the number of
strictly positive eigenvalues.

Two routes compute the S_k, and the loop of :func:`positivity_verdict`
judges them both.  The coherence gate decides a state with N <= 4 by the
paper's region S_k(n) >= 0 in the closed Casimir invariants of
:func:`~blochvec.invariants.closed_invariants`, where the same loop, run on
error intervals, finds each S_k in one verdict class (see
:func:`_closed_symmetric_functions`).  All other S_k are e_k of a
spectrum from one LAPACK call: of the matrix itself in
:func:`symmetric_functions`, and, for a coherence state that the closed
S_k do not decide, of rho = (1 + c X)/N made from the X = n.lam that the
report already holds, bit for bit the rho of :func:`from_coherence`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .coherence import (
    CoherenceState,
    _density,
    coherence_scale,
    from_coherence,
    require_hermitian,
)
from .errors import EPS_POS, EPS_ZERO, MAX_TOL, DomainError, LayoutError
from .invariants import ClosedInvariants, closed_invariants
from .su_basis import (
    BasisSet,
    checked_dim,
    checked_float,
    checked_real,
)

#: Safety factor of the closed route's rounding-error estimate (see
#: :func:`_closed_symmetric_functions`).  On spectra with an exact zero
#: next to an eigenvalue of 1e-2..1e-8, 0.25 already let no wrong verdict
#: through at N <= 4; 0.05 let a few through at N = 3.
_CLOSED_ERROR_GAMMA = 4.0
_UNIT_ROUNDOFF = 2.0**-53
#: Largest N at which the coherence gate builds the closed report to make
#: its rho from the report's X.  Above it the report would cost the gate an
#: N x N product (X X) that the gate does not read, 1.2x the gate's time at
#: N = 16, so rho is rebuilt.
_REPORT_MAX_DIM = 9


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


def _vieta(values) -> np.ndarray:
    """e_1..e_N of the real numbers ``values`` (Python floats, ascending)
    by Vieta's recurrence e_j <- e_j + v e_(j-1), j descending."""
    e = [1.0]
    for v in values:
        e.append(v * e[-1])
        for j in range(len(e) - 2, 0, -1):
            e[j] += v * e[j - 1]
    return np.array(e[1:])


def symmetric_functions(mat: np.ndarray) -> np.ndarray:
    """S_1..S_N of a Hermitian matrix (hermiticity is checked and required:
    the sign-change eigenvalue count assumes a real spectrum).

    S_k = e_k(lambda) of the spectrum from one LAPACK call
    (``np.linalg.eigvalsh``, a Householder reduction, backward stable),
    by Vieta's recurrence over the ascending eigenvalues.  No power traces
    are formed, so small S_k keep their sign where Newton's identities lose
    it (from N = 9 on).
    """
    return _vieta(np.linalg.eigvalsh(require_hermitian(mat)).tolist())


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


def _verdict(S: np.ndarray, E, band: float) -> SymFnSequence | None:
    """The verdict of :func:`positivity_verdict` on the 1-D float array
    ``S`` at the checked ``band``.

    With error estimates ``E`` (E_k of S_k, in a list) the loop first asks
    whether [S_k - E_k, S_k + E_k] lies in one class: below -cut, within
    the cut or above it.  At the first k where it does not, it returns None.
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
                return None
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


def _closed_symmetric_functions(report: ClosedInvariants) -> tuple[np.ndarray, list[float]]:
    """(S, E) of a report with N <= 4: the array S_1..S_N, with S_1 = 1 and
    S_2..S_4 of :func:`closed_S234`, and the list E_1..E_N of their
    rounding-error estimates (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2002, ch. 3): E_1 = 0 and E_k = s M_k, with the error
    scale s = gamma N^2 u and M_k the closed S_k formula with every term
    taken by magnitude and the d-chain terms at their largest for p = n.n,
    |(n*n).n| -> (2p)^(3/2) and (n*n).(n*n) -> (2p)^2.

    :func:`check_positivity_coherence` runs the loop of
    :func:`positivity_verdict` on these intervals: the values decide only
    if every [S_k - E_k, S_k + E_k] lies in one class (negative, negligible
    or positive, against the running band).
    """
    N = report.dim
    p, c = report._chain[2], coherence_scale(N)
    cubic, quartic = c * (2.0 * p) ** 1.5, c**2 * (2.0 * p) ** 2
    magnitudes = (
        (N - 1) / (2.0 * N) * (1.0 + p),
        (N - 1) / (6.0 * N**2) * ((N - 2) * (1.0 + 3.0 * p) + 2.0 * cubic),
        (N - 1) / (24.0 * N**3) * ((N - 2) * (N - 3) * (1.0 + 6.0 * p) + 8.0 * (N - 3) * cubic
                                   + 3.0 * (N - 1) * (N - 2) * p**2 + 6.0 * quartic),
    )
    scale = _CLOSED_ERROR_GAMMA * N**2 * _UNIT_ROUNDOFF
    return (np.array([1.0, *report.S234[:N - 1]]),
            [0.0, *(scale * m for m in magnitudes[:N - 1])])


def check_positivity_coherence(state: CoherenceState, basis: BasisSet, *,
                               tol: float | None = None) -> SymFnSequence:
    """Positivity gate of the trace-one operator represented by a coherence
    vector, with the verdict band ``tol`` of :func:`check_positivity`.

    Up to N = ``_REPORT_MAX_DIM`` (9) the gate reads the report of
    :func:`~blochvec.invariants.closed_invariants` (the one that
    :func:`closed_S234`, :func:`~blochvec.invariants.casimirs` and
    :func:`~blochvec.invariants.trace_power_closed` then read).  For
    N <= 4 its closed S_k decide within their rounding error
    (:func:`_closed_symmetric_functions`); they cost about 2/3 of the
    spectral route there (N = 3, 4 and (2, 2); 0.4 of it at N = 2).
    Where they do not decide, and at every N = 5..9, S_k = e_k of the
    spectrum of rho = (1 + c X)/N made from the X = n.lam that the report
    holds: no expand and no Hermiticity check, and rho is bit for bit the
    one of :func:`from_coherence`, so the gate reads each state as
    :func:`check_positivity` reads its rebuilt matrix.  Where the gate has
    no X (N = 2, where d vanishes; a report that overflows, |n| beyond
    about 1e38; N >= 10, where it builds no report) the S_k are those of
    :func:`symmetric_functions` of rho rebuilt by :func:`from_coherence`.
    Either way the loop of :func:`positivity_verdict` gives the verdict,
    and a ``tol`` outside [0, MAX_TOL] raises :class:`DomainError`.
    """
    band = _verdict_band(tol)
    N = state.dim
    report = None
    if N <= _REPORT_MAX_DIM:
        try:
            report = closed_invariants(state, basis)
        except DomainError:  # the report overflows
            pass
    if report is not None and N <= 4:
        seq = _verdict(*_closed_symmetric_functions(report), band)
        if seq is not None:
            return seq
    if report is None or report._X is None:
        S = symmetric_functions(from_coherence(state, basis))
    else:
        S = _vieta(np.linalg.eigvalsh(_density(report._X)).tolist())
    return _verdict(S, None, band)


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
