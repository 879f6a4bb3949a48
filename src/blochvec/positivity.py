"""Positive semidefiniteness via characteristic-polynomial coefficients.

The characteristic polynomial of an N x N matrix A is

    det(A - x 1) = x^N - S_1 x^(N-1) + S_2 x^(N-2) - ... + (-1)^N S_N,

with S_k the elementary symmetric polynomials of the eigenvalues,
obtained from the power traces Tr(A^m) by the recursion

    S_k = (1/k) [Tr(A) S_{k-1} - Tr(A^2) S_{k-2} + ... + (-1)^{k-1} Tr(A^k)].

For a Hermitian matrix (real spectrum) A is positive semidefinite exactly
when every S_k >= 0, and the number of sign changes in the coefficient
sequence (1, -S_1, S_2, ...) equals the number of strictly positive
eigenvalues.

Three routes compute the S_k, and :func:`positivity_verdict` judges them
all.  The matrix gate uses that recursion.  The coherence gate decides a
state with N <= 9 by the paper's region S_k(n) >= 0 in the closed Casimir
invariants of :func:`~blochvec.invariants.closed_invariants`: S_2..S_4 in
closed form, and S_5..S_N by the same recursion on the closed Tr(rho^m),
wherever each S_k stays in its verdict class across a running estimate of
its rounding error.  When only S_N = det rho is in doubt, as on the
region's boundary where the states of rank N - 1 sit, one LU determinant
of the rebuilt operator takes its place under an error estimate of the
same kind.  Otherwise, and for every N >= 10, it reduces the rebuilt
operator to tridiagonal form and runs La Budde's three-term recurrence,
which keeps the sign of small S_k where the power-trace recursion loses
it.
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
    ClosedInvariants,
    closed_invariants,
    trace_power_weights,
)
from .su_basis import BasisSet, checked_dim

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


@dataclass(frozen=True)
class SymFnSequence:
    """Characteristic-polynomial coefficients S_1..S_N with the verdict."""

    dim: int
    S: np.ndarray
    sign_changes: int
    verdict: Verdict

    def __post_init__(self):
        S = np.array(self.S, dtype=float)  # a frozen copy: the caller's array stays writable
        S.setflags(write=False)
        object.__setattr__(self, "S", S)

    @property
    def is_psd(self) -> bool:
        return self.verdict is not Verdict.NOT_PSD


def newton_symmetric_functions(traces) -> np.ndarray:
    """Elementary symmetric functions S_1..S_N from power traces Tr(A^1..A^N)."""
    traces = np.asarray(traces, dtype=float)
    if traces.ndim != 1 or traces.size == 0:
        raise DomainError("need a nonempty vector of power traces")
    N = traces.size
    S = np.empty(N + 1)
    S[0] = 1.0
    for k in range(1, N + 1):
        acc = 0.0
        for j in range(1, k + 1):
            acc += (-1.0) ** (j - 1) * traces[j - 1] * S[k - j]
        S[k] = acc / k
    return S[1:]


def matrix_trace_powers(mat: np.ndarray, up_to: int) -> np.ndarray:
    """[Tr(A), Tr(A^2), ..., Tr(A^up_to)] by iterated multiplication."""
    mat = np.asarray(mat, dtype=complex)
    traces = np.empty(up_to)
    power = mat
    for m in range(up_to):
        traces[m] = np.trace(power).real
        if m + 1 < up_to:
            power = power @ mat
    return traces


def symmetric_functions(mat: np.ndarray) -> np.ndarray:
    """S_1..S_N of a Hermitian matrix (hermiticity is checked and required:
    the sign-change eigenvalue count assumes a real spectrum)."""
    mat = require_hermitian(mat)
    return newton_symmetric_functions(matrix_trace_powers(mat, mat.shape[0]))


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
    """The verdict band of ``tol``: EPS_POS by default, and
    :class:`DomainError` outside [0, MAX_TOL]."""
    band = EPS_POS if tol is None else tol
    if not 0.0 <= band <= MAX_TOL:
        raise DomainError(f"verdict tolerance must lie in [0, {MAX_TOL}], got {band}")
    return band


def positivity_verdict(S, *, tol: float | None = None) -> SymFnSequence:
    """Classify a coefficient sequence S_1..S_N computed from a Hermitian matrix.

    A coefficient counts as zero when it is negligible at its own scale:
    |S_k| <= tol * |last non-negligible coefficient| (with S_0 = 1 as the
    anchor and tol defaulting to EPS_POS = 1e-9; a tol outside
    [0, MAX_TOL] raises :class:`DomainError`).  The magnitudes of the
    S_k shrink combinatorially with k, so a fixed absolute cutoff would miss
    honest tiny determinants or keep pure roundoff on degenerate spectra;
    the running band tracks the eigenvalue-counting cutoff at every scale.

    A NaN or infinite coefficient raises :class:`DomainError`.
    Verdict: NotPSD iff some non-negligible S_k is negative, Boundary when
    PSD but some coefficient is negligible (rank deficiency within
    tolerance), PSD otherwise.  Negligible entries are skipped when
    counting the sign changes of (1, -S_1, S_2, ...), whose number equals
    the count of strictly positive eigenvalues for a real spectrum.
    """
    S = np.asarray(S, dtype=float)
    if S.ndim != 1 or S.size == 0:
        raise DomainError("need a nonempty coefficient sequence")
    band = _verdict_band(tol)
    ref = 1.0
    changes = 0
    previous_sign = 1.0  # sign of the leading coefficient
    negative = False
    negligible = False
    for k, value in enumerate(S.tolist(), start=1):
        if abs(value) <= band * ref:
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
    """Full gate for a Hermitian matrix: power traces, Newton, verdict."""
    return positivity_verdict(symmetric_functions(mat), tol=tol)


def _tridiagonal(mat: np.ndarray) -> tuple[list[float], list[float]]:
    """Diagonal a_1..a_N and squared off-diagonal moduli |b_1|^2..|b_(N-1)|^2
    of a real-diagonal tridiagonal matrix unitarily similar to the Hermitian
    ``mat``, by Householder reflections H = 1 - tau v v^dag.

    Step k reflects x, the column below the diagonal, onto -phase(x_0) |x| e_1
    with v = x + phase(x_0) |x| e_1 and tau = 2 / |v|^2 = 1 / (|x|^2 + |x_0| |x|),
    so |b_k|^2 = |x|^2 and only the trailing block needs the two-sided
    update H A H = A - v w^dag - w v^dag with p = tau A v and
    w = p - (tau / 2) (v^dag p) v.
    """
    A = np.array(mat, dtype=complex)
    N = A.shape[0]
    diag, off2 = [], []
    for k in range(N - 1):
        diag.append(float(A[k, k].real))
        x = A[k + 1:, k]
        norm2 = float(np.vdot(x, x).real)
        off2.append(norm2)
        if k == N - 2 or norm2 == 0.0:
            continue
        norm = math.sqrt(norm2)
        x0 = complex(x[0])
        r = abs(x0)
        v = x.copy()
        v[0] += (x0 / r if r else 1.0) * norm
        tau = 1.0 / (norm2 + r * norm)
        sub = A[k + 1:, k + 1:]
        p = tau * np.dot(sub, v)
        w = p - (0.5 * tau * np.vdot(v, p).real) * v
        sub -= v[:, None] * w.conj() + w[:, None] * v.conj()
    diag.append(float(A[N - 1, N - 1].real))
    return diag, off2


def tridiagonal_symmetric_functions(mat: np.ndarray) -> np.ndarray:
    """S_1..S_N of a Hermitian matrix by La Budde's method: Householder
    reduction to tridiagonal form, then the recurrence over leading blocks

        e_j^(k) = e_j^(k-1) + a_k e_(j-1)^(k-1) - |b_(k-1)|^2 e_(j-2)^(k-2),

    with e_0 = 1.  No power traces and no eigenvalues are formed, so small
    S_k keep their sign where Newton's identities lose it (from N = 9 on).
    """
    a, b2 = _tridiagonal(require_hermitian(mat))
    prev, cur = [1.0], [1.0, a[0]]  # e^(0), e^(1)
    for k in range(1, len(a)):
        nxt = cur + [0.0]
        for j in range(1, k + 2):
            nxt[j] += a[k] * cur[j - 1]
        for j in range(2, k + 2):
            nxt[j] -= b2[k - 1] * prev[j - 2]
        prev, cur = cur, nxt
    return np.array(cur[1:])


def _closed_symmetric_functions(state: CoherenceState, basis: BasisSet,
                                band: float) -> list[float] | None:
    """S_1..S_N of a state with N <= MAX_CLOSED_ORDER from its closed
    report, or None when rounding could move one of them across the verdict
    band or the report overflows.

    S_1 = 1 and S_2..S_4 are those of :func:`closed_S234`; for k >= 5
    Newton's identities k S_k = sum_j (-1)^(j-1) p_j S_(k-j) continue them
    on p_j = Tr(rho^j) of :meth:`ClosedInvariants.trace_power` (p_1 = 1).
    Each S_k carries a running error estimate E_k (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2002, ch. 3) with s = gamma N^2 u:

    * k <= 4: E_k = s M_k, where M_k is the closed S_k formula with every
      term taken by magnitude and the d-chain terms at their largest for
      p = n.n, |(n*n).n| -> (2p)^(3/2) and (n*n).(n*n) -> (2p)^2;
    * k >= 5: E_k = (1/k) [sum_j (dp_j |S_(k-j)| + |p_j| E_(k-j))
      + s sum_j |p_j S_(k-j)|], with dp_j = s sum_i C(j,i) c^i A_i / N^j
      and A_i >= sum |mu|^i over the eigenvalues mu of n.lam: T_i for even
      i, sqrt(T_(i-1) T_(i+1)) for odd i <= 7 and sqrt(T_2) T_8 for i = 9.

    The values are used only if every S_k is finite and falls in the same
    class (negative, negligible or positive, against the running band of
    :func:`positivity_verdict`) at S_k - E_k and S_k + E_k; Newton's
    identities lose the sign of small S_k (Wilkinson, *The Algebraic
    Eigenvalue Problem*, 1965), and the guard hands those to La Budde.

    One case is decided without La Budde: S_N alone is ambiguous while
    S_1..S_(N-1) are all positive and non-negligible, as on a state of
    rank N - 1.  Then S_N = Re det rho, with rho rebuilt by
    :func:`from_coherence` and its determinant taken by LU with partial
    pivoting, under the same test with E_N = s (||rho||_F S_(N-1) + |S_N|),
    ||rho||_F = sqrt(Tr rho^2).  To first order a perturbation Delta of
    rho (the rebuild and the LU's backward error, both O(N u ||rho||))
    moves the determinant by at most e_(N-1)(|lambda|) ||Delta||_2 (Higham,
    2002, ch. 9 and 14), and |S_N| covers the rounding of the product of
    U's diagonal.  With S_1..S_(N-1) > 0 the first N terms of
    (1, -S_1, S_2, ...) alternate, so rho has at least N - 1 positive
    eigenvalues and at most one that is not; S_N within its band makes
    that one tiny, so e_(N-1)(|lambda|) equals S_(N-1) = e_(N-1)(lambda)
    up to a term of its order.  Where S_N stays ambiguous, La Budde
    decides.
    """
    N = state.dim
    try:
        report = closed_invariants(state, basis)
    except DomainError:  # the report overflows
        return None
    p, c = report.chain[2], coherence_scale(N)
    cubic, quartic = c * (2.0 * p) ** 1.5, c**2 * (2.0 * p) ** 2
    magnitudes = (
        (N - 1) / (2.0 * N) * (1.0 + p),
        (N - 1) / (6.0 * N**2) * ((N - 2) * (1.0 + 3.0 * p) + 2.0 * cubic),
        (N - 1) / (24.0 * N**3) * ((N - 2) * (N - 3) * (1.0 + 6.0 * p) + 8.0 * (N - 3) * cubic
                                   + 3.0 * (N - 1) * (N - 2) * p**2 + 6.0 * quartic),
    )
    scale = _CLOSED_ERROR_GAMMA * N**2 * _UNIT_ROUNDOFF
    values, errors = report.S234[:N - 1], [scale * m for m in magnitudes]
    if N >= 5:
        t0, t2, t4, t6, t8 = [max(t, 0.0) for t in report.T[0:9:2]]
        A = (t0, math.sqrt(t0 * t2), t2, math.sqrt(t2 * t4), t4, math.sqrt(t4 * t6), t6,
             math.sqrt(t6 * t8), t8, math.sqrt(t2) * t8)
        weights = trace_power_weights(N)
        # p_j with alternating sign, |p_j| and dp_j + s |p_j|, for j = 1..N;
        # p_1 = Tr(rho) = 1 exactly
        signed, traces, weighted = [1.0], [1.0], [scale]
        for j in range(2, N + 1):
            trace = report.trace_power(j)
            signed.append(trace if j % 2 else -trace)
            traces.append(abs(trace))
            weighted.append(scale * (sum(map(mul, weights[j], A)) / N**j + abs(trace)))
        S, E = [1.0, 1.0, *values], [0.0, 0.0, *errors]  # from S_0, E_0
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
        values, errors = S[2:], E[2:]
    ref = 1.0  # |S_1| = 1, exact
    for k, (value, err) in enumerate(zip(values, errors), start=2):
        cut = band * ref
        low, high = value - err, value + err
        if (low > cut) != (high > cut) or (low < -cut) != (high < -cut):
            return _with_determinant(state, basis, report, values, band, scale) if k == N else None
        if abs(value) > cut:
            ref = abs(value)
    return [1.0, *values]


def _with_determinant(state: CoherenceState, basis: BasisSet, report: ClosedInvariants, values,
                      band: float, scale: float) -> list[float] | None:
    """[1, S_2..S_(N-1), Re det rho] for the closed ``values`` S_2..S_N whose
    S_N alone is ambiguous: None unless S_1..S_(N-1) are all positive and
    non-negligible and det rho keeps its class across its error estimate
    ``scale`` (||rho||_F S_(N-1) + |det rho|)."""
    head = [1.0, *values[:-1]]
    if not all(later > band * earlier for earlier, later in zip(head, head[1:])):
        return None
    cut = band * head[-1]
    det = float(np.linalg.det(from_coherence(state, basis)).real)
    err = scale * (math.sqrt(report.trace_power(2)) * head[-1] + abs(det))
    low, high = det - err, det + err
    if (low > cut) != (high > cut) or (low < -cut) != (high < -cut):
        return None
    return [*head, det]


def check_positivity_coherence(state: CoherenceState, basis: BasisSet, *,
                               tol: float | None = None) -> SymFnSequence:
    """Positivity gate of the trace-one operator represented by a coherence
    vector, with the verdict band ``tol`` of :func:`check_positivity`.

    For N <= 9 the S_k come from the report of
    :func:`~blochvec.invariants.closed_invariants` (the one that
    :func:`closed_S234`, :func:`~blochvec.invariants.casimirs` and
    :func:`~blochvec.invariants.trace_power_closed` then read): the closed
    S_2..S_4, then Newton's identities on its Tr(rho^m), guarded by a
    running estimate of their rounding error
    (:func:`_closed_symmetric_functions`); when S_N alone is in doubt and
    the earlier S_k are positive, it is replaced by the LU determinant of
    the rebuilt rho under its own error estimate.  Where the guard still
    does not hold or the report overflows, and for every larger N, rho is
    rebuilt by :func:`from_coherence` (one :meth:`BasisSet.expand`) and its
    S_k are taken from :func:`tridiagonal_symmetric_functions`.  Either way
    :func:`positivity_verdict` gives the verdict, and a ``tol`` outside
    [0, MAX_TOL] raises :class:`DomainError`.
    """
    band = _verdict_band(tol)
    S = None
    if state.dim <= MAX_CLOSED_ORDER:
        S = _closed_symmetric_functions(state, basis, band)
    if S is None:
        S = tridiagonal_symmetric_functions(from_coherence(state, basis))
    return positivity_verdict(S, tol=tol)


@dataclass(frozen=True)
class AffineMap:
    """A map of coherence vectors n -> T n + t of a checked ``dim``."""

    dim: int
    T: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dim", checked_dim(self.dim))
        k = self.dim**2 - 1
        if np.iscomplexobj(self.T) or np.iscomplexobj(self.t):
            raise DomainError("affine maps of coherence vectors are real; got a complex T or t")
        T = np.array(self.T, dtype=float)  # frozen copies, as in CoherenceState
        t = np.array(self.t, dtype=float)
        if T.shape != (k, k) or t.shape != (k,):
            raise LayoutError(f"affine map for dim {self.dim} needs a {k}x{k} matrix "
                              f"and a length-{k} vector")
        T.setflags(write=False)
        t.setflags(write=False)
        object.__setattr__(self, "T", T)
        object.__setattr__(self, "t", t)

    @classmethod
    def inversion(cls, dim: int) -> "AffineMap":
        k = dim**2 - 1
        return cls(dim=dim, T=-np.eye(k), t=np.zeros(k))


def apply_affine_map(mapping: AffineMap, state: CoherenceState) -> CoherenceState:
    """n' = T n + t.  No positivity is implied; gate the image separately."""
    if mapping.dim != state.dim:
        raise LayoutError("map and state dimensions differ")
    return CoherenceState(dim=state.dim, n=mapping.T @ state.n + mapping.t)


def universal_inversion(state: CoherenceState, b: float) -> tuple[float, CoherenceState]:
    """The inversion-family image rho -> (1/N)(b 1 - c n.lam).

    Returned as (weight, flipped state) with weight = b, so that the image
    equals weight * from_coherence(flipped).  b = N - 1 reproduces 1 - rho.
    """
    if b <= 0:
        raise DomainError(f"inversion weight must be positive, got {b}")
    return float(b), CoherenceState(dim=state.dim, n=-state.n / b)


def universal_inversion_matrix(state: CoherenceState, b: float,
                               basis: BasisSet) -> np.ndarray:
    """Dense matrix of the inversion-family image (1/N)(b 1 - c n.lam)."""
    weight, flipped = universal_inversion(state, b)
    return weight * from_coherence(flipped, basis)


def diagonal_family_matrix(N: int, a: float) -> np.ndarray:
    """The one-parameter diagonal family (1/N)[1 + a diag(1, ..., 1, -(N-1))].

    Positive semidefinite exactly for -1 <= a <= 1/(N-1).
    """
    N = checked_dim(N)
    diag = np.full(N, 1.0 + a)
    diag[-1] = 1.0 - (N - 1) * a
    return np.diag(diag).astype(complex) / N


def inversion_bound_check(a: float, b: float, N: int) -> bool:
    """True iff inverting the diagonal-family state with weight b stays PSD.

    The family member (1/N)[1 + a diag(1, ..., 1, -(N-1))] must itself be a
    state, which restricts a to [-1, 1/(N-1)], widened by EPS_ZERO at both
    ends; its image under rho -> (1/N)(b 1 - c n.lam) is gated through the
    S_k test.  Closed form of the admissible region: b >= max(a, (1-N) a).
    """
    N = checked_dim(N)
    if not -1.0 - EPS_ZERO <= a <= 1.0 / (N - 1) + EPS_ZERO:
        raise DomainError(f"family parameter must satisfy 1/(N-1) >= a >= -1, got {a}")
    diag = np.full(N, b - a)
    diag[-1] = b + (N - 1) * a
    image = np.diag(diag).astype(complex) / N
    return check_positivity(image).is_psd
