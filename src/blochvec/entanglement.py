"""Spin flip, two-qubit concurrence, and the residual three-qubit tangle.

For a pure three-qubit state the rank-two marginal rho_AB admits

    C_AB^2 = (l_1 - l_2)^2 <= Tr(rho_AB rho~_AB),

with l_i the square roots of the eigenvalues of rho rho~ and
rho~ = (sigma_y x sigma_y) rho* (sigma_y x sigma_y).  The residual
three-way entanglement ships as

    tau = 4 sqrt(S_2(rho_AB rho~_AB)),

where S_2(M) = [(Tr M)^2 - Tr(M^2)]/2 is the second characteristic
coefficient, and equals C^2_(A)BC - C^2_AB - C^2_AC.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .composite import (
    CompositeLayout,
    extract_correlation,
    local_invariant_quadratic,
    partial_trace,
)
from .errors import (
    EPS_KET,
    EPS_ZERO,
    ConsistencyError,
    DomainError,
    NormalizationError,
)
from .coherence import require_hermitian
from .su_basis import build_gellmann_basis, checked_complex

_PAULI = build_gellmann_basis(2).elements  # sigma_x, sigma_y, sigma_z
_YY = np.kron(_PAULI[1], _PAULI[1])
_TWO_QUBITS = CompositeLayout(dims=(2, 2))
_THREE_QUBITS = CompositeLayout(dims=(2, 2, 2))


def spin_flip(rho: np.ndarray) -> np.ndarray:
    """rho~ = (sigma_y x sigma_y) conj(rho) (sigma_y x sigma_y) for two qubits."""
    return _YY @ _TWO_QUBITS.check_matrix(rho).conj() @ _YY


def _sqrt_psd(rho: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(rho)
    if vals.min() < -EPS_ZERO:
        raise DomainError(f"operator is not PSD (min eigenvalue {vals.min():.2e})")
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T


def flip_spectrum_roots(rho: np.ndarray) -> np.ndarray:
    """Decreasing square roots l_i of the eigenvalues of rho rho~.

    They are the singular values of A = sqrt(rho) Y sqrt(rho)*, Y = sigma_y
    x sigma_y, as A A^dag = sqrt(rho) rho~ sqrt(rho); so a roundoff-level l_i
    is roundoff, not its square root.  An eigenvalue of rho below -EPS_ZERO
    raises :class:`DomainError`.
    """
    root = _sqrt_psd(require_hermitian(_TWO_QUBITS.check_matrix(rho)))
    return np.linalg.svd(root @ _YY @ root.conj(), compute_uv=False)


def concurrence_squared_bound(rho: np.ndarray) -> tuple[float, float]:
    """(C^2, Tr(rho rho~)) for a PSD two-qubit state.

    C^2 = (l_1 - l_2)^2 is the squared concurrence for the rank-two
    marginals of pure three-qubit states; Tr(rho rho~) = sum l_i^2 always
    bounds it from above.
    """
    roots = flip_spectrum_roots(rho)
    csq = float((roots[0] - roots[1]) ** 2)
    return csq, float(np.sum(roots**2))


def concurrence_squared(rho: np.ndarray) -> float:
    """Squared two-qubit concurrence max(0, l_1 - l_2 - l_3 - l_4)^2."""
    roots = flip_spectrum_roots(rho)
    return float(max(0.0, roots[0] - roots[1] - roots[2] - roots[3]) ** 2)


def _pure_state(psi: np.ndarray) -> np.ndarray:
    """|psi><psi| of a three-qubit ket of 8 amplitudes by
    :func:`~blochvec.su_basis.checked_complex`, with |<psi|psi> - 1| <= EPS_KET."""
    psi = checked_complex(psi, (8,), "three-qubit ket")
    norm = float(np.vdot(psi, psi).real)
    if not abs(norm - 1.0) <= EPS_KET:
        raise NormalizationError(f"state norm^2 = {norm:.12g} is not 1")
    return np.outer(psi, psi.conj())


def _marginals(psi: np.ndarray, *keeps) -> list[np.ndarray]:
    """One reduced state of |psi><psi| per tuple of kept qubits."""
    rho = _pure_state(psi)
    return [partial_trace(rho, _THREE_QUBITS, keep) for keep in keeps]


def tripartite_marginals(psi: np.ndarray):
    """(rho_A, rho_B, rho_C, rho_AB, rho_AC) of a pure three-qubit state.

    The ket must hold 8 finite amplitudes with |<psi|psi> - 1| <= EPS_KET.
    """
    return tuple(_marginals(psi, (0,), (1,), (2,), (0, 1), (0, 2)))


@dataclass(frozen=True)
class SchmidtCheck:
    """Both sides of the pure-state trace identities, with residuals.

    ``pair_lhs`` is the squared Frobenius norm of the bare two-qubit
    correlation tensor of rho_AB; ``pair_rhs`` is
    1 + 2 n_C.n_C - n_A.n_A - n_B.n_B, equal by the Schmidt decomposition.
    ``det_lhs`` is Tr(rho_AB rho~_AB) and ``det_rhs`` the determinant form
    2(det rho_A + det rho_B - det rho_C).
    """

    pair_lhs: float
    pair_rhs: float
    det_lhs: float
    det_rhs: float

    @property
    def residuals(self) -> tuple[float, float]:
        return abs(self.pair_lhs - self.pair_rhs), abs(self.det_lhs - self.det_rhs)


def schmidt_trace_relation(psi: np.ndarray) -> SchmidtCheck:
    """Evaluate both pure-state identities on a three-qubit state."""
    rho_a, rho_b, rho_c, rho_ab, _ = tripartite_marginals(psi)
    block = extract_correlation(rho_ab, _TWO_QUBITS)
    nc = build_gellmann_basis(2).overlaps(rho_c)
    pair_lhs = local_invariant_quadratic(block)
    pair_rhs = float(1.0 + 2.0 * nc @ nc - block.nA @ block.nA - block.nB @ block.nB)
    det_lhs = float(np.trace(rho_ab @ spin_flip(rho_ab)).real)
    det_rhs = float(2.0 * (np.linalg.det(rho_a) + np.linalg.det(rho_b)
                           - np.linalg.det(rho_c)).real)
    return SchmidtCheck(pair_lhs=pair_lhs, pair_rhs=pair_rhs,
                        det_lhs=det_lhs, det_rhs=det_rhs)


def _pair_tangle(rho_pair: np.ndarray) -> float:
    """tau = 4 sqrt(S_2(rho rho~)) from a two-qubit marginal of a pure state."""
    m = rho_pair @ spin_flip(rho_pair)
    s2 = 0.5 * (np.trace(m) ** 2 - np.trace(m @ m)).real
    if s2 < -EPS_ZERO:
        raise ConsistencyError(f"S_2 of rho rho~ is negative beyond tolerance: {s2:.3e}")
    return float(4.0 * np.sqrt(max(s2, 0.0)))


def _ckw(c2_ab: float, c2_ac: float, rho_a: np.ndarray) -> tuple[float, float, bool]:
    """(lhs, rhs, holds) for C^2_AB + C^2_AC <= 4 det(rho_A) + EPS_ZERO."""
    lhs = c2_ab + c2_ac
    rhs = float(4.0 * np.linalg.det(rho_a).real)
    return lhs, rhs, lhs <= rhs + EPS_ZERO


def _swap_qubits(rho_pair: np.ndarray) -> np.ndarray:
    """rho_BA from rho_AB: the two-qubit marginal with its factors exchanged."""
    return rho_pair.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)


def three_tangle(psi: np.ndarray) -> float:
    """Residual tangle tau = 4 sqrt(S_2(rho_AB rho~_AB)) of a pure state.

    S_2 can be pushed slightly negative by roundoff at tau = 0; values in
    [-EPS_ZERO, 0) are clamped, anything lower raises.
    """
    (rho_ab,) = _marginals(psi, (0, 1))
    return _pair_tangle(rho_ab)


def ckw_inequality_check(psi: np.ndarray) -> tuple[float, float, bool]:
    """(lhs, rhs, holds) for C^2_AB + C^2_AC <= 4 det(rho_A), allowing a
    slack of EPS_ZERO."""
    rho_a, rho_ab, rho_ac = _marginals(psi, (0,), (0, 1), (0, 2))
    return _ckw(concurrence_squared(rho_ab), concurrence_squared(rho_ac), rho_a)


@dataclass(frozen=True)
class TangleReport:
    """Every number of the ``blochvec tangle`` report, in its JSON order.

    ``permutation_spread`` is max - min of tau over the six orderings of
    the qubits; tau is permutation invariant, so it measures roundoff.
    """

    tau: float
    c2_ab: float
    c2_ac: float
    ckw_lhs: float
    ckw_rhs: float
    ckw_holds: bool
    permutation_spread: float


def tangle_report(psi: np.ndarray) -> TangleReport:
    """tau, both concurrences, both CKW sides and the permutation spread
    of a pure three-qubit state, from rho_A, rho_AB, rho_AC and rho_BC.

    Permuting the qubits of the ket (A B C -> P Q R) only moves tau onto
    the marginal rho_PQ, so the six orderings read rho_AB, rho_AC, rho_BC
    and their qubit swaps.  Each tau is clamped as in :func:`three_tangle`.
    """
    rho_a, rho_ab, rho_ac, rho_bc = _marginals(psi, (0,), (0, 1), (0, 2), (1, 2))
    c2_ab, c2_ac = concurrence_squared(rho_ab), concurrence_squared(rho_ac)
    lhs, rhs, holds = _ckw(c2_ab, c2_ac, rho_a)
    # orderings ABC, ACB, BAC, BCA, CAB, CBA
    taus = [_pair_tangle(pair) for pair in (
        rho_ab, rho_ac, _swap_qubits(rho_ab), rho_bc, _swap_qubits(rho_ac), _swap_qubits(rho_bc))]
    return TangleReport(tau=taus[0], c2_ab=c2_ab, c2_ac=c2_ac, ckw_lhs=lhs, ckw_rhs=rhs,
                        ckw_holds=holds, permutation_spread=float(max(taus) - min(taus)))
