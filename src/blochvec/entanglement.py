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
    LayoutError,
    NormalizationError,
)
from .coherence import require_hermitian
from .su_basis import build_gellmann_basis

_PAULI = build_gellmann_basis(2).elements  # sigma_x, sigma_y, sigma_z
_YY = np.kron(_PAULI[1], _PAULI[1])
_TWO_QUBITS = CompositeLayout(dims=(2, 2))
_THREE_QUBITS = CompositeLayout(dims=(2, 2, 2))


def spin_flip(rho: np.ndarray) -> np.ndarray:
    """rho~ = (sigma_y x sigma_y) conj(rho) (sigma_y x sigma_y) for two qubits."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise LayoutError(f"spin flip is a two-qubit map, got shape {rho.shape}")
    return _YY @ rho.conj() @ _YY


def _sqrt_psd(rho: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(rho)
    if vals.min() < -EPS_ZERO:
        raise DomainError(f"operator is not PSD (min eigenvalue {vals.min():.2e})")
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T


def flip_spectrum_roots(rho: np.ndarray) -> np.ndarray:
    """Decreasing square roots of the eigenvalues of rho rho~.

    Computed from the Hermitian similarity sqrt(rho) rho~ sqrt(rho), which
    shares the spectrum of rho rho~ but avoids complex eigenvalue noise.
    An eigenvalue of rho below -EPS_ZERO raises :class:`DomainError`.
    """
    rho = require_hermitian(rho)
    if rho.shape != (4, 4):
        raise LayoutError(f"need a two-qubit state, got shape {rho.shape}")
    root = _sqrt_psd(rho)
    sim = root @ spin_flip(rho) @ root
    vals = np.linalg.eigvalsh(sim)
    return np.sqrt(np.clip(vals, 0.0, None))[::-1]


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


def _check_tripartite(psi: np.ndarray) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if psi.shape != (8,):
        raise LayoutError(f"need 8 amplitudes for three qubits, got {psi.shape}")
    norm = float(np.vdot(psi, psi).real)
    if abs(norm - 1.0) > EPS_KET:
        raise NormalizationError(f"state norm^2 = {norm:.12g} is not 1")
    return psi


def tripartite_marginals(psi: np.ndarray):
    """(rho_A, rho_B, rho_C, rho_AB, rho_AC) of a pure three-qubit state.

    The ket must hold 8 amplitudes with |<psi|psi> - 1| <= EPS_KET.
    """
    psi = _check_tripartite(psi)
    rho = np.outer(psi, psi.conj())

    def keep(*subsystems):
        return partial_trace(rho, _THREE_QUBITS, subsystems)

    return keep(0), keep(1), keep(2), keep(0, 1), keep(0, 2)


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


def three_tangle(psi: np.ndarray) -> float:
    """Residual tangle tau = 4 sqrt(S_2(rho_AB rho~_AB)) of a pure state.

    S_2 can be pushed slightly negative by roundoff at tau = 0; values in
    [-EPS_ZERO, 0) are clamped, anything lower raises.
    """
    _, _, _, rho_ab, _ = tripartite_marginals(psi)
    m = rho_ab @ spin_flip(rho_ab)
    s2 = 0.5 * (np.trace(m) ** 2 - np.trace(m @ m)).real
    if s2 < -EPS_ZERO:
        raise ConsistencyError(f"S_2 of rho rho~ is negative beyond tolerance: {s2:.3e}")
    return float(4.0 * np.sqrt(max(s2, 0.0)))


def ckw_inequality_check(psi: np.ndarray) -> tuple[float, float, bool]:
    """(lhs, rhs, holds) for C^2_AB + C^2_AC <= 4 det(rho_A), allowing a
    slack of EPS_ZERO."""
    rho_a, _, _, rho_ab, rho_ac = tripartite_marginals(psi)
    lhs = concurrence_squared(rho_ab) + concurrence_squared(rho_ac)
    rhs = float(4.0 * np.linalg.det(rho_a).real)
    return lhs, rhs, lhs <= rhs + EPS_ZERO
