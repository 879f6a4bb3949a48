"""Multi-subsystem structure: partial trace and transpose, correlation
blocks, local-unitary invariants, and the two-qubit Werner family.

Two normalization conventions deliberately coexist.  The flat coherence
vector of a composite uses the rescaled product basis (Tr lam^2 = 2), while
correlation blocks use bare tensor products of single-subsystem matrices,
so their entries are plain expectation values such as Tr(rho sigma_i x
sigma_j).  A flat element is its bare tensor product times
sqrt(2 / Tr((bare product)^2)) (see
:func:`~blochvec.su_basis.build_product_basis`, whose dimension rule
:class:`CompositeLayout` shares).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from .coherence import CoherenceState, require_hermitian
from .errors import DomainError, LayoutError
from .su_basis import BasisSet, build_gellmann_basis, checked_dims, product_basis_labels


@dataclass(frozen=True)
class CompositeLayout:
    """Subsystem dimensions, Python ints by :func:`~blochvec.su_basis.checked_dims`
    so ``total`` is exact, plus the label <-> flat-index correspondence."""

    dims: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "dims", checked_dims(self.dims))

    @property
    def total(self) -> int:
        return prod(self.dims)

    @property
    def labels(self) -> tuple[tuple[int, ...], ...]:
        return product_basis_labels(self.dims)

    def check_matrix(self, rho: np.ndarray) -> np.ndarray:
        rho = np.asarray(rho, dtype=complex)
        if rho.shape != (self.total, self.total):
            raise LayoutError(
                f"operator shape {rho.shape} inconsistent with subsystem dims {self.dims}"
            )
        return rho


def partial_trace(rho: np.ndarray, layout: CompositeLayout, keep) -> np.ndarray:
    """Trace out every subsystem not listed in ``keep`` (indices, kept in
    ascending order).  Preserves trace and hermiticity."""
    rho = layout.check_matrix(rho)
    dims = layout.dims
    k = len(dims)
    keep = sorted(set(int(i) for i in keep))
    if any(i < 0 or i >= k for i in keep):
        raise LayoutError(f"keep indices must lie in 0..{k - 1}, got {keep}")
    tensor = rho.reshape(dims + dims)
    for sub in range(k - 1, -1, -1):
        if sub not in keep:
            tensor = np.trace(tensor, axis1=sub, axis2=sub + tensor.ndim // 2)
    size = prod(dims[i] for i in keep)
    return tensor.reshape(size, size)


def partial_transpose(rho: np.ndarray, layout: CompositeLayout,
                      subsystem: int = 0) -> np.ndarray:
    """Transpose one tensor factor.  Hermiticity and trace are preserved;
    positivity is not, which is the point of the PPT test."""
    rho = layout.check_matrix(rho)
    k = len(layout.dims)
    if not 0 <= subsystem < k:
        raise LayoutError(f"subsystem index {subsystem} outside 0..{k - 1}")
    tensor = rho.reshape(layout.dims + layout.dims)
    axes = list(range(2 * k))
    axes[subsystem], axes[subsystem + k] = axes[subsystem + k], axes[subsystem]
    return tensor.transpose(axes).reshape(layout.total, layout.total)


def partial_transpose_coherence(state: CoherenceState, layout: CompositeLayout,
                                subsystem: int = 0) -> CoherenceState:
    """Partial transpose of a two-qubit state directly on its coherence vector.

    Transposing a qubit factor flips exactly the components whose label has
    sigma_y on that factor; for the first subsystem in the product-basis
    ordering these are components 2, 10, 11 and 12 (1-based).
    """
    if layout.dims != (2, 2):
        raise LayoutError(f"coherence-level partial transpose needs dims (2, 2), got {layout.dims}")
    if state.dim != layout.total:
        raise LayoutError("state dimension inconsistent with layout")
    if not 0 <= subsystem < 2:
        raise LayoutError(f"subsystem index {subsystem} outside 0..1")
    flipped = state.n.copy()
    for i, lab in enumerate(layout.labels):
        if lab[subsystem] == 2:  # sigma_y slot: the only antisymmetric Pauli
            flipped[i] = -flipped[i]
    return CoherenceState(dim=state.dim, n=flipped)


@dataclass(frozen=True)
class CorrelationBlock:
    """Marginal vectors and the correlation matrix in bare-product convention.

    For two qubits: nA_i = Tr(rho sigma_i x 1), nB_j = Tr(rho 1 x sigma_j),
    C_ij = Tr(rho sigma_i x sigma_j), so that
    rho = (1/4)(1 x 1 + nA.sigma x 1 + 1 x nB.sigma + C_ij sigma_i x sigma_j).
    The same expansion applies to qutrit factors with their Gell-Mann basis.
    """

    layout: CompositeLayout
    nA: np.ndarray
    nB: np.ndarray
    C: np.ndarray

    def reconstruct(self) -> np.ndarray:
        dA, dB = self.layout.dims
        basisA, basisB = build_gellmann_basis(dA), build_gellmann_basis(dB)
        rho = np.eye(dA * dB, dtype=complex) / (dA * dB)
        rho += np.kron(basisA.expand(self.nA), np.eye(dB)) / (2.0 * dB)
        rho += np.kron(np.eye(dA), basisB.expand(self.nB)) / (2.0 * dA)
        rho += _correlation_operator(self.C, basisA.elements, basisB.elements) / 4.0
        return rho


def _correlation_operator(C: np.ndarray, lamA: np.ndarray, lamB: np.ndarray) -> np.ndarray:
    """Z = sum_ij C_ij lamA_i x lamB_j as a (dA dB) x (dA dB) matrix."""
    dA, dB = lamA.shape[1], lamB.shape[1]
    return np.einsum("ij,iab,jcd->acbd", C, lamA, lamB).reshape(dA * dB, dA * dB)


def extract_correlation(rho: np.ndarray, layout: CompositeLayout) -> CorrelationBlock:
    """Bare-convention marginal vectors and correlation matrix of a bipartite
    state."""
    if len(layout.dims) != 2:
        raise LayoutError(f"correlation blocks are bipartite, got dims {layout.dims}")
    rho = require_hermitian(layout.check_matrix(rho))
    dA, dB = layout.dims
    basisA, basisB = build_gellmann_basis(dA), build_gellmann_basis(dB)
    rho4 = rho.reshape(dA, dB, dA, dB)
    nA = basisA.overlaps(np.trace(rho4, axis1=1, axis2=3))  # Tr(rho_A lam_i)
    nB = basisB.overlaps(np.trace(rho4, axis1=0, axis2=2))  # Tr(rho_B mu_j)
    C = np.einsum("pqrs,irp,jsq->ij", rho4, basisA.elements, basisB.elements).real
    return CorrelationBlock(layout=layout, nA=nA, nB=nB, C=C)


def local_invariant_quadratic(block: CorrelationBlock) -> float:
    """sum_ij C_ij^2, conserved under local unitary rotations of either side."""
    return float(np.sum(block.C**2))


def local_invariant_cubic(block: CorrelationBlock, basis_a: BasisSet,
                          basis_b: BasisSet) -> float:
    """The d-tensor contraction sum d_ijk d_lmn C_il C_jm C_kn.

    Computed as (Tr Z^3 + Tr (Z^T_B)^3)/8 with Z = sum_ij C_ij lam_i x mu_j:
    Tr(lam_i lam_j lam_k) = 2(d_ijk + i f_ijk), and transposing every mu
    flips the sign of f, so the f-terms cancel.  Identically zero when
    either factor is a qubit (su(2) has d = 0); use :func:`correlation_det`
    for the nonvanishing qubit analogue.
    """
    dA, dB = block.layout.dims
    if basis_a.dim != dA or basis_b.dim != dB:
        raise LayoutError("bases must match the subsystem dimensions")
    lam, mu = basis_a.elements, basis_b.elements
    z = _correlation_operator(block.C, lam, mu)
    zt = _correlation_operator(block.C, lam, mu.transpose(0, 2, 1))  # Z^T_B
    return float(np.trace(z @ z @ z).real + np.trace(zt @ zt @ zt).real) / 8.0


def correlation_det(block: CorrelationBlock) -> float:
    """det(C): the cubic local invariant that survives for qubit pairs."""
    return float(np.linalg.det(block.C))


_SINGLET = 0.5 * np.array(
    [[0, 0, 0, 0],
     [0, 1, -1, 0],
     [0, -1, 1, 0],
     [0, 0, 0, 0]], dtype=complex)


def werner_state(x: float) -> np.ndarray:
    """The Werner mixture (1-x)/4 * 1 + x S of noise and the singlet projector."""
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"Werner parameter must lie in [0, 1], got {x}")
    return (1.0 - x) / 4.0 * np.eye(4, dtype=complex) + x * _SINGLET


def werner_ppt_boundary() -> float:
    """Mixing parameter where the transposed Werner state stops being PSD.

    The transposed S_4 factors as -(1 + x)^3 (3x - 1) / 256 (see
    :func:`werner_symfns`), so on [0, 1] its only root is x = 1/3.
    """
    return 1.0 / 3.0


def werner_symfns(x: float, transposed: bool) -> tuple[float, float]:
    """Closed-form (S_3, S_4) of the Werner state, optionally after partial
    transpose of the first qubit.

    Plain:      S_3 = (1 - 3x^2 + 2x^3)/16,  S_4 = (1 - 6x^2 + 8x^3 - 3x^4)/256.
    Transposed: S_3 = (1 - 3x^2 - 2x^3)/16,  S_4 = (1 - 6x^2 - 8x^3 - 3x^4)/256.

    The transposed S_4 vanishes at x = 1/3, the separability boundary.
    """
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"Werner parameter must lie in [0, 1], got {x}")
    sign = -1.0 if transposed else 1.0
    s3 = (1.0 - 3.0 * x**2 + sign * 2.0 * x**3) / 16.0
    s4 = (1.0 - 6.0 * x**2 + sign * 8.0 * x**3 - 3.0 * x**4) / 256.0
    return s3, s4
