"""Coherence-vector representation of density operators.

A trace-one Hermitian operator on an N-dimensional space is written as

    rho = (1/N) (1 + c n . lam),      c = sqrt(N(N-1)/2),

with ``n`` a real vector of length N^2 - 1.  The scale is chosen so that
pure states sit on the unit sphere: n.n = 1 and, for N >= 3, n * n = n
under the star product

    (a * b)_k = c/(N-2) sum_ij d_ijk a_i b_j.

Every function here takes the one basis type,
:class:`~blochvec.su_basis.BasisSet`: :func:`from_coherence` and
:func:`to_coherence` are its :meth:`~BasisSet.expand` and
:meth:`~BasisSet.overlaps` with these scales, and :func:`star` is its
:meth:`~BasisSet.d_bilinear` with the prefactor above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    EPS_HERM,
    EPS_ZERO,
    DomainError,
    HermiticityError,
    LayoutError,
    NormalizationError,
    StarUndefinedError,
)
from .su_basis import BasisSet, checked_complex, checked_dim, checked_real


def coherence_scale(dim: int) -> float:
    """The expansion constant c = sqrt(N(N-1)/2)."""
    return math.sqrt(dim * (dim - 1) / 2.0)


@dataclass(frozen=True, eq=False)
class CoherenceState:
    """A real coherence vector of length dim^2 - 1.

    No positivity or norm constraint is imposed: vectors outside the unit
    ball are legal inputs for positivity scanning.  ``dim`` must be an
    integer >= 2 and is stored as an ``int``.  Entries must be finite and
    real (:func:`~blochvec.su_basis.checked_real`): a complex vector raises
    instead of losing its imaginary part.  States compare and hash by
    identity.
    """

    dim: int
    n: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dim", checked_dim(self.dim))
        # a frozen copy: the caller's array stays writable
        vec = checked_real(self.n, (self.dim**2 - 1,), "coherence vector").copy()
        if not np.isfinite(vec).all():
            raise DomainError("coherence vector has non-finite entries")
        vec.setflags(write=False)
        object.__setattr__(self, "n", vec)

    @property
    def norm_squared(self) -> float:
        return float(self.n @ self.n)


def require_hermitian(rho: np.ndarray) -> np.ndarray:
    """Return rho as a complex array, raising unless it is Hermitian.

    This is the input check of every operator route, the gates included:
    rho is a square matrix of :func:`~blochvec.su_basis.checked_complex`,
    so an N above :data:`~blochvec.su_basis.MAX_BASIS_DIM` raises
    :class:`DimensionError` here, before the matrix is copied or read.
    The tolerance scales with the largest entry: EPS_HERM * max(1,
    |rho|_max).  A NaN or infinite entry makes that largest entry NaN or
    infinite and raises :class:`DomainError` before the residual is formed.
    """
    rho = checked_complex(rho, None, "operator", finite=False)  # the peak tests finiteness
    peak = np.abs(rho).max()
    if not peak < math.inf:  # refused before rho - rho^dag can warn on inf - inf
        raise DomainError("operator has non-finite entries")
    scale = max(1.0, peak)
    resid = np.abs(rho - rho.conj().T).max()
    if not resid <= EPS_HERM * scale < math.inf:
        raise HermiticityError(f"operator is not Hermitian (residual {resid:.2e})")
    return rho


def to_coherence(rho: np.ndarray, basis: BasisSet) -> CoherenceState:
    """Expand a trace-one Hermitian operator over ``basis``.

    n_i = sqrt(N/(2(N-1))) Tr(rho lam_i); at N = 3 this is the familiar
    (sqrt(3)/2) Tr(rho lam_i).  Hermiticity is checked by
    :func:`require_hermitian`, and |Tr rho - 1| must not exceed EPS_ZERO.
    """
    rho = require_hermitian(rho)
    overlaps = basis.overlaps(rho)  # refuses an operator of another dimension
    tr = np.trace(rho)
    if abs(tr - 1.0) > EPS_ZERO:
        raise NormalizationError(f"operator trace {tr:.6g} is not 1")
    N = basis.dim
    return CoherenceState(dim=N, n=np.sqrt(N / (2.0 * (N - 1))) * overlaps)


def from_coherence(state: CoherenceState, basis: BasisSet) -> np.ndarray:
    """Reconstruct rho = (1/N)(1 + c n.lam); Hermitian and trace one, not
    necessarily positive.  A state of another dimension raises LayoutError."""
    return _density(basis.expand(state.n))


def _density(X: np.ndarray) -> np.ndarray:
    """rho = (1/N)(1 + c X) of the N x N operator X = n.lam."""
    N = len(X)
    return (np.eye(N, dtype=complex) + coherence_scale(N) * X) / N


def star(a: np.ndarray, b: np.ndarray, basis: BasisSet) -> np.ndarray:
    """Star product (a * b)_k = c/(N-2) d_ijk a_i b_j; symmetric in a, b.

    Undefined at N = 2 where d vanishes identically and the prefactor is
    singular.
    """
    N = basis.dim
    if N < 3:
        raise StarUndefinedError("star product requires N >= 3 (d = 0 for qubits)")
    return coherence_scale(N) / (N - 2) * basis.d_bilinear(a, b)


def is_pure(state: CoherenceState, basis: BasisSet) -> bool:
    """True iff |n.n - 1| <= EPS_ZERO and (for N >= 3) |n*n - n|_inf <= EPS_ZERO.

    For N = 2 only the norm condition applies; the surface of the Bloch
    sphere is exactly the pure states.
    """
    if abs(state.norm_squared - 1.0) > EPS_ZERO:
        return False
    if state.dim == 2:
        return True
    return np.abs(star(state.n, state.n, basis) - state.n).max() <= EPS_ZERO


def mutual_angle(s1: CoherenceState, s2: CoherenceState) -> float:
    """Angle between two coherence vectors, arccos(n1.n2 / (|n1||n2|)).

    Orthogonal pure states satisfy n1.n2 = -1/(N-1); for qubits that is
    the antipodal angle pi.  States of different dimensions raise
    :class:`LayoutError`.
    """
    if s1.dim != s2.dim:
        raise LayoutError("states have different dimensions")
    norm1 = np.linalg.norm(s1.n)
    norm2 = np.linalg.norm(s2.n)
    if norm1 == 0.0 or norm2 == 0.0:
        raise DomainError("angle undefined for a zero coherence vector")
    cosang = float(np.clip(s1.n @ s2.n / (norm1 * norm2), -1.0, 1.0))
    return float(np.arccos(cosang))


def orthogonal_states(s1: CoherenceState, s2: CoherenceState) -> bool:
    """Orthogonality predicate for pure states: n1.n2 = -1/(N-1) within EPS_ZERO."""
    if s1.dim != s2.dim:
        raise LayoutError("states have different dimensions")
    return abs(float(s1.n @ s2.n) + 1.0 / (s1.dim - 1)) <= EPS_ZERO
