import numpy as np
import pytest


def dense_tensors(tensors, tol=1e-12):
    """Reference (f, d) as dense (N^2 - 1)^3 arrays, from traces of the
    basis elements of ``tensors``: f_ijk = Tr([l_i, l_j] l_k)/(4i) and
    d_ijk = Tr({l_i, l_j} l_k)/4, entries below ``tol`` set to zero."""
    elems = tensors.basis.elements
    prod = np.einsum("iab,jbc->ijac", elems, elems)
    comm = prod - prod.transpose(1, 0, 2, 3)
    anti = prod + prod.transpose(1, 0, 2, 3)
    f = np.einsum("ijab,kba->ijk", comm, elems) / 4j
    d = np.einsum("ijab,kba->ijk", anti, elems) / 4.0
    assert max(np.abs(f.imag).max(), np.abs(d.imag).max()) <= tol
    f = np.where(np.abs(f.real) <= tol, 0.0, f.real)
    d = np.where(np.abs(d.real) <= tol, 0.0, d.real)
    return f, d


def _hermitize(m):
    return 0.5 * (m + m.conj().T)


# 3x3 trace-one reference operator with |n| close to 0.666; the raw entries
# are asymmetric by 1e-6 in one off-diagonal pair, so the Hermitian part is
# used.
EXAMPLE_3X3 = _hermitize(np.array([
    [0.15278, 0.036084 - 0.06250j, -0.072169 + 0.12500j],
    [0.036084 + 0.06250j, 0.23611, -0.25],
    [-0.072168 - 0.12500j, -0.25, 0.61111],
]))


@pytest.fixture
def example_3x3():
    return EXAMPLE_3X3.copy()


_YY = np.array([
    [0, 0, 0, -1],
    [0, 0, 1, 0],
    [0, 1, 0, 0],
    [-1, 0, 0, 0],
], dtype=float)


def pair_concurrence_squared_oracle(psi, pair):
    """Exact two-qubit concurrence of one marginal of a pure 3-qubit state.

    The marginal on the kept pair is X X^dag with X the reshaped amplitude
    vector, so the flip-spectrum roots are the singular values of the 2x2
    symmetric matrix X^T (sy x sy) X: no matrix square roots involved.
    """
    axes = {('A', 'B'): (0, 1, 2), ('A', 'C'): (0, 2, 1), ('B', 'C'): (1, 2, 0)}[pair]
    x = np.asarray(psi, dtype=complex).reshape(2, 2, 2).transpose(axes).reshape(4, 2)
    sv = np.linalg.svd(x.T @ _YY @ x, compute_uv=False)
    return float(max(0.0, sv[0] - sv[1]) ** 2)


def tangle_oracle(psi):
    """Concurrence-difference route: C^2_(A)BC - C^2_AB - C^2_AC."""
    rho_a = np.einsum("ij,kj->ik", psi.reshape(2, 4), psi.reshape(2, 4).conj())
    c2_a_bc = float(4.0 * np.linalg.det(rho_a).real)
    return (c2_a_bc
            - pair_concurrence_squared_oracle(psi, ('A', 'B'))
            - pair_concurrence_squared_oracle(psi, ('A', 'C')))
