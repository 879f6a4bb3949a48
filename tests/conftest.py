import os
import shutil
import tempfile
import warnings

import mpmath
import numpy as np
import pytest


def pytest_configure(config):
    # hypothesis caches the constants of the code under test while pytest
    # collects; keep that cache in a temporary directory, not the checkout
    config.hypothesis_home = tempfile.mkdtemp(prefix="hypothesis-")
    os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY", config.hypothesis_home)


def pytest_unconfigure(config):
    shutil.rmtree(config.hypothesis_home, ignore_errors=True)


@pytest.hookimpl(hookwrapper=True, tryfirst=True)
def pytest_runtest_makereport(item, call):
    # on a failing example hypothesis imports libcst to suggest a patch, and
    # that import warns about mypy_extensions; with warnings as errors the
    # warning would end the session instead of reporting the failure
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="mypy_extensions", category=DeprecationWarning)
        yield


def dense_tensors(basis, tol=1e-12):
    """Reference (f, d) as dense (N^2 - 1)^3 arrays, from traces of the
    elements of ``basis``: f_ijk = Tr([l_i, l_j] l_k)/(4i) and
    d_ijk = Tr({l_i, l_j} l_k)/4, entries below ``tol`` set to zero."""
    elems = basis.elements
    prod = np.einsum("iab,jbc->ijac", elems, elems)
    comm = prod - prod.transpose(1, 0, 2, 3)
    anti = prod + prod.transpose(1, 0, 2, 3)
    f = np.einsum("ijab,kba->ijk", comm, elems) / 4j
    d = np.einsum("ijab,kba->ijk", anti, elems) / 4.0
    assert max(np.abs(f.imag).max(), np.abs(d.imag).max()) <= tol
    f = np.where(np.abs(f.real) <= tol, 0.0, f.real)
    d = np.where(np.abs(d.real) <= tol, 0.0, d.real)
    return f, d


# Reference power traces and Newton recursion: one np.trace per power and
# the sign (-1)^(j-1) taken as a power in every term.  The library's
# versions must return the same bits.
def reference_matrix_trace_powers(mat, up_to):
    mat = np.asarray(mat, dtype=complex)
    traces = np.empty(up_to)
    power = mat
    for m in range(up_to):
        traces[m] = np.trace(power).real
        if m + 1 < up_to:
            power = power @ mat
    return traces


def reference_newton_symmetric_functions(traces):
    traces = np.asarray(traces, dtype=float)
    N = traces.size
    S = np.empty(N + 1)
    S[0] = 1.0
    for k in range(1, N + 1):
        acc = 0.0
        for j in range(1, k + 1):
            acc += (-1.0) ** (j - 1) * traces[j - 1] * S[k - j]
        S[k] = acc / k
    return S[1:]


def mp_symmetric_functions(mat):
    """S_1..S_N of the float matrix ``mat`` itself, a reference that shares
    no code with the library: its characteristic polynomial det(x 1 - A) =
    x^N + c_1 x^(N-1) + ... + c_N by Faddeev-LeVerrier at 80 digits,

        M_1 = 1,  c_k = -Tr(A M_k) / k,  M_(k+1) = A M_k + c_k 1,

    and S_k = (-1)^k c_k.  Each float entry converts to mpmath exactly;
    the S_k are returned as mpmath numbers (real parts)."""
    with mpmath.workdps(80):
        A = [[mpmath.mpc(complex(x)) for x in row] for row in np.asarray(mat)]
        N = len(A)
        M = [[mpmath.mpc(int(i == j)) for j in range(N)] for i in range(N)]
        S = []
        for k in range(1, N + 1):
            AM = [[mpmath.fdot(row, col) for col in zip(*M)] for row in A]
            c = -mpmath.fsum(AM[i][i] for i in range(N)) / k
            S.append((-1) ** k * c.real)
            for i in range(N):
                AM[i][i] += c
            M = AM
        return S


# Random states and unitaries for the scans in the tests.
def _ginibre(n: int, rng: np.random.Generator) -> np.ndarray:
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via the QR decomposition of a Ginibre matrix."""
    q, r = np.linalg.qr(_ginibre(n, rng))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def haar_state(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unit ket of dimension n."""
    psi = rng.normal(size=n) + 1j * rng.normal(size=n)
    return psi / np.linalg.norm(psi)


def random_density_matrix(n: int, rng: np.random.Generator,
                          rank: int | None = None) -> np.ndarray:
    """Trace-one PSD matrix G G^dag / Tr(...) with Ginibre G of given rank."""
    g = _ginibre(n, rng)[:, : (rank or n)]
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_hermitian_trace_one(n: int, rng: np.random.Generator,
                               spread: float = 1.0) -> np.ndarray:
    """Hermitian matrix with unit trace and generally indefinite spectrum."""
    g = _ginibre(n, rng)
    h = (g + g.conj().T) * (spread / 2.0)
    return h + (1.0 - np.trace(h).real) / n * np.eye(n)


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


def hyperdeterminant_tangle(psi):
    """Coffman-Kundu-Wootters closed form 4 |d1 - 2 d2 + 4 d3| of the
    amplitudes a_ijk: four times the modulus of Cayley's hyperdeterminant,
    symmetric under every permutation of the qubits."""
    a = np.asarray(psi, dtype=complex).reshape(2, 2, 2)
    pairs = [(a[0, 0, 0], a[1, 1, 1]), (a[0, 0, 1], a[1, 1, 0]),
             (a[0, 1, 0], a[1, 0, 1]), (a[1, 0, 0], a[0, 1, 1])]
    products = [x * y for x, y in pairs]
    d1 = sum(p**2 for p in products)
    d2 = sum(products[i] * products[j] for i in range(4) for j in range(i + 1, 4))
    d3 = (a[0, 0, 0] * a[1, 1, 0] * a[1, 0, 1] * a[0, 1, 1]
          + a[1, 1, 1] * a[0, 0, 1] * a[0, 1, 0] * a[1, 0, 0])
    return float(4.0 * abs(d1 - 2.0 * d2 + 4.0 * d3))
