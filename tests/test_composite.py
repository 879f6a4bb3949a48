import numpy as np
import pytest

from blochvec import (
    CompositeLayout,
    DomainError,
    LayoutError,
    Verdict,
    build_gellmann_basis,
    build_product_basis,
    check_positivity,
    correlation_det,
    extract_correlation,
    local_invariant_cubic,
    local_invariant_quadratic,
    partial_trace,
    partial_transpose,
    partial_transpose_coherence,
    product_tensors,
    symmetric_functions,
    to_coherence,
    werner_state,
    werner_symfns,
)

from conftest import dense_tensors, random_density_matrix, random_unitary

TWO_QUBITS = CompositeLayout(dims=(2, 2))
SINGLET_KET = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2)
SINGLET = np.outer(SINGLET_KET, SINGLET_KET).astype(complex)


def test_layout_two_qubits_matches_product_basis():
    basis = build_product_basis((2, 2))
    assert TWO_QUBITS.labels == basis.labels
    # sigma_y x 1 sits second, scaled by 1/sqrt(2) to Tr(lam^2) = 2 like every element
    assert TWO_QUBITS.labels[1] == (2, 0)
    sigma_y = np.array([[0, -1j], [1j, 0]])
    np.testing.assert_allclose(basis.elements[1], np.kron(sigma_y, np.eye(2)) / np.sqrt(2),
                               atol=1e-15)


def test_partial_trace_product_state():
    rng = np.random.default_rng(0)
    rho_a = random_density_matrix(2, rng)
    rho_b = random_density_matrix(2, rng)
    joint = np.kron(rho_a, rho_b)
    np.testing.assert_allclose(partial_trace(joint, TWO_QUBITS, [0]), rho_a, atol=1e-13)
    np.testing.assert_allclose(partial_trace(joint, TWO_QUBITS, [1]), rho_b, atol=1e-13)


def test_partial_trace_singlet_marginal_is_mixed():
    np.testing.assert_allclose(partial_trace(SINGLET, TWO_QUBITS, [0]),
                               np.eye(2) / 2, atol=1e-13)


def test_partial_trace_ghz():
    ghz = np.zeros(8, dtype=complex)
    ghz[0] = ghz[7] = 1 / np.sqrt(2)
    rho = np.outer(ghz, ghz.conj())
    layout = CompositeLayout(dims=(2, 2, 2))
    want = np.zeros((4, 4), dtype=complex)
    want[0, 0] = want[3, 3] = 0.5
    np.testing.assert_allclose(partial_trace(rho, layout, [0, 1]), want, atol=1e-13)
    np.testing.assert_allclose(np.trace(partial_trace(rho, layout, [2])), 1.0, atol=1e-13)


def test_partial_trace_errors():
    with pytest.raises(LayoutError):
        partial_trace(np.eye(3, dtype=complex), TWO_QUBITS, [0])
    with pytest.raises(LayoutError):
        partial_trace(SINGLET, TWO_QUBITS, [2])


@pytest.mark.parametrize("index", [0.7, 1.0, True], ids=["fraction", "integral-float", "bool"])
def test_partial_trace_refuses_an_index_that_is_not_an_integer(index):
    with pytest.raises(LayoutError):
        partial_trace(SINGLET, TWO_QUBITS, [index])


@pytest.mark.parametrize("index", [1.5, 1.0, True], ids=["fraction", "integral-float", "bool"])
def test_partial_transposes_refuse_a_subsystem_that_is_not_an_integer(index):
    state = to_coherence(SINGLET, build_product_basis((2, 2)))
    with pytest.raises(LayoutError):
        partial_transpose(SINGLET, TWO_QUBITS, index)
    with pytest.raises(LayoutError):
        partial_transpose_coherence(state, TWO_QUBITS, index)


def test_numpy_integer_indices_are_accepted():
    np.testing.assert_array_equal(partial_trace(SINGLET, TWO_QUBITS, [np.int64(1)]),
                                  partial_trace(SINGLET, TWO_QUBITS, [1]))
    np.testing.assert_array_equal(partial_transpose(SINGLET, TWO_QUBITS, np.int64(1)),
                                  partial_transpose(SINGLET, TWO_QUBITS, 1))


def test_layout_total_is_the_exact_product():
    # np.prod of these dims wraps in int64 to 4, so a 4x4 matrix would fit
    layout = CompositeLayout(dims=(2**62 + 1, 4))
    assert layout.total == 2**64 + 4
    with pytest.raises(LayoutError):
        partial_trace(np.eye(4, dtype=complex) / 4, layout, [1])
    with pytest.raises(LayoutError):
        partial_transpose(np.eye(4, dtype=complex) / 4, layout)


def test_partial_transpose_product_state_stays_psd():
    rng = np.random.default_rng(1)
    joint = np.kron(random_density_matrix(2, rng), random_density_matrix(2, rng))
    pt = partial_transpose(joint, TWO_QUBITS, 0)
    assert np.linalg.eigvalsh(pt).min() >= -1e-12
    assert np.trace(pt).real == pytest.approx(1.0)


def test_partial_transpose_singlet():
    pt = partial_transpose(SINGLET, TWO_QUBITS, 0)
    assert np.linalg.eigvalsh(pt).min() == pytest.approx(-0.5, abs=1e-12)
    with pytest.raises(LayoutError):
        partial_transpose(SINGLET, TWO_QUBITS, 2)


def test_partial_transpose_coherence_flips_listed_components():
    basis = build_product_basis((2, 2))
    rng = np.random.default_rng(7)
    rho = random_density_matrix(4, rng)
    state = to_coherence(rho, basis)
    flipped = partial_transpose_coherence(state, TWO_QUBITS, 0)
    changed = np.nonzero(np.abs(flipped.n - state.n) > 1e-14)[0]
    # 1-based components 2, 10, 11, 12
    np.testing.assert_array_equal(changed, [1, 9, 10, 11])
    np.testing.assert_allclose(flipped.n[changed], -state.n[changed])


@pytest.mark.parametrize("subsystem", [0, 1])
def test_partial_transpose_routes_agree(subsystem):
    basis = build_product_basis((2, 2))
    rng = np.random.default_rng(17 + subsystem)
    for _ in range(25):
        rho = random_density_matrix(4, rng)
        state = to_coherence(rho, basis)
        via_coherence = partial_transpose_coherence(state, TWO_QUBITS, subsystem)
        via_matrix = to_coherence(partial_transpose(rho, TWO_QUBITS, subsystem), basis)
        assert np.abs(via_coherence.n - via_matrix.n).max() <= 1e-10


def test_partial_transpose_coherence_needs_two_qubits():
    state = to_coherence(np.eye(6) / 6, build_product_basis((2, 3)))
    with pytest.raises(LayoutError):
        partial_transpose_coherence(state, CompositeLayout(dims=(2, 3)), 0)


def test_extract_correlation_product_state():
    rng = np.random.default_rng(3)
    rho_a = random_density_matrix(2, rng)
    rho_b = random_density_matrix(2, rng)
    block = extract_correlation(np.kron(rho_a, rho_b), TWO_QUBITS)
    np.testing.assert_allclose(block.C, np.outer(block.nA, block.nB), atol=1e-12)
    np.testing.assert_allclose(block.reconstruct(), np.kron(rho_a, rho_b), atol=1e-12)


def test_extract_correlation_singlet():
    block = extract_correlation(SINGLET, TWO_QUBITS)
    np.testing.assert_allclose(block.nA, np.zeros(3), atol=1e-13)
    np.testing.assert_allclose(block.nB, np.zeros(3), atol=1e-13)
    np.testing.assert_allclose(block.C, -np.eye(3), atol=1e-13)
    assert local_invariant_quadratic(block) == pytest.approx(3.0, abs=1e-12)


@pytest.mark.parametrize("x", [0.0, 0.3, 0.7, 1.0])
def test_extract_correlation_werner(x):
    block = extract_correlation(werner_state(x), TWO_QUBITS)
    np.testing.assert_allclose(block.C, -x * np.eye(3), atol=1e-13)
    assert local_invariant_quadratic(block) == pytest.approx(3 * x**2, abs=1e-12)
    assert correlation_det(block) == pytest.approx(-(x**3), abs=1e-12)


def test_reconstruction_of_random_states():
    rng = np.random.default_rng(9)
    for dims in [(2, 2), (2, 3), (3, 3)]:
        layout = CompositeLayout(dims=dims)
        rho = random_density_matrix(layout.total, rng)
        block = extract_correlation(rho, layout)
        np.testing.assert_allclose(block.reconstruct(), rho, atol=1e-12)


def test_local_invariants_under_local_unitaries():
    rng = np.random.default_rng(23)
    for _ in range(50):
        rho = random_density_matrix(4, rng)
        block = extract_correlation(rho, TWO_QUBITS)
        u = np.kron(random_unitary(2, rng), random_unitary(2, rng))
        rot = extract_correlation(u @ rho @ u.conj().T, TWO_QUBITS)
        assert local_invariant_quadratic(rot) == pytest.approx(
            local_invariant_quadratic(block), abs=1e-9)
        assert correlation_det(rot) == pytest.approx(correlation_det(block), abs=1e-9)
        assert rot.nA @ rot.nA == pytest.approx(block.nA @ block.nA, abs=1e-9)
        assert rot.nB @ rot.nB == pytest.approx(block.nB @ block.nB, abs=1e-9)


def test_global_quadratic_conservation():
    # nA.nA + nB.nB + sum C^2 = 4 Tr(rho^2) - 1 is conserved under any
    # global unitary.
    rng = np.random.default_rng(29)
    for _ in range(20):
        rho = random_density_matrix(4, rng)
        u = random_unitary(4, rng)
        for mat in (rho, u @ rho @ u.conj().T):
            block = extract_correlation(mat, TWO_QUBITS)
            total = (block.nA @ block.nA + block.nB @ block.nB
                     + local_invariant_quadratic(block))
            purity = np.trace(mat @ mat).real
            assert total == pytest.approx(4 * purity - 1.0, abs=1e-9)


def dense_cubic_invariant(block, basis_a, basis_b):
    """sum d_ijk d_lmn C_il C_jm C_kn from the dense reference tensors."""
    da, db = dense_tensors(basis_a)[1], dense_tensors(basis_b)[1]
    return float(np.einsum("ijk,lmn,il,jm,kn->", da, db, block.C, block.C, block.C,
                           optimize=True))


def test_cubic_invariant_zero_for_qubits():
    # any qubit factor makes d, and so the invariant, vanish
    rng = np.random.default_rng(31)
    for dims in ((2, 2), (2, 3), (3, 2)):
        basis_a, basis_b = build_gellmann_basis(dims[0]), build_gellmann_basis(dims[1])
        layout = CompositeLayout(dims=dims)
        block = extract_correlation(random_density_matrix(dims[0] * dims[1], rng), layout)
        assert local_invariant_cubic(block, basis_a, basis_b) == pytest.approx(0.0, abs=1e-13), dims


def test_cubic_invariant_matches_dense_contraction():
    rng = np.random.default_rng(41)
    for dims in ((2, 2), (2, 3), (3, 2), (3, 3)):
        basis_a, basis_b = build_gellmann_basis(dims[0]), build_gellmann_basis(dims[1])
        layout = CompositeLayout(dims=dims)
        for _ in range(5):
            block = extract_correlation(random_density_matrix(dims[0] * dims[1], rng), layout)
            assert local_invariant_cubic(block, basis_a, basis_b) == pytest.approx(
                dense_cubic_invariant(block, basis_a, basis_b), abs=1e-14), dims


def test_cubic_invariant_qutrits():
    layout = CompositeLayout(dims=(3, 3))
    qutrit = build_gellmann_basis(3)
    d3 = dense_tensors(qutrit)[1]
    d_norm = float(np.einsum("ijk,ijk->", d3, d3))

    # isotropic block C = c * 1 contracts to c^3 sum d_ijk^2
    from blochvec import CorrelationBlock

    rng = np.random.default_rng(37)
    c = 0.42
    iso = CorrelationBlock(layout=layout, nA=np.zeros(8), nB=np.zeros(8),
                           C=c * np.eye(8))
    assert local_invariant_cubic(iso, qutrit, qutrit) == pytest.approx(c**3 * d_norm, abs=1e-10)

    for _ in range(10):
        rho = random_density_matrix(9, rng)
        block = extract_correlation(rho, layout)
        value = local_invariant_cubic(block, qutrit, qutrit)
        u = np.kron(random_unitary(3, rng), random_unitary(3, rng))
        rot = extract_correlation(u @ rho @ u.conj().T, layout)
        assert local_invariant_cubic(rot, qutrit, qutrit) == pytest.approx(value, abs=1e-9)


def test_werner_state_entries():
    np.testing.assert_allclose(werner_state(0.0), np.eye(4) / 4, atol=1e-15)
    np.testing.assert_allclose(werner_state(1.0), SINGLET, atol=1e-15)
    half = werner_state(0.5)
    np.testing.assert_allclose(np.diag(half).real, [1 / 8, 3 / 8, 3 / 8, 1 / 8])
    assert half[1, 2] == pytest.approx(-0.25)
    with pytest.raises(DomainError):
        werner_state(1.2)


@pytest.mark.parametrize("x", np.linspace(0.0, 1.0, 11))
def test_werner_symfns_match_pipeline(x):
    S_plain = symmetric_functions(werner_state(x))
    S_pt = symmetric_functions(partial_transpose(werner_state(x), TWO_QUBITS, 0))
    s3, s4 = werner_symfns(x, transposed=False)
    s3t, s4t = werner_symfns(x, transposed=True)
    assert S_plain[2] == pytest.approx(s3, abs=1e-10)
    assert S_plain[3] == pytest.approx(s4, abs=1e-10)
    assert S_pt[2] == pytest.approx(s3t, abs=1e-10)
    assert S_pt[3] == pytest.approx(s4t, abs=1e-10)


def test_werner_ppt_boundary_bisection():
    """Bisecting the sign of the transposed S_4 through the generic pipeline
    lands on the closed-form root."""
    from blochvec import werner_ppt_boundary

    lo, hi = 0.0, 1.0
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        s4 = symmetric_functions(partial_transpose(werner_state(mid), TWO_QUBITS, 0))[3]
        if s4 > 0.0:
            lo = mid
        else:
            hi = mid
    assert werner_ppt_boundary() == 1.0 / 3.0
    assert 0.5 * (lo + hi) == pytest.approx(werner_ppt_boundary(), abs=1e-9)


def test_werner_boundary_and_signs():
    # separability boundary: transposed S4 vanishes at x = 1/3
    _, s4t = werner_symfns(1 / 3, transposed=True)
    assert s4t == pytest.approx(0.0, abs=1e-15)
    s3t, s4t = werner_symfns(0.4, transposed=True)
    assert s4t < 0 < s3t
    s3t, s4t = werner_symfns(0.6, transposed=True)
    assert s4t < 0 and s3t < 0
    s3, s4 = werner_symfns(1.0, transposed=False)
    assert s3 == pytest.approx(0.0, abs=1e-15)
    assert s4 == pytest.approx(0.0, abs=1e-15)


def test_transposed_werner_has_one_negative_eigenvalue():
    for x in (0.4, 0.6, 0.9, 1.0):
        pt = partial_transpose(werner_state(x), TWO_QUBITS, 0)
        seq = check_positivity(pt)
        assert seq.verdict is Verdict.NOT_PSD
        assert seq.sign_changes == 3  # three positive, one negative
        assert int(np.sum(np.linalg.eigvalsh(pt) < -1e-12)) == 1


def test_product_basis_structure_tensor_cache_consistency():
    # the structure-tensor name serves the one cached product basis
    basis = build_product_basis((2, 2))
    assert product_tensors((2, 2)) is basis and basis.dim == 4
