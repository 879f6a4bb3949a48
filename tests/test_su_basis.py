import json
import pathlib

import numpy as np
import pytest

from blochvec import (
    CompositeLayout,
    DimensionError,
    DomainError,
    InconsistentBasisError,
    LayoutError,
    SU3_STANDARD_TO_GROUPED,
    BasisSet,
    basis_from_json,
    basis_to_json,
    build_gellmann_basis,
    build_product_basis,
    gellmann_tensors,
    product_tensors,
    structure_constants,
)
from conftest import dense_tensors

DATA = pathlib.Path(__file__).parent / "data"

PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def test_pauli_basis():
    basis = build_gellmann_basis(2)
    np.testing.assert_allclose(basis.elements[0], PAULI["x"], atol=1e-15)
    np.testing.assert_allclose(basis.elements[1], PAULI["y"], atol=1e-15)
    np.testing.assert_allclose(basis.elements[2], PAULI["z"], atol=1e-15)


@pytest.mark.parametrize("dim", range(2, 7))
def test_gellmann_invariants(dim):
    basis = build_gellmann_basis(dim)
    assert len(basis) == dim**2 - 1
    basis.validate(tol=1e-12)  # hermitian, traceless, Tr(l_i l_j) = 2 delta_ij


def test_su3_diagonal_pair():
    basis = build_gellmann_basis(3)
    lam3 = basis.elements[SU3_STANDARD_TO_GROUPED[2]]
    lam8 = basis.elements[SU3_STANDARD_TO_GROUPED[7]]
    np.testing.assert_allclose(lam3, np.diag([1.0, -1.0, 0.0]), atol=1e-15)
    np.testing.assert_allclose(lam8, np.diag([1.0, 1.0, -2.0]) / np.sqrt(3), atol=1e-15)


def test_invalid_dimension():
    with pytest.raises(DimensionError):
        build_gellmann_basis(1)


def test_product_basis_two_qubits_matches_listed_order():
    basis = build_product_basis((2, 2))
    assert len(basis) == 15
    expected_labels = (
        (1, 0), (2, 0), (3, 0),
        (0, 1), (0, 2), (0, 3),
        (1, 1), (1, 2), (1, 3),
        (2, 1), (2, 2), (2, 3),
        (3, 1), (3, 2), (3, 3),
    )
    assert basis.labels == expected_labels
    # element 7 (1-based) is sigma_x x sigma_x / sqrt(2)
    np.testing.assert_allclose(
        basis.elements[6], np.kron(PAULI["x"], PAULI["x"]) / np.sqrt(2), atol=1e-15
    )
    np.testing.assert_allclose(
        basis.elements[0], np.kron(PAULI["x"], np.eye(2)) / np.sqrt(2), atol=1e-15
    )
    basis.validate(tol=1e-12)


def test_product_basis_single_factor_reduces_to_pauli():
    single = build_product_basis((2,))
    np.testing.assert_allclose(single.elements, build_gellmann_basis(2).elements)


@pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3), (3, 3)])
def test_product_basis_orthogonality(dims):
    basis = build_product_basis(dims)
    assert len(basis) == int(np.prod(dims)) ** 2 - 1
    basis.validate(tol=1e-12)


def test_product_basis_errors():
    with pytest.raises(LayoutError):
        build_product_basis(())
    with pytest.raises(DimensionError):
        build_product_basis((2, 4))


def test_non_integer_subsystem_dims_are_refused():
    for dims in ((2.7, 2), (2, 2.0), (np.float64(3.0), 2)):
        with pytest.raises(DimensionError):
            build_product_basis(dims)
        with pytest.raises(DimensionError):
            product_tensors(dims)
        with pytest.raises(LayoutError):
            CompositeLayout(dims=dims)
    # Python and numpy integers are both accepted, as plain ints
    dims = (np.int64(2), np.int32(3))
    assert build_product_basis(dims) is build_product_basis((2, 3))
    assert product_tensors(dims) is product_tensors((2, 3))
    layout = CompositeLayout(dims=dims)
    assert layout.dims == (2, 3) and all(type(d) is int for d in layout.dims)


def test_pauli_structure_constants_are_levi_civita():
    tensors = gellmann_tensors(2)
    eps = np.zeros((3, 3, 3))
    eps[0, 1, 2] = eps[1, 2, 0] = eps[2, 0, 1] = 1.0
    eps[0, 2, 1] = eps[2, 1, 0] = eps[1, 0, 2] = -1.0
    f, d = dense_tensors(tensors)
    np.testing.assert_allclose(f, eps, atol=1e-14)
    assert np.abs(d).max() == 0.0


def test_su3_d_components():
    _, d = dense_tensors(gellmann_tensors(3))
    std = SU3_STANDARD_TO_GROUPED
    inv_sqrt3 = 1.0 / np.sqrt(3)
    for a in (1, 2, 3):
        i = std[a - 1]
        assert d[i, i, std[7]] == pytest.approx(inv_sqrt3, abs=1e-12)
    assert d[std[7], std[7], std[7]] == pytest.approx(-inv_sqrt3, abs=1e-12)


def test_su3_full_constant_tables():
    # classic su(3) values in the standard lambda_1..lambda_8 numbering
    f_dense, d_dense = dense_tensors(gellmann_tensors(3))
    std = SU3_STANDARD_TO_GROUPED

    def f(a, b, c):
        return f_dense[std[a - 1], std[b - 1], std[c - 1]]

    def d(a, b, c):
        return d_dense[std[a - 1], std[b - 1], std[c - 1]]

    s32 = np.sqrt(3) / 2
    f_table = {(1, 2, 3): 1.0, (1, 4, 7): 0.5, (1, 5, 6): -0.5, (2, 4, 6): 0.5,
               (2, 5, 7): 0.5, (3, 4, 5): 0.5, (3, 6, 7): -0.5,
               (4, 5, 8): s32, (6, 7, 8): s32}
    for (a, b, c), want in f_table.items():
        assert f(a, b, c) == pytest.approx(want, abs=1e-12), (a, b, c)
    d_table = {(1, 4, 6): 0.5, (1, 5, 7): 0.5, (2, 4, 7): -0.5, (2, 5, 6): 0.5,
               (3, 4, 4): 0.5, (3, 5, 5): 0.5, (3, 6, 6): -0.5, (3, 7, 7): -0.5,
               (4, 4, 8): -1 / (2 * np.sqrt(3)), (5, 5, 8): -1 / (2 * np.sqrt(3)),
               (6, 6, 8): -1 / (2 * np.sqrt(3)), (7, 7, 8): -1 / (2 * np.sqrt(3))}
    for (a, b, c), want in d_table.items():
        assert d(a, b, c) == pytest.approx(want, abs=1e-12), (a, b, c)


def test_two_qubit_d_components_match_listed_values():
    _, d = dense_tensors(structure_constants(build_product_basis((2, 2))))
    listed = {  # 1-based triples, values in units of 1/sqrt(2)
        (1, 4, 7): 1, (1, 5, 8): 1, (1, 6, 9): 1,
        (2, 4, 10): 1, (2, 5, 11): 1, (2, 6, 12): 1,
        (3, 4, 13): 1, (3, 5, 14): 1, (3, 6, 15): 1,
        (7, 11, 15): -1, (8, 12, 13): -1, (7, 12, 14): 1,
        (9, 10, 14): -1, (8, 10, 15): 1, (9, 11, 13): 1,
    }
    for (i, j, k), sign in listed.items():
        assert d[i - 1, j - 1, k - 1] == pytest.approx(sign / np.sqrt(2), abs=1e-12)
    i, j, k = np.nonzero(d)
    assert np.count_nonzero((i <= j) & (j <= k)) == 15  # one entry per triple


@pytest.mark.parametrize("dim", range(2, 7))
def test_tensor_symmetries(dim):
    f, d = dense_tensors(gellmann_tensors(dim))
    for perm, sign in [((1, 0, 2), -1), ((0, 2, 1), -1), ((2, 1, 0), -1),
                       ((1, 2, 0), 1), ((2, 0, 1), 1)]:
        assert np.abs(f - sign * f.transpose(perm)).max() <= 1e-12
        assert np.abs(d - d.transpose(perm)).max() <= 1e-12


@pytest.mark.parametrize("dim", range(2, 7))
def test_product_rule_reconstruction(dim):
    basis = build_gellmann_basis(dim)
    f, d = dense_tensors(gellmann_tensors(dim))
    elems = basis.elements
    prods = np.einsum("iab,jbc->ijac", elems, elems)
    recon = (2.0 / dim) * np.einsum("ij,ab->ijab", np.eye(len(basis)), np.eye(dim)) \
        + np.einsum("ijk,kab->ijab", 1j * f + d, elems)
    assert np.abs(prods - recon).max() <= 1e-10


@pytest.mark.parametrize("layout", [(2,), (3,), (4,), (5,), (6,), (2, 2), (3, 3), (2, 2, 2)])
def test_matrix_free_bilinears_match_dense_contraction(layout):
    t = gellmann_tensors(layout[0]) if len(layout) == 1 else product_tensors(layout)
    f, d = dense_tensors(t)
    k = t.dim**2 - 1
    rng = np.random.default_rng(k)
    for _ in range(5):
        a, b = (v / np.linalg.norm(v) for v in rng.normal(size=(2, k)))
        np.testing.assert_allclose(t.d_bilinear(a, b), b @ np.tensordot(a, d, axes=(0, 0)),
                                   rtol=0, atol=1e-13)
        np.testing.assert_allclose(t.f_bilinear(a, b), b @ np.tensordot(a, f, axes=(0, 0)),
                                   rtol=0, atol=1e-13)
    # complex arguments are refused, not truncated to their real parts
    z = a + 0.5j * b
    for call in (lambda: t.d_bilinear(z, b), lambda: t.d_bilinear(a, z),
                 lambda: t.f_bilinear(z, b), lambda: t.f_bilinear(a, z),
                 lambda: t.basis.expand(z)):
        with pytest.raises(DomainError):
            call()


@pytest.mark.parametrize("layout", [(2,), (3,), (4,), (5,), (6,), (2, 2), (3, 3), (2, 2, 2)])
def test_expand_and_overlaps_match_dense_references(layout):
    basis = build_gellmann_basis(layout[0]) if len(layout) == 1 else build_product_basis(layout)
    N, k = basis.dim, len(basis)
    rng = np.random.default_rng(N)
    for _ in range(5):
        v = rng.normal(size=k)
        M = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))  # not Hermitian
        np.testing.assert_allclose(basis.expand(v),
                                   np.tensordot(v, basis.elements, axes=(0, 0)),
                                   rtol=0, atol=1e-14)
        np.testing.assert_allclose(basis.overlaps(M),
                                   np.einsum("ab,iba->i", M, basis.elements).real,
                                   rtol=0, atol=1e-14)
    with pytest.raises(LayoutError):
        basis.expand(np.zeros(k + 1))
    with pytest.raises(LayoutError):
        basis.overlaps(np.zeros((N + 1, N + 1)))


def test_structure_tensors_hold_no_copy_of_the_basis():
    basis = build_gellmann_basis(32)
    t = structure_constants(basis)
    held = [v for v in vars(t).values() if isinstance(v, np.ndarray)]
    assert all(np.shares_memory(v, basis.elements) for v in held)


def test_qubit_d_bilinear_is_exactly_zero():
    t = gellmann_tensors(2)
    rng = np.random.default_rng(2)
    a, b = rng.normal(size=(2, 3))
    assert np.all(t.d_bilinear(a, b) == 0.0)
    assert t.d_bilinear(a, b).dtype == float


def _bilinear_chain(n, t):
    """[0, 0, c_2, ..., c_9] from d_bilinear and projections, the reference
    the operator-product chain is checked against."""
    w = t.d_bilinear(n, n)
    A = t.d_bilinear(w, w)
    return [0.0, 0.0, n @ n, w @ n, w @ w, A @ n, A @ w,
            t.d_bilinear(A, w) @ n, A @ A, t.d_bilinear(A, A) @ n]


@pytest.mark.parametrize("layout", [(3,), (4,), (5,), (6,), (7,), (8,), (9,),
                                    (2, 2), (3, 3), (2, 2, 2), (2, 2, 2, 2)])
def test_d_chain_matches_bilinear_chain(layout):
    t = gellmann_tensors(layout[0]) if len(layout) == 1 else product_tensors(layout)
    rng = np.random.default_rng(t.dim + 100 * len(layout))
    for _ in range(5):
        n = rng.normal(size=t.dim**2 - 1)
        n *= rng.uniform(0.5, 2.0) / np.linalg.norm(n)
        got, want = t.d_chain(n), _bilinear_chain(n, t)
        assert len(got) == 10 and got[:2] == (0.0, 0.0)
        for k in range(2, 10):
            # relative to the value or, where it nearly cancels, to |n|^k
            scale = max(abs(want[k]), (n @ n) ** (k / 2))
            assert abs(got[k] - want[k]) <= 1e-12 * scale, (k, got[k], want[k])


def test_qubit_d_chain_is_exactly_zero_beyond_c2():
    t = gellmann_tensors(2)
    n = np.random.default_rng(3).normal(size=3)
    chain = t.d_chain(n)
    assert chain[2] == float(n @ n)
    assert all(c == 0.0 for c in chain[3:]) and len(chain) == 10


def test_structure_constants_build_no_dense_tensors():
    import tracemalloc

    from blochvec import CoherenceState, closed_invariants

    t = structure_constants(build_product_basis((2, 2, 2, 2)))
    dense_bytes = 255**3 * 8  # one dense (N^2-1)^3 tensor: 133 MB

    def held():
        return sum(v.nbytes for v in vars(t).values() if isinstance(v, np.ndarray))

    before = held()
    attributes = dict(vars(t))
    assert before < dense_bytes / 50
    v = np.random.default_rng(255).normal(size=255)
    tracemalloc.start()
    try:
        t.d_bilinear(v, v)
        t.f_bilinear(v, np.ones(255))
        t.d_chain(v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < dense_bytes / 100  # transient work stays O(N^4)
    assert held() == before  # and the instance keeps nothing new
    assert vars(t) == attributes
    closed_invariants(CoherenceState(dim=16, n=v), t)
    assert vars(t) == attributes  # the invariant memo lives outside the instance


@pytest.mark.parametrize("build, arg", [(build_gellmann_basis, 65),
                                        (build_gellmann_basis, 10**6),
                                        (build_product_basis, [3] * 4),
                                        (build_product_basis, [3] * 5),
                                        (build_product_basis, [2] * 64),
                                        (gellmann_tensors, 65),
                                        (product_tensors, [2] * 7)])
def test_oversized_bases_are_refused_before_allocating(build, arg):
    import tracemalloc

    tracemalloc.start()
    try:
        with pytest.raises(DimensionError, match="up to N = 64"):
            build(arg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_bases_at_the_size_limit_are_admitted(monkeypatch):
    import blochvec.su_basis as su_basis

    class Admitted(Exception):
        pass

    def admitted(*args):
        raise Admitted  # the element build starts: past the size check

    assert su_basis.MAX_BASIS_DIM == 64
    # N = 64 costs 268 MB of elements, so stop each build where it starts
    monkeypatch.setattr(su_basis, "_gellmann_elements", admitted)
    monkeypatch.setattr(su_basis, "product_basis_labels", admitted)
    with pytest.raises(Admitted):
        su_basis.build_gellmann_basis.__wrapped__(64)
    with pytest.raises(Admitted):
        su_basis._build_product_basis.__wrapped__((2,) * 6)


def test_structure_constants_reject_bad_basis():
    mats = build_gellmann_basis(2).elements.copy()
    mats[0] = mats[0] * 2.0  # breaks Tr(l^2) = 2
    with pytest.raises(InconsistentBasisError):
        structure_constants(BasisSet(dim=2, elements=mats))


@pytest.mark.parametrize("name", ["basis_n2.json", "basis_n3.json"])
def test_basis_export_matches_golden(name):
    with open(DATA / name, encoding="utf-8") as fh:
        golden = json.load(fh)
    basis = build_gellmann_basis(golden["dim"])
    exported = basis_to_json(basis)
    assert exported["dim"] == golden["dim"]
    got = np.array(exported["elements"], dtype=float)
    want = np.array(golden["elements"], dtype=float)
    np.testing.assert_allclose(got, want, atol=1e-15)


def test_basis_json_round_trip():
    basis = build_product_basis((2, 2))
    restored = basis_from_json(basis_to_json(basis))
    assert restored.dim == basis.dim
    assert restored.labels == basis.labels
    np.testing.assert_array_equal(restored.elements, basis.elements)


def test_basis_from_json_refuses_an_invalid_basis():
    doc = basis_to_json(build_gellmann_basis(2))
    doc["elements"][0] = [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]  # [[0, 1], [0, 0]]
    with pytest.raises(InconsistentBasisError):
        basis_from_json(doc)
