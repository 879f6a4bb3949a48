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
)
from blochvec.documents import parse_matrix_document
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
            CompositeLayout(dims=dims)
    # Python and numpy integers are both accepted, as plain ints
    dims = (np.int64(2), np.int32(3))
    assert build_product_basis(dims) is build_product_basis((2, 3))
    layout = CompositeLayout(dims=dims)
    assert layout.dims == (2, 3) and all(type(d) is int for d in layout.dims)


@pytest.mark.parametrize("dims, error", [
    ((), LayoutError),
    ((2.7, 2), DimensionError),
    ((1, 2), DimensionError),
    ((True, 2), DimensionError),
    ((np.float64(3.0), 2), DimensionError),
], ids=["empty", "float", "one", "bool", "numpy-float"])
def test_every_dims_entry_point_applies_one_rule(dims, error):
    with pytest.raises(error):
        build_product_basis(dims)
    with pytest.raises(error):
        CompositeLayout(dims=dims)
    if not any(isinstance(d, np.floating) for d in dims):  # JSON holds no numpy floats
        with pytest.raises(error):
            parse_matrix_document({"dims": list(dims), "coherence": [0.0] * 15})


def test_pauli_structure_constants_are_levi_civita():
    basis = build_gellmann_basis(2)
    eps = np.zeros((3, 3, 3))
    eps[0, 1, 2] = eps[1, 2, 0] = eps[2, 0, 1] = 1.0
    eps[0, 2, 1] = eps[2, 1, 0] = eps[1, 0, 2] = -1.0
    f, d = dense_tensors(basis)
    np.testing.assert_allclose(f, eps, atol=1e-14)
    assert np.abs(d).max() == 0.0


def test_su3_d_components():
    _, d = dense_tensors(build_gellmann_basis(3))
    std = SU3_STANDARD_TO_GROUPED
    inv_sqrt3 = 1.0 / np.sqrt(3)
    for a in (1, 2, 3):
        i = std[a - 1]
        assert d[i, i, std[7]] == pytest.approx(inv_sqrt3, abs=1e-12)
    assert d[std[7], std[7], std[7]] == pytest.approx(-inv_sqrt3, abs=1e-12)


def test_su3_full_constant_tables():
    # classic su(3) values in the standard lambda_1..lambda_8 numbering
    f_dense, d_dense = dense_tensors(build_gellmann_basis(3))
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
    _, d = dense_tensors(build_product_basis((2, 2)))
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
    f, d = dense_tensors(build_gellmann_basis(dim))
    for perm, sign in [((1, 0, 2), -1), ((0, 2, 1), -1), ((2, 1, 0), -1),
                       ((1, 2, 0), 1), ((2, 0, 1), 1)]:
        assert np.abs(f - sign * f.transpose(perm)).max() <= 1e-12
        assert np.abs(d - d.transpose(perm)).max() <= 1e-12


@pytest.mark.parametrize("dim", range(2, 7))
def test_product_rule_reconstruction(dim):
    basis = build_gellmann_basis(dim)
    f, d = dense_tensors(basis)
    elems = basis.elements
    prods = np.einsum("iab,jbc->ijac", elems, elems)
    recon = (2.0 / dim) * np.einsum("ij,ab->ijab", np.eye(len(basis)), np.eye(dim)) \
        + np.einsum("ijk,kab->ijab", 1j * f + d, elems)
    assert np.abs(prods - recon).max() <= 1e-10


@pytest.mark.parametrize("layout", [(2,), (3,), (4,), (5,), (6,), (2, 2), (3, 3), (2, 2, 2)])
def test_matrix_free_bilinears_match_dense_contraction(layout):
    basis = build_gellmann_basis(layout[0]) if len(layout) == 1 else build_product_basis(layout)
    f, d = dense_tensors(basis)
    k = basis.dim**2 - 1
    rng = np.random.default_rng(k)
    for _ in range(5):
        a, b = (v / np.linalg.norm(v) for v in rng.normal(size=(2, k)))
        np.testing.assert_allclose(basis.d_bilinear(a, b), b @ np.tensordot(a, d, axes=(0, 0)),
                                   rtol=0, atol=1e-13)
        np.testing.assert_allclose(basis.f_bilinear(a, b), b @ np.tensordot(a, f, axes=(0, 0)),
                                   rtol=0, atol=1e-13)
    # complex arguments are refused, not truncated to their real parts
    z = a + 0.5j * b
    for call in (lambda: basis.d_bilinear(z, b), lambda: basis.d_bilinear(a, z),
                 lambda: basis.f_bilinear(z, b), lambda: basis.f_bilinear(a, z),
                 lambda: basis.expand(z)):
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
    # the bilinears and the d-chain work on the element stack itself
    basis = build_gellmann_basis(32)
    held = [v for v in vars(basis).values() if isinstance(v, np.ndarray)]
    assert len(held) == 2 and all(np.shares_memory(v, basis.elements) for v in held)


def test_qubit_d_bilinear_is_exactly_zero():
    basis = build_gellmann_basis(2)
    rng = np.random.default_rng(2)
    a, b = rng.normal(size=(2, 3))
    assert np.all(basis.d_bilinear(a, b) == 0.0)
    assert basis.d_bilinear(a, b).dtype == float


def _bilinear_chain(n, basis):
    """[0, 0, c_2, ..., c_9] from d_bilinear and projections, the reference
    the operator-product chain is checked against."""
    w = basis.d_bilinear(n, n)
    A = basis.d_bilinear(w, w)
    return [0.0, 0.0, n @ n, w @ n, w @ w, A @ n, A @ w,
            basis.d_bilinear(A, w) @ n, A @ A, basis.d_bilinear(A, A) @ n]


@pytest.mark.parametrize("layout", [(3,), (4,), (5,), (6,), (7,), (8,), (9,),
                                    (2, 2), (3, 3), (2, 2, 2), (2, 2, 2, 2)])
def test_d_chain_matches_bilinear_chain(layout):
    basis = build_gellmann_basis(layout[0]) if len(layout) == 1 else build_product_basis(layout)
    rng = np.random.default_rng(basis.dim + 100 * len(layout))
    for _ in range(5):
        n = rng.normal(size=basis.dim**2 - 1)
        n *= rng.uniform(0.5, 2.0) / np.linalg.norm(n)
        got, want = basis.d_chain(n), _bilinear_chain(n, basis)
        assert len(got) == 10 and got[:2] == (0.0, 0.0)
        for k in range(2, 10):
            # relative to the value or, where it nearly cancels, to |n|^k
            scale = max(abs(want[k]), (n @ n) ** (k / 2))
            assert abs(got[k] - want[k]) <= 1e-12 * scale, (k, got[k], want[k])


def test_qubit_d_chain_is_exactly_zero_beyond_c2():
    basis = build_gellmann_basis(2)
    n = np.random.default_rng(3).normal(size=3)
    chain = basis.d_chain(n)
    assert chain[2] == float(n @ n)
    assert all(c == 0.0 for c in chain[3:]) and len(chain) == 10


def test_structure_constants_build_no_dense_tensors():
    import tracemalloc

    from blochvec import CoherenceState, closed_invariants

    basis = build_product_basis((2, 2, 2, 2))
    dense_bytes = 255**3 * 8  # one dense (N^2-1)^3 tensor: 133 MB

    def held():
        return sum(v.nbytes for v in vars(basis).values() if isinstance(v, np.ndarray))

    before = held()
    attributes = dict(vars(basis))
    assert before < dense_bytes / 50
    v = np.random.default_rng(255).normal(size=255)
    tracemalloc.start()
    try:
        basis.d_bilinear(v, v)
        basis.f_bilinear(v, np.ones(255))
        basis.d_chain(v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < dense_bytes / 100  # transient work stays O(N^4)
    assert held() == before  # and the instance keeps nothing new
    assert vars(basis) == attributes
    closed_invariants(CoherenceState(dim=16, n=v), basis)
    assert vars(basis) == attributes  # the invariant memo lives outside the instance


@pytest.mark.parametrize("build, arg", [(build_gellmann_basis, 65),
                                        (build_gellmann_basis, 10**6),
                                        (build_product_basis, [3] * 4),
                                        (build_product_basis, [3] * 5),
                                        (build_product_basis, [2] * 64),
                                        (gellmann_tensors, 65),
                                        (product_tensors, [2] * 7)],
                         ids=["build_gellmann_basis-65", "build_gellmann_basis-1000000",
                              "build_product_basis-arg2", "build_product_basis-arg3",
                              "build_product_basis-arg4", "gellmann_tensors-65",
                              "product_tensors-arg6"])
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
        su_basis._build_gellmann_basis.__wrapped__(64)
    with pytest.raises(Admitted):
        su_basis._build_product_basis.__wrapped__((2,) * 6)


def test_structure_constants_reject_bad_basis():
    mats = build_gellmann_basis(2).elements.copy()
    mats[0] = mats[0] * 2.0  # breaks Tr(l^2) = 2
    with pytest.raises(InconsistentBasisError):
        BasisSet(dim=2, elements=mats)  # checked as it is made


def test_a_directly_built_basis_is_validated():
    # a non-Hermitian element would rebuild n = (0.2, 0, 0) as the
    # non-Hermitian [[0.5, 0.1], [0, 0.5]]
    mats = build_gellmann_basis(2).elements.copy()
    mats[0] = [[0, 1], [0, 0]]
    with pytest.raises(InconsistentBasisError, match="non-Hermitian"):
        BasisSet(dim=2, elements=mats)


def test_basis_sets_compare_and_hash_by_identity():
    basis = build_gellmann_basis(3)
    twin = BasisSet(dim=3, elements=basis.elements)
    assert twin != basis and twin == twin
    assert len({basis, twin, build_gellmann_basis(3)}) == 2


def test_structure_tensor_names_are_the_basis_builders():
    import blochvec

    assert blochvec.gellmann_tensors is blochvec.build_gellmann_basis
    assert blochvec.product_tensors is blochvec.build_product_basis
    assert gellmann_tensors(3) is build_gellmann_basis(3)


def test_a_numpy_integer_dimension_gives_the_cached_basis():
    # cached on the checked int: one basis and one element stack per N
    assert build_gellmann_basis(np.int64(3)) is build_gellmann_basis(3)
    assert build_gellmann_basis(np.int32(4)) is build_gellmann_basis(4)


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


@pytest.mark.parametrize("build, arg", [
    (build_gellmann_basis, 2), (build_gellmann_basis, 3), (build_gellmann_basis, 5),
    (build_product_basis, (2, 2)), (build_product_basis, (2, 3)),
], ids=["su2", "su3", "su5", "2x2", "2x3"])
def test_basis_json_round_trip_keeps_every_bit(build, arg):
    basis = build(arg)
    restored = basis_from_json(json.loads(json.dumps(basis_to_json(basis))))
    assert restored.elements.tobytes() == basis.elements.tobytes()
    assert not restored.elements.flags.writeable


def test_a_basis_keeps_a_frozen_copy_of_a_writable_element_stack():
    want = build_gellmann_basis(2).elements
    stack = want.copy()
    basis = BasisSet(dim=2, elements=stack)
    assert stack.flags.writeable
    assert not basis.elements.flags.writeable
    stack[0] = stack[1]  # later writes to the caller's array do not reach the basis
    np.testing.assert_array_equal(basis.elements, want)
    basis.validate()


def test_a_read_only_element_stack_is_kept_as_it_is(monkeypatch):
    from blochvec import su_basis

    built = build_gellmann_basis(3)
    assert BasisSet(dim=3, elements=built.elements).elements is built.elements
    # the builders and basis_from_json freeze their own fresh stacks, and
    # the basis holds that very array: their path makes no copy
    frozen = []
    freeze = su_basis._frozen
    monkeypatch.setattr(su_basis, "_frozen", lambda stack: frozen.append(freeze(stack))
                        or frozen[-1])
    made = [su_basis._build_gellmann_basis.__wrapped__(3),
            su_basis._build_product_basis.__wrapped__((2, 3)),
            basis_from_json(basis_to_json(built))]
    assert len(frozen) == len(made)
    for basis, stack in zip(made, frozen):
        assert basis.elements is stack


@pytest.mark.parametrize("field, value", [
    ("dim", 4.5), ("dim", 4.0), ("subsystem_dims", [2.5, 2]),
], ids=["float-dim", "integral-float-dim", "float-subsystem-dim"])
def test_basis_dimensions_apply_the_one_rule(field, value):
    doc = basis_to_json(build_product_basis((2, 2)))
    doc[field] = value
    with pytest.raises(DimensionError):
        basis_from_json(doc)


def test_basis_from_json_refuses_an_invalid_basis():
    doc = basis_to_json(build_gellmann_basis(2))
    doc["elements"][0] = [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]  # [[0, 1], [0, 0]]
    with pytest.raises(InconsistentBasisError):
        basis_from_json(doc)


def test_basis_metadata_must_match_the_dimension():
    basis = build_product_basis((2, 2))
    with pytest.raises(LayoutError, match="multiply"):
        BasisSet(dim=4, elements=basis.elements, labels=basis.labels, subsystem_dims=(3, 3))


@pytest.mark.parametrize("edit, error", [
    (lambda doc: doc.update(labels=[[9, 9]] * 15), InconsistentBasisError),
    (lambda doc: doc.update(labels=[[0, 0]] + doc["labels"][1:]), InconsistentBasisError),
    (lambda doc: doc.update(labels=[lab + [0] for lab in doc["labels"]]), InconsistentBasisError),
    (lambda doc: doc.update(labels=[[1.0, 0]] + doc["labels"][1:]), InconsistentBasisError),
    (lambda doc: doc.update(labels=7), InconsistentBasisError),
    (lambda doc: doc.update(labels=doc["labels"][:-1]), LayoutError),
    (lambda doc: doc.pop("labels"), InconsistentBasisError),
    (lambda doc: doc.pop("subsystem_dims"), InconsistentBasisError),
], ids=["out-of-range", "all-identity", "too-long", "float-index", "not-a-list", "too-few",
        "dims-without-labels", "labels-without-dims"])
def test_basis_from_json_refuses_inconsistent_labels(edit, error):
    doc = basis_to_json(build_product_basis((2, 2)))
    edit(doc)
    with pytest.raises(error):
        basis_from_json(doc)
