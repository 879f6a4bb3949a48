import numpy as np
import pytest

from blochvec import (
    Degeneracy3,
    Degeneracy4,
    DomainError,
    StarUndefinedError,
    UnsupportedOrderError,
    build_gellmann_basis,
    casimir_operator,
    casimirs,
    classify_degeneracy_3,
    classify_degeneracy_4,
    check_positivity_coherence,
    closed_S234,
    from_coherence,
    gellmann_tensors,
    structure_constants,
    symmetric_trace_contraction,
    to_coherence,
    trace_power_closed,
)
from blochvec.positivity import matrix_trace_powers
from blochvec.sampling import haar_state, random_density_matrix, random_unitary

from conftest import dense_tensors


def diag_state(spectrum):
    spectrum = np.asarray(spectrum, dtype=float)
    dim = spectrum.size
    return to_coherence(np.diag(spectrum).astype(complex), build_gellmann_basis(dim))


def cubic_diag_formula(a1, a2, a3):
    """(n*n).n for a diagonal three-level state, in eigenvalue form."""
    return (a1**3 + a2**3 + a3**3 + 6 * a1 * a2 * a3
            - 1.5 * (a1**2 * a2 + a2**2 * a1 + a1**2 * a3 + a2**2 * a3
                     + a3**2 * a1 + a3**2 * a2))


def test_coherence_route_never_builds_dense_tensors(monkeypatch, tmp_path, capsys):
    import json
    import tracemalloc

    import blochvec.su_basis as su_basis
    from blochvec import build_product_basis
    from blochvec.cli import main
    from blochvec.documents import coherence_document, dump_json

    def refuse_bilinear(*args, **kwargs):
        raise AssertionError("d_bilinear called on the coherence route")

    monkeypatch.setattr(su_basis.StructureTensors, "d_bilinear", refuse_bilinear)
    basis = build_gellmann_basis(10)
    rho = random_density_matrix(10, np.random.default_rng(10))
    eigs = np.linalg.eigvalsh(rho)
    # the whole route, tensor build included, stays below the size of one
    # dense (N^2 - 1)^3 float tensor (7.8 MB at N = 10)
    tracemalloc.start()
    try:
        tensors = structure_constants(basis)
        state = to_coherence(rho, basis)
        seq = check_positivity_coherence(state, tensors)
        S2, _, _ = closed_S234(state, tensors)
        cas = casimirs(state, tensors, up_to=9)
        closed = [trace_power_closed(state, m, tensors) for m in range(2, 10)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 99**3 * 8
    assert seq.sign_changes == 10
    assert S2 == pytest.approx((1.0 - np.sum(eigs**2)) / 2.0, abs=1e-12)
    assert set(cas.values) == set(range(2, 10))
    for m in range(2, 10):
        want = float(np.sum(eigs**m))
        assert closed[m - 2] == pytest.approx(want, abs=1e-12)
        direct = matrix_trace_powers(from_coherence(state, basis), m)[m - 1]
        assert direct == pytest.approx(want, abs=1e-12)

    # the CLI's invariants report on four qubits (N = 16), both columns
    dims = (2, 2, 2, 2)
    rho = random_density_matrix(16, np.random.default_rng(16))
    n = to_coherence(rho, build_product_basis(dims)).n
    path = str(tmp_path / "four_qubits.json")
    dump_json(coherence_document(n, 16, dims), path)
    assert main(["invariants", path, "--json", "--max-order", "9"]) == 0
    report = json.loads(capsys.readouterr().out)["trace_powers"]
    eigs = np.linalg.eigvalsh(rho)
    for m in range(2, 10):
        want = float(np.sum(eigs**m))
        for route in ("closed", "adjoint"):
            assert report[str(m)][route] == pytest.approx(want, abs=1e-9), (m, route)


def test_invariant_sweep_computes_the_d_chain_once(monkeypatch):
    from blochvec.su_basis import StructureTensors

    def refuse(*args, **kwargs):
        raise AssertionError("d_bilinear called on a closed-invariant path")

    computed = []
    compute = StructureTensors._d_chain

    def counted(self, n):
        computed.append(n.copy())
        return compute(self, n)

    monkeypatch.setattr(StructureTensors, "d_bilinear", refuse)
    monkeypatch.setattr(StructureTensors, "_d_chain", counted)
    basis = build_gellmann_basis(9)
    tensors = structure_constants(basis)  # a fresh instance: empty memo
    state = to_coherence(random_density_matrix(9, np.random.default_rng(9)), basis)
    closed_S234(state, tensors)
    casimirs(state, tensors, up_to=9)
    for m in range(2, 10):
        trace_power_closed(state, m, tensors)
    assert len(computed) == 1
    np.testing.assert_array_equal(computed[0], state.n)


def test_symmetric_trace_contraction_sees_in_place_changes():
    basis = build_gellmann_basis(4)
    tensors = structure_constants(basis)
    n = np.random.default_rng(4).normal(size=15)
    before = symmetric_trace_contraction(5, n, tensors)
    n[3] += 0.5  # same array object, new contents
    after = symmetric_trace_contraction(5, n, tensors)
    assert after != before
    assert after == symmetric_trace_contraction(5, n.copy(), structure_constants(basis))
    power = np.tensordot(n, basis.elements, axes=(0, 0))
    assert after == pytest.approx(np.trace(np.linalg.matrix_power(power, 5)).real, rel=1e-11)


def test_trace_power_adjoint_basics():
    basis = build_gellmann_basis(4)
    rng = np.random.default_rng(3)
    mixed = to_coherence(np.eye(4) / 4, basis)
    assert matrix_trace_powers(from_coherence(mixed, basis), 1)[0] == pytest.approx(1.0)
    assert matrix_trace_powers(from_coherence(mixed, basis), 2)[1] == pytest.approx(0.25)
    psi = haar_state(4, rng)
    pure = to_coherence(np.outer(psi, psi.conj()), basis)
    for m in range(1, 8):
        direct = matrix_trace_powers(from_coherence(pure, basis), m)[m - 1]
        assert direct == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("dim", range(2, 7))
def test_symmetric_trace_contraction_matches_dense(dim):
    rng = np.random.default_rng(20 + dim)
    basis = build_gellmann_basis(dim)
    tensors = gellmann_tensors(dim)
    for _ in range(10):
        n = rng.normal(size=dim * dim - 1)
        mat = np.tensordot(n, basis.elements, axes=(0, 0))
        power = mat
        for k in range(2, 10):
            power = power @ mat
            exact = np.trace(power).real
            got = symmetric_trace_contraction(k, n, tensors)
            assert got == pytest.approx(exact, rel=1e-11, abs=1e-11)


def test_symmetric_trace_low_orders():
    tensors = gellmann_tensors(3)
    rng = np.random.default_rng(1)
    n = rng.normal(size=8)
    assert symmetric_trace_contraction(2, n, tensors) == pytest.approx(2 * n @ n)
    d3 = np.einsum("ijk,i,j,k->", dense_tensors(tensors)[1], n, n, n)
    assert symmetric_trace_contraction(3, n, tensors) == pytest.approx(2 * d3)
    assert symmetric_trace_contraction(5, np.zeros(8), tensors) == 0.0
    with pytest.raises(UnsupportedOrderError):
        symmetric_trace_contraction(10, n, tensors)


def test_trace_power_closed_printed_forms():
    # Tr(rho^2) = (1/N)[1 + (N-1) n.n]; Tr(rho^3) adds (N-1)(N-2)(n*n).n.
    from blochvec import star

    for dim in (3, 4, 5):
        rng = np.random.default_rng(dim)
        basis = build_gellmann_basis(dim)
        tensors = gellmann_tensors(dim)
        state = to_coherence(random_density_matrix(dim, rng), basis)
        p = state.norm_squared
        c3 = star(state.n, state.n, tensors) @ state.n
        assert trace_power_closed(state, 2, tensors) == pytest.approx(
            (1 + (dim - 1) * p) / dim, abs=1e-12)
        assert trace_power_closed(state, 3, tensors) == pytest.approx(
            (1 + 3 * (dim - 1) * p + (dim - 1) * (dim - 2) * c3) / dim**2, abs=1e-12)


def test_trace_power_closed_example():
    state = diag_state([0.5, 0.3, 0.2])
    tensors = gellmann_tensors(3)
    # |n|^2 = 0.07 so Tr(rho^2) = (1 + 2 * 0.07)/3 = 0.38 = sum a_i^2
    assert state.norm_squared == pytest.approx(0.07, abs=1e-12)
    assert trace_power_closed(state, 2, tensors) == pytest.approx(0.38, abs=1e-12)


@pytest.mark.parametrize("dim", range(2, 7))
def test_three_route_agreement(dim):
    rng = np.random.default_rng(77 + dim)
    basis = build_gellmann_basis(dim)
    tensors = gellmann_tensors(dim)
    for _ in range(20):
        rho = random_density_matrix(dim, rng)
        state = to_coherence(rho, basis)
        eigs = np.linalg.eigvalsh(rho)
        for m in range(2, 10):
            oracle = float(np.sum(eigs**m))
            assert trace_power_closed(state, m, tensors) == pytest.approx(oracle, abs=1e-9)
            direct = matrix_trace_powers(from_coherence(state, basis), m)[m - 1]
            assert direct == pytest.approx(oracle, abs=1e-9)


def test_routes_agree_in_the_product_basis_too():
    # nothing in the invariant machinery may assume the grouped ordering
    from blochvec import build_product_basis, product_tensors, to_coherence as toc

    rng = np.random.default_rng(101)
    basis = build_product_basis((2, 2))
    tensors = product_tensors((2, 2))
    for _ in range(10):
        rho = random_density_matrix(4, rng)
        state = toc(rho, basis)
        eigs = np.linalg.eigvalsh(rho)
        for m in range(2, 10):
            oracle = float(np.sum(eigs**m))
            assert trace_power_closed(state, m, tensors) == pytest.approx(oracle, abs=1e-9)
            direct = matrix_trace_powers(from_coherence(state, basis), m)[m - 1]
            assert direct == pytest.approx(oracle, abs=1e-9)
        cas_prod = casimirs(state, tensors, up_to=4)
        cas_gm = casimirs(to_coherence(rho, build_gellmann_basis(4)),
                          gellmann_tensors(4), up_to=4)
        for m in cas_prod.values:
            assert cas_prod[m] == pytest.approx(cas_gm[m], abs=1e-10)
        from blochvec import closed_S234, symmetric_functions
        s2, s3, s4 = closed_S234(state, tensors)
        S = symmetric_functions(rho)
        assert (s2, s3, s4) == pytest.approx(tuple(S[1:4]), abs=1e-10)


def test_casimir_diag_formulas():
    state = diag_state([0.5, 0.3, 0.2])
    cas = casimirs(state, gellmann_tensors(3), up_to=3)
    a1, a2, a3 = 0.5, 0.3, 0.2
    c2_expected = a1**2 + a2**2 + a3**2 - a1 * a2 - a1 * a3 - a2 * a3
    assert cas[2] == pytest.approx(c2_expected, abs=1e-12)
    assert cas[3] == pytest.approx(cubic_diag_formula(a1, a2, a3), abs=1e-12)
    assert cas[3] == pytest.approx(0.01, abs=1e-12)


def test_casimirs_vanish_when_maximally_mixed():
    for dim in (3, 4, 5):
        state = diag_state(np.full(dim, 1.0 / dim))
        cas = casimirs(state, gellmann_tensors(dim), up_to=min(dim, 5))
        assert max(abs(v) for v in cas.values.values()) < 1e-12


def test_casimirs_are_one_on_pure_states():
    rng = np.random.default_rng(8)
    for dim in (4, 5):
        basis = build_gellmann_basis(dim)
        psi = haar_state(dim, rng)
        state = to_coherence(np.outer(psi, psi.conj()), basis)
        cas = casimirs(state, gellmann_tensors(dim), up_to=min(dim, 5))
        for m, value in cas.values.items():
            assert value == pytest.approx(1.0, abs=1e-9), m


def test_casimir_errors():
    state = diag_state([0.6, 0.4])
    with pytest.raises(StarUndefinedError):
        casimirs(state, gellmann_tensors(2), up_to=2 + 1)
    with pytest.raises(UnsupportedOrderError):
        casimirs(diag_state(np.full(5, 0.2)), gellmann_tensors(5), up_to=9)
    with pytest.raises(UnsupportedOrderError):
        trace_power_closed(state, 0, gellmann_tensors(2))


def test_classifier_input_errors():
    from blochvec import CasimirSet, DimensionError

    with pytest.raises(DimensionError):
        classify_degeneracy_4(CasimirSet(dim=3, values={2: 0.1, 3: 0.0, 4: 0.0}))
    with pytest.raises(UnsupportedOrderError):
        classify_degeneracy_4(CasimirSet(dim=4, values={2: 0.1, 3: 0.0}))


@pytest.mark.parametrize("dim", range(2, 6))
def test_unitary_invariance(dim):
    rng = np.random.default_rng(90 + dim)
    basis = build_gellmann_basis(dim)
    tensors = gellmann_tensors(dim)
    for _ in range(10):
        rho = random_density_matrix(dim, rng)
        u = random_unitary(dim, rng)
        rot = u @ rho @ u.conj().T
        s1 = to_coherence(rho, basis)
        s2 = to_coherence(rot, basis)
        for m in range(2, 8):
            assert trace_power_closed(s1, m, tensors) == pytest.approx(
                trace_power_closed(s2, m, tensors), abs=1e-9)
        if dim >= 3:
            c1 = casimirs(s1, tensors, up_to=min(dim, 6))
            c2 = casimirs(s2, tensors, up_to=min(dim, 6))
            for m in c1.values:
                assert c1[m] == pytest.approx(c2[m], abs=1e-9)


def test_equal_spectra_equal_casimirs_distinct_spectra_differ():
    rng = np.random.default_rng(123)
    dim = 4
    basis = build_gellmann_basis(dim)
    tensors = gellmann_tensors(dim)
    for _ in range(20):
        rho = random_density_matrix(dim, rng)
        u = random_unitary(dim, rng)
        c_a = casimirs(to_coherence(rho, basis), tensors, up_to=4)
        c_b = casimirs(to_coherence(u @ rho @ u.conj().T, basis), tensors, up_to=4)
        assert all(c_a[m] == pytest.approx(c_b[m], abs=1e-9) for m in c_a.values)
        other = random_density_matrix(dim, rng)
        spectra_gap = np.abs(np.sort(np.linalg.eigvalsh(rho))
                             - np.sort(np.linalg.eigvalsh(other))).max()
        if spectra_gap > 1e-3:
            c_c = casimirs(to_coherence(other, basis), tensors, up_to=4)
            assert max(abs(c_a[m] - c_c[m]) for m in c_a.values) > 1e-6


def test_cubic_bound_identity():
    # |n|^6 - ((n*n).n)^2 = (27/4) (a1-a2)^2 (a1-a3)^2 (a2-a3)^2 >= 0
    rng = np.random.default_rng(55)
    tensors = gellmann_tensors(3)
    for _ in range(200):
        spec = rng.dirichlet(np.ones(3))
        state = diag_state(spec)
        cas = casimirs(state, tensors, up_to=3)
        lhs = cas[2] ** 3 - cas[3] ** 2
        a1, a2, a3 = spec
        rhs = 6.75 * (a1 - a2) ** 2 * (a1 - a3) ** 2 * (a2 - a3) ** 2
        assert lhs == pytest.approx(rhs, abs=1e-9)
        assert abs(cas[3]) <= cas[2] ** 1.5 + 1e-12


def test_casimir_operator_values():
    basis2 = build_gellmann_basis(2)
    np.testing.assert_allclose(casimir_operator(2, basis2), 3 * np.eye(2), atol=1e-12)
    np.testing.assert_allclose(casimir_operator(3, basis2), np.zeros((2, 2)), atol=1e-12)
    basis3 = build_gellmann_basis(3)
    np.testing.assert_allclose(casimir_operator(2, basis3), (16 / 3) * np.eye(3),
                               atol=1e-12)
    with pytest.raises(UnsupportedOrderError):
        casimir_operator(4, basis3)


@pytest.mark.parametrize("dim", range(2, 7))
def test_casimir_operators_proportional_to_identity(dim):
    basis = build_gellmann_basis(dim)
    for m in (2, 3):
        op = casimir_operator(m, basis)
        scalar = np.trace(op) / dim
        assert np.abs(op - scalar * np.eye(dim)).max() <= 1e-10


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6, 7, 10])
def test_cubic_casimir_operator_matches_closed_constant(dim):
    # sum_abc d_abc lam_a lam_b lam_c = 2(N^2-1)(N^2-4)/N^2 (Haber, arXiv:1912.13302)
    want = 2.0 * (dim**2 - 1) * (dim**2 - 4) / dim**2
    op = casimir_operator(3, build_gellmann_basis(dim))
    assert np.abs(op - want * np.eye(dim)).max() <= 1e-12 * max(want, 1.0)


def test_cubic_casimir_operator_memory():
    import tracemalloc

    basis = build_gellmann_basis(10)
    tracemalloc.start()
    try:
        casimir_operator(3, basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 99**3 * 8 / 10  # a tenth of one dense (N^2-1)^3 float array


def test_classify_degeneracy_3():
    tensors = gellmann_tensors(3)
    for spec, expected in [
        ([0.5, 0.5, 0.0], Degeneracy3.TWO_LARGE_ONE_SMALL),
        ([1 / 3, 1 / 3, 1 / 3], Degeneracy3.THREE_FOLD_DEGENERATE),
        ([0.5, 0.3, 0.2], Degeneracy3.NON_DEGENERATE),
        ([0.8, 0.1, 0.1], Degeneracy3.TWO_SMALL_ONE_LARGE),
    ]:
        cas = casimirs(diag_state(spec), tensors, up_to=3)
        assert classify_degeneracy_3(cas[2], cas[3]) is expected
    # explicit values on the (1/2, 1/2, 0) spectrum
    cas = casimirs(diag_state([0.5, 0.5, 0.0]), tensors, up_to=3)
    assert cas[2] == pytest.approx(0.25, abs=1e-12)
    assert cas[3] == pytest.approx(-0.125, abs=1e-12)
    with pytest.raises(DomainError):
        classify_degeneracy_3(-1.0, 0.0)


def test_classify_degeneracy_4():
    tensors = gellmann_tensors(4)
    for spec, expected in [
        ([1.0, 0.0, 0.0, 0.0], Degeneracy4.PATTERN_ABBB),
        ([0.1, 0.3, 0.3, 0.3], Degeneracy4.PATTERN_ABBB),
        ([0.5, 0.5, 0.0, 0.0], Degeneracy4.PATTERN_AABB),
        ([0.35, 0.35, 0.15, 0.15], Degeneracy4.PATTERN_AABB),
        ([0.4, 0.3, 0.2, 0.1], Degeneracy4.UNRESOLVED),
    ]:
        cas = casimirs(diag_state(spec), tensors, up_to=4)
        assert classify_degeneracy_4(cas) is expected, spec
