from math import comb

import numpy as np
import pytest

from blochvec import (
    BasisSet,
    CoherenceState,
    DomainError,
    LayoutError,
    StarUndefinedError,
    UnsupportedOrderError,
    Verdict,
    build_gellmann_basis,
    build_product_basis,
    casimir_operator,
    casimirs,
    check_positivity_coherence,
    closed_S234,
    closed_invariants,
    coherence_scale,
    from_coherence,
    gellmann_tensors,
    to_coherence,
    trace_power_closed,
)
from blochvec.cli import DEGENERACY_LABELS

from conftest import (
    dense_tensors,
    haar_state,
    random_density_matrix,
    random_unitary,
    reference_matrix_trace_powers,
)


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

    monkeypatch.setattr(su_basis.BasisSet, "d_bilinear", refuse_bilinear)
    basis = build_gellmann_basis(10)
    rho = random_density_matrix(10, np.random.default_rng(10))
    eigs = np.linalg.eigvalsh(rho)
    # the whole route, a basis check included, stays below the size of one
    # dense (N^2 - 1)^3 float tensor (7.8 MB at N = 10)
    tracemalloc.start()
    try:
        fresh = BasisSet(dim=basis.dim, elements=basis.elements)  # validated as it is made
        state = to_coherence(rho, basis)
        seq = check_positivity_coherence(state, fresh)
        S2, _, _ = closed_S234(state, fresh)
        cas = casimirs(state, fresh, up_to=9)
        closed = [trace_power_closed(state, m, fresh) for m in range(2, 10)]
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
        direct = reference_matrix_trace_powers(from_coherence(state, basis), m)[m - 1]
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


def _spy_on_chain_stages(monkeypatch):
    """Count the calls of the d-chain's two stages: the first forms one
    N x N product, the second two (none at N = 2, where d vanishes)."""
    calls = {"head": 0, "tail": 0}
    head, tail = BasisSet._chain_head, BasisSet._chain_tail

    def counted_head(self, n):
        calls["head"] += 1
        return head(self, n)

    def counted_tail(self, X, W, c4):
        calls["tail"] += 1
        return tail(self, X, W, c4)

    monkeypatch.setattr(BasisSet, "_chain_head", counted_head)
    monkeypatch.setattr(BasisSet, "_chain_tail", counted_tail)
    return calls


def test_invariant_sweep_computes_the_d_chain_once(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("d_bilinear called on a closed-invariant path")

    monkeypatch.setattr(BasisSet, "d_bilinear", refuse)
    basis = build_gellmann_basis(9)
    # a fresh instance: no report kept for it
    fresh = BasisSet(dim=basis.dim, elements=basis.elements)
    state = to_coherence(random_density_matrix(9, np.random.default_rng(9)), basis)
    calls = _spy_on_chain_stages(monkeypatch)
    check_positivity_coherence(state, fresh)
    closed_S234(state, fresh)
    assert calls == {"head": 1, "tail": 0}  # the gate reads orders up to 4 only
    casimirs(state, fresh, up_to=9)
    for m in range(2, 10):
        trace_power_closed(state, m, fresh)
    assert calls == {"head": 1, "tail": 1}
    assert closed_invariants(state, fresh).chain == fresh.d_chain(state.n)


def _fresh(layout):
    """A new instance of the basis of ``layout``: no report is kept for it."""
    basis = build_gellmann_basis(layout[0]) if len(layout) == 1 else build_product_basis(layout)
    return BasisSet(dim=basis.dim, elements=basis.elements, labels=basis.labels,
                    subsystem_dims=basis.subsystem_dims)


@pytest.mark.parametrize("layout, products", [
    ((3,), 1), ((4,), 1), ((2, 2), 1),
    ((5,), 3), ((6,), 3), ((7,), 3), ((8,), 3), ((9,), 3),
], ids=["3", "4", "2x2", "5", "6", "7", "8", "9"])
def test_one_coherence_op_forms_one_product_up_to_n_4_and_three_above(monkeypatch, layout,
                                                                     products):
    basis = _fresh(layout)
    N = basis.dim
    state = to_coherence(random_density_matrix(N, np.random.default_rng(N)), basis)
    calls = _spy_on_chain_stages(monkeypatch)
    # gate, closed S_2..S_4, every Casimir and every closed trace power
    check_positivity_coherence(state, basis)
    closed_S234(state, basis)
    casimirs(state, basis, up_to=N)
    for m in range(2, N + 1):
        trace_power_closed(state, m, basis)
    assert calls["head"] + 2 * calls["tail"] == products
    assert calls["head"] == 1


def _everything(report, state, basis):
    """Every value a report gives, with the gate that reads it."""
    N = basis.dim
    seq = check_positivity_coherence(state, basis)
    return (report.chain, report.T, report.S234,
            [report.trace_power(m) for m in range(2, 10)],
            report.casimirs(min(N, 9) if N >= 3 else 2).values, report.degeneracy(),
            seq.S.tobytes(), seq.verdict, seq.sign_changes)


#: First reads of a report at N <= 4; all but the gate read order 5 or more
FIRST_READS = {
    "gate": lambda report, state, basis: check_positivity_coherence(state, basis),
    "trace_power-9": lambda report, state, basis: report.trace_power(9),
    "degeneracy": lambda report, state, basis: report.degeneracy(),
    "T-7": lambda report, state, basis: report.T[7],
}


@pytest.mark.parametrize("layout", [(2,), (3,), (4,), (2, 2)], ids=["2", "3", "4", "2x2"])
def test_a_report_completed_later_equals_a_whole_build_bit_for_bit(monkeypatch, layout):
    N = _fresh(layout).dim
    rng = np.random.default_rng(40 + N)
    states = [random_density_matrix(N, rng), np.diag([0.4] + [0.6 / (N - 1)] * (N - 1))]
    calls = _spy_on_chain_stages(monkeypatch)
    for rho in states:
        seen = []
        for name, first_read in FIRST_READS.items():
            basis = _fresh(layout)
            state = to_coherence(rho, basis)
            report = closed_invariants(state, basis)
            calls["tail"] = 0
            short = (report.S234, [report.trace_power(m) for m in range(2, 5)],
                     report.casimirs(min(N, 4) if N >= 3 else 2).values)
            assert calls["tail"] == 0, name  # orders <= 4 need the first stage only
            first_read(report, state, basis)
            assert calls["tail"] == (name != "gate"), name
            got = _everything(report, state, basis)
            assert calls["tail"] == 1, name  # the second stage runs once
            assert (report.S234, got[3][:3], {m: got[4][m] for m in short[2]}) == short
            # the whole d-chain of one call and the weighted sums of T, bit for bit
            assert report.chain == basis.d_chain(state.n)
            c = coherence_scale(N)
            assert got[3] == [sum(comb(m, k) * c**k * report.T[k] for k in range(m + 1)) / N**m
                              for m in range(2, 10)]
            seen.append(got)
        assert all(got == seen[0] for got in seen[1:])


def test_orders_up_to_4_answer_where_the_orders_above_overflow():
    # at N <= 4 the report is built to order 9 only when an order above 4 is
    # read: there T_9 ~ |n|^9 overflows from |n| of about 1e34, while the
    # values of order <= 4 stay finite up to the d-chain's limit of 1e38
    basis = build_gellmann_basis(3)
    n = np.zeros(8)
    n[6], n[7] = 1e35, 3e34  # diagonal: X^9 has no cancelling +-mu pairs
    state = CoherenceState(dim=3, n=n)
    assert all(np.isfinite(closed_S234(state, basis)))
    assert np.isfinite(trace_power_closed(state, 4, basis))
    with pytest.raises(DomainError, match="overflow"):
        trace_power_closed(state, 9, basis)
    assert check_positivity_coherence(state, basis).verdict is Verdict.NOT_PSD


def test_symmetric_trace_contraction_sees_in_place_changes():
    basis = build_gellmann_basis(4)
    fresh = BasisSet(dim=basis.dim, elements=basis.elements)
    n = np.random.default_rng(4).normal(size=15)
    chain = fresh.d_chain(n)
    before = closed_invariants(CoherenceState(dim=4, n=n), fresh).T[5]
    n[3] += 0.5  # same array object, new contents
    assert fresh.d_chain(n) != chain
    after = closed_invariants(CoherenceState(dim=4, n=n), fresh).T[5]
    assert after != before
    assert after == closed_invariants(CoherenceState(dim=4, n=n.copy()),
                                      BasisSet(dim=basis.dim, elements=basis.elements)).T[5]
    power = np.tensordot(n, basis.elements, axes=(0, 0))
    assert after == pytest.approx(np.trace(np.linalg.matrix_power(power, 5)).real, rel=1e-11)


def test_closed_invariants_memo_serves_interleaved_states_fresh_values():
    basis = build_gellmann_basis(5)
    shared = BasisSet(dim=basis.dim, elements=basis.elements)
    other = BasisSet(dim=basis.dim, elements=basis.elements)  # same basis, another instance
    rng = np.random.default_rng(5)
    a, b = (CoherenceState(dim=5, n=v) for v in rng.normal(size=(2, 24)))
    fresh = {key: BasisSet(dim=basis.dim, elements=basis.elements).d_chain(s.n)
             for key, s in (("a", a), ("b", b))}
    for key, s in (("a", a), ("b", b), ("a", a), ("a", a), ("b", b)):
        for instance in (shared, other):
            report = closed_invariants(s, instance)
            assert report.chain == fresh[key]
            assert report.T[2] == 2.0 * fresh[key][2]
    with pytest.raises(LayoutError):
        closed_invariants(a, build_gellmann_basis(4))


def _values(report):
    return report.chain, report.T, report.S234


@pytest.mark.parametrize("dim", [4, 6])
def test_closed_invariants_memo_is_thread_safe(dim):
    # at N = 4 every fresh report is built to order 9 by its first read of
    # chain, so threads also race to complete one report
    import sys
    import threading

    basis = build_gellmann_basis(dim)
    shared = BasisSet(dim=basis.dim, elements=basis.elements)
    rng = np.random.default_rng(dim)
    states = [CoherenceState(dim=dim, n=v) for v in rng.normal(size=(2, dim**2 - 1))]
    want = [_values(closed_invariants(s, BasisSet(dim=basis.dim, elements=basis.elements)))
            for s in states]
    workers = 4
    start = threading.Barrier(workers)
    wrong = []

    def worker(i):  # every thread alternates the same two states, half out of step
        start.wait()
        for j in range(i, i + 400):
            if _values(closed_invariants(states[j % 2], shared)) != want[j % 2]:
                wrong.append((i, j))

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(workers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


def test_trace_power_adjoint_basics():
    basis = build_gellmann_basis(4)
    rng = np.random.default_rng(3)
    mixed = from_coherence(to_coherence(np.eye(4) / 4, basis), basis)
    assert reference_matrix_trace_powers(mixed, 1)[0] == pytest.approx(1.0)
    assert reference_matrix_trace_powers(mixed, 2)[1] == pytest.approx(0.25)
    psi = haar_state(4, rng)
    pure = to_coherence(np.outer(psi, psi.conj()), basis)
    for m in range(1, 8):
        direct = reference_matrix_trace_powers(from_coherence(pure, basis), m)[m - 1]
        assert direct == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("dim", range(2, 7))
def test_symmetric_trace_contraction_matches_dense(dim):
    rng = np.random.default_rng(20 + dim)
    basis = build_gellmann_basis(dim)
    for _ in range(10):
        n = rng.normal(size=dim * dim - 1)
        T = closed_invariants(CoherenceState(dim=dim, n=n), basis).T
        mat = np.tensordot(n, basis.elements, axes=(0, 0))
        power = mat
        for k in range(2, 10):
            power = power @ mat
            exact = np.trace(power).real
            assert T[k] == pytest.approx(exact, rel=1e-11, abs=1e-11)


def test_symmetric_trace_low_orders():
    basis = build_gellmann_basis(3)
    rng = np.random.default_rng(1)
    n = rng.normal(size=8)
    state = CoherenceState(dim=3, n=n)
    T = closed_invariants(state, basis).T
    assert len(T) == 10 and T[:2] == (3.0, 0.0)
    assert T[2] == pytest.approx(2 * n @ n)
    d3 = np.einsum("ijk,i,j,k->", dense_tensors(basis)[1], n, n, n)
    assert T[3] == pytest.approx(2 * d3)
    assert closed_invariants(CoherenceState(dim=3, n=np.zeros(8)), basis).T[5] == 0.0
    with pytest.raises(UnsupportedOrderError):
        trace_power_closed(state, 10, basis)


def test_trace_power_closed_printed_forms():
    # Tr(rho^2) = (1/N)[1 + (N-1) n.n]; Tr(rho^3) adds (N-1)(N-2)(n*n).n.
    from blochvec import star

    for dim in (3, 4, 5):
        rng = np.random.default_rng(dim)
        basis = build_gellmann_basis(dim)
        state = to_coherence(random_density_matrix(dim, rng), basis)
        p = state.norm_squared
        c3 = star(state.n, state.n, basis) @ state.n
        assert trace_power_closed(state, 2, basis) == pytest.approx(
            (1 + (dim - 1) * p) / dim, abs=1e-12)
        assert trace_power_closed(state, 3, basis) == pytest.approx(
            (1 + 3 * (dim - 1) * p + (dim - 1) * (dim - 2) * c3) / dim**2, abs=1e-12)


def test_trace_power_closed_example():
    state = diag_state([0.5, 0.3, 0.2])
    basis = build_gellmann_basis(3)
    # |n|^2 = 0.07 so Tr(rho^2) = (1 + 2 * 0.07)/3 = 0.38 = sum a_i^2
    assert state.norm_squared == pytest.approx(0.07, abs=1e-12)
    assert trace_power_closed(state, 2, basis) == pytest.approx(0.38, abs=1e-12)


@pytest.mark.parametrize("dim", range(2, 7))
def test_three_route_agreement(dim):
    rng = np.random.default_rng(77 + dim)
    basis = build_gellmann_basis(dim)
    for _ in range(20):
        rho = random_density_matrix(dim, rng)
        state = to_coherence(rho, basis)
        eigs = np.linalg.eigvalsh(rho)
        T, c = closed_invariants(state, basis).T, coherence_scale(dim)
        for m in range(2, 10):
            oracle = float(np.sum(eigs**m))
            closed = trace_power_closed(state, m, basis)
            assert closed == pytest.approx(oracle, abs=1e-9)
            # the shared weight table keeps the plain sum's every bit
            assert closed == sum(comb(m, k) * c**k * T[k] for k in range(m + 1)) / dim**m
            direct = reference_matrix_trace_powers(from_coherence(state, basis), m)[m - 1]
            assert direct == pytest.approx(oracle, abs=1e-9)


def test_routes_agree_in_the_product_basis_too():
    # nothing in the invariant machinery may assume the grouped ordering
    from blochvec import build_product_basis, product_tensors, to_coherence as toc

    rng = np.random.default_rng(101)
    basis = build_product_basis((2, 2))
    for _ in range(10):
        rho = random_density_matrix(4, rng)
        state = toc(rho, basis)
        eigs = np.linalg.eigvalsh(rho)
        for m in range(2, 10):
            oracle = float(np.sum(eigs**m))
            assert trace_power_closed(state, m, basis) == pytest.approx(oracle, abs=1e-9)
            direct = reference_matrix_trace_powers(from_coherence(state, basis), m)[m - 1]
            assert direct == pytest.approx(oracle, abs=1e-9)
        cas_prod = casimirs(state, basis, up_to=4)
        cas_gm = casimirs(to_coherence(rho, build_gellmann_basis(4)),
                          build_gellmann_basis(4), up_to=4)
        for m in cas_prod.values:
            assert cas_prod[m] == pytest.approx(cas_gm[m], abs=1e-10)
        from blochvec import closed_S234, symmetric_functions
        s2, s3, s4 = closed_S234(state, basis)
        S = symmetric_functions(rho)
        assert (s2, s3, s4) == pytest.approx(tuple(S[1:4]), abs=1e-10)


def test_casimir_diag_formulas():
    state = diag_state([0.5, 0.3, 0.2])
    cas = casimirs(state, build_gellmann_basis(3), up_to=3)
    a1, a2, a3 = 0.5, 0.3, 0.2
    c2_expected = a1**2 + a2**2 + a3**2 - a1 * a2 - a1 * a3 - a2 * a3
    assert cas[2] == pytest.approx(c2_expected, abs=1e-12)
    assert cas[3] == pytest.approx(cubic_diag_formula(a1, a2, a3), abs=1e-12)
    assert cas[3] == pytest.approx(0.01, abs=1e-12)


def test_casimirs_vanish_when_maximally_mixed():
    for dim in (3, 4, 5):
        state = diag_state(np.full(dim, 1.0 / dim))
        cas = casimirs(state, build_gellmann_basis(dim), up_to=min(dim, 5))
        assert max(abs(v) for v in cas.values.values()) < 1e-12


def test_casimirs_are_one_on_pure_states():
    rng = np.random.default_rng(8)
    for dim in (4, 5):
        basis = build_gellmann_basis(dim)
        psi = haar_state(dim, rng)
        state = to_coherence(np.outer(psi, psi.conj()), basis)
        cas = casimirs(state, build_gellmann_basis(dim), up_to=min(dim, 5))
        for m, value in cas.values.items():
            assert value == pytest.approx(1.0, abs=1e-9), m


def test_casimir_errors():
    state = diag_state([0.6, 0.4])
    with pytest.raises(StarUndefinedError):
        casimirs(state, build_gellmann_basis(2), up_to=2 + 1)
    with pytest.raises(UnsupportedOrderError):
        casimirs(diag_state(np.full(5, 0.2)), build_gellmann_basis(5), up_to=9)
    with pytest.raises(UnsupportedOrderError):
        trace_power_closed(state, 0, build_gellmann_basis(2))


@pytest.mark.parametrize("spectrum, call, error, match", [
    ([0.6, 0.4], lambda r: r.casimirs(3), StarUndefinedError, "require N >= 3"),
    ([0.6, 0.4], lambda r: r.trace_power(10), UnsupportedOrderError, "in 2..9, got 10"),
    ([0.5, 0.3, 0.2], lambda r: r.casimirs(5), UnsupportedOrderError, r"= 3, got 5"),
], ids=["qubit-cubic-casimir", "trace-power-10", "qutrit-casimir-5"])
def test_closed_invariants_refuse_what_their_views_refuse(spectrum, call, error, match):
    report = closed_invariants(diag_state(spectrum), build_gellmann_basis(len(spectrum)))
    with pytest.raises(error, match=match):
        call(report)


def test_closed_invariants_that_overflow_raise_domain_error():
    # (n.n)^4 overflows from |n| of about 4e38; the vector is refused before
    # the d-chain's products, which would warn from |n| of about 1e62 on
    # (a RuntimeWarning fails the test under filterwarnings = error)
    basis = build_gellmann_basis(3)
    for exponent in range(30, 81):
        n = np.zeros(8)
        n[0] = 10.0**exponent
        state = CoherenceState(dim=3, n=n)
        if exponent <= 38:
            assert all(np.isfinite(closed_S234(state, basis)))
        else:
            for view in (closed_S234, lambda s, b: casimirs(s, b, up_to=3),
                         lambda s, b: trace_power_closed(s, 2, b)):
                with pytest.raises(DomainError, match="overflow"):
                    view(state, basis)
        assert check_positivity_coherence(state, basis).verdict is Verdict.NOT_PSD


def test_missing_casimir_order_names_the_held_orders():
    cas = casimirs(diag_state([0.5, 0.3, 0.2]), build_gellmann_basis(3), up_to=2)
    with pytest.raises(UnsupportedOrderError, match=r"order 3.*orders \[2\]"):
        cas[3]


@pytest.mark.parametrize("dim", range(2, 6))
def test_unitary_invariance(dim):
    rng = np.random.default_rng(90 + dim)
    basis = build_gellmann_basis(dim)
    for _ in range(10):
        rho = random_density_matrix(dim, rng)
        u = random_unitary(dim, rng)
        rot = u @ rho @ u.conj().T
        s1 = to_coherence(rho, basis)
        s2 = to_coherence(rot, basis)
        for m in range(2, 8):
            assert trace_power_closed(s1, m, basis) == pytest.approx(
                trace_power_closed(s2, m, basis), abs=1e-9)
        if dim >= 3:
            c1 = casimirs(s1, basis, up_to=min(dim, 6))
            c2 = casimirs(s2, basis, up_to=min(dim, 6))
            for m in c1.values:
                assert c1[m] == pytest.approx(c2[m], abs=1e-9)


def test_equal_spectra_equal_casimirs_distinct_spectra_differ():
    rng = np.random.default_rng(123)
    dim = 4
    basis = build_gellmann_basis(dim)
    for _ in range(20):
        rho = random_density_matrix(dim, rng)
        u = random_unitary(dim, rng)
        c_a = casimirs(to_coherence(rho, basis), basis, up_to=4)
        c_b = casimirs(to_coherence(u @ rho @ u.conj().T, basis), basis, up_to=4)
        assert all(c_a[m] == pytest.approx(c_b[m], abs=1e-9) for m in c_a.values)
        other = random_density_matrix(dim, rng)
        spectra_gap = np.abs(np.sort(np.linalg.eigvalsh(rho))
                             - np.sort(np.linalg.eigvalsh(other))).max()
        if spectra_gap > 1e-3:
            c_c = casimirs(to_coherence(other, basis), basis, up_to=4)
            assert max(abs(c_a[m] - c_c[m]) for m in c_a.values) > 1e-6


def test_cubic_bound_identity():
    # |n|^6 - ((n*n).n)^2 = (27/4) (a1-a2)^2 (a1-a3)^2 (a2-a3)^2 >= 0
    rng = np.random.default_rng(55)
    basis = build_gellmann_basis(3)
    for _ in range(200):
        spec = rng.dirichlet(np.ones(3))
        state = diag_state(spec)
        cas = casimirs(state, basis, up_to=3)
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


def degeneracy_label(spec):
    """The CLI's degeneracy line for a diagonal state."""
    dim = len(spec)
    report = closed_invariants(diag_state(spec), build_gellmann_basis(dim))
    return DEGENERACY_LABELS[dim].get(report.degeneracy(), "Unresolved")


def test_classify_degeneracy_3():
    for spec, pattern, label in [
        ([0.5, 0.5, 0.0], (2, 1), "TwoLargeOneSmall"),
        ([1 / 3, 1 / 3, 1 / 3], (3,), "ThreeFoldDegenerate"),
        ([0.5, 0.3, 0.2], (1, 1, 1), "NonDegenerate"),
        ([0.8, 0.1, 0.1], (1, 2), "TwoSmallOneLarge"),
        # split by 1e-5 around 1/3: c_2 and c_3 are below EPS_ZERO here
        ([1 / 3 + 1e-5, 1 / 3, 1 / 3 - 1e-5], (1, 1, 1), "NonDegenerate"),
    ]:
        report = closed_invariants(diag_state(spec), build_gellmann_basis(3))
        assert report.degeneracy() == pattern, spec
        assert degeneracy_label(spec) == label, spec
    # explicit values on the (1/2, 1/2, 0) spectrum
    cas = casimirs(diag_state([0.5, 0.5, 0.0]), build_gellmann_basis(3), up_to=3)
    assert cas[2] == pytest.approx(0.25, abs=1e-12)
    assert cas[3] == pytest.approx(-0.125, abs=1e-12)


def test_classify_degeneracy_4():
    for spec, pattern, label in [
        ([1.0, 0.0, 0.0, 0.0], (1, 3), "PatternABBB"),
        ([0.1, 0.3, 0.3, 0.3], (3, 1), "PatternABBB"),
        ([0.25, 0.25, 0.25, 0.25], (4,), "PatternABBB"),
        ([0.5, 0.5, 0.0, 0.0], (2, 2), "PatternAABB"),
        ([0.35, 0.35, 0.15, 0.15], (2, 2), "PatternAABB"),
        ([0.4, 0.3, 0.2, 0.1], (1, 1, 1, 1), "Unresolved"),
        ([0.4, 0.3, 0.15, 0.15], (1, 1, 2), "Unresolved"),
        # one pair near the maximally mixed state, not a threefold eigenvalue
        ([0.25, 0.25, 0.2501, 0.2499], (1, 2, 1), "Unresolved"),
    ]:
        report = closed_invariants(diag_state(spec), build_gellmann_basis(4))
        assert report.degeneracy() == pattern, spec
        assert degeneracy_label(spec) == label, spec


def test_degeneracy_range_and_edges():
    assert closed_invariants(diag_state([0.7, 0.3]), build_gellmann_basis(2)).degeneracy() == (1, 1)
    assert closed_invariants(diag_state([0.5, 0.5]), build_gellmann_basis(2)).degeneracy() == (2,)
    # a split of 1e-10 leaves |n| below EPS_ZERO, which counts as maximally
    # mixed; the pattern of a larger |n| is read scale-free
    for eps, pattern in [(1e-10, (5,)), (1e-7, (1, 3, 1)), (1e-2, (1, 3, 1))]:
        spec = np.full(5, 0.2) + eps * np.array([1.0, 0.0, 0.0, 0.0, -1.0])
        assert closed_invariants(diag_state(spec), build_gellmann_basis(5)).degeneracy() == pattern
    with pytest.raises(UnsupportedOrderError):
        closed_invariants(diag_state(np.full(6, 1 / 6)), build_gellmann_basis(6)).degeneracy()
