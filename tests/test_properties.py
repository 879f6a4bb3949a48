"""Properties drawn by hypothesis, under Haar unitaries.

A global unitary keeps the spectrum, so the Casimirs, the closed trace
powers and the degeneracy pattern cannot move, and the verdicts of the
coherence gate and of ``blochvec check`` on a written document must be
the ones the eigenvalues give; a local unitary U_A x U_B
keeps the local invariants of the correlation block, and U_A x U_B x U_C
on a three-qubit ket keeps its tangle report.  Each example draws a state
and the seed of its unitaries.  The settings make runs deterministic
and keep no example database; ``conftest.py`` sends hypothesis's other
caches to a temporary directory, so a run leaves no ``.hypothesis/``.
"""

import contextlib
import io
import json
from itertools import groupby

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochvec import (
    CompositeLayout,
    Verdict,
    build_gellmann_basis,
    build_product_basis,
    casimirs,
    check_positivity_coherence,
    closed_invariants,
    correlation_det,
    extract_correlation,
    local_invariant_cubic,
    local_invariant_quadratic,
    positivity_verdict,
    tangle_report,
    to_coherence,
    trace_power_closed,
)
from blochvec import cli
from blochvec.documents import coherence_document, dump_json, matrix_document

from conftest import haar_state, random_density_matrix, random_unitary

deterministic = settings(derandomize=True, database=None, deadline=None, max_examples=40)
seeds = st.integers(0, 2**32 - 1)


def rotated(rho, u):
    return u @ rho @ u.conj().T


@st.composite
def mixed_states(draw, dims):
    """(rho, rng): a density matrix of any rank, and the generator that
    draws its unitaries."""
    dim = draw(st.sampled_from(dims))
    rng = np.random.default_rng(draw(seeds))
    return random_density_matrix(dim, rng, rank=draw(st.integers(1, dim))), rng


@deterministic
@given(mixed_states((3, 4, 5)))
def test_casimirs_and_closed_trace_powers_under_a_global_unitary(drawn):
    rho, rng = drawn
    dim = rho.shape[0]
    basis = build_gellmann_basis(dim)
    before = to_coherence(rho, basis)
    after = to_coherence(rotated(rho, random_unitary(dim, rng)), basis)
    c1, c2 = casimirs(before, basis, up_to=dim), casimirs(after, basis, up_to=dim)
    for m in range(2, dim + 1):
        assert c2[m] == pytest.approx(c1[m], abs=1e-9)
    for m in range(2, 10):
        assert trace_power_closed(after, m, basis) == pytest.approx(
            trace_power_closed(before, m, basis), abs=1e-9)


@deterministic
@given(st.integers(3, 5).flatmap(
    lambda dim: st.lists(st.integers(0, 8), min_size=dim, max_size=dim)), seeds)
def test_degeneracy_under_a_global_unitary(weights, seed):
    # integer weights repeat often and keep distinct eigenvalues at least
    # 1/8 of the spectrum's width apart
    spec = np.sort(np.asarray(weights, dtype=float) + 1.0)[::-1]
    spec /= spec.sum()
    pattern = tuple(len(list(run)) for _, run in groupby(sorted(weights, reverse=True)))
    dim = spec.size
    basis = build_gellmann_basis(dim)
    rho = np.diag(spec).astype(complex)
    u = random_unitary(dim, np.random.default_rng(seed))
    assert closed_invariants(to_coherence(rho, basis), basis).degeneracy() == pattern
    assert closed_invariants(to_coherence(rotated(rho, u), basis), basis).degeneracy() == pattern


@deterministic
@given(mixed_states((4,)))
def test_two_qubit_local_invariants_under_local_unitaries(drawn):
    rho, rng = drawn
    layout = CompositeLayout(dims=(2, 2))
    u = np.kron(random_unitary(2, rng), random_unitary(2, rng))
    before = extract_correlation(rho, layout)
    after = extract_correlation(rotated(rho, u), layout)
    assert local_invariant_quadratic(after) == pytest.approx(
        local_invariant_quadratic(before), abs=1e-9)
    assert correlation_det(after) == pytest.approx(correlation_det(before), abs=1e-9)


@deterministic
@given(mixed_states((9,)))
def test_two_qutrit_cubic_invariant_under_local_unitaries(drawn):
    rho, rng = drawn
    layout, qutrit = CompositeLayout(dims=(3, 3)), build_gellmann_basis(3)
    u = np.kron(random_unitary(3, rng), random_unitary(3, rng))
    before = extract_correlation(rho, layout)
    after = extract_correlation(rotated(rho, u), layout)
    assert local_invariant_cubic(after, qutrit, qutrit) == pytest.approx(
        local_invariant_cubic(before, qutrit, qutrit), abs=1e-9)


GATE_LAYOUTS = [(N,) for N in range(2, 10)] + [(2, 2), (2, 3), (3, 3), (2, 2, 2)]


@st.composite
def gate_spectra(draw):
    """(layout, spectrum): a trace-one spectrum with one eigenvalue exactly 0
    or at most -1e-6, and every other eigenvalue at least 1e-6."""
    layout = draw(st.sampled_from(GATE_LAYOUTS))
    N = int(np.prod(layout))
    special = draw(st.one_of(st.just(0.0), st.floats(-0.5, -1e-6)))
    weights = np.array(draw(st.lists(st.floats(1e-3, 1.0), min_size=N - 1, max_size=N - 1)))
    rest = 1e-6 + weights * ((1.0 - special - (N - 1) * 1e-6) / weights.sum())
    return layout, np.append(rest, special)


@deterministic
@given(gate_spectra(), seeds)
def test_coherence_gate_verdict_equals_the_eigenvalue_oracle(drawn, seed):
    layout, spectrum = drawn
    basis = build_gellmann_basis(layout[0]) if len(layout) == 1 else build_product_basis(layout)
    u = random_unitary(basis.dim, np.random.default_rng(seed))
    rho = rotated(np.diag(spectrum).astype(complex), u)
    eigs = np.linalg.eigvalsh(rho)
    if eigs.min() < -1e-9:
        want = Verdict.NOT_PSD
    else:
        assert np.abs(eigs).min() <= 1e-9
        want = Verdict.BOUNDARY
    seq = check_positivity_coherence(to_coherence(rho, basis), basis)
    assert (seq.verdict, seq.sign_changes) == (want, int(np.sum(eigs > 1e-9)))
    rule = positivity_verdict(seq.S)  # the gate's verdict is the public rule on its S_k
    assert (rule.verdict, rule.sign_changes) == (seq.verdict, seq.sign_changes)


CLI_LAYOUTS = [(N,) for N in range(2, 10)] + [(2, 2), (2, 2, 2), (3, 3)]


@st.composite
def cli_documents(draw):
    """(layout, payload, spectrum): a trace-one spectrum whose eigenvalues
    after the first have magnitudes log-uniform in [1e-6, 0.5/N] and
    either sign, so the first is at least 0.5 and none lies within 1e-6
    of 0.  Those below 1e-4 share one sign: small eigenvalues of both signs
    are the opposite-sign pairs that the verdict rule reads as Boundary
    (``test_an_opposite_sign_pair_reads_not_psd``)."""
    layout = draw(st.sampled_from(CLI_LAYOUTS))
    N = int(np.prod(layout))
    exponents = np.array(draw(st.lists(st.floats(-6.0, np.log10(0.5 / N)), min_size=N - 1,
                                       max_size=N - 1)))
    signs = np.array(draw(st.lists(st.sampled_from((1.0, -1.0)), min_size=N - 1,
                                   max_size=N - 1)))
    signs[exponents < -4.0] = draw(st.sampled_from((1.0, -1.0)))
    rest = signs * 10.0**exponents
    return layout, draw(st.sampled_from(("matrix", "coherence"))), np.append(1.0 - rest.sum(), rest)


@settings(deterministic, max_examples=100)
@given(cli_documents(), seeds)
def test_cli_check_verdict_equals_the_eigenvalue_oracle(tmp_path_factory, drawn, seed):
    layout, payload, spectrum = drawn
    basis = build_gellmann_basis(layout[0]) if len(layout) == 1 else build_product_basis(layout)
    u = random_unitary(basis.dim, np.random.default_rng(seed))
    rho = rotated(np.diag(spectrum).astype(complex), u)
    dims = layout if len(layout) > 1 else None
    doc = (matrix_document(rho, dims) if payload == "matrix"
           else coherence_document(to_coherence(rho, basis).n, basis.dim, dims))
    path = str(tmp_path_factory.mktemp("cli") / "doc.json")
    dump_json(doc, path)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["check", path, "--json"])
    if code == 1:  # a refusal: one error line, no payload
        assert out.getvalue() == "" and err.getvalue().startswith("error:")
        return
    eigs = np.linalg.eigvalsh(rho)
    want = Verdict.NOT_PSD if eigs.min() < 0.0 else Verdict.PSD
    result = json.loads(out.getvalue())
    assert (result["verdict"], result["sign_changes"]) == (want.value, int(np.sum(eigs > 0.0)))
    assert code == (2 if want is Verdict.NOT_PSD else 0)


def locally_rotated_reports(ket_seed, seed):
    """tangle_report of a Haar ket, before and after U_A x U_B x U_C."""
    psi = haar_state(8, np.random.default_rng(ket_seed))
    rng = np.random.default_rng(seed)
    u = np.kron(random_unitary(2, rng), np.kron(random_unitary(2, rng), random_unitary(2, rng)))
    return tangle_report(psi), tangle_report(u @ psi)


@deterministic
@given(seeds, seeds)
def test_tangle_under_local_unitaries(ket_seed, seed):
    before, after = locally_rotated_reports(ket_seed, seed)
    for field in ("tau", "ckw_rhs"):
        assert getattr(after, field) == pytest.approx(getattr(before, field), abs=1e-9), field


def test_concurrences_under_local_unitaries():
    drift = 0.0
    for seed in range(20):
        before, after = locally_rotated_reports(seed, seed + 1)
        drift = max(drift, *(abs(getattr(after, field) - getattr(before, field))
                             for field in ("c2_ab", "c2_ac", "ckw_lhs")))
    assert drift <= 1e-9
