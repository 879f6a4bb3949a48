"""Invariance properties drawn by hypothesis, under Haar unitaries.

A global unitary keeps the spectrum, so the Casimirs, the closed trace
powers and the degeneracy pattern cannot move; a local unitary U_A x U_B
keeps the local invariants of the correlation block.  Each example draws a
state and the seed of its unitaries.  The settings make runs deterministic
and keep no example database; ``conftest.py`` sends hypothesis's other
caches to a temporary directory, so a run leaves no ``.hypothesis/``.
"""

from itertools import groupby

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochvec import (
    CompositeLayout,
    build_gellmann_basis,
    casimirs,
    closed_invariants,
    correlation_det,
    extract_correlation,
    gellmann_tensors,
    local_invariant_cubic,
    local_invariant_quadratic,
    to_coherence,
    trace_power_closed,
)

from conftest import random_density_matrix, random_unitary

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
    basis, tensors = build_gellmann_basis(dim), gellmann_tensors(dim)
    before = to_coherence(rho, basis)
    after = to_coherence(rotated(rho, random_unitary(dim, rng)), basis)
    c1, c2 = casimirs(before, tensors, up_to=dim), casimirs(after, tensors, up_to=dim)
    for m in range(2, dim + 1):
        assert c2[m] == pytest.approx(c1[m], abs=1e-9)
    for m in range(2, 10):
        assert trace_power_closed(after, m, tensors) == pytest.approx(
            trace_power_closed(before, m, tensors), abs=1e-9)


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
    basis, tensors = build_gellmann_basis(dim), gellmann_tensors(dim)
    rho = np.diag(spec).astype(complex)
    u = random_unitary(dim, np.random.default_rng(seed))
    assert closed_invariants(to_coherence(rho, basis), tensors).degeneracy() == pattern
    assert closed_invariants(to_coherence(rotated(rho, u), basis), tensors).degeneracy() == pattern


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
    layout, t3 = CompositeLayout(dims=(3, 3)), gellmann_tensors(3)
    u = np.kron(random_unitary(3, rng), random_unitary(3, rng))
    before = extract_correlation(rho, layout)
    after = extract_correlation(rotated(rho, u), layout)
    assert local_invariant_cubic(after, t3, t3) == pytest.approx(
        local_invariant_cubic(before, t3, t3), abs=1e-9)
