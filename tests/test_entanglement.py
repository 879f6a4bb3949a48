import itertools

import numpy as np
import pytest

from blochvec import (
    DomainError,
    LayoutError,
    NormalizationError,
    ckw_inequality_check,
    concurrence_squared,
    concurrence_squared_bound,
    schmidt_trace_relation,
    spin_flip,
    tangle_report,
    three_tangle,
)
from blochvec.entanglement import tripartite_marginals

from conftest import haar_state, random_density_matrix, random_unitary

GHZ = np.zeros(8, dtype=complex)
GHZ[0] = GHZ[7] = 1 / np.sqrt(2)

W_STATE = np.zeros(8, dtype=complex)
W_STATE[1] = W_STATE[2] = W_STATE[4] = 1 / np.sqrt(3)

KET000 = np.eye(8, dtype=complex)[0]

SINGLET_KET = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2)
SINGLET = np.outer(SINGLET_KET, SINGLET_KET).astype(complex)


def permuted(psi, perm):
    return psi.reshape(2, 2, 2).transpose(perm).reshape(-1)


def test_spin_flip_examples():
    np.testing.assert_allclose(spin_flip(SINGLET), SINGLET, atol=1e-13)
    zero = np.zeros((4, 4), dtype=complex)
    zero[0, 0] = 1.0
    flipped = spin_flip(zero)
    want = np.zeros((4, 4), dtype=complex)
    want[3, 3] = 1.0
    np.testing.assert_allclose(flipped, want, atol=1e-13)
    np.testing.assert_allclose(spin_flip(np.eye(4, dtype=complex) / 4),
                               np.eye(4) / 4, atol=1e-13)
    with pytest.raises(LayoutError):
        spin_flip(np.eye(2, dtype=complex))


def test_spin_flip_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(0)
    for _ in range(20):
        rho = random_density_matrix(4, rng)
        flip = spin_flip(rho)
        assert np.trace(flip).real == pytest.approx(1.0, abs=1e-12)
        assert np.abs(flip - flip.conj().T).max() <= 1e-12


def test_concurrence_singlet():
    csq, bound = concurrence_squared_bound(SINGLET)
    assert csq == pytest.approx(1.0, abs=1e-10)
    assert bound == pytest.approx(1.0, abs=1e-10)
    assert concurrence_squared(SINGLET) == pytest.approx(1.0, abs=1e-10)


def test_concurrence_product_state():
    rng = np.random.default_rng(1)
    psi = np.kron(haar_state(2, rng), haar_state(2, rng))
    rho = np.outer(psi, psi.conj())
    csq, _ = concurrence_squared_bound(rho)
    assert csq == pytest.approx(0.0, abs=1e-10)
    assert concurrence_squared(rho) == pytest.approx(0.0, abs=1e-10)


def test_concurrence_ghz_marginal():
    _, _, _, rho_ab, _ = tripartite_marginals(GHZ)
    csq, bound = concurrence_squared_bound(rho_ab)
    assert csq == pytest.approx(0.0, abs=1e-10)
    assert bound == pytest.approx(0.5, abs=1e-10)


def test_concurrence_rejects_indefinite_input():
    with pytest.raises(DomainError):
        concurrence_squared_bound(np.diag([0.7, 0.5, -0.1, -0.1]).astype(complex))


def test_concurrence_bound_on_random_marginals():
    rng = np.random.default_rng(5)
    for _ in range(100):
        psi = haar_state(8, rng)
        _, _, _, rho_ab, rho_ac = tripartite_marginals(psi)
        for rho in (rho_ab, rho_ac):
            csq, bound = concurrence_squared_bound(rho)
            assert csq <= bound + 1e-9


def test_schmidt_relation_product_state():
    check = schmidt_trace_relation(KET000)
    assert check.pair_lhs == pytest.approx(1.0, abs=1e-12)
    assert check.pair_rhs == pytest.approx(1.0, abs=1e-12)
    r1, r2 = check.residuals
    assert r1 <= 1e-12 and r2 <= 1e-12


def test_schmidt_relation_ghz():
    r1, r2 = schmidt_trace_relation(GHZ).residuals
    assert r1 <= 1e-10 and r2 <= 1e-10


def test_schmidt_relation_random_states():
    rng = np.random.default_rng(11)
    for _ in range(200):
        r1, r2 = schmidt_trace_relation(haar_state(8, rng)).residuals
        assert r1 <= 1e-9 and r2 <= 1e-9


def test_schmidt_relation_rejects_unnormalized():
    with pytest.raises(NormalizationError):
        schmidt_trace_relation(np.ones(8))
    with pytest.raises(LayoutError):
        three_tangle(np.array([1.0, 0.0, 0.0, 0.0]))


def test_three_tangle_reference_states():
    assert three_tangle(GHZ) == pytest.approx(1.0, abs=1e-8)
    assert three_tangle(W_STATE) == pytest.approx(0.0, abs=1e-8)
    assert three_tangle(KET000) == pytest.approx(0.0, abs=1e-10)
    rng = np.random.default_rng(2)
    product = np.kron(haar_state(2, rng), np.kron(haar_state(2, rng), haar_state(2, rng)))
    assert three_tangle(product) == pytest.approx(0.0, abs=1e-8)


def test_three_tangle_matches_concurrence_oracle():
    from conftest import pair_concurrence_squared_oracle, tangle_oracle

    rng = np.random.default_rng(21)
    for _ in range(100):
        psi = haar_state(8, rng)
        assert three_tangle(psi) == pytest.approx(tangle_oracle(psi), abs=1e-8)
        # the shipped concurrence route agrees with the exact oracle
        _, _, _, rho_ab, _ = tripartite_marginals(psi)
        assert concurrence_squared(rho_ab) == pytest.approx(
            pair_concurrence_squared_oracle(psi, ('A', 'B')), abs=1e-7)


def test_three_tangle_permutation_invariance():
    rng = np.random.default_rng(33)
    for _ in range(100):
        psi = haar_state(8, rng)
        taus = [three_tangle(permuted(psi, perm))
                for perm in itertools.permutations(range(3))]
        assert max(taus) - min(taus) <= 1e-8
        assert -1e-12 <= min(taus) and max(taus) <= 1.0 + 1e-9


def test_tangle_report_matches_the_single_functions():
    """The report reads the six orderings off swapped marginals; each value
    is bitwise the one the permuted ket gives through three_tangle."""
    rng = np.random.default_rng(71)
    for psi in [GHZ, W_STATE, KET000] + [haar_state(8, rng) for _ in range(30)]:
        report = tangle_report(psi)
        taus = [three_tangle(permuted(psi, perm))
                for perm in itertools.permutations(range(3))]
        assert report.tau == taus[0]
        assert report.permutation_spread == max(taus) - min(taus)
        assert (report.ckw_lhs, report.ckw_rhs, report.ckw_holds) == ckw_inequality_check(psi)
        _, _, _, rho_ab, rho_ac = tripartite_marginals(psi)
        assert report.c2_ab == concurrence_squared(rho_ab)
        assert report.c2_ac == concurrence_squared(rho_ac)


def test_three_tangle_local_unitary_invariance():
    rng = np.random.default_rng(41)
    for _ in range(60):
        psi = haar_state(8, rng)
        u = np.kron(random_unitary(2, rng),
                    np.kron(random_unitary(2, rng), random_unitary(2, rng)))
        assert three_tangle(u @ psi) == pytest.approx(three_tangle(psi), abs=1e-8)


def test_ckw_w_state_equality():
    lhs, rhs, holds = ckw_inequality_check(W_STATE)
    assert lhs == pytest.approx(8 / 9, abs=1e-9)
    assert rhs == pytest.approx(8 / 9, abs=1e-9)
    assert holds


def test_ckw_ghz_and_product():
    lhs, rhs, holds = ckw_inequality_check(GHZ)
    assert lhs == pytest.approx(0.0, abs=1e-9)
    assert rhs == pytest.approx(1.0, abs=1e-9)
    assert holds
    lhs, rhs, holds = ckw_inequality_check(KET000)
    assert lhs == pytest.approx(0.0, abs=1e-10)
    assert rhs == pytest.approx(0.0, abs=1e-10)
    assert holds


def test_ckw_random_states():
    rng = np.random.default_rng(55)
    for _ in range(200):
        _, _, holds = ckw_inequality_check(haar_state(8, rng))
        assert holds
