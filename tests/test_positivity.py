from itertools import combinations
from math import prod

import numpy as np
import pytest

from blochvec import (
    AffineMap,
    CoherenceState,
    DimensionError,
    DomainError,
    HermiticityError,
    LayoutError,
    Verdict,
    apply_affine_map,
    build_gellmann_basis,
    build_product_basis,
    check_positivity,
    check_positivity_coherence,
    closed_S234,
    diagonal_family_matrix,
    from_coherence,
    inversion_bound_check,
    newton_symmetric_functions,
    positivity_verdict,
    SymFnSequence,
    symmetric_functions,
    to_coherence,
    universal_inversion,
    universal_inversion_matrix,
)
from blochvec.errors import EPS_POS
from blochvec.invariants import MAX_CLOSED_ORDER
from blochvec.positivity import matrix_trace_powers

from conftest import (
    haar_state,
    mp_symmetric_functions,
    random_density_matrix,
    random_hermitian_trace_one,
    random_unitary,
    reference_matrix_trace_powers,
    reference_newton_symmetric_functions,
)


def esp_oracle(eigs):
    """Elementary symmetric polynomials by explicit subset enumeration."""
    return np.array([
        sum(prod(c) for c in combinations(eigs, k))
        for k in range(1, len(eigs) + 1)
    ])


def test_newton_examples():
    np.testing.assert_allclose(
        newton_symmetric_functions([1.0, 0.38, 0.16]),  # spectrum (0.5, 0.3, 0.2)
        [1.0, 0.31, 0.03], atol=1e-12)
    np.testing.assert_allclose(
        newton_symmetric_functions([1.0, 1.0, 1.0]),  # spectrum (1, 0, 0)
        [1.0, 0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(
        newton_symmetric_functions([1.0, 0.5]),  # spectrum (1/2, 1/2)
        [1.0, 0.25], atol=1e-12)
    with pytest.raises(LayoutError):  # a wrong shape, as for every real sequence
        newton_symmetric_functions([])


@pytest.mark.parametrize("dim", range(2, 7))
def test_newton_matches_esp_oracle(dim):
    rng = np.random.default_rng(dim)
    for _ in range(50):
        eigs = rng.normal(size=dim)
        traces = np.array([np.sum(eigs**m) for m in range(1, dim + 1)])
        got = newton_symmetric_functions(traces)
        want = esp_oracle(eigs)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("scale", [0.01, 1.0, 10.0])
def test_trace_powers_and_newton_match_the_reference_bit_for_bit(scale):
    rng = np.random.default_rng(round(100 * scale))
    for N in range(2, 65):
        mat = random_hermitian_trace_one(N, rng, spread=scale)
        for up_to in (0, 1, N, 9):
            got = matrix_trace_powers(mat, up_to)
            assert got.shape == (up_to,)
            assert np.array_equal(got, reference_matrix_trace_powers(mat, up_to))
        traces = reference_matrix_trace_powers(mat, N)
        S = newton_symmetric_functions(traces)
        assert np.array_equal(S, reference_newton_symmetric_functions(traces))


def test_matrix_trace_powers_holds_no_stack_of_powers():
    import tracemalloc

    N = 64
    mat = random_hermitian_trace_one(N, np.random.default_rng(4))
    tracemalloc.start()
    try:
        matrix_trace_powers(mat, N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * N * N * 16  # a few N x N complex powers, not N of them


@pytest.mark.parametrize("up_to", [-1, 2.0, 2.5, "3", None, True])
def test_matrix_trace_powers_refuses_a_bad_count(up_to):
    with pytest.raises(DomainError):
        matrix_trace_powers(np.eye(3), up_to)


@pytest.mark.parametrize("dim", range(2, 7))
def test_closed_S234_matches_newton(dim):
    rng = np.random.default_rng(10 + dim)
    basis = build_gellmann_basis(dim)
    for _ in range(30):
        rho = random_density_matrix(dim, rng)
        state = to_coherence(rho, basis)
        s2, s3, s4 = closed_S234(state, basis)
        S = symmetric_functions(rho)
        assert s2 == pytest.approx(S[1], abs=1e-9)
        if dim >= 3:
            assert s3 == pytest.approx(S[2], abs=1e-9)
        else:
            assert s3 == 0.0
        if dim >= 4:
            assert s4 == pytest.approx(S[3], abs=1e-9)
        else:
            assert s4 == pytest.approx(0.0, abs=1e-12)


def test_closed_S234_special_values():
    mixed = CoherenceState(dim=3, n=np.zeros(8))
    s2, s3, _ = closed_S234(mixed, build_gellmann_basis(3))
    assert s2 == pytest.approx(1 / 3, abs=1e-15)
    assert s3 == pytest.approx(1 / 27, abs=1e-15)
    rng = np.random.default_rng(2)
    for dim in (3, 4, 5):
        basis = build_gellmann_basis(dim)
        psi = haar_state(dim, rng)
        pure = to_coherence(np.outer(psi, psi.conj()), basis)
        for s in closed_S234(pure, build_gellmann_basis(dim)):
            assert abs(s) <= 1e-9


def test_verdict_examples():
    seq = check_positivity(np.diag([0.5, 0.75, -0.25]).astype(complex))
    assert seq.verdict is Verdict.NOT_PSD
    assert seq.sign_changes == 2  # signs (+, -, +, +): two changes
    np.testing.assert_allclose(seq.S, [1.0, 0.0625, -0.09375], atol=1e-12)

    rng = np.random.default_rng(4)
    assert check_positivity(random_density_matrix(4, rng)).is_psd

    psi = haar_state(4, rng)
    pure = np.outer(psi, psi.conj())
    assert check_positivity(pure).verdict is Verdict.BOUNDARY


def test_verdict_rank_deficient_is_boundary():
    seq = check_positivity(np.diag([0.5, 0.5, 0.0]).astype(complex))
    assert seq.verdict is Verdict.BOUNDARY
    assert seq.sign_changes == 2


def test_verdict_rejects_non_hermitian():
    with pytest.raises(HermiticityError):
        check_positivity(np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex))


@pytest.mark.parametrize("dim", range(2, 7))
def test_verdict_matches_eigenvalue_oracle(dim):
    rng = np.random.default_rng(31 + dim)
    for trial in range(120):
        if trial % 2 == 0:
            mat = random_density_matrix(dim, rng)
        else:
            mat = random_hermitian_trace_one(dim, rng)
        seq = check_positivity(mat)
        eigs = np.linalg.eigvalsh(mat)
        assert seq.is_psd == (eigs.min() >= -1e-9)
        assert seq.sign_changes == int(np.sum(eigs > 1e-9))


def test_determinant_identity_and_unitary_invariance():
    rng = np.random.default_rng(17)
    for dim in range(2, 7):
        for _ in range(10):
            mat = random_hermitian_trace_one(dim, rng)
            S = symmetric_functions(mat)
            assert S[-1] == pytest.approx(np.linalg.det(mat).real, abs=1e-9)
            u = random_unitary(dim, rng)
            S_rot = symmetric_functions(u @ mat @ u.conj().T)
            np.testing.assert_allclose(S, S_rot, atol=1e-9)


def test_adjoint_route_verdict_agrees_with_matrix_route():
    rng = np.random.default_rng(6)
    for dim in (3, 4, 5):
        basis = build_gellmann_basis(dim)
        for _ in range(10):
            rho = random_density_matrix(dim, rng)
            state = to_coherence(rho, basis)
            seq_m = check_positivity(rho)
            seq_a = check_positivity_coherence(state, basis)
            np.testing.assert_allclose(seq_a.S, seq_m.S, atol=1e-10)
            assert seq_a.verdict == seq_m.verdict


def test_two_qutrit_pipeline_through_product_basis():
    # a 9-level system through the composite basis: S_1..S_9 via adjoint
    # powers agree with the matrix route and the eigenvalue oracle
    from blochvec import build_product_basis
    from itertools import combinations
    from math import prod

    rng = np.random.default_rng(99)
    basis = build_product_basis((3, 3))
    for _ in range(5):
        rho = random_density_matrix(9, rng)
        state = to_coherence(rho, basis)
        seq_a = check_positivity_coherence(state, basis)
        seq_m = check_positivity(rho)
        np.testing.assert_allclose(seq_a.S, seq_m.S, atol=1e-10)
        eigs = np.linalg.eigvalsh(rho)
        oracle = [sum(prod(c) for c in combinations(eigs, k)) for k in range(1, 10)]
        np.testing.assert_allclose(seq_a.S, oracle, atol=1e-9)
        assert seq_a.is_psd


def test_affine_map_basics():
    rng = np.random.default_rng(12)
    basis = build_gellmann_basis(3)
    state = to_coherence(random_density_matrix(3, rng), basis)
    ident = AffineMap(dim=3, T=np.eye(8), t=np.zeros(8))
    np.testing.assert_array_equal(apply_affine_map(ident, state).n, state.n)
    crush = AffineMap(dim=3, T=np.zeros((8, 8)), t=np.zeros(8))
    assert np.abs(apply_affine_map(crush, state).n).max() == 0.0
    with pytest.raises(LayoutError):
        AffineMap(dim=3, T=np.eye(7), t=np.zeros(8))
    with pytest.raises(LayoutError):
        apply_affine_map(AffineMap(dim=2, T=-np.eye(3), t=np.zeros(3)), state)


def test_affine_map_owns_frozen_copies_of_T_and_t():
    T, t = np.eye(3), np.zeros(3)
    mapping = AffineMap(dim=2, T=T, t=t)
    for mine, held in ((T, mapping.T), (t, mapping.t)):
        assert mine.flags.writeable
        assert not np.shares_memory(mine, held)
        assert not held.flags.writeable
    T[0, 0] = 5.0
    assert mapping.T[0, 0] == 1.0


def test_verdict_owns_a_frozen_copy_of_S():
    S = np.array([1.0, 0.25, 0.01])
    for seq in (positivity_verdict(S),
                SymFnSequence(dim=3, S=S, sign_changes=3, verdict=Verdict.PSD)):
        assert S.flags.writeable
        assert not np.shares_memory(S, seq.S)
        assert not seq.S.flags.writeable
    S[2] = -1.0
    assert seq.S[2] == 0.01


def test_affine_map_refuses_complex_parts():
    with pytest.raises(DomainError):
        AffineMap(dim=2, T=np.eye(3) * (1 + 0.5j), t=np.zeros(3))
    with pytest.raises(DomainError):
        AffineMap(dim=2, T=np.eye(3), t=np.full(3, 0.1j))
    with pytest.raises(DomainError):  # a complex dtype is refused even when real-valued
        AffineMap(dim=2, T=np.eye(3, dtype=complex), t=np.zeros(3))


@pytest.mark.parametrize("gate", [check_positivity, symmetric_functions])
def test_empty_operator_is_a_layout_error(gate):
    with pytest.raises(LayoutError):
        gate(np.zeros((0, 0)))


def pure_direction_family(a):
    """Coherence state a * u with u the unit vector of the projector
    diag(0, 0, 1): the one-parameter family whose invariants are
    n.n = a^2, (n*n).n = a^3."""
    basis = build_gellmann_basis(3)
    proj = to_coherence(np.diag([0.0, 0.0, 1.0]).astype(complex), basis)
    return CoherenceState(dim=3, n=a * proj.n)


def test_inversion_of_example_matrix_is_not_psd(example_3x3):
    basis = build_gellmann_basis(3)
    state = to_coherence(example_3x3, basis)
    assert check_positivity(example_3x3).is_psd
    image = universal_inversion_matrix(state, 1.0, basis)
    assert check_positivity(image).verdict is Verdict.NOT_PSD


def test_naive_flip_on_diagonal_family():
    from blochvec import from_coherence

    basis = build_gellmann_basis(3)
    state = pure_direction_family(0.6)
    assert state.norm_squared == pytest.approx(0.36, abs=1e-12)
    weight, flipped = universal_inversion(state, b=1.0)
    assert weight == 1.0
    image = universal_inversion_matrix(state, 1.0, basis)
    seq = check_positivity(image)
    # S3 of the image is (1 - 3a^2 - 2a^3)/27 < 0 at a = 0.6
    assert seq.S[2] == pytest.approx((1 - 3 * 0.36 - 2 * 0.216) / 27, abs=1e-12)
    assert seq.verdict is Verdict.NOT_PSD
    # the (weight, flipped vector) pair reproduces the same matrix
    np.testing.assert_allclose(weight * from_coherence(flipped, basis), image, atol=1e-13)


@pytest.mark.parametrize("a", [0.0, 0.2, 0.4, 0.49])
def test_naive_flip_safe_region(a):
    basis = build_gellmann_basis(3)
    image = universal_inversion_matrix(pure_direction_family(a), 1.0, basis)
    assert check_positivity(image).is_psd


def test_universal_inversion_weight_n_minus_one_is_complement():
    rng = np.random.default_rng(3)
    for dim in (3, 4):
        basis = build_gellmann_basis(dim)
        psi = haar_state(dim, rng)
        rho = np.outer(psi, psi.conj())
        state = to_coherence(rho, basis)
        image = universal_inversion_matrix(state, float(dim - 1), basis)
        np.testing.assert_allclose(image, np.eye(dim) - rho, atol=1e-12)
        assert check_positivity(image).is_psd
    with pytest.raises(DomainError):
        universal_inversion(state, 0.0)


def test_inversion_bound_examples():
    from blochvec import DimensionError

    assert inversion_bound_check(-1.0, 3.0, 4) is True   # boundary b = N - 1
    assert inversion_bound_check(-1.0, 2.0, 4) is False
    assert inversion_bound_check(0.0, 0.5, 4) is True    # maximally mixed input
    with pytest.raises(DomainError):
        inversion_bound_check(0.8, 1.0, 3)  # outside 1/(N-1) >= a >= -1
    with pytest.raises(DimensionError):
        inversion_bound_check(0.0, 1.0, 1)


@pytest.mark.parametrize("b", [np.inf, np.nan, -np.inf], ids=["inf", "nan", "-inf"])
def test_non_finite_inversion_weights_are_refused(b):
    # refused before any array work: a numpy RuntimeWarning would fail here
    state = CoherenceState(dim=3, n=np.full(8, 0.1))
    with pytest.raises(DomainError):
        universal_inversion(state, b)
    with pytest.raises(DomainError):
        inversion_bound_check(0.1, b, 3)
    with pytest.raises(DomainError):
        inversion_bound_check(b, 1.0, 3)
    with pytest.raises(DomainError):  # b as the family parameter a
        diagonal_family_matrix(3, b)


def test_inversion_bound_admits_the_maximally_mixed_image_at_every_size():
    # Newton's S_k of I/N lose their sign at N = 55, 57, 59, 61, 62 and 63
    assert all(inversion_bound_check(0.0, 1.0, N) for N in range(2, 65))


@pytest.mark.parametrize("N", [60, 64])
def test_inversion_bound_matches_closed_inequality_at_large_N(N):
    mismatches = 0
    for a in np.linspace(-1.0, 1.0 / (N - 1), 41):
        for b in np.linspace(0.0, N, 61):
            closed = b >= max(a, (1 - N) * a) - 1e-9
            mismatches += inversion_bound_check(a, b, N) != closed
    assert mismatches == 0


@pytest.mark.parametrize("N", [3, 4])
def test_inversion_bound_matches_closed_inequality(N):
    rng = np.random.default_rng(N)
    for _ in range(200):
        a = rng.uniform(-1.0, 1.0 / (N - 1))
        b = rng.uniform(0.0, N)
        closed = b >= max(a, (1 - N) * a) - 1e-9
        gate = inversion_bound_check(a, b, N)
        eigs = np.linalg.eigvalsh(
            (b * np.eye(N) - N * diagonal_family_matrix(N, a) + np.eye(N)) / N)
        oracle = eigs.min() >= -1e-9
        assert gate == closed == oracle


def test_diagonal_family_matrix_psd_range():
    for N in (3, 4, 5):
        for a in (-1.0, 0.0, 1.0 / (N - 1)):
            assert np.linalg.eigvalsh(diagonal_family_matrix(N, a)).min() >= -1e-12
        assert np.linalg.eigvalsh(diagonal_family_matrix(N, 1.0 / (N - 1) + 0.05)).min() < 0


def test_positivity_verdict_tol_handling():
    seq = positivity_verdict(np.array([1.0, 1e-12, -1e-12]))
    assert seq.verdict is Verdict.BOUNDARY
    seq = positivity_verdict(np.array([1.0, 0.2, -1e-3]))
    assert seq.verdict is Verdict.NOT_PSD


def test_positivity_verdict_rejects_non_finite_input():
    for S in ([np.nan, 0.1], [1.0, np.inf], [0.5, 0.06, -np.inf]):
        with pytest.raises(DomainError):
            positivity_verdict(np.array(S))
    for tol in (np.nan, np.inf, -1e-9):
        with pytest.raises(DomainError):
            positivity_verdict(np.array([1.0, 0.2]), tol=tol)
    with pytest.raises(DomainError):
        check_positivity(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def spectral_error_bound(mat):
    """b_k = 64 N u (N - k + 1) ||A||_2 e_(k-1)(|lambda|), k = 1..N: the
    first-order error of e_k(lambda) when each eigenvalue is off by a
    backward-stable O(N u ||A||_2).  It also covers the rounding of Vieta's
    recurrence, about k u e_k(|lambda|), since k e_k(|lambda|) <=
    (N - k + 1) ||A||_2 e_(k-1)(|lambda|)."""
    eigs = np.abs(np.linalg.eigvalsh(mat))
    N = eigs.size
    lower = np.concatenate([[1.0], esp_oracle(eigs)[:-1]])  # e_0..e_(N-1) of |lambda|
    return 64 * N * 2.0**-53 * (N - np.arange(N)) * eigs.max() * lower


def hermitian(mat):
    """The exactly Hermitian part (A + A^dag) / 2 of a float matrix, so that
    the reference sees the matrix whose lower triangle LAPACK reads."""
    return (mat + mat.conj().T) / 2


@pytest.mark.parametrize("dim", [2, 3, 4, 9, 16])
def test_symmetric_functions_match_the_mp_reference(dim):
    rng = np.random.default_rng(100 + dim)
    for _ in range(2):
        pair = np.append(rng.uniform(0.1, 1.0, dim - 2), [1e-6, -1e-6])
        for mat in (random_density_matrix(dim, rng),
                    random_density_matrix(dim, rng, rank=dim - 1),
                    rotated_spectrum(pair, rng)):
            mat = hermitian(mat)
            want = np.array([float(s) for s in mp_symmetric_functions(mat)])
            assert np.all(np.abs(symmetric_functions(mat) - want) <= spectral_error_bound(mat))


@pytest.mark.parametrize("dim", range(1, 9))
def test_symmetric_functions_of_random_operators_match_the_mp_reference(dim):
    # PSD and indefinite Hermitian operators, from N = 1 on
    rng = np.random.default_rng(100 + dim)
    for mat in (random_density_matrix(dim, rng), random_hermitian_trace_one(dim, rng)):
        mat = hermitian(mat)
        want = np.array([float(s) for s in mp_symmetric_functions(mat)])
        assert np.all(np.abs(symmetric_functions(mat) - want) <= spectral_error_bound(mat))


def test_newton_breaks_the_spectral_error_bound_at_n16():
    rng = np.random.default_rng(16)
    mat = hermitian(random_density_matrix(16, rng, rank=15))
    want = np.array([float(s) for s in mp_symmetric_functions(mat)])
    newton = reference_newton_symmetric_functions(reference_matrix_trace_powers(mat, 16))
    assert np.any(np.abs(newton - want) > spectral_error_bound(mat))


def eigenvalue_verdict(mat):
    eigs = np.linalg.eigvalsh(mat)
    if eigs.min() < -1e-9:
        verdict = Verdict.NOT_PSD
    elif np.abs(eigs).min() <= 1e-9:
        verdict = Verdict.BOUNDARY
    else:
        verdict = Verdict.PSD
    return verdict, int(np.sum(eigs > 1e-9))


def hard_states(dim, rng, count):
    """Full-rank, rank N-1 and indefinite trace-one operators, ``count`` each;
    the indefinite ones have one eigenvalue at -5% of the mean."""
    states = []
    for _ in range(count):
        states.append(random_density_matrix(dim, rng))
        states.append(random_density_matrix(dim, rng, rank=dim - 1))
        eigs, vecs = np.linalg.eigh(random_density_matrix(dim, rng))
        eigs[0] = -0.05 / dim
        mat = (vecs * eigs) @ vecs.conj().T
        states.append(mat / np.trace(mat).real)
    return states


@pytest.mark.parametrize("layout", [(9,), (12,), (2, 2, 2, 2), (24,)])
def test_coherence_gate_matches_eigenvalues_at_large_dim(layout):
    if len(layout) == 1:
        basis = build_gellmann_basis(layout[0])
    else:
        basis = build_product_basis(layout)
    rng = np.random.default_rng(sum(layout))
    for mat in hard_states(basis.dim, rng, 4):
        seq = check_positivity_coherence(to_coherence(mat, basis), basis)
        assert (seq.verdict, seq.sign_changes) == eigenvalue_verdict(mat)


def test_newton_route_fails_where_the_coherence_gate_holds():
    basis = build_gellmann_basis(24)
    states = hard_states(24, np.random.default_rng(24), 4)
    newton_wrong = 0
    for mat in states:
        want = eigenvalue_verdict(mat)
        seq = check_positivity_coherence(to_coherence(mat, basis), basis)
        assert (seq.verdict, seq.sign_changes) == want
        newton = positivity_verdict(
            reference_newton_symmetric_functions(reference_matrix_trace_powers(mat, 24)))
        newton_wrong += (newton.verdict, newton.sign_changes) != want
    assert newton_wrong > 0


@pytest.mark.parametrize("N", [12, 16, 24, 32, 48, 64])
def test_matrix_gate_matches_eigenvalues_at_large_dim(N):
    # Newton's identities called 2 to 33 of these 40 states NotPSD from N = 16 on
    rng = np.random.default_rng(7)
    for trial in range(40):
        mat = random_density_matrix(N, rng, rank=N - 1 if trial % 2 else None)
        seq = check_positivity(mat)
        assert (seq.verdict, seq.sign_changes) == eigenvalue_verdict(mat)


def test_matrix_gate_reads_the_maximally_mixed_state_at_every_size():
    # Newton's S_k of I/N lost their sign at N = 55, 57, 59, 61, 62 and 63
    for N in range(2, 65):
        seq = check_positivity(np.eye(N) / N)
        assert (seq.verdict, seq.sign_changes) == (Verdict.PSD, N)


@pytest.mark.parametrize("N", [2.5, 3.0, "4"])
def test_inversion_bound_check_refuses_non_integer_dimensions(N):
    from blochvec import DimensionError

    with pytest.raises(DimensionError):
        inversion_bound_check(0.0, 1.0, N)


def test_gates_admit_operators_at_the_size_limit():
    from blochvec.su_basis import MAX_BASIS_DIM

    assert MAX_BASIS_DIM == 64
    mixed = np.eye(64) / 64
    assert check_positivity(mixed).verdict is Verdict.PSD


@pytest.mark.parametrize("gate", [check_positivity, symmetric_functions])
def test_gates_refuse_operators_above_the_size_limit(gate):
    import tracemalloc

    from blochvec import DimensionError

    mixed = np.eye(65, dtype=complex) / 65
    tracemalloc.start()
    try:
        with pytest.raises(DimensionError, match="up to N = 64"):
            gate(mixed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < mixed.nbytes  # refused before a single copy of the matrix


@pytest.mark.parametrize("dim", [0, 1, 2.5, True, np.float64(2.0)],
                         ids=["zero", "one", "float", "bool", "numpy-float"])
def test_dimension_inputs_are_checked(dim):
    with pytest.raises(DimensionError):
        diagonal_family_matrix(dim, 0.1)
    k = max(int(dim) ** 2 - 1, 0)  # shapes that fit, so only dim is at fault
    with pytest.raises(DimensionError):
        AffineMap(dim=dim, T=np.zeros((k, k)), t=np.zeros(k))


def basis_of(layout):
    return build_gellmann_basis(layout[0]) if len(layout) == 1 else build_product_basis(layout)


def rotated_spectrum(spectrum, rng):
    u = random_unitary(len(spectrum), rng)
    return (u * spectrum) @ u.conj().T


def boundary_spectrum(weights, second):
    """A trace-one spectrum: ``weights`` scaled to 1 - second, then
    ``second`` and an exact zero."""
    return np.append(weights * ((1.0 - second) / weights.sum()), [second, 0.0])


@pytest.fixture
def fallback_calls(monkeypatch):
    """The matrix size of each call of :func:`symmetric_functions`: in a
    coherence gate, of each fallback to the spectrum of the rebuilt rho."""
    import blochvec.positivity as positivity

    calls = []
    route = positivity.symmetric_functions

    def counted(mat):
        calls.append(mat.shape[0])
        return route(mat)

    monkeypatch.setattr(positivity, "symmetric_functions", counted)
    return calls


OPPOSITE_SIGN_PAIRS = [((1.0, 1e-6, -1e-6), route) for route in ("matrix", (3,))]
OPPOSITE_SIGN_PAIRS += [((0.6, 0.4, 1e-6, -1e-6), route) for route in ("matrix", (4,), (2, 2))]
PAIR_IDS = [f"N{len(spectrum)}-" + (route if isinstance(route, str)
                                    else "coherence-" + "x".join(map(str, route)))
            for spectrum, route in OPPOSITE_SIGN_PAIRS]


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the pair's -e^2 in S_(r+2) passes the first-level cut tol |S_r|, "
                          "so the pair reads Boundary")
@pytest.mark.parametrize("spectrum, route", OPPOSITE_SIGN_PAIRS, ids=PAIR_IDS)
def test_an_opposite_sign_pair_reads_not_psd(spectrum, route):
    mat = np.diag(spectrum).astype(complex)
    if route == "matrix":
        seq = check_positivity(mat)
    else:
        basis = basis_of(route)
        seq = check_positivity_coherence(to_coherence(mat, basis), basis)
    assert seq.verdict is Verdict.NOT_PSD


@pytest.mark.parametrize("layout", [(3,), (4,), (2, 2), (6,), (8,), (9,), (2, 2, 2)], ids=str)
def test_closed_gate_guard_holds_next_to_an_exact_zero(layout):
    # an exact zero beside a second small eigenvalue: the unguarded closed
    # S_k give wrong verdicts here (dozens per hundred states at 1e-8)
    basis = basis_of(layout)
    N = basis.dim
    rng = np.random.default_rng(17)
    wrong = []
    for second in (1e-4, 1e-6, 1e-8):
        for _ in range(100):
            weights = rng.uniform(1e-3, 1.0, N - 2)
            spectrum = np.concatenate([weights * ((1.0 - second) / weights.sum()), [second, 0.0]])
            rho = rotated_spectrum(spectrum, rng)
            seq = check_positivity_coherence(to_coherence(rho, basis), basis)
            if (seq.verdict, seq.sign_changes) != eigenvalue_verdict(rho):
                wrong.append((second, seq.verdict, seq.sign_changes))
    assert wrong == []


@pytest.mark.parametrize("layout", [(2,), (3,), (4,), (2, 2), (6,), (9,), (2, 2, 2)], ids=str)
def test_closed_gate_decides_separated_spectra_alone(layout, fallback_calls):
    basis = basis_of(layout)
    rng = np.random.default_rng(4)
    for _ in range(5):
        rho = random_density_matrix(basis.dim, rng)
        state = to_coherence(rho, basis)
        seq = check_positivity_coherence(state, basis)
        assert (seq.verdict, seq.sign_changes) == eigenvalue_verdict(rho)
        # S_5.. continue S_2..S_4 by Newton's identities on the closed traces
        assert seq.S[0] == 1.0 and tuple(seq.S[1:4]) == closed_S234(state, basis)[:basis.dim - 1]
    assert fallback_calls == []


def test_closed_gate_falls_back_inside_its_rounding_error(fallback_calls):
    # an exact zero beside 1e-8: at N = 3 and 8 only S_N is in doubt, and the
    # determinant places it; the N = 9 spectrum leaves S_(N-1) in doubt too
    for dim in (3, 8):
        basis = build_gellmann_basis(dim)
        rho = rotated_spectrum(boundary_spectrum(np.arange(1.0, dim - 1), 1e-8),
                               np.random.default_rng(2))
        seq = check_positivity_coherence(to_coherence(rho, basis), basis)
        assert (seq.verdict, seq.sign_changes) == (Verdict.BOUNDARY, dim - 1)
    assert fallback_calls == []
    rng = np.random.default_rng(25)
    rho = rotated_spectrum(boundary_spectrum(rng.uniform(1e-3, 1.0, 7), 1e-8), rng)
    for basis in (build_gellmann_basis(9), build_product_basis((3, 3))):
        seq = check_positivity_coherence(to_coherence(rho, basis), basis)
        assert (seq.verdict, seq.sign_changes) == (Verdict.BOUNDARY, 8)
    assert fallback_calls == [9, 9]


@pytest.fixture
def rebuilds(monkeypatch):
    """One entry per density matrix the coherence gate rebuilds: for the
    determinant of a lone ambiguous S_N or for the spectrum."""
    import blochvec.positivity as positivity

    calls = []
    rebuild = positivity.from_coherence

    def counted(state, basis):
        calls.append(state.dim)
        return rebuild(state, basis)

    monkeypatch.setattr(positivity, "from_coherence", counted)
    return calls


DETERMINANT_LAYOUTS = [(3,), (8,), (9,), (2, 2, 2), (3, 3)]


@pytest.mark.parametrize("layout", DETERMINANT_LAYOUTS, ids=str)
def test_closed_gate_places_a_lone_ambiguous_determinant(layout, fallback_calls, rebuilds):
    basis = basis_of(layout)
    N = basis.dim
    rng = np.random.default_rng(5)
    cells = [(second, rotated_spectrum(boundary_spectrum(np.arange(1.0, N - 1), second), rng))
             for second in (1e-2, 1e-4, 1e-6, 1e-8) for _ in range(4)]
    cells += [("rank N-1", random_density_matrix(N, rng, rank=N - 1)) for _ in range(4)]
    matrix_route = [check_positivity(rho) for _, rho in cells]
    fallback_calls.clear()  # count the coherence gate's calls only
    for (cell, rho), matrix in zip(cells, matrix_route):
        state = to_coherence(rho, basis)
        rebuilds.clear()
        seq = check_positivity_coherence(state, basis)
        want = eigenvalue_verdict(rho)
        assert (seq.verdict, seq.sign_changes) == want == (matrix.verdict, matrix.sign_changes)
        if rebuilds:  # S_N alone was in doubt: it is the LU determinant of the rebuilt rho
            assert seq.S[-1] == np.linalg.det(from_coherence(state, basis)).real
        else:
            assert cell != 1e-8  # Newton's S_N never resolves an exact zero beside 1e-8
    assert fallback_calls == []


@pytest.mark.parametrize("layout", DETERMINANT_LAYOUTS[1:], ids=str)
def test_closed_gate_hands_an_ambiguous_determinant_to_the_spectrum(layout, fallback_calls,
                                                                    rebuilds):
    # a smallest eigenvalue at the band: S_N = det rho sits on its cut
    basis = basis_of(layout)
    N = basis.dim
    weights = np.arange(1.0, N)
    spectrum = np.append(weights * ((1.0 - EPS_POS) / weights.sum()), EPS_POS)
    state = to_coherence(rotated_spectrum(spectrum, np.random.default_rng(N)), basis)
    seq = check_positivity_coherence(state, basis)
    assert fallback_calls == [N]
    assert rebuilds == [N]  # one rho for the determinant and the spectrum
    want = check_positivity(from_coherence(state, basis))
    assert (seq.verdict, seq.sign_changes) == (want.verdict, want.sign_changes)


def test_closed_gate_skips_the_determinant_after_a_negative_coefficient(fallback_calls,
                                                                        rebuilds):
    # eigenvalues -1e-2 and exactly 0: S_(N-1) < 0 is decided, S_N = 0 is not
    basis = build_gellmann_basis(9)
    rho = rotated_spectrum(boundary_spectrum(np.arange(1.0, 8), -1e-2), np.random.default_rng(3))
    seq = check_positivity_coherence(to_coherence(rho, basis), basis)
    assert (seq.verdict, seq.sign_changes) == eigenvalue_verdict(rho)
    assert seq.verdict is Verdict.NOT_PSD
    assert fallback_calls == [9] and rebuilds == [9]  # no determinant before the spectrum


def test_closed_gate_skips_the_determinant_after_a_negligible_coefficient(
        monkeypatch, fallback_calls, rebuilds):
    # a negligible S_2 leaves the band at 1e-9 for S_3, so S_3 = 1e-9 is in
    # doubt; no natural spectrum gets there, so the report is altered
    import dataclasses

    import blochvec.positivity as positivity

    basis = build_gellmann_basis(3)
    state = to_coherence(rotated_spectrum(np.array([0.6, 0.3, 0.1]), np.random.default_rng(1)),
                         basis)
    report = dataclasses.replace(positivity.closed_invariants(state, basis),
                                 S234=(1e-12, 1e-9, 0.0))
    monkeypatch.setattr(positivity, "closed_invariants", lambda state, basis: report)
    seq = check_positivity_coherence(state, basis)
    assert fallback_calls == [3] and rebuilds == [3]
    assert (seq.verdict, seq.sign_changes) == (Verdict.PSD, 3)


@pytest.mark.parametrize("dim", [3, 6, 10], ids=["closed", "closed-newton", "spectral"])
def test_coherence_gate_honours_tol(dim, fallback_calls):
    from blochvec.errors import MAX_TOL

    basis = build_gellmann_basis(dim)
    # one eigenvalue 1e-5 of the spectrum's scale: positive at the default
    # band, negligible at MAX_TOL
    spectrum = np.append(np.full(dim - 1, 1.0 / (dim - 1)), 1e-5)
    state = to_coherence(rotated_spectrum(spectrum / spectrum.sum(), np.random.default_rng(dim)),
                         basis)
    assert check_positivity_coherence(state, basis).verdict is Verdict.PSD
    seq = check_positivity_coherence(state, basis, tol=MAX_TOL)
    assert (seq.verdict, seq.sign_changes) == (Verdict.BOUNDARY, dim - 1)
    assert len(fallback_calls) == (0 if dim <= MAX_CLOSED_ORDER else 2)
    for tol in (np.nextafter(MAX_TOL, 1.0), 0.5, np.nan, -1e-12):
        with pytest.raises(DomainError):
            check_positivity_coherence(state, basis, tol=tol)


def test_closed_gate_reads_the_maximally_mixed_state(fallback_calls):
    for dim in range(2, MAX_CLOSED_ORDER + 1):
        basis = build_gellmann_basis(dim)
        seq = check_positivity_coherence(CoherenceState(dim=dim, n=np.zeros(dim**2 - 1)), basis)
        assert (seq.verdict, seq.sign_changes) == (Verdict.PSD, dim)
    assert fallback_calls == []


def test_coherence_gate_falls_back_when_the_closed_report_overflows(fallback_calls):
    # |n| = 1e40 overflows (n.n)^4 in the closed report; the spectrum decides
    for dim in (3, 5):
        n = np.zeros(dim**2 - 1)
        n[0] = 1e40
        seq = check_positivity_coherence(CoherenceState(dim=dim, n=n), build_gellmann_basis(dim))
        assert seq.verdict is Verdict.NOT_PSD
    assert fallback_calls == [3, 5]


@pytest.mark.parametrize("n1", [
    1e80,
    pytest.param(1e160, marks=pytest.mark.xfail(
        strict=True, raises=(DomainError, RuntimeWarning),
        reason="n.n overflows in the closed report, and S_2 = e_2 of the eigenvalues "
               "+-5.8e159 overflows although rho is finite")),
], ids=["1e80", "1e160"])
def test_a_long_finite_coherence_vector_reads_not_psd(n1):
    # rho has the eigenvalues 1/3 and +-n1/sqrt(3): +-5.8e159 at n1 = 1e160
    n = np.zeros(8)
    n[0] = n1
    seq = check_positivity_coherence(CoherenceState(dim=3, n=n), build_gellmann_basis(3))
    assert seq.verdict is Verdict.NOT_PSD
