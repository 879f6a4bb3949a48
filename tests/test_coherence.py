import numpy as np
import pytest

from blochvec import (
    CoherenceState,
    DimensionError,
    DomainError,
    HermiticityError,
    LayoutError,
    NormalizationError,
    StarUndefinedError,
    SU3_STANDARD_TO_GROUPED,
    build_gellmann_basis,
    build_product_basis,
    from_coherence,
    is_pure,
    mutual_angle,
    orthogonal_states,
    star,
    to_coherence,
)

from conftest import haar_state, random_density_matrix, random_unitary

LAM3 = SU3_STANDARD_TO_GROUPED[2]
LAM8 = SU3_STANDARD_TO_GROUPED[7]


def test_maximally_mixed_maps_to_zero():
    for dim in range(2, 7):
        basis = build_gellmann_basis(dim)
        state = to_coherence(np.eye(dim) / dim, basis)
        assert np.abs(state.n).max() < 1e-14


def test_projector_components_n3():
    basis = build_gellmann_basis(3)
    state = to_coherence(np.diag([1.0, 0.0, 0.0]).astype(complex), basis)
    assert state.n[LAM3] == pytest.approx(np.sqrt(3) / 2, abs=1e-12)
    assert state.n[LAM8] == pytest.approx(0.5, abs=1e-12)
    others = np.delete(state.n, [LAM3, LAM8])
    assert np.abs(others).max() < 1e-14
    assert state.norm_squared == pytest.approx(1.0, abs=1e-12)


def test_example_matrix_norm(example_3x3):
    state = to_coherence(example_3x3, build_gellmann_basis(3))
    assert np.linalg.norm(state.n) == pytest.approx(0.666, abs=1e-3)


def test_from_coherence_examples():
    basis = build_gellmann_basis(3)
    zero = CoherenceState(dim=3, n=np.zeros(8))
    np.testing.assert_allclose(from_coherence(zero, basis), np.eye(3) / 3, atol=1e-15)

    n = np.zeros(8)
    n[LAM3] = np.sqrt(3) / 2
    n[LAM8] = 0.5
    np.testing.assert_allclose(
        from_coherence(CoherenceState(dim=3, n=n), basis),
        np.diag([1.0, 0.0, 0.0]), atol=1e-14,
    )

    n = np.zeros(8)
    n[LAM3] = -np.sqrt(3) / 2
    n[LAM8] = 0.5
    np.testing.assert_allclose(
        from_coherence(CoherenceState(dim=3, n=n), basis),
        np.diag([0.0, 1.0, 0.0]), atol=1e-14,
    )

    n = np.zeros(8)
    n[LAM8] = -1.0
    np.testing.assert_allclose(
        from_coherence(CoherenceState(dim=3, n=n), basis),
        np.diag([0.0, 0.0, 1.0]), atol=1e-14,
    )


@pytest.mark.parametrize("dim", range(2, 7))
def test_round_trip(dim):
    rng = np.random.default_rng(100 + dim)
    basis = build_gellmann_basis(dim)
    worst = 0.0
    for _ in range(200):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = (g + g.conj().T) / 2
        h += (1.0 - np.trace(h).real) / dim * np.eye(dim)
        back = from_coherence(to_coherence(h, basis), basis)
        worst = max(worst, np.abs(back - h).max())
    assert worst <= 1e-12


def test_to_coherence_errors():
    basis = build_gellmann_basis(2)
    with pytest.raises(NormalizationError):
        to_coherence(np.eye(2, dtype=complex), basis)  # trace 2
    bad = np.array([[0.5, 1.0], [0.0, 0.5]], dtype=complex)
    with pytest.raises(HermiticityError):
        to_coherence(bad, basis)
    with pytest.raises(LayoutError):
        from_coherence(CoherenceState(dim=2, n=np.zeros(3)), build_gellmann_basis(3))


def test_star_pure_state_is_idempotent():
    basis = build_gellmann_basis(3)
    state = to_coherence(np.diag([1.0, 0.0, 0.0]).astype(complex), basis)
    np.testing.assert_allclose(star(state.n, state.n, basis), state.n, atol=1e-12)


def test_star_zero_and_unit_direction():
    basis = build_gellmann_basis(3)
    zero = np.zeros(8)
    assert np.abs(star(zero, zero, basis)).max() == 0.0
    e3 = np.zeros(8)
    e3[LAM3] = 1.0
    out = star(e3, e3, basis)
    # (e3 * e3)_8 = sqrt(3) d_338 with d_338 = 1/sqrt(3)
    assert out[LAM8] == pytest.approx(1.0, abs=1e-12)


def test_star_commutes():
    rng = np.random.default_rng(5)
    basis = build_gellmann_basis(4)
    for _ in range(20):
        a = rng.normal(size=15)
        b = rng.normal(size=15)
        np.testing.assert_allclose(star(a, b, basis), star(b, a, basis), atol=1e-13)


def test_star_undefined_for_qubits():
    with pytest.raises(StarUndefinedError):
        star(np.zeros(3), np.zeros(3), build_gellmann_basis(2))
    with pytest.raises(LayoutError):
        star(np.zeros(7), np.zeros(8), build_gellmann_basis(3))


def test_is_pure_qubit_norm_only():
    basis = build_gellmann_basis(2)
    up = to_coherence(np.diag([1.0, 0.0]).astype(complex), basis)
    assert is_pure(up, basis)
    assert not is_pure(CoherenceState(dim=2, n=0.5 * up.n), basis)
    # any unit vector is pure for a qubit
    rng = np.random.default_rng(0)
    v = rng.normal(size=3)
    assert is_pure(CoherenceState(dim=2, n=v / np.linalg.norm(v)), basis)


@pytest.mark.parametrize("dim", range(3, 7))
def test_haar_pure_states_satisfy_both_conditions(dim):
    rng = np.random.default_rng(40 + dim)
    basis = build_gellmann_basis(dim)
    for _ in range(50):
        psi = haar_state(dim, rng)
        state = to_coherence(np.outer(psi, psi.conj()), basis)
        assert abs(state.norm_squared - 1.0) <= 1e-9
        assert np.abs(star(state.n, state.n, basis) - state.n).max() <= 1e-9
        assert is_pure(state, basis)


def test_mixed_states_inside_unit_ball():
    rng = np.random.default_rng(11)
    for dim in range(2, 7):
        basis = build_gellmann_basis(dim)
        for _ in range(30):
            state = to_coherence(random_density_matrix(dim, rng), basis)
            assert state.norm_squared <= 1.0 + 1e-9
            assert not is_pure(state, basis)


def test_norm_one_but_not_pure_direction():
    # n along +lambda_8 has unit norm yet n*n = -n; the matrix it builds,
    # diag(2, 2, -1)/3, is indefinite.
    basis = build_gellmann_basis(3)
    n = np.zeros(8)
    n[LAM8] = 1.0
    state = CoherenceState(dim=3, n=n)
    assert abs(state.norm_squared - 1.0) < 1e-15
    assert not is_pure(state, basis)
    mat = from_coherence(state, basis)
    assert np.linalg.eigvalsh(mat).min() < -0.1


def test_mutual_angle_antipodal_qubits():
    basis = build_gellmann_basis(2)
    up = to_coherence(np.diag([1.0, 0.0]).astype(complex), basis)
    down = to_coherence(np.diag([0.0, 1.0]).astype(complex), basis)
    assert mutual_angle(up, down) == pytest.approx(np.pi, abs=1e-12)
    assert orthogonal_states(up, down)


def test_mutual_angle_orthogonal_qutrits():
    basis = build_gellmann_basis(3)
    s1 = to_coherence(np.diag([1.0, 0.0, 0.0]).astype(complex), basis)
    s2 = to_coherence(np.diag([0.0, 1.0, 0.0]).astype(complex), basis)
    assert np.cos(mutual_angle(s1, s2)) == pytest.approx(-0.5, abs=1e-12)
    assert mutual_angle(s1, s1) == pytest.approx(0.0, abs=1e-7)


def test_mutual_angle_zero_vector():
    zero = CoherenceState(dim=2, n=np.zeros(3))
    with pytest.raises(DomainError):
        mutual_angle(zero, zero)


@pytest.mark.parametrize("dim", range(2, 7))
def test_random_orthogonal_pairs(dim):
    rng = np.random.default_rng(60 + dim)
    basis = build_gellmann_basis(dim)
    for _ in range(40):
        u = random_unitary(dim, rng)
        s1 = to_coherence(np.outer(u[:, 0], u[:, 0].conj()), basis)
        s2 = to_coherence(np.outer(u[:, 1], u[:, 1].conj()), basis)
        assert s1.n @ s2.n == pytest.approx(-1.0 / (dim - 1), abs=1e-9)
        assert orthogonal_states(s1, s2)


def test_non_finite_inputs_are_refused():
    from blochvec.coherence import require_hermitian

    with pytest.raises(DomainError):
        CoherenceState(dim=2, n=[np.nan, 0.1, 0.2])
    with pytest.raises(DomainError):
        CoherenceState(dim=2, n=[0.0, np.inf, 0.0])
    bad = [np.array([[np.nan, 0.0], [0.0, 1.0]]),
           np.array([[1.0, np.inf], [np.inf, 0.0]]),
           np.array([[1.0, 0.0], [0.0, complex(0.0, np.inf)]])]
    for mat in bad:
        with pytest.raises(DomainError), np.errstate(invalid="ignore"):
            require_hermitian(mat)


def test_non_finite_entries_raise_domain_error_without_warnings():
    import warnings

    from blochvec.coherence import require_hermitian

    bad = [np.array([[np.inf, 0.0], [0.0, 1.0]]),
           np.array([[1.0, np.inf], [0.0, 1.0]]),
           np.array([[1.0, 0.0], [0.0, np.nan]])]
    for mat in bad:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                require_hermitian(mat)


def test_complex_coherence_vectors_are_refused():
    with pytest.raises(DomainError):
        CoherenceState(dim=2, n=[0.1 + 0.5j, 0.0, 0.0])
    with pytest.raises(DomainError):  # a complex dtype is refused even when real-valued
        CoherenceState(dim=3, n=np.zeros(8, dtype=complex))
    n = np.random.default_rng(8).normal(size=8)
    for dim in (2, 3):  # the qubit chain never expands n, and still refuses it
        with pytest.raises(DomainError):
            build_gellmann_basis(dim).d_chain(n[:dim**2 - 1] + 0.2j)
    assert CoherenceState(dim=3, n=list(n)).n.dtype == float


def test_coherence_state_owns_a_frozen_copy_of_n():
    n = np.zeros(8)
    state = CoherenceState(dim=3, n=n)
    assert n.flags.writeable
    assert not np.shares_memory(n, state.n)
    assert not state.n.flags.writeable
    n[0] = 0.5  # the caller's array stays theirs
    assert state.n[0] == 0.0


@pytest.mark.parametrize("dim", [1, 0, -3, 2.0, 3.5, True, "3", None])
def test_coherence_state_dim_must_be_an_integer_of_at_least_two(dim):
    with pytest.raises(DimensionError):
        CoherenceState(dim=dim, n=np.zeros(3))


def test_coherence_state_stores_a_python_int_dim():
    state = CoherenceState(dim=np.int64(3), n=np.zeros(8))
    assert type(state.dim) is int and state.dim == 3


@pytest.mark.parametrize("layout", [(2,), (3,), (4,), (5,), (6,), (2, 2), (3, 3), (2, 2, 2)])
def test_to_coherence_inverts_from_coherence(layout):
    basis = build_gellmann_basis(layout[0]) if len(layout) == 1 else build_product_basis(layout)
    rng = np.random.default_rng(len(basis))
    for _ in range(20):
        state = CoherenceState(dim=basis.dim, n=rng.normal(size=len(basis)))
        back = to_coherence(from_coherence(state, basis), basis)
        np.testing.assert_allclose(back.n, state.n, rtol=0, atol=1e-14)
