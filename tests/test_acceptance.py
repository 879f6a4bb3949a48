"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion with the measured extremes.
"""

import itertools
import time

import numpy as np
import pytest

from blochvec import (
    CompositeLayout,
    Verdict,
    build_gellmann_basis,
    build_product_basis,
    check_positivity,
    check_positivity_coherence,
    casimirs,
    closed_invariants,
    ckw_inequality_check,
    correlation_det,
    extract_correlation,
    from_coherence,
    gellmann_tensors,
    inversion_bound_check,
    local_invariant_cubic,
    local_invariant_quadratic,
    mutual_angle,
    partial_transpose,
    schmidt_trace_relation,
    star,
    structure_constants,
    symmetric_functions,
    three_tangle,
    to_coherence,
    trace_power_closed,
    universal_inversion_matrix,
    werner_state,
    werner_symfns,
)
from blochvec.positivity import matrix_trace_powers

from conftest import (
    EXAMPLE_3X3,
    dense_tensors,
    haar_state,
    random_density_matrix,
    random_hermitian_trace_one,
    random_unitary,
    tangle_oracle,
)


def report(num, text):
    print(f"[criterion {num:2d}] PASS  {text}")


def test_criterion_01_positivity_theorem_equivalence():
    t0 = time.perf_counter()
    disagreements = 0
    count_errors = 0
    total = 0
    for dim in range(2, 7):
        rng = np.random.default_rng(1000 + dim)
        for trial in range(500):
            mat = (random_density_matrix(dim, rng) if trial % 2 == 0
                   else random_hermitian_trace_one(dim, rng))
            seq = check_positivity(mat)
            eigs = np.linalg.eigvalsh(mat)
            disagreements += int(seq.is_psd != (eigs.min() >= -1e-9))
            count_errors += int(seq.sign_changes != int(np.sum(eigs > 1e-9)))
            total += 1
    elapsed = time.perf_counter() - t0
    assert disagreements == 0
    assert count_errors == 0
    assert elapsed < 10.0
    report(1, f"{total} matrices, 0 disagreements, {elapsed:.2f}s")


def test_criterion_02_closed_trace_powers():
    t0 = time.perf_counter()
    worst_closed = 0.0
    worst_adjoint = 0.0
    for dim in range(2, 7):
        rng = np.random.default_rng(2000 + dim)
        basis = build_gellmann_basis(dim)
        tensors = gellmann_tensors(dim)
        for _ in range(100):
            rho = random_density_matrix(dim, rng)
            state = to_coherence(rho, basis)
            eigs = np.linalg.eigvalsh(rho)
            for m in range(2, 10):
                oracle = float(np.sum(eigs**m))
                closed = trace_power_closed(state, m, tensors)
                adjoint = matrix_trace_powers(from_coherence(state, basis), m)[m - 1]
                worst_closed = max(worst_closed, abs(closed - oracle))
                worst_adjoint = max(worst_adjoint, abs(closed - adjoint))
    elapsed = time.perf_counter() - t0
    assert worst_closed <= 1e-9
    assert worst_adjoint <= 1e-9
    assert elapsed < 30.0
    report(2, f"max |closed-eig| {worst_closed:.1e}, "
              f"max |closed-adjoint| {worst_adjoint:.1e}, {elapsed:.2f}s")


def test_criterion_03_pure_state_conditions():
    worst_norm = worst_star = worst_s = 0.0
    for dim in range(3, 7):
        rng = np.random.default_rng(3000 + dim)
        basis = build_gellmann_basis(dim)
        tensors = gellmann_tensors(dim)
        for _ in range(200):
            psi = haar_state(dim, rng)
            state = to_coherence(np.outer(psi, psi.conj()), basis)
            worst_norm = max(worst_norm, abs(state.norm_squared - 1.0))
            worst_star = max(worst_star,
                             np.abs(star(state.n, state.n, tensors) - state.n).max())
            seq = check_positivity_coherence(state, tensors)
            worst_s = max(worst_s, np.abs(seq.S[1:]).max())
    assert worst_norm <= 1e-9
    assert worst_star <= 1e-9
    assert worst_s <= 1e-9
    report(3, f"max |n.n-1| {worst_norm:.1e}, max |n*n-n| {worst_star:.1e}, "
              f"max S_k {worst_s:.1e}")


def test_criterion_04_orthogonality_angle():
    worst = 0.0
    for dim in range(2, 7):
        rng = np.random.default_rng(4000 + dim)
        basis = build_gellmann_basis(dim)
        for _ in range(100):
            u = random_unitary(dim, rng)
            s1 = to_coherence(np.outer(u[:, 0], u[:, 0].conj()), basis)
            s2 = to_coherence(np.outer(u[:, 1], u[:, 1].conj()), basis)
            worst = max(worst, abs(s1.n @ s2.n + 1.0 / (dim - 1)))
            if dim == 2:
                assert mutual_angle(s1, s2) == pytest.approx(np.pi, abs=1e-7)
                assert s1.n @ s2.n == pytest.approx(-1.0, abs=1e-9)
    assert worst <= 1e-9
    report(4, f"max |n1.n2 + 1/(N-1)| {worst:.1e}; qubit pairs antipodal")


def test_criterion_05_werner_case_study():
    layout = CompositeLayout(dims=(2, 2))
    worst = 0.0
    for x in np.arange(0.0, 1.0 + 1e-12, 0.05):
        S = symmetric_functions(werner_state(x))
        S_pt = symmetric_functions(partial_transpose(werner_state(x), layout, 0))
        s3, s4 = werner_symfns(x, transposed=False)
        s3t, s4t = werner_symfns(x, transposed=True)
        worst = max(worst, abs(S[2] - s3), abs(S[3] - s4),
                    abs(S_pt[2] - s3t), abs(S_pt[3] - s4t))
    assert worst <= 1e-10

    # bisection on S4 of the partial transpose
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = (lo + hi) / 2
        s4t = symmetric_functions(partial_transpose(werner_state(mid), layout, 0))[3]
        lo, hi = (mid, hi) if s4t > 0 else (lo, mid)
    boundary = (lo + hi) / 2
    assert boundary == pytest.approx(1 / 3, abs=1e-6)

    for x in (0.36, 0.45):
        s3t, s4t = werner_symfns(x, transposed=True)
        assert s4t < 0 < s3t
    for x in (0.55, 0.8, 1.0):
        s3t, s4t = werner_symfns(x, transposed=True)
        assert s4t < 0 and s3t < 0
    for x in (0.36, 0.5, 0.75, 1.0):
        pt = partial_transpose(werner_state(x), layout, 0)
        seq = check_positivity(pt)
        assert seq.verdict is Verdict.NOT_PSD and seq.sign_changes == 3
        assert int(np.sum(np.linalg.eigvalsh(pt) < -1e-9)) == 1
    report(5, f"polynomials to {worst:.1e}, boundary {boundary:.8f}, "
              "signs and eigenvalue counts as stated")


def test_criterion_06_inverter_bound():
    mismatches = eig_mismatches = 0
    points = 0
    for N in (3, 4):
        for a in np.arange(-1.0, 1.0 / (N - 1) + 1e-9, 0.01):
            closed_boundary = max(a, (1 - N) * a)
            for b in np.arange(0.0, N + 1e-9, 0.01):
                gate = inversion_bound_check(a, b, N)
                closed = b >= closed_boundary - 1e-9
                mismatches += int(gate != closed)
                if points % 53 == 0:  # periodic eigenvalue spot check
                    diag = np.full(N, (b - a) / N)
                    diag[-1] = (b + (N - 1) * a) / N
                    eig_mismatches += int(gate != (diag.min() >= -1e-9))
                points += 1
    assert mismatches == 0
    assert eig_mismatches == 0

    basis = build_gellmann_basis(3)
    state = to_coherence(EXAMPLE_3X3, basis)
    assert np.linalg.norm(state.n) == pytest.approx(0.666, abs=1e-3)
    image = universal_inversion_matrix(state, 1.0, basis)
    assert check_positivity(image).verdict is Verdict.NOT_PSD
    report(6, f"{points} grid points agree with the closed inequality; "
              f"|n| = {np.linalg.norm(state.n):.4f}, inversion NotPSD")


def multiplicity_patterns(n):
    """Every ordered tuple of positive integers summing to n."""
    if n == 0:
        yield ()
    for first in range(1, n + 1):
        for rest in multiplicity_patterns(n - first):
            yield (first,) + rest


def patterned_spectrum(pattern, rel_gaps, width):
    """Trace-one spectrum whose distinct values, largest first, repeat by
    ``pattern`` and sit ``rel_gaps`` (fractions of ``width``) apart."""
    values = 1.0 - np.r_[0.0, np.cumsum(rel_gaps)]
    spec = np.repeat(values, pattern)
    return (spec - spec.mean()) * width + 1.0 / spec.size


def gap_layouts(r):
    """Relative gaps between r distinct values: one gap g at each place,
    and for r >= 4 every run of r - 2 adjacent gaps g (a cluster of r - 1
    distinct values), each g down to the resolution of README.md."""
    if r < 2:
        yield ()
        return
    if r == 2:
        yield (1.0,)
        return
    for g in (1e-1, 1e-2, 1e-3, 3e-4):
        for j in range(r - 1):
            gaps = np.full(r - 1, (1.0 - g) / (r - 2))
            gaps[j] = g
            yield tuple(gaps)
    if r >= 4:
        g = 1e-2 if r == 4 else 5e-2
        for j in range(2):
            gaps = np.full(r - 1, g)
            gaps[(r - 2) * j] = 1.0 - (r - 2) * g
            yield tuple(gaps)


def test_criterion_07_degeneracy_diagnostics():
    tensors = gellmann_tensors(3)
    basis = build_gellmann_basis(3)
    rng = np.random.default_rng(7000)
    worst_pair = 0.0
    # the three two-fold-degenerate families, pair larger and pair smaller
    for pair_value, odd_value, pair_larger in [(0.4, 0.2, True), (0.15, 0.7, False)]:
        for positions in itertools.combinations(range(3), 2):
            spec = np.full(3, pair_value)
            spec[[i for i in range(3) if i not in positions]] = odd_value
            u = random_unitary(3, rng)
            rho = u @ np.diag(spec).astype(complex) @ u.conj().T
            state = to_coherence(rho, basis)
            cas = casimirs(state, tensors, up_to=3)
            expected = -cas[2] ** 1.5 if pair_larger else cas[2] ** 1.5
            worst_pair = max(worst_pair, abs(cas[3] - expected))
            pattern = (2, 1) if pair_larger else (1, 2)
            assert closed_invariants(state, tensors).degeneracy() == pattern
    assert worst_pair <= 1e-9

    worst_identity = 0.0
    for _ in range(200):
        spec = rng.dirichlet(np.ones(3))
        cas = casimirs(to_coherence(np.diag(spec).astype(complex), basis),
                       tensors, up_to=3)
        lhs = cas[2] ** 3 - cas[3] ** 2
        rhs = 6.75 * np.prod([(spec[i] - spec[j]) ** 2
                              for i, j in itertools.combinations(range(3), 2)])
        worst_identity = max(worst_identity, abs(lhs - rhs))
    assert worst_identity <= 1e-9

    # every multiplicity pattern at N = 3..5, Haar-rotated, from the
    # closed invariants alone; widths 0.8/N to 1e-6 test the scale-free rule
    wrong, spectra = [], 0
    for dim in (3, 4, 5):
        basis_n, tensors_n = build_gellmann_basis(dim), gellmann_tensors(dim)
        for pattern in multiplicity_patterns(dim):
            for rel_gaps in gap_layouts(len(pattern)):
                for width in (0.8 / dim, 1e-3, 1e-6):
                    spec = patterned_spectrum(pattern, rel_gaps, width)
                    u = random_unitary(dim, rng)
                    rho = u @ np.diag(spec).astype(complex) @ u.conj().T
                    found = closed_invariants(to_coherence(rho, basis_n), tensors_n).degeneracy()
                    spectra += 1
                    if found != pattern:
                        wrong.append((pattern, rel_gaps, width, found))
    assert wrong == []
    report(7, f"degenerate-pair residual {worst_pair:.1e}, "
              f"discriminant identity residual {worst_identity:.1e}, "
              f"{spectra} patterned spectra at N = 3..5 exact")


def test_criterion_08_local_invariants():
    rng = np.random.default_rng(8000)
    layout2 = CompositeLayout(dims=(2, 2))
    worst = 0.0
    for _ in range(200):
        rho = random_density_matrix(4, rng)
        block = extract_correlation(rho, layout2)
        u = np.kron(random_unitary(2, rng), random_unitary(2, rng))
        rot = extract_correlation(u @ rho @ u.conj().T, layout2)
        worst = max(
            worst,
            abs(local_invariant_quadratic(rot) - local_invariant_quadratic(block)),
            abs(correlation_det(rot) - correlation_det(block)),
            abs(rot.nA @ rot.nA - block.nA @ block.nA),
            abs(rot.nB @ rot.nB - block.nB @ block.nB),
        )
    assert worst <= 1e-9

    layout3 = CompositeLayout(dims=(3, 3))
    t3 = gellmann_tensors(3)
    worst_cubic = 0.0
    for _ in range(200):
        rho = random_density_matrix(9, rng)
        block = extract_correlation(rho, layout3)
        value = local_invariant_cubic(block, t3, t3)
        u = np.kron(random_unitary(3, rng), random_unitary(3, rng))
        rot = extract_correlation(u @ rho @ u.conj().T, layout3)
        worst_cubic = max(worst_cubic, abs(local_invariant_cubic(rot, t3, t3) - value))
    assert worst_cubic <= 1e-9
    report(8, f"two-qubit invariants drift {worst:.1e}, "
              f"qutrit cubic drift {worst_cubic:.1e}")


def test_criterion_09_three_tangle():
    ghz = np.zeros(8, dtype=complex)
    ghz[0] = ghz[7] = 1 / np.sqrt(2)
    w = np.zeros(8, dtype=complex)
    w[1] = w[2] = w[4] = 1 / np.sqrt(3)
    assert three_tangle(ghz) == pytest.approx(1.0, abs=1e-8)
    assert three_tangle(w) == pytest.approx(0.0, abs=1e-8)

    rng = np.random.default_rng(9000)
    worst_res = worst_spread = worst_oracle = 0.0
    for _ in range(200):
        psi = haar_state(8, rng)
        worst_res = max(worst_res, *schmidt_trace_relation(psi).residuals)
        worst_oracle = max(worst_oracle, abs(three_tangle(psi) - tangle_oracle(psi)))
    for _ in range(100):
        psi = haar_state(8, rng)
        taus = [three_tangle(psi.reshape(2, 2, 2).transpose(p).reshape(-1))
                for p in itertools.permutations(range(3))]
        worst_spread = max(worst_spread, max(taus) - min(taus))
        assert -1e-12 <= min(taus) and max(taus) <= 1.0 + 1e-9
    ckw_failures = sum(int(not ckw_inequality_check(haar_state(8, rng))[2])
                       for _ in range(500))
    assert worst_res <= 1e-9
    assert worst_spread <= 1e-8
    assert worst_oracle <= 1e-8
    assert ckw_failures == 0
    report(9, f"identity residual {worst_res:.1e}, spread {worst_spread:.1e}, "
              f"oracle gap {worst_oracle:.1e}, 500/500 monogamy holds")


def test_criterion_10_structure_tensors():
    _, d = dense_tensors(structure_constants(build_product_basis((2, 2))))
    listed = {
        (1, 4, 7): 1, (1, 5, 8): 1, (1, 6, 9): 1,
        (2, 4, 10): 1, (2, 5, 11): 1, (2, 6, 12): 1,
        (3, 4, 13): 1, (3, 5, 14): 1, (3, 6, 15): 1,
        (7, 11, 15): -1, (8, 12, 13): -1, (7, 12, 14): 1,
        (9, 10, 14): -1, (8, 10, 15): 1, (9, 11, 13): 1,
    }
    worst_d = max(abs(d[i - 1, j - 1, k - 1] - s / np.sqrt(2))
                  for (i, j, k), s in listed.items())
    assert worst_d <= 1e-12
    i, j, k = np.nonzero(d)
    assert np.count_nonzero((i <= j) & (j <= k)) == 15  # one entry per triple

    worst_recon = 0.0
    for dim in range(2, 7):
        basis = build_gellmann_basis(dim)
        f, d = dense_tensors(gellmann_tensors(dim))
        elems = basis.elements
        prods = np.einsum("iab,jbc->ijac", elems, elems)
        recon = (2.0 / dim) * np.einsum("ij,ab->ijab", np.eye(len(basis)), np.eye(dim)) \
            + np.einsum("ijk,kab->ijab", 1j * f + d, elems)
        worst_recon = max(worst_recon, np.abs(prods - recon).max())
    assert worst_recon <= 1e-10
    report(10, f"15 listed d-components to {worst_d:.1e}, "
               f"product-rule residue {worst_recon:.1e}")
