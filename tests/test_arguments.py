"""Tables of refused arguments: every public entry point admits its
integer arguments by ``su_basis.checked_int``, its real scalars by
``checked_float``, its real coefficient arrays and sequences by
``checked_real`` and its complex operands by ``checked_complex``, and
refuses anything else with its own ``BlochvecError`` subclass."""

import dataclasses
import enum

import numpy as np
import pytest

from blochvec import (
    AffineMap,
    BasisSet,
    CoherenceState,
    CompositeLayout,
    CorrelationBlock,
    DimensionError,
    DomainError,
    InconsistentBasisError,
    LayoutError,
    SymFnSequence,
    UnsupportedOrderError,
    Verdict,
    basis_from_json,
    basis_to_json,
    build_gellmann_basis,
    build_product_basis,
    casimir_operator,
    casimirs,
    check_positivity,
    check_positivity_coherence,
    ckw_inequality_check,
    closed_invariants,
    concurrence_squared,
    concurrence_squared_bound,
    diagonal_family_matrix,
    extract_correlation,
    inversion_bound_check,
    newton_symmetric_functions,
    partial_trace,
    partial_transpose,
    partial_transpose_coherence,
    positivity_verdict,
    schmidt_trace_relation,
    spin_flip,
    symmetric_functions,
    tangle_report,
    three_tangle,
    to_coherence,
    trace_power_closed,
    universal_inversion,
    universal_inversion_matrix,
    werner_state,
    werner_symfns,
)
from blochvec.coherence import require_hermitian
from blochvec.documents import parse_matrix_document
from blochvec.errors import EPS_POS
from blochvec.positivity import matrix_trace_powers

TWO_QUBITS = CompositeLayout(dims=(2, 2))
SINGLET_KET = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2)
SINGLET = np.outer(SINGLET_KET, SINGLET_KET).astype(complex)
QUTRIT = build_gellmann_basis(3)
QUTRIT_STATE = to_coherence(np.diag([0.5, 0.3, 0.2]).astype(complex), QUTRIT)


def _plain(value):
    """``value`` with every array turned into its dtype, shape and bytes and
    every record into its fields, so that two results compare with ==."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if dataclasses.is_dataclass(value):
        return tuple(_plain(getattr(value, f.name)) for f in dataclasses.fields(value) if f.init)
    if isinstance(value, (tuple, list)):
        return tuple(map(_plain, value))
    if isinstance(value, dict):
        return tuple((k, _plain(v)) for k, v in sorted(value.items()))
    assert isinstance(value, (bool, int, float, str, enum.Enum)) or value is None, type(value)
    return value


def _labelled_basis(entry):
    """A two-qubit product basis whose first label, (1, 0), is given as
    (entry, 0)."""
    doc = basis_to_json(build_product_basis((2, 2)))
    doc["labels"][0] = [entry, 0]
    return basis_from_json(doc).elements


#: (name, call of one integer argument, a good value, the error for a bad one)
INTEGER_ENTRY_POINTS = [
    ("build_gellmann_basis", lambda v: build_gellmann_basis(v).elements, 3, DimensionError),
    ("CoherenceState-dim", lambda v: CoherenceState(dim=v, n=np.zeros(8)).n, 3, DimensionError),
    ("document-dim",
     lambda v: parse_matrix_document({"dim": v, "coherence": [0.0] * 8}).coherence, 3,
     DimensionError),
    ("diagonal_family_matrix-N", lambda v: diagonal_family_matrix(v, 0.1), 3, DimensionError),
    ("inversion_bound_check-N", lambda v: inversion_bound_check(0.1, 1.0, v), 3, DimensionError),
    ("partial_trace-keep", lambda v: partial_trace(SINGLET, TWO_QUBITS, [v]), 1, LayoutError),
    ("partial_transpose", lambda v: partial_transpose(SINGLET, TWO_QUBITS, v), 1, LayoutError),
    ("partial_transpose_coherence",
     lambda v: partial_transpose_coherence(to_coherence(SINGLET, build_product_basis((2, 2))),
                                           TWO_QUBITS, v).n, 1, LayoutError),
    ("matrix_trace_powers", lambda v: matrix_trace_powers(SINGLET, v), 3, DomainError),
    ("trace_power_closed", lambda v: trace_power_closed(QUTRIT_STATE, v, QUTRIT), 3,
     UnsupportedOrderError),
    ("ClosedInvariants.trace_power",
     lambda v: closed_invariants(QUTRIT_STATE, QUTRIT).trace_power(v), 3, UnsupportedOrderError),
    ("casimirs", lambda v: casimirs(QUTRIT_STATE, QUTRIT, up_to=v).values, 3,
     UnsupportedOrderError),
    ("ClosedInvariants.casimirs",
     lambda v: closed_invariants(QUTRIT_STATE, QUTRIT).casimirs(v).values, 3,
     UnsupportedOrderError),
    ("casimir_operator", lambda v: casimir_operator(v, QUTRIT), 2, UnsupportedOrderError),
    ("basis-label", _labelled_basis, 1, InconsistentBasisError),
]

BAD_INTEGERS = [2.5, 3.0, True, "3", np.float64(3)]


@pytest.mark.parametrize("call, error", [(c, e) for _, c, _, e in INTEGER_ENTRY_POINTS],
                         ids=[name for name, *_ in INTEGER_ENTRY_POINTS])
@pytest.mark.parametrize("value", BAD_INTEGERS,
                         ids=["fraction", "integral-float", "bool", "string", "numpy-float"])
def test_integer_arguments_that_are_not_integers_are_refused(call, error, value):
    with pytest.raises(error):
        call(value)


@pytest.mark.parametrize("call, good", [(c, g) for _, c, g, _ in INTEGER_ENTRY_POINTS],
                         ids=[name for name, *_ in INTEGER_ENTRY_POINTS])
def test_numpy_integers_are_accepted_wherever_python_ints_are(call, good):
    want, got = call(good), call(np.int64(good))
    if isinstance(want, dict):
        assert got == want
    else:
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("keep", [1, np.int64(1), None, 2.5],
                         ids=["int", "numpy-int", "none", "float"])
def test_partial_trace_refuses_a_keep_that_is_not_a_collection(keep):
    with pytest.raises(LayoutError):
        partial_trace(SINGLET, TWO_QUBITS, keep)


#: (name, call of one real array argument, that argument's shape)
ARRAY_ENTRY_POINTS = [
    ("CoherenceState", lambda v: CoherenceState(dim=2, n=v), (3,)),
    ("expand", lambda v: build_gellmann_basis(2).expand(v), (3,)),
    ("d_bilinear", lambda v: QUTRIT.d_bilinear(v, np.ones(8)), (8,)),
    ("d_chain-qubit", lambda v: build_gellmann_basis(2).d_chain(v), (3,)),
    ("d_chain-qutrit", lambda v: QUTRIT.d_chain(v), (8,)),
    ("AffineMap-T", lambda v: AffineMap(dim=2, T=v, t=np.zeros(3)), (3, 3)),
    ("AffineMap-t", lambda v: AffineMap(dim=2, T=np.eye(3), t=v), (3,)),
    ("CorrelationBlock-nA",
     lambda v: CorrelationBlock(layout=TWO_QUBITS, nA=v, nB=np.zeros(3), C=np.eye(3)), (3,)),
    ("CorrelationBlock-nB",
     lambda v: CorrelationBlock(layout=TWO_QUBITS, nA=np.zeros(3), nB=v, C=np.eye(3)), (3,)),
    ("CorrelationBlock-C",
     lambda v: CorrelationBlock(layout=TWO_QUBITS, nA=np.zeros(3), nB=np.zeros(3), C=v), (3, 3)),
    ("CorrelationBlock-qutrit-C",
     lambda v: CorrelationBlock(layout=CompositeLayout(dims=(2, 3)), nA=np.zeros(3),
                                nB=np.zeros(8), C=v), (3, 8)),
]

BAD_ARRAYS = [
    ("complex", lambda shape: np.full(shape, 0.1 + 0.2j), DomainError),
    ("string", lambda shape: np.full(shape, "x").tolist(), DomainError),
    ("number-string", lambda shape: np.full(shape, "0.1").tolist(), DomainError),
    ("ragged", lambda shape: [[0.1], [0.2, 0.3], [0.4]], DomainError),
    ("none", lambda shape: None, DomainError),
    ("none-entries", lambda shape: np.full(shape, None).tolist(), DomainError),
    ("too-long", lambda shape: np.ones(tuple(d + 2 for d in shape)), LayoutError),
    ("extra-axis", lambda shape: np.ones(shape + (1,)), LayoutError),
    ("flattened-qutrit", lambda shape: np.ones((2, 4)), LayoutError),
]


@pytest.mark.parametrize("call, shape", [(c, s) for _, c, s in ARRAY_ENTRY_POINTS],
                         ids=[name for name, *_ in ARRAY_ENTRY_POINTS])
@pytest.mark.parametrize("make, error", [(m, e) for _, m, e in BAD_ARRAYS],
                         ids=[name for name, *_ in BAD_ARRAYS])
def test_real_array_arguments_that_are_not_real_arrays_are_refused(call, shape, make, error):
    with pytest.raises(error):
        call(make(shape))


@pytest.mark.parametrize("call, shape", [(c, s) for _, c, s in ARRAY_ENTRY_POINTS],
                         ids=[name for name, *_ in ARRAY_ENTRY_POINTS])
def test_real_arrays_of_ints_floats_and_lists_give_one_result(call, shape):
    values = np.arange(np.prod(shape)).reshape(shape) % 3 - 1
    want = _plain(call(values.astype(float)))
    for same in (values, values.tolist(), values.astype(np.float32)):
        assert _plain(call(same)) == want


def test_a_correlation_block_is_bipartite_and_owns_frozen_copies():
    with pytest.raises(LayoutError, match="bipartite"):
        CorrelationBlock(layout=CompositeLayout(dims=(2, 2, 2)), nA=np.zeros(3),
                         nB=np.zeros(3), C=np.eye(3))
    C = np.eye(3)
    block = CorrelationBlock(layout=TWO_QUBITS, nA=np.zeros(3), nB=np.zeros(3), C=C)
    assert C.flags.writeable and not block.C.flags.writeable
    C[0, 0] = 5.0
    assert block.C[0, 0] == 1.0


#: (name, call of one 1-D real sequence of any nonempty length)
SEQUENCE_ENTRY_POINTS = [
    ("positivity_verdict", positivity_verdict),
    ("newton_symmetric_functions", newton_symmetric_functions),
    ("SymFnSequence",
     lambda v: SymFnSequence(dim=3, S=v, sign_changes=0, verdict=Verdict.PSD).S),
]

BAD_SEQUENCES = [
    ("string", ["a", "b"], DomainError),
    ("number-string", ["1.0", "0.2"], DomainError),
    ("complex", [1.0 + 0j, 0.2], DomainError),
    ("ragged", [[1.0], [0.2, 0.3]], DomainError),
    ("none", None, DomainError),
    ("none-entries", [None, 0.2], DomainError),
    ("empty", [], LayoutError),
    ("scalar", 1.0, LayoutError),
    ("matrix", [[1.0, 0.2]], LayoutError),
]


@pytest.mark.parametrize("call", [c for _, c in SEQUENCE_ENTRY_POINTS],
                         ids=[name for name, _ in SEQUENCE_ENTRY_POINTS])
@pytest.mark.parametrize("value, error", [(v, e) for _, v, e in BAD_SEQUENCES],
                         ids=[name for name, *_ in BAD_SEQUENCES])
def test_real_sequences_that_are_not_nonempty_vectors_are_refused(call, value, error):
    with pytest.raises(error):
        call(value)


@pytest.mark.parametrize("call", [c for _, c in SEQUENCE_ENTRY_POINTS],
                         ids=[name for name, _ in SEQUENCE_ENTRY_POINTS])
def test_real_sequences_of_ints_floats_and_lists_give_one_result(call):
    want = _plain(call(np.array([3.0, 1.0, -2.0])))
    for same in ([3, 1, -2], [3.0, 1.0, -2.0], np.array([3, 1, -2]), (3.0, 1, -2.0)):
        assert _plain(call(same)) == want


def _set_pairs(length):
    """An edit that gives every (re, im) pair of a basis document ``length``
    entries."""
    def edit(elements):
        for mat in elements:
            for row in mat:
                for i, pair in enumerate(row):
                    row[i] = (pair + [0.0])[:length]
    return edit


#: (name, edit of the element pairs of a qubit basis document, its error)
BAD_BASIS_ELEMENTS = [
    ("string-entry", lambda el: el[0][0].__setitem__(0, ["a", 0.0]), DomainError),
    ("number-string-entry", lambda el: el[0][0].__setitem__(0, ["0.0", 0.0]), DomainError),
    ("none-entry", lambda el: el[0][0].__setitem__(0, [None, 0.0]), DomainError),
    ("complex-entry", lambda el: el[0][0].__setitem__(0, [1j, 0.0]), DomainError),
    ("ragged", lambda el: el[0][0].append([0.0, 0.0]), DomainError),
    ("one-pair-of-three", lambda el: el[0][0][0].append(0.0), DomainError),
    ("pairs-of-three", _set_pairs(3), LayoutError),
    ("pairs-of-one", _set_pairs(1), LayoutError),
    ("too-few-elements", lambda el: el.pop(), LayoutError),
]


@pytest.mark.parametrize("edit, error", [(e, r) for _, e, r in BAD_BASIS_ELEMENTS],
                         ids=[name for name, *_ in BAD_BASIS_ELEMENTS])
def test_basis_documents_with_bad_element_pairs_are_refused(edit, error):
    doc = basis_to_json(build_gellmann_basis(2))
    edit(doc["elements"])
    with pytest.raises(error):
        basis_from_json(doc)


INDEFINITE = np.diag([0.5, 0.75, -0.25])
QUTRIT_SEQ = [1.0, 0.0625, -0.09375]  # the S_k of INDEFINITE

#: (name, call of one real scalar, a good integral value, a good fractional
#: value, a value out of range, the error for a bad one); the verdict bands
#: take None as their default, EPS_POS
SCALAR_ENTRY_POINTS = [
    ("positivity_verdict-tol", lambda v: positivity_verdict(QUTRIT_SEQ, tol=v), 0, 1e-4, 0.5,
     DomainError),
    ("check_positivity-tol", lambda v: check_positivity(INDEFINITE, tol=v), 0, 1e-4, 2e-3,
     DomainError),
    ("check_positivity_coherence-tol",
     lambda v: check_positivity_coherence(QUTRIT_STATE, QUTRIT, tol=v), 0, 1e-4, 1.0,
     DomainError),
    ("werner_state", werner_state, 1, 0.3, 1.5, DomainError),
    ("werner_symfns", lambda v: werner_symfns(v, transposed=True), 0, 0.3, -0.1, DomainError),
    ("universal_inversion", lambda v: universal_inversion(QUTRIT_STATE, v), 2, 0.5, 0.0,
     DomainError),
    ("universal_inversion_matrix", lambda v: universal_inversion_matrix(QUTRIT_STATE, v, QUTRIT),
     2, 0.5, -1.0, DomainError),
    ("diagonal_family_matrix-a", lambda v: diagonal_family_matrix(3, v), 0, 0.25, np.inf,
     DomainError),
    ("inversion_bound_check-a", lambda v: inversion_bound_check(v, 1.0, 3), 0, -0.5, 0.8,
     DomainError),
    ("inversion_bound_check-b", lambda v: inversion_bound_check(0.1, v, 3), 1, 0.5, -np.inf,
     DomainError),
]

BAD_SCALARS = [
    ("string", lambda good, out: str(good)),
    ("complex", lambda good, out: complex(good)),
    ("none", lambda good, out: None),
    ("bool", lambda good, out: True),
    ("two-element-array", lambda good, out: np.array([good, good])),
    ("nan", lambda good, out: np.nan),
    ("numpy-nan", lambda good, out: np.float64("nan")),
    ("out-of-range", lambda good, out: out),
    ("huge-int", lambda good, out: 10**400),
]


@pytest.mark.parametrize("name, call, good, out, error",
                         [(n, c, g, o, e) for n, c, _, g, o, e in SCALAR_ENTRY_POINTS],
                         ids=[name for name, *_ in SCALAR_ENTRY_POINTS])
@pytest.mark.parametrize("make", [m for _, m in BAD_SCALARS],
                         ids=[name for name, _ in BAD_SCALARS])
def test_real_scalars_that_are_not_finite_reals_in_range_are_refused(name, call, good, out,
                                                                      error, make):
    value = make(good, out)
    if value is None and name.endswith("-tol"):
        assert _plain(call(None)) == _plain(call(EPS_POS))  # None is the default band
        return
    with pytest.raises(error):
        call(value)


@pytest.mark.parametrize("call, whole, good", [(c, w, g) for _, c, w, g, *_ in SCALAR_ENTRY_POINTS],
                         ids=[name for name, *_ in SCALAR_ENTRY_POINTS])
def test_python_and_numpy_reals_give_one_result(call, whole, good):
    want = _plain(call(float(whole)))
    for same in (whole, np.int64(whole), np.float64(whole), np.float32(whole)):
        assert _plain(call(same)) == want
    assert _plain(call(np.float64(good))) == _plain(call(good))


GHZ = np.zeros(8, dtype=complex)
GHZ[[0, 7]] = 1.0 / np.sqrt(2.0)
PAULI = build_gellmann_basis(2).elements

#: (name, call of one complex operand, a good operand)
OPERAND_ENTRY_POINTS = [
    ("require_hermitian", require_hermitian, SINGLET),
    ("check_positivity", check_positivity, SINGLET),
    ("symmetric_functions", symmetric_functions, SINGLET),
    ("to_coherence", lambda v: to_coherence(v, build_product_basis((2, 2))), SINGLET),
    ("extract_correlation", lambda v: extract_correlation(v, TWO_QUBITS), SINGLET),
    ("concurrence_squared", concurrence_squared, SINGLET),
    ("concurrence_squared_bound", concurrence_squared_bound, SINGLET),
    ("matrix_trace_powers", lambda v: matrix_trace_powers(v, 4), SINGLET),
    ("CompositeLayout.check_matrix", TWO_QUBITS.check_matrix, SINGLET),
    ("partial_trace", lambda v: partial_trace(v, TWO_QUBITS, [0]), SINGLET),
    ("partial_transpose", lambda v: partial_transpose(v, TWO_QUBITS, 1), SINGLET),
    ("spin_flip", spin_flip, SINGLET),
    ("BasisSet-elements", lambda v: BasisSet(dim=2, elements=v), PAULI),
    ("overlaps", QUTRIT.overlaps, np.diag([0.5, 0.3, 0.2]).astype(complex)),
    ("three_tangle", three_tangle, GHZ),
    ("tangle_report", tangle_report, GHZ),
    ("ckw_inequality_check", ckw_inequality_check, GHZ),
    ("schmidt_trace_relation", schmidt_trace_relation, GHZ),
]


def _with_entry(good, entry):
    bad = np.array(good, dtype=complex)
    bad.reshape(-1)[-1] = entry
    return bad


BAD_OPERANDS = [
    ("string", lambda good: np.full(good.shape, "x").tolist(), DomainError),
    ("number-string", lambda good: np.full(good.shape, "0.1").tolist(), DomainError),
    ("ragged", lambda good: [[0.1], [0.2, 0.3]], DomainError),
    ("none", lambda good: None, DomainError),
    ("none-entries", lambda good: np.full(good.shape, None).tolist(), DomainError),
    ("wrong-shape", lambda good: np.ones(good.shape[:-1] + (good.shape[-1] + 1,)), LayoutError),
    ("extra-axis", lambda good: np.ones(good.shape + (1,)), LayoutError),
    ("nan-entry", lambda good: _with_entry(good, np.nan), DomainError),
    ("inf-entry", lambda good: _with_entry(good, np.inf), DomainError),
    ("complex-nan-entry", lambda good: _with_entry(good, complex(0.0, np.nan)), DomainError),
]


@pytest.mark.parametrize("call, good", [(c, g) for _, c, g in OPERAND_ENTRY_POINTS],
                         ids=[name for name, *_ in OPERAND_ENTRY_POINTS])
@pytest.mark.parametrize("make, error", [(m, e) for _, m, e in BAD_OPERANDS],
                         ids=[name for name, *_ in BAD_OPERANDS])
def test_complex_operands_that_are_not_finite_arrays_of_their_shape_are_refused(call, good,
                                                                                 make, error):
    with pytest.raises(error):
        call(make(good))


@pytest.mark.parametrize("call, good", [(c, g) for _, c, g in OPERAND_ENTRY_POINTS],
                         ids=[name for name, *_ in OPERAND_ENTRY_POINTS])
def test_complex_operands_as_lists_or_real_arrays_give_one_result(call, good):
    want = _plain(call(np.array(good, dtype=complex)))
    sames = [np.array(good, dtype=complex).tolist()]
    if not np.iscomplexobj(good) or not good.imag.any():
        sames += [good.real.copy(), good.real.tolist()]
    for same in sames:
        assert _plain(call(same)) == want
