"""One table of refused arguments: every public entry point admits its
integer arguments by ``su_basis.checked_int`` and its real coefficient
arrays by ``su_basis.checked_real``, and refuses anything else with its
own ``BlochvecError`` subclass."""

import numpy as np
import pytest

from blochvec import (
    AffineMap,
    CoherenceState,
    CompositeLayout,
    DimensionError,
    DomainError,
    InconsistentBasisError,
    LayoutError,
    UnsupportedOrderError,
    basis_from_json,
    basis_to_json,
    build_gellmann_basis,
    build_product_basis,
    casimir_operator,
    casimirs,
    closed_invariants,
    diagonal_family_matrix,
    inversion_bound_check,
    partial_trace,
    partial_transpose,
    partial_transpose_coherence,
    to_coherence,
    trace_power_closed,
)
from blochvec.documents import parse_matrix_document
from blochvec.positivity import matrix_trace_powers

TWO_QUBITS = CompositeLayout(dims=(2, 2))
SINGLET_KET = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2)
SINGLET = np.outer(SINGLET_KET, SINGLET_KET).astype(complex)
QUTRIT = build_gellmann_basis(3)
QUTRIT_STATE = to_coherence(np.diag([0.5, 0.3, 0.2]).astype(complex), QUTRIT)


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
    want = call(values.astype(float))
    for same in (values, values.tolist(), values.astype(np.float32)):
        got = call(same)
        for field in ("n", "T", "t"):
            if hasattr(want, field):
                np.testing.assert_array_equal(getattr(got, field), getattr(want, field))
        if not hasattr(want, "dim"):
            np.testing.assert_array_equal(got, want)
