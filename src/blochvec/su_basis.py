"""Orthogonal traceless Hermitian bases for su(N), which also apply their
structure tensors.

Conventions used throughout the package:

* normalization       Tr(lam_i lam_j) = 2 delta_ij
* commutators         [lam_i, lam_j]  = 2i f_ijk lam_k
* anticommutators     {lam_i, lam_j}  = (4/N) delta_ij 1 + 2 d_ijk lam_k

so a product decomposes as

    lam_i lam_j = (2/N) delta_ij 1 + (i f_ijk + d_ijk) lam_k.

``f`` is totally antisymmetric and ``d`` totally symmetric.  With the trace
normalization above the tensors are fixed to

    f_ijk = Tr([lam_i, lam_j] lam_k) / (4i),
    d_ijk = Tr({lam_i, lam_j} lam_k) / 4.

Two basis families are provided: the generalized Gell-Mann matrices for a
single N-level system, grouped as (symmetric off-diagonal, antisymmetric
off-diagonal, diagonal), and scaled tensor products of single-system bases
for composites of qubits and qutrits.  :meth:`BasisSet.expand` (v -> v.lam)
and :meth:`BasisSet.overlaps` (M -> Re Tr(M lam_i)) are the one transform
between coefficient vectors and N x N operators that every module uses.
:class:`BasisSet` is the one basis type: it is validated when it is made,
and its :meth:`~BasisSet.d_bilinear`, :meth:`~BasisSet.f_bilinear` and
:meth:`~BasisSet.d_chain` apply f and d through N x N products.

The package's four argument rules live here as well, one per kind of
argument: :func:`checked_int` (integers), :func:`checked_float` (real
scalars), :func:`checked_real` (real arrays and sequences) and
:func:`checked_complex` (complex operands).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, reduce
from itertools import product as iproduct
from math import inf, isfinite, prod
from typing import Optional

import numpy as np

from .errors import EPS_HERM, DimensionError, DomainError, InconsistentBasisError, LayoutError

#: Index of the physics-standard su(3) Gell-Mann matrix lambda_k (k = 1..8)
#: inside the grouped ordering used here.  E.g. standard lambda_3 =
#: diag(1, -1, 0) is element 6 and standard lambda_8 = diag(1, 1, -2)/sqrt(3)
#: is element 7.
SU3_STANDARD_TO_GROUPED = (0, 3, 6, 1, 4, 2, 5, 7)

#: Largest N a basis is built for (its N^2 - 1 dense N x N elements take
#: 268 MB at N = 64); a larger N raises DimensionError before allocating.
MAX_BASIS_DIM = 64


def checked_int(value, low: int, high: int | None, error: type, what: str) -> int:
    """``value`` as a Python int: the one rule for integer arguments (dims,
    subsystem indices, orders, counts, labels).  Raises ``error`` unless
    ``value`` is an integer, Python or numpy but not a bool, in low..high
    (no upper bound when ``high`` is None)."""
    if type(value) is int or isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        if low <= value and (high is None or value <= high):
            return int(value)
    bound = f">= {low}" if high is None else f"in {low}..{high}"
    raise error(f"{what} must be an integer {bound}, got {value!r}")


def checked_float(value, low: float, high: float, error: type, what: str, *,
                  open_low: bool = False) -> float:
    """``value`` as a Python float: the one rule for real scalars (verdict
    tolerances, mixing parameters, weights).  Raises ``error`` unless
    ``value`` is a real number, Python or numpy but not a bool, finite and
    in [low, high], or in (low, high] when ``open_low``."""
    if type(value) is float or isinstance(value, (int, float, np.integer, np.floating)) \
            and not isinstance(value, bool):
        try:
            x = float(value)  # exact; a float32 compared as it is would cast the bounds
        except OverflowError:  # a Python int beyond the float range
            x = inf
        if (low < x if open_low else low <= x) and x <= high and isfinite(x):
            return x
    raise error(f"{what} must be a finite real number in {'(' if open_low else '['}{low:g}, "
                f"{high:g}], got {value!r}")


def _number_array(v, kinds: str, noun: str, what: str) -> np.ndarray:
    """``v`` as an array whose dtype kind is one of ``kinds``: the entry
    check of :func:`checked_real` and :func:`checked_complex`.  Other
    entries, such as strings or ``None``, and ragged nesting raise
    :class:`DomainError`, which names the entries as ``noun``."""
    try:
        arr = np.asarray(v)
    except ValueError:  # ragged nesting
        raise DomainError(f"{what} must hold {noun} in a regular array") from None
    if arr.dtype.kind not in kinds:
        raise DomainError(f"{what} must hold {noun}, got {arr.dtype} entries")
    return arr


def checked_real(v, shape: tuple[int, ...] | None, what: str) -> np.ndarray:
    """``v`` as a float array of exactly ``shape``, or of any nonempty 1-D
    shape when ``shape`` is None: the one rule for real coefficient arrays
    and sequences.  Entries must be numbers of a bool, integer or float
    dtype: complex entries, and strings, ``None`` or ragged nesting, raise
    :class:`DomainError`; another shape raises :class:`LayoutError`.  A
    float array is returned as it is, not copied."""
    arr = _number_array(v, "biuf", "real numbers", what)
    if shape is None:
        if arr.ndim != 1 or not arr.size:
            raise LayoutError(f"{what} must be a nonempty vector, got shape {arr.shape}")
    elif arr.shape != shape:
        raise LayoutError(f"{what} must have shape {shape}, got shape {arr.shape}")
    return arr if arr.dtype == float else arr.astype(float)


def checked_complex(v, shape: tuple[int, ...] | None, what: str, *,
                    finite: bool = True) -> np.ndarray:
    """``v`` as a complex array of exactly ``shape``, or a nonempty square
    matrix when ``shape`` is None: the one rule for complex operands
    (operators, kets, basis elements).  Entries must be finite numbers of a
    bool, integer, float or complex dtype: strings, ``None``, ragged
    nesting or a NaN or infinite entry raise :class:`DomainError`; another
    shape raises :class:`LayoutError`.  A square matrix is held to
    :data:`MAX_BASIS_DIM` by :func:`admit_dim`, and every shape is checked
    before the array is converted.  A complex array is returned as it is,
    not copied.  ``finite=False`` leaves the finiteness test to the caller
    (:func:`~blochvec.coherence.require_hermitian` reads it off the peak
    entry it needs anyway)."""
    arr = _number_array(v, "biufc", "numbers", what)
    if shape is None:
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or not arr.size:
            raise LayoutError(f"{what} must be a nonempty square matrix, got shape {arr.shape}")
        admit_dim(arr.shape[0])
    elif arr.shape != shape:
        raise LayoutError(f"{what} must have shape {shape}, got shape {arr.shape}")
    if arr.dtype != complex:
        arr = arr.astype(complex)
    if finite and not np.isfinite(arr).all():
        raise DomainError(f"{what} has non-finite entries")
    return arr


def checked_dim(dim) -> int:
    """``dim`` as a Python int; raises :class:`DimensionError` unless it is
    an integer >= 2 by :func:`checked_int`."""
    return checked_int(dim, 2, None, DimensionError, "dimension")


def checked_dims(dims) -> tuple[int, ...]:
    """Subsystem dimensions as a tuple of Python ints, each through
    :func:`checked_dim`; raises :class:`LayoutError` for an empty list."""
    dims = tuple(checked_dim(d) for d in dims)
    if not dims:
        raise LayoutError("subsystem dimension list must not be empty")
    return dims


def admit_dim(dim: int) -> None:
    """Raise :class:`DimensionError` if ``dim`` exceeds :data:`MAX_BASIS_DIM`:
    the one size limit of bases and of the operators that are gated."""
    if dim > MAX_BASIS_DIM:
        raise DimensionError(f"operators and bases are supported up to N = {MAX_BASIS_DIM}, "
                             f"got N = {dim}")


@dataclass(frozen=True, eq=False)
class BasisSet:
    """An ordered family of N^2 - 1 traceless Hermitian matrices with
    Tr(lam_i lam_j) = 2 delta_ij, and the f and d tensors they define.

    ``elements`` has shape (N^2 - 1, N, N).  For product bases ``labels``
    records, per element, the tuple of single-subsystem basis indices
    (0 meaning the identity factor) and ``subsystem_dims`` the factor
    dimensions: both or neither are given, the dimensions multiply to N,
    and there is one label per element, with entry i in 0..d_i^2 - 1 and
    not all 0 (else :class:`InconsistentBasisError`, or
    :class:`LayoutError` for a wrong product or count).  Every instance is
    checked by :meth:`validate` when it is made.  Instances compare and
    hash by identity, so one can key a cache.

    f and d are applied through N x N products instead of being stored.
    For real a and b the product rule gives

        Tr((a.lam)(b.lam) lam_k) / 2 = d(a, b)_k + i f(a, b)_k,

    so each bilinear costs two expansions a.lam, b.lam, one N x N product
    and one projection onto the basis, all O(N^4), through :meth:`expand`
    and :meth:`overlaps`.  The bilinears take real vectors; a complex one
    raises :class:`DomainError`.  No (N^2 - 1)^3 array is ever built, and
    every method is a pure function of its arguments.
    """

    dim: int
    elements: np.ndarray
    labels: Optional[tuple[tuple[int, ...], ...]] = None
    subsystem_dims: Optional[tuple[int, ...]] = None

    _rows: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "dim", checked_dim(self.dim))
        if (self.labels is None) != (self.subsystem_dims is None):
            raise InconsistentBasisError("labels and subsystem_dims must be given together")
        if self.subsystem_dims is not None:
            dims = checked_dims(self.subsystem_dims)
            if prod(dims) != self.dim:
                raise LayoutError(f"subsystem dims {dims} do not multiply to dim {self.dim}")
            object.__setattr__(self, "subsystem_dims", dims)
            object.__setattr__(self, "labels", _checked_labels(self.labels, dims))
        elems = checked_complex(self.elements, (self.dim**2 - 1, self.dim, self.dim),
                                f"basis for dim {self.dim}")
        if elems.flags.writeable or not elems.flags.c_contiguous:
            # a frozen copy: the caller's array stays writable, and its later
            # writes do not reach the basis; a read-only stack (the builders
            # freeze theirs) is kept as it is
            elems = np.array(elems, order="C")
            elems.setflags(write=False)
        object.__setattr__(self, "elements", elems)
        # Row i holds (Re, Im) of element i, interleaved: a view, not a copy.
        # expand and overlaps call np.dot on it rather than @: same BLAS
        # call, less overhead on the small operands of the coherence route.
        object.__setattr__(self, "_rows", elems.view(float).reshape(len(elems), -1))
        self.validate()

    def __len__(self):
        return self.elements.shape[0]

    def expand(self, v: np.ndarray) -> np.ndarray:
        """The N x N operator v.lam of a real vector v of :func:`checked_real`;
        a complex v raises instead of losing its imaginary part."""
        v = checked_real(v, (len(self),), "coefficient vector")
        return np.dot(v, self._rows).view(complex).reshape(self.dim, self.dim)

    def overlaps(self, M: np.ndarray) -> np.ndarray:
        """The vector Re Tr(M lam_i) of any N x N matrix M of
        :func:`checked_complex`: one real dot product, as
        Tr(M lam_i) = sum_ab M_ab conj(lam_i)_ab for Hermitian lam_i."""
        M = np.ascontiguousarray(checked_complex(M, (self.dim, self.dim), "operator"))
        return np.dot(self._rows, M.view(float).reshape(-1))

    def validate(self, tol: float = EPS_HERM) -> None:
        """Raise :class:`InconsistentBasisError` unless all invariants hold.

        Checks hermiticity, tracelessness and pairwise trace orthogonality
        Tr(lam_i lam_j) = 2 delta_ij, each to ``tol``.  For Hermitian
        elements Tr(lam_i lam_j) is the real dot product of rows i and j of
        the (Re, Im) view that :meth:`expand` and :meth:`overlaps` use.
        """
        elems = self.elements
        herm = np.abs(elems - elems.conj().transpose(0, 2, 1)).max()
        if herm > tol:
            raise InconsistentBasisError(f"non-Hermitian basis element (residual {herm:.2e})")
        traces = np.abs(np.einsum("iaa->i", elems)).max()
        if traces > tol:
            raise InconsistentBasisError(f"non-traceless basis element (residual {traces:.2e})")
        gram = np.dot(self._rows, self._rows.T)
        resid = np.abs(gram - 2.0 * np.eye(len(self))).max()
        if resid > tol:
            raise InconsistentBasisError(f"basis not trace-orthonormal (residual {resid:.2e})")

    def _product(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The N x N matrix (a.lam)(b.lam) for real a, b."""
        return np.dot(self.expand(a), self.expand(b))

    def d_bilinear(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Vector d_ijk a_i b_j (the raw, prefactor-free star product)."""
        product = self._product(a, b)  # refuses complex a, b first
        if self.dim == 2:  # d vanishes identically on su(2)
            return np.zeros(3)
        return self.overlaps(product) / 2.0

    def f_bilinear(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Vector f_ijk a_i b_j (antisymmetric in a, b)."""
        return self.overlaps(-1j * self._product(a, b)) / 2.0

    def d_chain(self, n: np.ndarray) -> tuple[float, ...]:
        """(0, 0, c_2, ..., c_9): the pure d-chain contractions of a real n.

        With w = d(n,n,.) and A = d(w,w,.),

            c_2 = n.n, c_3 = w.n, c_4 = w.w, c_5 = A.n, c_6 = A.w,
            c_7 = d(A,w,.).n, c_8 = A.A, c_9 = d(A,A,.).n,

        from three N x N products.  By the product rule X = n.lam squares
        to (2/N)(n.n) 1 + w.lam, so W = X^2 - (2 c_2/N) 1 is w.lam and
        A.lam = W^2 - (2 c_4/N) 1; every contraction a.b is then
        Tr((a.lam)(b.lam))/2, c_7 = Re Tr(XAW)/2 and c_9 = Tr(XAA)/2, with
        no projection onto the basis.  ``n`` obeys :func:`checked_real`, and
        a vector whose float c_2^4 overflows (|n| beyond about 1e38) raises
        :class:`DomainError` before any product is formed, as c_8 would
        overflow and, from about |n| = 1e60 on, the products themselves.

        The chain is built in two stages, which
        :func:`~blochvec.invariants.closed_invariants` also runs apart:
        :meth:`_chain_head` (c_2..c_4, one product) and :meth:`_chain_tail`
        (c_5..c_9, two more).
        """
        c2, c3, c4, X, W = self._chain_head(n)
        return (0.0, 0.0, c2, c3, c4) + self._chain_tail(X, W, c4)

    def _chain_head(self, n: np.ndarray):
        """(c_2, c_3, c_4, X, W) of :meth:`d_chain`, from one N x N product;
        X and W are read-only, and None at N = 2, where d vanishes."""
        n = checked_real(n, (len(self),), "the d-chain's vector")
        N = self.dim
        c2 = float(np.dot(n, n))
        try:
            overflows = not isfinite(c2**4)
        except OverflowError:  # a float c2**4 raises instead of turning inf
            overflows = True
        if overflows:
            raise DomainError("the d-chain of this coherence vector overflows")
        if N == 2:  # d vanishes identically on su(2)
            return c2, 0.0, 0.0, None, None
        X = self.expand(n)
        W = np.dot(X, X)
        W.reshape(-1)[::N + 1] -= 2.0 * c2 / N
        X.setflags(write=False)
        W.setflags(write=False)
        return c2, _half_trace(X, W), _half_trace(W, W), X, W

    def _chain_tail(self, X: np.ndarray | None, W: np.ndarray | None,
                    c4: float) -> tuple[float, ...]:
        """(c_5, ..., c_9) of :meth:`d_chain` from X, W and c_4 of
        :meth:`_chain_head`, by two more N x N products."""
        if X is None:
            return (0.0,) * 5
        N = self.dim
        A = np.dot(W, W)
        A.reshape(-1)[::N + 1] -= 2.0 * c4 / N
        XA = np.dot(X, A)
        return (_half_trace(X, A), _half_trace(W, A), _half_trace(XA, W), _half_trace(A, A),
                _half_trace(XA, A))


def _checked_labels(labels, dims: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """``labels`` as tuples of ints, one per element of the product basis of
    ``dims``: each names a single-subsystem index 0..d_i^2 - 1 per factor
    (0 the identity) by :func:`checked_int`, and none is all-identity."""
    try:
        labels = tuple(tuple(lab) for lab in labels)
    except TypeError:
        raise InconsistentBasisError("labels must be a list of index lists") from None
    count = prod(dims) ** 2 - 1
    if len(labels) != count:
        raise LayoutError(f"a product basis of dims {dims} has {count} labels, got {len(labels)}")
    for lab in labels:
        if len(lab) != len(dims) or not any(lab):
            raise InconsistentBasisError(f"label {lab} names no element of a product basis "
                                         f"of dims {dims}")
    what = f"a label entry of a product basis of dims {dims}"
    return tuple(tuple(checked_int(i, 0, d * d - 1, InconsistentBasisError, what)
                       for i, d in zip(lab, dims)) for lab in labels)


def _half_trace(P: np.ndarray, Q: np.ndarray) -> float:
    """Re Tr(P Q) / 2 for a Hermitian Q, as one O(N^2) sum."""
    return float(np.vdot(Q, P).real) / 2.0


def _gellmann_elements(dim: int) -> np.ndarray:
    mats = []
    for j in range(dim):
        for k in range(j + 1, dim):
            m = np.zeros((dim, dim), dtype=complex)
            m[j, k] = 1.0
            m[k, j] = 1.0
            mats.append(m)
    for j in range(dim):
        for k in range(j + 1, dim):
            m = np.zeros((dim, dim), dtype=complex)
            m[j, k] = -1.0j
            m[k, j] = 1.0j
            mats.append(m)
    for m_ in range(1, dim):
        diag = np.zeros(dim)
        diag[:m_] = 1.0
        diag[m_] = -float(m_)
        mats.append(np.sqrt(2.0 / (m_ * (m_ + 1))) * np.diag(diag).astype(complex))
    return _frozen(np.array(mats))


def _frozen(stack: np.ndarray) -> np.ndarray:
    """A fresh element stack made read-only, so that :class:`BasisSet`
    keeps it without a copy."""
    stack.setflags(write=False)
    return stack


def build_gellmann_basis(dim: int) -> BasisSet:
    """Generalized Gell-Mann basis of su(dim), normalized to Tr(lam^2) = 2.

    Ordering: the dim(dim-1)/2 symmetric off-diagonal matrices (by row then
    column), the antisymmetric ones likewise, then the dim - 1 diagonal
    matrices sqrt(2/(m(m+1))) diag(1, ..., 1, -m, 0, ...).  For dim = 2 this
    is the Pauli basis (x, y, z); for dim = 3, :data:`SU3_STANDARD_TO_GROUPED`
    maps the physics-standard lambda_1..lambda_8 numbering onto this order.
    ``dim`` is held to :data:`MAX_BASIS_DIM`.  Bases are cached by the
    checked int, so ``np.int64(3)`` and ``3`` give one object.
    """
    return _build_gellmann_basis(checked_dim(dim))


@lru_cache(maxsize=None)
def _build_gellmann_basis(dim: int) -> BasisSet:
    admit_dim(dim)
    return BasisSet(dim=dim, elements=_gellmann_elements(dim))


def product_basis_labels(dims: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Ordered labels (i_1, ..., i_k) of a product basis, identity = 0.

    Labels are grouped by which subsystems carry a non-identity factor
    (single-subsystem groups first, then pairs, ...), lexicographic within
    a group.  For two qubits this yields x1, y1, z1, 1x, 1y, 1z, xx, xy,
    xz, yx, ..., zz.
    """
    ranges = [range(d * d) for d in dims]
    labels = [lab for lab in iproduct(*ranges) if any(lab)]

    def key(lab):
        support = tuple(i for i, v in enumerate(lab) if v)
        return (len(support), support, lab)

    return tuple(sorted(labels, key=key))


def build_product_basis(dims) -> BasisSet:
    """Scaled tensor-product basis for a composite of qubits and qutrits.

    Elements are {lam_{i_1} x ... x lam_{i_k}} over the single-subsystem
    Gell-Mann bases (identity allowed per factor, the all-identity label
    excluded), each rescaled so that Tr(lam_i lam_j) = 2 delta_ij.  For two
    qubits each element carries a 1/sqrt(2) and the ordering matches
    :func:`product_basis_labels`.  The product of ``dims`` is held to
    :data:`MAX_BASIS_DIM`.
    """
    return _build_product_basis(checked_dims(dims))


@lru_cache(maxsize=None)
def _build_product_basis(dims: tuple[int, ...]) -> BasisSet:
    for d in dims:
        if d > 3:
            raise DimensionError(f"product bases support qubit/qutrit factors only, got {d}")
    total = prod(dims)
    admit_dim(total)
    factors = {d: build_gellmann_basis(d).elements for d in set(dims)}
    labels = product_basis_labels(dims)
    mats = []
    for lab in labels:
        parts = [
            np.eye(d, dtype=complex) if i == 0 else factors[d][i - 1]
            for d, i in zip(dims, lab)
        ]
        mat = reduce(np.kron, parts)
        # Tr(element^2): 2 per non-identity factor, d per identity factor.
        norm2 = np.prod([2.0 if i else float(d) for d, i in zip(dims, lab)])
        mats.append(mat * np.sqrt(2.0 / norm2))
    return BasisSet(dim=total, elements=_frozen(np.array(mats)), labels=labels,
                    subsystem_dims=dims)


#: The two cached builders under the names of the structure-tensor API, for
#: callers written against those names.
gellmann_tensors = build_gellmann_basis
product_tensors = build_product_basis


def basis_to_json(basis: BasisSet) -> dict:
    """Serialize a basis as {"dim": N, "elements": [[[re, im], ...], ...]}."""
    elements = [
        [[[float(z.real), float(z.imag)] for z in row] for row in mat]
        for mat in basis.elements
    ]
    doc = {"dim": basis.dim, "elements": elements}
    if basis.labels is not None:
        doc["labels"] = [list(lab) for lab in basis.labels]
        doc["subsystem_dims"] = list(basis.subsystem_dims)
    return doc


def basis_from_json(doc: dict) -> BasisSet:
    """Inverse of :func:`basis_to_json`.  ``doc["dim"]`` obeys
    :func:`checked_dim` and the element pairs :func:`checked_real` of shape
    (dim^2 - 1, dim, dim, 2), both before anything is built; the basis is
    validated, so elements that are not Hermitian, traceless and
    trace-orthonormal raise :class:`InconsistentBasisError`."""
    dim = checked_dim(doc["dim"])
    pairs = checked_real(doc["elements"], (dim**2 - 1, dim, dim, 2),
                         f"basis elements for dim {dim}")
    elems = np.empty(pairs.shape[:-1], dtype=complex)
    elems.real = pairs[..., 0]  # the parts as they are: the round trip keeps every bit
    elems.imag = pairs[..., 1]
    return BasisSet(dim=dim, elements=_frozen(elems), labels=doc.get("labels"),
                    subsystem_dims=doc.get("subsystem_dims"))
