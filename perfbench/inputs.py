"""Seeded inputs of the three workloads, built without importing blochvec.

Only numpy and the conventions blochvec documents are used: the grouped
generalized Gell-Mann ordering, the scaled tensor-product basis and
rho = (1/N)(1 + c n.lam) with c = sqrt(N(N-1)/2).  A change inside the
library therefore cannot alter the inputs.  Spectra are those of
Hilbert-Schmidt random states, whose smallest eigenvalues are small
enough at N = 9 and 16 to expose the Newton-route defect; inputs with an
eigenvalue within ``MARGIN`` of zero (other than an exact zero) are
redrawn, so the oracle's answer never depends on its 1e-9 cutoff.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from itertools import product as iproduct

import numpy as np

MARGIN = 1e-7

SMALL_MAX_DIM = 4

# The mix is chosen, not observed: no usage data exist yet.  Every listed
# N (or layout) gets one share per kind (full, rank N-1, indefinite).  A
# class that lists an even number of Ns counts the lower of its two middle
# ones by cost twice, so that the class median falls inside that N's
# latency mode instead of on the edge between two modes, where it would
# jump between them from run to run.
GATE_DIMS = {2: 1, 3: 1, 4: 1, 9: 2, 16: 1}
GATE_REPEATS = 16

COHERENCE_LAYOUTS = {
    (2,): 1, (3,): 2, (4,): 1, (2, 2): 1,
    (6,): 1, (2, 2, 2): 2, (8,): 1, (9,): 1,
}
COHERENCE_REPEATS = 2

KINDS = ("full", "rankdef", "indefinite")


def size_class(dim: int) -> str:
    return "small" if dim <= SMALL_MAX_DIM else "large"


# ---------------------------------------------------------------- bases


@lru_cache(maxsize=None)
def gellmann_basis(dim: int) -> np.ndarray:
    """(dim^2 - 1, dim, dim) generalized Gell-Mann matrices, grouped as
    symmetric off-diagonal, antisymmetric off-diagonal, then diagonal."""
    mats = []
    for sign in (1.0, -1.0j):
        for j in range(dim):
            for k in range(j + 1, dim):
                m = np.zeros((dim, dim), dtype=complex)
                m[j, k] = sign
                m[k, j] = np.conj(sign)
                mats.append(m)
    for m_ in range(1, dim):
        diag = np.zeros(dim)
        diag[:m_] = 1.0
        diag[m_] = -float(m_)
        mats.append(np.diag(diag * np.sqrt(2.0 / (m_ * (m_ + 1)))).astype(complex))
    return np.array(mats)


@lru_cache(maxsize=None)
def product_basis(dims: tuple[int, ...]) -> np.ndarray:
    """Scaled tensor-product basis, ordered by support size, then support,
    then label (identity factor = 0)."""
    labels = [lab for lab in iproduct(*(range(d * d) for d in dims)) if any(lab)]
    labels.sort(key=lambda lab: (sum(1 for v in lab if v),
                                 tuple(i for i, v in enumerate(lab) if v), lab))
    mats = []
    for lab in labels:
        parts = [np.eye(d, dtype=complex) if i == 0 else gellmann_basis(d)[i - 1]
                 for d, i in zip(dims, lab)]
        norm2 = np.prod([2.0 if i else float(d) for d, i in zip(dims, lab)])
        mats.append(reduce(np.kron, parts) * np.sqrt(2.0 / norm2))
    return np.array(mats)


def basis(layout: tuple[int, ...]) -> np.ndarray:
    """Gell-Mann basis for a one-entry layout (N,), product basis otherwise."""
    return gellmann_basis(layout[0]) if len(layout) == 1 else product_basis(layout)


def coherence_scale(dim: int) -> float:
    return math.sqrt(dim * (dim - 1) / 2.0)


def to_coherence(rho: np.ndarray, lam: np.ndarray) -> np.ndarray:
    dim = rho.shape[0]
    overlaps = np.einsum("ab,iba->i", rho, lam).real
    return math.sqrt(dim / (2.0 * (dim - 1))) * overlaps


def from_coherence(n: np.ndarray, lam: np.ndarray) -> np.ndarray:
    dim = lam.shape[1]
    mat = np.tensordot(n, lam, axes=(0, 0))
    return (np.eye(dim, dtype=complex) + coherence_scale(dim) * mat) / dim


# ---------------------------------------------------------------- states


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def spectrum(n: int, kind: str, rng: np.random.Generator) -> np.ndarray:
    """Trace-one spectrum of a Hilbert-Schmidt random state (eigenvalues of
    G G^dag for a Ginibre G), full rank, with one exact zero, or with its
    smallest eigenvalue turned negative."""
    while True:
        cols = n - 1 if kind == "rankdef" else n
        g = rng.normal(size=(n, cols)) + 1j * rng.normal(size=(n, cols))
        lam = np.linalg.eigvalsh(g @ g.conj().T)
        if kind == "rankdef":
            lam[0] = 0.0
        elif kind == "indefinite":
            lam[0] = -(0.2 + 0.5 * rng.random()) * lam.mean()
        elif kind != "full":
            raise ValueError(f"unknown spectrum kind {kind!r}")
        lam /= lam.sum()
        if well_separated(lam, allow_zero=kind == "rankdef"):
            return lam


def well_separated(values: np.ndarray, allow_zero: bool) -> bool:
    """True when no eigenvalue (other than an exact zero, if allowed) lies
    within ``MARGIN`` of zero, where the 1e-9 oracle cutoff could blur."""
    mags = np.abs(values)
    if allow_zero:
        mags = mags[mags > 1e-13]
    return bool(mags.min() >= MARGIN)


def hermitian_with_spectrum(lam: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    u = haar_unitary(lam.size, rng)
    mat = (u * lam) @ u.conj().T
    return 0.5 * (mat + mat.conj().T)


def haar_ket(n: int, rng: np.random.Generator) -> np.ndarray:
    psi = rng.normal(size=n) + 1j * rng.normal(size=n)
    return psi / np.linalg.norm(psi)


# ---------------------------------------------------------------- workloads


@dataclass
class StateInput:
    """One operator of a library workload: its matrix, its coherence
    vector in ``layout``'s basis, and its kind and size class."""

    layout: tuple[int, ...]
    kind: str
    matrix: np.ndarray
    n: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def cls(self) -> str:
        return size_class(self.dim)

    @property
    def layout_name(self) -> str:
        return "x".join(map(str, self.layout))


def random_operator(layout: tuple[int, ...], kind: str,
                    rng: np.random.Generator) -> StateInput:
    dim = int(np.prod(layout))
    lam = spectrum(dim, kind, rng)
    mat = hermitian_with_spectrum(lam, rng)
    n = to_coherence(mat, basis(layout))
    return StateInput(layout=layout, kind=kind, matrix=from_coherence(n, basis(layout)), n=n)


def _mix(weights: dict, repeats: int, rng: np.random.Generator) -> list[StateInput]:
    items = []
    for layout, weight in weights.items():
        layout = layout if isinstance(layout, tuple) else (layout,)
        for kind in KINDS:
            items.extend(random_operator(layout, kind, rng)
                         for _ in range(weight * repeats))
    order = rng.permutation(len(items))
    return [items[i] for i in order]


def gate_matrix_inputs(seed: int) -> list[StateInput]:
    """Hermitian trace-one matrices; the pass order is shuffled once."""
    return _mix(GATE_DIMS, GATE_REPEATS, np.random.default_rng([seed, 1]))


def coherence_inputs(seed: int) -> list[StateInput]:
    """Coherence vectors in Gell-Mann and product bases."""
    return _mix(COHERENCE_LAYOUTS, COHERENCE_REPEATS, np.random.default_rng([seed, 2]))


# ---------------------------------------------------------------- documents

FORMAT = "blochvec/1"


def _pairs(arr: np.ndarray):
    if arr.ndim == 1:
        return [[float(z.real), float(z.imag)] for z in arr]
    return [_pairs(row) for row in arr]


def matrix_doc(op: StateInput) -> dict:
    doc = {"format": FORMAT, "dim": op.dim, "matrix": _pairs(op.matrix)}
    if len(op.layout) > 1:
        doc["dims"] = list(op.layout)
    return doc


def coherence_doc(op: StateInput) -> dict:
    doc = {"format": FORMAT, "dim": op.dim, "coherence": [float(x) for x in op.n]}
    if len(op.layout) > 1:
        doc["dims"] = list(op.layout)
    return doc


@dataclass
class CliCase:
    """One CLI invocation: its arguments (document names refer to
    ``files``), its size class, and what the oracle needs to judge it."""

    name: str
    argv: list[str]
    dim: int
    files: dict[str, dict] = field(default_factory=dict)
    state: StateInput | None = None
    data: dict = field(default_factory=dict)

    @property
    def cls(self) -> str:
        return size_class(self.dim)


def _operator(layout, kind, rng, *, invert=False):
    """A random operator whose spectrum, and after --invert the spectrum of
    (2/N) 1 - rho, stays clear of zero."""
    while True:
        op = random_operator(layout, kind, rng)
        if not invert:
            return op
        flipped = 2.0 / op.dim - np.linalg.eigvalsh(op.matrix)
        if well_separated(flipped, allow_zero=False):
            return op


def _affine_map(op: StateInput, rng: np.random.Generator):
    """A contraction T n + t whose image has a spectrum clear of zero."""
    k = op.n.size
    while True:
        q, _ = np.linalg.qr(rng.normal(size=(k, k)))
        T = (0.3 + 0.6 * rng.random()) * q
        t = 0.2 * rng.normal(size=k) / math.sqrt(k)
        image = T @ op.n + t
        eig = np.linalg.eigvalsh(from_coherence(image, basis(op.layout)))
        if well_separated(eig, allow_zero=False):
            return T, t


def _check(name, rng, layout, kind, payload, *, invert=False):
    op = _operator(layout, kind, rng, invert=invert)
    fname = f"{name}.json"
    doc = matrix_doc(op) if payload == "matrix" else coherence_doc(op)
    argv = ["check", fname, "--json"] + (["--invert"] if invert else [])
    return CliCase(name=name, argv=argv, dim=op.dim, files={fname: doc}, state=op,
                   data={"invert": invert})


def _invariants(name, rng, layout, payload):
    op = _operator(layout, "full", rng)
    fname = f"{name}.json"
    doc = matrix_doc(op) if payload == "matrix" else coherence_doc(op)
    return CliCase(name=name, argv=["invariants", fname, "--json"], dim=op.dim,
                   files={fname: doc}, state=op)


def _map(name, rng, layout):
    op = _operator(layout, "full", rng)
    T, t = _affine_map(op, rng)
    mapdoc = {"format": FORMAT, "dim": op.dim,
              "T": [[float(x) for x in row] for row in T], "t": [float(x) for x in t]}
    files = {f"{name}-map.json": mapdoc, f"{name}.json": coherence_doc(op)}
    return CliCase(name=name, argv=["map", f"{name}-map.json", f"{name}.json", "--json"],
                   dim=op.dim, files=files, state=op, data={"T": T, "t": t})


def _tangle(name, psi):
    fname = f"{name}.json"
    return CliCase(name=name, argv=["tangle", fname, "--json"], dim=8,
                   files={fname: {"format": FORMAT, "amplitudes": _pairs(psi)}},
                   data={"psi": psi})


def _malformed(name, doc):
    """A document the CLI must refuse; a non-integer dim counts as small."""
    fname = f"{name}.json"
    dim = doc["dim"] if isinstance(doc["dim"], int) else 0
    return CliCase(name=name, argv=["check", fname, "--json"], dim=dim, files={fname: doc},
                   data={"malformed": True})


WERNER_SWEEP = 21


def cli_cases(seed: int) -> list[CliCase]:
    """Sixteen small and fourteen large invocations, shuffled once.

    Each case appears once per pass (the mix is chosen, not observed).
    ``check`` covers each kind once per size class and payload (matrix or
    coherence), with one ``dims`` document of each payload; ``--invert``,
    ``invariants`` and ``map`` take their documents from both classes
    where the command allows it; the three-qubit ``tangle`` states are
    large (N = 8), the Werner sweep and the malformed documents small.
    """
    rng = np.random.default_rng([seed, 3])
    ghz = np.zeros(8, dtype=complex)
    ghz[[0, 7]] = 1.0 / math.sqrt(2.0)
    w = np.zeros(8, dtype=complex)
    w[[1, 2, 4]] = 1.0 / math.sqrt(3.0)
    cases = [
        # small: N <= 4
        _check("check-m2-full", rng, (2,), "full", "matrix"),
        _check("check-m3-indef", rng, (3,), "indefinite", "matrix"),
        _check("check-m22-rankdef", rng, (2, 2), "rankdef", "matrix"),
        _check("check-c3-rankdef", rng, (3,), "rankdef", "coherence"),
        _check("check-c22-full", rng, (2, 2), "full", "coherence"),
        _check("check-c4-indef", rng, (4,), "indefinite", "coherence"),
        _check("invert-c3", rng, (3,), "full", "coherence", invert=True),
        _check("invert-m4", rng, (4,), "full", "matrix", invert=True),
        _invariants("invariants-c3", rng, (3,), "coherence"),
        _invariants("invariants-m4", rng, (4,), "matrix"),
        _invariants("invariants-c22", rng, (2, 2), "coherence"),
        _map("map-c3", rng, (3,)),
        CliCase(name="werner-sweep", argv=["werner", "--sweep", str(WERNER_SWEEP), "--json"],
                dim=4),
        _malformed("bad-nan", {"format": FORMAT, "dim": 2,
                               "coherence": [float("nan"), 0.1, 0.2]}),
        _malformed("bad-dim-abc", {"format": FORMAT, "dim": "abc",
                                   "coherence": [0.1, 0.2, 0.3]}),
        _malformed("bad-dim-1", {"format": FORMAT, "dim": 1, "matrix": [[[1.0, 0.0]]]}),
        # large: N > 4
        _check("check-m9-full", rng, (9,), "full", "matrix"),
        _check("check-m9-indef", rng, (9,), "indefinite", "matrix"),
        _check("check-m16-rankdef", rng, (16,), "rankdef", "matrix"),
        _check("check-c6-full", rng, (6,), "full", "coherence"),
        _check("check-c222-rankdef", rng, (2, 2, 2), "rankdef", "coherence"),
        _check("check-c33-indef", rng, (3, 3), "indefinite", "coherence"),
        _check("invert-c222", rng, (2, 2, 2), "full", "coherence", invert=True),
        _check("invert-m9", rng, (9,), "full", "matrix", invert=True),
        _invariants("invariants-c33", rng, (3, 3), "coherence"),
        _map("map-c6", rng, (6,)),
        _tangle("tangle-ghz", ghz),
        _tangle("tangle-w", w),
        _tangle("tangle-haar-1", haar_ket(8, rng)),
        _tangle("tangle-haar-2", haar_ket(8, rng)),
    ]
    order = rng.permutation(len(cases))
    return [cases[i] for i in order]


# ---------------------------------------------------------------- records


def mix_record(items) -> dict:
    """Counts per size class, layout and kind of one pass."""
    counts: dict[str, int] = {}
    for item in items:
        if isinstance(item, StateInput):
            key = f"{item.cls}/N={item.layout_name}/{item.kind}"
        else:
            key = f"{item.cls}/N={item.dim}/{item.name}"
        counts[key] = counts.get(key, 0) + 1
    return dict(sorted(counts.items()))


def digest(items) -> str:
    """SHA-256 over the exact bytes of every input, in pass order."""
    h = hashlib.sha256()
    for item in items:
        if isinstance(item, StateInput):
            h.update(repr((item.layout, item.kind)).encode())
            h.update(np.ascontiguousarray(item.matrix).tobytes())
            h.update(np.ascontiguousarray(item.n).tobytes())
        else:
            h.update(json.dumps([item.name, item.argv, item.files],
                                sort_keys=True).encode())
    return h.hexdigest()
