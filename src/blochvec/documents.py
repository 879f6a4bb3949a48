"""JSON document formats for the command-line tools.

Complex numbers are always explicit [re, im] pairs; a document carries a
format tag, the dimension (``dim``) or subsystem dimensions (``dims``),
and exactly one payload: ``matrix``, ``coherence``, ``amplitudes`` or an
affine map ``T``/``t`` pair.  Writers and readers round-trip exactly.
``dim`` and ``dims`` obey the library's :func:`~blochvec.su_basis.checked_dims`;
:class:`DocumentError` is for format faults, such as a ``dim``/``dims`` clash.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import prod
from typing import Optional

import numpy as np

from .errors import BlochvecError
from .su_basis import checked_dim, checked_dims

FORMAT = "blochvec/1"


class DocumentError(BlochvecError):
    """A document failed to parse or is internally inconsistent."""


def _complex_to_pairs(arr: np.ndarray):
    if arr.ndim == 1:
        return [[float(z.real), float(z.imag)] for z in arr]
    return [_complex_to_pairs(row) for row in arr]


def _real_array(data, what: str) -> np.ndarray:
    """A finite float array, or a :class:`DocumentError` naming ``what``."""
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DocumentError(f"malformed {what}: {exc}") from exc
    if not np.isfinite(arr).all():
        raise DocumentError(f"{what} has non-finite entries")
    return arr


def _pairs_to_complex(data) -> np.ndarray:
    arr = _real_array(data, "complex payload")
    if arr.ndim < 2 or arr.shape[-1] != 2:
        raise DocumentError("complex payloads must be nested [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


@dataclass(frozen=True)
class MatrixDocument:
    """A parsed input document: a matrix or a coherence vector plus layout."""

    dim: int
    dims: Optional[tuple[int, ...]]
    matrix: Optional[np.ndarray]
    coherence: Optional[np.ndarray]


def matrix_document(matrix: np.ndarray, dims=None) -> dict:
    matrix = np.asarray(matrix, dtype=complex)
    doc = {"format": FORMAT, "dim": int(matrix.shape[0]),
           "matrix": _complex_to_pairs(matrix)}
    if dims is not None:
        doc["dims"] = [int(d) for d in dims]
    return doc


def coherence_document(n: np.ndarray, dim: int, dims=None) -> dict:
    doc = {"format": FORMAT, "dim": int(dim),
           "coherence": [float(x) for x in np.asarray(n, dtype=float)]}
    if dims is not None:
        doc["dims"] = [int(d) for d in dims]
    return doc


def map_document(T: np.ndarray, t: np.ndarray, dim: int) -> dict:
    return {
        "format": FORMAT,
        "dim": int(dim),
        "T": [[float(x) for x in row] for row in np.asarray(T, dtype=float)],
        "t": [float(x) for x in np.asarray(t, dtype=float)],
    }


def amplitudes_document(psi: np.ndarray) -> dict:
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    return {"format": FORMAT, "amplitudes": _complex_to_pairs(psi)}


def _resolve_dims(doc) -> tuple[int, Optional[tuple[int, ...]]]:
    dims = None
    if "dims" in doc:
        if not isinstance(doc["dims"], (list, tuple)):
            raise DocumentError(f"dims must be a list, got {doc['dims']!r}")
        dims = checked_dims(doc["dims"])
    if "dim" in doc:
        dim = checked_dim(doc["dim"])
        if dims is not None and prod(dims) != dim:
            raise DocumentError(f"dim {dim} inconsistent with dims {dims}")
    elif dims is not None:
        dim = prod(dims)
    else:
        raise DocumentError("document carries neither 'dim' nor 'dims'")
    return dim, dims


def parse_matrix_document(doc: dict) -> MatrixDocument:
    dim, dims = _resolve_dims(doc)
    has_matrix = "matrix" in doc
    has_coherence = "coherence" in doc
    if has_matrix == has_coherence:
        raise DocumentError("document must carry exactly one of 'matrix' or 'coherence'")
    if has_matrix:
        matrix = _pairs_to_complex(doc["matrix"])
        if matrix.shape != (dim, dim):
            raise DocumentError(f"matrix shape {matrix.shape} inconsistent with dim {dim}")
        return MatrixDocument(dim=dim, dims=dims, matrix=matrix, coherence=None)
    n = _real_array(doc["coherence"], "coherence vector")
    if n.shape != (dim * dim - 1,):
        raise DocumentError(
            f"coherence vector length {n.size} inconsistent with dim {dim} "
            f"(expected {dim * dim - 1})"
        )
    return MatrixDocument(dim=dim, dims=dims, matrix=None, coherence=n)


def parse_map_document(doc: dict):
    dim, _ = _resolve_dims(doc)
    try:
        T = _real_array(doc["T"], "map matrix T")
        t = _real_array(doc["t"], "map vector t")
    except KeyError as exc:
        raise DocumentError(f"map document missing field {exc}") from exc
    k = dim * dim - 1
    if T.shape != (k, k) or t.shape != (k,):
        raise DocumentError(f"map shapes {T.shape}/{t.shape} inconsistent with dim {dim}")
    return dim, T, t


def parse_amplitudes_document(doc: dict) -> np.ndarray:
    if "amplitudes" not in doc:
        raise DocumentError("state document must carry 'amplitudes'")
    psi = _pairs_to_complex(doc["amplitudes"])
    if psi.ndim != 1:
        raise DocumentError("amplitudes must be a flat list of [re, im] pairs")
    return psi


def load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise DocumentError(f"cannot read document {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise DocumentError(f"document {path} is not a JSON object")
    return doc


def dump_json(doc: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")

