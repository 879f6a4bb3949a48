"""Spans around blochvec's public functions, wrapped from outside.

``instrument`` replaces each listed function by a wrapper in every
blochvec module that binds it (so ``from .x import f`` call sites are
covered too) and returns a function that puts the originals back.  A span
records its name, start, end, parent span and operation id; spans are
kept in memory and written out when the run ends.  Self time is a span's
duration minus the time its direct children cover.
"""

from __future__ import annotations

import json
import os
import sys
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# (module, function) pairs of blochvec's public API, one span name each.
FUNCTIONS = [
    ("su_basis", "structure_constants"),
    ("su_basis", "gellmann_tensors"),
    ("su_basis", "product_tensors"),
    ("su_basis", "build_gellmann_basis"),
    ("su_basis", "build_product_basis"),
    ("coherence", "require_hermitian"),
    ("coherence", "to_coherence"),
    ("coherence", "from_coherence"),
    ("invariants", "trace_power_adjoint"),
    ("invariants", "trace_power_closed"),
    ("invariants", "casimirs"),
    ("invariants", "classify_degeneracy_3"),
    ("invariants", "classify_degeneracy_4"),
    ("positivity", "check_positivity"),
    ("positivity", "check_positivity_coherence"),
    ("positivity", "symmetric_functions"),
    ("positivity", "matrix_trace_powers"),
    ("positivity", "newton_symmetric_functions"),
    ("positivity", "positivity_verdict"),
    ("positivity", "closed_S234"),
    ("positivity", "apply_affine_map"),
    ("documents", "load_json"),
    ("documents", "parse_matrix_document"),
    ("documents", "parse_map_document"),
    ("documents", "parse_amplitudes_document"),
    ("composite", "werner_ppt_boundary"),
    ("composite", "partial_transpose"),
    ("composite", "partial_trace"),
    ("entanglement", "three_tangle"),
    ("entanglement", "ckw_inequality_check"),
    ("entanglement", "concurrence_squared"),
    ("cli", "main"),
]

# (module, class, method) triples wrapped on the class.
METHODS = [
    ("su_basis", "StructureTensors", "d_bilinear"),
    ("su_basis", "StructureTensors", "f_bilinear"),
]


def _held_bytes(tensors) -> int:
    """Bytes of the numpy arrays a structure-tensor object holds."""
    return int(sum(v.nbytes for v in vars(tensors).values() if isinstance(v, np.ndarray)))


def _power(args, kwargs):
    return args[1] if len(args) > 1 else kwargs["m"]


# Span names whose calls leave a note: (op, key, value) for later checks.
NOTES = {
    "su_basis.structure_constants": lambda args, kwargs, result: ("bytes", _held_bytes(result)),
    "documents.load_json": lambda args, kwargs, result: ("bytes", os.path.getsize(args[0])),
    "invariants.trace_power_adjoint": lambda args, kwargs, result: (_power(args, kwargs), result),
    "invariants.trace_power_closed": lambda args, kwargs, result: (_power(args, kwargs), result),
}


class Tracer:
    """In-memory span recorder; one instance per traced process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.notes: list[tuple] = []  # (name, op id, key, value)
        self.op = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, note = self.spans, self._stack, NOTES.get(name)

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if note is not None:
                self.notes.append((name, self.op, *note(args, kwargs, result)))
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name: str):
        """A span around code that is not a wrapped library function."""
        index = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op]
        self.spans.append(span)
        self._stack.append(index)
        span[1] = perf_counter()
        try:
            yield
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    def to_json(self) -> dict:
        return {"spans": self.spans, "notes": self.notes}

    def merge(self, data: dict, root: int) -> None:
        """Append spans recorded in another process as children of span
        ``root``, under its operation id."""
        offset, op = len(self.spans), self.spans[root][4]
        for name, start, end, parent, _ in data["spans"]:
            self.spans.append([name, start, end, parent + offset if parent >= 0 else root, op])
        self.notes.extend((name, op, key, value) for name, _, key, value in data["notes"])


def _modules() -> dict:
    return {name: mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "blochvec" or name.startswith("blochvec."))}


def instrument(tracer: Tracer):
    """Wrap every listed function that exists; return the undo function."""
    modules = _modules()
    patches = []
    for layer, attr in FUNCTIONS:
        fn = getattr(modules.get(f"blochvec.{layer}"), attr, None)
        if fn is None:
            continue
        traced = tracer.wrap(f"{layer}.{attr}", fn)
        for mod in modules.values():
            for key, value in list(vars(mod).items()):
                if value is fn:
                    patches.append((mod, key, value))
                    setattr(mod, key, traced)
    for layer, cls_name, meth in METHODS:
        cls = getattr(modules.get(f"blochvec.{layer}"), cls_name, None)
        fn = vars(cls).get(meth) if cls is not None else None
        if fn is None:
            continue
        patches.append((cls, meth, fn))
        setattr(cls, meth, tracer.wrap(f"{layer}.{meth}", fn))

    def restore():
        for obj, key, value in reversed(patches):
            setattr(obj, key, value)

    return restore


def clear_caches() -> None:
    """Empty every functools cache in blochvec, so the next call rebuilds."""
    seen = set()
    for mod in _modules().values():
        for value in list(vars(mod).values()):
            clear = getattr(value, "cache_clear", None)
            if callable(clear) and id(value) not in seen:
                seen.add(id(value))
                clear()


# ---------------------------------------------------------------- analysis


def aggregate(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, total and self milliseconds, median microseconds."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    rows: dict[str, dict] = {}
    durations: dict[str, list[float]] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        row = rows.setdefault(name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
        row["calls"] += 1
        row["total_ms"] += (end - start) * 1e3
        row["self_ms"] += (end - start - child[i]) * 1e3
        durations.setdefault(name, []).append(end - start)
    for name, row in rows.items():
        row["p50_us"] = float(np.median(durations[name])) * 1e6
    return dict(sorted(rows.items()))


def dump(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def _by_op(notes, name: str) -> dict:
    sums: dict = {}
    for note_name, op, _, value in notes:
        if note_name == name:
            sums[op] = sums.get(op, 0) + value
    return sums


def max_discrepancy(notes) -> float:
    """Largest |closed - adjoint| over trace powers taken in one operation."""
    routes: dict = {}
    for name, op, m, value in notes:
        if name in ("invariants.trace_power_adjoint", "invariants.trace_power_closed"):
            routes.setdefault((op, m), {})[name] = value
    gaps = [abs(v["invariants.trace_power_adjoint"] - v["invariants.trace_power_closed"])
            for v in routes.values() if len(v) == 2]
    return max(gaps, default=0.0)


def layer_metrics(tracer: Tracer, ops: int, cold_starts: int, agree: dict,
                  overhead_ops_per_s: float) -> dict[str, float]:
    """Per-layer values of one traced run.

    ``*.self_ms`` and ``*.calls`` per operation are averages over the
    traced operations; structure-constant builds are per cold start (the
    one traced set-up of a warm workload, or each CLI process).
    """
    agg = aggregate(tracer.spans)
    empty = {"calls": 0, "total_ms": 0.0, "self_ms": 0.0, "p50_us": 0.0}

    def row(name):
        return agg.get(name, empty)

    def self_ms(*names):
        return sum(row(n)["self_ms"] for n in names) / ops

    build = row("su_basis.structure_constants")
    imports = [value for name, _, _, value in tracer.notes if name == "cli.import"]
    return {
        "su_basis.structure_constants.calls": build["calls"] / cold_starts,
        "su_basis.structure_constants.ms": build["total_ms"] / cold_starts,
        "su_basis.tensor_bytes": float(max(
            _by_op(tracer.notes, "su_basis.structure_constants").values(), default=0)),
        "su_basis.bilinear_calls": (row("su_basis.d_bilinear")["calls"]
                                    + row("su_basis.f_bilinear")["calls"]) / ops,
        "su_basis.bilinear.self_ms": self_ms("su_basis.d_bilinear", "su_basis.f_bilinear"),
        "coherence.require_hermitian.p50_us": row("coherence.require_hermitian")["p50_us"],
        "coherence.to_coherence.p50_us": row("coherence.to_coherence")["p50_us"],
        "coherence.from_coherence.p50_us": row("coherence.from_coherence")["p50_us"],
        "invariants.trace_power_adjoint.self_ms": self_ms("invariants.trace_power_adjoint"),
        "invariants.trace_power_closed.self_ms": self_ms("invariants.trace_power_closed"),
        "invariants.casimirs.self_ms": self_ms("invariants.casimirs"),
        "invariants.closed_adjoint_max_discrepancy": max_discrepancy(tracer.notes),
        "positivity.matrix_trace_powers.self_ms": self_ms("positivity.matrix_trace_powers"),
        "positivity.newton_symmetric_functions.self_ms":
            self_ms("positivity.newton_symmetric_functions"),
        "positivity.positivity_verdict.self_ms": self_ms("positivity.positivity_verdict"),
        "positivity.closed_S234.self_ms": self_ms("positivity.closed_S234"),
        "positivity.oracle_agree_ratio.small": agree["small"],
        "positivity.oracle_agree_ratio.large": agree["large"],
        "documents.load_json.self_ms": self_ms("documents.load_json"),
        "documents.parse.self_ms": self_ms("documents.parse_matrix_document",
                                           "documents.parse_map_document",
                                           "documents.parse_amplitudes_document"),
        "documents.bytes_read": sum(_by_op(tracer.notes, "documents.load_json").values()) / ops,
        "cli.import_ms": sum(imports) / len(imports) if imports else 0.0,
        "cli.main.self_ms": self_ms("cli.main"),
        "composite.werner_ppt_boundary.self_ms": self_ms("composite.werner_ppt_boundary"),
        "composite.partial_transpose.calls": row("composite.partial_transpose")["calls"] / ops,
        "entanglement.three_tangle.self_ms": self_ms("entanglement.three_tangle"),
        "trace.overhead_ops_per_s": overhead_ops_per_s,
    }
