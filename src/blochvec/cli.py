"""Command-line front end: positivity checks, invariant reports, Werner
sweeps, tangle evaluation, and affine-map scanning.

Exit codes: 0 for PSD (or a pure report command), 2 for NotPSD, 1 for any
error.  The commands that gate (``check``, ``map``, ``werner``) take the
verdict tolerance from ``--tol``, else from ``BLOCHVEC_TOL``.  They gate a
coherence vector (a coherence document, an ``--invert`` or ``map`` image)
with :func:`~blochvec.check_positivity_coherence`, so they give the
library's verdict, and a matrix with La Budde's route; every command
accepts ``--json`` for machine-readable output.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import __version__
from .coherence import CoherenceState, from_coherence, to_coherence
from .composite import (
    CompositeLayout,
    partial_transpose,
    werner_ppt_boundary,
    werner_state,
    werner_symfns,
)
from .documents import (
    DocumentError,
    load_json,
    parse_amplitudes_document,
    parse_map_document,
    parse_matrix_document,
)
from .entanglement import tangle_report
from .errors import EPS_ZERO, BlochvecError, DomainError, UnsupportedOrderError
from .invariants import MAX_CLOSED_ORDER, closed_invariants
from .positivity import (
    AffineMap,
    SymFnSequence,
    Verdict,
    apply_affine_map,
    check_positivity_coherence,
    matrix_trace_powers,
    positivity_verdict,
    tridiagonal_symmetric_functions,
)
from .su_basis import build_gellmann_basis, build_product_basis

_EXIT_BY_VERDICT = {Verdict.PSD: 0, Verdict.BOUNDARY: 0, Verdict.NOT_PSD: 2}

#: Most x values one ``werner --sweep`` evaluates; a larger count is refused
#: before any array is allocated.
MAX_SWEEP = 10_000

#: The ``invariants`` degeneracy line of a three- or four-level state, by the
#: multiplicity pattern of :meth:`ClosedInvariants.degeneracy`; any other
#: pattern, or None, is "Unresolved".
DEGENERACY_LABELS = {
    3: {(3,): "ThreeFoldDegenerate", (2, 1): "TwoLargeOneSmall",
        (1, 2): "TwoSmallOneLarge", (1, 1, 1): "NonDegenerate"},
    4: {(4,): "PatternABBB", (1, 3): "PatternABBB", (3, 1): "PatternABBB",
        (2, 2): "PatternAABB"},
}


def _default_tol(args) -> float | None:
    if args.tol is not None:
        return args.tol
    env = os.environ.get("BLOCHVEC_TOL")
    if not env:
        return None
    try:
        return float(env)
    except ValueError:
        raise DomainError(f"BLOCHVEC_TOL must be a number, got {env!r}") from None


def _emit(payload: dict, as_json: bool, lines) -> None:
    if as_json:
        print(json.dumps(payload, indent=1))
    else:
        for line in lines:
            print(line)


def _basis_for(doc):
    """Coherence components of a composite document live in the product
    basis; the reconstructed operator depends on that choice."""
    if doc.dims is not None:
        return build_product_basis(doc.dims)
    return build_gellmann_basis(doc.dim)


def _load_document(path: str):
    """Returns (doc, matrix or None, CoherenceState or None)."""
    doc = parse_matrix_document(load_json(path))
    if doc.matrix is not None:
        return doc, doc.matrix, None
    return doc, None, CoherenceState(dim=doc.dim, n=doc.coherence)


def _gate_matrix(mat: np.ndarray, tol) -> SymFnSequence:
    """The verdict of a matrix by La Budde's route, as the coherence gate's
    fallback computes it."""
    return positivity_verdict(tridiagonal_symmetric_functions(mat), tol=tol)


def _check_payload(seq: SymFnSequence, mat: np.ndarray | None) -> dict:
    """The payload of a gate; with ``mat`` (``--verify``) also the
    eigenvalue cross-check of that matrix."""
    payload = {
        "dim": seq.dim,
        "S": [float(s) for s in seq.S],
        "sign_changes": seq.sign_changes,
        "verdict": seq.verdict.value,
    }
    if mat is not None:
        eigs = np.linalg.eigvalsh(mat)
        payload["min_eigenvalue"] = float(eigs.min())
        payload["positive_eigenvalues"] = int(np.sum(eigs > EPS_ZERO))
        payload["eigenvalue_agreement"] = bool(
            (payload["min_eigenvalue"] >= -EPS_ZERO) == (seq.verdict is not Verdict.NOT_PSD)
            and payload["positive_eigenvalues"] == seq.sign_changes
        )
    return payload


def _gate_state(state: CoherenceState, basis, args) -> dict:
    """The payload of a coherence state gated by
    :func:`check_positivity_coherence`; ``--verify`` rebuilds its matrix."""
    seq = check_positivity_coherence(state, basis, tol=_default_tol(args))
    return _check_payload(seq, from_coherence(state, basis) if args.verify else None)


def _print_check(payload: dict):
    lines = [
        "S_k: " + "  ".join(f"S{k + 1}={s:.12g}" for k, s in enumerate(payload["S"])),
        f"sign changes (positive eigenvalues): {payload['sign_changes']}",
        f"verdict: {payload['verdict']}",
    ]
    if "min_eigenvalue" in payload:
        lines.append(
            f"min eigenvalue: {payload['min_eigenvalue']:.12g}  "
            f"positive: {payload['positive_eigenvalues']}  "
            f"agreement: {payload['eigenvalue_agreement']}"
        )
    return lines


def cmd_check(args) -> int:
    doc, matrix, state = _load_document(args.input)
    if matrix is not None and not args.invert:
        seq = _gate_matrix(matrix, _default_tol(args))
        payload = _check_payload(seq, matrix if args.verify else None)
    else:
        basis = _basis_for(doc)
        if state is None:
            state = to_coherence(matrix, basis)
        if args.invert:
            state = apply_affine_map(AffineMap.inversion(doc.dim), state)
        payload = _gate_state(state, basis, args)
    _emit(payload, args.json, _print_check(payload))
    return _EXIT_BY_VERDICT[Verdict(payload["verdict"])]


def cmd_invariants(args) -> int:
    m = args.max_order
    if not 2 <= m <= MAX_CLOSED_ORDER:
        raise UnsupportedOrderError(
            f"--max-order must lie in 2..{MAX_CLOSED_ORDER}, got {m}")
    doc, matrix, state = _load_document(args.input)
    dim = doc.dim
    basis = _basis_for(doc)
    if state is None:
        state = to_coherence(matrix, basis)
    # An overflowing report is refused before rho is rebuilt and multiplied.
    report = closed_invariants(state, basis)
    # The "adjoint" column is the direct route: powers of the rebuilt rho.
    direct = matrix_trace_powers(from_coherence(state, basis), m)
    rows = {}
    max_disc = 0.0
    for k in range(2, m + 1):
        closed = report.trace_power(k)
        adjoint = float(direct[k - 1])
        rows[k] = {"closed": closed, "adjoint": adjoint}
        max_disc = max(max_disc, abs(closed - adjoint))
    cas = report.casimirs(min(dim, m) if dim >= 3 else 2)
    payload = {
        "dim": dim,
        "trace_powers": {str(k): v for k, v in rows.items()},
        "max_discrepancy": max_disc,
        "casimirs": {str(k): v for k, v in sorted(cas.values.items())},
    }
    if dim in DEGENERACY_LABELS:
        payload["degeneracy"] = DEGENERACY_LABELS[dim].get(report.degeneracy(), "Unresolved")
    lines = [f"Tr(rho^{k}): closed={v['closed']:.12g}  adjoint={v['adjoint']:.12g}"
             for k, v in rows.items()]
    lines.append(f"max closed/adjoint discrepancy: {max_disc:.3e}")
    lines.append("casimirs: " + "  ".join(
        f"c{k}={v:.12g}" for k, v in sorted(cas.values.items())))
    if "degeneracy" in payload:
        lines.append(f"degeneracy: {payload['degeneracy']}")
    _emit(payload, args.json, lines)
    return 0


def _werner_row(x: float, tol) -> dict:
    layout = CompositeLayout(dims=(2, 2))
    seq_pt = _gate_matrix(partial_transpose(werner_state(x), layout), tol)
    s3, s4 = werner_symfns(x, transposed=False)
    s3_pt, s4_pt = werner_symfns(x, transposed=True)
    return {"x": x, "S3": s3, "S4": s4, "S3_pt": s3_pt, "S4_pt": s4_pt,
            "ppt": seq_pt.verdict is not Verdict.NOT_PSD}


def cmd_werner(args) -> int:
    if args.sweep is not None:
        if args.sweep < 1:
            raise DomainError(f"--sweep must be at least 1, got {args.sweep}")
        if args.sweep > MAX_SWEEP:
            raise DomainError(f"--sweep must be at most {MAX_SWEEP}, got {args.sweep}")
    tol = _default_tol(args)
    if args.x is not None:
        rows = [_werner_row(args.x, tol)]
        boundary = None
    else:
        xs = np.linspace(0.0, 1.0, args.sweep)
        rows = [_werner_row(float(x), tol) for x in xs]
        boundary = werner_ppt_boundary()
    payload = {"rows": rows}
    if boundary is not None:
        payload["boundary"] = boundary
    lines = ["      x        S3          S4          S3_pt       S4_pt      PPT"]
    for r in rows:
        lines.append(
            f"  {r['x']:7.4f}  {r['S3']:+.4e}  {r['S4']:+.4e}  "
            f"{r['S3_pt']:+.4e}  {r['S4_pt']:+.4e}  {'yes' if r['ppt'] else 'no'}"
        )
    if boundary is not None:
        lines.append(f"PPT boundary (S4 of the transpose vanishes): x = {boundary:.8f}")
    _emit(payload, args.json, lines)
    return 0


def cmd_tangle(args) -> int:
    report = tangle_report(parse_amplitudes_document(load_json(args.input)))
    lines = [
        f"tau: {report.tau:.12g}",
        f"C^2_AB: {report.c2_ab:.12g}   C^2_AC: {report.c2_ac:.12g}",
        f"CKW: lhs={report.ckw_lhs:.12g} <= rhs={report.ckw_rhs:.12g}: {report.ckw_holds}",
        f"permutation spread: {report.permutation_spread:.3e}",
    ]
    _emit(dataclasses.asdict(report), args.json, lines)
    return 0


def cmd_map(args) -> int:
    dim_map, T, t = parse_map_document(load_json(args.map))
    doc, matrix, state = _load_document(args.input)
    basis = _basis_for(doc)
    if state is None:
        state = to_coherence(matrix, basis)
    image = apply_affine_map(AffineMap(dim=dim_map, T=T, t=t), state)
    payload = _gate_state(image, basis, args)
    payload["image_coherence"] = [float(v) for v in image.n]
    _emit(payload, args.json, _print_check(payload))
    return _EXIT_BY_VERDICT[Verdict(payload["verdict"])]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blochvec",
        description="Coherence-vector positivity and invariant tools.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, gate=True):
        if gate:
            p.add_argument("--tol", type=float, default=None,
                           help="verdict tolerance (default: BLOCHVEC_TOL or adaptive)")
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("check", help="positivity gate for a matrix or coherence vector")
    p.add_argument("input", help="JSON document with a matrix or coherence payload")
    p.add_argument("--verify", action="store_true",
                   help="cross-check against the eigenvalue spectrum")
    p.add_argument("--invert", action="store_true",
                   help="flip the coherence vector before checking")
    common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("invariants", help="trace powers, Casimir values, degeneracy")
    p.add_argument("input")
    p.add_argument("--max-order", type=int, default=6, dest="max_order",
                   help="highest trace power (2..9, default 6)")
    common(p, gate=False)
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("werner", help="Werner-state characteristic coefficients")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--x", type=float, default=None, help="single mixing parameter")
    group.add_argument("--sweep", type=int, default=None,
                       help=f"number of evenly spaced x values in [0, 1], at most {MAX_SWEEP}")
    common(p)
    p.set_defaults(func=cmd_werner)

    p = sub.add_parser("tangle", help="three-qubit residual tangle report")
    p.add_argument("input", help="JSON document with 8 amplitudes")
    common(p, gate=False)
    p.set_defaults(func=cmd_tangle)

    p = sub.add_parser("map", help="apply an affine coherence map, then check")
    p.add_argument("map", help="JSON document with T and t")
    p.add_argument("input", help="JSON document with a matrix or coherence payload")
    p.add_argument("--verify", action="store_true",
                   help="cross-check against the eigenvalue spectrum")
    common(p)
    p.set_defaults(func=cmd_map)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (BlochvecError, DocumentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
