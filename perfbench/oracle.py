"""Eigenvalue oracle and output checker, independent of blochvec.

Each input gets an expectation computed once, before timing, from
``numpy.linalg.eigvalsh`` and the benchmark's own bases.  Every output of
the timed loop is compared with it afterwards.  A failure is a wrong
verdict, sign-change count, value, payload or exit code, or an
unexpected exception.

Known defects stay in the mix and are counted as failures.  They are
tallied apart so that ``correct`` turns false only on a failure outside
them:

* ``newton-route``: S_k off by more than a stable route allows, but no
  more than the rounding error of matrix-power traces fed to Newton's
  identities can explain (``newton_bound``); and a wrong verdict or
  sign-change count only on a PSD or Boundary input, one of whose S_k
  lies within that bound of zero.  Observed at N >= 8 for S_k and N >= 9
  for verdicts.  A wrong verdict on an indefinite input, or S_k beyond
  the bound, is never put down to it.
* ``nan-accepted``: a NaN coherence entry is gated as PSD with exit 0.
* ``dim-traceback``: ``"dim": "abc"`` ends in a ValueError traceback.
* ``dim-1-accepted``: a ``dim: 1`` matrix is gated as PSD with exit 0.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import inputs

ZERO = 1e-9
VALUE_TOL = 1e-9
UNIT_ROUNDOFF = 2.0**-53
STABLE_REL = 1e-8
STABLE_EIG = 1e-13
MAX_CLOSED_ORDER = 9
CLI_MAX_ORDER = 6


# ---------------------------------------------------------------- spectra


def elementary(eig: np.ndarray) -> np.ndarray:
    """e_1..e_N of the eigenvalues."""
    coeffs = np.poly(eig).real
    return np.array([(-1) ** k * coeffs[k] for k in range(1, eig.size + 1)])


def s_tolerance(eig: np.ndarray) -> np.ndarray:
    """How far S_1..S_N may stray from the oracle's for a stable route:
    1e-8 of e_k(|eigenvalues|), plus the most e_k moves when every
    eigenvalue moves by 1e-13 of the spectral radius (N delta e_(k-1)).
    Each S_k is judged at its own scale, so the tiny high-order
    coefficients that decide a verdict are checked too."""
    mags = np.abs(eig)
    e = np.concatenate([[1.0], elementary(mags)])
    return STABLE_REL * e[1:] + eig.size * STABLE_EIG * mags.max() * e[:-1]


def newton_bound(eig: np.ndarray) -> np.ndarray:
    """Rounding-error bound on S_1..S_N of the matrix route: Tr(A^j) from
    iterated products, off by up to j N^2 u ||A||_F^j, then Newton's
    identities k S_k = sum_j (-1)^(j-1) Tr(A^j) S_(k-j), which add their
    own rounding and carry earlier errors forward."""
    n = eig.size
    S = np.concatenate([[1.0], elementary(eig)])
    p = np.abs([np.sum(eig**j) for j in range(n + 1)])
    p_abs = np.array([np.sum(np.abs(eig)**j) for j in range(n + 1)])
    fro = math.sqrt(float(np.sum(eig**2)))
    dp = np.array([j * n**2 * UNIT_ROUNDOFF * fro**j for j in range(n + 1)])
    err = np.zeros(n + 1)
    for k in range(1, n + 1):
        j = np.arange(1, k + 1)
        err[k] = np.sum(dp[j] * np.abs(S[k - j]) + p_abs[j] * err[k - j]
                        + k * UNIT_ROUNDOFF * p[j] * np.abs(S[k - j])) / k
    return err[1:]


def expected_verdict(eig: np.ndarray) -> tuple[str, int]:
    """(verdict, number of positive eigenvalues) at the 1e-9 cutoff."""
    if eig.min() < -ZERO:
        verdict = "NotPSD"
    elif np.abs(eig).min() <= ZERO:
        verdict = "Boundary"
    else:
        verdict = "PSD"
    return verdict, int(np.sum(eig > ZERO))


def d_bilinear(a: np.ndarray, b: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """d(a, b)_k = Re Tr((a.lam)(b.lam) lam_k) / 2, straight from matrices."""
    prod = np.tensordot(a, lam, axes=(0, 0)) @ np.tensordot(b, lam, axes=(0, 0))
    return np.einsum("ab,kba->k", prod, lam).real / 2.0


def casimir_values(n: np.ndarray, layout: tuple[int, ...], up_to: int) -> dict[int, float]:
    """c_2..c_up_to as d-chain contractions rescaled by (c/(N-2))^(m-2)."""
    lam = inputs.basis(layout)
    dim = lam.shape[1]
    w = d_bilinear(n, n, lam)
    A = d_bilinear(w, w, lam)
    chains = {2: n @ n, 3: w @ n, 4: w @ w, 5: A @ n, 6: A @ w,
              7: d_bilinear(A, w, lam) @ n, 8: A @ A, 9: d_bilinear(A, A, lam) @ n}
    kappa = inputs.coherence_scale(dim) / (dim - 2) if dim > 2 else 0.0
    return {m: float(kappa ** (m - 2) * chains[m]) for m in range(2, up_to + 1)}


def close(value, ref, tol=VALUE_TOL) -> bool:
    return bool(abs(value - ref) <= tol * max(1.0, abs(ref)))


@dataclass
class Expect:
    """Oracle answers for one operator."""

    dim: int
    verdict: str
    sign_changes: int
    S: np.ndarray
    traces: dict[int, float]
    casimirs: dict[int, float]
    stable_tol: np.ndarray
    newton: np.ndarray


def expect_spectrum(eig: np.ndarray, traces=None, casimirs=None) -> Expect:
    verdict, changes = expected_verdict(eig)
    return Expect(eig.size, verdict, changes, elementary(eig), traces or {},
                  casimirs or {}, s_tolerance(eig), newton_bound(eig))


def expect_state(op: inputs.StateInput, *, casimir_order: int = 0,
                 trace_order: int = 0) -> Expect:
    eig = np.linalg.eigvalsh(op.matrix)
    traces = {m: float(np.sum(eig**m)) for m in range(2, trace_order + 1)}
    cas = casimir_values(op.n, op.layout, casimir_order) if casimir_order >= 2 else {}
    return expect_spectrum(eig, traces, cas)


def coherence_orders(dim: int) -> tuple[int, int]:
    """(Casimir order, highest closed trace power) of one coherence op."""
    top = min(dim, MAX_CLOSED_ORDER)
    return (top if dim >= 3 else 0), top


# ---------------------------------------------------------------- tally


@dataclass
class Tally:
    """Failures per distinct operation, with known defects counted apart.

    An operation is one seeded input, named by ``key``.  A closed loop
    judges it on every pass; it counts once in ``attempted``, and once in
    ``failed`` if any of its passes failed, so both counts depend on the
    seed only, not on how many passes a run's throughput allowed.  An
    operation that fails on some passes but not on others is an
    unexpected failure: a known defect is deterministic.
    """

    outcomes: dict = field(default_factory=dict)
    inconsistent: set = field(default_factory=set)

    def record(self, key, cls: str, label: str, problems: list[str], known: str | None):
        new = (cls, label, tuple(problems), known if problems else None)
        old = self.outcomes.get(key)
        if old is None:
            self.outcomes[key] = new
        elif bool(old[2]) != bool(problems):
            self.inconsistent.add(key)
            if problems:
                self.outcomes[key] = new

    @property
    def attempted(self) -> int:
        return len(self.outcomes)

    @property
    def failed(self) -> int:
        return sum(1 for o in self.outcomes.values() if o[2])

    @property
    def known(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for key, (_, _, problems, known) in self.outcomes.items():
            if problems and known is not None and key not in self.inconsistent:
                counts[known] = counts.get(known, 0) + 1
        return dict(sorted(counts.items()))

    @property
    def unexpected(self) -> list[str]:
        out = []
        for key, (_, label, problems, _) in self.outcomes.items():
            if key in self.inconsistent:
                out.append(f"{label}: fails on some passes only: " + "; ".join(problems))
        for key, (_, label, problems, known) in self.outcomes.items():
            if problems and known is None and key not in self.inconsistent:
                out.append(f"{label}: " + "; ".join(problems))
        return out[:20]

    @property
    def unexpected_count(self) -> int:
        return self.failed - sum(self.known.values())

    def agree_ratio(self, cls: str) -> float:
        judged = [not o[2] for o in self.outcomes.values() if o[0] == cls]
        return sum(judged) / len(judged) if judged else 0.0

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "fail_ratio": self.failed / max(self.attempted, 1),
                "known_defects": self.known,
                "unexpected": self.unexpected}


def newton_known(exp: Expect, S, problems: list[str]) -> str | None:
    """``"newton-route"`` when the problems of one gate are that defect.

    Every reported S_k must lie within ``newton_bound`` of the oracle's.
    A wrong verdict or count (and the exit code that follows from the
    verdict) further needs a PSD or Boundary input, S that miss the
    stable tolerance, and some S_k of the input within the bound of zero,
    so that rounding can have flipped its sign.
    """
    kinds = {p.split(" ", 1)[0] for p in problems}
    allowed = {"verdict", "sign_changes", "S_k"} | ({"exit"} if "verdict" in kinds else set())
    if not problems or not kinds <= allowed:
        return None
    S = np.asarray(S, dtype=float)
    err = np.abs(S - exp.S)
    if S.shape != exp.S.shape or not np.all(err <= exp.newton):
        return None
    if kinds & {"verdict", "sign_changes"} and (
            exp.verdict == "NotPSD" or np.all(err <= exp.stable_tol)
            or not np.any(np.abs(exp.S) <= exp.newton)):
        return None
    return "newton-route"


# ---------------------------------------------------------------- library ops


def gate_problems(exp: Expect, verdict: str, changes: int) -> list[str]:
    problems = []
    if verdict != exp.verdict:
        problems.append(f"verdict {verdict} != {exp.verdict}")
    if changes != exp.sign_changes:
        problems.append(f"sign_changes {changes} != {exp.sign_changes}")
    return problems


def coherence_problems(exp: Expect, out: tuple) -> list[str]:
    """``out`` = (verdict, sign changes, S, (S2, S3, S4), casimir values,
    closed trace powers m = 2..top)."""
    verdict, changes, _, s234, cas, traces = out
    problems = gate_problems(exp, verdict, changes)
    ref234 = [exp.S[k] if k < exp.dim else 0.0 for k in (1, 2, 3)]
    if not all(close(v, r) for v, r in zip(s234, ref234)):
        problems.append(f"closed_S234 {s234} != {tuple(ref234)}")
    if cas is not None:
        ref = [exp.casimirs[m] for m in sorted(exp.casimirs)]
        if len(cas) != len(ref) or not all(close(v, r, 1e-7) for v, r in zip(cas, ref)):
            problems.append(f"casimirs {cas} != {ref}")
    ref = [exp.traces[m] for m in sorted(exp.traces)]
    if len(traces) != len(ref) or not all(close(v, r) for v, r in zip(traces, ref)):
        problems.append(f"trace_power_closed {traces} != {ref}")
    return problems


# ---------------------------------------------------------------- CLI


@dataclass
class CliExpect:
    case: inputs.CliCase
    exit_code: int
    expect: Expect | None = None
    extra: dict = field(default_factory=dict)


def _werner(x: float) -> np.ndarray:
    singlet = np.zeros((4, 4), dtype=complex)
    singlet[1, 1] = singlet[2, 2] = 0.5
    singlet[1, 2] = singlet[2, 1] = -0.5
    return (1.0 - x) / 4.0 * np.eye(4) + x * singlet


def _transpose_first(rho: np.ndarray) -> np.ndarray:
    return rho.reshape(2, 2, 2, 2).transpose(2, 1, 0, 3).reshape(4, 4)


def _spin_flip(rho: np.ndarray) -> np.ndarray:
    sy = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    yy = np.kron(sy, sy)
    return yy @ rho.conj() @ yy


def concurrence_squared(rho: np.ndarray) -> float:
    vals, vecs = np.linalg.eigh(rho)
    root = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T
    lam = np.sqrt(np.clip(np.linalg.eigvalsh(root @ _spin_flip(rho) @ root), 0.0, None))
    lam = np.sort(lam)[::-1]
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]) ** 2)


def hyperdeterminant_tangle(psi: np.ndarray) -> float:
    """Coffman-Kundu-Wootters tangle 4 |d1 - 2 d2 + 4 d3|."""
    a = psi.reshape(2, 2, 2)
    d1 = (a[0, 0, 0]**2 * a[1, 1, 1]**2 + a[0, 0, 1]**2 * a[1, 1, 0]**2
          + a[0, 1, 0]**2 * a[1, 0, 1]**2 + a[1, 0, 0]**2 * a[0, 1, 1]**2)
    d2 = (a[0, 0, 0] * a[1, 1, 1] * (a[0, 1, 1] * a[1, 0, 0] + a[1, 0, 1] * a[0, 1, 0]
                                      + a[1, 1, 0] * a[0, 0, 1])
          + a[0, 1, 1] * a[1, 0, 0] * (a[1, 0, 1] * a[0, 1, 0] + a[1, 1, 0] * a[0, 0, 1])
          + a[1, 0, 1] * a[0, 1, 0] * a[1, 1, 0] * a[0, 0, 1])
    d3 = (a[0, 0, 0] * a[1, 1, 0] * a[1, 0, 1] * a[0, 1, 1]
          + a[1, 1, 1] * a[0, 0, 1] * a[0, 1, 0] * a[1, 0, 0])
    return float(4.0 * abs(d1 - 2.0 * d2 + 4.0 * d3))


def _exit_for(verdict: str) -> int:
    return 2 if verdict == "NotPSD" else 0


def expect_cli(case: inputs.CliCase) -> CliExpect:
    cmd = case.argv[0]
    if case.data.get("malformed"):
        return CliExpect(case, 1)
    if cmd == "check":
        op = case.state
        eig = np.linalg.eigvalsh(op.matrix)
        if case.data["invert"]:
            eig = np.sort(2.0 / op.dim - eig)
        exp = expect_spectrum(eig)
        return CliExpect(case, _exit_for(exp.verdict), exp)
    if cmd == "map":
        op = case.state
        image = case.data["T"] @ op.n + case.data["t"]
        eig = np.linalg.eigvalsh(inputs.from_coherence(image, inputs.basis(op.layout)))
        exp = expect_spectrum(eig)
        return CliExpect(case, _exit_for(exp.verdict), exp, {"image": image})
    if cmd == "invariants":
        op = case.state
        cas_order = min(op.dim, CLI_MAX_ORDER, MAX_CLOSED_ORDER) if op.dim >= 3 else 2
        exp = expect_state(op, casimir_order=cas_order, trace_order=CLI_MAX_ORDER)
        extra = {}
        if op.dim == 3:
            extra["degeneracy"] = "NonDegenerate"
        elif op.dim == 4:
            extra["degeneracy"] = "Unresolved"
        return CliExpect(case, 0, exp, extra)
    if cmd == "werner":
        rows = []
        for x in np.linspace(0.0, 1.0, inputs.WERNER_SWEEP):
            plain = np.linalg.eigvalsh(_werner(float(x)))
            pt = np.linalg.eigvalsh(_transpose_first(_werner(float(x))))
            rows.append({"x": float(x), "S3": elementary(plain)[2], "S4": elementary(plain)[3],
                         "S3_pt": elementary(pt)[2], "S4_pt": elementary(pt)[3],
                         "ppt": bool(pt.min() >= -ZERO)})
        return CliExpect(case, 0, None, {"rows": rows, "boundary": 1.0 / 3.0})
    if cmd == "tangle":
        psi = case.data["psi"]
        a = psi.reshape(2, 2, 2)
        rho_ab = np.einsum("abc,dec->abde", a, a.conj()).reshape(4, 4)
        rho_ac = np.einsum("abc,dbe->acde", a, a.conj()).reshape(4, 4)
        rho_a = np.einsum("abc,dbc->ad", a, a.conj())
        c2ab, c2ac = concurrence_squared(rho_ab), concurrence_squared(rho_ac)
        return CliExpect(case, 0, None, {
            "tau": hyperdeterminant_tangle(psi), "c2_ab": c2ab, "c2_ac": c2ac,
            "ckw_lhs": c2ab + c2ac, "ckw_rhs": float(4.0 * np.linalg.det(rho_a).real)})
    raise ValueError(f"no oracle for command {cmd!r}")


def _verdict_payload_problems(exp: Expect, payload: dict) -> list[str]:
    problems = gate_problems(exp, payload.get("verdict"), payload.get("sign_changes"))
    try:
        S = np.asarray(payload.get("S", []), dtype=float)
    except (TypeError, ValueError):
        return problems + ["payload S is not a list of numbers"]
    if payload.get("dim") != exp.dim or S.shape != exp.S.shape:
        problems.append(f"payload dim/S shape {payload.get('dim')}/{S.shape} != {exp.dim}")
        return problems
    excess = np.abs(S - exp.S) / exp.stable_tol
    if not np.all(excess <= 1.0):
        k = int(np.nanargmax(np.where(np.isnan(excess), np.inf, excess)))
        problems.append(f"S_k off: S_{k + 1} = {S[k]:.6e}, oracle {exp.S[k]:.6e} "
                        f"(tolerance {exp.stable_tol[k]:.1e})")
    return problems


def _invariants_problems(ce: CliExpect, payload: dict) -> list[str]:
    exp = ce.expect
    problems = []
    rows = payload.get("trace_powers", {})
    for m, ref in exp.traces.items():
        row = rows.get(str(m), {})
        for route in ("closed", "adjoint"):
            if not close(row.get(route, math.nan), ref):
                problems.append(f"Tr(rho^{m}) {route} {row.get(route)} != {ref}")
    if not payload.get("max_discrepancy", math.inf) <= VALUE_TOL:
        problems.append(f"max_discrepancy {payload.get('max_discrepancy')}")
    cas = payload.get("casimirs", {})
    if sorted(cas) != sorted(str(m) for m in exp.casimirs):
        problems.append(f"casimir orders {sorted(cas)}")
    else:
        for m, ref in exp.casimirs.items():
            if not close(cas[str(m)], ref, 1e-7):
                problems.append(f"c{m} {cas[str(m)]} != {ref}")
    if payload.get("degeneracy") != ce.extra.get("degeneracy"):
        problems.append(f"degeneracy {payload.get('degeneracy')} != {ce.extra.get('degeneracy')}")
    return problems


def _werner_problems(ce: CliExpect, payload: dict) -> list[str]:
    rows = payload.get("rows", [])
    problems = []
    if len(rows) != len(ce.extra["rows"]):
        return [f"werner rows {len(rows)} != {len(ce.extra['rows'])}"]
    for got, ref in zip(rows, ce.extra["rows"]):
        for key in ("x", "S3", "S4", "S3_pt", "S4_pt"):
            if not close(got.get(key, math.nan), ref[key], 1e-12):
                problems.append(f"werner x={ref['x']:.2f} {key} {got.get(key)} != {ref[key]}")
        if got.get("ppt") != ref["ppt"]:
            problems.append(f"werner x={ref['x']:.2f} ppt {got.get('ppt')}")
    if not close(payload.get("boundary", math.nan), ce.extra["boundary"]):
        problems.append(f"werner boundary {payload.get('boundary')}")
    return problems


def _tangle_problems(ce: CliExpect, payload: dict) -> list[str]:
    problems = []
    # tau and the concurrences are square roots of quantities that vanish
    # on rank-deficient marginals, which turns 1e-16 roundoff into ~1e-8.
    for key, tol in (("tau", 1e-6), ("c2_ab", 1e-6), ("c2_ac", 1e-6),
                     ("ckw_lhs", 1e-6), ("ckw_rhs", 1e-9)):
        if not close(payload.get(key, math.nan), ce.extra[key], tol):
            problems.append(f"{key} {payload.get(key)} != {ce.extra[key]}")
    if payload.get("ckw_holds") is not True:
        problems.append("ckw_holds is not true")
    if not payload.get("permutation_spread", math.inf) <= 1e-6:
        problems.append(f"permutation_spread {payload.get('permutation_spread')}")
    return problems


def cli_problems(ce: CliExpect, rc: int, stdout: str, stderr: str) -> list[str]:
    """Problems with one invocation's exit code, stderr and --json payload."""
    case = ce.case
    if case.data.get("malformed"):
        problems = []
        if rc != 1:
            problems.append(f"exit {rc} != 1")
        if not any(line.startswith("error:") for line in stderr.splitlines()):
            problems.append("no 'error:' line")
        if "Traceback" in stderr:
            problems.append("traceback on stderr")
        return problems
    problems = [] if rc == ce.exit_code else [f"exit {rc} != {ce.exit_code}"]
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError:
        payload = None
    if not isinstance(payload, dict):
        return problems + [f"no JSON object on stdout (stderr: {stderr.strip()[-200:]!r})"]
    cmd = case.argv[0]
    if cmd in ("check", "map"):
        problems += _verdict_payload_problems(ce.expect, payload)
        if cmd == "map":
            got = np.asarray(payload.get("image_coherence", []), dtype=float)
            ref = ce.extra["image"]
            if got.shape != ref.shape or np.abs(got - ref).max() > 1e-10:
                problems.append("image_coherence differs")
    elif cmd == "invariants":
        problems += _invariants_problems(ce, payload)
    elif cmd == "werner":
        problems += _werner_problems(ce, payload)
    elif cmd == "tangle":
        problems += _tangle_problems(ce, payload)
    return problems


def cli_known(ce: CliExpect, rc: int, stdout: str, stderr: str,
              problems: list[str]) -> str | None:
    """Which known defect, if any, explains the problems of one invocation."""
    name = ce.case.name
    if name in ("bad-nan", "bad-dim-1"):
        try:
            accepted = rc == 0 and json.loads(stdout).get("verdict") in ("PSD", "Boundary")
        except (json.JSONDecodeError, AttributeError):
            accepted = False
        if accepted:
            return "nan-accepted" if name == "bad-nan" else "dim-1-accepted"
        return None
    if name == "bad-dim-abc":
        tail = stderr.strip().splitlines()[-1:] or [""]
        if rc == 1 and "Traceback" in stderr and tail[0].startswith("ValueError"):
            return "dim-traceback"
        return None
    if ce.case.argv[0] in ("check", "map"):
        try:
            S = json.loads(stdout).get("S")
            return newton_known(ce.expect, S, problems)
        except (json.JSONDecodeError, AttributeError, TypeError, ValueError):
            return None
    return None
