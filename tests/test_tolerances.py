"""The tolerance table in ``blochvec.errors``: each cutoff is checked at
half and twice its value, and no public function takes a tolerance
besides the verdict band and :meth:`BasisSet.validate`."""

import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import blochvec
from blochvec import errors
from blochvec.cli import main
from blochvec.coherence import require_hermitian, to_coherence
from blochvec.documents import amplitudes_document, dump_json, map_document, matrix_document
from blochvec.entanglement import (
    ckw_inequality_check,
    schmidt_trace_relation,
    tangle_report,
    three_tangle,
    tripartite_marginals,
)
from blochvec.errors import (
    EPS_HERM,
    EPS_KET,
    EPS_POS,
    EPS_ZERO,
    MAX_TOL,
    DomainError,
    HermiticityError,
    NormalizationError,
)
from blochvec.positivity import check_positivity, inversion_bound_check, positivity_verdict
from blochvec.su_basis import build_gellmann_basis

ALLOWED_TOLERANCES = {
    ("blochvec.positivity", "positivity_verdict", "tol"),
    ("blochvec.positivity", "check_positivity", "tol"),
    ("blochvec.su_basis", "BasisSet.validate", "tol"),
}


def test_one_tolerance_table():
    from blochvec import positivity, su_basis

    assert (EPS_HERM, EPS_ZERO, EPS_POS, EPS_KET) == (1e-10, 1e-9, 1e-9, 1e-12)
    assert positivity.EPS_POS is errors.EPS_POS
    assert su_basis.EPS_HERM is errors.EPS_HERM


# diag(0.5, 0.75, -0.25): S = (1, 0.0625, -0.09375), indefinite
INDEFINITE = np.diag([0.5, 0.75, -0.25])


def test_verdict_band_upper_edge():
    assert MAX_TOL >= 1e-3  # the CLI tests set the band to 1e-3
    seq = positivity_verdict([1.0, 0.0625, -0.09375], tol=MAX_TOL)
    assert seq.verdict.value == "NotPSD"
    for tol in (np.nextafter(MAX_TOL, 1.0), 0.5, np.inf, np.nan, -1e-12):
        with pytest.raises(DomainError, match="verdict tolerance"):
            positivity_verdict([1.0, 0.0625, -0.09375], tol=tol)
    # a band of 0.5 called this indefinite state Boundary
    with pytest.raises(DomainError, match="verdict tolerance"):
        check_positivity(INDEFINITE, tol=0.5)
    assert check_positivity(INDEFINITE, tol=MAX_TOL).verdict.value == "NotPSD"


def test_cli_refuses_a_band_above_the_edge(tmp_path, capsys, monkeypatch):
    path = str(tmp_path / "indefinite.json")
    dump_json(matrix_document(INDEFINITE), path)
    assert main(["check", path, "--tol", str(MAX_TOL)]) == 2
    for argv, env in ((["--tol", "0.5"], None), ([], "0.5"),
                      (["--tol", repr(float(np.nextafter(MAX_TOL, 1.0)))], None)):
        if env is None:
            monkeypatch.delenv("BLOCHVEC_TOL", raising=False)
        else:
            monkeypatch.setenv("BLOCHVEC_TOL", env)
        capsys.readouterr()
        assert main(["check", path] + argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "verdict tolerance" in captured.err


def _off_diagonal(d, peak=0.5):
    return np.array([[peak, d], [0.0, peak]], dtype=complex)


@pytest.mark.parametrize("peak", [0.5, 100.0])
def test_hermiticity_cutoff_edges(peak):
    scale = max(1.0, peak)
    require_hermitian(_off_diagonal(0.5 * EPS_HERM * scale, peak))
    with pytest.raises(HermiticityError):
        require_hermitian(_off_diagonal(2.0 * EPS_HERM * scale, peak))


def test_trace_cutoff_edges():
    basis = build_gellmann_basis(2)
    to_coherence(np.eye(2, dtype=complex) * (1.0 + 0.5 * EPS_ZERO) / 2, basis)
    with pytest.raises(NormalizationError):
        to_coherence(np.eye(2, dtype=complex) * (1.0 + 2.0 * EPS_ZERO) / 2, basis)


def _ket(excess):
    psi = np.zeros(8, dtype=complex)
    psi[0] = np.sqrt(1.0 + excess)
    return psi


KET_FUNCTIONS = [tripartite_marginals, three_tangle, ckw_inequality_check,
                 schmidt_trace_relation, tangle_report]


@pytest.mark.parametrize("fn", KET_FUNCTIONS)
def test_ket_norm_cutoff_edges(fn):
    fn(_ket(0.5 * EPS_KET))
    fn(_ket(-0.5 * EPS_KET))
    with pytest.raises(NormalizationError):
        fn(_ket(2.0 * EPS_KET))
    with pytest.raises(NormalizationError):
        fn(_ket(-2.0 * EPS_KET))


@pytest.mark.parametrize("fn", KET_FUNCTIONS)
@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_ket_non_finite_amplitudes_are_refused(fn, bad):
    psi = _ket(0.0)
    psi[3] = bad
    with pytest.raises(DomainError):
        fn(psi)
    with pytest.raises(DomainError):
        fn(np.full(8, bad))


@pytest.mark.parametrize("N", [2, 3, 4, 9])
def test_inversion_family_range_edges(N):
    top = 1.0 / (N - 1)
    for a in (top + 0.5 * EPS_ZERO, -1.0 - 0.5 * EPS_ZERO):
        inversion_bound_check(a, 1.0, N)
    for a in (top + 2.0 * EPS_ZERO, -1.0 - 2.0 * EPS_ZERO):
        with pytest.raises(DomainError):
            inversion_bound_check(a, 1.0, N)


def _public_callables():
    """(module, qualified name, callable) for every public function and
    public method (constructors included) defined in a blochvec module."""
    for info in pkgutil.iter_modules(blochvec.__path__):
        if info.name.startswith("_"):
            continue  # __main__ runs the CLI on import
        mod = importlib.import_module(f"blochvec.{info.name}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                yield mod.__name__, name, obj
            elif inspect.isclass(obj):
                for meth, fn in vars(obj).items():
                    fn = getattr(fn, "__func__", fn)  # staticmethod, classmethod
                    if inspect.isfunction(fn) and (meth == "__init__" or not meth.startswith("_")):
                        yield mod.__name__, f"{name}.{meth}", fn


def test_only_the_verdict_band_and_basis_check_take_a_tolerance():
    found = {
        (mod, qualname, param)
        for mod, qualname, fn in _public_callables()
        for param in inspect.signature(fn).parameters
        if "tol" in param or param == "slack"
    }
    assert found == ALLOWED_TOLERANCES


@pytest.fixture
def docs(tmp_path):
    ghz = np.zeros(8)
    ghz[0] = ghz[7] = 1 / np.sqrt(2)
    paths = {}
    for name, doc in [("ghz", amplitudes_document(ghz)),
                      ("mixed", matrix_document(np.eye(3) / 3)),
                      ("identity", map_document(np.eye(8), np.zeros(8), dim=3))]:
        paths[name] = str(tmp_path / f"{name}.json")
        dump_json(doc, paths[name])
    return paths


@pytest.mark.parametrize("command, doc", [("tangle", "ghz"), ("invariants", "mixed")])
def test_report_commands_refuse_tol(docs, capsys, command, doc):
    with pytest.raises(SystemExit) as exc:
        main([command, docs[doc], "--tol", "1e-3"])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["check", "mixed"], ["map", "identity", "mixed"],
                                  ["werner", "--x", "0.2"]])
def test_gating_commands_take_tol(docs, capsys, argv):
    argv = [docs.get(arg, arg) for arg in argv]
    assert main(argv + ["--tol", "1e-3"]) == 0
