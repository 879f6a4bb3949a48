import json

import numpy as np
import pytest

from blochvec import cli, entanglement
from blochvec.cli import main
from blochvec.documents import (
    amplitudes_document,
    coherence_document,
    dump_json,
    map_document,
    matrix_document,
)

from conftest import (
    EXAMPLE_3X3,
    haar_state,
    hyperdeterminant_tangle,
    pair_concurrence_squared_oracle,
    tangle_oracle,
)


@pytest.fixture
def write_doc(tmp_path):
    counter = iter(range(1000))

    def _write(doc):
        path = tmp_path / f"doc{next(counter)}.json"
        dump_json(doc, str(path))
        return str(path)

    return _write


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_check_maximally_mixed(write_doc, capsys):
    path = write_doc(matrix_document(np.eye(3) / 3))
    code, payload = run_json(capsys, ["check", path, "--json", "--verify"])
    assert code == 0
    assert payload["verdict"] == "PSD"
    assert payload["sign_changes"] == 3
    assert payload["eigenvalue_agreement"] is True


def test_check_indefinite_diag(write_doc, capsys):
    path = write_doc(matrix_document(np.diag([0.5, 0.75, -0.25])))
    code, payload = run_json(capsys, ["check", path, "--json"])
    assert code == 2
    assert payload["verdict"] == "NotPSD"
    assert payload["sign_changes"] == 2


def test_check_inverted_example_matrix(write_doc, capsys):
    path = write_doc(matrix_document(EXAMPLE_3X3))
    code, payload = run_json(capsys, ["check", path, "--invert", "--json"])
    assert code == 2
    assert payload["S"][2] < 0


def test_check_coherence_payload(write_doc, capsys):
    path = write_doc(coherence_document(np.zeros(15), dim=4))
    code, payload = run_json(capsys, ["check", path, "--json"])
    assert code == 0
    assert payload["verdict"] == "PSD"


def test_check_composite_coherence_uses_product_basis(write_doc, capsys):
    # coherence components of a dims-document refer to the product basis;
    # the verdict must match the matrix route on the same operator
    from blochvec import (CompositeLayout, build_product_basis, partial_transpose,
                          to_coherence, werner_state)

    layout = CompositeLayout(dims=(2, 2))
    pt = partial_transpose(werner_state(0.6), layout, 0)
    state = to_coherence(pt, build_product_basis((2, 2)))
    coh_path = write_doc(coherence_document(state.n, dim=4, dims=(2, 2)))
    mat_path = write_doc(matrix_document(pt, dims=(2, 2)))
    code_c, payload_c = run_json(capsys, ["check", coh_path, "--json"])
    code_m, payload_m = run_json(capsys, ["check", mat_path, "--json"])
    assert code_c == code_m == 2
    np.testing.assert_allclose(payload_c["S"], payload_m["S"], atol=1e-12)


def test_invariants_composite_coherence_matches_matrix_route(write_doc, capsys):
    from blochvec import build_product_basis, to_coherence, werner_state

    rho = werner_state(0.3)
    state = to_coherence(rho, build_product_basis((2, 2)))
    coh_path = write_doc(coherence_document(state.n, dim=4, dims=(2, 2)))
    mat_path = write_doc(matrix_document(rho))  # plain dim-4 document
    _, payload_c = run_json(capsys, ["invariants", coh_path, "--json"])
    _, payload_m = run_json(capsys, ["invariants", mat_path, "--json"])
    # invariant values are basis independent
    for k in payload_c["casimirs"]:
        assert payload_c["casimirs"][k] == pytest.approx(payload_m["casimirs"][k],
                                                         abs=1e-10)
    assert payload_c["degeneracy"] == payload_m["degeneracy"]
    assert payload_c["max_discrepancy"] < 1e-10


def test_check_parse_failure(write_doc, capsys, tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["check", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


def test_check_non_hermitian_exits_1(write_doc, capsys):
    path = write_doc(matrix_document(np.array([[1.0, 1.0], [0.0, 0.0]])))
    assert main(["check", path]) == 1
    assert "error:" in capsys.readouterr().err


def test_check_human_readable(write_doc, capsys):
    path = write_doc(matrix_document(np.eye(2) / 2))
    assert main(["check", path]) == 0
    out = capsys.readouterr().out
    assert "verdict: PSD" in out
    assert "S1=1" in out.replace(" ", "")


def test_invariants_command(write_doc, capsys):
    path = write_doc(matrix_document(np.diag([0.5, 0.3, 0.2])))
    code, payload = run_json(capsys, ["invariants", path, "--json", "--max-order", "6"])
    assert code == 0
    assert payload["max_discrepancy"] < 1e-10
    assert payload["trace_powers"]["2"]["closed"] == pytest.approx(0.38, abs=1e-12)
    assert payload["casimirs"]["2"] == pytest.approx(0.07, abs=1e-12)
    assert payload["casimirs"]["3"] == pytest.approx(0.01, abs=1e-12)
    assert payload["degeneracy"] == "NonDegenerate"


@pytest.mark.parametrize("order", [-3, 0, 1, 10, 12])
@pytest.mark.parametrize("dim", [2, 3], ids=["qubit", "qutrit"])
def test_invariants_unsupported_order(write_doc, capsys, dim, order):
    path = write_doc(matrix_document(np.eye(dim) / dim))
    assert main(["invariants", path, "--max-order", str(order)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "--max-order" in captured.err


@pytest.mark.parametrize("sweep", ["-1", "0"])
def test_werner_sweep_below_one_is_refused(capsys, sweep):
    assert main(["werner", "--sweep", sweep]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "--sweep" in captured.err


def test_werner_single_point(capsys):
    code, payload = run_json(capsys, ["werner", "--x", "0.6", "--json"])
    assert code == 0
    row = payload["rows"][0]
    assert row["ppt"] is False
    assert row["S3_pt"] < 0 and row["S4_pt"] < 0


def test_werner_sweep_boundary(capsys):
    code, payload = run_json(capsys, ["werner", "--sweep", "11", "--json"])
    assert code == 0
    assert len(payload["rows"]) == 11
    assert payload["boundary"] == pytest.approx(1 / 3, abs=1e-6)
    seps = [row["ppt"] for row in payload["rows"]]
    assert seps[0] is True and seps[-1] is False


def test_tangle_ghz(write_doc, capsys):
    ghz = np.zeros(8)
    ghz[0] = ghz[7] = 1 / np.sqrt(2)
    path = write_doc(amplitudes_document(ghz))
    code, payload = run_json(capsys, ["tangle", path, "--json"])
    assert code == 0
    assert payload["tau"] == pytest.approx(1.0, abs=1e-8)
    assert payload["ckw_holds"] is True
    assert payload["permutation_spread"] <= 1e-8


def test_tangle_w_state(write_doc, capsys):
    w = np.zeros(8)
    w[1] = w[2] = w[4] = 1 / np.sqrt(3)
    path = write_doc(amplitudes_document(w))
    code, payload = run_json(capsys, ["tangle", path, "--json"])
    assert code == 0
    assert payload["tau"] == pytest.approx(0.0, abs=1e-8)
    assert payload["ckw_lhs"] == pytest.approx(8 / 9, abs=1e-8)
    assert payload["ckw_rhs"] == pytest.approx(8 / 9, abs=1e-8)


def test_tangle_product_state(write_doc, capsys):
    psi = np.zeros(8)
    psi[0] = 1.0
    path = write_doc(amplitudes_document(psi))
    code, payload = run_json(capsys, ["tangle", path, "--json"])
    assert code == 0
    for key in ("tau", "c2_ab", "c2_ac", "ckw_lhs", "ckw_rhs"):
        assert payload[key] == pytest.approx(0.0, abs=1e-8)


def test_tangle_haar_kets_match_oracles(write_doc, capsys):
    rng = np.random.default_rng(17)
    for _ in range(12):
        psi = haar_state(8, rng)
        code, payload = run_json(capsys, ["tangle", write_doc(amplitudes_document(psi)), "--json"])
        assert code == 0
        assert payload["tau"] == pytest.approx(tangle_oracle(psi), abs=1e-8)
        assert payload["tau"] == pytest.approx(hyperdeterminant_tangle(psi), abs=1e-8)
        c2_ab = pair_concurrence_squared_oracle(psi, ("A", "B"))
        c2_ac = pair_concurrence_squared_oracle(psi, ("A", "C"))
        assert payload["c2_ab"] == pytest.approx(c2_ab, abs=1e-7)
        assert payload["c2_ac"] == pytest.approx(c2_ac, abs=1e-7)
        assert payload["ckw_lhs"] == pytest.approx(c2_ab + c2_ac, abs=1e-7)
        assert payload["ckw_rhs"] - payload["ckw_lhs"] == pytest.approx(payload["tau"], abs=1e-7)
        assert payload["ckw_holds"] is True
        assert payload["permutation_spread"] <= 1e-12


def test_tangle_takes_four_partial_traces(write_doc, capsys, monkeypatch):
    """rho_A, rho_AB, rho_AC and rho_BC feed the whole report."""
    kept = []
    real = entanglement.partial_trace

    def counting(rho, layout, keep):
        kept.append(tuple(keep))
        return real(rho, layout, keep)

    monkeypatch.setattr(entanglement, "partial_trace", counting)
    ghz = np.zeros(8)
    ghz[0] = ghz[7] = 1 / np.sqrt(2)
    for psi in (ghz, haar_state(8, np.random.default_rng(3))):
        kept.clear()
        assert main(["tangle", write_doc(amplitudes_document(psi)), "--json"]) == 0
        capsys.readouterr()
        assert len(kept) <= 4


def test_tangle_unnormalized_exits_1(write_doc, capsys):
    path = write_doc(amplitudes_document(np.ones(8)))
    assert main(["tangle", path]) == 1


def test_map_identity_keeps_verdict(write_doc, capsys):
    rng = np.random.default_rng(5)
    g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    state_path = write_doc(matrix_document(rho))
    map_path = write_doc(map_document(np.eye(8), np.zeros(8), dim=3))
    code, payload = run_json(capsys, ["map", map_path, state_path, "--json"])
    assert code == 0
    assert payload["verdict"] in ("PSD", "Boundary")


def test_map_zero_gives_maximally_mixed(write_doc, capsys):
    state_path = write_doc(matrix_document(np.diag([1.0, 0.0, 0.0])))
    map_path = write_doc(map_document(np.zeros((8, 8)), np.zeros(8), dim=3))
    code, payload = run_json(capsys, ["map", map_path, state_path, "--json"])
    assert code == 0
    assert np.abs(payload["image_coherence"]).max() == 0.0
    assert payload["verdict"] == "PSD"


def test_map_inversion_on_example_matrix(write_doc, capsys):
    state_path = write_doc(matrix_document(EXAMPLE_3X3))
    map_path = write_doc(map_document(-np.eye(8), np.zeros(8), dim=3))
    code, payload = run_json(capsys, ["map", map_path, state_path, "--json"])
    assert code == 2
    assert payload["verdict"] == "NotPSD"


def test_map_shape_mismatch(write_doc, capsys):
    state_path = write_doc(matrix_document(np.eye(4) / 4))
    map_path = write_doc(map_document(np.eye(8), np.zeros(8), dim=3))
    assert main(["map", map_path, state_path]) == 1


def test_cli_verdict_equals_library_call(write_doc, capsys):
    from blochvec import check_positivity

    rng = np.random.default_rng(8)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    mat = (g + g.conj().T) / 2
    mat += (1 - np.trace(mat).real) / 4 * np.eye(4)
    path = write_doc(matrix_document(mat))
    _, payload = run_json(capsys, ["check", path, "--json"])
    seq = check_positivity(mat)
    assert payload["verdict"] == seq.verdict.value
    assert payload["sign_changes"] == seq.sign_changes
    np.testing.assert_allclose(payload["S"], seq.S, atol=0)


def test_rank_deficient_coherence_documents_read_boundary(write_doc, capsys):
    # the CLI gates coherence vectors as the library does, so power traces
    # cannot flip the sign of the vanishing S_16 of a rank 15 state
    from blochvec import build_gellmann_basis, to_coherence

    from conftest import random_density_matrix

    basis = build_gellmann_basis(16)
    rng = np.random.default_rng(7)
    identity = write_doc(map_document(np.eye(255), np.zeros(255), dim=16))
    verdicts = []
    for _ in range(20):
        n = to_coherence(random_density_matrix(16, rng, rank=15), basis).n
        path = write_doc(coherence_document(n, dim=16))
        for argv in (["check", path], ["map", identity, path]):
            code, payload = run_json(capsys, argv + ["--json"])
            verdicts.append((code, payload["verdict"], payload["sign_changes"]))
    assert verdicts == [(0, "Boundary", 15)] * 40


def test_werner_domain_error(capsys):
    assert main(["werner", "--x", "1.5"]) == 1
    assert "error:" in capsys.readouterr().err


def test_tangle_wrong_length_exits_1(write_doc, capsys):
    path = write_doc(amplitudes_document(np.array([1.0, 0.0, 0.0, 0.0])))
    assert main(["tangle", path]) == 1


def test_invariants_qubit_has_only_quadratic(write_doc, capsys):
    path = write_doc(matrix_document(np.diag([0.75, 0.25])))
    code, payload = run_json(capsys, ["invariants", path, "--json", "--max-order", "4"])
    assert code == 0
    assert list(payload["casimirs"]) == ["2"]
    assert payload["casimirs"]["2"] == pytest.approx(0.25, abs=1e-12)
    assert "degeneracy" not in payload


def test_invariants_four_level_degeneracy_line(write_doc, capsys):
    path = write_doc(matrix_document(np.diag([0.5, 0.5, 0.0, 0.0])))
    code, payload = run_json(capsys, ["invariants", path, "--json", "--max-order", "4"])
    assert code == 0
    assert payload["degeneracy"] == "PatternAABB"


def test_invariants_near_maximally_mixed_pair_is_not_threefold(write_doc, capsys):
    # one degenerate pair, all invariants beyond the quadratic below EPS_ZERO
    path = write_doc(matrix_document(np.diag([0.25, 0.25, 0.2501, 0.2499])))
    assert main(["invariants", path]) == 0
    out = capsys.readouterr().out
    assert "degeneracy: Unresolved" in out
    assert "PatternABBB" not in out


@pytest.mark.parametrize("spectrum", [
    [0.5, 0.3, 0.2], [0.8, 0.1, 0.1], [1 / 3 + 1e-5, 1 / 3, 1 / 3 - 1e-5],
    [0.5, 0.5, 0.0, 0.0], [0.1, 0.3, 0.3, 0.3], [0.4, 0.3, 0.2, 0.1],
])
def test_invariants_label_does_not_depend_on_max_order(write_doc, capsys, spectrum):
    path = write_doc(matrix_document(np.diag(spectrum)))
    labels = set()
    for order in ("2", "3", "6"):
        code, payload = run_json(capsys, ["invariants", path, "--json", "--max-order", order])
        assert code == 0
        labels.add(payload["degeneracy"])
    assert len(labels) == 1


def test_tol_env_override(write_doc, capsys, monkeypatch):
    # slightly indefinite matrix: strict tolerance rejects, loose accepts
    mat = np.diag([0.6, 0.4 + 5e-7, -5e-7])
    path = write_doc(matrix_document(mat))
    monkeypatch.setenv("BLOCHVEC_TOL", "1e-12")
    assert main(["check", path]) == 2
    monkeypatch.setenv("BLOCHVEC_TOL", "1e-3")
    assert main(["check", path]) == 0
    monkeypatch.delenv("BLOCHVEC_TOL")
    capsys.readouterr()
    assert main(["check", path, "--tol", "1e-12"]) == 2


@pytest.mark.parametrize("doc", [
    {"format": "blochvec/1", "dim": 2,
     "matrix": [[[float("nan"), 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]},
    {"format": "blochvec/1", "dim": 2, "coherence": [float("nan"), 0.1, 0.2]},
    {"format": "blochvec/1", "dim": "abc", "coherence": [0.1, 0.2, 0.3]},
    {"format": "blochvec/1", "dim": 1, "matrix": [[[1.0, 0.0]]]},
    # np.prod of these dims wraps in int64 to 4
    {"format": "blochvec/1", "dim": 4, "dims": [2**62 + 1, 4],
     "matrix": [[[0.25 * (i == j), 0.0] for j in range(4)] for i in range(4)]},
    # numpy would read true as 1 and "0" as 0
    {"format": "blochvec/1", "dim": 2, "matrix": [[[True, 0], [0, 0]], [[0, 0], ["0", 0]]]},
    {"format": "blochvec/1", "dim": 2, "coherence": [10**400, 0.0, 0.0]},
    {"format": "blochvec/1", "dim": 2, "T": [["1", 0, 0], [0, 1, 0], [0, 0, 1]], "t": [0, 0, 0]},
], ids=["nan-matrix", "nan-coherence", "dim-abc", "dim-1", "dims-overflow", "bool-string-matrix",
        "int-beyond-float", "string-in-map"])
def test_malformed_documents_exit_1(tmp_path, capsys, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    state = tmp_path / "state.json"
    dump_json(coherence_document(np.zeros(3), 2), str(state))
    argvs = ([["map", str(path), str(state)]] if "T" in doc
             else [["check", str(path), "--json"], ["invariants", str(path)]])
    for argv in argvs:
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")


def test_coherence_vector_beyond_the_closed_report_is_gated_or_refused(write_doc, capsys):
    # from |n| of about 4e38 the closed invariants overflow: check falls back
    # to La Budde, invariants reports the overflow; neither lets numpy warn
    # (a RuntimeWarning fails the test under filterwarnings = error)
    for exponent in range(30, 81):
        n = np.zeros(8)
        n[0] = 10.0**exponent
        path = write_doc(coherence_document(n, 3))
        code, payload = run_json(capsys, ["check", path, "--json"])
        assert (code, payload["verdict"]) == (2, "NotPSD")
        if exponent <= 38:
            assert run_json(capsys, ["invariants", path, "--json"])[0] == 0
        else:
            assert main(["invariants", path]) == 1
            assert capsys.readouterr().err.startswith("error:")


def test_malformed_tol_env_exits_1(write_doc, capsys, monkeypatch):
    monkeypatch.setenv("BLOCHVEC_TOL", "abc")
    assert main(["check", write_doc(matrix_document(np.eye(2) / 2))]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_werner_sweep_above_limit_is_refused(capsys, monkeypatch):
    def refuse(x, tol):
        raise AssertionError("a refused sweep evaluated a row")

    monkeypatch.setattr(cli, "_werner_row", refuse)
    assert main(["werner", "--sweep", str(cli.MAX_SWEEP + 1)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "--sweep" in captured.err


@pytest.mark.parametrize("command", ["check", "invariants"])
def test_oversized_coherence_document_is_refused(write_doc, capsys, command):
    import tracemalloc

    # five qutrits pass the parser; their product basis would be 59048
    # elements of 243 x 243, about 56 GB
    dims = (3,) * 5
    path = write_doc(coherence_document(np.zeros(243**2 - 1), 243, dims))
    tracemalloc.start()
    try:
        cli._load_document(path)
        parsing = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        code = main([command, path])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "up to N = 64" in captured.err
    assert peak - parsing < 1 << 20  # refused before any basis work


def test_oversized_matrix_document_is_refused(write_doc, capsys):
    import tracemalloc

    path = write_doc(matrix_document(np.eye(65) / 65))
    tracemalloc.start()
    try:
        cli._load_document(path)
        parsing = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        code = main(["check", path])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "up to N = 64" in captured.err
    assert peak - parsing < 1 << 20  # refused before any gate work


def test_matrix_document_at_the_size_limit_is_checked(write_doc, capsys):
    code, payload = run_json(capsys, ["check", write_doc(matrix_document(np.eye(64) / 64)),
                                      "--json"])
    assert (code, payload["dim"], payload["verdict"]) == (0, 64, "PSD")


def test_werner_sweep_at_limit_is_accepted(capsys, monkeypatch):
    def stub(x, tol):
        return {"x": x, "S3": 0.0, "S4": 0.0, "S3_pt": 0.0, "S4_pt": 0.0, "ppt": True}

    monkeypatch.setattr(cli, "_werner_row", stub)
    code, payload = run_json(capsys, ["werner", "--sweep", str(cli.MAX_SWEEP), "--json"])
    assert code == 0
    assert len(payload["rows"]) == cli.MAX_SWEEP == 10_000
