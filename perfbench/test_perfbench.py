"""Tests of the benchmark itself (not collected by the library's test run).

    python -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

from perfbench import inputs, oracle, spec, tracing, workloads  # noqa: E402

WORKLOAD_NAMES = [name for name, _ in spec.WORKLOADS]


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    expected = ({n: u for n, u, _ in spec.PER_LAYER} if trace
                else {n: u for n, u, _, _ in spec.END_TO_END})
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    for name in expected:
        assert f"{name} = " in proc.stdout


def honest_outputs(wl):
    return [(exp.verdict, exp.sign_changes, exp.S) for exp in wl.expect]


def test_checker_flags_planted_wrong_verdict():
    wl = workloads.GateMatrix(seed=5)
    honest = honest_outputs(wl)
    tally = oracle.Tally()
    wl.judge(tally, honest)
    assert tally.failed == 0 and tally.attempted == len(wl.items)

    small = next(i for i, item in enumerate(wl.items) if item.dim == 3)
    planted = list(honest)
    wrong = "PSD" if honest[small][0] == "NotPSD" else "NotPSD"
    planted[small] = (wrong, *honest[small][1:])
    tally = oracle.Tally()
    wl.judge(tally, planted)
    assert tally.failed == 1 and tally.unexpected_count == 1


def test_tally_counts_each_operation_once_whatever_the_passes():
    wl = workloads.GateMatrix(seed=5)
    honest = honest_outputs(wl)
    planted = list(honest)
    planted[0] = ("Boundary" if honest[0][0] != "Boundary" else "PSD", *honest[0][1:])
    tally = oracle.Tally()
    for _ in range(3):
        wl.judge(tally, planted)
    assert tally.attempted == len(wl.items) and tally.failed == 1
    assert tally.unexpected_count == 1


def test_operation_failing_on_some_passes_only_is_unexpected():
    wl = workloads.GateMatrix(seed=5)
    honest = honest_outputs(wl)
    flaky = list(honest)
    flaky[1] = ("Boundary" if honest[1][0] != "Boundary" else "PSD", *honest[1][1:])
    tally = oracle.Tally()
    for outputs in (honest, flaky, honest):
        wl.judge(tally, outputs)
    assert tally.failed == 1 and tally.unexpected_count == 1
    assert "some passes only" in tally.unexpected[0]


def judge_one(wl, index, output):
    """Tally of a pass whose outputs are honest except at ``index``."""
    outputs = honest_outputs(wl)
    outputs[index] = output
    tally = oracle.Tally()
    wl.judge(tally, outputs)
    return tally


def library_output(wl, index):
    import blochvec

    return workloads.GateMatrix.summarize(blochvec.check_positivity(wl.items[index].matrix))


def test_newton_disagreement_on_psd_side_input_is_a_known_failure():
    wl = workloads.GateMatrix(seed=5)
    for i, item in enumerate(wl.items):
        if item.dim == 16 and item.kind == "rankdef":
            out = library_output(wl, i)
            if out[:2] != honest_outputs(wl)[i][:2]:
                break
    else:
        pytest.fail("no Newton-route disagreement at N = 16 for this seed")
    tally = judge_one(wl, i, out)
    assert tally.failed == 1 and tally.known == {"newton-route": 1}


def test_wrong_verdict_on_indefinite_large_input_is_unexpected():
    wl = workloads.GateMatrix(seed=5)
    i = next(i for i, item in enumerate(wl.items)
             if item.dim == 16 and item.kind == "indefinite")
    _, changes, S = library_output(wl, i)
    tally = judge_one(wl, i, ("PSD", changes, S))
    assert tally.failed == 1 and tally.unexpected_count == 1 and not tally.known


def test_wrong_verdict_with_s_beyond_the_newton_bound_is_unexpected():
    wl = workloads.GateMatrix(seed=5)
    i = next(i for i, item in enumerate(wl.items)
             if item.dim == 16 and item.kind == "full")
    exp = wl.expect[i]
    S = exp.S + 1e3 * exp.newton * np.sign(exp.S)
    S[-1] = -abs(S[-1])
    tally = judge_one(wl, i, ("NotPSD", exp.sign_changes - 1, S))
    assert tally.failed == 1 and tally.unexpected_count == 1


def test_checker_flags_planted_wrong_exit_code(tmp_path):
    wl = workloads.CliCold(seed=5, workdir=str(tmp_path), src=str(SRC))
    wl.write_documents()
    index = next(i for i, case in enumerate(wl.items) if case.name == "check-m3-indef")
    rc, stdout, stderr = wl.bind()(index)
    ce = wl.expect[index]
    assert rc == 2 and not oracle.cli_problems(ce, rc, stdout, stderr)

    problems = oracle.cli_problems(ce, 0, stdout, stderr)
    assert problems == ["exit 0 != 2"]
    assert oracle.cli_known(ce, 0, stdout, stderr, problems) is None


def test_checker_flags_high_order_s_k_at_its_own_scale():
    case = next(c for c in inputs.cli_cases(5) if c.name == "check-m9-full")
    ce = oracle.expect_cli(case)
    exp = ce.expect
    assert abs(exp.S[-1]) < 1e-8  # below an absolute 1e-8 cutoff
    payload = {"dim": exp.dim, "S": list(exp.S), "sign_changes": exp.sign_changes,
               "verdict": exp.verdict}
    assert not oracle.cli_problems(ce, 0, json.dumps(payload), "")
    payload["S"][-1] *= 1.5
    problems = oracle.cli_problems(ce, 0, json.dumps(payload), "")
    assert len(problems) == 1 and problems[0].startswith("S_k off: S_9")
    assert oracle.cli_known(ce, 0, json.dumps(payload), "", problems) is None


def test_malformed_document_accepted_is_a_failure():
    case = next(c for c in inputs.cli_cases(5) if c.name == "bad-nan")
    ce = oracle.expect_cli(case)
    payload = json.dumps({"dim": 2, "S": [None, None], "sign_changes": 2, "verdict": "PSD"})
    problems = oracle.cli_problems(ce, 0, payload, "")
    assert problems
    assert oracle.cli_known(ce, 0, payload, "", problems) == "nan-accepted"
    assert not oracle.cli_problems(ce, 1, "", "error: coherence entry is not finite\n")


@pytest.mark.parametrize("make", [inputs.gate_matrix_inputs, inputs.coherence_inputs,
                                  inputs.cli_cases])
def test_same_seed_gives_identical_inputs(make):
    assert inputs.digest(make(11)) == inputs.digest(make(11))
    assert inputs.digest(make(11)) != inputs.digest(make(12))


def test_same_seed_writes_identical_documents(tmp_path):
    written = []
    for name in ("a", "b"):
        workdir = tmp_path / name
        workdir.mkdir()
        workloads.CliCold(seed=11, workdir=str(workdir), src=str(SRC)).write_documents()
        written.append({p.name: p.read_bytes() for p in sorted(workdir.iterdir())})
    assert written[0] == written[1] and written[0]


def test_instrument_restores_the_library():
    import blochvec

    original = blochvec.check_positivity
    tracer = tracing.Tracer()
    restore = tracing.instrument(tracer)
    assert blochvec.check_positivity is not original
    blochvec.check_positivity(np.diag([0.6, 0.4]))
    restore()
    assert blochvec.check_positivity is original
    names = {span[0] for span in tracer.spans}
    assert {"positivity.check_positivity", "positivity.positivity_verdict"} <= names


def test_min_passes_puts_ten_samples_beyond_the_fixed_tail():
    items = inputs.cli_cases(5)  # 16 small and 14 large per pass
    passes = workloads.min_passes(items, 75.0)
    assert passes == 3
    for n in (16 * passes, 14 * passes):
        values = np.arange(1.0, n + 1.0)
        assert workloads.percentile(values, 75.0)[1] >= workloads.MIN_BEYOND
    assert workloads.percentile(np.arange(1.0, 29.0), 75.0)[1] < workloads.MIN_BEYOND


def test_fails_without_the_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", "gate-matrix", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_matches_spec():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == spec.benchmark_json()
