"""Workloads and metrics of the benchmark: the source of BENCHMARK.json
(``python3 perfbench/run.py --write-spec`` rewrites it)."""

from __future__ import annotations

import json

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 30

WORKLOADS = [
    ("gate-matrix",
     "check_positivity on matrices, N 2-16: hermiticity check and positivity stages only, "
     "no su_basis or invariants; carries the Newton-route defects at N 9 and 16"),
    ("coherence-invariants",
     "coherence route with warm caches: S_k gate, closed S_2..S_4, Casimirs and closed "
     "trace powers, dominated by su_basis bilinears that grow like N^6"),
    ("cli-cold",
     "one fresh python -m blochvec per document: pays import, basis and tensor builds and "
     "parsing on every call; includes malformed documents"),
]

# name, unit, better, bound (share of the parent's median).  Timings on a
# shared two-core machine drift by 5-17% between 30 s runs, so every timing
# gets the largest allowed bound; so does peak memory, which moves by up
# to 6% with the order of cache rebuilds during set-up sampling.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("latency_p50_ms.small", "ms", "lower", 0.25),
    ("latency_tail_ms.small", "ms", "lower", 0.25),
    ("latency_p50_ms.large", "ms", "lower", 0.25),
    ("latency_tail_ms.large", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.25),
]

# name, unit, better; each comment names the end-to-end metric the layer
# metric should move, and on which workload.  Structure-constant builds
# count per cold start: the one set-up of a warm workload, or each CLI
# process.  ``*.self_ms`` and ``*.calls`` are per operation.
PER_LAYER = [
    # setup_s on coherence-invariants; latency_p50_ms.large on cli-cold
    ("su_basis.structure_constants.calls", "count", "lower"),
    ("su_basis.structure_constants.ms", "ms", "lower"),
    # peak_rss_mb on coherence-invariants and cli-cold
    ("su_basis.tensor_bytes", "bytes", "lower"),
    # latency_*.large and ops_per_s on coherence-invariants
    ("su_basis.bilinear_calls", "count/op", "lower"),
    ("su_basis.bilinear.self_ms", "ms/op", "lower"),
    # latency_p50_ms.small on gate-matrix
    ("coherence.require_hermitian.p50_us", "us", "lower"),
    # latency_* on cli-cold
    ("coherence.to_coherence.p50_us", "us", "lower"),
    ("coherence.from_coherence.p50_us", "us", "lower"),
    # latency_*.large and ops_per_s on coherence-invariants
    ("invariants.trace_power_adjoint.self_ms", "ms/op", "lower"),
    ("invariants.trace_power_closed.self_ms", "ms/op", "lower"),
    ("invariants.casimirs.self_ms", "ms/op", "lower"),
    # a residual that guards correctness; expected not to move
    ("invariants.closed_adjoint_max_discrepancy", "1", "lower"),
    # latency_* on gate-matrix
    ("positivity.matrix_trace_powers.self_ms", "ms/op", "lower"),
    ("positivity.newton_symmetric_functions.self_ms", "ms/op", "lower"),
    ("positivity.positivity_verdict.self_ms", "ms/op", "lower"),
    # latency_*.small on coherence-invariants
    ("positivity.closed_S234.self_ms", "ms/op", "lower"),
    # fail ratio (failed / attempted) on gate-matrix
    ("positivity.oracle_agree_ratio.small", "ratio", "higher"),
    ("positivity.oracle_agree_ratio.large", "ratio", "higher"),
    # latency_p50_ms.small on cli-cold
    ("documents.load_json.self_ms", "ms/op", "lower"),
    ("documents.parse.self_ms", "ms/op", "lower"),
    ("documents.bytes_read", "bytes/op", "lower"),
    # latency_* and setup_s on cli-cold
    ("cli.import_ms", "ms", "lower"),
    ("cli.main.self_ms", "ms/op", "lower"),
    # latency_tail_ms.small on cli-cold
    ("composite.werner_ppt_boundary.self_ms", "ms/op", "lower"),
    ("composite.partial_transpose.calls", "count/op", "lower"),
    ("entanglement.three_tangle.self_ms", "ms/op", "lower"),
    # traced minus untraced ops_per_s of the same run
    ("trace.overhead_ops_per_s", "1/s", "higher"),
]


def benchmark_json() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def write(path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(benchmark_json(), fh, indent=2)
        fh.write("\n")
