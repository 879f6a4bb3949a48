#!/usr/bin/env python3
"""Benchmark of blochvec, measured from outside the library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-spec    # regenerate BENCHMARK.json

Run it from the root of a checkout that holds ``src/blochvec``; nothing
needs building.  Workloads: ``gate-matrix``, ``coherence-invariants`` and
``cli-cold`` (see ``spec.py``).  One client drives a closed loop on one
process with BLAS pinned to one thread.  ``--trace 0`` measures the
end-to-end metrics; ``--trace 1`` spends half the time untraced and half
traced, reports the per-layer metrics and the tracing overhead, and
requires every traced output to equal the untraced one.

Every output is checked against the eigenvalue oracle in ``oracle.py``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``attempted``
counts the distinct seeded operations and ``failed`` those that failed on
any pass, so both depend on the seed alone; ``failed / attempted`` is the
fail ratio.  A full report (mix, machine, tails, failures, span table) is
written to ``perfbench/out/``.
"""

import os

PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in PINNED:  # before numpy is imported anywhere in this process
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SPAN_BUDGET = 300_000

sys.path.insert(0, str(ROOT))
from perfbench import inputs, oracle, spec, tracing, workloads  # noqa: E402

WORKLOADS = {
    "gate-matrix": lambda seed, workdir: workloads.GateMatrix(seed),
    "coherence-invariants": lambda seed, workdir: workloads.CoherenceInvariants(seed),
    "cli-cold": lambda seed, workdir: workloads.CliCold(seed, workdir, str(SRC)),
}


def machine_record() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "pinning": {var: os.environ.get(var) for var in PINNED},
        "platform": platform.platform(),
    }


def measure(wl, seconds: float, workdir: str):
    """End-to-end run: set-up, then the closed loop with tracing off."""
    cli = isinstance(wl, workloads.CliCold)
    setup = workloads.SetupSampler(workloads.child_env(str(SRC)), workdir, seconds,
                                   build=None if cli else wl.build)
    setup.sample()
    if cli:
        wl.write_documents()
    tally = oracle.Tally()
    loop = workloads.closed_loop(wl.items, wl.bind(), seconds,
                                 lambda outputs, roots: wl.judge(tally, outputs),
                                 between=setup.catch_up,
                                 min_passes=workloads.min_passes(wl.items, wl.tail_pct))
    latency, tails = workloads.latency_metrics(loop, wl.tail_pct)
    who = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
    metrics = {
        "setup_s": setup.setup_s,
        "ops_per_s": loop.ops_per_s,
        **latency,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    details = {"setup": {"import_s": setup.imports, "build_s": setup.builds},
               "loop": {"ops": loop.ops, "passes": loop.passes, "busy_s": loop.busy_s},
               "latency": tails}
    return metrics, tally, details, []


def measure_traced(wl, seconds: float, seed: int):
    """Per-layer run: an untraced half, then a traced half that must give
    the same outputs."""
    cli = isinstance(wl, workloads.CliCold)
    if cli:
        wl.write_documents()
    else:
        wl.build()
    tally = oracle.Tally()
    plain = workloads.closed_loop(wl.items, wl.bind(), seconds / 2,
                                  lambda outputs, roots: wl.judge(tally, outputs))
    reference = [wl.comparable(out) for out in plain.first_pass]
    tracer = tracing.Tracer()
    mismatches = []

    def on_pass(outputs, roots):
        wl.judge(tally, outputs)
        for i, (out, ref) in enumerate(zip(outputs, reference)):
            if wl.comparable(out) != ref and len(mismatches) < 20:
                mismatches.append(f"traced output of input {i} differs from untraced")
        if cli:
            for i, root in enumerate(roots):
                path = wl.spans_path(i)
                if os.path.exists(path):
                    with open(path, encoding="utf-8") as fh:
                        tracer.merge(json.load(fh), root)
                    os.remove(path)

    if cli:
        traced = workloads.closed_loop(wl.items, wl.bind(traced=True), seconds / 2,
                                       on_pass, tracer, SPAN_BUDGET)
        cold_starts = traced.ops
    else:
        tracing.clear_caches()
        restore = tracing.instrument(tracer)
        try:
            with tracer.span("setup"):
                wl.build()
            traced = workloads.closed_loop(wl.items, wl.bind(), seconds / 2,
                                           on_pass, tracer, SPAN_BUDGET)
        finally:
            restore()
        cold_starts = 1
    # Both halves share one tally: their outputs are required to be equal.
    agree = {cls: tally.agree_ratio(cls) for cls in ("small", "large")}
    metrics = tracing.layer_metrics(tracer, traced.ops, cold_starts, agree,
                                    traced.ops_per_s - plain.ops_per_s)
    spans_file = OUT / f"spans-{wl.name}-seed{seed}.json"
    table = tracing.aggregate(tracer.spans)
    tracing.dump(str(spans_file), {"fields": ["name", "start", "end", "parent", "op"],
                                   **tracer.to_json()})
    details = {"untraced": {"ops": plain.ops, "ops_per_s": plain.ops_per_s},
               "traced": {"ops": traced.ops, "ops_per_s": traced.ops_per_s,
                          "spans": len(tracer.spans), "spans_file": str(spans_file)},
               "span_table": table}
    return metrics, tally, details, mismatches


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json at the repository root and exit")
    args = parser.parse_args(argv)
    if not args.write_spec and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.write_spec:
        spec.write(str(ROOT / "BENCHMARK.json"))
        return 0
    if not (SRC / "blochvec" / "__init__.py").is_file():
        print(f"error: no blochvec sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import blochvec

    if Path(blochvec.__file__).resolve().parent != SRC / "blochvec":
        print(f"error: imported blochvec from {blochvec.__file__}, not {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
              f"trace {args.trace}")
        machine = machine_record()
        print("machine " + json.dumps(machine))
        mix = inputs.mix_record(wl.items)
        print("mix per pass " + json.dumps(mix))
        if args.trace:
            metrics, tally, details, mismatches = measure_traced(wl, args.seconds, args.seed)
            units = {name: unit for name, unit, _ in spec.PER_LAYER}
        else:
            metrics, tally, details, mismatches = measure(wl, args.seconds, workdir)
            units = {name: unit for name, unit, _, _ in spec.END_TO_END}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tails = details.get("latency", {})
    for name, unit in units.items():
        line = f"{name} = {metrics[name]:.6g} {unit}"
        cls = name.rsplit(".", 1)[-1]
        if name.startswith("latency_tail_ms.") and cls in tails:
            t = tails[cls]
            line += (f"  (p{t['tail_percentile']:g}, {t['samples']} samples, "
                     f"{t['beyond_tail']} beyond)")
        print(line)
    print(f"fail_ratio = {tally.failed / max(tally.attempted, 1):.6g} "
          f"({tally.failed}/{tally.attempted}; known defects {json.dumps(tally.known)}; "
          f"unexpected {tally.unexpected_count})")
    for problem in tally.unexpected[:5] + mismatches[:5]:
        print(f"  FAIL {problem}")
    correct = tally.unexpected_count == 0 and not mismatches
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "correct": correct, "machine": machine,
              "mix_per_pass": mix, "inputs_sha256": inputs.digest(wl.items),
              "metrics": metrics, "tally": tally.as_dict(), "mismatches": mismatches,
              **details}
    report_file = OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(report_file, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    result = {"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
