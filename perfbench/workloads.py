"""The three workloads and the closed loop that drives them.

One client, closed loop: each call starts only after the previous one
returned.  A loop runs whole passes over the seeded inputs (in their
shuffled order) until the time spent inside passes reaches the requested
seconds, so every run holds the same mix.  Outputs are checked between
passes, outside the timed region.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys
from array import array
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from . import inputs, oracle, tracing

SETUP_SAMPLES = 11
CHILD_TIMEOUT_S = 120
MIN_BEYOND = 10
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


# ---------------------------------------------------------------- loop


@dataclass
class Loop:
    """What one closed loop measured."""

    ops: int = 0
    busy_s: float = 0.0
    passes: int = 0
    latency: dict[str, array] = field(
        default_factory=lambda: {"small": array("d"), "large": array("d")})
    first_pass: list = field(default_factory=list)

    @property
    def ops_per_s(self) -> float:
        return self.ops / self.busy_s


def closed_loop(items, call, seconds: float, on_pass, tracer=None,
                span_budget: int | None = None, between=None,
                min_passes: int = 1) -> Loop:
    """Run ``call(i)`` over every input index, pass after pass, until
    ``seconds`` of passes and at least ``min_passes`` passes are done.

    ``on_pass(outputs, roots)`` judges a finished pass; ``roots`` holds
    the index of each operation's root span when traced, else it is empty.
    An exception raised by ``call`` is kept as that operation's output, so
    it counts as a failure.
    A traced loop also stops once ``span_budget`` spans are held.
    ``between(busy_s)``, if given, runs after each pass, outside the timing.
    """
    loop = Loop()
    classes = [item.cls for item in items]
    indices = range(len(items))
    while True:
        outputs, times, roots = [], [], []
        start = perf_counter()
        for i in indices:
            t0 = perf_counter()
            try:
                if tracer is None:
                    out = call(i)
                else:
                    tracer.op = loop.ops + i
                    roots.append(len(tracer.spans))
                    with tracer.span("op"):
                        out = call(i)
            except Exception as exc:  # a failed operation, judged by on_pass
                out = exc
            times.append(perf_counter() - t0)
            outputs.append(out)
        loop.busy_s += perf_counter() - start
        for cls, t in zip(classes, times):
            loop.latency[cls].append(t)
        if not loop.first_pass:
            loop.first_pass = outputs
        on_pass(outputs, roots)
        loop.ops += len(items)
        loop.passes += 1
        if between is not None:
            between(loop.busy_s)
        if loop.busy_s >= seconds and loop.passes >= min_passes:
            return loop
        if span_budget is not None and len(tracer.spans) >= span_budget:
            return loop


def percentile(values: np.ndarray, pct: float) -> tuple[float, int]:
    """Nearest-rank percentile of sorted ``values`` and the count beyond it."""
    rank = max(1, math.ceil(pct / 100.0 * values.size))
    return float(values[rank - 1]), values.size - rank


def min_passes(items, pct: float) -> int:
    """Fewest whole passes over ``items`` that put at least ``MIN_BEYOND``
    samples of each size class beyond the ``pct`` percentile."""
    counts = Counter(item.cls for item in items).values()
    passes = 1
    while any(n * passes - max(1, math.ceil(pct / 100.0 * n * passes)) < MIN_BEYOND
              for n in counts):
        passes += 1
    return passes


def latency_metrics(loop: Loop, tail_pct: float) -> tuple[dict, dict]:
    """End-to-end latency metrics in ms, plus the samples behind each tail."""
    metrics, notes = {}, {}
    for cls in ("small", "large"):
        if not loop.latency[cls]:
            raise RuntimeError(f"no {cls} operations were measured")
        values = np.sort(np.asarray(loop.latency[cls]))
        value, beyond = percentile(values, tail_pct)
        metrics[f"latency_p50_ms.{cls}"] = percentile(values, 50.0)[0] * 1e3
        metrics[f"latency_tail_ms.{cls}"] = value * 1e3
        notes[cls] = {"samples": values.size, "tail_percentile": tail_pct,
                      "beyond_tail": beyond}
    return metrics, notes


# ---------------------------------------------------------------- set-up


def child_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    for var in PINNED:
        env[var] = "1"
    return env


IMPORT_PROBE = ("import time; t = time.perf_counter(); import blochvec; "
                "print(time.perf_counter() - t)")


class SetupSampler:
    """Set-up timed ``SETUP_SAMPLES`` times, spread evenly over a run so
    that slow and fast stretches of a shared machine average out.

    One sample is ``import blochvec`` in a fresh interpreter plus, for a
    warm workload, emptying blochvec's caches and redoing its lazy builds.
    """

    def __init__(self, env: dict, cwd: str, seconds: float, build=None):
        self.env, self.cwd, self.seconds, self.build = env, cwd, seconds, build
        self.imports: list[float] = []
        self.builds: list[float] = []

    def sample(self) -> None:
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=self.env,
                              cwd=self.cwd, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=True)
        self.imports.append(float(proc.stdout.strip().splitlines()[-1]))
        if self.build is not None:
            tracing.clear_caches()
            t0 = perf_counter()
            self.build()
            self.builds.append(perf_counter() - t0)

    def catch_up(self, busy_s: float) -> None:
        share = min(1.0, busy_s / self.seconds) if self.seconds > 0 else 1.0
        while len(self.imports) < 1 + int((SETUP_SAMPLES - 1) * share):
            self.sample()

    @property
    def setup_s(self) -> float:
        return statistics.median(self.imports) + (
            statistics.median(self.builds) if self.builds else 0.0)


def tensors_for(layout: tuple[int, ...]):
    import blochvec

    if len(layout) == 1:
        return blochvec.gellmann_tensors(layout[0])
    return blochvec.product_tensors(layout)


# ---------------------------------------------------------------- library


class LibraryWorkload:
    """Shared parts of the two warm in-process workloads.

    ``tail_pct`` is the fixed tail percentile of a workload: the highest
    of p99, p95, p90 and p75 with ``MIN_BEYOND`` samples beyond it in a
    run of the usual length.  A run goes on past its seconds until every
    size class has them (``min_passes``), so every run of a workload, fast
    or slow, reports the same percentile.
    """

    name = ""
    tail_pct = 99.0
    items: list
    expect: list

    def build(self) -> None:
        """The lazy first-call builds the workload needs."""
        for layout in self.layouts:
            tensors_for(layout)

    @staticmethod
    def comparable(out):
        if isinstance(out, Exception):
            return repr(out)
        return tuple(tuple(x) if isinstance(x, np.ndarray) else x for x in out)

    def judge(self, tally: oracle.Tally, outputs) -> None:
        """``outputs[i]`` starts with (verdict, sign changes, S)."""
        for i, (item, exp, out) in enumerate(zip(self.items, self.expect, outputs)):
            if isinstance(out, Exception):
                problems, known = [f"exception {type(out).__name__}: {out}"], None
            else:
                problems = self.problems(exp, out)
                known = oracle.newton_known(exp, out[2], problems)
            tally.record(i, item.cls, f"{item.layout_name}/{item.kind}", problems, known)


class GateMatrix(LibraryWorkload):
    """``check_positivity`` on Hermitian trace-one matrices."""

    name = "gate-matrix"
    layouts: tuple = ()

    def __init__(self, seed: int):
        self.items = inputs.gate_matrix_inputs(seed)
        self.expect = [oracle.expect_state(item) for item in self.items]

    def bind(self):
        import blochvec

        gate = blochvec.check_positivity
        matrices = [item.matrix for item in self.items]
        return lambda i: self.summarize(gate(matrices[i]))

    @staticmethod
    def summarize(seq):
        return (seq.verdict.value, seq.sign_changes, seq.S)

    @staticmethod
    def problems(exp, out):
        return oracle.gate_problems(exp, out[0], out[1])


class CoherenceInvariants(LibraryWorkload):
    """The coherence route: gate, closed S_2..S_4, Casimirs, trace powers."""

    name = "coherence-invariants"
    tail_pct = 95.0

    def __init__(self, seed: int):
        self.items = inputs.coherence_inputs(seed)
        self.expect = []
        for item in self.items:
            cas, top = oracle.coherence_orders(item.dim)
            self.expect.append(oracle.expect_state(item, casimir_order=cas, trace_order=top))
        self.layouts = tuple(sorted({item.layout for item in self.items}))

    def bind(self):
        import blochvec

        states = [blochvec.CoherenceState(dim=item.dim, n=item.n) for item in self.items]
        gate = blochvec.check_positivity_coherence
        closed = blochvec.closed_S234
        casimirs = blochvec.casimirs
        power = blochvec.trace_power_closed
        orders = [oracle.coherence_orders(item.dim) for item in self.items]
        layouts = [item.layout for item in self.items]

        def op(i):
            state, (cas_order, top) = states[i], orders[i]
            tensors = tensors_for(layouts[i])
            seq = gate(state, tensors)
            s234 = closed(state, tensors)
            cas = casimirs(state, tensors, up_to=cas_order) if cas_order else None
            traces = [power(state, m, tensors) for m in range(2, top + 1)]
            return self.summarize((seq, s234, cas, traces))

        return op

    @staticmethod
    def summarize(out):
        seq, s234, cas, traces = out
        values = None if cas is None else tuple(cas.values[m] for m in sorted(cas.values))
        return (seq.verdict.value, seq.sign_changes, seq.S, tuple(s234), values,
                tuple(traces))

    @staticmethod
    def problems(exp, out):
        return oracle.coherence_problems(exp, out)


# ---------------------------------------------------------------- CLI


class CliCold:
    """One fresh ``python -m blochvec`` process per document."""

    name = "cli-cold"
    tail_pct = 75.0  # see LibraryWorkload

    def __init__(self, seed: int, workdir: str, src: str):
        self.items = inputs.cli_cases(seed)
        self.expect = [oracle.expect_cli(case) for case in self.items]
        self.workdir = workdir
        self.env = child_env(src)
        self.shim = os.path.join(os.path.dirname(os.path.abspath(__file__)), "traced_cli.py")

    def write_documents(self) -> None:
        for case in self.items:
            for fname, doc in case.files.items():
                with open(os.path.join(self.workdir, fname), "w", encoding="utf-8") as fh:
                    json.dump(doc, fh)

    def spans_path(self, i: int) -> str:
        return os.path.join(self.workdir, f"spans-{i}.json")

    def bind(self, traced: bool = False):
        def op(i):
            case = self.items[i]
            prefix = ([self.shim, self.spans_path(i)] if traced else ["-m", "blochvec"])
            proc = subprocess.run([sys.executable, *prefix, *case.argv], cwd=self.workdir,
                                  env=self.env, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
            return proc.returncode, proc.stdout, proc.stderr

        return op

    def judge(self, tally: oracle.Tally, outputs) -> None:
        for i, (case, ce, out) in enumerate(zip(self.items, self.expect, outputs)):
            if isinstance(out, Exception):
                tally.record(i, case.cls, case.name, [f"exception {out!r}"], None)
                continue
            problems = oracle.cli_problems(ce, *out)
            known = oracle.cli_known(ce, *out, problems) if problems else None
            tally.record(i, case.cls, case.name, problems, known)

    @staticmethod
    def comparable(out):
        """Exit code, payload and last stderr line: what tracing must not change."""
        if isinstance(out, Exception):
            return repr(out)
        rc, stdout, stderr = out
        return rc, stdout, (stderr.strip().splitlines() or [""])[-1]
