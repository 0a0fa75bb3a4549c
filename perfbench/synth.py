"""grammar-synth: trace-to-spec synthesis over a fixed derivation corpus.

A closed loop with one caller.  Set-up samples :data:`CORPUS` derivations
from ``default_grammar()``, simulates each under a ``RecorderTracer`` at
the benchmark seed and keeps the posix-layer records as the monitored
target (untimed).  One operation is one pass of ``wgen.synthesize`` over
every target, visited in an order drawn from the benchmark seed; the
corpus is fixed so that a pass costs the same work under every seed
(per-target costs differ by 6x).
"""

from __future__ import annotations

import random
import statistics
import time
from typing import Any, Dict, List

import layers
from common import Checks, Deadline

#: Derivation seeds of the corpus, sampled with :data:`RANKS` ranks.
CORPUS = (0, 1, 2, 3, 4, 5)
SMOKE_CORPUS = (3, 4)
RANKS = 2


class Ctx:
    def __init__(self, seed: int, smoke: bool):
        from repro.monitoring import RecorderTracer
        from repro.scenario import run_scenario
        from repro.wgen import default_grammar, sample, target_ops

        self.grammar = default_grammar()
        self.targets = []
        for dseed in (SMOKE_CORPUS if smoke else CORPUS):
            derivation = sample(self.grammar, seed=dseed, n_ranks=RANKS)
            tracer = RecorderTracer()
            run_scenario(derivation.scenario_spec(seed=seed),
                         observers=[tracer])
            ops = target_ops(tracer.archive.at_layer("posix"))
            self.targets.append((dseed, ops, max(op.rank for op in ops) + 1))
        random.Random(seed).shuffle(self.targets)
        self.recovered: Dict[int, tuple] = {}

    def one_pass(self, checks: Checks) -> tuple:
        """Synthesize every target once; (seconds, failed targets)."""
        import repro.wgen as wgen  # looked up per pass: tracing rebinds it
        from repro.modeling import DISTANCE_THRESHOLD

        failed = 0
        start = time.perf_counter()
        results = [(dseed, wgen.synthesize(ops, grammar=self.grammar,
                                           n_ranks=n_ranks))
                   for dseed, ops, n_ranks in self.targets]
        seconds = time.perf_counter() - start
        for dseed, result in results:
            bad = not checks.check(
                "ok_at_threshold",
                result.ok and result.threshold == DISTANCE_THRESHOLD,
                f"derivation seed {dseed}: distance {result.distance:.4f}")
            got = (result.derivation.choices, result.distance)
            first = self.recovered.setdefault(dseed, got)
            bad |= not checks.check("same_derivation_each_pass", got == first,
                                    f"derivation seed {dseed}")
            failed += bad
        return seconds, failed


def prepare(workload: str, seed: int, smoke: bool) -> Ctx:
    return Ctx(seed, smoke)


def close(ctx: Ctx) -> None:
    pass


def measure(ctx: Ctx, seconds: float, trace: bool) -> Dict[str, Any]:
    checks = Checks("ok_at_threshold", "same_derivation_each_pass")
    times: List[float] = []
    attempted = failed = 0
    out: Dict[str, Any] = {}
    deadline = Deadline(seconds)

    def one(instrument=None):
        nonlocal attempted, failed
        tracer = layers.install(instrument, experiments=False) \
            if instrument else None
        try:
            sec, bad = ctx.one_pass(checks)
        finally:
            if tracer is not None:
                tracer.uninstall()
        attempted += len(ctx.targets)
        failed += bad
        return sec

    if not trace:
        while len(times) < 2 or not deadline.passed():
            times.append(one())
    else:
        times.append(one())
        counting = layers.Tracer(timing=False)
        one(counting)
        tracer = layers.Tracer(timing=True)
        traced = one(tracer)
        out["trace_overhead_ratio"] = traced / times[0]
        out["snapshots"] = [tracer.snapshot()]
        out["count_snapshots"] = [counting.snapshot()]
        out["labels"] = {tracer.pid: "benchmark (grammar-synth)"}
    n = len(ctx.targets)
    out.update({
        "op_seconds": times,
        "attempted": attempted,
        "failed": failed,
        "checks": checks,
        "ops_label": f"synthesis pass over {n} targets",
        "named_metrics": {"synth_s": (statistics.median(times) / n, "s")},
        "extra": {"corpus": [d for d, _o, _r in ctx.targets],
                  "ranks": RANKS},
    })
    return out
