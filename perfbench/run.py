#!/usr/bin/env python3
"""One benchmark for the simulator, the run service and synthesis.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload paper-suite --seed 0 --seconds 15 --trace 0

Workloads: ``paper-suite``, ``service-warm``, ``service-mixed``,
``grammar-synth`` (see README.md).  ``--trace 0`` measures and prints the
end-to-end metrics; ``--trace 1`` makes the traced run and prints the
per-layer metrics.  Every run applies the workload's correctness checks.
The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

A full result document (host, seed, samples, quartiles, checks, generator
lateness) is written under ``.perfbench/results/``; a traced run also
writes a Chrome trace under ``.perfbench/traces/``.  ``--smoke`` shrinks
every workload to a few seconds for the self-test.
"""

from __future__ import annotations

import argparse
import json
import re
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    END_TO_END,
    IMPORT_PACKAGES,
    OUT,
    PER_LAYER,
    ROOT,
    SIMULATED_COUNTS,
    SRC,
    WORKLOADS,
    bench_env,
    ensure_src_on_path,
    host_info,
    own_peak_rss_mb,
    process_age,
    summary,
    write_json,
)

#: Set-up samples per run: this run's own plus fresh-interpreter probes.
SETUP_PROBES = 2


def _module(workload: str):
    if workload == "paper-suite":
        import suite
        return suite
    if workload in ("service-warm", "service-mixed"):
        import service
        return service
    import synth
    return synth


def _probe_setup(args) -> float:
    """Set up once in a fresh interpreter; its age when ready, in s."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--setup-probe"]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, cwd=ROOT, env=bench_env(), capture_output=True,
                          text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr[-2000:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def import_times() -> dict:
    """Cold cumulative import seconds of each package, each in a fresh
    interpreter, from ``-X importtime``."""
    out = {}
    for pkg in IMPORT_PACKAGES:
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               f"import {pkg}"], cwd=ROOT, env=bench_env(),
                              capture_output=True, text=True, timeout=120)
        seconds = 0.0
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|\s*(\S+)",
                         line)
            if m and m.group(3) == pkg:
                seconds = int(m.group(2)) / 1e6
        out[f"setup.import_s.{pkg}"] = seconds
    return out


def _per_layer(out: dict, checks) -> dict:
    import layers

    merged = layers.merge(out.get("snapshots", []))
    values = layers.zero_metrics()
    values.update(layers.layer_metrics(merged))
    values.update(out.get("per_layer", {}))
    values.update(import_times())
    values["trace.overhead_ratio"] = out["trace_overhead_ratio"]
    if "count_snapshots" in out:
        untraced = layers.simulated_counts(layers.merge(out["count_snapshots"]))
        traced = {k: values[k] for k in SIMULATED_COUNTS}
        diff = {k: (untraced[k], traced[k]) for k in SIMULATED_COUNTS
                if untraced[k] != traced[k]}
        checks.check("simulated_counts_match", not diff, json.dumps(diff))
    trace_dir = OUT / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    trace_path = trace_dir / f"{out['tag']}.trace.json"
    labels = out.get("labels", {})
    trace_path.write_text(json.dumps(
        layers.chrome_trace(out.get("snapshots", []), labels)))
    out["trace_file"] = str(trace_path.relative_to(ROOT))
    return values


def measure(args) -> dict:
    mod = _module(args.workload)
    ctx = mod.prepare(args.workload, args.seed, args.smoke)
    try:
        setup = [process_age()]
        for _ in range(0 if args.smoke else SETUP_PROBES):
            setup.append(_probe_setup(args))
        out = mod.measure(ctx, args.seconds, bool(args.trace))
    finally:
        mod.close(ctx)
    out["setup_samples"] = setup
    return out


def report(args, out: dict) -> dict:
    checks = out["checks"]
    op = out["op_seconds"]
    stats = summary([s * 1000.0 for s in op])
    rss = own_peak_rss_mb() + out.get("other_rss_mb", 0.0)
    e2e = {
        "setup_s": statistics.median(out["setup_samples"]),
        "p50_ms": stats["median"],
        "peak_rss_mb": rss,
    }
    out["tag"] = (f"{args.workload}-s{args.seed}-t{args.trace}-"
                  f"{time.strftime('%Y%m%dT%H%M%S')}")
    if args.trace:
        values = _per_layer(out, checks)
        metrics = {k: {"value": float(values[k]), "unit": PER_LAYER[k]}
                   for k in PER_LAYER}
    else:
        metrics = {k: {"value": float(v), "unit": END_TO_END[k]}
                   for k, v in e2e.items()}
    attempted = int(out["attempted"])
    # ``failed`` also counts requests refused under ladder overload; only
    # a failed check makes the run incorrect.
    failed = int(out["failed"])
    correct = checks.failed() == 0

    aliases = dict(out.get("named_metrics", {}))
    aliases.update({"setup_s": (e2e["setup_s"], "s"),
                    "peak_rss_mb": (rss, "MB"),
                    "error_rate": (failed / attempted if attempted else 1.0,
                                   "ratio")})
    doc = {
        "schema": "perfbench.result/1",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "host": host_info(),
        "unit_of_work": out.get("ops_label"),
        "samples": {
            "op_ms": stats,
            "setup_s": summary(out["setup_samples"]),
        },
        "end_to_end": e2e,
        "named_metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in aliases.items()},
        "checks": checks.to_dict(),
        "attempted": attempted,
        "failed": failed,
        "extra": out.get("extra", {}),
        "trace_file": out.get("trace_file"),
        "metrics": metrics,
    }
    write_json(doc, OUT / "results" / f"{out['tag']}.json")

    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} "
          f"({out.get('ops_label')}, n={stats['n']})")
    for name, (value, unit) in sorted(aliases.items()):
        print(f"  {name:<22} {value:>14.6g} {unit}")
    for name, info in checks.to_dict().items():
        state = "FAIL" if info["failed"] else "ok"
        print(f"  check {name:<24} ran {info['ran']:>6}  {state}")
    if out.get("trace_file"):
        print(f"  trace {out['trace_file']}")
    return {"correct": correct, "attempted": max(attempted, 1),
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and windows (self-test size)")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # A terminated run still stops the servers it started (``finally``).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}; run from the root "
              "of a repository checkout", file=sys.stderr)
        return 2
    ensure_src_on_path()

    if args.setup_probe:
        mod = _module(args.workload)
        ctx = mod.prepare(args.workload, args.seed, args.smoke)
        age = process_age()
        mod.close(ctx)
        print(f"{age:.6f}")
        return 0

    result = report(args, measure(args))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
