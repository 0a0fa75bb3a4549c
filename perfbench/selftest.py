#!/usr/bin/env python3
"""Self-test of the benchmark at smoke size.

Usage (from the root of a checkout)::

    python3 perfbench/selftest.py

Checks that ``BENCHMARK.json`` declares exactly the metrics ``common.py``
names, with the same units; that every workload, untraced and traced,
prints every metric with its unit, reports ``correct`` and runs every
one of its correctness checks; and that the benchmark refuses to run
(non-zero exit, no result line) where there are no sources to measure.
Takes about two minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    DECLARED_WORKLOADS,
    END_TO_END,
    OUT,
    PER_LAYER,
    ROOT,
    WORKLOADS,
)

RUN = Path(__file__).resolve().parent / "run.py"


def check_manifest() -> None:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert doc["command"] == ["python3", "perfbench/run.py"], doc["command"]
    assert [w["name"] for w in doc["workloads"]] == list(DECLARED_WORKLOADS)
    declared = {m["name"]: m["unit"] for m in doc["end_to_end"]}
    assert declared == END_TO_END, declared
    declared = {m["name"]: m["unit"] for m in doc["per_layer"]}
    assert declared == PER_LAYER, set(declared) ^ set(PER_LAYER)
    assert any(m["name"] == "setup_s" and m["bound"] == max(
        e["bound"] for e in doc["end_to_end"]) for m in doc["end_to_end"])


def run_one(workload: str, trace: int) -> None:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "0",
         "--seconds", "2", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    want = PER_LAYER if trace else END_TO_END
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want, set(got) ^ set(want)
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float), name
        if not trace:
            assert metric["value"] > 0, name
    docs = sorted((OUT / "results").glob(f"{workload}-s0-t{trace}-*.json"),
                  key=lambda p: p.stat().st_mtime)
    doc = json.loads(docs[-1].read_text())
    for name, info in doc["checks"].items():
        assert info["ran"] > 0 and info["failed"] == 0, (workload, name, info)
    if trace:
        assert doc["checks"].get("simulated_counts_match", {}).get("ran") \
            or workload == "service-warm", doc["checks"]
        assert (ROOT / doc["trace_file"]).is_file()
    print(f"ok  {workload:<14} trace={trace}  "
          f"{len(result['metrics'])} metrics, {len(doc['checks'])} checks")


def check_refuses_without_sources() -> None:
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(RUN.parent, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-suite",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    print("ok  refuses to run without sources")


def main() -> int:
    check_manifest()
    print("ok  BENCHMARK.json matches the declared metrics")
    check_refuses_without_sources()
    for workload in WORKLOADS:
        for trace in (0, 1):
            run_one(workload, trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
