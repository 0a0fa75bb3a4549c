#!/usr/bin/env python3
"""Which functions of ``src/repro`` do the entry points CI runs reach?

Usage::

    python tools/reachability.py [--out DIR]

The dynamic half runs the entry points CI runs -- the CLI smokes (with a
traced scenario whose stored telemetry is read back), ``experiment all``, every scenario preset except ``scale-100k``, every
example, sweep/watch/store/grammar, the run service with a cancelled
queued job, a ping, chaos-kill, a ``kill -9`` restart and a drain, the
perfbench smokes (one with ``--trace 1``) and the legacy scale and
grammar smokes -- in a scratch directory.  A ``sitecustomize`` module on ``PYTHONPATH`` records every
code object under ``src/repro`` that any Python process of the run enters
(``sys.setprofile`` plus ``threading.setprofile``) and writes its records
at exit and on ``os._exit``, so process-pool workers and the server count.
A process killed by a signal writes nothing.  Tier-1 is deliberately not
run: a function that only a unit test calls is what this looks for.

The static half lists every ``def`` under ``src/repro`` with :mod:`ast`,
marks the reached ones, and counts each name's references (names,
attributes, imports and equal string constants, as ``perfbench/layers.py``
patches by name) in ``src/``, ``examples/``, ``perfbench/`` and
``benchmarks/`` and, separately, in ``tests/``.

Writes ``DIR/reachability.json`` and ``DIR/reachability.md`` (default
``DIR`` is ``.reachability/`` in the checkout).  The report lists every
unreached function and, separately, those named only by tests (no
reference outside ``tests/``).  This is a report, not a
gate: nothing fails when a function is unreached.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Set, Tuple)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Directories whose references count as real callers.
CALLER_DIRS = ("src", "examples", "perfbench", "benchmarks")
TEST_DIRS = ("tests",)

# -- the recorder ---------------------------------------------------------------

SITECUSTOMIZE = '''\
"""Record every code object under REACHABILITY_SRC that this process enters."""
import atexit
import json
import os
import sys
import threading
import uuid

_out = os.environ.get("REACHABILITY_OUT")
_src = os.environ.get("REACHABILITY_SRC")
if _out and _src:
    _codes = {}

    def _profile(frame, event, arg, _codes=_codes, _id=id):
        if event == "call":
            code = frame.f_code
            if _id(code) not in _codes:
                _codes[_id(code)] = code

    def _dump():
        rows = sorted({(c.co_filename, c.co_firstlineno, c.co_name)
                       for c in list(_codes.values())
                       if c.co_filename.startswith(_src)})
        path = os.path.join(_out, "%d-%s.json" % (os.getpid(), uuid.uuid4().hex))
        with open(path, "w") as fh:
            json.dump(rows, fh)

    _real_exit = os._exit

    def _exit(code, _real_exit=_real_exit):
        try:
            _dump()
        finally:
            _real_exit(code)

    os._exit = _exit
    atexit.register(_dump)
    threading.setprofile(_profile)
    sys.setprofile(_profile)
'''


class Session:
    """Runs entry-point commands under the recorder, in a scratch directory."""

    def __init__(self, work: Path, records: Path):
        self.work = work
        site = work / "_site"
        site.mkdir(parents=True)
        (site / "sitecustomize.py").write_text(SITECUSTOMIZE)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join([str(site), str(SRC)])
        self.env["REACHABILITY_OUT"] = str(records)
        self.env["REACHABILITY_SRC"] = str(SRC / "repro")
        self.failures: List[str] = []

    def argv(self, args: Sequence) -> List[str]:
        """``repro-io ...`` or ``python ...`` with this interpreter."""
        prefix = ["-m", "repro.cli"] if args[0] == "repro-io" else []
        return [sys.executable, *prefix, *map(str, args[1:])]

    def run(self, *args, check: bool = True,
            timeout: float = 900) -> subprocess.CompletedProcess:
        """Run one command to completion; a failure is noted, not raised."""
        proc = subprocess.run(self.argv(args), cwd=self.work, env=self.env,
                              capture_output=True, text=True, timeout=timeout)
        if check and proc.returncode != 0:
            self.failures.append(
                f"{' '.join(map(str, args))} -> exit {proc.returncode}: "
                f"{proc.stderr.strip()[-300:]}")
        return proc

    @contextlib.contextmanager
    def server(self, *args) -> Iterator[subprocess.Popen]:
        """Run the service for the block, once it answers ``jobs stats``.

        The block ends with a shutdown request or by killing the process;
        a killed server's own records are lost with it.
        """
        proc = subprocess.Popen(self.argv(args), cwd=self.work, env=self.env,
                                stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)
        try:
            for _ in range(300):
                if self.run("repro-io", "jobs", "stats", check=False).returncode == 0:
                    break
                time.sleep(0.2)
            else:
                self.failures.append("the service did not start")
            yield proc
        finally:
            try:
                proc.wait(timeout=120)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()


# -- the entry points --------------------------------------------------------------


def cli_smokes(s: Session) -> None:
    s.run("repro-io", "--help")
    s.run("repro-io", "taxonomy", "--modules")
    s.run("repro-io", "figures")
    s.run("repro-io", "scenario", "run", "scale-tiny", "--engine", "sequential")
    s.run("repro-io", "scenario", "run", "scale-tiny", "--engine",
          "partitioned", "--engine-workers", "1")
    s.run("repro-io", "scenario", "run", "scale-tiny", "--engine",
          "partitioned", "--engine-workers", "4", "--metrics-json",
          "metrics.json", "--no-store")
    s.run("repro-io", "telemetry", "metrics.json")
    # A traced scenario lands its telemetry in the store; both read back.
    out = s.run("repro-io", "scenario", "run", "tiny", "--trace",
                "scenario-trace.json", "--series").stdout
    s.run("repro-io", "telemetry", "scenario-trace.json")
    digest = [line.split()[-1] for line in out.splitlines()
              if line.startswith("scenario digest:")]
    s.run("repro-io", "telemetry", f"telemetry/{(digest or ['?'])[0]}-series")


def experiments(s: Session) -> None:
    s.run("repro-io", "experiment", "all", "--seeds", "0", "--jobs", "2",
          "--no-cache", "--no-manifest", "--trace", "trace.json", "--series")
    s.run("repro-io", "experiment", "all", "--seeds", "0")
    s.run("repro-io", "experiment", "all", "--seeds", "0")
    s.run("repro-io", "telemetry", "latest")


def presets(s: Session) -> None:
    names = [line.split()[0] for line in
             s.run("repro-io", "scenario", "list").stdout.splitlines()
             if line.strip()]
    for name in names:
        if name != "scale-100k":
            s.run("repro-io", "scenario", "run", name)


def examples(s: Session) -> None:
    for example in sorted((ROOT / "examples").glob("*.py")):
        s.run("python", example)


def sweep_store_grammar(s: Session) -> None:
    s.run("repro-io", "scenario", "sweep", "tiny", "n_oss=2,4",
          "stripe_count=1,4", "--jobs", "2", "--cache-dir", "sweep/cache")
    s.run("repro-io", "watch", "sweep", "--interval", "0.5", "--once")
    s.run("repro-io", "telemetry", "sweep/sweep-manifest.json")
    listing = s.run("repro-io", "store", "ls").stdout
    runs = [line.split()[0] for line in listing.splitlines()
            if line.startswith("  experiment-")]
    if len(runs) >= 2:
        s.run("repro-io", "store", "diff", runs[0], runs[1])
    if runs:
        s.run("repro-io", "store", "show", runs[0])
        s.run("repro-io", "store", "export", runs[0], "-o", "bundle.json")
    for cmd in (("verify",), ("gc", "--dry-run"), ("table",), ("scrub",)):
        s.run("repro-io", "store", *cmd)
    s.run("repro-io", "grammar", "show")
    s.run("repro-io", "grammar", "sample", "--seed", "0", "--count", "5", "--run")
    sampled = s.run("repro-io", "grammar", "sample", "--seed", "0", "--json")
    choices = json.loads(sampled.stdout or "{}").get("choices", [])
    s.run("repro-io", "grammar", "expand", ",".join(map(str, choices)), "--json")
    s.run("repro-io", "grammar", "synth", "grammar-tiny", "--seed", "0",
          "--rerun", "--check", "--store-dir", "grammar-store", "--text")
    s.run("repro-io", "store", "--store-dir", "grammar-store", "ls")


BURST = """
import asyncio
from repro.service import ServiceClient, load_discovery

async def burst():
    doc = load_discovery("results", require_live=True)
    client = await ServiceClient.connect(doc["host"], doc["port"])
    acked = await asyncio.gather(*[
        client.submit("tiny", tenant=f"r-{i}", seed=100 + i, wait=False,
                      idempotency_key=f"r-key-{i}") for i in range(8)])
    assert all(d["ok"] for d in acked), acked
    await client.close()

asyncio.run(burst())
"""

PING = """
import asyncio
from repro.service import ServiceClient, load_discovery

async def ping():
    doc = load_discovery("results", require_live=True)
    async with await ServiceClient.connect(doc["host"], doc["port"]) as client:
        assert (await client.ping())["ok"]

asyncio.run(ping())
"""

CONVERGE = """
import asyncio
from repro.service import ServiceClient, load_discovery

async def converge():
    doc = load_discovery("results", require_live=True)
    client = await ServiceClient.connect(doc["host"], doc["port"])
    for _ in range(600):
        stats = await client.stats()
        if not (stats["queue"] or stats["running"] or stats["inflight"]):
            break
        await asyncio.sleep(0.2)
    await client.close()

asyncio.run(converge())
"""


def queue_cancel_show(s: Session) -> None:
    """More distinct cold jobs than workers; cancel the queued last one,
    show and wait on it (both exit 1: it is not done), wait on the rest."""
    slow = ("block_size=1073741824", "transfer_size=65536")
    jobs = []
    for seed, grid in ((1, slow), (2, slow), (3, ()), (4, ())):
        out = s.run("repro-io", "submit", "tiny", *grid, "--seed", seed,
                    "--tenant", "queue", "--no-wait").stdout
        jobs.append(out.split()[1] if out.startswith("job ") else "?")
    s.run("repro-io", "jobs", "cancel", jobs[-1])
    s.run("repro-io", "jobs", "show", jobs[-1], check=False)
    s.run("repro-io", "jobs", "show", jobs[-1], "--wait", check=False)
    for job in jobs[:-1]:
        s.run("repro-io", "jobs", "show", job, "--wait")


def service(s: Session) -> None:
    serve = ("repro-io", "serve", "--workers", "2", "--enable-chaos",
             "--fsync-interval", "0.01")
    with s.server(*serve):
        s.run("repro-io", "scenario", "sweep", "tiny", "stripe_count=1,4",
              "--jobs", "2")
        s.run("repro-io", "submit", "tiny", "stripe_count=1,4", "--tenant", "sweep")
        s.run("repro-io", "submit", "tiny", "--tenant", "cold")
        s.run("repro-io", "submit", "tiny", "--tenant", "warm")
        s.run("repro-io", "loadgen", "tiny", "--tenants", "40",
              "--connections", "4", "--json", "load.json")
        queue_cancel_show(s)
        s.run("python", "-c", PING)
        s.run("repro-io", "jobs", "chaos-kill")
        s.run("repro-io", "submit", "tiny", "n_oss=2", "--tenant", "after-chaos")
        s.run("repro-io", "jobs", "list")
        s.run("repro-io", "watch", "results/service-jobs.json", "--once",
              "--fail-on-errors")
        s.run("repro-io", "jobs", "shutdown")
    # A crash mid-burst; the restarted server's journal replay is counted.
    with s.server(*serve) as proc:
        s.run("python", "-c", BURST)
        proc.kill()
    s.run("repro-io", "jobs", "stats", check=False)  # stale discovery file
    with s.server(*serve):
        s.run("python", "-c", CONVERGE)
        s.run("repro-io", "jobs", "shutdown", "--drain")
    s.run("repro-io", "store", "verify")
    s.run("python", "-c", "from repro.service import JobJournal; "
          "JobJournal.replay('results/service-journal')")


def perfbench(s: Session) -> None:
    run = ROOT / "perfbench" / "run.py"
    for workload in ("paper-suite", "service-warm", "grammar-synth"):
        s.run("python", run, "--workload", workload, "--seed", "0",
              "--seconds", "2", "--smoke", "--trace", "0")
    s.run("python", run, "--workload", "grammar-synth", "--seed", "0",
          "--seconds", "2", "--smoke", "--trace", "1")


def legacy_benchmarks(s: Session) -> None:
    s.run("python", ROOT / "benchmarks" / "check_regression.py", "--tier",
          "scale", "--scale", "0.05", "--smoke", "--scale-output",
          "bench_scale.json")
    s.run("python", ROOT / "benchmarks" / "grammar_bench.py", "--smoke")


ENTRY_POINTS: Dict[str, Callable[[Session], None]] = {
    "cli": cli_smokes,
    "experiments": experiments,
    "presets": presets,
    "examples": examples,
    "sweep-store-grammar": sweep_store_grammar,
    "service": service,
    "perfbench": perfbench,
    "legacy-bench": legacy_benchmarks,
}


# -- the static half -------------------------------------------------------------


def collect_functions(src: Path, package: str = "repro") -> List[dict]:
    """Every ``def`` under ``src/package``: its module, qualified name,
    first line (the first decorator's, as in ``co_firstlineno``) and
    length in lines."""
    functions = []
    for path in sorted((src / package).rglob("*.py")):
        rel = path.relative_to(src).as_posix()
        module = rel[:-3].replace("/", ".").removesuffix(".__init__")
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    qualname = prefix + child.name
                    functions.append({
                        "path": rel, "module": module, "name": child.name,
                        "qualname": qualname, "line": first,
                        "lines": child.end_lineno - first + 1,
                    })
                    visit(child, qualname + ".<locals>.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(tree, "")
    return functions


def load_reached(records: Path, src: Path) -> Set[Tuple[str, int, str]]:
    """``(path relative to src, first line, name)`` of every recorded code."""
    reached = set()
    for record in records.glob("*.json"):
        try:
            rows = json.loads(record.read_text())
        except ValueError:  # a process died while writing
            continue
        for filename, line, name in rows:
            rel = Path(filename).relative_to(src).as_posix()
            reached.add((rel, line, name))
    return reached


def _identifiers(tree: ast.AST) -> Iterable[str]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            yield node.value


def reference_counts(root: Path, dirs: Sequence[str]) -> Counter:
    """How often each identifier is referenced in the ``.py`` files of
    ``root/dirs`` (definitions themselves are not references)."""
    counts: Counter = Counter()
    for d in dirs:
        for path in sorted((root / d).rglob("*.py")):
            counts.update(_identifiers(ast.parse(path.read_text(encoding="utf-8"))))
    return counts


def analyse(root: Path, records: Path, package: str = "repro") -> dict:
    """Join the function inventory with the records and reference counts."""
    src = root / "src"
    functions = collect_functions(src, package)
    reached = load_reached(records, src)
    callers = reference_counts(root, CALLER_DIRS)
    tests = reference_counts(root, TEST_DIRS)
    for fn in functions:
        fn["reached"] = (fn["path"], fn["line"], fn["name"]) in reached
        fn["refs"] = callers[fn["name"]]
        fn["test_refs"] = tests[fn["name"]]
    unreached = [fn for fn in functions if not fn["reached"]]
    test_only = [fn for fn in unreached if not fn["refs"] and fn["test_refs"]]
    modules: Dict[str, bool] = {}
    for fn in functions:
        modules[fn["module"]] = modules.get(fn["module"], False) or fn["reached"]
    return {
        "functions": len(functions),
        "reached": len(functions) - len(unreached),
        "unreached_lines": sum(fn["lines"] for fn in unreached),
        "unreached_modules": sorted(m for m, hit in modules.items() if not hit),
        "unreached": unreached,
        "test_only": test_only,
        "test_only_lines": sum(fn["lines"] for fn in test_only),
    }


def markdown(report: dict) -> str:
    lines = [
        f"# Reachability: {report['reached']} of {report['functions']} "
        f"functions reached",
        "",
        f"Entry points: {', '.join(report.get('entry_points', []))}.",
        f"Unreached: {report['functions'] - report['reached']} functions, "
        f"{report['unreached_lines']} lines.  `refs` counts references in "
        f"{', '.join(CALLER_DIRS)} (the definition itself is not one); "
        f"`test refs` counts them in tests.",
        f"Modules with no reached function: "
        f"{len(report['unreached_modules'])} "
        f"({', '.join(report['unreached_modules']) or 'none'}).",
        "",
    ]
    for failure in report.get("failures", []):
        lines.append(f"- entry point failed: `{failure}`")
    lines += ["", "## Unreached functions", ""]
    lines += _table(report["unreached"])
    lines += ["", f"## Named only by tests: {len(report['test_only'])} "
              f"functions, {report['test_only_lines']} lines", "",
              "Unreached, with no reference outside tests (`refs` 0, "
              "`test refs` > 0): each needs a caller or goes with its "
              "tests.", ""]
    lines += _table(report["test_only"])
    return "\n".join(lines) + "\n"


def _table(functions: Sequence[dict]) -> List[str]:
    """One markdown row per function, grouped by module."""
    by_module: Dict[str, list] = defaultdict(list)
    for fn in functions:
        by_module[fn["module"]].append(fn)
    lines = ["| module | function | line | lines | refs | test refs |",
             "|---|---|---:|---:|---:|---:|"]
    for module in sorted(by_module):
        for fn in by_module[module]:
            lines.append(f"| {module} | `{fn['qualname']}` | {fn['line']} | "
                         f"{fn['lines']} | {fn['refs']} | {fn['test_refs']} |")
    return lines


# -- main ------------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=ROOT / ".reachability",
                        help="directory for the records and the report")
    args = parser.parse_args(argv)
    records = args.out / "records"
    shutil.rmtree(records, ignore_errors=True)
    records.mkdir(parents=True)
    with tempfile.TemporaryDirectory(prefix="reachability-") as work:
        session = Session(Path(work), records)
        for label, entry_point in ENTRY_POINTS.items():
            start = time.perf_counter()
            entry_point(session)
            print(f"{label}: {time.perf_counter() - start:.0f} s", flush=True)
    report = analyse(ROOT, records)
    report["entry_points"] = list(ENTRY_POINTS)
    report["failures"] = session.failures
    (args.out / "reachability.json").write_text(json.dumps(report, indent=1))
    (args.out / "reachability.md").write_text(markdown(report))
    print(f"reached {report['reached']} of {report['functions']} functions "
          f"({report['unreached_lines']} unreached lines; "
          f"{len(report['test_only'])} functions, "
          f"{report['test_only_lines']} lines named only by tests); "
          f"report in {args.out / 'reachability.md'}")
    for failure in session.failures:
        print(f"entry point failed: {failure}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
