"""Import budget of the entry points.

Every CLI call and service boot builds the CLI parser, and those and
every pool worker import the store and the job layer, so none of them may
load the simulator or its numeric stack.  The job layer, the store, the
scenario layer and the service sit below :mod:`repro.experiments` and
never import it, so a sweep does not load the experiment suite.  scipy is used only by the
hypothesis tests in :mod:`repro.modeling.hypothesis_testing` and must
load only when one of them runs.  Each check runs in a fresh
interpreter, since this test process has long since imported everything.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

HEAVY = (
    "numpy",
    "scipy",
    "networkx",
    "repro.core.cycle",
    "repro.wgen",
    "repro.cluster",
    "repro.des",
    "repro.simulate",
    "repro.modeling",
    "repro.scenario",
)


def _loaded_after(code: str, cwd: Path, watch=HEAVY) -> list:
    """Run ``code`` in a fresh interpreter; return which of ``watch`` it loaded."""
    probe = textwrap.dedent(code) + textwrap.dedent(
        f"""
        import json, sys
        print(json.dumps([m for m in {list(watch)!r} if m in sys.modules]))
        """
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("module", ["repro.store", "repro.jobs"])
def test_store_and_jobs_load_no_simulator(module, tmp_path):
    assert _loaded_after(f"import {module}", tmp_path) == []


def test_sweep_loads_no_experiments(tmp_path):
    code = f"""
        from repro.scenario import get_scenario, run_sweep
        run_sweep(get_scenario("tiny"), {{"n_oss": [2]}},
                  cache_dir={str(tmp_path / "store")!r})
    """
    assert _loaded_after(code, tmp_path, watch=("repro.experiments",)) == []


@pytest.mark.parametrize("package", ["jobs", "store", "scenario", "service"])
def test_lower_layers_never_import_experiments(package):
    # repro.experiments sits above these packages; importing it from one
    # of them, even inside a function, would make the package graph cyclic.
    offenders = []
    for path in sorted((SRC / "repro" / package).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [
                    f"{node.module}.{alias.name}" for alias in node.names
                ]
            else:
                continue
            if any(n == "repro.experiments" or n.startswith("repro.experiments.")
                   for n in names):
                offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert offenders == []


def test_cli_parser_loads_no_simulator(tmp_path):
    # The run service boots through repro.cli.main, so building the parser
    # must leave every heavy import to the command that needs it.
    code = "import repro.cli; repro.cli.build_parser()"
    assert _loaded_after(code, tmp_path) == []


@pytest.mark.parametrize(
    "code",
    [
        "import repro.service",
        "import repro.experiments",
        "import repro.wgen",
        """
        from repro.scenario import get_scenario, run_scenario
        run_scenario(get_scenario("tiny"))
        """,
        """
        from repro.experiments.runner import run_experiments
        results = run_experiments(["E3", "C1", "C8"], seeds=[0], jobs=1, use_cache=False)
        assert all(r.record is not None for r in results)
        """,
    ],
    ids=["service", "experiments", "wgen", "run-scenario", "run-experiments"],
)
def test_runtime_paths_load_no_scipy(code, tmp_path):
    assert _loaded_after(code, tmp_path, watch=("scipy",)) == []


def test_public_names_still_resolve(tmp_path):
    code = """
        from repro.core import CycleReport, EvaluationCycle
        from repro.core.cycle import EvaluationCycle as direct
        assert EvaluationCycle is direct and CycleReport.__name__ == "CycleReport"
        from repro.core import ExperimentRecord
        assert ExperimentRecord.__module__ == "repro.core.experiment"
        import repro.core
        try:
            repro.core.NoSuchName
        except AttributeError:
            pass
        else:
            raise AssertionError("missing name resolved")
        from repro.modeling import ks_test
        assert "scipy" not in __import__("sys").modules
        ks_test([1.0, 2.0, 3.0], [2.0, 3.0, 4.0])
    """
    assert _loaded_after(code, tmp_path, watch=("scipy",)) == ["scipy"]
