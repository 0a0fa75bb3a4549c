"""Layer order of the package graph and import budget of the entry points.

Every ``repro`` import points to its own layer or a lower one in
:data:`LAYERS`, counting imports inside functions, so the package graph
has no cycle and every module imports cleanly as the first import of a
fresh interpreter.  Every CLI call and service boot builds the CLI
parser, and those and every pool worker import the store and the job
layer, so none of them may load the simulator or its numeric stack; nor
may the run service or the scenario presets, which need only the specs.
scipy is used only by the hypothesis tests in
:mod:`repro.modeling.hypothesis_testing` and must load only when one of
them runs; networkx only by :mod:`repro.cluster.topology`, which loads
only when a platform asks for a fat-tree or dragonfly fabric.  Each
budget check runs in a fresh interpreter, since this test process has
long since imported everything.
"""

from __future__ import annotations

import ast
import importlib.util
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


#: The layers from the bottom up.  A module belongs to the longest entry
#: that prefixes its name (``repro.ops`` and ``repro.ioutil`` to
#: ``repro``) and may import only from its own layer or a lower one.
LAYERS = (
    "repro",
    "repro.telemetry",
    "repro.des",
    "repro.faults",
    "repro.cluster",
    "repro.pfs",
    "repro.mpi",
    "repro.iostack",
    "repro.workloads",
    "repro.monitoring",
    "repro.simulate",
    "repro.modeling",
    "repro.core",
    "repro.store",
    "repro.jobs",
    "repro.scenario.spec",
    "repro.wgen",
    "repro.scenario",
    "repro.core.cycle",
    "repro.replay",
    "repro.survey",
    "repro.service",
    "repro.experiments",
    "repro.cli",
)


def _module_paths() -> dict:
    """Every ``repro`` module name mapped to its source file."""
    out = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        out[".".join(parts)] = path
    return out


MODULES = _module_paths()
PACKAGES = sorted(
    name for name, path in MODULES.items()
    if path.name == "__init__.py" and name.count(".") == 1
)


def _layer(module: str) -> int:
    """Index in :data:`LAYERS` of the longest entry prefixing ``module``."""
    owners = [entry for entry in LAYERS
              if module == entry or module.startswith(entry + ".")]
    return LAYERS.index(max(owners, key=len))


def _imported_modules(module: str, path: Path):
    """Yield ``(lineno, name)`` for every ``repro`` module ``path`` imports.

    Imports inside functions count, and ``from pkg import submodule``
    counts as an import of the submodule.
    """
    package = module if path.name == "__init__.py" else module.rpartition(".")[0]
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = importlib.util.resolve_name(
                "." * node.level + (node.module or ""), package
            )
            names = [
                f"{base}.{alias.name}" if f"{base}.{alias.name}" in MODULES
                else base
                for alias in node.names
            ]
        else:
            continue
        for name in sorted(set(names)):
            if name == "repro" or name.startswith("repro."):
                yield node.lineno, name


def test_imports_point_down_the_layer_order():
    upward = [
        f"{path.relative_to(SRC)}:{lineno} imports {name}"
        for module, path in MODULES.items()
        for lineno, name in _imported_modules(module, path)
        if _layer(name) > _layer(module)
    ]
    assert upward == []


@pytest.mark.parametrize("package", ["jobs", "store", "scenario", "service"])
def test_lower_layers_never_import_experiments(package):
    # repro.experiments sits above these packages; importing it from one
    # of them, even inside a function, would make the package graph cyclic.
    prefix = f"repro.{package}"
    offenders = [
        f"{path.relative_to(SRC)}:{lineno}"
        for module, path in MODULES.items()
        if module == prefix or module.startswith(prefix + ".")
        for lineno, name in _imported_modules(module, path)
        if name == "repro.experiments" or name.startswith("repro.experiments.")
    ]
    assert offenders == []


@pytest.mark.parametrize("package", PACKAGES)
def test_package_imports_first_in_fresh_interpreter(package, tmp_path):
    assert _loaded_after(f"import {package}", tmp_path, watch=()) == []


@pytest.mark.parametrize(
    "module,watch",
    [
        ("repro.store", HEAVY),
        ("repro.jobs", HEAVY),
        ("repro.cluster", ("repro.monitoring", "repro.pfs")),
        ("repro.pfs", ("repro.iostack", "repro.modeling")),
    ],
    ids=["repro.store", "repro.jobs", "repro.cluster", "repro.pfs"],
)
def test_store_and_jobs_load_no_simulator(module, watch, tmp_path):
    assert _loaded_after(f"import {module}", tmp_path, watch=watch) == []


@pytest.mark.parametrize("module", ["repro.service", "repro.scenario.presets"])
def test_service_and_presets_load_no_simulator(module, tmp_path):
    # A warm submission and `scenario list` need only the specs: the
    # simulator loads in a pool worker's first task, or when a scenario runs.
    watch = ("numpy", "networkx", "repro.des", "repro.pfs")
    assert _loaded_after(f"import {module}", tmp_path, watch=watch) == []


def test_sweep_loads_no_experiments(tmp_path):
    code = f"""
        from repro.scenario import get_scenario, run_sweep
        run_sweep(get_scenario("tiny"), {{"n_oss": [2]}},
                  cache_dir={str(tmp_path / "store")!r})
    """
    assert _loaded_after(code, tmp_path, watch=("repro.experiments",)) == []


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


_SYNTHESIZE_ONE = """
    from repro.monitoring import RecorderTracer
    from repro.scenario import run_scenario
    from repro.wgen import default_grammar, sample, synthesize, target_ops
    grammar = default_grammar()
    derivation = sample(grammar, seed=3, n_ranks=2)
    tracer = RecorderTracer()
    run_scenario(derivation.scenario_spec(seed=0), observers=[tracer])
    ops = target_ops(tracer.archive.at_layer("posix"))
    assert synthesize(ops, grammar=grammar, n_ranks=2).ok
"""


@pytest.mark.parametrize(
    "code",
    [
        "import repro.experiments",
        """
        from repro.scenario import get_scenario, run_scenario
        run_scenario(get_scenario("c4-workflow"))
        """,
        """
        from repro.experiments.runner import run_experiments
        results = run_experiments(["C2", "C4", "C6"], seeds=[0], jobs=1, use_cache=False)
        assert all(r.record is not None for r in results)
        """,
        _SYNTHESIZE_ONE,
    ],
    ids=["experiments", "run-workflow-scenario", "run-experiments", "wgen-synthesize"],
)
def test_runtime_paths_load_no_networkx(code, tmp_path):
    assert _loaded_after(code, tmp_path, watch=("networkx",)) == []


def test_requested_topology_loads_networkx(tmp_path):
    code = """
        import dataclasses
        from repro.cluster import Platform, tiny_spec
        spec = dataclasses.replace(tiny_spec(), ib_topology="fat_tree")
        platform = Platform(spec)
        assert platform.compute_fabric.topology is not None
    """
    assert _loaded_after(code, tmp_path, watch=("networkx",)) == ["networkx"]


def test_public_names_still_resolve(tmp_path):
    code = """
        from repro.core import ExperimentRecord
        assert ExperimentRecord.__module__ == "repro.core.experiment"
        import repro.core
        assert not hasattr(repro.core, "EvaluationCycle")
        from repro.modeling import ks_test
        assert "scipy" not in __import__("sys").modules
        ks_test([1.0, 2.0, 3.0], [2.0, 3.0, 4.0])
    """
    assert _loaded_after(code, tmp_path, watch=("scipy",)) == ["scipy"]
