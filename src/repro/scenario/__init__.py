"""Declarative scenario layer (paper Sec. IV: evaluation methodology).

One spec describes a whole evaluation -- platform, parallel file system,
I/O stack, workloads, run mode -- and threads it through every layer of
the simulator:

>>> from repro.scenario import ScenarioSpec, WorkloadSpec, build
>>> spec = ScenarioSpec(
...     name="demo",
...     workloads=(WorkloadSpec(kind="ior", n_ranks=4),),
... ).validate()
>>> harness = build(spec)          # ready ExperimentHarness

* :mod:`repro.scenario.spec` -- the frozen spec dataclasses with
  validation and canonical JSON round-trip;
* :mod:`repro.scenario.workloads` -- the kind registry mapping spec
  parameters onto workload-zoo instances;
* :mod:`repro.scenario.build` -- assembly (``build``/``run_scenario``);
* :mod:`repro.scenario.presets` -- named scenarios, including the exact
  configurations the claims experiments run;
* :mod:`repro.scenario.sweep` -- cartesian parameter sweeps over a base
  scenario, with cached parallel execution and per-point provenance.

Importing the package loads no simulator code: ``build`` and
``run_scenario`` import it when called, and the workload registry
(``WORKLOAD_KINDS``, ``build_workload``), which needs the workload zoo,
loads on first use.
"""

import importlib

from repro.scenario.spec import (
    ALLOC_POLICIES,
    SCENARIO_SCHEMA,
    STORAGE_DEVICES,
    ScenarioError,
    ScenarioSpec,
    StackSpec,
    StorageSpec,
    WorkloadSpec,
)
from repro.scenario.build import (
    ScenarioRun,
    build,
    build_platform,
    instantiate_workloads,
    run_scenario,
)
from repro.scenario.presets import SCENARIOS, get_scenario, list_scenarios
from repro.scenario.sweep import (
    SweepPoint,
    SweepResult,
    apply_overrides,
    expand_grid,
    load_sweep_manifest,
    run_sweep,
)


def __getattr__(name):
    if name not in ("WORKLOAD_KINDS", "build_workload"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.workloads"), name)
    globals()[name] = value
    return value


__all__ = [
    "ALLOC_POLICIES",
    "SCENARIO_SCHEMA",
    "SCENARIOS",
    "STORAGE_DEVICES",
    "ScenarioError",
    "ScenarioRun",
    "ScenarioSpec",
    "StackSpec",
    "StorageSpec",
    "SweepPoint",
    "SweepResult",
    "WORKLOAD_KINDS",
    "WorkloadSpec",
    "apply_overrides",
    "build",
    "build_platform",
    "build_workload",
    "expand_grid",
    "get_scenario",
    "instantiate_workloads",
    "list_scenarios",
    "load_sweep_manifest",
    "run_scenario",
    "run_sweep",
]
