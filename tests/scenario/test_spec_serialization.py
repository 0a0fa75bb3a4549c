"""Canonical serialization of scenario specs: reference oracle and digest pin.

``ScenarioSpec.to_dict`` builds its dict from the dataclass fields
directly, and ``canonical_json()`` is computed once per instance.  These
tests keep the ``dataclasses.asdict``-based serialization as the oracle
and compare it against every preset, grammar derivations, a sweep grid
and a spec with faults; ``preset_spec_digests.json`` pins every preset's
``digest()`` at three seeds, so a serialization change that moves a cache
key fails here first.  Re-record it only for a deliberate change::

    PYTHONPATH=src python tests/scenario/test_spec_serialization.py \\
        > tests/scenario/preset_spec_digests.json
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

from repro.faults.spec import FaultEventSpec, FaultSpec
from repro.scenario import expand_grid, get_scenario, list_scenarios
from repro.scenario.spec import SCENARIO_SCHEMA, ScenarioSpec, WorkloadSpec

FIXTURE = Path(__file__).parent / "preset_spec_digests.json"
SEEDS = (0, 3, 17)


def _oracle_to_dict(spec: ScenarioSpec) -> dict:
    """The ``dataclasses.asdict``-based serialization, kept as reference."""
    storage = dataclasses.asdict(spec.storage)
    if spec.storage.replicas == 1:
        del storage["replicas"]
    stack = dataclasses.asdict(spec.stack)
    for name in ("rpc_timeout", "rpc_retries",
                 "retry_backoff", "retry_backoff_cap", "engine"):
        if stack[name] == type(spec.stack).__dataclass_fields__[name].default:
            del stack[name]
    out = {
        "schema": SCENARIO_SCHEMA,
        "name": spec.name,
        "seed": spec.seed,
        "concurrent": spec.concurrent,
        "platform": dataclasses.asdict(spec.platform),
        "storage": storage,
        "stack": stack,
        "workloads": [
            {"kind": w.kind, "n_ranks": w.n_ranks, "params": dict(w.params)}
            for w in spec.workloads
        ],
    }
    if spec.faults:
        out["faults"] = spec.faults.to_dict()
    return out


def _oracle_canonical(spec: ScenarioSpec) -> str:
    return json.dumps(_oracle_to_dict(spec), sort_keys=True,
                      separators=(",", ":"))


def preset_digests() -> dict:
    return {
        name: {str(seed): get_scenario(name, seed).digest() for seed in SEEDS}
        for name in list_scenarios()
    }


def _grammar_specs():
    from repro.wgen import default_grammar, sample

    grammar = default_grammar()
    return [
        sample(grammar, seed=dseed, n_ranks=ranks).scenario_spec(seed=dseed)
        for ranks in (2, 4) for dseed in range(10)
    ]


def _grid_specs():
    grid = {"stripe_size": [65536, 1048576], "n_oss": [2, 4],
            "workloads.0.n_ranks": [2, 4]}
    return [p.scenario for p in expand_grid(get_scenario("c6-ior"), grid)]


def _fault_spec():
    base = get_scenario("tiny", 5)
    faults = FaultSpec((
        FaultEventSpec(kind="ost_slowdown", target=1, start=0.01,
                       duration=0.05, factor=4.0),
    ))
    return dataclasses.replace(base, faults=faults).validate()


def _all_specs():
    specs = [get_scenario(name, seed)
             for name in list_scenarios() for seed in SEEDS]
    return specs + _grammar_specs() + _grid_specs() + [_fault_spec()]


def test_to_dict_matches_the_asdict_oracle():
    specs = _all_specs()
    assert any(spec.faults for spec in specs)
    for spec in specs:
        assert spec.to_dict() == _oracle_to_dict(spec), spec.name
        assert spec.canonical_json() == _oracle_canonical(spec), spec.name
        want = hashlib.sha256(_oracle_canonical(spec).encode()).hexdigest()
        assert spec.digest() == want, spec.name


def test_preset_digests_match_the_pinned_fixture():
    assert preset_digests() == json.loads(FIXTURE.read_text())


def test_derived_specs_never_reuse_a_stale_canonical_form():
    base = get_scenario("tiny", 0)
    first = base.canonical_json()
    reseeded = base.with_seed(9)
    assert reseeded.canonical_json() == _oracle_canonical(reseeded)
    assert reseeded.digest() != base.digest()
    renamed = base.replace(name="other")
    assert json.loads(renamed.canonical_json())["name"] == "other"
    back = reseeded.with_seed(0)
    assert back.canonical_json() == first and back.digest() == base.digest()
    assert base.canonical_json() == first


def test_workload_params_are_copied_at_construction():
    params = {"block_size": 1024}
    workload = WorkloadSpec(kind="ior", n_ranks=2, params=params)
    spec = ScenarioSpec(name="copy", workloads=(workload,)).validate()
    before = spec.canonical_json()
    params["block_size"] = 2048
    assert workload.params == {"block_size": 1024}
    assert spec.canonical_json() == before == _oracle_canonical(spec)


if __name__ == "__main__":
    print(json.dumps(preset_digests(), indent=2, sort_keys=True))
