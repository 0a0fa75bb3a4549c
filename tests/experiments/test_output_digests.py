"""Pin every seed-0 output of the simulator, byte for byte.

``output_digests_seed0.json`` holds SHA-256 digests of the canonical JSON
(``sort_keys``, compact separators) of

* each registered experiment's seed-0 record (``records``),
* each preset's ``run_scenario(...).to_dict()`` at seed 0, except the
  minutes-long ``scale-100k`` (``presets``),
* the ``scale-tiny`` scale-model digest under every DES engine
  (``scale_tiny``).

Unlike the golden records (compared with a float tolerance), these digests
change when any emitted value changes by one ulp, so a performance change
that must not alter results is checked exactly.  A change that moves a
digest on purpose re-records the fixture and says why::

    PYTHONPATH=src python tests/experiments/test_output_digests.py \\
        > tests/experiments/output_digests_seed0.json
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

FIXTURE = Path(__file__).parent / "output_digests_seed0.json"
#: Preset left out: one run takes minutes.
SKIPPED_PRESETS = {"scale-100k"}


def _digest(doc) -> str:
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def record_digests() -> dict:
    from repro.experiments import ALL_EXPERIMENTS

    return {
        eid: _digest(ALL_EXPERIMENTS[eid](seed=0).to_dict())
        for eid in sorted(ALL_EXPERIMENTS)
    }


def preset_digests() -> dict:
    from repro.scenario import get_scenario, list_scenarios, run_scenario

    return {
        name: _digest(run_scenario(get_scenario(name, 0)).to_dict())
        for name in list_scenarios()
        if name not in SKIPPED_PRESETS
    }


def scale_tiny_digests() -> dict:
    from repro.scenario import get_scenario, run_scenario
    from repro.scenario.build import STACK_ENGINES

    out = {}
    for engine in STACK_ENGINES:
        run = run_scenario(get_scenario("scale-tiny", 0), engine=engine)
        out[engine] = [sr.digest for sr in run.scale_results]
    return out


def all_digests() -> dict:
    return {
        "records": record_digests(),
        "presets": preset_digests(),
        "scale_tiny": scale_tiny_digests(),
    }


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(FIXTURE.read_text())


def _mismatches(got: dict, want: dict) -> list:
    missing = sorted(set(want) - set(got))
    extra = sorted(set(got) - set(want))
    moved = sorted(k for k in set(got) & set(want) if got[k] != want[k])
    return [f"missing {k}" for k in missing] + [f"new {k}" for k in extra] + [
        f"changed {k}" for k in moved
    ]


def test_experiment_records_are_byte_identical(pinned):
    assert _mismatches(record_digests(), pinned["records"]) == []


def test_records_through_a_process_pool_are_byte_identical(pinned, tmp_path):
    from repro.experiments import ALL_EXPERIMENTS
    from repro.experiments.runner import run_experiments

    results = run_experiments(
        sorted(ALL_EXPERIMENTS), seeds=[0], jobs=2, use_cache=False,
        manifest=False, cache_dir=tmp_path,
    )
    got = {r.experiment_id: _digest(r.record.to_dict()) for r in results}
    assert _mismatches(got, pinned["records"]) == []


def test_preset_runs_are_byte_identical(pinned):
    assert _mismatches(preset_digests(), pinned["presets"]) == []


def test_scale_tiny_digest_is_pinned_on_every_engine(pinned):
    got = scale_tiny_digests()
    assert got == pinned["scale_tiny"]
    assert len({tuple(d) for d in got.values()}) == 1


if __name__ == "__main__":
    print(json.dumps(all_digests(), indent=2, sort_keys=True))
