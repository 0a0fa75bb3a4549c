"""The service resolves a preset at a seed the way the CLI does.

Some presets derive more than ``ScenarioSpec.seed`` from the seed (a
workload's shuffle seed, a grammar derivation), so replacing the seed
field of the seed-0 preset gives a different scenario than
``scenario run NAME --seed S``.
"""

import pytest

from repro.scenario import get_scenario, list_scenarios
from repro.service import RunService, ServiceConfig


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    return RunService(ServiceConfig(store_dir=tmp_path_factory.mktemp("store")))


@pytest.mark.parametrize("seed", [1, 3, 17])
@pytest.mark.parametrize("name", list_scenarios())
def test_preset_resolves_at_seed_like_the_cli(service, name, seed):
    kind, ((_, spec),) = service._resolve_specs({"scenario": name, "seed": seed})
    assert kind == "scenario"
    assert spec.digest() == get_scenario(name, seed).digest()


def test_inline_spec_takes_the_request_seed(service):
    doc = get_scenario("tiny").to_dict()
    _, ((_, spec),) = service._resolve_specs({"scenario": doc, "seed": 5})
    assert spec.seed == 5
