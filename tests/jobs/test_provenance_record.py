"""One provenance record: a store-backed ``experiment`` or ``scenario
sweep`` run lands its manifest in a run document of the store, and writes
no loose manifest file beside it."""

from repro.experiments.runner import run_experiments
from repro.scenario import get_scenario, run_sweep
from repro.store import RunStore


def _runs_and_manifest(store_dir):
    """Every run document, and the newest one's manifest payload."""
    store = RunStore(store_dir)
    runs = store.runs()
    return runs, store.get(runs[-1]["manifest"]).payload


def test_store_backed_experiment_run_lands_one_run_document(tmp_path):
    store_dir = tmp_path / "store"
    for n_runs in (1, 2):
        results = run_experiments(["E3"], seeds=(0, 1), cache_dir=store_dir)
        runs, manifest = _runs_and_manifest(store_dir)
        assert len(runs) == n_runs
        assert [(t["id"], t["seed"]) for t in manifest["tasks"]] == \
            [("E3", 0), ("E3", 1)]
        assert runs[-1]["artifacts"]["E3#s1"] == results[1].artifact_digest
    assert manifest["cache"]["hits"] == 2
    assert [p.name for p in tmp_path.iterdir()] == ["store"]


def test_store_backed_sweep_lands_one_run_document(tmp_path):
    store_dir = tmp_path / "store"
    for n_runs in (1, 2):
        results = run_sweep(get_scenario("tiny"), {"n_oss": [2, 4]},
                            cache_dir=store_dir)
        runs, manifest = _runs_and_manifest(store_dir)
        assert len(runs) == n_runs
        assert [p["name"] for p in manifest["points"]] == \
            [r.point.name for r in results]
    assert all(p["cached"] for p in manifest["points"])
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        ["store", "sweep-progress.json"]


def test_uncached_experiment_run_writes_nothing(tmp_path):
    results = run_experiments(["E3"], use_cache=False,
                              cache_dir=tmp_path / "store")
    assert results[0].record is not None
    assert list(tmp_path.iterdir()) == []
