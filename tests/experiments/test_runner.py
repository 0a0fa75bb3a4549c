"""Parallel cached experiment runner: determinism and cache behavior.

The heavyweight guarantee checked here is the one the CLI advertises:
``repro-io experiment all --jobs 4`` produces byte-identical
``ExperimentRecord`` payloads to the sequential path (seeds 0, 1, 2), and a
warm cache serves every task without recomputing anything.
"""

import json

import pytest

from repro.experiments import ALL_EXPERIMENTS
from repro.experiments import runner as runner_mod
from repro.experiments.runner import (
    record_from_dict,
    record_payload,
    run_experiments,
    source_digest,
)
from repro.jobs.execution import key_seed

SEEDS = (0, 1, 2)


@pytest.fixture(scope="module")
def digest():
    return source_digest()


@pytest.fixture(scope="module")
def parallel_all(tmp_path_factory, digest):
    """All experiments x seeds {0,1,2} via 4 worker processes, cache cold."""
    cache_dir = tmp_path_factory.mktemp("runner-cache")
    results = run_experiments(
        seeds=SEEDS, jobs=4, use_cache=True, cache_dir=cache_dir, digest=digest
    )
    return cache_dir, results


@pytest.fixture(scope="module")
def sequential_all():
    """The same task matrix computed in-process, no cache involved."""
    return run_experiments(seeds=SEEDS, jobs=1, use_cache=False)


def test_parallel_matches_sequential_byte_identical(parallel_all, sequential_all):
    _, parallel = parallel_all
    assert len(parallel) == len(ALL_EXPERIMENTS) * len(SEEDS)
    par = [(r.experiment_id, r.seed, r.payload) for r in parallel]
    seq = [(r.experiment_id, r.seed, r.payload) for r in sequential_all]
    assert par == seq
    assert not any(r.cached for r in sequential_all)


def test_all_experiments_supported_across_seeds(sequential_all):
    unsupported = [
        (r.experiment_id, r.seed)
        for r in sequential_all
        if r.record.supported is not True
    ]
    assert not unsupported


def test_warm_cache_zero_recomputation(parallel_all, digest, monkeypatch):
    cache_dir, cold = parallel_all
    # Any attempt to actually execute a task would blow up here.
    monkeypatch.setattr(
        runner_mod, "_execute",
        lambda task: pytest.fail(f"cache miss recomputed {task}"),
    )
    warm = run_experiments(
        seeds=SEEDS, jobs=4, use_cache=True, cache_dir=cache_dir, digest=digest
    )
    assert all(r.cached for r in warm)
    assert [r.payload for r in warm] == [r.payload for r in cold]


def test_digest_change_invalidates_cache(tmp_path):
    res1 = run_experiments(
        ids=["E3"], seeds=(0,), use_cache=True, cache_dir=tmp_path, digest="a" * 64
    )
    assert not res1[0].cached
    res2 = run_experiments(
        ids=["E3"], seeds=(0,), use_cache=True, cache_dir=tmp_path, digest="a" * 64
    )
    assert res2[0].cached
    res3 = run_experiments(
        ids=["E3"], seeds=(0,), use_cache=True, cache_dir=tmp_path, digest="b" * 64
    )
    assert not res3[0].cached
    # The stale digest-"a" ref was pruned when digest-"b" was stored; the
    # record *object* is shared (same content, same address) and stays.
    names = [p.name for p in (tmp_path / "refs" / "records").glob("E3-s0-*.json")]
    assert names == [f"E3-s0-{'b' * 16}.json"]


def test_corrupt_cache_entry_is_recomputed(tmp_path, digest):
    from repro.store import RunStore
    from repro.experiments.runner import record_ref_name

    res = run_experiments(
        ids=["E3"], seeds=(0,), use_cache=True, cache_dir=tmp_path, digest=digest
    )
    store = RunStore(tmp_path)
    entry = store.get_ref(record_ref_name("E3", 0, digest))
    path = store.object_path(entry["digest"])
    path.write_text("{not json")
    res2 = run_experiments(
        ids=["E3"], seeds=(0,), use_cache=True, cache_dir=tmp_path, digest=digest
    )
    assert not res2[0].cached
    assert res2[0].payload == res[0].payload
    # Recomputation healed the corrupt object in place: same address,
    # verifiable bytes again.
    assert store.get(entry["digest"]).to_record().id == "E3"


def test_results_keep_task_order_regardless_of_jobs():
    ids = ["C1", "E3", "A1"]
    res = run_experiments(ids=ids, seeds=(1, 0), jobs=2, use_cache=False)
    assert [(r.experiment_id, r.seed) for r in res] == [
        ("C1", 1), ("C1", 0), ("E3", 1), ("E3", 0), ("A1", 1), ("A1", 0)
    ]


def test_unknown_id_rejected():
    with pytest.raises(KeyError):
        run_experiments(ids=["Z9"], use_cache=False)
    with pytest.raises(ValueError):
        run_experiments(ids=["E3"], jobs=0, use_cache=False)


def test_task_seed_is_stable_and_distinct():
    # ``_execute`` seeds each task's globals from its "<id>:<seed>" key.
    assert key_seed("E1:0") == key_seed("E1:0")
    assert key_seed("E1:0") != key_seed("E1:1")
    assert key_seed("E1:0") != key_seed("E2:0")


def test_record_payload_round_trip():
    record = ALL_EXPERIMENTS["E3"](seed=0)
    payload = record_payload(record)
    clone = record_from_dict(json.loads(payload))
    assert record_payload(clone) == payload
    assert clone.id == record.id and clone.supported == record.supported


def test_source_digest_tracks_source(tmp_path, monkeypatch):
    d1 = source_digest()
    assert d1 == source_digest()  # stable within one tree
    assert len(d1) == 64


@pytest.mark.parametrize(
    "kwargs, repeated",
    [({"ids": ["E3"], "seeds": [0, 0]}, "seed"),
     ({"ids": ["E3", "C1", "E3"], "seeds": [0]}, "experiment id")],
)
def test_repeated_ids_or_seeds_are_rejected(tmp_path, kwargs, repeated):
    # A repeated entry would run the same task twice under one name.
    with pytest.raises(ValueError, match=f"repeated {repeated}"):
        run_experiments(**kwargs, cache_dir=tmp_path, manifest=False)
    assert not (tmp_path / "refs").exists()
