"""Unit tests for run-provenance manifests."""

import json

import pytest

from repro.telemetry.provenance import (
    MANIFEST_SCHEMA,
    build_manifest,
    cache_hit_ratio,
    host_metadata,
)


def make_manifest(**overrides):
    kwargs = dict(
        source_digest="abc123",
        ids=["E1", "E2"],
        seeds=[0, 1],
        jobs=2,
        cache_dir="results/cache",
        use_cache=True,
        tasks=[
            {"id": "E1", "seed": 0, "cached": True, "seconds": 0.0,
             "record_sha256": "d" * 64},
            {"id": "E1", "seed": 1, "cached": False, "seconds": 1.5,
             "record_sha256": "e" * 64},
        ],
        cache_counts={"hits": 1, "fresh": 1, "stale": 0, "corrupt": 0},
        wall_seconds=2.0,
        created=1700000000.0,
    )
    kwargs.update(overrides)
    return build_manifest(**kwargs)


class TestBuildManifest:
    def test_schema_and_fields(self):
        doc = make_manifest()
        assert doc["schema"] == MANIFEST_SCHEMA
        assert doc["source_digest"] == "abc123"
        assert doc["experiment_ids"] == ["E1", "E2"]
        assert doc["seeds"] == [0, 1]
        assert doc["cache"] == {"hits": 1, "fresh": 1, "stale": 0, "corrupt": 0}
        assert doc["created"] == 1700000000.0
        assert doc["host"]["python"]

    def test_host_metadata_fields(self):
        meta = host_metadata()
        for key in ("host", "platform", "python", "implementation",
                    "repro_version", "argv"):
            assert key in meta

    def test_is_json_serializable(self):
        json.dumps(make_manifest())


class TestCacheHitRatio:
    def test_ratio(self):
        assert cache_hit_ratio(make_manifest()) == pytest.approx(0.5)

    def test_all_hits(self):
        doc = make_manifest(
            cache_counts={"hits": 4, "fresh": 0, "stale": 0, "corrupt": 0})
        assert cache_hit_ratio(doc) == 1.0

    def test_empty_run_is_zero(self):
        doc = make_manifest(
            tasks=[], cache_counts={"hits": 0, "fresh": 0, "stale": 0,
                                    "corrupt": 0})
        assert cache_hit_ratio(doc) == 0.0
