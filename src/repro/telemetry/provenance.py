"""Run provenance manifests.

A manifest records *what produced a set of results*: the source digest the
cache was keyed on, the experiment/seed matrix, which tasks were served
from cache vs. freshly executed, per-task wall-clock, and host/Python
metadata.  Hunold's reproducibility argument (see PAPERS.md) applies to
our own harness: a results directory without this metadata cannot be
re-trusted once the source tree moves on, and a cached record cannot be
distinguished from a fresh one.  :func:`build_manifest` is pure (easy to
test); :func:`write_manifest` persists atomically next to the results it
describes.
"""

from __future__ import annotations

import functools
import json
import logging
import platform
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

log = logging.getLogger(__name__)

MANIFEST_SCHEMA = "repro.telemetry.manifest/1"
MANIFEST_NAME = "manifest.json"

PathLike = Union[str, Path]


@functools.lru_cache(maxsize=1)
def _gather_host_metadata() -> Dict[str, str]:
    import repro

    return {
        "host": platform.node(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "repro_version": repro.__version__,
        "argv": " ".join(sys.argv),
    }


def host_metadata() -> Dict[str, str]:
    """Host/interpreter facts that affect result interpretation.

    Gathered once per process (the facts are process-stable); callers get
    a fresh copy so the cache cannot be mutated from outside.
    """
    return dict(_gather_host_metadata())


def build_manifest(
    *,
    source_digest: Optional[str],
    ids: Sequence[str],
    seeds: Sequence[int],
    jobs: int,
    cache_dir: PathLike,
    use_cache: bool,
    tasks: List[Dict[str, Any]],
    cache_counts: Dict[str, int],
    wall_seconds: float,
    created: Optional[float] = None,
    host: Optional[Dict[str, str]] = None,
) -> Dict[str, Any]:
    """Assemble one run's manifest document.

    ``tasks`` entries must carry ``id``, ``seed``, ``cached``, ``seconds``
    and ``record_sha256`` (store-backed runs add ``artifact``, the record's
    content address); ``cache_counts`` carries ``hits`` / ``fresh`` /
    ``stale`` / ``corrupt``.  ``host`` defaults to the full inline
    :func:`host_metadata`; store-backed callers pass the compact
    :func:`repro.store.host_reference` instead so the manifest references
    the host artifact by digest rather than duplicating it.
    """
    return {
        "schema": MANIFEST_SCHEMA,
        "created": time.time() if created is None else created,
        "source_digest": source_digest,
        "experiment_ids": list(ids),
        "seeds": list(seeds),
        "jobs": jobs,
        "use_cache": use_cache,
        "cache_dir": str(cache_dir),
        "cache": dict(cache_counts),
        "tasks": tasks,
        "wall_seconds": wall_seconds,
        "host": host_metadata() if host is None else dict(host),
    }


def write_manifest(manifest: Dict[str, Any], path: PathLike) -> Path:
    """Atomically write ``manifest`` as JSON; returns the final path."""
    from repro.ioutil import atomic_write_json

    p = atomic_write_json(manifest, path, trailing_newline=True)
    log.info(
        "wrote run manifest (%d task(s), %d cache hit(s)) to %s",
        len(manifest.get("tasks", ())),
        manifest.get("cache", {}).get("hits", 0),
        p,
    )
    return p


def load_manifest(path: PathLike) -> Dict[str, Any]:
    """Read a manifest back, validating its schema marker."""
    with open(Path(path), "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("schema") != MANIFEST_SCHEMA:
        raise ValueError(
            f"{path} is not a repro telemetry manifest "
            f"(schema={doc.get('schema')!r})"
        )
    return doc


def cache_hit_ratio(manifest: Dict[str, Any]) -> float:
    """Fraction of tasks served from cache (0.0 when no tasks ran)."""
    cache = manifest.get("cache", {})
    hits = cache.get("hits", 0)
    total = hits + cache.get("fresh", 0)
    return hits / total if total else 0.0
