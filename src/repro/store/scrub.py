"""Store scrubbing: verify, heal, quarantine.

``RunStore.verify`` *reports* corruption; this module acts on it, the
way a RAID scrubber or a parallel file system's patrol read does.  Every
object is read back and its bytes hashed against its address, and a
mismatch is triaged:

* **heal** -- the file still parses as an artifact document whose
  *canonical* bytes hash back to the digest (the content survived; only
  the encoding drifted -- a partial rewrite by a non-canonical writer,
  restored whitespace, a reordered key).  The object is atomically
  rewritten in canonical form, which is the same repair an idempotent
  ``put`` of the original content performs.
* **quarantine** -- the bytes are beyond reconstruction.  The file is
  moved (never deleted) to ``<root>/quarantine/<digest>.json`` so a
  later re-put of the same content -- e.g. a service recomputation of
  the same scenario digest -- repopulates the address cleanly, while
  the damaged bytes stay available for diagnosis.

Dangling refs (pointers whose target object is gone or quarantined) are
reported but left in place: the next ``put`` under that digest makes
them valid again, and cache reads already treat a missing target as a
miss rather than an error.

Runs from the CLI (``repro-io store scrub``), which prints the report
and can write it as JSON (``--json``); the run service does not scrub
on its own.
"""

from __future__ import annotations

import json
import logging
import os
from typing import Any, Dict

from repro.ioutil import atomic_write_bytes, sha256_hex
from repro.store.artifact import ArtifactError, RunArtifact
from repro.store.store import RunStore

log = logging.getLogger(__name__)

__all__ = ["SCRUB_SCHEMA", "scrub_store"]

SCRUB_SCHEMA = "repro.store.scrub/1"

#: Where unrecoverable objects are moved, relative to the store root.
QUARANTINE_DIR = "quarantine"


def _try_heal(data: bytes, digest: str) -> bytes:
    """Canonical re-encoding of ``data`` if it still holds the content
    addressed by ``digest``; raises otherwise."""
    artifact = RunArtifact.from_document(json.loads(data))
    canonical = artifact.canonical_bytes()
    if sha256_hex(canonical) != digest:
        raise ArtifactError("content does not hash back to the address")
    return canonical


def scrub_store(
    store: RunStore, *, heal: bool = True, dry_run: bool = False
) -> Dict[str, Any]:
    """One full scrub pass over ``store``; returns a report document.

    ``dry_run`` classifies without touching disk; ``heal=False`` demotes
    healable objects to quarantine candidates (useful to inspect damage
    before letting the scrubber rewrite anything).
    """
    report: Dict[str, Any] = {
        "schema": SCRUB_SCHEMA,
        "store": str(store.root),
        "dry_run": dry_run,
        "scanned": 0,
        "ok": 0,
        "healed": 0,
        "quarantined": 0,
        "dangling_refs": [],
        "problems": [],
    }
    for digest in list(store.digests()):
        path = store.object_path(digest)
        report["scanned"] += 1
        try:
            data = path.read_bytes()
        except OSError as exc:  # pragma: no cover - raced removal
            report["problems"].append(
                {"digest": digest, "action": "skipped", "problem": str(exc)}
            )
            continue
        if sha256_hex(data) == digest:
            report["ok"] += 1
            continue
        healed = None
        if heal:
            try:
                healed = _try_heal(data, digest)
            except (ValueError, ArtifactError):
                healed = None
        if healed is not None:
            if not dry_run:
                atomic_write_bytes(healed, path)
            report["healed"] += 1
            report["problems"].append(
                {
                    "digest": digest,
                    "action": "healed",
                    "problem": "non-canonical bytes (content intact)",
                }
            )
            log.warning("scrub healed object %s", digest[:16])
        else:
            if not dry_run:
                qdir = store.root / QUARANTINE_DIR
                qdir.mkdir(parents=True, exist_ok=True)
                os.replace(path, qdir / f"{digest}.json")
            report["quarantined"] += 1
            report["problems"].append(
                {
                    "digest": digest,
                    "action": "quarantined",
                    "problem": "bytes do not hash back to the address",
                }
            )
            log.warning("scrub quarantined object %s", digest[:16])
    for name, entry in store.refs():
        if not store.has(entry["digest"]):
            report["dangling_refs"].append(name)
    return report
