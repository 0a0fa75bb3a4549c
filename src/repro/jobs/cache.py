"""Digest-keyed result caching over the content-addressed run store.

Every front-end caches finished work the same way: a store ref (named by
the front-end's own keying scheme) points at a content-addressed
artifact, and the ref's ``meta.source_digest`` records which source tree
produced it.  Loading applies one shared discipline:

* ``hit`` -- the ref exists, is keyed on the current source digest, and
  its artifact reads back clean with the expected kind;
* ``miss`` -- no ref, or the referenced object is gone;
* ``stale`` -- the ref is keyed on another source digest (any source
  change invalidates the whole cache);
* ``corrupt`` -- the ref is unreadable, the artifact's bytes no longer
  hash to its address, or the artifact has the wrong kind.

Stale and corrupt entries are logged and *never* served -- callers fall
back to re-execution, and re-putting the recomputed artifact heals a
corrupt object in place (puts are idempotent).

:func:`run_cached` is the one cache-scan -> execute-misses ->
cache-successes loop behind the experiment runner and scenario sweeps;
:class:`CachedResult` is the result surface (payload hash, artifact
address, manifest entry) both front-ends build on.
"""

from __future__ import annotations

import hashlib
import logging
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, ContextManager, Dict, List, Optional, Sequence
from typing import Tuple

from repro.ioutil import canonical_json_bytes
from repro.jobs.execution import TaskOutcome, execute_tasks
from repro.store import RunArtifact, RunStore, StoreError

log = logging.getLogger(__name__)

__all__ = ["CachedOutcome", "CachedResult", "load_ref_artifact", "run_cached",
           "source_digest", "store_ref_artifact"]


def source_digest() -> str:
    """SHA-256 over every ``.py`` file of the installed ``repro`` package.

    Path-relative names are mixed into the hash so renames invalidate too.
    """
    import repro

    root = Path(repro.__file__).resolve().parent
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        h.update(str(path.relative_to(root)).encode("utf-8"))
        h.update(b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def load_ref_artifact(
    store: RunStore,
    name: str,
    source_digest: Optional[str],
    kind: Optional[str] = None,
) -> Tuple[Optional[RunArtifact], str]:
    """Resolve cache ref ``name`` to its artifact, or say why not.

    Returns ``(artifact, "hit")`` on success and ``(None, status)``
    otherwise, with ``status`` one of ``miss`` / ``stale`` / ``corrupt``
    (see module docstring).  ``kind``, when given, must match the
    artifact's kind -- a mismatch is treated as corrupt (the ref points
    at something this cache never wrote).
    """
    if source_digest is None:
        return None, "miss"
    try:
        entry = store.get_ref(name)
    except StoreError as exc:
        log.warning("corrupt cache ref %s (%s); re-executing", name, exc)
        return None, "corrupt"
    if entry is None:
        return None, "miss"
    if entry.get("meta", {}).get("source_digest") != source_digest:
        log.warning(
            "stale cache ref %s (stored digest %r != %r); re-executing",
            name, entry.get("meta", {}).get("source_digest"), source_digest,
        )
        return None, "stale"
    if not store.has(entry["digest"]):
        return None, "miss"
    try:
        artifact = store.get(entry["digest"])
    except StoreError as exc:
        log.warning("corrupt cache entry %s (%s); re-executing", name, exc)
        return None, "corrupt"
    if kind is not None and artifact.kind != kind:
        log.warning(
            "cache ref %s points at a %r artifact (want %r); re-executing",
            name, artifact.kind, kind,
        )
        return None, "corrupt"
    return artifact, "hit"


def store_ref_artifact(
    store: RunStore,
    name: str,
    artifact: RunArtifact,
    meta: Dict[str, Any],
) -> str:
    """Put ``artifact`` and point ref ``name`` at it; returns the digest.

    ``meta`` is stamped with ``created`` (wall time) so refs are
    self-describing; callers supply the keying fields (source digest,
    task identity) that :func:`load_ref_artifact` validates.
    """
    digest = store.put(artifact)
    store.set_ref(name, digest, meta={**meta, "created": time.time()})
    return digest


@dataclass
class CachedOutcome(TaskOutcome):
    """A :class:`TaskOutcome` plus whether the store served it and the
    lookup's verdict (``hit``/``miss``/``stale``/``corrupt``)."""

    cached: bool = False
    status: str = "miss"


def run_cached(
    tasks: Sequence[Any],
    timed_fn: Callable[[Any], Any],
    jobs: int,
    *,
    store: Optional[RunStore],
    source_digest: Optional[str],
    ref: Callable[[Any], Tuple[str, Dict[str, Any]]],
    kind: str,
    decode: Callable[[Dict[str, Any]], Any] = dict,
    payload: Callable[[Any], Any] = lambda task: task,
    fail_label: Callable[[Any], str] = str,
    on_scanned: Optional[Callable[[List[CachedOutcome]], None]] = None,
    on_outcome: Optional[Callable[[Any, TaskOutcome], None]] = None,
    span_factory: Optional[Callable[[Any], ContextManager]] = None,
    pool_span: Optional[Callable[[int, int], ContextManager]] = None,
) -> List[CachedOutcome]:
    """Serve ``tasks`` from ``store``, run the rest, cache their successes.

    Returns one :class:`CachedOutcome` per task, in task order.  A task's
    result is a JSON mapping, stored as a ``kind`` artifact under
    ``ref(task) -> (ref name, ref meta)`` and returned as
    ``decode(mapping)``; a cached mapping that is empty or that ``decode``
    rejects is corrupt.  ``store=None`` reads and writes no refs.
    ``timed_fn`` receives ``payload(task)``.  ``on_scanned(outcomes)``
    runs once before any miss executes (only hits are ``cached`` yet).
    ``on_outcome`` and ``span_factory`` take the task; they go to
    :func:`execute_tasks` with ``pool_span``.  Failures are logged under
    ``fail_label(task)``, returned with ``error`` set, and never cached.
    """
    outcomes: List[CachedOutcome] = []
    for task in tasks:
        value, status = None, "miss"
        if store is not None:
            name = ref(task)[0]
            artifact, status = load_ref_artifact(store, name, source_digest, kind)
            try:
                if artifact is not None and artifact.payload:
                    value = decode(dict(artifact.payload))
            except (ValueError, KeyError, TypeError) as exc:
                log.warning("corrupt cache entry %s (%s); re-executing", name, exc)
            if artifact is not None and value is None:
                status = "corrupt"
        outcomes.append(
            CachedOutcome(value, 0.0, cached=value is not None, status=status)
        )
    misses = [i for i, outcome in enumerate(outcomes) if not outcome.cached]
    log.info("%d task(s): %d cached, %d to run (jobs=%d)",
             len(tasks), len(tasks) - len(misses), len(misses), jobs)
    if on_scanned is not None:
        on_scanned(list(outcomes))
    if not misses:
        return outcomes

    start = time.perf_counter()
    fresh = execute_tasks(
        timed_fn,
        [payload(tasks[i]) for i in misses],
        jobs,
        on_outcome=None if on_outcome is None else (
            lambda k, outcome: on_outcome(tasks[misses[k]], outcome)
        ),
        span_factory=None if span_factory is None else (
            lambda k: span_factory(tasks[misses[k]])
        ),
        pool_span=pool_span,
    )
    log.info("executed %d task(s) with jobs=%d in %.2fs",
             len(misses), jobs, time.perf_counter() - start)
    for i, outcome in zip(misses, fresh):
        task, value = tasks[i], None
        if outcome.failed:
            log.error("%s failed: %s", fail_label(task), outcome.error)
        else:
            value = decode(outcome.value)
            if store is not None:
                name, meta = ref(task)
                store_ref_artifact(store, name, RunArtifact(kind, outcome.value), meta)
        outcomes[i] = CachedOutcome(
            value, outcome.seconds, outcome.error, status=outcomes[i].status
        )
    return outcomes


class CachedResult:
    """Base of the front-ends' per-task result dataclasses.

    Subclasses have ``cached``/``seconds``/``error`` fields, set ``kind``
    (artifact kind) and ``sha_key`` (manifest field of the payload hash),
    and expose their result mapping as a ``value`` property (``None``
    exactly when the task failed).
    """

    @property
    def failed(self) -> bool:
        return self.value is None

    @property
    def payload(self) -> bytes:
        """Canonical bytes of the result (of ``{"error": ...}`` if failed)."""
        value = self.value
        return canonical_json_bytes({"error": self.error} if value is None else value)

    @property
    def artifact_digest(self) -> Optional[str]:
        """Content address of the result's store artifact (pure function
        of the outcome -- identical whether or not the store was written)."""
        value = self.value
        return None if value is None else RunArtifact(self.kind, value).digest()

    def manifest_entry(self, **identity: Any) -> Dict[str, Any]:
        """``identity`` plus cache status, seconds, payload hash, and the
        artifact address or the error."""
        entry = {
            **identity,
            "cached": self.cached,
            "seconds": self.seconds,
            self.sha_key: hashlib.sha256(self.payload).hexdigest(),
        }
        if self.failed:
            entry["error"] = self.error
        else:
            entry["artifact"] = self.artifact_digest
        return entry
