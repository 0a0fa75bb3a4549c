"""Durable filesystem and process-pool primitives for the result layers.

Two failure modes kept showing up at the edges of the caching/provenance
machinery and the parallel runners:

* **Torn writes** -- the cache and manifest writers used a fixed
  ``<name>.tmp`` sibling before renaming into place, so two concurrent
  invocations sharing a cache directory could interleave writes to the
  *same* temp file and rename a hybrid.  :func:`atomic_write_json` uses a
  :func:`tempfile.mkstemp` name (unique per writer) plus :func:`os.replace`,
  so readers only ever observe an old-complete or new-complete file.

* **Worker-process death** -- ``ProcessPoolExecutor.map`` raises
  :class:`~concurrent.futures.process.BrokenProcessPool` the moment any
  worker dies (OOM kill, segfault in a C extension, ``os._exit``), taking
  every other in-flight result down with it.  :func:`resilient_pool_map`
  submits futures individually, retries the tasks that were in flight when
  a pool broke once in a fresh pool (a transient kill should not fail a
  long sweep), and converts anything that still fails into a per-task
  error string instead of an exception -- callers record the failure and
  keep going.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor
from concurrent.futures import wait as futures_wait
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from typing import Any, Callable, List, Optional, Sequence, Tuple, Union

log = logging.getLogger(__name__)

PathLike = Union[str, Path]


# -- canonical serialization -------------------------------------------------
#
# One byte representation per JSON value: sorted keys, no whitespace, UTF-8.
# Every layer that hashes or compares payloads (record cache, sweep cache,
# the content-addressed run store) must agree on these bytes, so the
# helpers live here at the bottom of the dependency graph.

def canonical_json_bytes(payload: Any) -> bytes:
    """Canonical byte serialization of a JSON-serializable value."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def sha256_hex(data: bytes) -> str:
    """Hex SHA-256 of ``data`` -- the repo-wide content-address function."""
    return hashlib.sha256(data).hexdigest()


def atomic_write_json(
    payload: Any,
    path: PathLike,
    *,
    indent: Optional[int] = 1,
) -> Path:
    """Write ``payload`` as JSON so readers never see a partial file.

    The document is serialized to a uniquely-named temp file in the target
    directory (same filesystem, so the final :func:`os.replace` is atomic)
    and renamed over ``path``.  Parent directories are created on demand;
    the temp file is removed on any failure.

    Serialized with one :func:`json.dumps` call: with ``indent=None`` that
    runs the C encoder (``json.dump`` always runs the pure-Python one), so
    large documents rewritten often, like the progress ledgers, pass it.
    """
    text = json.dumps(payload, indent=indent)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=str(path.parent), prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:  # pragma: no cover - already renamed or cleaned up
            pass
        raise
    return path


def atomic_write_bytes(data: bytes, path: PathLike) -> Path:
    """Write ``data`` verbatim so readers never see a partial file.

    Same mkstemp + :func:`os.replace` discipline as
    :func:`atomic_write_json`, but byte-exact: the content-addressed store
    uses this so the bytes on disk hash back to the object's digest.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=str(path.parent), prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:  # pragma: no cover - already renamed or cleaned up
            pass
        raise
    return path


#: One pool-map outcome: ``(value, None)`` on success, ``(None, error)`` on
#: failure, where ``error`` is a human-readable string for the manifest.
PoolOutcome = Tuple[Optional[Any], Optional[str]]

def _describe_exception(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def resilient_pool_map(
    fn: Callable[[Any], Any],
    items: Sequence[Any],
    workers: int,
    *,
    crash_retries: int = 1,
    initializer: Optional[Callable[..., None]] = None,
    initargs: Tuple[Any, ...] = (),
    on_result: Optional[Callable[[int, PoolOutcome], None]] = None,
) -> List[PoolOutcome]:
    """Map ``fn`` over ``items`` on a process pool, surviving worker death.

    Returns one :data:`PoolOutcome` per item, in item order.  Exceptions
    raised *inside* a worker are deterministic task failures: they are
    recorded immediately and never retried.  A :class:`BrokenProcessPool`
    (the worker process itself died) poisons every in-flight future, so
    those tasks are retried up to ``crash_retries`` times in a fresh pool
    -- distinguishing one transient kill from a task that reliably crashes
    its worker -- before being recorded as failures.

    ``initializer``/``initargs`` run in every worker process, including
    the isolated retry pools (the telemetry layer uses this to propagate
    the parent's log level and telemetry on/off state).  ``on_result`` is
    a progress hook called in the parent as ``on_result(i, outcome)``
    once per item, in pool-completion order -- retried tasks report only
    their final outcome.  Hook exceptions are logged, never raised.

    Tasks are fed to the pool in a small submission window (the workers
    plus one prefetch) rather than all upfront.  There is no cancellation:
    every task runs, and every task reports an outcome.
    """
    results: List[Optional[PoolOutcome]] = [None] * len(items)
    crashed: List[int] = []

    def report(i: int, outcome: PoolOutcome) -> None:
        results[i] = outcome
        if on_result is not None:
            try:
                on_result(i, outcome)
            except Exception:  # pragma: no cover - progress must not kill work
                log.exception("on_result hook failed for task %d", i)

    n_workers = min(workers, len(items))
    window = n_workers + 1
    next_i = 0
    with ProcessPoolExecutor(
        max_workers=n_workers,
        initializer=initializer,
        initargs=initargs,
    ) as pool:
        by_future: dict = {}

        def top_up() -> None:
            nonlocal next_i
            while next_i < len(items) and len(by_future) < window:
                try:
                    future = pool.submit(fn, items[next_i])
                except BrokenProcessPool as exc:
                    # Pool died between completions: queue the task for
                    # the isolated-pool retry rounds like any in-flight
                    # casualty.
                    crashed.append(next_i)
                    results[next_i] = (
                        None,
                        f"worker process crashed ({_describe_exception(exc)})",
                    )
                else:
                    by_future[future] = next_i
                next_i += 1

        top_up()
        while by_future:
            done, _pending = futures_wait(
                by_future, return_when=FIRST_COMPLETED
            )
            for future in done:
                i = by_future.pop(future)
                try:
                    report(i, (future.result(), None))
                except BrokenProcessPool as exc:
                    crashed.append(i)
                    results[i] = (
                        None,
                        f"worker process crashed ({_describe_exception(exc)})",
                    )
                except Exception as exc:
                    log.debug("pool task %d failed", i, exc_info=exc)
                    report(i, (None, _describe_exception(exc)))
            top_up()

    # Retry the tasks that were in flight when the pool broke, each in its
    # own single-worker pool: one task that deterministically kills its
    # worker must not poison the innocent bystanders a second time.
    for round_ in range(crash_retries):
        if not crashed:
            break
        log.warning(
            "process pool broke with %d task(s) in flight; retrying each "
            "in an isolated pool (retry %d/%d)",
            len(crashed), round_ + 1, crash_retries,
        )
        still_crashing: List[int] = []
        for i in crashed:
            with ProcessPoolExecutor(
                max_workers=1, initializer=initializer, initargs=initargs
            ) as pool:
                try:
                    report(i, (pool.submit(fn, items[i]).result(), None))
                except BrokenProcessPool as exc:
                    still_crashing.append(i)
                    results[i] = (
                        None,
                        f"worker process crashed ({_describe_exception(exc)})",
                    )
                except Exception as exc:
                    log.debug("pool task %d failed", i, exc_info=exc)
                    report(i, (None, _describe_exception(exc)))
        crashed = still_crashing
    if crashed:
        log.warning(
            "%d task(s) still crashing their worker after %d isolated "
            "retry(ies); recording as failed", len(crashed), crash_retries,
        )
        for i in crashed:
            report(i, results[i])  # final outcome for the progress hook
    return [r if r is not None else (None, "task never ran") for r in results]
