"""Uniform task fan-out for every job front-end.

:func:`execute_tasks` is the single execution path behind the experiment
runner, scenario sweeps and the run service's pool slots: it takes a
*timed task function* (module-level, picklable, returning
``(payload, seconds, worker_snapshot)``) plus a list of payloads and
returns one :class:`TaskOutcome` per payload, in payload order, no
matter whether the work ran in-process or on a worker pool.

The contract both historical callers relied on is preserved exactly:

* ``jobs == 1`` (or a single payload) runs in-process -- no pool spawn
  cost, telemetry lands directly in the parent registries, and a raised
  exception under ``fail_fast`` propagates *unwrapped*;
* the pool path uses :func:`repro.ioutil.resilient_pool_map` (worker
  death is retried once in an isolated pool, then contained as a
  per-task error) and under ``fail_fast`` raises ``RuntimeError`` with
  the caller-supplied task label;
* worker telemetry snapshots are merged commutatively in payload order,
  so completion order never changes the merged result;
* failures never produce a payload -- callers can cache every
  non-failed outcome unconditionally.
"""

from __future__ import annotations

import hashlib
import logging
import random
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Callable, ContextManager, List, Optional, Sequence

from repro.ioutil import resilient_pool_map
from repro.telemetry.collect import (
    init_worker,
    merge_snapshot,
    worker_init_args,
    worker_snapshot,
)

log = logging.getLogger(__name__)

__all__ = ["TaskOutcome", "execute_tasks", "key_seed", "seed_globals", "timed"]


def key_seed(key: str) -> int:
    """Deterministic 64-bit seed derived from ``key`` (SHA-256 prefix)."""
    return int.from_bytes(hashlib.sha256(key.encode("utf-8")).digest()[:8], "big")


def seed_globals(key: str) -> None:
    """Re-seed the global ``random``/``numpy`` generators from ``key``.

    Tasks seed their own RNGs from their inputs; this guard additionally
    makes any accidental use of global RNG state independent of which
    worker ran what before, so sequential and pooled runs agree.
    """
    import numpy as np

    seed = key_seed(key)
    random.seed(seed)
    np.random.seed(seed % 2**32)


def timed(fn: Callable[[Any], Any], payload: Any):
    """Run ``fn(payload)`` and return ``(value, seconds, worker_snapshot)``.

    The time is taken where the task runs, so per-task durations are real
    under a process pool too.  The snapshot is this worker's telemetry,
    cleared per task so a pooled worker reports each task exactly once
    (``None`` in-process, where telemetry lands in the parent registries).
    """
    start = time.perf_counter()
    value = fn(payload)
    return value, time.perf_counter() - start, worker_snapshot()


@dataclass
class TaskOutcome:
    """Outcome of one task: payload or error, with its worker-side timing.

    ``value`` is ``None`` exactly when the task failed (in-task exception
    or worker-process death); ``error`` then carries a human-readable
    reason.  ``seconds`` is measured inside the worker when available and
    in the parent otherwise; failed pool tasks report ``0.0`` (their
    worker-side clock died with them).
    """

    value: Optional[Any]
    seconds: float
    error: Optional[str] = None

    @property
    def failed(self) -> bool:
        return self.error is not None


def execute_tasks(
    timed_fn: Callable[[Any], Any],
    payloads: Sequence[Any],
    jobs: int,
    *,
    fail_fast: bool = False,
    fail_label: Optional[Callable[[int], str]] = None,
    on_outcome: Optional[Callable[[int, TaskOutcome], None]] = None,
    span_factory: Optional[Callable[[int], ContextManager]] = None,
    pool_span: Optional[Callable[[int, int], ContextManager]] = None,
) -> List[TaskOutcome]:
    """Run ``timed_fn`` over ``payloads``, pooled when ``jobs > 1``.

    Parameters
    ----------
    timed_fn:
        Module-level task wrapper returning ``(payload, seconds,
        worker_snapshot)``.  A two-tuple ``(payload, seconds)`` is
        accepted on the in-process path (telemetry already lives in the
        parent registries there; tests monkeypatch such wrappers).
    payloads:
        Task inputs, one per task, in return order.
    jobs:
        Worker process count; ``1`` (or a single payload) runs
        everything in this process.
    fail_fast:
        In-process, re-raise the task's original exception; on the pool
        path, raise ``RuntimeError(f"{fail_label(i)} failed: {error}")``
        for the first failed task in payload order.
    fail_label:
        Human label for task ``i`` in fail-fast pool errors (defaults to
        ``task <i>``).
    on_outcome:
        Progress hook ``on_outcome(i, outcome)`` -- called per task in
        completion order on the pool path, payload order in-process.
        Exceptions are contained by the pool layer, not re-raised.
    span_factory:
        Optional per-task tracer span for the in-process path
        (``span_factory(i)`` -> context manager).
    pool_span:
        Optional tracer span wrapping the whole pool fan-out
        (``pool_span(workers, n_tasks)`` -> context manager).
    """
    if fail_label is None:
        fail_label = lambda i: f"task {i}"  # noqa: E731
    outcomes: List[TaskOutcome] = []

    if jobs == 1 or len(payloads) == 1:
        for i, payload in enumerate(payloads):
            start = time.perf_counter()
            span = span_factory(i) if span_factory is not None else nullcontext()
            try:
                with span:
                    value = timed_fn(payload)
                if len(value) == 2:  # pragma: no cover - monkeypatched fns
                    value = (*value, None)
            except Exception as exc:
                if fail_fast:
                    raise
                outcome = TaskOutcome(
                    None,
                    time.perf_counter() - start,
                    f"{type(exc).__name__}: {exc}",
                )
            else:
                result, seconds, snap = value
                merge_snapshot(snap)
                outcome = TaskOutcome(result, seconds)
            outcomes.append(outcome)
            if on_outcome is not None:
                on_outcome(i, outcome)
        return outcomes

    workers = min(jobs, len(payloads))
    hook = None
    if on_outcome is not None:

        def hook(i: int, pool_outcome) -> None:
            value, error = pool_outcome
            seconds = value[1] if value is not None else 0.0
            on_outcome(i, TaskOutcome(
                value[0] if value is not None else None, seconds, error
            ))

    span = (
        pool_span(workers, len(payloads))
        if pool_span is not None
        else nullcontext()
    )
    with span:
        raw = resilient_pool_map(
            timed_fn,
            payloads,
            workers,
            initializer=init_worker,
            initargs=worker_init_args(),
            on_result=hook,
        )
    for i, (value, error) in enumerate(raw):
        if error is not None:
            if fail_fast:
                raise RuntimeError(f"{fail_label(i)} failed: {error}")
            outcomes.append(TaskOutcome(None, 0.0, error))
            continue
        result, seconds, snap = value
        merge_snapshot(snap)
        outcomes.append(TaskOutcome(result, seconds))
    return outcomes
