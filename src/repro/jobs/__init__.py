"""Reusable job-execution core shared by every submission front-end.

The experiment runner (:mod:`repro.experiments.runner`), the scenario
sweep driver (:mod:`repro.scenario.sweep`) and the run service
(:mod:`repro.service`) turn payloads into stored results the same way:

* :mod:`repro.jobs.execution` -- sequential/pooled task fan-out with
  uniform timing, telemetry merging and failure containment
  (:func:`execute_tasks`), plus the per-task RNG guard and timed wrapper
  (:func:`seed_globals`, :func:`timed`);
* :mod:`repro.jobs.cache` -- the source-tree cache key
  (:func:`source_digest`), digest-keyed artifact refs over the
  content-addressed run store (hit / miss / stale / corrupt discipline),
  and the one cache-scan -> execute-misses -> cache-successes loop
  (:func:`run_cached`) with its result surface (:class:`CachedResult`);
* :mod:`repro.jobs.ledger` -- the atomically-rewritten progress ledger
  that ``repro-io watch`` tails.

Front-ends keep their own task functions, manifests, and ref-naming
schemes.  Nothing here cancels work once it is handed out.
"""

from repro.jobs.cache import (
    CachedResult,
    load_ref_artifact,
    run_cached,
    source_digest,
    store_ref_artifact,
)
from repro.jobs.execution import TaskOutcome, execute_tasks
from repro.jobs.ledger import ProgressLedger

__all__ = [
    "CachedResult",
    "TaskOutcome",
    "execute_tasks",
    "load_ref_artifact",
    "run_cached",
    "source_digest",
    "store_ref_artifact",
    "ProgressLedger",
]
