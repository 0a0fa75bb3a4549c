"""Content-addressed run store: one artifact model from runner to CLI.

The paper's evaluation cycle (Fig. 4) only closes if results can *flow*:
measurement output feeds modeling, model output feeds simulation, and
everything must be comparable across runs.  This package gives every
result the toolkit produces a single on-disk home and a single identity:

* :mod:`repro.store.artifact` -- :class:`RunArtifact`, the typed envelope
  (experiment record, run/sweep manifest, sweep point, trace, metrics,
  host metadata, bench report) addressed by the SHA-256 of its canonical
  JSON;
* :mod:`repro.store.store` -- :class:`RunStore`, the ``put/get/query/
  diff/gc/export`` API over an ``objects/`` + ``refs/`` + ``runs/`` tree
  with atomic, concurrent-writer-safe writes;
* :mod:`repro.store.scrub` -- the patrol read that digest-verifies every
  object, heals non-canonical bytes and quarantines the rest.

The package imports only the standard library, :mod:`repro.ioutil`,
:mod:`repro.telemetry` and the records module :mod:`repro.core.experiment`
(whose package loads the evaluation cycle lazily): no simulator package,
numpy or scipy (``tests/core/test_import_layering.py`` pins this), so
every CLI call, service boot and pool worker that touches the store
starts fast.

Producers refactored onto it: the experiment runner's record cache
(:mod:`repro.experiments.runner`), the sweep runner's point cache
(:mod:`repro.scenario.sweep`), provenance manifests
(:mod:`repro.telemetry.provenance` -- host metadata referenced by
digest through :func:`host_reference`), and the benchmark gate's baselines
(``benchmarks/check_regression.py``).  The ``repro-io store`` CLI serves
``ls/show/diff/gc/verify/scrub/export/table``.
"""

from repro.store.artifact import (
    ARTIFACT_SCHEMA,
    ArtifactError,
    KINDS,
    RunArtifact,
    host_reference,
)
from repro.store.store import (
    DEFAULT_STORE_DIR,
    EXPORT_SCHEMA,
    RUN_SCHEMA,
    STORE_SCHEMA,
    RunStore,
    StoreError,
    StoreIntegrityError,
    payload_diff,
)
from repro.store.scrub import SCRUB_SCHEMA, scrub_store

__all__ = [
    "SCRUB_SCHEMA",
    "scrub_store",
    "ARTIFACT_SCHEMA",
    "ArtifactError",
    "DEFAULT_STORE_DIR",
    "EXPORT_SCHEMA",
    "KINDS",
    "RUN_SCHEMA",
    "RunArtifact",
    "RunStore",
    "STORE_SCHEMA",
    "StoreError",
    "StoreIntegrityError",
    "host_reference",
    "payload_diff",
]
