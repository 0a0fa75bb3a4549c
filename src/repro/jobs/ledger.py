"""Live progress ledgers for long-running job fan-outs.

A ledger is one JSON document, atomically rewritten (readers never see a
partial file -- :func:`repro.ioutil.atomic_write_json`) at start, on
every item completion, and at finish, so ``repro-io watch`` can tail a
consistent view while the pool is still working.  The document shape is
shared by every front-end::

    {
      "schema":   <front-end schema marker>,
      ...extra,                      # front-end fields (base name, jobs, stats)
      "started":  <epoch seconds>,
      "updated":  <epoch seconds>,
      "finished": <bool>,
      "total":    <item count>,
      "counts":   {<status>: <count>, ...},
      <item_key>: {<name>: {"status": <status>, ...}, ...}
    }

Sweeps instantiate it with the historical ``sweep-progress.json`` schema
(statuses ``pending/cached/done/failed``, items under ``"points"``); the
run service uses job states under ``"jobs"``.  ``extra`` may be a dict
or a zero-argument callable evaluated at write time, so a long-lived
writer (the service) can publish live counters without rebuilding the
ledger object.
"""

from __future__ import annotations

import logging
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Optional, Sequence, Union

from repro.ioutil import atomic_write_json

log = logging.getLogger(__name__)

__all__ = ["ProgressLedger"]

#: Historical sweep statuses -- the default item state machine.
DEFAULT_STATUSES = ("pending", "cached", "done", "failed")


class ProgressLedger:
    """Atomically-rewritten per-item status ledger (see module docstring)."""

    def __init__(
        self,
        path: Union[Path, str],
        schema: str,
        names: Iterable[str],
        *,
        statuses: Sequence[str] = DEFAULT_STATUSES,
        extra: Union[None, Dict[str, Any], Callable[[], Dict[str, Any]]] = None,
        item_key: str = "points",
    ):
        self.path = Path(path)
        self.schema = schema
        self.statuses = tuple(statuses)
        self.extra = extra
        self.item_key = item_key
        self.started = time.time()
        self.items: Dict[str, Dict[str, Any]] = {
            name: {"status": self.statuses[0]} for name in names
        }

    # -- item transitions ---------------------------------------------------

    def mark(
        self, name: str, status: str, *, write: bool = False, **fields: Any
    ) -> None:
        """Set ``name`` to ``status`` (plus extra fields); optionally flush."""
        if status not in self.statuses:
            raise ValueError(
                f"unknown ledger status {status!r} (have {self.statuses})"
            )
        self.items[name] = {"status": status, **fields}
        if write:
            self.write()

    def mark_cached(self, name: str) -> None:
        """Sweep convenience: served from the store, no write yet (the
        caller batches one flush after the cache scan)."""
        self.mark(name, "cached", seconds=0.0)

    def mark_done(self, name: str, seconds: float, error: Optional[str]) -> None:
        """Sweep convenience: one point finished -- flush immediately."""
        fields: Dict[str, Any] = {"seconds": seconds}
        if error is not None:
            fields["error"] = error
        self.mark(
            name, "failed" if error is not None else "done",
            write=True, **fields,
        )

    # -- document -----------------------------------------------------------

    def counts(self) -> Dict[str, int]:
        counts = {status: 0 for status in self.statuses}
        for entry in self.items.values():
            counts[entry["status"]] += 1
        return counts

    def to_doc(self, finished: bool = False) -> Dict[str, Any]:
        extra = self.extra() if callable(self.extra) else (self.extra or {})
        return {
            "schema": self.schema,
            **extra,
            "started": self.started,
            "updated": time.time(),
            "finished": finished,
            "total": len(self.items),
            "counts": self.counts(),
            self.item_key: self.items,
        }

    def write(self, finished: bool = False) -> None:
        """Atomically rewrite the ledger; best-effort (progress must
        never kill the work it describes)."""
        try:
            atomic_write_json(self.to_doc(finished), self.path, indent=None)
        except OSError as exc:  # pragma: no cover - progress is best-effort
            log.warning("could not write progress ledger %s: %s", self.path, exc)
