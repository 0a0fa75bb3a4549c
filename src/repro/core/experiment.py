"""Experiment records for the benchmark harness.

Each reproduction experiment (E1-E4 figures, C1-C10 claims, A1-A3
ablations; see DESIGN.md) reports through an :class:`ExperimentRecord`:
the paper's claim, what was measured, and whether the measured shape
supports the claim.  :class:`ResultsCollector` aggregates records and
renders the EXPERIMENTS table, so benchmark output and documentation stay
in sync.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional


@dataclass
class ExperimentRecord:
    """One experiment's outcome."""

    id: str
    claim: str
    measured: Dict[str, Any] = field(default_factory=dict)
    supported: Optional[bool] = None
    notes: str = ""
    #: Reference to the run manifest that produced this record (set by
    #: :func:`repro.experiments.runner.run_experiments`).  Deliberately
    #: excluded from :meth:`to_dict`: the canonical payload describes the
    #: *outcome*, which must be byte-identical whether the record was
    #: computed fresh or served from cache.
    provenance: Optional[Dict[str, Any]] = field(
        default=None, repr=False, compare=False
    )

    def measure(self, **values: Any) -> "ExperimentRecord":
        """Attach measured values (chainable)."""
        self.measured.update(values)
        return self

    def verdict(self, supported: bool, notes: str = "") -> "ExperimentRecord":
        """Record whether the measurement supports the claim."""
        self.supported = supported
        if notes:
            self.notes = notes
        return self

    def summary(self) -> str:
        status = {True: "SUPPORTED", False: "NOT SUPPORTED", None: "UNEVALUATED"}[
            self.supported
        ]
        vals = ", ".join(f"{k}={_fmt(v)}" for k, v in self.measured.items())
        out = f"[{self.id}] {status}: {self.claim}"
        if vals:
            out += f"\n    measured: {vals}"
        if self.notes:
            out += f"\n    notes: {self.notes}"
        return out

    def to_dict(self) -> Dict[str, Any]:
        return {
            "id": self.id,
            "claim": self.claim,
            "measured": self.measured,
            "supported": self.supported,
            "notes": self.notes,
        }


def _fmt(v: Any) -> str:
    if isinstance(v, float):
        return f"{v:.4g}"
    return str(v)


# -- canonical serialization -------------------------------------------------
#
# These live next to the record type (not in the runner) because every
# layer that stores, caches or diffs records must agree on the bytes:
# the experiment runner, the content-addressed run store
# (:mod:`repro.store`) and the golden-fixture tests.

def record_payload(record: ExperimentRecord) -> bytes:
    """Canonical byte serialization of a record (for caching and equality).

    Two records describing the same outcome serialize to the same bytes
    regardless of which process produced them.  ``provenance`` is
    deliberately excluded (see :class:`ExperimentRecord`): the canonical
    payload describes the *outcome*, which must be byte-identical whether
    the record was computed fresh or served from the store.
    """
    from repro.ioutil import canonical_json_bytes

    return canonical_json_bytes(record.to_dict())


def record_from_dict(payload: Dict) -> ExperimentRecord:
    """Inverse of :meth:`ExperimentRecord.to_dict`."""
    return ExperimentRecord(
        id=payload["id"],
        claim=payload["claim"],
        measured=payload["measured"],
        supported=payload["supported"],
        notes=payload["notes"],
    )


class ResultsCollector:
    """Accumulates experiment records and renders/persists them."""

    def __init__(self):
        self.records: Dict[str, ExperimentRecord] = {}

    def record(self, id: str, claim: str) -> ExperimentRecord:
        """Create (or fetch) the record for one experiment id."""
        if id not in self.records:
            self.records[id] = ExperimentRecord(id=id, claim=claim)
        return self.records[id]

    def __len__(self) -> int:
        return len(self.records)

    def table(self) -> str:
        """Markdown table of every record."""
        lines = [
            "| id | claim | measured | verdict |",
            "|----|-------|----------|---------|",
        ]
        for rid in sorted(self.records):
            r = self.records[rid]
            vals = "; ".join(f"{k}={_fmt(v)}" for k, v in r.measured.items())
            verdict = {True: "supported", False: "NOT supported", None: "-"}[r.supported]
            lines.append(f"| {r.id} | {r.claim} | {vals} | {verdict} |")
        return "\n".join(lines)

    def save(self, path) -> None:
        """Persist records as JSON."""
        p = Path(path)
        p.parent.mkdir(parents=True, exist_ok=True)
        with open(p, "w", encoding="utf-8") as fh:
            json.dump(
                [self.records[k].to_dict() for k in sorted(self.records)],
                fh,
                indent=1,
            )
