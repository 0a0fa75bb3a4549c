"""The typed artifact model of the content-addressed run store.

Every result the toolkit produces -- experiment records, run manifests,
sweep manifests, per-point sweep outcomes, trace archives, metrics
snapshots, host metadata, bench reports -- is wrapped in one envelope, a
:class:`RunArtifact`: a ``kind`` tag plus a JSON-serializable ``payload``.
The artifact's identity is the SHA-256 of its canonical JSON document
(sorted keys, no whitespace; see :func:`repro.ioutil.canonical_json_bytes`),
so two producers writing the same outcome land on the same digest and the
store deduplicates them for free.

Mutable context (which source digest a cache entry was keyed on, which
seed produced a record, when a run happened) deliberately lives *outside*
the artifact -- in store refs and run documents -- so it never perturbs
content identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional

from repro.core.experiment import ExperimentRecord, record_from_dict
from repro.ioutil import canonical_json_bytes, sha256_hex
from repro.telemetry.provenance import host_metadata

ARTIFACT_SCHEMA = "repro.store.artifact/1"

#: Every artifact kind the store accepts, with a one-line meaning.
KINDS: Dict[str, str] = {
    "experiment_record": "one ExperimentRecord outcome (claim vs. measured)",
    "run_manifest": "experiment-runner provenance manifest",
    "sweep_manifest": "scenario-sweep provenance manifest",
    "sweep_point": "one sweep point's ScenarioRun outcome",
    "trace": "Chrome trace-event document (self-telemetry spans)",
    "metrics": "metrics-registry snapshot",
    "timeseries": "simulation-clock time-series snapshot (probe samples)",
    "host": "host/interpreter metadata",
    "bench": "benchmark report or baseline",
    "service_job": "run-service job document (tenant, tasks, outcomes)",
    "grammar": "workload-grammar document (repro.wgen.grammar CFG)",
    "synthesis": "trace-to-spec synthesis result with provenance",
}


class ArtifactError(ValueError):
    """An artifact document is malformed or of an unknown kind."""


@dataclass(frozen=True)
class RunArtifact:
    """One content-addressed artifact: a kind tag plus a JSON payload."""

    kind: str
    payload: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ArtifactError(
                f"unknown artifact kind {self.kind!r}; have {sorted(KINDS)}"
            )
        if not isinstance(self.payload, Mapping):
            raise ArtifactError(
                f"artifact payload must be a mapping, got "
                f"{type(self.payload).__name__}"
            )

    # -- identity ------------------------------------------------------------

    def document(self) -> Dict[str, Any]:
        """The exact JSON document the store persists (and hashes)."""
        return {
            "schema": ARTIFACT_SCHEMA,
            "kind": self.kind,
            "payload": dict(self.payload),
        }

    def canonical_bytes(self) -> bytes:
        return canonical_json_bytes(self.document())

    def digest(self) -> str:
        """Content address: SHA-256 of the canonical document bytes."""
        return sha256_hex(self.canonical_bytes())

    @classmethod
    def from_document(cls, doc: Any) -> "RunArtifact":
        if not isinstance(doc, dict) or doc.get("schema") != ARTIFACT_SCHEMA:
            raise ArtifactError(
                f"not a store artifact document "
                f"(schema={doc.get('schema') if isinstance(doc, dict) else None!r})"
            )
        return cls(kind=doc.get("kind"), payload=doc.get("payload", {}))

    # -- typed wrappers ------------------------------------------------------

    @classmethod
    def from_record(cls, record: ExperimentRecord) -> "RunArtifact":
        """Wrap an experiment record (canonical ``to_dict`` payload)."""
        return cls(kind="experiment_record", payload=record.to_dict())

    def to_record(self) -> ExperimentRecord:
        """Unwrap an ``experiment_record`` artifact back into a record."""
        if self.kind != "experiment_record":
            raise ArtifactError(
                f"cannot build an ExperimentRecord from a {self.kind!r} artifact"
            )
        try:
            return record_from_dict(dict(self.payload))
        except (KeyError, TypeError) as exc:
            raise ArtifactError(f"malformed record payload: {exc}") from exc

    @classmethod
    def from_run_manifest(cls, doc: Mapping[str, Any]) -> "RunArtifact":
        return cls(kind="run_manifest", payload=doc)

    @classmethod
    def from_sweep_manifest(cls, doc: Mapping[str, Any]) -> "RunArtifact":
        return cls(kind="sweep_manifest", payload=doc)

    @classmethod
    def from_sweep_point(cls, outcome: Mapping[str, Any]) -> "RunArtifact":
        """Wrap one sweep point's ``ScenarioRun.to_dict`` outcome."""
        return cls(kind="sweep_point", payload=outcome)

    @classmethod
    def from_trace(cls, doc: Mapping[str, Any]) -> "RunArtifact":
        return cls(kind="trace", payload=doc)

    @classmethod
    def from_metrics(cls, doc: Mapping[str, Any]) -> "RunArtifact":
        return cls(kind="metrics", payload=doc)

    @classmethod
    def from_timeseries(cls, doc: Mapping[str, Any]) -> "RunArtifact":
        """Wrap a :meth:`SeriesRegistry.to_dict` document."""
        return cls(kind="timeseries", payload=doc)

    @classmethod
    def from_host(cls, meta: Mapping[str, str]) -> "RunArtifact":
        return cls(kind="host", payload=meta)

    @classmethod
    def from_bench(cls, report: Mapping[str, Any]) -> "RunArtifact":
        return cls(kind="bench", payload=report)

    @classmethod
    def from_service_job(cls, doc: Mapping[str, Any]) -> "RunArtifact":
        """Wrap a run-service job document (see :mod:`repro.service`)."""
        return cls(kind="service_job", payload=doc)

    @classmethod
    def from_grammar(cls, doc: Mapping[str, Any]) -> "RunArtifact":
        """Wrap a :meth:`GrammarSpec.to_dict` grammar document."""
        return cls(kind="grammar", payload=doc)

    @classmethod
    def from_synthesis(cls, doc: Mapping[str, Any]) -> "RunArtifact":
        """Wrap a :meth:`SynthesisResult.to_dict` document (scenario +
        derivation + provenance back to the source trace)."""
        return cls(kind="synthesis", payload=doc)

    def describe(self) -> str:
        """One-line human summary, used by ``repro-io store ls/show``."""
        p = self.payload
        if self.kind == "experiment_record":
            verdict = {True: "supported", False: "NOT supported", None: "-"}[
                p.get("supported")
            ]
            return f"record {p.get('id', '?')} [{verdict}]"
        if self.kind == "run_manifest":
            return (
                f"run manifest: {len(p.get('tasks', ()))} task(s), "
                f"source {str(p.get('source_digest') or '?')[:12]}"
            )
        if self.kind == "sweep_manifest":
            return (
                f"sweep manifest: base {p.get('base_scenario', '?')}, "
                f"{len(p.get('points', ()))} point(s)"
            )
        if self.kind == "sweep_point":
            return (
                f"sweep point: {p.get('scenario', p.get('name', '?'))} "
                f"({p.get('duration', 0.0):.3f}s sim)"
            )
        if self.kind == "trace":
            return f"trace: {len(p.get('traceEvents', ()))} event(s)"
        if self.kind == "metrics":
            return f"metrics: {len(p.get('metrics', {}))} metric(s)"
        if self.kind == "timeseries":
            series = p.get("series", ())
            points = sum(len(s.get("times", ())) for s in series)
            return f"timeseries: {len(series)} series, {points} point(s)"
        if self.kind == "host":
            return f"host: {p.get('host', '?')} python {p.get('python', '?')}"
        if self.kind == "bench":
            return f"bench: {len(p.get('median_seconds', p))} benchmark(s)"
        if self.kind == "service_job":
            return (
                f"service job {p.get('job_id', '?')} [{p.get('state', '?')}]: "
                f"tenant {p.get('tenant', '?')}, "
                f"{len(p.get('tasks', ()))} task(s)"
            )
        if self.kind == "grammar":
            return (
                f"grammar {p.get('name', '?')}: "
                f"{len(p.get('rules', ()))} rule(s)"
            )
        if self.kind == "synthesis":
            return (
                f"synthesis: source {str(p.get('source_digest') or '?')[:12]}, "
                f"distance {p.get('distance', float('nan')):.4f} "
                f"({len(p.get('choices', ()))} choice(s))"
            )
        return self.kind  # pragma: no cover - KINDS is exhaustive


def host_reference(store) -> Dict[str, str]:
    """Store host metadata as an artifact; return a by-digest reference.

    The experiment runner and the sweep runner both call this: the
    metadata is collected once (see
    :func:`repro.telemetry.provenance.host_metadata`) and stored once
    (content addressing deduplicates it across every run on the same
    host), and manifests carry ``{"artifact": <digest>, "host": <node>,
    "python": <version>}`` -- enough to display, with the rest one
    ``store.get`` away.
    """
    meta = host_metadata()
    digest = store.put(RunArtifact.from_host(meta))
    return {"artifact": digest, "host": meta["host"], "python": meta["python"]}
