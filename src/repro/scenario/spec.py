"""Declarative scenario specifications.

The paper's taxonomy (Sec. IV, Fig. 4) treats an evaluation as a configured
*scenario*: a system under test (platform + parallel file system + I/O
stack), a workload, and a measurement plan.  This module makes that
configuration a first-class object -- a tree of frozen dataclasses that can
be validated, canonically serialized (dict / JSON, round-trip exact),
diffed, swept (see :mod:`repro.scenario.sweep`) and finally assembled into
a running simulated system by :func:`repro.scenario.build.build`.

Layers (mirroring Fig. 1 / Fig. 2 of the paper):

* :class:`~repro.cluster.spec.PlatformSpec` (reused as-is) -- nodes,
  fabrics, devices;
* :class:`StorageSpec` -- the parallel file system: striping, RPC size,
  OST device class, allocation policy;
* :class:`StackSpec` -- the per-rank I/O stack: collective buffering,
  client caches;
* :class:`WorkloadSpec` -- one workload from the zoo, by kind + parameters
  (see :data:`WORKLOAD_KIND_NAMES`);
* :class:`ScenarioSpec` -- the whole evaluation: one platform, one file
  system, one stack configuration, an ordered list of workloads, and how
  to run them (sequentially or concurrently).

The ``seed`` of a :class:`ScenarioSpec` is authoritative: at build time it
overrides the platform spec's seed, so ``scenario.with_seed(s)`` is the
one knob an experiment sweeps.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.cluster.spec import PlatformSpec
from repro.faults.spec import FaultSpec, FaultSpecError

SCENARIO_SCHEMA = "repro.scenario/1"

#: OST device classes understood by :class:`StorageSpec` (resolved by
#: :meth:`repro.pfs.filesystem.ParallelFileSystem.from_spec`).
STORAGE_DEVICES = ("disk", "ssd")

#: Allocation policies understood by the PFS layout allocator.
ALLOC_POLICIES = ("round_robin", "load_aware")

MiB = 1024 * 1024

#: Every declarable workload kind; :data:`repro.scenario.workloads.WORKLOAD_KINDS`
#: maps each to its builder.
WORKLOAD_KIND_NAMES = (
    "ior", "mdtest", "checkpoint", "btio", "h5bench", "facility",
    "dlio", "dlio_gen", "analytics", "analytics_gen",
    "workflow", "workflow_boot", "scale_write", "dsl", "grammar",
)

#: DES engines a scenario may request (see
#: :mod:`repro.simulate.scalemodel` and :mod:`repro.des.partition`).
STACK_ENGINES = ("sequential", "partitioned")


class ScenarioError(ValueError):
    """A scenario spec is invalid or cannot be deserialized."""


def _check_fields(cls, payload: Mapping[str, Any], where: str) -> None:
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(payload) - known)
    if unknown:
        raise ScenarioError(f"unknown {where} field(s): {', '.join(unknown)}")


def _field_dict(obj) -> Dict[str, Any]:
    """``dataclasses.asdict`` of a dataclass whose fields are all JSON
    scalars, without its recursive deep copy (a scalar copies to itself)."""
    return {name: getattr(obj, name) for name in obj.__dataclass_fields__}


@dataclass(frozen=True)
class StorageSpec:
    """Parallel-file-system configuration (the ``build_pfs`` knobs)."""

    stripe_size: int = MiB
    default_stripe_count: int = 1
    max_rpc: int = 4 * MiB
    #: OST block device class: ``"disk"`` or ``"ssd"``.
    device: str = "disk"
    alloc_policy: str = "round_robin"
    #: Data copies per stripe: 1 (default), or 2 for FLR-style mirroring
    #: that gives resilient clients a failover target.
    replicas: int = 1

    def validate(self) -> None:
        if self.stripe_size <= 0 or self.max_rpc <= 0:
            raise ScenarioError("stripe_size and max_rpc must be positive")
        if self.default_stripe_count < 1:
            raise ScenarioError("default_stripe_count must be >= 1")
        if self.device not in STORAGE_DEVICES:
            raise ScenarioError(
                f"unknown storage device {self.device!r}; "
                f"choose from {STORAGE_DEVICES}"
            )
        if self.alloc_policy not in ALLOC_POLICIES:
            raise ScenarioError(
                f"unknown alloc_policy {self.alloc_policy!r}; "
                f"choose from {ALLOC_POLICIES}"
            )
        if self.replicas not in (1, 2):
            raise ScenarioError(f"replicas must be 1 or 2, got {self.replicas}")

    def to_dict(self) -> Dict[str, Any]:
        out = _field_dict(self)
        # Serialized form (and thus every digest/cache key) of an
        # unreplicated spec predates the replicas field: omit the default.
        if self.replicas == 1:
            del out["replicas"]
        return out

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "StorageSpec":
        _check_fields(cls, payload, "storage")
        return cls(**payload)


@dataclass(frozen=True)
class StackSpec:
    """Per-rank I/O stack configuration (the ``IOStackBuilder`` knobs)."""

    #: Collective-buffering aggregator count (``None``: MPI-IO default).
    cb_nodes: Optional[int] = None
    read_cache_bytes: int = 0
    write_cache_bytes: int = 0
    #: Client resilience knobs (see :class:`repro.pfs.client.PFSClient`);
    #: the defaults leave resilience off and the RPC path byte-identical.
    rpc_timeout: float = 0.0
    rpc_retries: int = 0
    retry_backoff: float = 0.005
    retry_backoff_cap: float = 0.5
    #: DES engine the scenario runs on: ``"sequential"`` (default, every
    #: workload kind), or ``"partitioned"`` (the windowed parallel engine;
    #: requires cohort-capable workloads such as ``scale_write``).
    engine: str = "sequential"

    def validate(self) -> None:
        if self.cb_nodes is not None and self.cb_nodes < 1:
            raise ScenarioError("cb_nodes must be >= 1 (or None)")
        if self.read_cache_bytes < 0 or self.write_cache_bytes < 0:
            raise ScenarioError("cache sizes must be non-negative")
        if self.rpc_timeout < 0 or self.rpc_retries < 0:
            raise ScenarioError(
                "rpc_timeout and rpc_retries must be non-negative"
            )
        if self.retry_backoff <= 0 or self.retry_backoff_cap < self.retry_backoff:
            raise ScenarioError(
                "retry_backoff must be positive and <= retry_backoff_cap"
            )
        if self.engine not in STACK_ENGINES:
            raise ScenarioError(
                f"unknown engine {self.engine!r}; "
                f"choose from {STACK_ENGINES}"
            )

    def kwargs(self) -> Dict[str, Any]:
        """The keyword arguments :class:`IOStackBuilder` expects."""
        return {
            "cb_nodes": self.cb_nodes,
            "read_cache_bytes": self.read_cache_bytes,
            "write_cache_bytes": self.write_cache_bytes,
            "rpc_timeout": self.rpc_timeout,
            "rpc_retries": self.rpc_retries,
            "retry_backoff": self.retry_backoff,
            "retry_backoff_cap": self.retry_backoff_cap,
        }

    def to_dict(self) -> Dict[str, Any]:
        out = _field_dict(self)
        # Omit resilience/engine fields still at their defaults so earlier
        # scenario digests (and the caches keyed on them) are unchanged.
        for name in ("rpc_timeout", "rpc_retries",
                     "retry_backoff", "retry_backoff_cap", "engine"):
            if out[name] == type(self).__dataclass_fields__[name].default:
                del out[name]
        return out

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "StackSpec":
        _check_fields(cls, payload, "stack")
        return cls(**payload)


@dataclass(frozen=True)
class WorkloadSpec:
    """One workload from the zoo, declared by kind and parameters.

    ``params`` are the keyword arguments of the kind's config class (e.g.
    ``IORConfig`` for kind ``"ior"``) and must stay JSON-native so the
    spec round-trips canonically.  Builders live in
    :mod:`repro.scenario.workloads`.
    """

    kind: str
    n_ranks: int = 4
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        # A private copy: a caller mutating the dict it passed cannot change
        # this spec behind a memoized canonical form.
        object.__setattr__(self, "params", dict(self.params))

    def validate(self) -> None:
        if self.kind not in WORKLOAD_KIND_NAMES:
            raise ScenarioError(
                f"unknown workload kind {self.kind!r}; "
                f"available: {', '.join(sorted(WORKLOAD_KIND_NAMES))}"
            )
        if self.n_ranks < 1:
            raise ScenarioError("n_ranks must be >= 1")

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "n_ranks": self.n_ranks,
                "params": dict(self.params)}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "WorkloadSpec":
        _check_fields(cls, payload, "workload")
        if "kind" not in payload:
            raise ScenarioError("workload spec needs a 'kind'")
        return cls(
            kind=payload["kind"],
            n_ranks=payload.get("n_ranks", 4),
            params=payload.get("params", {}),
        )


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete evaluation scenario.

    ``build()`` (via :func:`repro.scenario.build.build`) assembles the
    simulated platform, parallel file system and per-rank I/O stacks into
    a ready :class:`~repro.simulate.execsim.ExperimentHarness`;
    :func:`repro.scenario.build.run_scenario` additionally runs the
    declared workloads and collects their results.
    """

    name: str
    platform: PlatformSpec = field(default_factory=PlatformSpec)
    storage: StorageSpec = field(default_factory=StorageSpec)
    stack: StackSpec = field(default_factory=StackSpec)
    workloads: Tuple[WorkloadSpec, ...] = ()
    #: Run the workloads at the same simulated time (interference setup)
    #: instead of back to back on the shared file system.
    concurrent: bool = False
    seed: int = 0
    #: Fault timeline injected while the workloads run (empty: healthy).
    faults: FaultSpec = field(default_factory=FaultSpec)

    def __post_init__(self):
        # Tolerate lists (e.g. from from_dict or dataclasses.replace).
        if not isinstance(self.workloads, tuple):
            object.__setattr__(self, "workloads", tuple(self.workloads))
        if not isinstance(self.faults, FaultSpec):
            object.__setattr__(self, "faults", FaultSpec(self.faults))

    # -- validation ----------------------------------------------------------
    def validate(self) -> "ScenarioSpec":
        if not self.name:
            raise ScenarioError("scenario needs a name")
        try:
            self.platform.validate()
        except ValueError as exc:  # PlatformSpec raises plain ValueError
            raise ScenarioError(f"platform: {exc}") from exc
        self.storage.validate()
        self.stack.validate()
        for i, w in enumerate(self.workloads):
            try:
                w.validate()
            except ScenarioError as exc:
                raise ScenarioError(f"workloads[{i}]: {exc}") from exc
        if self.concurrent and len(self.workloads) < 2:
            raise ScenarioError("concurrent scenarios need >= 2 workloads")
        try:
            self.faults.validate()
            self.faults.validate_against(self.platform)
        except FaultSpecError as exc:
            raise ScenarioError(f"faults: {exc}") from exc
        return self

    # -- derivation ----------------------------------------------------------
    def with_seed(self, seed: int) -> "ScenarioSpec":
        """This scenario at another seed (the sweep/experiment knob)."""
        return dataclasses.replace(self, seed=seed)

    def replace(self, **changes) -> "ScenarioSpec":
        """``dataclasses.replace`` convenience passthrough."""
        return dataclasses.replace(self, **changes)

    # -- canonical serialization ---------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        out = {
            "schema": SCENARIO_SCHEMA,
            "name": self.name,
            "seed": self.seed,
            "concurrent": self.concurrent,
            "platform": _field_dict(self.platform),
            "storage": self.storage.to_dict(),
            "stack": self.stack.to_dict(),
            "workloads": [w.to_dict() for w in self.workloads],
        }
        # Empty timelines serialize to nothing at all: a healthy scenario's
        # canonical form (and digest) is exactly what it was before fault
        # injection existed.
        if self.faults:
            out["faults"] = self.faults.to_dict()
        return out

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ScenarioSpec":
        if not isinstance(payload, Mapping):
            raise ScenarioError(f"scenario document must be a mapping, "
                                f"got {type(payload).__name__}")
        schema = payload.get("schema", SCENARIO_SCHEMA)
        if schema != SCENARIO_SCHEMA:
            raise ScenarioError(f"unsupported scenario schema {schema!r} "
                                f"(expected {SCENARIO_SCHEMA!r})")
        extra = sorted(set(payload) - {
            "schema", "name", "seed", "concurrent",
            "platform", "storage", "stack", "workloads", "faults",
        })
        if extra:
            raise ScenarioError(f"unknown scenario field(s): {', '.join(extra)}")
        if "name" not in payload:
            raise ScenarioError("scenario document needs a 'name'")
        platform_payload = dict(payload.get("platform", {}))
        _check_fields(PlatformSpec, platform_payload, "platform")
        try:
            faults = FaultSpec.from_dict(payload.get("faults", {}))
        except FaultSpecError as exc:
            raise ScenarioError(f"faults: {exc}") from exc
        return cls(
            name=payload["name"],
            seed=payload.get("seed", 0),
            concurrent=payload.get("concurrent", False),
            platform=PlatformSpec(**platform_payload),
            storage=StorageSpec.from_dict(payload.get("storage", {})),
            stack=StackSpec.from_dict(payload.get("stack", {})),
            workloads=tuple(
                WorkloadSpec.from_dict(w) for w in payload.get("workloads", ())
            ),
            faults=faults,
        )

    def to_json(self, indent: Optional[int] = 1) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        try:
            payload = json.loads(text)
        except ValueError as exc:
            raise ScenarioError(f"invalid scenario JSON: {exc}") from exc
        return cls.from_dict(payload)

    def canonical_json(self) -> str:
        """Minimal, key-sorted JSON -- the cache/digest identity.

        Serialized once per instance: the spec is frozen, and ``replace``
        and ``with_seed`` build new instances with no memo.
        """
        return self._canonical_json

    @cached_property
    def _canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    def digest(self) -> str:
        """SHA-256 of the canonical serialization."""
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()

    def describe(self) -> str:
        p = self.platform
        parts = [
            f"{self.name}: platform {p.name} "
            f"({p.n_compute}c/{p.n_io}io/{p.n_mds}mds/{p.n_oss}oss"
            f"x{p.osts_per_oss}ost)",
            f"storage {self.storage.device} stripe "
            f"{self.storage.default_stripe_count}x"
            f"{self.storage.stripe_size // 1024}KiB",
        ]
        if self.workloads:
            mode = "concurrent" if self.concurrent else "sequential"
            kinds = ", ".join(
                f"{w.kind}({w.n_ranks}r)" for w in self.workloads
            )
            parts.append(f"{mode} workloads: {kinds}")
        if self.faults:
            parts.append(f"faults: {self.faults.describe()}")
        return " | ".join(parts)
