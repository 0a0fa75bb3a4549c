"""The scale model: one SPMD I/O workload, three engines, identical answers.

This module is the proving ground for the parallel-DES claim.  It models a
bulk-synchronous SPMD application -- ``ranks`` MPI ranks spread over
``islands`` fabric islands (rack + OSS group), each round computing, then
writing a checkpoint slice through the island's shared link, then
absorbing per-rank post-processing jitter, then hitting an island barrier
and exchanging a halo with the neighbouring island -- in two arms that
produce **bit-identical results**:

``run_scalar``
    The PR-1 sequential fast path: one coroutine per rank on
    :class:`repro.des.engine.Environment`, a :class:`FairShareLink` per
    island.  ~40 events per rank over 10 rounds; at 100k ranks this is a
    multi-million-event simulation and the baseline the parallel engines
    must beat.

``run_cohort``
    The vectorized arm: one :class:`LogicalProcess` per island, whose
    handler advances the whole rank population with numpy cohort kernels
    (elementwise float64, exact selections -- see
    :mod:`repro.des.cohort`).  Runs on the sequential, conservative, or
    partitioned executor; island halos are the cross-partition traffic.

Exactness is by construction, not tolerance.  Within one island round all
ranks start together and write equal-size slices, so the fair-share link
completes them simultaneously at ``A + b*n/rate`` -- evaluated with the
same float64 operations :class:`FairShareLink` performs -- and per-rank
jitter is an elementwise ``F + s_i`` add, identical in numpy and scalar
Python.  Round ends are exact ``max`` selections.  Heterogeneity lives
*across* islands and rounds (seeded layout arrays shared by both arms).
The result digest hashes the raw float64 bits of every round end, so the
equivalence tests catch a single-ulp divergence.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.des.cohort import (
    cohort_max,
    fair_share_batch_times,
    jitter_finish_times,
    observe_cohort,
    require_numpy,
)
from repro.des.engine import Environment
from repro.des.events import Event
from repro.des.partition import PartitionPlan, PartitionedExecutor
from repro.des.ross import LogicalProcess, RossKernel, SequentialExecutor
from repro.des.sharing import FairShareLink

ENGINES = ("sequential", "conservative", "partitioned")


# ---------------------------------------------------------------------------
# Configuration and layout
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScaleConfig:
    """Shape of the scale scenario.  Picklable (process-backend factories).

    ``sync`` controls cross-island heterogeneity: 0 keeps every island's
    round durations identical (maximum window occupancy for the windowed
    engines), larger values let islands drift apart.  The default keeps
    drift well inside one lookahead over the whole run, which is the
    regime where topology partitioning pays.
    """

    ranks: int = 1024
    islands: int = 8
    rounds: int = 4
    seed: int = 0
    #: Aggregate island link rate, bytes/second.
    rate: float = 4.0e9
    #: Mean compute phase duration per round, seconds.
    compute_base: float = 0.1
    #: Checkpoint slice per rank per round, bytes (log-uniform-ish range).
    bytes_min: int = 1 << 20
    bytes_max: int = 8 << 20
    #: Per-rank post-write jitter upper bound, seconds.
    jitter: float = 0.01
    #: Cross-island round-duration spread (fraction of compute_base).
    sync: float = 0.02

    def validate(self) -> None:
        if self.ranks < 1 or self.islands < 1 or self.rounds < 1:
            raise ValueError("ranks, islands and rounds must be positive")
        if self.islands > self.ranks:
            raise ValueError("more islands than ranks")
        if self.rate <= 0 or self.compute_base <= 0:
            raise ValueError("rate and compute_base must be positive")
        if not 0 <= self.sync <= 1:
            raise ValueError("sync must be in [0, 1]")


class ScaleLayout:
    """Seeded per-island/per-round parameter arrays, shared by both arms.

    * ``island_ranks[k]`` -- rank count of island k (remainder spread over
      the first islands).
    * ``compute[k][w]`` / ``nbytes[k][w]`` -- the round's compute time and
      per-rank slice size; uniform *within* an island round (the fair-share
      exactness requirement), drawn per island and round.
    * ``jitter[k]`` -- float64 array of shape (rounds, island_ranks[k]).
    """

    def __init__(self, config: ScaleConfig):
        require_numpy("the scale model")
        import numpy as np

        config.validate()
        self.config = config
        k, w = config.islands, config.rounds
        base, r = divmod(config.ranks, k)
        self.island_ranks = [base + (1 if i < r else 0) for i in range(k)]
        rng = np.random.default_rng(config.seed)
        spread = config.compute_base * config.sync
        # One global per-round baseline plus a small per-island wobble:
        # islands stay near-synchronous so conservative windows stay full.
        round_base = rng.uniform(
            0.75 * config.compute_base, 1.25 * config.compute_base, size=w
        )
        self.compute = round_base[None, :] + rng.uniform(
            -spread, spread, size=(k, w)
        )
        self.nbytes = rng.integers(
            config.bytes_min, config.bytes_max + 1, size=(k, w)
        ).astype(np.float64)
        self.jitter = [
            rng.uniform(0.0, config.jitter, size=(w, self.island_ranks[i]))
            for i in range(k)
        ]

    def min_round_duration(self) -> float:
        """Strict lower bound on any island round's duration."""
        import numpy as np

        n = np.asarray(self.island_ranks, dtype=np.float64)
        durations = self.compute + (self.nbytes * n[:, None]) / self.config.rate
        return float(durations.min())

    def lookahead(self) -> float:
        """Window width: half the shortest round keeps every message --
        self round-advance and neighbour halo -- beyond the horizon."""
        return 0.5 * self.min_round_duration()


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------

@dataclass
class ScaleResult:
    """Outcome of one scale-model run; digests are engine-invariant."""

    engine: str
    backend: Optional[str]
    ranks: int
    islands: int
    rounds: int
    #: Virtual time of the last island barrier (model-level duration).
    duration: float
    #: Total bytes written, exact integer accounting.
    bytes_written: int
    #: Simulator events processed (engine-dependent: the cohort arms
    #: collapse per-rank events into per-island cohorts).
    events: int
    #: SHA-256 over the raw float64 bits of every island's round-end times
    #: plus halo records plus byte counts.  Bit-identical across engines.
    digest: str
    #: Last round-end time per island (spot-check data, small).
    final_round_ends: List[float] = field(default_factory=list)
    #: Engine-specific extras (window counts, occupancy, ...).
    stats: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "engine": self.engine,
            "backend": self.backend,
            "ranks": self.ranks,
            "islands": self.islands,
            "rounds": self.rounds,
            "duration": self.duration,
            "bytes_written": self.bytes_written,
            "events": self.events,
            "digest": self.digest,
            "stats": dict(self.stats),
        }


def _digest_islands(per_island: List[Dict[str, Any]]) -> str:
    """Hash round-end float bits, halo records and byte counts, in island
    order.  Floats are packed raw -- a one-ulp divergence changes the hash."""
    h = hashlib.sha256()
    for isl in per_island:
        ends = isl["round_ends"]
        h.update(struct.pack(f"<{len(ends)}d", *ends))
        for src, w, t in sorted(isl["halos"]):
            h.update(struct.pack("<qqd", src, w, t))
        h.update(struct.pack("<q", isl["bytes"]))
    return h.hexdigest()


def _finalize(
    engine: str,
    backend: Optional[str],
    config: ScaleConfig,
    per_island: List[Dict[str, Any]],
    events: int,
    stats: Optional[Dict[str, Any]] = None,
) -> ScaleResult:
    ends = [isl["round_ends"][-1] for isl in per_island]
    return ScaleResult(
        engine=engine,
        backend=backend,
        ranks=config.ranks,
        islands=config.islands,
        rounds=config.rounds,
        duration=max(ends),
        bytes_written=sum(isl["bytes"] for isl in per_island),
        events=events,
        digest=_digest_islands(per_island),
        final_round_ends=ends,
        stats=stats or {},
    )


# ---------------------------------------------------------------------------
# Scalar arm: one coroutine per rank (the sequential fast path)
# ---------------------------------------------------------------------------

class _Barrier:
    """One-shot island barrier: the shared event fires when the last rank
    arrives, so every waiter resumes at exactly max(arrival times)."""

    __slots__ = ("env", "n", "arrived", "event")

    def __init__(self, env: Environment, n: int):
        self.env = env
        self.n = n
        self.arrived = 0
        self.event = Event(env)

    def arrive(self) -> Event:
        self.arrived += 1
        if self.arrived == self.n:
            self.event.succeed(self.env.now)
        return self.event


def run_scalar(config: ScaleConfig) -> ScaleResult:
    """Simulate every rank as its own coroutine on the scalar engine."""
    layout = ScaleLayout(config)
    env = Environment()
    k = config.islands
    round_ends: List[List[float]] = [[] for _ in range(k)]
    links = [FairShareLink(env, rate=config.rate) for _ in range(k)]
    barriers: List[Optional[_Barrier]] = [None] * k

    def rank_proc(island: int, idx: int):
        link = links[island]
        n = layout.island_ranks[island]
        jit = layout.jitter[island]
        for w in range(config.rounds):
            yield env.timeout(float(layout.compute[island][w]))
            yield link.transfer(float(layout.nbytes[island][w]))
            yield env.timeout(float(jit[w][idx]))
            barrier = barriers[island]
            if barrier is None or barrier.arrived == barrier.n:
                barrier = barriers[island] = _Barrier(env, n)
            ev = barrier.arrive()
            if barrier.arrived == barrier.n:
                round_ends[island].append(env.now)
            yield ev

    for island in range(k):
        for idx in range(layout.island_ranks[island]):
            env.process(rank_proc(island, idx))
    env.run()

    per_island = []
    for island in range(k):
        src = (island - 1) % k
        per_island.append({
            "round_ends": round_ends[island],
            # The halo an island receives is its neighbour's round-end
            # report; in this arm it is derived rather than transported.
            "halos": [
                (src, w, round_ends[src][w]) for w in range(config.rounds)
            ],
            "bytes": int(layout.nbytes[island].sum())
            * layout.island_ranks[island],
        })
    return _finalize(
        "sequential", None, config, per_island, env.events_processed
    )


# ---------------------------------------------------------------------------
# Cohort arm: one LP per island, numpy over the rank population
# ---------------------------------------------------------------------------

class IslandLP(LogicalProcess):
    """Advances one island's whole rank population per round event.

    Keeps its own exact clock (``self.clock``): the round start is the
    previous round's *stored* end time, never the (float-rounded) event
    timestamp, which is what makes the arithmetic bit-identical to the
    scalar arm's event cascade.
    """

    def __init__(self, lp_id: int, layout: ScaleLayout):
        super().__init__(lp_id)
        self.layout = layout
        self.clock = 0.0
        self.round_index = 0
        self.round_ends: List[float] = []
        self.halos: List[Tuple[int, int, float]] = []
        self.bytes = 0

    def handle(self, kernel, event) -> None:
        if event.kind == "halo":
            self.halos.append(event.payload)
            return
        if event.kind != "round":  # pragma: no cover - model misuse
            raise ValueError(f"unexpected event kind {event.kind!r}")
        layout = self.layout
        config = layout.config
        k = self.lp_id
        w = self.round_index
        n = layout.island_ranks[k]
        start = self.clock
        # The whole island round, vectorized: arrival, simultaneous
        # fair-share completion, per-rank jitter, barrier max.
        arrive = start + float(layout.compute[k][w])
        finish = fair_share_batch_times(
            arrive, float(layout.nbytes[k][w]), n, config.rate
        )
        done = jitter_finish_times(finish, layout.jitter[k][w])
        end = cohort_max(done)
        observe_cohort("island_round", n, end)
        self.round_ends.append(end)
        self.bytes += int(layout.nbytes[k][w]) * n
        self.clock = end
        self.round_index += 1
        la = layout.lookahead()
        kernel.send(
            (k + 1) % config.islands, max(la, end - kernel.now), "halo",
            (k, w, end),
        )
        if self.round_index < config.rounds:
            # end - start >= 2 * lookahead by construction, so the
            # self-advance always clears the window.
            kernel.send(k, end - kernel.now, "round", None)

    def state_digest(self) -> Any:
        return (self.lp_id, self.round_index, tuple(self.round_ends))

    def collect_result(self) -> Dict[str, Any]:
        return {
            "round_ends": list(self.round_ends),
            "halos": sorted(self.halos),
            "bytes": self.bytes,
        }


def build_kernel(config: ScaleConfig) -> RossKernel:
    """Populate a kernel with one island LP per fabric island.

    Module-level and driven only by the picklable config, so it doubles as
    the ``kernel_factory`` for the partitioned process backend.
    """
    layout = ScaleLayout(config)
    kernel = RossKernel(lookahead=layout.lookahead())
    for k in range(config.islands):
        kernel.add_lp(IslandLP(k, layout))
    for k in range(config.islands):
        kernel.inject(0.0, k, "round", None)
    return kernel


def run_cohort(
    config: ScaleConfig,
    engine: str = "conservative",
    backend: str = "thread",
    workers: Optional[int] = None,
) -> ScaleResult:
    """Run the island-LP model under the chosen parallel engine.

    Both engines are the conservative windowed executor:
    ``"conservative"`` on one partition with the serial backend,
    ``"partitioned"`` on ``workers`` contiguous partitions with ``backend``.
    """
    if engine not in ("conservative", "partitioned"):
        raise ValueError(f"run_cohort: unknown engine {engine!r}")
    if engine == "conservative":
        backend, workers = "serial", 1
    import multiprocessing

    n_workers = workers or multiprocessing.cpu_count()
    plan = PartitionPlan.contiguous(range(config.islands), n_workers)
    if backend == "process":
        ex = PartitionedExecutor(
            plan=plan,
            backend="process",
            kernel_factory=build_kernel,
            factory_args=(config,),
        )
    else:
        ex = PartitionedExecutor(
            build_kernel(config), plan, backend=backend, max_workers=workers
        )
    stats = ex.run()
    results = ex.collect("collect_result")
    collected = [results[k] for k in range(config.islands)]
    extra = {
        "windows": stats.windows,
        "critical_path": stats.critical_path,
        "partitions": stats.partitions,
        "mean_occupancy": stats.mean_occupancy,
        "exchanged": stats.exchanged,
    }
    return _finalize(engine, backend, config, collected, stats.events, extra)


def run_cohort_sequential(config: ScaleConfig) -> ScaleResult:
    """The island-LP model on the *sequential* LP executor (validation arm:
    separates 'vectorize the cohorts' from 'parallelize the windows')."""
    kernel = build_kernel(config)
    stats = SequentialExecutor(kernel).run()
    collected = [kernel.lps[k].collect_result() for k in range(config.islands)]
    return _finalize("cohort-sequential", None, config, collected, stats.events)


def run_scale(
    config: ScaleConfig,
    engine: str = "sequential",
    backend: str = "thread",
    workers: Optional[int] = None,
) -> ScaleResult:
    """Engine dispatch: the one entry point the scenario layer calls."""
    if engine == "sequential":
        return run_scalar(config)
    if engine in ("conservative", "partitioned"):
        return run_cohort(config, engine=engine, backend=backend, workers=workers)
    raise ValueError(
        f"unknown engine {engine!r}; choose from {ENGINES}"
    )


__all__ = [
    "ENGINES",
    "IslandLP",
    "ScaleConfig",
    "ScaleLayout",
    "ScaleResult",
    "build_kernel",
    "run_cohort",
    "run_cohort_sequential",
    "run_scalar",
    "run_scale",
]
