"""Named scenario presets.

Two kinds of presets live here:

* generic sizings (``tiny``, ``medium``) for examples and quick tests;
* the exact configurations the claims experiments
  (:mod:`repro.experiments`) run -- each experiment *declares* its system
  under test and workloads as a scenario instead of hand-wiring them, so
  ``repro-io scenario run c3-dlio`` reproduces precisely what claim C3
  measures.

Presets are ``seed -> ScenarioSpec`` callables rather than constants
because some workload parameters embed the seed (e.g. C3's DLIO shuffle
seed) and the scenario seed must thread through to the platform RNG.
Platform-only presets (empty workload list) exist for experiments that
hand-wire their measurement loop (burst-buffer staging, trace replay,
client-cache microbenchmarks) on a scenario-built system.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.cluster.spec import large_spec, medium_spec, tiny_spec
from repro.faults.spec import FaultEventSpec, FaultSpec
from repro.scenario.spec import ScenarioSpec, StackSpec, StorageSpec, WorkloadSpec

MiB = 1024 * 1024
KiB = 1024


def _tiny(name: str, seed: int, **kwargs) -> ScenarioSpec:
    return ScenarioSpec(name=name, platform=tiny_spec(), seed=seed, **kwargs)


# -- generic sizings ---------------------------------------------------------
def tiny(seed: int = 0) -> ScenarioSpec:
    """Smallest useful scenario: tiny platform, one 4-rank IOR job."""
    return _tiny(
        "tiny", seed,
        workloads=(WorkloadSpec("ior", 4, {"block_size": 4 * MiB,
                                           "transfer_size": MiB}),),
    )


def medium(seed: int = 0) -> ScenarioSpec:
    """Medium platform, one 8-rank IOR job striped over 4 OSTs."""
    return ScenarioSpec(
        name="medium", platform=medium_spec(), seed=seed,
        workloads=(WorkloadSpec("ior", 8, {"block_size": 8 * MiB,
                                           "transfer_size": MiB,
                                           "stripe_count": 4}),),
    )


# -- scale tier: the parallel-engine scenarios -------------------------------
def scale_tiny(seed: int = 0) -> ScenarioSpec:
    """Small scale-model scenario (256 ranks, 4 islands): exercises every
    engine in seconds; the engine-equivalence tests sweep it."""
    return _tiny(
        "scale-tiny", seed,
        workloads=(WorkloadSpec("scale_write", 256,
                                {"islands": 4, "rounds": 4}),),
    )


def scale_100k(seed: int = 0) -> ScenarioSpec:
    """The 100k-rank scale scenario the PR 6 benchmark tier measures.

    64 fabric islands (8 OSS x 8 OSTs on the large platform), 10 bulk-
    synchronous checkpoint rounds: >= 2M events on the sequential per-rank
    engine, ~1300 cohort events on the parallel engines.
    """
    return ScenarioSpec(
        name="scale-100k", platform=large_spec(), seed=seed,
        workloads=(WorkloadSpec("scale_write", 100_000,
                                {"islands": 64, "rounds": 10}),),
    )


# -- claim C2: traditional vs. mixed monthly traffic -------------------------
_C2_TRADITIONAL = (
    WorkloadSpec("checkpoint", 4, {"bytes_per_rank": 8 * MiB, "steps": 2,
                                   "compute_seconds": 0.2, "fsync": False}),
    WorkloadSpec("ior", 4, {"block_size": 8 * MiB, "transfer_size": MiB}),
)

_C2_DLIO = {"n_samples": 256, "sample_bytes": 128 * KiB, "n_shards": 4,
            "batch_size": 16, "epochs": 6, "compute_per_batch": 0.0}
_C2_ANALYTICS = {"input_bytes": 64 * MiB, "compute_per_mb": 0.0}
_C2_WORKFLOW = {"n_inputs": 8, "input_bytes": 2 * MiB}


def c2_traditional(seed: int = 0) -> ScenarioSpec:
    """Write-dominated "traditional month": checkpoints + write-phase IOR."""
    return _tiny("c2-traditional", seed, workloads=_C2_TRADITIONAL)


def c2_mixed(seed: int = 0) -> ScenarioSpec:
    """The traditional month plus the emerging workloads of Sec. V.

    Phase order matches the original experiment exactly: all data
    generation runs before any consumer (hence the standalone ``*_gen`` /
    ``*_boot`` kinds rather than bundled setup).
    """
    return _tiny(
        "c2-mixed", seed,
        workloads=_C2_TRADITIONAL + (
            WorkloadSpec("dlio_gen", 4, _C2_DLIO),
            WorkloadSpec("analytics_gen", 4, _C2_ANALYTICS),
            WorkloadSpec("workflow_boot", 4, _C2_WORKFLOW),
            WorkloadSpec("dlio", 4, _C2_DLIO),
            WorkloadSpec("analytics", 4, _C2_ANALYTICS),
            WorkloadSpec("workflow", 4, _C2_WORKFLOW),
        ),
    )


# -- claim C3: sequential reads vs. shuffled DL training ---------------------
_C3_VOLUME = 512 * 128 * KiB  # n_samples * sample_bytes


def c3_sequential(seed: int = 0) -> ScenarioSpec:
    """Write then sequentially read the C3 data volume with large IOR
    transfers (the measured phase is the second workload)."""
    base = {"block_size": _C3_VOLUME // 4, "transfer_size": 4 * MiB}
    return _tiny(
        "c3-sequential", seed,
        workloads=(
            WorkloadSpec("ior", 4, {**base, "write": True, "read": False}),
            WorkloadSpec("ior", 4, {**base, "write": False, "read": True}),
        ),
    )


def c3_dlio(seed: int = 0) -> ScenarioSpec:
    """Shuffled DLIO mini-batches over the same volume (generation bundled
    as setup so the training epoch is the measured phase)."""
    return _tiny(
        "c3-dlio", seed,
        workloads=(WorkloadSpec("dlio", 4, {
            "n_samples": 512, "sample_bytes": 128 * KiB, "n_shards": 4,
            "batch_size": 16, "epochs": 1, "compute_per_batch": 0.0,
            "seed": seed, "generate": True,
        }),),
    )


# -- claim C4: metadata intensity of workflows vs. checkpoints ---------------
def c4_checkpoint(seed: int = 0) -> ScenarioSpec:
    return _tiny(
        "c4-checkpoint", seed,
        workloads=(WorkloadSpec("checkpoint", 4, {
            "bytes_per_rank": 16 * MiB, "steps": 2, "compute_seconds": 0.1,
            "fsync": False,
        }),),
    )


def c4_workflow(seed: int = 0) -> ScenarioSpec:
    return _tiny(
        "c4-workflow", seed,
        workloads=(WorkloadSpec("workflow", 4, {
            "n_inputs": 12, "input_bytes": MiB, "bootstrap": True,
        }),),
    )


# -- claim C5: burst-buffer absorption ---------------------------------------
def c5_direct(seed: int = 0) -> ScenarioSpec:
    """The checkpoint burst written directly to the disk-backed PFS."""
    return _tiny(
        "c5-direct", seed,
        workloads=(WorkloadSpec("checkpoint", 4, {
            "bytes_per_rank": 16 * MiB, "steps": 1, "compute_seconds": 0.0,
            "fsync": False,
        }),),
    )


def c5_bb(seed: int = 0) -> ScenarioSpec:
    """Platform-only: the experiment hand-wires the staging client."""
    return _tiny("c5-bb", seed)


# -- claim C6: learned I/O-time prediction (sweep base) ----------------------
def c6_ior(seed: int = 0) -> ScenarioSpec:
    """Base point of the C6 training sweep; the experiment expands a grid
    over ``n_ranks``, ``transfer_size``, ``stripe_count`` and
    ``random_offsets``."""
    return _tiny(
        "c6-ior", seed,
        workloads=(WorkloadSpec("ior", 1, {"block_size": 4 * MiB,
                                           "seed": seed}),),
    )


# -- claim C7: trace compression + replay ------------------------------------
def c7_checkpoint(seed: int = 0) -> ScenarioSpec:
    return _tiny(
        "c7-checkpoint", seed,
        workloads=(WorkloadSpec("checkpoint", 2, {
            "bytes_per_rank": 32 * MiB, "steps": 6,
            "transfer_size": 256 * KiB, "compute_seconds": 0.5,
            "file_per_process": False, "fsync": False,
            "path_prefix": "/c7ckpt",
        }),),
    )


# -- claim C8: trace extrapolation to larger scales --------------------------
def c8_direct(seed: int = 0) -> ScenarioSpec:
    """The ground-truth 16-rank IOR run the extrapolation must predict."""
    return _tiny(
        "c8-direct", seed,
        workloads=(WorkloadSpec("ior", 16, {"block_size": 4 * MiB,
                                            "transfer_size": MiB,
                                            "segments": 2}),),
    )


def c8_replay(seed: int = 0) -> ScenarioSpec:
    """Platform-only: the predicted trace is replayed by hand."""
    return _tiny("c8-replay", seed)


# -- claim C9: collective vs. independent I/O --------------------------------
def c9_btio(seed: int = 0) -> ScenarioSpec:
    """BT-IO nested-strided dump, collective mode on (the experiment
    derives the independent-mode variant via an override)."""
    return _tiny(
        "c9-btio", seed,
        workloads=(WorkloadSpec("btio", 8, {
            "grid": 32, "cell_bytes": 40, "dumps": 2, "compute_seconds": 0.0,
            "collective": True,
        }),),
    )


# -- claim C10: cross-application interference -------------------------------
def _c10_job(path: str) -> WorkloadSpec:
    return WorkloadSpec("ior", 2, {"block_size": 16 * MiB,
                                   "transfer_size": 4 * MiB,
                                   "stripe_count": -1, "test_file": path})


def c10_alone(seed: int = 0) -> ScenarioSpec:
    return _tiny("c10-alone", seed, workloads=(_c10_job("/alone"),))


def c10_shared(seed: int = 0) -> ScenarioSpec:
    """Two identical jobs co-scheduled on the shared OST pool."""
    return _tiny(
        "c10-shared", seed, concurrent=True,
        workloads=(_c10_job("/jobA"), _c10_job("/jobB")),
    )


# -- ablations ---------------------------------------------------------------
def a2_ior(seed: int = 0) -> ScenarioSpec:
    """The profiled original of the profile-synthesis ablation."""
    return _tiny(
        "a2-ior", seed,
        workloads=(WorkloadSpec("ior", 4, {"block_size": 8 * MiB,
                                           "transfer_size": MiB,
                                           "read": True}),),
    )


def a3_ior(seed: int = 0) -> ScenarioSpec:
    """Base point of the striping/transfer response surface; the
    experiment sweeps ``stripe_count`` x ``transfer_size``."""
    return _tiny(
        "a3-ior", seed,
        workloads=(WorkloadSpec("ior", 4, {"block_size": 8 * MiB}),),
    )


def a5_client(seed: int = 0) -> ScenarioSpec:
    """Platform-only: the experiment drives a raw PFS client directly."""
    return _tiny("a5-client", seed)


# -- resilience experiments (R1-R3): goodput under failure -------------------
def r1_ckpt_outage(seed: int = 0) -> ScenarioSpec:
    """Checkpoint/restart with one OST failing mid-dump (R1).

    Replicated (FLR-style) layouts give the resilient clients a failover
    target; the run must complete during the outage window, paying
    failovers and degraded mirror writes instead of blocking.
    """
    return _tiny(
        "r1-ckpt-outage", seed,
        storage=StorageSpec(default_stripe_count=2, replicas=2),
        stack=StackSpec(rpc_retries=14, retry_backoff=0.01,
                        retry_backoff_cap=0.2),
        workloads=(WorkloadSpec("checkpoint", 4, {
            "bytes_per_rank": 8 * MiB, "steps": 2, "compute_seconds": 0.2,
            "fsync": False,
        }),),
        faults=FaultSpec((
            FaultEventSpec(kind="ost_outage", target=0,
                           start=0.25, duration=0.5),
        )),
    )


def r2_ior_degraded(seed: int = 0) -> ScenarioSpec:
    """File-per-process IOR with one OST slowed 8x (R2 sweeps the count).

    Per-rank files keep a healthy rank's bandwidth independent of the
    degraded OSTs, so aggregate goodput falls roughly linearly with the
    degraded fraction -- the curve R2 measures.
    """
    return _tiny(
        "r2-ior-degraded", seed,
        stack=StackSpec(rpc_retries=8, retry_backoff=0.01,
                        retry_backoff_cap=0.2),
        workloads=(WorkloadSpec("ior", 4, {
            "block_size": 8 * MiB, "transfer_size": MiB,
            "file_per_process": True, "stripe_count": 1,
        }),),
        faults=FaultSpec((
            FaultEventSpec(kind="ost_slowdown", target=0,
                           start=0.0, duration=60.0, factor=8.0),
        )),
    )


def r3_mds_brownout(seed: int = 0) -> ScenarioSpec:
    """mdtest create/stat/unlink storm under a 6x MDS brown-out (R3)."""
    return _tiny(
        "r3-mds-brownout", seed,
        workloads=(WorkloadSpec("mdtest", 4, {"files_per_rank": 64}),),
        faults=FaultSpec((
            FaultEventSpec(kind="mds_brownout", target=0,
                           start=0.0, duration=60.0, factor=6.0),
        )),
    )


# -- figures -----------------------------------------------------------------
def e1_platform(seed: int = 0) -> ScenarioSpec:
    """The medium platform Fig. 1 renders (platform-only)."""
    return ScenarioSpec(name="e1-platform", platform=medium_spec(), seed=seed)


def e2_stack(seed: int = 0) -> ScenarioSpec:
    """Platform-only: Fig. 2's live stack validation wires its own tracer."""
    return _tiny("e2-stack", seed)


def e4_cycle(seed: int = 0) -> ScenarioSpec:
    """Platform-only: the evaluation-cycle platform factory."""
    return _tiny("e4-cycle", seed)


# -- generated workloads ------------------------------------------------------
def grammar_tiny(seed: int = 0) -> ScenarioSpec:
    """One grammar-sampled job on the tiny platform.

    The derivation is drawn from the default I/O-pattern grammar at
    ``sample_seed`` = the scenario seed, so ``--seed`` sweeps scenario
    *structure* (phases, modes, sizes), not just RNG jitter.  Sweep
    ``sample_seed=0,1,2,...`` for a generated-workload axis on any grid.
    """
    return _tiny(
        "grammar-tiny", seed,
        workloads=(WorkloadSpec("grammar", 4,
                                {"grammar": "default",
                                 "sample_seed": seed}),),
    )


#: Every named scenario, ``name -> (seed -> ScenarioSpec)``.
SCENARIOS: Dict[str, Callable[[int], ScenarioSpec]] = {
    "tiny": tiny,
    "medium": medium,
    "scale-tiny": scale_tiny,
    "scale-100k": scale_100k,
    "c2-traditional": c2_traditional,
    "c2-mixed": c2_mixed,
    "c3-sequential": c3_sequential,
    "c3-dlio": c3_dlio,
    "c4-checkpoint": c4_checkpoint,
    "c4-workflow": c4_workflow,
    "c5-direct": c5_direct,
    "c5-bb": c5_bb,
    "c6-ior": c6_ior,
    "c7-checkpoint": c7_checkpoint,
    "c8-direct": c8_direct,
    "c8-replay": c8_replay,
    "c9-btio": c9_btio,
    "c10-alone": c10_alone,
    "c10-shared": c10_shared,
    "a2-ior": a2_ior,
    "a3-ior": a3_ior,
    "a5-client": a5_client,
    "r1-ckpt-outage": r1_ckpt_outage,
    "r2-ior-degraded": r2_ior_degraded,
    "r3-mds-brownout": r3_mds_brownout,
    "e1-platform": e1_platform,
    "e2-stack": e2_stack,
    "e4-cycle": e4_cycle,
    "grammar-tiny": grammar_tiny,
}


def get_scenario(name: str, seed: int = 0) -> ScenarioSpec:
    """Look up a named scenario at a seed (validated)."""
    from repro.scenario.spec import ScenarioError

    factory = SCENARIOS.get(name)
    if factory is None:
        raise ScenarioError(
            f"unknown scenario {name!r}; available: "
            f"{', '.join(sorted(SCENARIOS))}"
        )
    return factory(seed).validate()


def list_scenarios() -> List[str]:
    """All preset names, sorted."""
    return sorted(SCENARIOS)
