"""Large-scenario benchmarks: windowed DES engines vs the sequential fast path.

The scenario is the :mod:`repro.simulate.scalemodel` bulk-synchronous SPMD
write workload -- at full scale 100k ranks over 64 islands for 10 rounds,
which the sequential fast path simulates with ~4.2 million events.  Every
arm must produce a bit-identical result digest; the benchmark's point is
how long each engine takes to get there.

Size is controlled by the ``--scale`` option (``benchmarks/conftest.py``),
a multiplier on the rank counts.  The default (0.05, i.e. 5000 ranks)
keeps a plain ``pytest benchmarks/test_bench_scale.py`` under a minute;
CI smoke uses the same value.  The committed ``BENCH_PR6.json`` numbers
come from ``check_regression.py --tier scale`` at ``--scale 1.0``.
"""

import time

import pytest

RANKS = 100_000
ISLANDS = 64
ROUNDS = 10
# Partition count of the partitioned arm.
WORKERS = 4


@pytest.fixture(scope="module")
def config(scale):
    from repro.simulate.scalemodel import ScaleConfig

    ranks = max(2, int(RANKS * scale))
    return ScaleConfig(
        ranks=ranks, islands=min(ISLANDS, ranks), rounds=ROUNDS, seed=0
    )


def _once(benchmark, fn):
    """Deterministic simulation: one timed round measures everything."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)


def test_sequential_fast_path(benchmark, config, scale):
    from repro.simulate.scalemodel import run_scale

    result = _once(benchmark, lambda: run_scale(config, engine="sequential"))
    # Per rank and round: compute timeout, link admission, jitter timeout,
    # barrier arrival -- the event volume the cohort arms collapse.  At
    # --scale 1.0 this asserts the >= 2M-event tier the scale claim is
    # made on.
    assert result.events >= 4 * config.ranks * config.rounds
    if config.ranks >= RANKS:
        assert result.events >= 2_000_000


def test_cohort_sequential(benchmark, config):
    from repro.simulate.scalemodel import run_cohort_sequential

    result = _once(benchmark, lambda: run_cohort_sequential(config))
    # The whole point of cohorts: events per island-round, not per rank.
    assert result.events < 10 * config.islands * config.rounds


def test_conservative(benchmark, config):
    from repro.simulate.scalemodel import run_cohort

    result = _once(benchmark, lambda: run_cohort(config, workers=1))
    assert result.stats["windows"] > 0


def test_partitioned(benchmark, config):
    from repro.simulate.scalemodel import run_cohort

    workers = min(WORKERS, config.islands)
    result = _once(
        benchmark,
        lambda: run_cohort(config, workers=workers),
    )
    if workers > 1:
        assert result.stats["exchanged"] > 0  # halos crossed partitions


def test_all_arms_bit_identical(config):
    from repro.simulate.scalemodel import (
        run_cohort,
        run_cohort_sequential,
        run_scale,
    )

    digests = {
        run_scale(config, engine="sequential").digest,
        run_cohort_sequential(config).digest,
        run_cohort(config, workers=1).digest,
        run_cohort(config, workers=min(WORKERS, config.islands)).digest,
    }
    assert len(digests) == 1


def test_partitioned_beats_sequential_at_scale(config, scale):
    """The PR's headline claim, asserted directly when run big enough.

    Below 10k ranks the margin is real but thin enough for a loaded host
    to blur, so the assertion only arms at --scale >= 0.1.
    """
    from repro.simulate.scalemodel import run_cohort, run_scale

    if scale < 0.1:
        pytest.skip("crossover margin too thin below --scale 0.1")
    workers = min(WORKERS, config.islands)

    def partitioned():
        return run_cohort(config, workers=workers)

    partitioned()  # warm imports and numpy caches
    start = time.perf_counter()
    seq = run_scale(config, engine="sequential")
    seq_elapsed = time.perf_counter() - start
    start = time.perf_counter()
    par = partitioned()
    par_elapsed = time.perf_counter() - start
    assert par.digest == seq.digest
    assert par_elapsed * 2.0 <= seq_elapsed
