#!/usr/bin/env python
"""Scenario sweep: the classic striping response surface, declaratively.

Takes the ``a3-ior`` preset (a 4-rank IOR job on the tiny platform) and
expands a cartesian grid over OSS count and stripe count -- the sweep
every parallel file system paper runs by hand-written nested loops --
then executes all points through the cached parallel sweep runner and
prints the resulting bandwidth surface.

A second ``run_sweep`` call over the same grid is served entirely from
the on-disk cache (same scenario digests, same source digest), and each
sweep's run document in the store points at a manifest recording
per-point provenance.

Equivalent CLI:
    repro-io scenario sweep a3-ior n_oss=2,4 stripe_count=1,2,4 --jobs 4

Run:  python examples/scenario_sweep.py
"""

import tempfile
from pathlib import Path

from repro.scenario import expand_grid, get_scenario, run_sweep
from repro.store import RunStore

MiB = 1024 * 1024


def main() -> None:
    base = get_scenario("a3-ior", seed=0)
    grid = {"n_oss": [2, 4], "stripe_count": [1, 2, 4]}
    print(f"base scenario: {base.describe()}")
    print(f"grid: {grid} -> {len(expand_grid(base, grid))} points")
    print()

    with tempfile.TemporaryDirectory() as tmp:
        cache_dir = Path(tmp) / "cache"
        results = run_sweep(base, grid, jobs=4, cache_dir=cache_dir)

        print(f"{'point':<36} {'sim time':>9} {'write bw':>12}")
        for r in results:
            duration = r.outcome["duration"]
            bw = r.outcome["bytes_written"] / duration / 1e6
            print(f"{r.point.name:<36} {duration:>8.3f}s {bw:>9.1f} MB/s")
        print()

        # Second pass: everything comes from the cache.
        again = run_sweep(base, grid, jobs=4, cache_dir=cache_dir)
        n_cached = sum(1 for r in again if r.cached)
        assert n_cached == len(again), "second sweep must be fully cached"
        assert [r.outcome for r in again] == [r.outcome for r in results]
        print(f"re-run: {n_cached}/{len(again)} points served from cache")

        store = RunStore(cache_dir)
        runs = store.runs()
        assert len(runs) == 2, "each sweep lands one run document"
        manifest = store.get(runs[-1]["manifest"]).payload
        assert len(manifest["points"]) == len(results)
        assert all(p["cached"] for p in manifest["points"])
        print(f"sweep manifest: {len(manifest['points'])} point(s), "
              f"source digest {manifest['source_digest'][:16]}")

    # The declared surface should reproduce A3's claim: wider stripes help.
    by_point = {tuple(r.point.overrides.values()): r.outcome for r in results}
    for n_oss in (2, 4):
        s1 = by_point[(n_oss, 1)]
        s4 = by_point[(n_oss, 4)]
        assert s4["duration"] < s1["duration"], "striping must speed up IOR"
    print("\nscenario sweep OK: striping speedup reproduced at every OSS count")


if __name__ == "__main__":
    main()
