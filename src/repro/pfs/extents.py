"""Byte-extent utilities shared by the PFS client, the burst-buffer stager
and the MPI-IO and HDF5 layers."""

from __future__ import annotations

from typing import Iterable, List, Tuple

Extent = Tuple[int, int]  # (offset, nbytes)


def coalesce(extents: Iterable[Extent]) -> List[Extent]:
    """Merge overlapping or adjacent extents into a minimal sorted list."""
    items = sorted((off, n) for off, n in extents if n > 0)
    out: List[Extent] = []
    for off, n in items:
        if out and off <= out[-1][0] + out[-1][1]:
            prev_off, prev_n = out[-1]
            out[-1] = (prev_off, max(prev_off + prev_n, off + n) - prev_off)
        else:
            out.append((off, n))
    return out


def total_bytes(extents: Iterable[Extent]) -> int:
    """Sum of extent lengths (overlaps counted twice; coalesce first)."""
    return sum(n for _, n in extents)


def span(extents: Iterable[Extent]) -> Extent:
    """The smallest single extent covering all inputs."""
    items = [(off, n) for off, n in extents if n > 0]
    if not items:
        return (0, 0)
    lo = min(off for off, _ in items)
    hi = max(off + n for off, n in items)
    return (lo, hi - lo)


def fill_ratio(extents: Iterable[Extent]) -> float:
    """Covered bytes / span bytes: 1.0 means dense, near 0 means sparse."""
    items = coalesce(extents)
    _, spn = span(items)
    if spn == 0:
        return 1.0
    return total_bytes(items) / spn


def clip(extents: Iterable[Extent], lo: int, hi: int) -> List[Extent]:
    """Intersect extents with the window ``[lo, hi)``."""
    out: List[Extent] = []
    for off, n in extents:
        a = max(off, lo)
        b = min(off + n, hi)
        if b > a:
            out.append((a, b - a))
    return out


def partition_evenly(extents: List[Extent], parts: int) -> List[List[Extent]]:
    """Split coalesced extents into ``parts`` byte-balanced sublists.

    Used to assign file domains to two-phase I/O aggregators: part ``i``
    receives a contiguous-by-file-order share of roughly ``total/parts``
    bytes (extents are cut where necessary).
    """
    if parts <= 0:
        raise ValueError("parts must be positive")
    items = coalesce(extents)
    total = total_bytes(items)
    if total == 0:
        return [[] for _ in range(parts)]
    share = total / parts
    out: List[List[Extent]] = [[] for _ in range(parts)]
    idx = 0
    budget = share
    for off, n in items:
        pos = off
        rem = n
        while rem > 0:
            if idx == parts - 1:
                out[idx].append((pos, rem))
                rem = 0
                break
            take = int(min(rem, max(1, round(budget))))
            out[idx].append((pos, take))
            pos += take
            rem -= take
            budget -= take
            if budget <= 0:
                idx += 1
                budget += share
    return out
