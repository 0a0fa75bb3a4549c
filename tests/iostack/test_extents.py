"""Unit and property tests for extent utilities."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pfs.extents import (
    clip,
    coalesce,
    fill_ratio,
    partition_evenly,
    span,
    total_bytes,
)


def test_coalesce_merges_adjacent():
    assert coalesce([(0, 10), (10, 10)]) == [(0, 20)]


def test_coalesce_merges_overlapping():
    assert coalesce([(0, 15), (10, 10)]) == [(0, 20)]


def test_coalesce_keeps_gaps():
    assert coalesce([(0, 10), (20, 10)]) == [(0, 10), (20, 10)]


def test_coalesce_sorts_and_drops_empty():
    assert coalesce([(50, 5), (0, 10), (30, 0)]) == [(0, 10), (50, 5)]


def test_span_and_fill_ratio():
    ext = [(0, 10), (90, 10)]
    assert span(ext) == (0, 100)
    assert fill_ratio(ext) == pytest.approx(0.2)
    assert fill_ratio([(0, 10)]) == 1.0
    assert fill_ratio([]) == 1.0


def test_clip():
    assert clip([(0, 100)], 25, 75) == [(25, 50)]
    assert clip([(0, 10), (90, 10)], 5, 95) == [(5, 5), (90, 5)]
    assert clip([(0, 10)], 50, 60) == []


def test_partition_evenly_balanced():
    parts = partition_evenly([(0, 100)], 4)
    assert len(parts) == 4
    sizes = [total_bytes(p) for p in parts]
    assert sum(sizes) == 100
    assert max(sizes) - min(sizes) <= 2


def test_partition_evenly_validation():
    with pytest.raises(ValueError):
        partition_evenly([(0, 10)], 0)
    assert partition_evenly([], 3) == [[], [], []]


extent_lists = st.lists(
    st.tuples(st.integers(0, 10_000), st.integers(1, 500)), min_size=1, max_size=20
)


@settings(max_examples=200, deadline=None)
@given(extents=extent_lists)
def test_coalesce_idempotent(extents):
    once = coalesce(extents)
    assert coalesce(once) == once


@settings(max_examples=200, deadline=None)
@given(extents=extent_lists)
def test_coalesce_preserves_covered_bytes(extents):
    covered = set()
    for off, n in extents:
        covered.update(range(off, off + n))
    assert total_bytes(coalesce(extents)) == len(covered)


@settings(max_examples=200, deadline=None)
@given(extents=extent_lists)
def test_coalesce_output_sorted_disjoint(extents):
    out = coalesce(extents)
    for (a0, an), (b0, _) in zip(out, out[1:]):
        assert a0 + an < b0  # strictly disjoint with a gap


@settings(max_examples=100, deadline=None)
@given(extents=extent_lists, parts=st.integers(1, 8))
def test_partition_conserves_bytes(extents, parts):
    merged = coalesce(extents)
    out = partition_evenly(merged, parts)
    assert len(out) == parts
    assert sum(total_bytes(p) for p in out) == total_bytes(merged)
