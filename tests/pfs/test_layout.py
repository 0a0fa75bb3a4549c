"""Unit and property-based tests for stripe layout arithmetic."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pfs import StripeLayout
from repro.pfs.layout import StripeSlice


def test_constructor_validation():
    with pytest.raises(ValueError):
        StripeLayout(0, [1])
    with pytest.raises(ValueError):
        StripeLayout(1024, [])
    with pytest.raises(ValueError):
        StripeLayout(1024, [1, 1])


def test_ost_of_round_robin():
    lo = StripeLayout(100, [10, 20, 30])
    assert lo.ost_of(0) == 10
    assert lo.ost_of(99) == 10
    assert lo.ost_of(100) == 20
    assert lo.ost_of(250) == 30
    assert lo.ost_of(300) == 10  # wraps around


def test_object_offset_round_robin():
    lo = StripeLayout(100, [10, 20])
    # Byte 0 -> OST 10 object byte 0; byte 200 -> OST 10 object byte 100.
    assert lo.object_offset(0) == 0
    assert lo.object_offset(200) == 100
    # Byte 250: stripe 2 (-> OST 10, second unit there) at offset 150.
    assert lo.object_offset(250) == 150


def test_slices_within_one_stripe():
    lo = StripeLayout(100, [1, 2])
    slices = lo.slices(10, 50)
    assert len(slices) == 1
    s = slices[0]
    assert (s.ost_id, s.object_offset, s.length) == (1, 10, 50)


def test_slices_split_across_osts():
    lo = StripeLayout(100, [1, 2])
    slices = lo.slices(50, 100)
    assert len(slices) == 2
    assert slices[0].ost_id == 1 and slices[0].length == 50
    assert slices[1].ost_id == 2 and slices[1].length == 50
    assert slices[1].object_offset == 0


def test_full_round_merges_per_ost():
    lo = StripeLayout(100, [1, 2])
    # Two full rounds: bytes [0, 400) = stripes 0,1,2,3.
    slices = lo.slices(0, 400)
    # OST 1 holds stripes 0 and 2 (object bytes 0..200 contiguous) -> merged.
    assert len(slices) == 2
    for s in slices:
        assert s.length == 200
        assert s.object_offset == 0


def test_zero_length_request():
    lo = StripeLayout(100, [1])
    assert lo.slices(50, 0) == []


def test_single_ost_layout_never_splits():
    lo = StripeLayout(100, [7])
    slices = lo.slices(0, 1000)
    assert len(slices) == 1
    assert slices[0].object_offset == 0
    assert slices[0].length == 1000


def test_negative_inputs_rejected():
    lo = StripeLayout(100, [1])
    with pytest.raises(ValueError):
        lo.slices(-1, 10)
    with pytest.raises(ValueError):
        lo.ost_of(-1)


# -- property-based tests ----------------------------------------------------

layouts = st.builds(
    StripeLayout,
    stripe_size=st.integers(min_value=16, max_value=4096),
    ost_ids=st.lists(st.integers(0, 63), min_size=1, max_size=8, unique=True),
)
extents = st.tuples(
    st.integers(min_value=0, max_value=1 << 16),
    st.integers(min_value=1, max_value=1 << 14),
)


@settings(max_examples=200, deadline=None)
@given(layout=layouts, extent=extents)
def test_slices_conserve_bytes(layout, extent):
    offset, nbytes = extent
    slices = layout.slices(offset, nbytes)
    assert sum(s.length for s in slices) == nbytes


@settings(max_examples=200, deadline=None)
@given(layout=layouts, extent=extents)
def test_slices_cover_extent_exactly(layout, extent):
    offset, nbytes = extent
    slices = sorted(layout.slices(offset, nbytes), key=lambda s: s.file_offset)
    assert slices[0].file_offset == offset
    # Slices, merged per OST, still tile the file extent without gaps or
    # overlaps when re-expanded to per-file-offset intervals.
    intervals = sorted(
        (s.file_offset, s.file_offset + s.length) for s in slices
    )
    # A merged slice may cover non-adjacent file ranges (same object run),
    # so coverage is checked at stripe-unit granularity instead.
    unit = layout.stripe_size
    covered_units = set()
    for s in slices:
        pos = s.file_offset
        remaining = s.length
        while remaining > 0:
            u = pos // unit
            take = min(unit - pos % unit, remaining)
            covered_units.add((u, pos % unit, take))
            pos_next = (u + 1) * unit
            # Jump to this OST's next stripe unit in file space.
            pos = pos_next + (layout.stripe_count - 1) * unit
            remaining -= take
    total = sum(t for (_, _, t) in covered_units)
    assert total == nbytes
    assert intervals[0][0] == offset


@settings(max_examples=200, deadline=None)
@given(layout=layouts, data=st.data())
def test_extent_inside_one_stripe_unit_is_one_slice(layout, data):
    unit = data.draw(st.integers(0, 64))
    start = data.draw(st.integers(0, layout.stripe_size - 1))
    nbytes = data.draw(st.integers(1, layout.stripe_size - start))
    offset = unit * layout.stripe_size + start
    assert layout.slices(offset, nbytes) == [StripeSlice(
        ost_index=unit % layout.stripe_count,
        ost_id=layout.ost_of(offset),
        object_offset=layout.object_offset(offset),
        file_offset=offset,
        length=nbytes,
    )]
    # One byte more than fits reaches the next unit, on the next OST.
    crosses = nbytes == layout.stripe_size - start
    assert len(layout.slices(offset, nbytes + 1)) == (
        2 if crosses and layout.stripe_count > 1 else 1
    )


@settings(max_examples=200, deadline=None)
@given(layout=layouts, extent=extents)
def test_slices_agree_with_pointwise_mapping(layout, extent):
    """Every byte of every slice maps to the OST ost_of() predicts."""
    offset, nbytes = extent
    for s in layout.slices(offset, nbytes):
        # Check the first and last byte of the slice (interior bytes are
        # contiguous in the object by construction).
        assert layout.ost_of(s.file_offset) == s.ost_id
        assert layout.object_offset(s.file_offset) == s.object_offset


@settings(max_examples=100, deadline=None)
@given(layout=layouts, extent=extents)
def test_object_extents_disjoint_per_ost(layout, extent):
    """No two slices overlap in the same OST object's address space."""
    offset, nbytes = extent
    per_ost: dict = {}
    for s in layout.slices(offset, nbytes):
        per_ost.setdefault(s.ost_id, []).append((s.object_offset, s.object_offset + s.length))
    for ranges in per_ost.values():
        ranges.sort()
        for (a0, a1), (b0, b1) in zip(ranges, ranges[1:]):
            assert a1 <= b0
