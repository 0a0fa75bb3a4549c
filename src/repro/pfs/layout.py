"""Stripe layout arithmetic.

A file is striped round-robin over ``stripe_count`` OSTs in units of
``stripe_size`` bytes, exactly as in Lustre: file byte ``b`` lives in stripe
``b // stripe_size``, which maps to OST index ``stripe % stripe_count`` at
object offset ``(stripe // stripe_count) * stripe_size + (b % stripe_size)``.

:meth:`StripeLayout.slices` decomposes an arbitrary byte extent into
per-OST contiguous slices; this is the function that determines how much
parallelism a request can exploit, and it is exercised by property-based
tests (coverage, disjointness, byte conservation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence


@dataclass(frozen=True)
class StripeSlice:
    """A contiguous piece of a file extent on a single OST object."""

    ost_index: int  # index into the layout's OST list
    ost_id: int  # global OST identifier
    object_offset: int  # offset within the per-OST backing object
    file_offset: int  # where this slice starts in the file
    length: int

    def __post_init__(self):
        if self.length <= 0:
            raise ValueError("slice length must be positive")
        if min(self.object_offset, self.file_offset) < 0:
            raise ValueError("offsets must be non-negative")


@dataclass(frozen=True)
class StripeLayout:
    """Striping parameters of one file.

    Parameters
    ----------
    stripe_size:
        Bytes per stripe unit (Lustre default: 1 MiB).
    ost_ids:
        The OSTs the file is striped over, in round-robin order.  Its
        length is the stripe count.
    replica_ost_ids:
        Optional mirror set, parallel to ``ost_ids``: stripe ``i`` is also
        written to ``replica_ost_ids[i]`` and a resilient client may fail
        over reads/writes there when the primary OST is unavailable
        (Lustre FLR-style mirroring).  Empty (the default) means
        unreplicated.
    """

    stripe_size: int
    ost_ids: tuple
    replica_ost_ids: tuple

    def __init__(
        self,
        stripe_size: int,
        ost_ids: Sequence[int],
        replica_ost_ids: Sequence[int] = (),
    ):
        if stripe_size <= 0:
            raise ValueError(f"stripe_size must be positive, got {stripe_size}")
        ids = tuple(ost_ids)
        if not ids:
            raise ValueError("layout needs at least one OST")
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate OSTs in layout: {ids}")
        mirrors = tuple(replica_ost_ids)
        if mirrors:
            if len(mirrors) != len(ids):
                raise ValueError(
                    "replica_ost_ids must be parallel to ost_ids "
                    f"({len(mirrors)} != {len(ids)})"
                )
            if len(set(mirrors)) != len(mirrors):
                raise ValueError(f"duplicate OSTs in replica set: {mirrors}")
            same = [i for i, (a, b) in enumerate(zip(ids, mirrors)) if a == b]
            if same:
                raise ValueError(
                    f"replica OST equals primary OST at stripe index {same[0]}"
                )
        object.__setattr__(self, "stripe_size", int(stripe_size))
        object.__setattr__(self, "ost_ids", ids)
        object.__setattr__(self, "replica_ost_ids", mirrors)

    @property
    def stripe_count(self) -> int:
        return len(self.ost_ids)

    def replica_of(self, ost_index: int):
        """Mirror OST for stripe index ``ost_index`` (``None`` if none)."""
        if not self.replica_ost_ids:
            return None
        return self.replica_ost_ids[ost_index]

    def ost_of(self, offset: int) -> int:
        """Global OST id holding file byte ``offset``."""
        if offset < 0:
            raise ValueError("offset must be non-negative")
        return self.ost_ids[(offset // self.stripe_size) % self.stripe_count]

    def object_offset(self, offset: int) -> int:
        """Offset within the per-OST backing object for file byte ``offset``."""
        if offset < 0:
            raise ValueError("offset must be non-negative")
        stripe = offset // self.stripe_size
        return (stripe // self.stripe_count) * self.stripe_size + offset % self.stripe_size

    def slices(self, offset: int, nbytes: int) -> List[StripeSlice]:
        """Decompose ``[offset, offset+nbytes)`` into per-OST slices.

        Consecutive stripe units on the *same* OST object that are also
        contiguous in the object's address space are merged, so a request
        spanning many full stripe rounds produces one slice per OST rather
        than one per stripe unit -- matching how clients build RPCs.
        """
        if offset < 0 or nbytes < 0:
            raise ValueError("offset and nbytes must be non-negative")
        if 0 < nbytes <= self.stripe_size - offset % self.stripe_size:
            # Inside one stripe unit (the common small request): one slice.
            idx = (offset // self.stripe_size) % len(self.ost_ids)
            return [StripeSlice(
                ost_index=idx,
                ost_id=self.ost_ids[idx],
                object_offset=self.object_offset(offset),
                file_offset=offset,
                length=nbytes,
            )]
        raw: List[StripeSlice] = []
        pos = offset
        end = offset + nbytes
        while pos < end:
            stripe = pos // self.stripe_size
            stripe_end = (stripe + 1) * self.stripe_size
            take = min(end, stripe_end) - pos
            idx = stripe % self.stripe_count
            raw.append(
                StripeSlice(
                    ost_index=idx,
                    ost_id=self.ost_ids[idx],
                    object_offset=self.object_offset(pos),
                    file_offset=pos,
                    length=take,
                )
            )
            pos += take
        # Merge object-contiguous neighbours per OST.
        merged: dict[int, List[StripeSlice]] = {}
        for s in raw:
            bucket = merged.setdefault(s.ost_index, [])
            if (
                bucket
                and bucket[-1].object_offset + bucket[-1].length == s.object_offset
            ):
                prev = bucket[-1]
                bucket[-1] = StripeSlice(
                    ost_index=prev.ost_index,
                    ost_id=prev.ost_id,
                    object_offset=prev.object_offset,
                    file_offset=prev.file_offset,
                    length=prev.length + s.length,
                )
            else:
                bucket.append(s)
        out = [s for bucket in merged.values() for s in bucket]
        out.sort(key=lambda s: s.file_offset)
        return out
