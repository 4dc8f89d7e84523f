"""Segment-based caching allocator over a simulated device address space.

This models the CUDA caching allocator's actual structure:

* memory is reserved from the device in **segments** (``cudaMalloc``
  chunks): small requests share pooled 2 MiB segments, medium ones 20 MiB
  segments, large ones get dedicated segments rounded to 2 MiB;
* within a segment, allocations are served best-fit from free blocks,
  splitting over-large blocks; freed blocks coalesce with free neighbours
  **within the same segment only** — segments never merge, which is the
  mechanistic root of external fragmentation: churny workloads (DTR's
  evict/rematerialise cycles with ever-changing tensor sizes) strand free
  space across many partly-used segments that cannot serve a large
  request, so reserved memory grows well past bytes-in-use (§III-B /
  Fig 5's "budget 4.2 GB, actually 6.7 GB used");
* reserved segments are cached forever (no ``empty_cache`` in the
  training loop), so ``bytes_reserved`` is the footprint an ``nvidia-smi``
  would show;
* when no cached block fits and the remaining capacity cannot hold a new
  segment, allocation raises :class:`OutOfMemoryError` — the signal DTR's
  eviction loop reacts to.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, Optional

DEFAULT_ALIGNMENT = 512  # bytes, the CUDA caching allocator quantum
MIN_SPLIT_REMAINDER = 512
SMALL_REQUEST = 1 << 20  # <1 MiB requests pool into small segments
SMALL_SEGMENT = 2 << 20  # 2 MiB
MEDIUM_REQUEST = 10 << 20  # <10 MiB requests pool into medium segments
MEDIUM_SEGMENT = 20 << 20  # 20 MiB
LARGE_ROUND = 2 << 20  # dedicated segments round up to 2 MiB


class AllocationError(RuntimeError):
    """Base class for allocator failures."""


class OutOfMemoryError(AllocationError):
    """Raised when an allocation cannot be satisfied within capacity.

    Carries enough context for a dynamic planner (DTR) to decide how much
    to evict: the requested size and the free bytes at failure time (which
    may be plentiful if the failure is purely fragmentation).
    """

    def __init__(self, requested: int, free_bytes: int, largest_free: int) -> None:
        self.requested = requested
        self.free_bytes = free_bytes
        self.largest_free = largest_free
        super().__init__(
            f"out of memory: requested {requested} B, "
            f"{free_bytes} B free (largest contiguous {largest_free} B)"
        )


@dataclass(slots=True)
class Segment:
    """One reserved chunk of device memory."""

    base: int
    size: int
    head: Optional["Block"] = None

    @property
    def end(self) -> int:
        return self.base + self.size


@dataclass(slots=True)
class Block:
    """A contiguous region within a segment."""

    addr: int
    size: int
    segment: Segment
    free: bool = True
    owner: str = ""
    prev: Optional["Block"] = field(default=None, repr=False)
    next: Optional["Block"] = field(default=None, repr=False)

    @property
    def end(self) -> int:
        return self.addr + self.size


def _align_up(n: int, quantum: int) -> int:
    return (n + quantum - 1) // quantum * quantum


class _FreeIndex:
    """Size-bucketed, address-ordered index of free blocks.

    Free blocks are bucketed by size class (``size.bit_length()``, so class
    ``c`` holds sizes in the disjoint range ``[2^(c-1), 2^c)``) and each
    bucket is kept sorted by ``(size, addr)``.  Best fit is then a bisect in
    the request's own class followed by the head of the next non-empty class
    — the same block a linear best-fit scan with address tie-break would
    choose, because the class ranges are disjoint and ascending.  This keeps
    allocation :math:`O(\\log n)` under tens of thousands of live blocks
    while staying bit-identical to the linear scan (``state_signature`` and
    the chosen-block sequence are unchanged).

    Invariant: a block's size never changes while it is indexed — callers
    remove before mutating (carve) or merge first and insert once
    (coalesce).
    """

    __slots__ = ("_by_addr", "_buckets", "_classes")

    def __init__(self) -> None:
        self._by_addr: dict[int, Block] = {}
        #: size class -> list of (size, addr, block) sorted ascending
        self._buckets: dict[int, list[tuple[int, int, Block]]] = {}
        self._classes: list[int] = []  # sorted non-empty bucket keys

    def __len__(self) -> int:
        return len(self._by_addr)

    def __contains__(self, addr: int) -> bool:
        return addr in self._by_addr

    def __iter__(self) -> Iterator[int]:
        return iter(self._by_addr)

    def values(self):
        return self._by_addr.values()

    def add(self, block: Block) -> None:
        self._by_addr[block.addr] = block
        cls = block.size.bit_length()
        bucket = self._buckets.get(cls)
        if bucket is None:
            bucket = self._buckets[cls] = []
            insort(self._classes, cls)
        # (size, addr) is unique per block, so the trailing Block is never
        # compared by insort.
        insort(bucket, (block.size, block.addr, block))

    def remove(self, block: Block) -> None:
        del self._by_addr[block.addr]
        cls = block.size.bit_length()
        bucket = self._buckets[cls]
        i = bisect_left(bucket, (block.size, block.addr))
        entry = bucket[i]
        assert entry[1] == block.addr, "free index out of sync with block"
        del bucket[i]
        if not bucket:
            del self._buckets[cls]
            self._classes.remove(cls)

    def max_size(self) -> int:
        """Largest indexed free-block size, O(1) (0 when empty).

        The class list is sorted and every bucket sorted by (size, addr),
        so the last entry of the last class is the global maximum — the
        value ``largest_free_block``/``fragmentation_bytes`` previously
        recomputed with a full linear scan per call.
        """
        if not self._classes:
            return 0
        return self._buckets[self._classes[-1]][-1][0]

    def best_fit(self, size: int) -> Optional[Block]:
        """Smallest free block >= size; ties break toward the lowest addr."""
        classes = self._classes
        k = size.bit_length()
        i = bisect_left(classes, k)
        if i < len(classes) and classes[i] == k:
            # The request's own class may hold both too-small and qualifying
            # blocks; bisect to the first (size, addr) >= (size,).
            bucket = self._buckets[k]
            j = bisect_left(bucket, (size,))
            if j < len(bucket):
                return bucket[j][2]
            i += 1
        if i < len(classes):
            # Every block in a higher class qualifies and is larger than any
            # class-k block, so its (size, addr) minimum is the global best.
            return self._buckets[classes[i]][0][2]
        return None

    def check_consistency(self) -> None:
        indexed = 0
        for cls, bucket in self._buckets.items():
            assert bucket, "empty bucket retained"
            assert cls in self._classes, "bucket missing from class list"
            assert bucket == sorted(bucket), "bucket must stay sorted"
            for size, addr, block in bucket:
                assert block.size == size, "block mutated while indexed"
                assert block.addr == addr, "block moved while indexed"
                assert size.bit_length() == cls, "block in wrong size class"
                assert self._by_addr.get(addr) is block
                indexed += 1
        assert indexed == len(self._by_addr), "bucket/addr views disagree"
        assert self._classes == sorted(self._buckets), "class list stale"
        linear_max = max((b.size for b in self._by_addr.values()), default=0)
        assert self.max_size() == linear_max, "max_size diverged from scan"


@dataclass(slots=True)
class AllocatorStats:
    """Counters maintained by :class:`CachingAllocator`."""

    bytes_in_use: int = 0
    bytes_reserved: int = 0
    peak_in_use: int = 0
    peak_reserved: int = 0
    num_allocs: int = 0
    num_frees: int = 0
    num_oom: int = 0
    num_splits: int = 0
    num_coalesces: int = 0
    num_segments: int = 0

    def snapshot(self) -> dict[str, int]:
        return {
            "bytes_in_use": self.bytes_in_use,
            "bytes_reserved": self.bytes_reserved,
            "peak_in_use": self.peak_in_use,
            "peak_reserved": self.peak_reserved,
            "num_allocs": self.num_allocs,
            "num_frees": self.num_frees,
            "num_oom": self.num_oom,
            "num_splits": self.num_splits,
            "num_coalesces": self.num_coalesces,
            "num_segments": self.num_segments,
        }


class CachingAllocator:
    """Segmented best-fit caching allocator.

    Args:
        capacity: total device memory (bytes) this allocator may reserve.
        alignment: allocation quantum; requests are rounded up to it.
        coalescing: merge adjacent free blocks within a segment on free.
            True matches the CUDA caching allocator; False is a stress
            knob for fragmentation experiments.
        oom_callback: invoked with the failing request size just before an
            :class:`OutOfMemoryError` would be raised; if it returns True
            the allocation is retried once (the hook a reactive planner's
            eviction loop can use).
    """

    def __init__(
        self,
        capacity: int,
        *,
        alignment: int = DEFAULT_ALIGNMENT,
        coalescing: bool = True,
        oom_callback: Optional[Callable[[int], bool]] = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if alignment <= 0 or (alignment & (alignment - 1)) != 0:
            raise ValueError("alignment must be a positive power of two")
        self.capacity = int(capacity)
        self.alignment = alignment
        self.coalescing = coalescing
        self.oom_callback = oom_callback
        self.stats = AllocatorStats()
        self._segments: list[Segment] = []
        self._free_blocks = _FreeIndex()
        self._brk = 0  # next segment base address

    # ------------------------------------------------------------------ info

    @property
    def bytes_in_use(self) -> int:
        """Bytes currently backing live tensors."""
        return self.stats.bytes_in_use

    @property
    def bytes_reserved(self) -> int:
        """Bytes reserved from the device (what nvidia-smi would report)."""
        return self.stats.bytes_reserved

    @property
    def bytes_free_cached(self) -> int:
        """Free bytes sitting inside reserved segments."""
        return self.stats.bytes_reserved - self.stats.bytes_in_use

    @property
    def bytes_available(self) -> int:
        """Bytes an ideal (non-fragmenting) allocator could still serve."""
        return self.capacity - self.stats.bytes_in_use

    def largest_free_block(self) -> int:
        """Largest single allocation currently satisfiable.

        O(1): the bucketed free index tracks its maximum, so the OOM
        error path and per-iteration fragmentation stats no longer pay a
        linear scan over every cached free block.
        """
        return max(
            self._free_blocks.max_size(),
            self.capacity - self.stats.bytes_reserved,
        )

    def fragmentation_bytes(self) -> int:
        """External fragmentation: cached free bytes outside the largest block.

        The memory that exists but cannot serve one large request — the
        quantity behind DTR's budget-vs-actual gap in Fig 5.  O(1) via
        the free index's tracked maximum.
        """
        return max(0, self.bytes_free_cached - self._free_blocks.max_size())

    def free_block_sizes(self) -> list[int]:
        """Sizes of all cached free blocks (for fragmentation histograms)."""
        return sorted(b.size for b in self._free_blocks.values())

    def num_segments(self) -> int:
        return len(self._segments)

    def state_signature(self) -> tuple:
        """Order-sensitive fingerprint of the allocator's behavioural state.

        Two allocators with equal signatures respond identically to any
        future malloc/free sequence.  The signature is *canonical*: no
        observable behaviour depends on absolute segment base addresses —
        allocation is address-ordered best fit (order survives an
        order-preserving relabelling), coalescing is segment-local, and
        nothing outside the allocator ever reads an address — so segments
        are relabelled by base order and free blocks expressed as
        (segment index, offset, size).  Two states that differ only in
        where ``_brk`` happened to place their segments therefore compare
        equal, which is what lets the state re-converge after segment
        release/re-reserve churn.  Used by the iteration replay cache to
        prove a steady-state iteration is identical to a recorded one;
        cost is O(n log n) in the free-block count, negligible next to a
        simulated iteration.
        """
        segments = sorted(self._segments, key=lambda s: s.base)
        index = {s.base: i for i, s in enumerate(segments)}
        return (
            self.stats.bytes_in_use,
            self.stats.bytes_reserved,
            tuple(s.size for s in segments),
            tuple(
                sorted(
                    (index[b.segment.base], b.addr - b.segment.base, b.size)
                    for b in self._free_blocks.values()
                )
            ),
        )

    # ----------------------------------------------------------------- alloc

    def _segment_size_for(self, size: int) -> int:
        if size <= SMALL_REQUEST:
            return SMALL_SEGMENT
        if size <= MEDIUM_REQUEST:
            return MEDIUM_SEGMENT
        return _align_up(size, LARGE_ROUND)

    def malloc(self, nbytes: int, *, owner: str = "") -> Block:
        """Allocate ``nbytes`` (rounded up to alignment).

        Address-ordered best fit: ties on size break toward the lowest
        address, so the chosen block depends only on the *set* of free
        blocks, never on cache insertion history.  This canonical policy
        is what lets two iterations with equal free-block sets behave
        identically (the replay cache's steady-state proof).  A cache hit
        is served right here; only a miss reserves a segment.

        Raises:
            OutOfMemoryError: when the request cannot be satisfied even
                after the ``oom_callback`` (if any) was given a chance to
                release memory.
        """
        if nbytes < 0:
            raise ValueError("cannot allocate a negative number of bytes")
        align = self.alignment  # a power of two (checked at construction)
        size = ((nbytes + align - 1) & -align) or align
        free_blocks = self._free_blocks
        block = free_blocks.best_fit(size)
        if block is None:
            block = self._miss(size)
        # Carve ``size`` bytes from the head of the chosen free block,
        # splitting off the tail when the remainder is worth keeping.
        free_blocks.remove(block)
        stats = self.stats
        remainder = block.size - size
        if remainder >= MIN_SPLIT_REMAINDER:
            nxt = block.next
            tail = Block(
                block.addr + size, remainder, block.segment, True, "",
                block, nxt,
            )
            if nxt is not None:
                nxt.prev = tail
            block.next = tail
            block.size = size
            free_blocks.add(tail)
            stats.num_splits += 1
        block.free = False
        block.owner = owner
        stats.bytes_in_use += block.size
        if stats.bytes_in_use > stats.peak_in_use:
            stats.peak_in_use = stats.bytes_in_use
        stats.num_allocs += 1
        return block

    def try_malloc(self, nbytes: int, *, owner: str = "") -> Optional[Block]:
        """Like :meth:`malloc` but returns None instead of raising."""
        try:
            return self.malloc(nbytes, owner=owner)
        except OutOfMemoryError:
            return None

    def _miss(self, size: int) -> Block:
        """A fresh segment's free block for a request no cached block fits.

        Gives the ``oom_callback`` one chance to release memory before
        raising :class:`OutOfMemoryError`.
        """
        block = self._reserve(size)
        if block is None and self.oom_callback is not None:
            if self.oom_callback(size):
                block = self._free_blocks.best_fit(size)
                if block is None:
                    block = self._reserve(size)
        if block is None:
            self.stats.num_oom += 1
            raise OutOfMemoryError(
                size, self.bytes_free_cached, self.largest_free_block()
            )
        return block

    def _reserve(self, size: int) -> Optional[Block]:
        """Reserve a segment for ``size`` bytes; its one (free, indexed)
        block, or None when capacity cannot hold it."""
        seg_size = self._segment_size_for(size)
        if self.stats.bytes_reserved + seg_size > self.capacity:
            # Like the CUDA caching allocator on a failed cudaMalloc:
            # release completely-free cached segments and retry.
            self._release_empty_segments()
        if self.stats.bytes_reserved + seg_size > self.capacity:
            # a tight-fit segment may still fit where the pooled size won't
            seg_size = _align_up(size, self.alignment)
            if self.stats.bytes_reserved + seg_size > self.capacity:
                return None
        segment = Segment(base=self._brk, size=seg_size)
        self._brk += seg_size
        whole = Block(addr=segment.base, size=seg_size, segment=segment, free=True)
        segment.head = whole
        self._segments.append(segment)
        self._free_blocks.add(whole)
        self.stats.bytes_reserved += seg_size
        self.stats.peak_reserved = max(
            self.stats.peak_reserved, self.stats.bytes_reserved
        )
        self.stats.num_segments += 1
        return whole

    def _release_empty_segments(self) -> None:
        """Return fully-free segments to the device (cudaFree on OOM path)."""
        kept: list[Segment] = []
        for seg in self._segments:
            head = seg.head
            if head is not None and head.free and head.next is None:
                self._free_blocks.remove(head)
                self.stats.bytes_reserved -= seg.size
                self.stats.num_segments -= 1
            else:
                kept.append(seg)
        self._segments = kept

    def release_cached(self) -> int:
        """Public ``empty_cache()``: drop all fully-free segments.

        Returns the number of bytes returned to the device.
        """
        before = self.stats.bytes_reserved
        self._release_empty_segments()
        return before - self.stats.bytes_reserved

    # ------------------------------------------------------------------ free

    def free(self, block: Block) -> None:
        """Return a block to the cache (coalescing within its segment)."""
        if block.free:
            raise AllocationError(f"double free of block at {block.addr}")
        block.free = True
        block.owner = ""
        stats = self.stats
        stats.bytes_in_use -= block.size
        stats.num_frees += 1
        if self.coalescing:
            nxt = block.next
            prv = block.prev
            if (nxt is not None and nxt.free) or (prv is not None and prv.free):
                block = self._coalesce(block)
        self._free_blocks.add(block)

    def _coalesce(self, block: Block) -> Block:
        """Merge free neighbours into ``block`` and return the survivor.

        The survivor is *not* indexed on return: neighbours are removed
        from the free index before their bytes are absorbed, and the caller
        inserts the merged block exactly once — so no indexed block's size
        ever changes (the invariant the bucketed index relies on).
        """
        while block.next is not None and block.next.free:
            nxt = block.next
            self._free_blocks.remove(nxt)
            block.size += nxt.size
            block.next = nxt.next
            if nxt.next is not None:
                nxt.next.prev = block
            self.stats.num_coalesces += 1
        while block.prev is not None and block.prev.free:
            prv = block.prev
            self._free_blocks.remove(prv)
            prv.size += block.size
            prv.next = block.next
            if block.next is not None:
                block.next.prev = prv
            self.stats.num_coalesces += 1
            block = prv
        return block

    # ------------------------------------------------------------- lifecycle

    def clone(self) -> "CachingAllocator":
        """An independent allocator in exactly this behavioural state.

        Segments, block lists, the free index, stats and the ``_brk``
        cursor are all deep-copied; no mutable state is shared, so driving
        the clone cannot disturb the original (the compiled tier's shadow
        certification relies on this).  ``oom_callback`` is deliberately
        not carried over — a clone is a measurement instrument, not a
        participant in the reactive eviction loop.
        """
        new = CachingAllocator.__new__(CachingAllocator)
        new.capacity = self.capacity
        new.alignment = self.alignment
        new.coalescing = self.coalescing
        new.oom_callback = None
        new.stats = replace(self.stats)
        new._segments = []
        new._free_blocks = _FreeIndex()
        new._brk = self._brk
        for seg in self._segments:
            nseg = Segment(base=seg.base, size=seg.size)
            prev: Optional[Block] = None
            node = seg.head
            while node is not None:
                nb = Block(
                    addr=node.addr,
                    size=node.size,
                    segment=nseg,
                    free=node.free,
                    owner=node.owner,
                )
                if prev is None:
                    nseg.head = nb
                else:
                    prev.next = nb
                    nb.prev = prev
                if nb.free:
                    new._free_blocks.add(nb)
                prev = nb
                node = node.next
            new._segments.append(nseg)
        return new

    def reset_peaks(self) -> None:
        """Reset peak statistics (between iterations/experiments)."""
        self.stats.peak_in_use = self.stats.bytes_in_use
        self.stats.peak_reserved = self.stats.bytes_reserved

    def check_consistency(self) -> None:
        """Verify internal invariants; used heavily by the property tests.

        Raises:
            AssertionError: if any invariant is violated.
        """
        in_use = 0
        reserved = 0
        free_seen = 0
        for seg in self._segments:
            reserved += seg.size
            node = seg.head
            assert node is not None, "segment without blocks"
            assert node.prev is None, "segment head has a predecessor"
            prev_end = seg.base
            while node is not None:
                assert node.addr == prev_end, "blocks must tile the segment"
                assert node.size > 0, "blocks must be non-empty"
                assert node.segment is seg, "block belongs to wrong segment"
                if node.free:
                    assert node.addr in self._free_blocks
                    free_seen += 1
                else:
                    assert node.addr not in self._free_blocks
                    in_use += node.size
                prev_end = node.end
                node = node.next
            assert prev_end == seg.end, "blocks must cover the whole segment"
        assert in_use == self.stats.bytes_in_use, "in-use accounting must match"
        assert reserved == self.stats.bytes_reserved, "reserve accounting must match"
        assert free_seen == len(self._free_blocks), "free index must be exact"
        self._free_blocks.check_consistency()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CachingAllocator(in_use={self.bytes_in_use}, "
            f"reserved={self.bytes_reserved}, capacity={self.capacity}, "
            f"segments={len(self._segments)})"
        )
