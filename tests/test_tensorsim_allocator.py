"""Unit + property tests for the segmented caching allocator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tensorsim.allocator import (
    AllocationError,
    AllocatorStats,
    CachingAllocator,
    DEFAULT_ALIGNMENT,
    LARGE_ROUND,
    MEDIUM_REQUEST,
    MEDIUM_SEGMENT,
    MIN_SPLIT_REMAINDER,
    OutOfMemoryError,
    SMALL_REQUEST,
    SMALL_SEGMENT,
)

MB = 1 << 20


def test_basic_alloc_free_accounting():
    alloc = CachingAllocator(64 * MB)
    b = alloc.malloc(1000)
    assert b.size == 1024  # rounded to 512B alignment
    assert alloc.bytes_in_use == 1024
    alloc.free(b)
    assert alloc.bytes_in_use == 0
    assert alloc.bytes_reserved >= 1024  # segment stays cached
    alloc.check_consistency()


def test_alignment_rounding():
    alloc = CachingAllocator(64 * MB)
    assert alloc.malloc(1).size == DEFAULT_ALIGNMENT
    assert alloc.malloc(DEFAULT_ALIGNMENT).size == DEFAULT_ALIGNMENT
    assert alloc.malloc(DEFAULT_ALIGNMENT + 1).size == 2 * DEFAULT_ALIGNMENT


def test_small_requests_pool_into_one_segment():
    alloc = CachingAllocator(64 * MB)
    for _ in range(16):
        alloc.malloc(4096)
    assert alloc.num_segments() == 1
    assert alloc.bytes_reserved == SMALL_SEGMENT


def test_segment_size_classes():
    alloc = CachingAllocator(1024 * MB)
    alloc.malloc(512 * 1024)  # small -> 2 MiB segment
    assert alloc.bytes_reserved == SMALL_SEGMENT
    alloc.malloc(5 * MB)  # medium -> 20 MiB segment
    assert alloc.bytes_reserved == SMALL_SEGMENT + MEDIUM_SEGMENT
    alloc.malloc(33 * MB)  # large -> dedicated, rounded to 2 MiB
    assert alloc.bytes_reserved == SMALL_SEGMENT + MEDIUM_SEGMENT + 34 * MB


def test_free_block_reuse_best_fit():
    alloc = CachingAllocator(1024 * MB)
    big = alloc.malloc(30 * MB)
    small = alloc.malloc(12 * MB)
    alloc.free(big)
    alloc.free(small)
    reserved = alloc.bytes_reserved
    # a 11 MB request should reuse the 12 MB hole, not the 30 MB one
    b = alloc.malloc(11 * MB)
    assert alloc.bytes_reserved == reserved  # no new segment
    assert b.segment.size == 12 * MB


def test_oom_raised_beyond_capacity():
    alloc = CachingAllocator(8 * MB)
    alloc.malloc(6 * MB)
    with pytest.raises(OutOfMemoryError) as exc:
        alloc.malloc(6 * MB)
    assert exc.value.requested == 6 * MB
    assert alloc.stats.num_oom == 1


def test_tight_fit_segment_when_pooled_size_exceeds_capacity():
    # capacity can hold the request but not the pooled segment size
    alloc = CachingAllocator(3 * MB)
    b = alloc.malloc(512 * 1024)  # pooled would be 2 MiB: fits
    b2 = alloc.malloc(900 * 1024)  # another pooled small fits in same segment
    assert alloc.bytes_reserved <= 3 * MB
    assert b.segment is b2.segment


def test_empty_segment_release_on_pressure():
    alloc = CachingAllocator(8 * MB)
    b = alloc.malloc(5 * MB)
    alloc.free(b)
    # 5 MB (rounded 6 MiB segment) is cached; an 7 MB request cannot fit
    # alongside it, so the free segment must be released and re-reserved.
    big = alloc.malloc(7 * MB)
    assert big.size == 7 * MB
    alloc.check_consistency()


def test_release_cached_returns_bytes():
    alloc = CachingAllocator(64 * MB)
    b = alloc.malloc(4 * MB)
    alloc.free(b)
    released = alloc.release_cached()
    assert released > 0
    assert alloc.bytes_reserved == 0
    assert alloc.bytes_in_use == 0


def test_double_free_rejected():
    alloc = CachingAllocator(64 * MB)
    b = alloc.malloc(1024)
    alloc.free(b)
    with pytest.raises(AllocationError, match="double free"):
        alloc.free(b)


def test_coalescing_merges_neighbours():
    alloc = CachingAllocator(64 * MB)
    blocks = [alloc.malloc(256 * 1024) for _ in range(8)]
    assert alloc.num_segments() == 1
    for b in blocks:
        alloc.free(b)
    # all blocks merged back into one whole-segment free block
    assert len(alloc.free_block_sizes()) == 1
    assert alloc.free_block_sizes()[0] == SMALL_SEGMENT
    alloc.check_consistency()


def test_no_coalescing_keeps_fragments():
    alloc = CachingAllocator(64 * MB, coalescing=False)
    blocks = [alloc.malloc(256 * 1024) for _ in range(8)]
    for b in blocks:
        alloc.free(b)
    assert len(alloc.free_block_sizes()) >= 8


def test_fragmentation_metric():
    alloc = CachingAllocator(1024 * MB)
    keep = []
    for _ in range(10):
        a = alloc.malloc(2 * MB)
        b = alloc.malloc(2 * MB)
        keep.append(b)
        alloc.free(a)
    # free space is scattered in 2 MB holes across dedicated segments
    assert alloc.fragmentation_bytes() > 0
    alloc.check_consistency()


def test_oom_callback_retry():
    held = []

    def evict(requested: int) -> bool:
        if held:
            alloc.free(held.pop())
            return True
        return False

    alloc = CachingAllocator(8 * MB, oom_callback=evict)
    held.append(alloc.malloc(6 * MB))
    b = alloc.malloc(6 * MB)  # succeeds after the callback frees
    assert b.size == 6 * MB


def test_peaks_and_reset():
    alloc = CachingAllocator(64 * MB)
    b = alloc.malloc(10 * MB)
    alloc.free(b)
    assert alloc.stats.peak_in_use == 10 * MB
    alloc.reset_peaks()
    assert alloc.stats.peak_in_use == 0


def test_invalid_construction():
    with pytest.raises(ValueError):
        CachingAllocator(0)
    with pytest.raises(ValueError):
        CachingAllocator(1024, alignment=300)  # not a power of two
    with pytest.raises(ValueError):
        CachingAllocator(1024, alignment=-512)


def test_negative_malloc_rejected():
    alloc = CachingAllocator(64 * MB)
    with pytest.raises(ValueError):
        alloc.malloc(-1)


def test_try_malloc_returns_none_on_oom():
    alloc = CachingAllocator(1 * MB)
    assert alloc.try_malloc(4 * MB) is None
    assert alloc.try_malloc(256 * 1024) is not None


# ---------------------------------------------------------------------------
# Property-based: random alloc/free interleavings keep every invariant
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.booleans(), st.integers(min_value=1, max_value=4 * MB)),
        min_size=1,
        max_size=120,
    )
)
def test_allocator_invariants_under_random_workload(ops):
    alloc = CachingAllocator(256 * MB)
    live = []
    for is_alloc, size in ops:
        if is_alloc or not live:
            block = alloc.try_malloc(size)
            if block is not None:
                live.append(block)
        else:
            alloc.free(live.pop(len(live) // 2))
    alloc.check_consistency()
    assert alloc.bytes_in_use == sum(b.size for b in live)
    assert alloc.bytes_reserved <= alloc.capacity
    for b in live:
        alloc.free(b)
    alloc.check_consistency()
    assert alloc.bytes_in_use == 0


@settings(max_examples=30, deadline=None)
@given(
    sizes=st.lists(st.integers(min_value=1, max_value=MB), min_size=1, max_size=60)
)
def test_free_then_realloc_never_grows_reserved(sizes):
    """Allocating the same multiset of sizes twice reuses the cache."""
    alloc = CachingAllocator(512 * MB)
    first = [alloc.malloc(s) for s in sizes]
    reserved_after_first = alloc.bytes_reserved
    for b in reversed(first):
        alloc.free(b)
    second = [alloc.malloc(s) for s in sizes]
    assert alloc.bytes_reserved == reserved_after_first
    for b in second:
        alloc.free(b)
    alloc.check_consistency()


# ---------------------------------------------------------------------------
# Differential: the indexed allocator against a linear-scan reference model
# ---------------------------------------------------------------------------


class _ReferenceAllocator:
    """Linear-scan model of the allocator's policy, without any index.

    Segments are ``[base, size, blocks]`` with address-ordered blocks
    ``[addr, size, free]``.  Best fit scans every free block and breaks
    size ties toward the lowest address; tails of at least 512 B split
    off; frees coalesce within the segment only (next neighbours first).
    """

    def __init__(self, capacity, coalescing):
        self.capacity, self.coalescing = capacity, coalescing
        self.segments, self.brk = [], 0
        self.stats = dict.fromkeys(AllocatorStats().snapshot(), 0)

    def _reserve(self, size):
        st_ = self.stats
        seg_size = (
            SMALL_SEGMENT if size <= SMALL_REQUEST
            else MEDIUM_SEGMENT if size <= MEDIUM_REQUEST
            else -(-size // LARGE_ROUND) * LARGE_ROUND
        )
        if st_["bytes_reserved"] + seg_size > self.capacity:
            for seg in [s for s in self.segments if s[2] == [[*s[:2], True]]]:
                self.segments.remove(seg)
                st_["bytes_reserved"] -= seg[1]
                st_["num_segments"] -= 1
            if st_["bytes_reserved"] + seg_size > self.capacity:
                seg_size = size  # tight fit
        if st_["bytes_reserved"] + seg_size > self.capacity:
            return None
        self.segments.append([self.brk, seg_size, [[self.brk, seg_size, True]]])
        self.brk += seg_size
        st_["bytes_reserved"] += seg_size
        st_["peak_reserved"] = max(st_["peak_reserved"], st_["bytes_reserved"])
        st_["num_segments"] += 1
        return self.segments[-1]

    def malloc(self, nbytes):
        st_ = self.stats
        size = -(-max(nbytes, 1) // DEFAULT_ALIGNMENT) * DEFAULT_ALIGNMENT
        fits = [(b[1], b[0], seg, i) for seg in self.segments
                for i, b in enumerate(seg[2]) if b[2] and b[1] >= size]
        if not fits:
            seg = self._reserve(size)
            if seg is None:
                st_["num_oom"] += 1
                return None
            fits = [(seg[1], seg[0], seg, 0)]
        _, _, seg, i = min(fits, key=lambda f: f[:2])
        block = seg[2][i]
        if block[1] - size >= MIN_SPLIT_REMAINDER:
            seg[2].insert(i + 1, [block[0] + size, block[1] - size, True])
            block[1] = size
            st_["num_splits"] += 1
        block[2] = False
        st_["bytes_in_use"] += block[1]
        st_["peak_in_use"] = max(st_["peak_in_use"], st_["bytes_in_use"])
        st_["num_allocs"] += 1
        return block

    def free(self, block):
        blocks = next(s[2] for s in self.segments if block in s[2])
        i = next(k for k, b in enumerate(blocks) if b is block)
        block[2] = True
        self.stats["bytes_in_use"] -= block[1]
        self.stats["num_frees"] += 1
        while self.coalescing and i + 1 < len(blocks) and blocks[i + 1][2]:
            blocks[i][1] += blocks.pop(i + 1)[1]
            self.stats["num_coalesces"] += 1
        while self.coalescing and i > 0 and blocks[i - 1][2]:
            blocks[i - 1][1] += blocks.pop(i)[1]
            self.stats["num_coalesces"] += 1
            i -= 1

    def state_signature(self):
        segs = sorted(self.segments)
        return (
            self.stats["bytes_in_use"], self.stats["bytes_reserved"],
            tuple(s[1] for s in segs),
            tuple(sorted((k, b[0] - s[0], b[1]) for k, s in enumerate(segs)
                         for b in s[2] if b[2])),
        )


_SIZES = st.one_of(
    st.integers(min_value=0, max_value=64 * 1024),  # small pool
    st.integers(min_value=SMALL_REQUEST + 1, max_value=MEDIUM_REQUEST),
    st.integers(min_value=MEDIUM_REQUEST + 1, max_value=48 * MB),
)


@settings(max_examples=120, deadline=None)
@given(
    coalescing=st.booleans(),
    ops=st.lists(
        st.tuples(st.booleans(), _SIZES, st.integers(min_value=0)),
        min_size=1,
        max_size=150,
    ),
)
def test_allocator_matches_linear_scan_reference(coalescing, ops):
    alloc = CachingAllocator(160 * MB, coalescing=coalescing)
    ref = _ReferenceAllocator(160 * MB, coalescing)
    live = []
    for is_alloc, size, pick in ops:
        if is_alloc or not live:
            block, model = alloc.try_malloc(size), ref.malloc(size)
            assert (block is None) == (model is None)
            if block is not None:
                assert (block.addr, block.size) == tuple(model[:2])
                live.append((block, model))
        else:
            block, model = live.pop(pick % len(live))
            alloc.free(block)
            ref.free(model)
        assert alloc.stats.snapshot() == ref.stats
        assert alloc.state_signature() == ref.state_signature()
    alloc.check_consistency()
