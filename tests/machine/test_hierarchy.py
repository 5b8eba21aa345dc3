"""Two-level hierarchy: inclusion and miss classification."""

import pytest

from repro.errors import SimulationError
from repro.machine.cache import EXCLUSIVE, MODIFIED, SHARED
from repro.machine.config import CacheConfig
from repro.machine.hierarchy import COHERENCE, COLD, REPLACEMENT, CacheHierarchy


def make_hierarchy(node=0) -> CacheHierarchy:
    l1 = CacheConfig(size=128, line_size=32, associativity=2, name="L1D")
    l2 = CacheConfig(size=512, line_size=32, associativity=2, name="L2")
    return CacheHierarchy(node, l1, l2)


class TestFills:
    def test_l2_then_l1(self):
        h = make_hierarchy()
        h.l2_fill(5, EXCLUSIVE)
        h.l1.insert(5, SHARED)
        assert h.l1.touch(5)
        assert h.l2_state(5) == EXCLUSIVE

    def test_l2_eviction_drops_l1_copy(self):
        h = make_hierarchy()
        # fill one L2 set (2 ways, 8 sets): blocks 0 and 8 map to set 0
        h.l2_fill(0, SHARED)
        h.l1.insert(0, SHARED)
        h.l2_fill(8, SHARED)
        evicted = h.l2_fill(16, SHARED)  # set 0 full -> evict block 0
        assert evicted == (0, SHARED)
        assert not h.l1.contains(0), "inclusion: L1 copy must go with the L2 line"

    def test_seen_tracks_all_filled(self):
        h = make_hierarchy()
        for b in (1, 2, 3):
            h.l2_fill(b, SHARED)
        assert h.seen == {1, 2, 3}


class TestCoherenceActions:
    def test_invalidate_removes_both_levels(self):
        h = make_hierarchy()
        h.l2_fill(5, MODIFIED)
        h.l1.insert(5, SHARED)
        prior = h.coherence_invalidate(5)
        assert prior == MODIFIED
        assert not h.l1.contains(5)
        assert h.l2_state(5) == 0

    def test_invalidate_absent_is_noop(self):
        h = make_hierarchy()
        assert h.coherence_invalidate(9) == 0
        assert 9 not in h.invalidated

    def test_downgrade_keeps_line(self):
        h = make_hierarchy()
        h.l2_fill(5, MODIFIED)
        assert h.coherence_downgrade(5) is True
        assert h.l2_state(5) == SHARED


class TestClassification:
    def test_cold_first_time(self):
        h = make_hierarchy()
        assert h.classify_miss(7) == COLD

    def test_replacement_after_eviction(self):
        h = make_hierarchy()
        h.l2_fill(0, SHARED)
        h.l2_fill(8, SHARED)
        h.l2_fill(16, SHARED)  # evicts 0
        assert h.classify_miss(0) == REPLACEMENT

    def test_coherence_after_invalidation(self):
        h = make_hierarchy()
        h.l2_fill(5, SHARED)
        h.coherence_invalidate(5)
        assert h.classify_miss(5) == COHERENCE

    def test_refill_clears_coherence_mark(self):
        h = make_hierarchy()
        h.l2_fill(5, SHARED)
        h.coherence_invalidate(5)
        h.l2_fill(5, SHARED)  # refetched
        h.coherence_invalidate(5)
        assert h.classify_miss(5) == COHERENCE
        h.l2_fill(5, SHARED)
        h.l2.invalidate(5)  # plain removal, not coherence
        # still marked seen, not invalidated -> replacement
        h.invalidated.discard(5)
        assert h.classify_miss(5) == REPLACEMENT


class TestInvariants:
    def test_flush(self):
        h = make_hierarchy()
        h.l2_fill(1, SHARED)
        h.l1.insert(1, SHARED)
        h.flush()
        assert len(h.l1) == 0 and len(h.l2) == 0
        assert not h.seen and not h.invalidated

    def test_inclusion_check(self):
        h = make_hierarchy()
        h.l2_fill(1, SHARED)
        h.l1.insert(1, SHARED)
        h.check_invariants()
        h.l2.invalidate(1)  # break inclusion by hand
        with pytest.raises(SimulationError):
            h.check_invariants()
