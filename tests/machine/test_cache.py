"""Set-associative cache model."""

import pytest

from repro.errors import SimulationError
from repro.machine.cache import EXCLUSIVE, MODIFIED, SHARED, SetAssociativeCache
from repro.machine.config import CacheConfig


def make_cache(size=1024, line=32, assoc=2, policy="lru") -> SetAssociativeCache:
    return SetAssociativeCache(CacheConfig(size=size, line_size=line, associativity=assoc, replacement=policy))


class TestBasics:
    def test_starts_empty(self):
        c = make_cache()
        assert len(c) == 0
        assert c.occupancy == 0.0

    def test_insert_and_lookup(self):
        c = make_cache()
        c.insert(5, SHARED)
        assert c.contains(5)
        assert c.state_of(5) == SHARED

    def test_absent_state_zero(self):
        assert make_cache().state_of(99) == 0

    def test_set_index_low_bits(self):
        c = make_cache(size=1024, line=32, assoc=2)  # 16 sets
        assert c.set_index(0) == 0
        assert c.set_index(17) == 1
        assert c.set_index(16) == 0

    def test_double_insert_is_bug(self):
        c = make_cache()
        c.insert(1, SHARED)
        with pytest.raises(SimulationError):
            c.insert(1, SHARED)

    def test_occupancy(self):
        c = make_cache(size=128, line=32, assoc=2)  # 4 lines
        c.insert(0, SHARED)
        c.insert(1, SHARED)
        assert c.occupancy == pytest.approx(0.5)


class TestEviction:
    def test_no_eviction_when_room(self):
        c = make_cache()
        assert c.insert(0, SHARED) is None

    def test_evicts_within_set(self):
        c = make_cache(size=128, line=32, assoc=2)  # 2 sets x 2 ways
        c.insert(0, SHARED)   # set 0
        c.insert(2, SHARED)   # set 0
        ev = c.insert(4, SHARED)  # set 0 again -> evict
        assert ev is not None and ev[0] == 0

    def test_eviction_reports_dirty(self):
        c = make_cache(size=128, line=32, assoc=1)  # 4 sets
        c.insert(0, MODIFIED)
        victim, state = c.insert(4, SHARED)  # same set as block 0
        assert victim == 0 and state == MODIFIED  # dirty: written back by the controller

    def test_clean_eviction(self):
        c = make_cache(size=128, line=32, assoc=1)
        c.insert(0, EXCLUSIVE)
        victim, state = c.insert(4, SHARED)
        assert victim == 0 and state != MODIFIED

    def test_lru_order_respected(self):
        c = make_cache(size=128, line=32, assoc=2)
        c.insert(0, SHARED)
        c.insert(2, SHARED)
        c.touch(0)  # 0 becomes MRU
        ev = c.insert(4, SHARED)
        assert ev[0] == 2

    def test_eviction_counter(self):
        c = make_cache(size=128, line=32, assoc=1)
        c.insert(0, SHARED)
        c.insert(4, SHARED)  # same set
        assert c.n_evictions == 1
        assert c.n_inserts == 2


class TestStateTransitions:
    def test_set_state(self):
        c = make_cache()
        c.insert(1, EXCLUSIVE)
        c.set_state(1, MODIFIED)
        assert c.state_of(1) == MODIFIED

    def test_set_state_absent_rejected(self):
        with pytest.raises(SimulationError):
            make_cache().set_state(1, MODIFIED)

    def test_set_state_invalid_value_rejected(self):
        c = make_cache()
        c.insert(1, SHARED)
        with pytest.raises(SimulationError):
            c.set_state(1, 17)

    def test_invalidate_returns_prior(self):
        c = make_cache()
        c.insert(1, MODIFIED)
        assert c.invalidate(1) == MODIFIED
        assert not c.contains(1)

    def test_invalidate_absent_returns_zero(self):
        assert make_cache().invalidate(7) == 0

    def test_downgrade_reports_dirty(self):
        c = make_cache()
        c.insert(1, MODIFIED)
        assert c.downgrade(1) is True
        assert c.state_of(1) == SHARED

    def test_downgrade_clean(self):
        c = make_cache()
        c.insert(1, EXCLUSIVE)
        assert c.downgrade(1) is False

    def test_downgrade_absent_rejected(self):
        with pytest.raises(SimulationError):
            make_cache().downgrade(3)


class TestFlushAndInvariants:
    def test_flush(self):
        c = make_cache()
        for b in range(8):
            c.insert(b, SHARED)
        c.flush()
        assert len(c) == 0
        c.check_invariants()

    def test_invariants_hold_after_traffic(self):
        c = make_cache(size=256, line=32, assoc=2)
        import random

        rnd = random.Random(0)
        for _ in range(500):
            b = rnd.randrange(64)
            if c.contains(b):
                if rnd.random() < 0.3:
                    c.invalidate(b)
                else:
                    c.touch(b)
            else:
                c.insert(b, rnd.choice([SHARED, EXCLUSIVE, MODIFIED]))
        c.check_invariants()

    def test_touch_miss_returns_false(self):
        assert make_cache().touch(3) is False

    def test_resident_blocks(self):
        c = make_cache()
        c.insert(3, SHARED)
        c.insert(9, MODIFIED)
        assert sorted(c.resident_blocks()) == [3, 9]

    def test_set_contents_in_policy_order(self):
        c = make_cache(size=128, line=32, assoc=2)
        c.insert(0, SHARED)
        c.insert(2, SHARED)
        c.touch(0)
        assert c.set_contents(0) == [2, 0]
