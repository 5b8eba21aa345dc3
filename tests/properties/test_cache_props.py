"""Property-based tests: the cache model under arbitrary access streams."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.machine.cache import EXCLUSIVE, MODIFIED, SHARED, SetAssociativeCache
from repro.machine.config import CacheConfig
from repro.machine.replacement import LruPolicy

ops = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=63),  # block
        st.sampled_from(["insert", "touch", "invalidate", "downgrade"]),
        st.sampled_from([SHARED, EXCLUSIVE, MODIFIED]),
    ),
    max_size=200,
)

geometries = st.sampled_from(
    [
        (128, 32, 1, "lru"),
        (128, 32, 2, "lru"),
        (256, 32, 2, "fifo"),
        (256, 32, 4, "plru"),
        (512, 32, 2, "random"),
    ]
)


def apply_ops(cache: SetAssociativeCache, operations) -> None:
    for block, op, state in operations:
        if op == "insert":
            if not cache.contains(block):
                cache.insert(block, state)
        elif op == "touch":
            cache.touch(block)
        elif op == "invalidate":
            cache.invalidate(block)
        elif op == "downgrade":
            if cache.contains(block):
                cache.downgrade(block)


@settings(max_examples=60, deadline=None)
@given(geometry=geometries, operations=ops)
def test_invariants_always_hold(geometry, operations):
    size, line, assoc, policy = geometry
    cache = SetAssociativeCache(
        CacheConfig(size=size, line_size=line, associativity=assoc, replacement=policy)
    )
    apply_ops(cache, operations)
    cache.check_invariants()


@settings(max_examples=60, deadline=None)
@given(geometry=geometries, operations=ops)
def test_capacity_never_exceeded(geometry, operations):
    size, line, assoc, policy = geometry
    cfg = CacheConfig(size=size, line_size=line, associativity=assoc, replacement=policy)
    cache = SetAssociativeCache(cfg)
    apply_ops(cache, operations)
    assert len(cache) <= cfg.n_lines
    for s in range(cfg.n_sets):
        assert len(cache.set_contents(s)) <= assoc


@settings(max_examples=60, deadline=None)
@given(operations=ops)
def test_inserted_block_resident_until_removed(operations):
    """A block inserted into an under-full set stays until invalidated/evicted."""
    cache = SetAssociativeCache(CacheConfig(size=256, line_size=32, associativity=2))
    present: set[int] = set()
    for block, op, state in operations:
        if op == "insert" and not cache.contains(block):
            evicted = cache.insert(block, state)
            present.add(block)
            if evicted:
                present.discard(evicted[0])
        elif op == "invalidate":
            cache.invalidate(block)
            present.discard(block)
        elif op == "touch":
            cache.touch(block)
        elif op == "downgrade" and cache.contains(block):
            cache.downgrade(block)
    assert present == set(cache.resident_blocks())


@settings(max_examples=40, deadline=None)
@given(
    blocks=st.lists(st.integers(min_value=0, max_value=31), min_size=1, max_size=100),
)
def test_lru_full_assoc_stack_property(blocks):
    """In a fully-associative LRU cache, the k most recently used distinct
    blocks are always resident (k = capacity)."""
    assoc = 4
    cache = SetAssociativeCache(
        CacheConfig(size=assoc * 32, line_size=32, associativity=assoc)
    )
    # make it fully associative: one set (n_sets must be power of two = 1)
    recent: list[int] = []
    for b in blocks:
        if cache.contains(b):
            cache.touch(b)
        else:
            cache.insert(b, SHARED)
        if b in recent:
            recent.remove(b)
        recent.append(b)
        expected = set(recent[-assoc:])
        assert expected == set(cache.resident_blocks())


@settings(max_examples=60, deadline=None)
@given(assoc=st.sampled_from([1, 2, 4]), operations=ops)
def test_inline_lru_matches_lru_policy(assoc, operations):
    """The cache's in-line LRU makes exactly the decisions of the
    :class:`LruPolicy` hooks: same evictions, same per-set order."""
    cfg = CacheConfig(size=256, line_size=32, associativity=assoc)
    cache = SetAssociativeCache(cfg)
    policy = LruPolicy()
    ref_sets: list[list[int]] = [[] for _ in range(cfg.n_sets)]
    ref_state: dict[int, int] = {}
    for block, op, state in operations:
        idx = block & (cfg.n_sets - 1)
        order = ref_sets[idx]
        if op == "insert" and block not in ref_state:
            expected = None
            if len(order) >= assoc:
                way = policy.victim_index(idx, order)
                victim = order[way]
                expected = (victim, ref_state.pop(victim))
                policy.on_remove(idx, order, way)
            policy.on_insert(idx, order, block)
            ref_state[block] = state
            assert cache.insert(block, state) == expected
        elif op == "touch":
            if block in ref_state:
                policy.on_hit(idx, order, order.index(block))
            assert cache.touch(block) == (block in ref_state)
        elif op == "invalidate":
            if block in ref_state:
                policy.on_remove(idx, order, order.index(block))
            assert cache.invalidate(block) == ref_state.pop(block, 0)
        assert cache.set_contents(idx) == order
