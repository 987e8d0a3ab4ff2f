"""Tests for the cache tag arrays and MSHR files."""

import random
from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.cache import CacheArray, MshrFile
from repro.params import CacheParams
from repro.stats.mshr import MshrOccupancy


def small_cache(assoc=2, sets=4):
    return CacheArray(CacheParams("T", sets * assoc * 64, assoc))


class TestCacheArray:
    def test_miss_then_hit(self):
        cache = small_cache()
        assert not cache.lookup(5)
        cache.insert(5)
        assert cache.lookup(5)

    def test_eviction_is_lru(self):
        cache = small_cache(assoc=2, sets=1)
        cache.insert(0)
        cache.insert(1)
        cache.lookup(0)          # 0 becomes MRU
        victim = cache.insert(2)
        assert victim == (1, False)
        assert cache.lookup(0)
        assert not cache.lookup(1)

    def test_insert_returns_dirty_victim(self):
        cache = small_cache(assoc=1, sets=1)
        cache.insert(0, dirty=True)
        victim = cache.insert(1)
        assert victim == (0, True)

    def test_insert_present_line_updates_dirty(self):
        cache = small_cache()
        cache.insert(3)
        assert not cache.is_dirty(3)
        assert cache.insert(3, dirty=True) is None
        assert cache.is_dirty(3)
        # Cannot clean a line by re-inserting clean.
        cache.insert(3, dirty=False)
        assert cache.is_dirty(3)

    def test_mark_dirty(self):
        cache = small_cache()
        assert not cache.mark_dirty(9)  # absent
        cache.insert(9)
        assert cache.mark_dirty(9)
        assert cache.is_dirty(9)

    def test_invalidate(self):
        cache = small_cache()
        cache.insert(7, dirty=True)
        present, dirty = cache.invalidate(7)
        assert present and dirty
        present, dirty = cache.invalidate(7)
        assert not present and not dirty
        assert not cache.lookup(7)

    def test_set_isolation(self):
        cache = small_cache(assoc=1, sets=4)
        # Lines 0 and 4 share a set (4 sets); lines 0 and 1 do not.
        cache.insert(0)
        cache.insert(1)
        assert cache.lookup(0) and cache.lookup(1)
        cache.insert(4)  # evicts 0
        assert not cache.lookup(0)
        assert cache.lookup(1)

    def test_lookup_without_touch_keeps_lru(self):
        cache = small_cache(assoc=2, sets=1)
        cache.insert(0)
        cache.insert(1)
        cache.lookup(0, touch=False)   # does NOT refresh 0
        victim = cache.insert(2)
        assert victim[0] == 0

    def test_occupancy(self):
        cache = small_cache()
        assert cache.occupancy() == 0
        cache.insert(1)
        cache.insert(2)
        assert cache.occupancy() == 2

    @given(st.lists(st.integers(min_value=0, max_value=63), max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_occupancy_never_exceeds_capacity(self, lines):
        cache = small_cache(assoc=2, sets=4)
        for line in lines:
            cache.insert(line)
        assert cache.occupancy() <= 8

    @given(st.lists(st.integers(min_value=0, max_value=63), max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_inclusion_of_recent_insert(self, lines):
        cache = small_cache(assoc=2, sets=4)
        for line in lines:
            cache.insert(line)
            assert cache.lookup(line, touch=False)


class ReferenceCacheArray:
    """The tag array as it was kept before the compact layout: one
    ``OrderedDict`` per set mapping line -> dirty bit, in LRU order."""

    def __init__(self, assoc, sets):
        self._assoc = assoc
        self._mask = sets - 1
        self.sets = [OrderedDict() for _ in range(sets)]

    def lookup(self, line, touch=True):
        s = self.sets[line & self._mask]
        if touch:
            try:
                s.move_to_end(line)
            except KeyError:
                return False
            return True
        return line in s

    def insert(self, line, dirty=False):
        s = self.sets[line & self._mask]
        if line in s:
            s[line] = s[line] or dirty
            s.move_to_end(line)
            return None
        victim = None
        if len(s) >= self._assoc:
            victim = s.popitem(last=False)
        s[line] = dirty
        return victim

    def mark_dirty(self, line):
        s = self.sets[line & self._mask]
        if line not in s:
            return False
        s[line] = True
        return True

    def mark_clean(self, line):
        s = self.sets[line & self._mask]
        if line not in s:
            return False
        s[line] = False
        return True

    def invalidate(self, line):
        dirty = self.sets[line & self._mask].pop(line, None)
        return (dirty is not None, bool(dirty))

    def is_dirty(self, line):
        return bool(self.sets[line & self._mask].get(line, False))

    def occupancy(self):
        return sum(len(s) for s in self.sets)


LINES = st.integers(0, 11)
CACHE_OPS = st.one_of(
    st.tuples(st.just("lookup"), LINES, st.booleans()),
    st.tuples(st.just("insert"), LINES, st.booleans()),
    st.tuples(st.sampled_from(["mark_dirty", "mark_clean", "invalidate",
                               "is_dirty"]), LINES),
    st.tuples(st.just("occupancy")),
)
SHAPES = [(1, 4), (2, 4), (4, 2), (4, 1)]   # (assoc, sets)


def random_ops(rng, n):
    """``n`` operations in the form ``CACHE_OPS`` draws, spread evenly
    over the kinds and over twelve lines."""
    ops = []
    for _ in range(n):
        kind = rng.choice(["lookup", "insert", "mark_dirty", "mark_clean",
                           "invalidate", "is_dirty", "occupancy"])
        if kind in ("lookup", "insert"):
            ops.append((kind, rng.randrange(12), rng.random() < 0.5))
        elif kind == "occupancy":
            ops.append((kind,))
        else:
            ops.append((kind, rng.randrange(12)))
    return ops


def assert_agrees_with_reference(shape, ops):
    assoc, sets = shape
    cache = small_cache(assoc=assoc, sets=sets)
    reference = ReferenceCacheArray(assoc, sets)
    for op in ops:
        name, args = op[0], op[1:]
        if name == "lookup":
            line, touch = args
            got = cache.lookup(line, touch=touch)
            want = reference.lookup(line, touch=touch)
        elif name == "insert":
            line, dirty = args
            got = cache.insert(line, dirty=dirty)
            want = reference.insert(line, dirty=dirty)
        else:
            got = getattr(cache, name)(*args)
            want = getattr(reference, name)(*args)
        assert got == want, op
    for index, ref_set in enumerate(reference.sets):
        lines = cache._sets[index] or []
        assert lines == list(ref_set), index
        assert [cache.is_dirty(line) for line in lines] == \
            list(ref_set.values()), index


class TestAgainstReference:
    """The compact tag array is a drop-in for the ``OrderedDict``-per-set
    layout: every return value and each set's final LRU order agree."""

    @given(st.sampled_from(SHAPES), st.lists(CACHE_OPS, max_size=300))
    @settings(max_examples=200, deadline=None)
    def test_every_return_value_and_lru_order_agree(self, shape, ops):
        assert_agrees_with_reference(shape, ops)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_long_seeded_traces_agree(self, shape):
        """Hypothesis favours short, repetitive sequences; long uniform
        traces reach full sets and touches of non-MRU lines every few
        operations."""
        for seed in range(10):
            assert_agrees_with_reference(
                shape, random_ops(random.Random(seed), 2000))

    def test_sets_are_built_at_first_fill(self):
        cache = small_cache(assoc=2, sets=4)
        assert cache._sets == [None] * 4
        cache.insert(5)
        assert cache._sets == [None, [5], None, None]


class TestMshrFile:
    def test_register_and_expire(self):
        mshrs = MshrFile(2)
        mshrs.register(10, now=0, done_at=100, is_read=True, exclusive=False)
        assert mshrs.get(10) is not None
        assert mshrs.outstanding() == 1
        mshrs.expire(50)
        assert mshrs.get(10) is not None
        mshrs.expire(100)
        assert mshrs.get(10) is None

    def test_full(self):
        mshrs = MshrFile(2)
        mshrs.register(1, 0, 100, True, False)
        assert not mshrs.full
        mshrs.register(2, 0, 100, True, False)
        assert mshrs.full

    def test_earliest_done(self):
        mshrs = MshrFile(4)
        mshrs.register(1, 0, 300, True, False)
        mshrs.register(2, 0, 100, True, False)
        assert mshrs.earliest_done() == 100

    def test_extend_upgrades(self):
        mshrs = MshrFile(4)
        entry = mshrs.register(1, 0, 100, True, False)
        mshrs.extend(entry, 150, exclusive=True)
        assert entry.done_at == 150
        assert entry.exclusive

    def test_extend_never_shortens(self):
        mshrs = MshrFile(4)
        entry = mshrs.register(1, 0, 100, True, False)
        mshrs.extend(entry, 50, exclusive=False)
        assert entry.done_at == 100

    def test_stats_intervals_reported(self):
        stats = MshrOccupancy(max_n=4)
        mshrs = MshrFile(4, stats)
        mshrs.register(1, 0, 100, True, False)
        mshrs.register(2, 50, 150, False, True)
        dist = stats.distribution()
        assert dist[1] == pytest.approx(1.0)
        # 50 cycles of overlap out of 150 busy cycles.
        assert dist[2] == pytest.approx(50 / 150)
        reads = stats.distribution(reads_only=True)
        assert reads[2] == 0.0
