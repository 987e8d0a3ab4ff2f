"""Tests for the MESI directory protocol, including migratory detection
and the flush (sharing-writeback) primitive of paper section 4.2."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.mem.coherence import (
    DIR_EXCLUSIVE,
    DIR_INVALID,
    DIR_SHARED,
    SVC_DIRTY,
    SVC_LOCAL,
    SVC_REMOTE,
    CoherentMemory,
    DirectoryEntry,
    mask_nodes,
)
from repro.mem.interconnect import MeshNetwork
from repro.params import MemoryLatencies


def make_memory(n_nodes=4, speedup=0.0):
    mesh = MeshNetwork(n_nodes, mesh_width=2 if n_nodes > 1 else 1)
    mem = CoherentMemory(MemoryLatencies(), mesh,
                         migratory_read_speedup=speedup)
    invalidated = [[] for _ in range(n_nodes)]
    for i in range(n_nodes):
        mem.invalidate_hooks[i] = invalidated[i].append
    return mem, invalidated


LINE_LOCAL_0 = 0        # page 0 -> home node 0
LINE_LOCAL_1 = 128      # page 1 -> home node 1


class TestSharerMask:
    @given(st.sets(st.integers(0, 63)), st.integers(0, 63))
    def test_walk_is_sorted_set_minus_requester(self, sharers, node):
        """The invalidation walk over the mask visits exactly the nodes
        ``sorted(sharers - {node})`` names, in that order."""
        entry = DirectoryEntry()
        entry.sharers = sharers
        assert mask_nodes(entry.sharer_mask & ~(1 << node)) == \
            sorted(sharers - {node})
        assert entry.sharers == sharers

    def test_upgrade_invalidates_in_ascending_node_order(self):
        mem, _ = make_memory()
        order = []
        for i in range(4):
            mem.invalidate_hooks[i] = (
                lambda line, node=i: order.append(node))
        for node in (3, 0, 2, 1):
            mem.read(node, LINE_LOCAL_0, now=0)
        assert mem.entry(LINE_LOCAL_0).sharers == {0, 1, 2, 3}
        mem.write(2, LINE_LOCAL_0, now=0)
        assert order == [0, 1, 3]


class TestReadProtocol:
    def test_first_read_granted_exclusive_clean(self):
        mem, _ = make_memory()
        done, svc, excl = mem.read(0, LINE_LOCAL_0, now=0)
        assert excl
        assert svc == SVC_LOCAL
        entry = mem.entry(LINE_LOCAL_0)
        assert entry.state == DIR_EXCLUSIVE
        assert entry.owner == 0

    def test_local_vs_remote_latency(self):
        mem, _ = make_memory()
        done_local, svc_local, _ = mem.read(0, LINE_LOCAL_0, now=0)
        done_remote, svc_remote, _ = mem.read(1, LINE_LOCAL_1 + 256 * 128,
                                              now=0)
        # node 1 reading a line whose home is node 0 (frame 256 % 4 == 0).
        assert svc_local == SVC_LOCAL
        assert done_local - 0 >= 100

    def test_remote_read_in_paper_range(self):
        mem, _ = make_memory()
        # line in page 1 -> home node 1, read from node 0 (1 hop).
        done, svc, _ = mem.read(0, LINE_LOCAL_1, now=0)
        assert svc == SVC_REMOTE
        assert 160 <= done <= 195

    def test_second_reader_shares_clean_line(self):
        mem, _ = make_memory()
        mem.read(0, LINE_LOCAL_0, 0)           # E at node 0 (clean)
        mem.dirty_hooks[0] = lambda line: False
        done, svc, excl = mem.read(1, LINE_LOCAL_0, 0)
        assert not excl
        assert svc in (SVC_LOCAL, SVC_REMOTE)  # memory supplies clean data
        entry = mem.entry(LINE_LOCAL_0)
        assert entry.state == DIR_SHARED
        assert entry.sharers == {0, 1}

    def test_dirty_read_is_cache_to_cache(self):
        mem, _ = make_memory()
        mem.write(0, LINE_LOCAL_0, 0)          # M at node 0
        mem.dirty_hooks[0] = lambda line: True
        done, svc, _ = mem.read(1, LINE_LOCAL_0, now=1000)
        assert svc == SVC_DIRTY
        assert 280 <= done - 1000 <= 320       # paper: 280-310 + queueing
        assert mem.entry(LINE_LOCAL_0).state == DIR_SHARED

    def test_dirty_read_counts(self):
        mem, _ = make_memory()
        mem.write(0, LINE_LOCAL_0, 0)
        mem.read(1, LINE_LOCAL_0, 0)
        assert mem.stats.reads_dirty == 1


class TestWriteProtocol:
    def test_write_to_uncached_line(self):
        mem, _ = make_memory()
        done, svc = mem.write(0, LINE_LOCAL_0, 0)
        entry = mem.entry(LINE_LOCAL_0)
        assert entry.state == DIR_EXCLUSIVE
        assert entry.owner == 0
        assert entry.last_writer == 0

    def test_write_invalidates_sharers(self):
        mem, invalidated = make_memory()
        mem.read(0, LINE_LOCAL_0, 0)
        mem.dirty_hooks[0] = lambda line: False
        mem.read(1, LINE_LOCAL_0, 0)
        mem.read(2, LINE_LOCAL_0, 0)
        mem.write(3, LINE_LOCAL_0, 0)
        assert LINE_LOCAL_0 in invalidated[0]
        assert LINE_LOCAL_0 in invalidated[1]
        assert LINE_LOCAL_0 in invalidated[2]
        assert mem.entry(LINE_LOCAL_0).owner == 3

    def test_upgrade_from_sharer(self):
        mem, invalidated = make_memory()
        mem.read(0, LINE_LOCAL_0, 0)
        mem.dirty_hooks[0] = lambda line: False
        mem.read(1, LINE_LOCAL_0, 0)
        mem.write(1, LINE_LOCAL_0, 0)
        assert mem.stats.upgrades == 1
        assert LINE_LOCAL_0 in invalidated[0]
        assert LINE_LOCAL_0 not in invalidated[1]

    def test_write_to_dirty_remote_line(self):
        mem, invalidated = make_memory()
        mem.write(0, LINE_LOCAL_0, 0)
        mem.dirty_hooks[0] = lambda line: True
        done, svc = mem.write(1, LINE_LOCAL_0, 0)
        assert svc == SVC_DIRTY
        assert LINE_LOCAL_0 in invalidated[0]


class TestMigratoryDetection:
    """Paper footnote 2: mark migratory when a GETX arrives while exactly
    two nodes hold copies and the last writer is not the requester."""

    def _migrate_once(self, mem, frm, to, line):
        mem.dirty_hooks[frm] = lambda l: True
        mem.read(to, line, 0)      # dirty read: SHARED {frm, to}
        mem.write(to, line, 0)     # GETX with 2 copies, last_writer=frm

    def test_migratory_pattern_detected(self):
        mem, _ = make_memory()
        mem.write(0, LINE_LOCAL_0, 0)
        self._migrate_once(mem, 0, 1, LINE_LOCAL_0)
        assert mem.entry(LINE_LOCAL_0).migratory
        assert LINE_LOCAL_0 in mem.stats.migratory_lines

    def test_migratory_dirty_reads_counted(self):
        mem, _ = make_memory()
        mem.write(0, LINE_LOCAL_0, 0)
        self._migrate_once(mem, 0, 1, LINE_LOCAL_0)
        self._migrate_once(mem, 1, 2, LINE_LOCAL_0)
        assert mem.stats.migratory_dirty_reads >= 1

    def test_widely_shared_line_not_migratory(self):
        mem, _ = make_memory()
        mem.read(0, LINE_LOCAL_0, 0)
        for node in range(4):
            mem.dirty_hooks[node] = lambda l: False
        mem.read(1, LINE_LOCAL_0, 0)
        mem.read(2, LINE_LOCAL_0, 0)
        mem.read(3, LINE_LOCAL_0, 0)
        mem.write(3, LINE_LOCAL_0, 0)   # 4 copies: not migratory
        assert not mem.entry(LINE_LOCAL_0).migratory

    def test_same_writer_not_migratory(self):
        mem, _ = make_memory()
        mem.write(0, LINE_LOCAL_0, 0)
        mem.dirty_hooks[0] = lambda l: True
        mem.read(1, LINE_LOCAL_0, 0)    # SHARED {0, 1}
        mem.write(0, LINE_LOCAL_0, 0)   # last writer == requester
        assert not mem.entry(LINE_LOCAL_0).migratory

    def test_migratory_read_speedup_bound(self):
        """Figure 7(b) bound: migratory dirty reads ~40% faster."""
        slow, _ = make_memory()
        fast, _ = make_memory(speedup=0.4)
        for mem in (slow, fast):
            mem.write(0, LINE_LOCAL_0, 0)
            mem.dirty_hooks[0] = lambda l: True
            mem.read(1, LINE_LOCAL_0, 0)
            mem.write(1, LINE_LOCAL_0, 0)   # now migratory
            mem.dirty_hooks[1] = lambda l: True
        t_slow, svc, _ = slow.read(2, LINE_LOCAL_0, 10_000)
        t_fast, svc2, _ = fast.read(2, LINE_LOCAL_0, 10_000)
        assert svc == svc2 == SVC_DIRTY
        assert (t_fast - 10_000) == pytest.approx(
            0.6 * (t_slow - 10_000), rel=0.05)


class TestFlushPrimitive:
    """Section 4.2's flush / WriteThrough: sharing writeback that keeps a
    clean copy cached so later readers are serviced by memory."""

    def test_flush_demotes_owner_to_shared(self):
        mem, _ = make_memory()
        mem.write(0, LINE_LOCAL_0, 0)
        mem.flush(0, LINE_LOCAL_0, 0)
        entry = mem.entry(LINE_LOCAL_0)
        assert entry.state == DIR_SHARED
        assert entry.sharers == {0}
        assert mem.stats.flushes == 1

    def test_read_after_flush_serviced_by_memory(self):
        mem, _ = make_memory()
        mem.write(0, LINE_LOCAL_0, 0)
        mem.flush(0, LINE_LOCAL_0, 0)
        done, svc, _ = mem.read(1, LINE_LOCAL_0, 1000)
        assert svc in (SVC_LOCAL, SVC_REMOTE)  # not a cache-to-cache miss

    def test_flush_by_non_owner_ignored(self):
        mem, _ = make_memory()
        mem.write(0, LINE_LOCAL_0, 0)
        mem.flush(1, LINE_LOCAL_0, 0)
        assert mem.entry(LINE_LOCAL_0).state == DIR_EXCLUSIVE
        assert mem.stats.flushes == 0

    def test_flush_of_unowned_line_ignored(self):
        mem, _ = make_memory()
        mem.flush(0, LINE_LOCAL_0, 0)
        assert mem.stats.flushes == 0


class TestWritebackAndEviction:
    def test_writeback_uncaches_line(self):
        mem, _ = make_memory()
        mem.write(0, LINE_LOCAL_0, 0)
        mem.writeback(0, LINE_LOCAL_0, 0)
        assert mem.entry(LINE_LOCAL_0).state == DIR_INVALID
        assert mem.stats.writebacks == 1

    def test_writeback_by_non_owner_ignored(self):
        mem, _ = make_memory()
        mem.write(0, LINE_LOCAL_0, 0)
        mem.writeback(1, LINE_LOCAL_0, 0)
        assert mem.entry(LINE_LOCAL_0).state == DIR_EXCLUSIVE

    def test_evict_clean_removes_sharer(self):
        mem, _ = make_memory()
        mem.read(0, LINE_LOCAL_0, 0)
        mem.dirty_hooks[0] = lambda l: False
        mem.read(1, LINE_LOCAL_0, 0)
        mem.evict_clean(0, LINE_LOCAL_0)
        assert mem.entry(LINE_LOCAL_0).sharers == {1}
        mem.evict_clean(1, LINE_LOCAL_0)
        assert mem.entry(LINE_LOCAL_0).state == DIR_INVALID


class TestContention:
    def test_directory_occupancy_queues_requests(self):
        mem, _ = make_memory()
        # Two same-cycle requests from one node to two lines with the same
        # home queue behind each other at the home directory and memory.
        other_line_home_0 = 4 * 128  # page 4 -> home node 0
        t1, svc1, _ = mem.read(1, LINE_LOCAL_0, 0)
        t2, svc2, _ = mem.read(1, other_line_home_0, 0)
        assert svc1 == svc2 == SVC_REMOTE
        assert t2 > t1
