"""Tests for the post-retirement store buffer drain policies."""

from repro.cpu.storebuffer import StoreBuffer
from repro.mem.memsys import MemResult


class FakeMemsys:
    """Deterministic memory: each store completes after ``latency``; can
    be switched to stall to exercise retry behaviour."""

    def __init__(self, latency=100):
        self.latency = latency
        self.accesses = []
        self.prefetches = []
        self.stall_until = None

    def access_data(self, now, addr, is_write, pc=0):
        if self.stall_until is not None and now < self.stall_until:
            return MemResult(stalled=True, retry_at=self.stall_until)
        self.accesses.append((now, addr))
        return MemResult(done_at=now + self.latency)

    def prefetch_data(self, now, addr, exclusive=True, pc=0):
        self.prefetches.append(addr)


class TestCapacity:
    def test_push_until_full(self):
        sb = StoreBuffer(2, FakeMemsys(), overlap=1)
        assert sb.push_store(0x100, 0)
        assert sb.push_store(0x200, 0)
        assert not sb.push_store(0x300, 0)
        assert sb.full

    def test_barriers_do_not_consume_capacity(self):
        sb = StoreBuffer(2, FakeMemsys(), overlap=1)
        sb.push_store(0x100, 0)
        sb.push_barrier()
        assert len(sb) == 1
        assert sb.push_store(0x200, 0)

    def test_drain_frees_capacity(self):
        mem = FakeMemsys(latency=10)
        sb = StoreBuffer(1, mem, overlap=1)
        sb.push_store(0x100, 0)
        sb.drain(0)
        sb.drain(10)   # store completed
        assert sb.empty


class TestRcOverlap:
    def test_multiple_outstanding(self):
        mem = FakeMemsys(latency=100)
        sb = StoreBuffer(16, mem, overlap=4)
        for i in range(6):
            sb.push_store(0x100 * (i + 1), 0)
        sb.drain(0)
        assert len(mem.accesses) == 4  # overlap limit

    def test_barrier_blocks_later_stores(self):
        mem = FakeMemsys(latency=100)
        sb = StoreBuffer(16, mem, overlap=4)
        sb.push_store(0x100, 0)
        sb.push_barrier()
        sb.push_store(0x200, 0)
        sb.drain(0)
        assert len(mem.accesses) == 1     # 0x200 held by the barrier
        sb.drain(100)                     # 0x100 completed
        assert len(mem.accesses) == 2

    def test_adjacent_barriers_coalesce(self):
        sb = StoreBuffer(16, FakeMemsys(), overlap=4)
        sb.push_store(0x100, 0)
        sb.push_barrier()
        sb.push_barrier()
        assert sb.barriers_pushed == 1

    def test_barrier_on_empty_buffer_is_noop(self):
        sb = StoreBuffer(16, FakeMemsys(), overlap=4)
        sb.push_barrier()
        assert sb.empty


class TestPcSerialization:
    def test_one_at_a_time_in_order(self):
        mem = FakeMemsys(latency=100)
        sb = StoreBuffer(16, mem, overlap=1)
        sb.push_store(0x100, 0)
        sb.push_store(0x200, 0)
        sb.drain(0)
        assert [a for _, a in mem.accesses] == [0x100]
        sb.drain(50)
        assert len(mem.accesses) == 1     # still outstanding
        sb.drain(100)
        assert [a for _, a in mem.accesses] == [0x100, 0x200]

    def test_prefetch_for_waiting_stores(self):
        mem = FakeMemsys(latency=100)
        sb = StoreBuffer(16, mem, overlap=1, wants_prefetch=True)
        sb.push_store(0x100, 0)
        sb.push_store(0x200, 0)
        sb.drain(0)
        assert 0x200 in mem.prefetches

    def test_prefetch_issued_once(self):
        mem = FakeMemsys(latency=100)
        sb = StoreBuffer(16, mem, overlap=1, wants_prefetch=True)
        sb.push_store(0x100, 0)
        sb.push_store(0x200, 0)
        sb.drain(0)
        sb.drain(1)
        assert mem.prefetches.count(0x200) == 1


class TestRetry:
    def test_structural_stall_retries(self):
        mem = FakeMemsys(latency=10)
        mem.stall_until = 50
        sb = StoreBuffer(16, mem, overlap=1)
        sb.push_store(0x100, 0)
        next_event = sb.drain(0)
        assert next_event == 50
        assert not mem.accesses
        sb.drain(50)
        assert mem.accesses

    def test_next_event_reflects_completion(self):
        mem = FakeMemsys(latency=100)
        sb = StoreBuffer(16, mem, overlap=1)
        sb.push_store(0x100, 0)
        assert sb.drain(0) == 100

    def test_empty_returns_none(self):
        sb = StoreBuffer(16, FakeMemsys(), overlap=1)
        assert sb.drain(0) is None

    def test_reset(self):
        sb = StoreBuffer(16, FakeMemsys(), overlap=1)
        sb.push_store(0x100, 0)
        sb.reset()
        assert sb.empty


def _recount(sb):
    return sum(1 for e in sb._entries if not e.is_barrier)


class TestOccupancyCount:
    def test_count_matches_recount_through_drains(self):
        # Slow single-overlap drain, so pushes outrun it and the buffer
        # fills, rejects stores, and empties again behind barriers.
        mem = FakeMemsys(latency=20)
        sb = StoreBuffer(4, mem, overlap=1)
        seen_full, rejected = False, 0
        for now in range(0, 300, 3):
            if now % 9 == 0:
                sb.push_barrier()
            if now < 150 and not sb.push_store(0x40 * now, now):
                rejected += 1
            sb.drain(now)
            assert len(sb) == _recount(sb)
            assert sb.full == (_recount(sb) >= sb.capacity)
            seen_full = seen_full or sb.full
        assert seen_full and rejected and sb.empty
        sb.reset()
        assert len(sb) == 0 and not sb.full
