"""Tests for the page table (bin-hopping) and TLBs."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.tlb import PageTable, Tlb
from repro.params import TlbParams


class TestPageTable:
    def test_frames_assigned_round_robin(self):
        pt = PageTable(page_size=8192, n_nodes=4)
        frames = [pt.frame_of(vpage) for vpage in (100, 7, 42, 9)]
        assert frames == [0, 1, 2, 3]

    def test_translation_is_stable(self):
        pt = PageTable()
        assert pt.frame_of(123) == pt.frame_of(123)

    def test_home_node_interleaves(self):
        pt = PageTable(n_nodes=4)
        homes = {pt.home_node(pt.frame_of(v)) for v in range(8)}
        assert homes == {0, 1, 2, 3}

    def test_translate_line_preserves_page_offset(self):
        pt = PageTable(page_size=8192)
        vaddr = (5 << 13) | (3 << 6)  # page 5, line 3 within page
        line = pt.translate_line(vaddr)
        assert line % 128 == 3

    def test_same_line_same_translation(self):
        pt = PageTable()
        assert pt.translate_line(0x10008) == pt.translate_line(0x10010)

    def test_different_pages_different_frames(self):
        pt = PageTable()
        l1 = pt.translate_line(0 << 13)
        l2 = pt.translate_line(1 << 13)
        assert l1 // 128 != l2 // 128

    @given(st.lists(st.integers(min_value=0, max_value=1 << 30), min_size=1))
    @settings(max_examples=50, deadline=None)
    def test_distinct_pages_get_distinct_frames(self, vaddrs):
        pt = PageTable()
        frames = {}
        for vaddr in vaddrs:
            vpage = vaddr >> 13
            frame = pt.frame_of(vpage)
            if vpage in frames:
                assert frames[vpage] == frame
            frames[vpage] = frame
        assert len(set(frames.values())) == len(frames)


def _tlb(**params):
    return Tlb(TlbParams(**params), PageTable())


def _hit(tlb, vpage):
    return tlb.translate(vpage)[1]


class TestTlb:
    def test_miss_then_hit(self):
        tlb = _tlb(entries=4)
        assert not _hit(tlb, 1)
        assert _hit(tlb, 1)
        assert tlb.misses == 1 and tlb.hits == 1

    def test_lru_replacement(self):
        tlb = _tlb(entries=2)
        tlb.translate(1)
        tlb.translate(2)
        tlb.translate(1)       # 1 refreshed; 2 is LRU
        tlb.translate(3)       # evicts 2
        assert _hit(tlb, 1)
        assert not _hit(tlb, 2)

    def test_capacity(self):
        tlb = _tlb(entries=128)
        for vpage in range(128):
            tlb.translate(vpage)
        hits = sum(_hit(tlb, v) for v in range(128))
        assert hits == 128

    def test_perfect_mode(self):
        tlb = _tlb(entries=1, perfect=True)
        assert _hit(tlb, 1)
        assert _hit(tlb, 99999)
        assert tlb.misses == 0

    def test_miss_rate(self):
        tlb = _tlb(entries=8)
        tlb.translate(1)
        tlb.translate(1)
        assert tlb.miss_rate == 0.5

    def test_hit_returns_the_frame_without_the_page_table(self,
                                                         monkeypatch):
        tlb = _tlb(entries=4)
        frames = [tlb.translate(vpage)[0] for vpage in (7, 3)]
        assert frames == [0, 1]

        def no_walk(vpage):
            raise AssertionError("TLB hit consulted the page table")
        monkeypatch.setattr(tlb.page_table, "frame_of", no_walk)
        assert tlb.translate(7) == (0, True)
        assert tlb.translate(3) == (1, True)

    def test_refill_after_eviction_keeps_the_frame(self):
        tlb = _tlb(entries=1)
        first = tlb.translate(5)[0]
        tlb.translate(6)       # evicts 5
        assert tlb.translate(5) == (first, False)
