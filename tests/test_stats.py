"""Tests for the statistics modules: breakdown, MSHR occupancy, sharing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.coherence import CoherenceStats
from repro.stats.breakdown import (
    BUSY,
    CPU_STALL,
    IDLE,
    INSTR,
    READ_DIRTY,
    READ_L2,
    SYNC,
    WRITE,
    ExecutionBreakdown,
)
from repro.stats.mshr import MshrOccupancy
from repro.stats.sharing import sharing_characterization


class TestExecutionBreakdown:
    def test_busy_and_stall_accumulate(self):
        bd = ExecutionBreakdown()
        bd.stall(BUSY, 0.75)
        bd.stall(READ_DIRTY, 0.25)
        assert bd.cycles[BUSY] == 0.75
        assert bd.total == pytest.approx(1.0)

    def test_cpu_combines_busy_and_fu(self):
        bd = ExecutionBreakdown()
        bd.stall(BUSY, 0.5)
        bd.stall(CPU_STALL, 0.5)
        assert bd.cpu == 1.0

    def test_idle_excluded_from_total(self):
        bd = ExecutionBreakdown()
        bd.stall(BUSY, 1.0)
        bd.stall(IDLE, 5.0)
        assert bd.total == 1.0

    def test_read_sums_subcategories(self):
        bd = ExecutionBreakdown()
        bd.stall(READ_L2, 2.0)
        bd.stall(READ_DIRTY, 3.0)
        assert bd.read == 5.0

    def test_merge(self):
        a, b = ExecutionBreakdown(), ExecutionBreakdown()
        a.stall(BUSY, 1.0)
        a.instructions = 10
        b.stall(SYNC, 2.0)
        b.instructions = 5
        merged = ExecutionBreakdown.merged([a, b])
        assert merged.cycles[BUSY] == 1.0
        assert merged.sync == 2.0
        assert merged.instructions == 15

    def test_shares_sum_to_one(self):
        bd = ExecutionBreakdown()
        bd.stall(BUSY, 2.0)
        bd.stall(WRITE, 1.0)
        bd.stall(INSTR, 1.0)
        assert sum(bd.shares().values()) == pytest.approx(1.0)

    def test_summary_row_keys(self):
        bd = ExecutionBreakdown()
        bd.stall(BUSY, 1.0)
        row = bd.summary_row()
        assert set(row) == {"cpu", "read", "write", "sync", "instr"}
        assert sum(row.values()) == pytest.approx(1.0)

    def test_ipc(self):
        bd = ExecutionBreakdown()
        bd.stall(BUSY, 100.0)
        bd.instructions = 150
        assert bd.ipc == 1.5

    def test_reset(self):
        bd = ExecutionBreakdown()
        bd.stall(BUSY, 1.0)
        bd.instructions = 7
        bd.reset()
        assert bd.total == 0
        assert bd.instructions == 0

    def test_format_bar_contains_label(self):
        bd = ExecutionBreakdown()
        bd.stall(BUSY, 1.0)
        assert "mylabel" in bd.format_bar("mylabel")


class TestMshrOccupancy:
    def test_single_interval(self):
        occ = MshrOccupancy(max_n=4)
        occ.add_interval(0, 100, is_read=True)
        d = occ.distribution()
        assert d[1] == 1.0
        assert d[2] == 0.0

    def test_full_overlap(self):
        occ = MshrOccupancy(max_n=4)
        occ.add_interval(0, 100, True)
        occ.add_interval(0, 100, True)
        d = occ.distribution()
        assert d[2] == 1.0

    def test_partial_overlap(self):
        occ = MshrOccupancy(max_n=4)
        occ.add_interval(0, 100, True)
        occ.add_interval(50, 150, True)
        d = occ.distribution()
        assert d[1] == 1.0
        assert d[2] == pytest.approx(50 / 150)

    def test_reads_only_view(self):
        occ = MshrOccupancy(max_n=4)
        occ.add_interval(0, 100, is_read=False)
        occ.add_interval(0, 100, is_read=True)
        assert occ.distribution()[2] == 1.0
        assert occ.distribution(reads_only=True)[2] == 0.0

    def test_empty(self):
        occ = MshrOccupancy()
        assert all(v == 0.0 for v in occ.distribution().values())
        assert occ.mean_occupancy() == 0.0

    def test_zero_length_interval_ignored(self):
        occ = MshrOccupancy()
        occ.add_interval(5, 5, True)
        assert occ.distribution()[1] == 0.0

    def test_mean_occupancy(self):
        occ = MshrOccupancy(max_n=4)
        occ.add_interval(0, 100, True)
        occ.add_interval(0, 100, True)
        assert occ.mean_occupancy() == pytest.approx(2.0)

    def test_reset(self):
        occ = MshrOccupancy()
        occ.add_interval(0, 10, True)
        occ.reset()
        assert occ.distribution()[1] == 0.0

    @given(st.lists(st.tuples(st.integers(0, 1000), st.integers(1, 200)),
                    min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_distribution_monotone_nonincreasing(self, intervals):
        occ = MshrOccupancy(max_n=8)
        for start, length in intervals:
            occ.add_interval(start, start + length, True)
        d = occ.distribution()
        values = [d[n] for n in sorted(d)]
        assert values[0] == 1.0
        assert all(a >= b for a, b in zip(values, values[1:]))


class TestSharingReport:
    def _stats(self):
        stats = CoherenceStats()
        stats.reads_dirty = 100
        stats.migratory_dirty_reads = 79
        stats.shared_writes = 100
        stats.migratory_writes = 88
        stats.migratory_lines = set(range(100))
        # 70% of migratory write misses on 3 hot lines.
        for line in range(3):
            stats.migratory_write_by_line[line] = 233
        for line in range(3, 100):
            stats.migratory_write_by_line[line] = 3
        # 75% of refs from 2 of 20 PCs.
        for pc in range(2):
            stats.migratory_refs_by_pc[pc] = 375
        for pc in range(2, 20):
            stats.migratory_refs_by_pc[pc] = 14
        return stats

    def test_fractions(self):
        report = sharing_characterization(self._stats())
        assert report.migratory_dirty_read_fraction == pytest.approx(0.79)
        assert report.migratory_shared_write_fraction == pytest.approx(0.88)

    def test_line_concentration(self):
        report = sharing_characterization(self._stats())
        assert report.top_line_fraction(0.70) <= 0.04

    def test_pc_concentration(self):
        report = sharing_characterization(self._stats())
        assert report.top_pc_fraction(0.75) <= 0.15

    def test_hot_pcs_cover_target_share(self):
        stats = self._stats()
        report = sharing_characterization(stats)
        covered = sum(stats.migratory_refs_by_pc[pc]
                      for pc in report.hot_pcs)
        assert covered / sum(stats.migratory_refs_by_pc.values()) >= 0.75

    def test_empty_stats(self):
        report = sharing_characterization(CoherenceStats())
        assert report.migratory_dirty_read_fraction == 0.0
        assert report.hot_pcs == []
        assert report.top_line_fraction() == 1.0
