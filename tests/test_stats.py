"""Tests for the statistics modules: breakdown, MSHR occupancy, sharing."""

import tracemalloc

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
from repro.stats.mshr import MshrOccupancy, MshrOccupancyGroup
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


class TupleLog:
    """The occupancy log as ``(time, +-1)`` tuples sorted by a plain
    sort: the reference the flat columns must match bit for bit."""

    def __init__(self, max_n):
        self.max_n = max_n
        self.events = {False: [], True: []}

    def add_interval(self, start, end, is_read):
        if end <= start:
            return
        for reads_only in (False, True) if is_read else (False,):
            self.events[reads_only] += [(start, 1), (end, -1)]

    def to_dict(self):
        return {"max_n": self.max_n,
                "events_all": [list(e) for e in self.events[False]],
                "events_read": [list(e) for e in self.events[True]]}

    def time_at(self, reads_only):
        time_at = [0.0] * (self.max_n + 2)
        events = sorted(self.events[reads_only])
        level, prev_t = 0, events[0][0] if events else 0
        for t, delta in events:
            if t > prev_t and level > 0:
                time_at[min(level, self.max_n + 1)] += t - prev_t
            level += delta
            prev_t = t
        return time_at

    def distribution(self, reads_only):
        time_at = self.time_at(reads_only)
        busy = sum(time_at[1:])
        if busy <= 0:
            return {n: 0.0 for n in range(1, self.max_n + 1)}
        return {n: sum(time_at[n:]) / busy
                for n in range(1, self.max_n + 1)}

    def mean_occupancy(self, reads_only):
        time_at = self.time_at(reads_only)
        busy = sum(time_at[1:])
        if busy <= 0:
            return 0.0
        return sum(n * t for n, t in enumerate(time_at)) / busy


# (start, length, is_read, extension): lengths <= 0 are dropped, starts
# crowd a short span so start and end times collide, and an extension
# interval starts at its miss's end, in the future of the miss's start.
MISSES = st.lists(st.tuples(st.integers(0, 40), st.integers(-2, 30),
                            st.booleans(), st.integers(-3, 20)),
                  max_size=60)


def replay(misses, *logs):
    for start, length, is_read, extension in misses:
        for log in logs:
            log.add_interval(start, start + length, is_read)
            log.add_interval(start + length, start + length + extension,
                             is_read)


class TestMshrColumns:
    @given(MISSES, st.integers(1, 4))
    @settings(max_examples=200, deadline=None)
    def test_matches_tuple_reference(self, misses, max_n):
        occ, ref = MshrOccupancy(max_n), TupleLog(max_n)
        replay(misses, occ, ref)
        assert occ.to_dict() == ref.to_dict()
        again = MshrOccupancy.from_dict(occ.to_dict())
        for reads_only in (False, True):
            expected = ref.distribution(reads_only)
            for log in (occ, again):
                # Exact float equality: the sweep adds the same terms
                # in the same order as the tuple sort.
                assert log.time_at(reads_only) == ref.time_at(reads_only)
                assert log.distribution(reads_only) == expected
                assert log.mean_occupancy(reads_only) == \
                    ref.mean_occupancy(reads_only)

    @given(MISSES, MISSES)
    @settings(max_examples=100, deadline=None)
    def test_group_matches_tuple_reference(self, first, second):
        group = MshrOccupancyGroup(2, max_n=3)
        refs = [TupleLog(3), TupleLog(3)]
        replay(first, group[0], refs[0])
        replay(second, group[1], refs[1])
        for reads_only in (False, True):
            weighted, total = {n: 0.0 for n in range(1, 4)}, 0.0
            for ref in refs:
                busy = sum(ref.time_at(reads_only)[1:])
                if busy <= 0:
                    continue
                for n, frac in ref.distribution(reads_only).items():
                    weighted[n] += frac * busy
                total += busy
            expected = {n: v / total for n, v in weighted.items()} \
                if total > 0 else {n: 0.0 for n in range(1, 4)}
            assert group.distribution(reads_only) == expected

    @pytest.mark.parametrize("events", [
        [[0, 1]],                      # unpaired start
        [[0, 1], [10, -1], [20, 1]],   # odd length
        [[0, 1], [10, 1]],             # two starts
        [[10, -1], [0, 1]],            # end before its start
        [[0, 1], [10, -2]],            # not a unit delta
        [[10, 1], [10, -1]],           # zero-length interval
    ])
    def test_from_dict_rejects_malformed_events(self, events):
        with pytest.raises(ValueError):
            MshrOccupancy.from_dict({"max_n": 4, "events_all": events,
                                     "events_read": []})
        with pytest.raises(ValueError):
            MshrOccupancy.from_dict({"max_n": 4, "events_all": [],
                                     "events_read": events})

    def test_log_costs_at_most_40_bytes_per_interval(self):
        occ = MshrOccupancy()
        n = 20_000
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(n):
                start = 10**6 + 1000 * i
                occ.add_interval(start, start + 500, is_read=i % 2 == 0)
            growth = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert growth / n <= 40, f"{growth / n:.0f} B per interval"


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
