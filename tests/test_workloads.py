"""Tests for the OLTP and DSS trace generators: instruction mix, locality
structure, sharing structure, determinism."""

import itertools
from collections import Counter

import pytest

from repro.core.workloads import dss_workload, oltp_workload
from repro.trace.database import (
    BLOCK_BUFFER_BASE,
    CODE_BASE,
    LOCK_BASE,
    PRIVATE_BASE,
    DatabaseLayout,
    MigratoryHints,
)
from repro.trace.instr import (
    MEMORY_OPS,
    OP_BRANCH,
    OP_FLUSH,
    OP_FP,
    OP_INT,
    OP_LOAD,
    OP_LOCK_ACQ,
    OP_LOCK_REL,
    OP_PREFETCH,
    OP_STORE,
    OP_SYSCALL,
    Instruction,
)
from repro.trace.oltp import BLOCK_PCS, OltpParams, OltpTraceGenerator
from repro.trace.dss import DssTraceGenerator


def take(gen, n):
    """The first ``n`` records of ``gen``, as Instruction views."""
    return [Instruction._make(record)
            for record in itertools.islice(iter(gen), n)]


def mix(instrs):
    counts = Counter(i.op for i in instrs)
    total = len(instrs)
    return {op: c / total for op, c in counts.items()}


class TestOltpGenerator:
    def setup_method(self):
        self.layout = DatabaseLayout().scaled(16)
        self.gen = OltpTraceGenerator(0, self.layout, seed=1)
        self.instrs = take(self.gen, 30_000)

    def test_instruction_mix(self):
        m = mix(self.instrs)
        assert 0.10 < m[OP_LOAD] < 0.35
        assert 0.04 < m[OP_STORE] < 0.25
        assert 0.10 < m[OP_BRANCH] < 0.30
        assert m[OP_INT] > 0.25

    def test_transactions_commit(self):
        syscalls = sum(1 for i in self.instrs if i.op == OP_SYSCALL)
        assert syscalls == self.gen.transactions_emitted or \
            abs(syscalls - self.gen.transactions_emitted) <= 1
        assert syscalls > 5

    def test_locks_balanced(self):
        acq = sum(1 for i in self.instrs if i.op == OP_LOCK_ACQ)
        rel = sum(1 for i in self.instrs if i.op == OP_LOCK_REL)
        assert abs(acq - rel) <= 1
        assert acq > 10

    def test_lock_addresses_in_lock_region(self):
        for i in self.instrs:
            if i.op in (OP_LOCK_ACQ, OP_LOCK_REL):
                assert LOCK_BASE <= i.addr < LOCK_BASE + 0x0400_0000

    def test_pcs_in_code_region(self):
        for i in self.instrs[:5000]:
            assert CODE_BASE <= i.pc < CODE_BASE + self.layout.code_bytes

    def test_data_addresses_valid_regions(self):
        for i in self.instrs[:5000]:
            if i.op in (OP_LOAD, OP_STORE):
                assert i.addr >= BLOCK_BUFFER_BASE

    def test_deterministic_for_same_seed(self):
        g1 = OltpTraceGenerator(0, self.layout, seed=7)
        g2 = OltpTraceGenerator(0, self.layout, seed=7)
        for a, b in zip(take(g1, 2000), take(g2, 2000)):
            assert (a.op, a.pc, a.addr, a.deps) == (b.op, b.pc, b.addr,
                                                    b.deps)

    def test_different_pids_differ(self):
        g1 = OltpTraceGenerator(0, self.layout, seed=7)
        g2 = OltpTraceGenerator(1, self.layout, seed=7)
        s1 = [(i.op, i.addr) for i in take(g1, 2000)]
        s2 = [(i.op, i.addr) for i in take(g2, 2000)]
        assert s1 != s2

    def test_load_chains_present(self):
        """OLTP is characterized by frequent load-to-load dependences."""
        chained = 0
        loads = [i for i in self.instrs if i.op == OP_LOAD]
        for i in self.instrs:
            if i.op == OP_LOAD and i.deps:
                chained += 1
        assert chained / len(loads) > 0.2

    def test_code_footprint_streams(self):
        """Successive instruction lines form short ascending streams."""
        lines = [i.pc >> 6 for i in self.instrs[:20000]]
        deltas = [b - a for a, b in zip(lines, lines[1:]) if a != b]
        assert sum(1 for d in deltas if d == 1) / len(deltas) > 0.3

    def test_hints_insert_prefetch_and_flush(self):
        hints = MigratoryHints(prefetch=True, flush=True)
        gen = OltpTraceGenerator(0, self.layout, seed=1, hints=hints)
        instrs = take(gen, 30_000)
        assert any(i.op == OP_PREFETCH for i in instrs)
        assert any(i.op == OP_FLUSH for i in instrs)

    def test_hints_respect_pc_filter(self):
        hints = MigratoryHints(prefetch=True, flush=True, pc_filter=set())
        gen = OltpTraceGenerator(0, self.layout, seed=1, hints=hints)
        instrs = take(gen, 30_000)
        assert not any(i.op in (OP_PREFETCH, OP_FLUSH) for i in instrs)

    def test_no_hints_by_default(self):
        assert not any(i.op in (OP_PREFETCH, OP_FLUSH)
                       for i in self.instrs)

    def test_shared_migratory_structures_across_processes(self):
        """Different processes touch the same migratory lines."""
        def migratory_lines(pid):
            gen = OltpTraceGenerator(pid, self.layout, seed=3)
            span = self.layout.migratory_lines * 64
            return {i.addr >> 6 for i in take(gen, 40_000)
                    if i.op in (OP_LOAD, OP_STORE)
                    and 0x1000_0000 <= i.addr < 0x1000_0000 + span}
        shared = migratory_lines(0) & migratory_lines(1)
        assert len(shared) >= 4

    def test_block_update_without_producer(self):
        """With no index levels and no block reads, the block update's
        ALU op has no producer: it is emitted without a dependence."""
        params = OltpParams(index_depth=0, block_reads=0)
        gen = OltpTraceGenerator(0, self.layout, params=params, seed=1)
        instrs = take(gen, 5_000)
        block_pcs = set(BLOCK_PCS)
        updates = [i for i in instrs if i.op == OP_INT and i.pc in block_pcs]
        assert updates and all(i.deps == () for i in updates)


class TestDssGenerator:
    def setup_method(self):
        self.layout = DatabaseLayout().scaled(16)
        self.gen = DssTraceGenerator(0, self.layout, seed=1,
                                     n_processes=16)
        self.instrs = take(self.gen, 30_000)

    def test_compute_intensive_mix(self):
        m = mix(self.instrs)
        alu_share = m.get(OP_INT, 0) + m.get(OP_FP, 0)
        assert alu_share > 0.35
        assert m.get(OP_FP, 0) > 0.03  # revenue arithmetic uses FP

    def test_scan_is_sequential_per_process(self):
        table_reads = [i.addr for i in self.instrs
                       if i.op == OP_LOAD
                       and BLOCK_BUFFER_BASE <= i.addr < PRIVATE_BASE
                       and i.addr < 0x1000_0000]
        assert table_reads
        increasing = sum(1 for a, b in zip(table_reads, table_reads[1:])
                         if b >= a)
        assert increasing / len(table_reads) > 0.9

    def test_partitions_disjoint(self):
        """Different processes scan different pages."""
        def pages(pid):
            gen = DssTraceGenerator(pid, self.layout, seed=1,
                                    n_processes=16)
            return {i.addr >> 13 for i in take(gen, 20_000)
                    if i.op == OP_LOAD
                    and BLOCK_BUFFER_BASE <= i.addr < 0x1000_0000}
        assert not (pages(0) & pages(1))

    def test_small_code_footprint(self):
        pcs = {i.pc >> 6 for i in self.instrs}
        assert len(pcs) * 64 <= 4 * self.gen.params.code_bytes

    def test_negligible_locking(self):
        locks = sum(1 for i in self.instrs if i.op == OP_LOCK_ACQ)
        assert locks / len(self.instrs) < 0.001

    def test_deterministic(self):
        g1 = DssTraceGenerator(2, self.layout, seed=5, n_processes=16)
        g2 = DssTraceGenerator(2, self.layout, seed=5, n_processes=16)
        for a, b in zip(take(g1, 2000), take(g2, 2000)):
            assert (a.op, a.pc, a.addr) == (b.op, b.pc, b.addr)


class TestWorkloadFactories:
    def test_oltp_process_count(self):
        wl = oltp_workload()
        gens = wl.generators(4)
        assert len(gens) == wl.processes_per_cpu * 4

    def test_dss_process_count(self):
        wl = dss_workload()
        assert len(wl.generators(4)) == 16

    def test_generators_share_layout(self):
        wl = oltp_workload()
        gens = wl.generators(2)
        assert gens[0].layout is gens[1].layout

    def test_scale_shrinks_footprints(self):
        big = oltp_workload(scale=1)
        small = oltp_workload(scale=16)
        assert small.layout.code_bytes < big.layout.code_bytes
        assert small.layout.block_buffer_bytes < \
            big.layout.block_buffer_bytes
