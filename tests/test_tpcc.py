"""Tests for the TPC-C-like trace generator."""

import itertools
from collections import Counter

from repro.core.workloads import tpcc_workload
from repro.trace.database import DatabaseLayout
from repro.trace.instr import (
    OP_BRANCH,
    OP_LOAD,
    OP_LOCK_ACQ,
    OP_LOCK_REL,
    OP_STORE,
    OP_SYSCALL,
    Instruction,
)
from repro.trace.tpcc import TpccParams, TpccTraceGenerator


def take(gen, n):
    """The first ``n`` records of ``gen``, as Instruction views."""
    return [Instruction._make(record)
            for record in itertools.islice(iter(gen), n)]


class TestTpccGenerator:
    def setup_method(self):
        self.layout = DatabaseLayout().scaled(16)
        self.gen = TpccTraceGenerator(0, self.layout, seed=2)
        self.instrs = take(self.gen, 60_000)

    def test_transaction_mix(self):
        counts = self.gen.tx_counts
        total = sum(counts.values())
        assert total > 20
        # New-order and payment dominate the mix.
        assert counts["new_order"] / total > 0.3
        assert counts["payment"] / total > 0.3
        # The rare transactions occur over a long enough run.
        gen2 = TpccTraceGenerator(1, self.layout, seed=9)
        take(gen2, 200_000)
        assert gen2.tx_counts["order_status"] > 0
        assert gen2.tx_counts["stock_level"] > 0

    def test_mix_is_oltp_like(self):
        ops = Counter(i.op for i in self.instrs)
        total = len(self.instrs)
        assert 0.10 < ops[OP_LOAD] / total < 0.40
        assert 0.02 < ops[OP_STORE] / total < 0.25
        assert 0.10 < ops[OP_BRANCH] / total < 0.30

    def test_locks_balanced(self):
        acq = sum(1 for i in self.instrs if i.op == OP_LOCK_ACQ)
        rel = sum(1 for i in self.instrs if i.op == OP_LOCK_REL)
        assert abs(acq - rel) <= 1

    def test_commits_present(self):
        assert any(i.op == OP_SYSCALL for i in self.instrs)

    def test_deterministic(self):
        g1 = TpccTraceGenerator(0, self.layout, seed=3)
        g2 = TpccTraceGenerator(0, self.layout, seed=3)
        for a, b in zip(take(g1, 3000), take(g2, 3000)):
            assert (a.op, a.pc, a.addr) == (b.op, b.pc, b.addr)

    def test_read_only_transactions_write_less(self):
        """Order-status and stock-level emit no lock acquires."""
        params = TpccParams(p_new_order=0.0, p_payment=0.0,
                            p_order_status=0.5, p_delivery=0.0)
        gen = TpccTraceGenerator(0, self.layout, tpcc=params, seed=4)
        instrs = take(gen, 20_000)
        locks = sum(1 for i in instrs if i.op == OP_LOCK_ACQ)
        assert locks == 0
        # Remaining stores are private filler writes, never to the SGA.
        shared_stores = sum(
            1 for i in instrs
            if i.op == OP_STORE and i.addr < 0x4000_0000)
        assert shared_stores == 0


class TestTpccWorkloadFactory:
    def test_factory(self):
        wl = tpcc_workload()
        gens = wl.generators(4)
        assert wl.name == "tpcc"
        assert len(gens) == 24
        assert take(gens[0], 100)
