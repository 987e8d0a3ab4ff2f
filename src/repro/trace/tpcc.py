"""TPC-C-like OLTP trace generator (validation of the paper's claim).

The paper uses TPC-B rather than TPC-C, arguing (section 2.1.1) that
"our performance monitoring experiments with TPC-B and TPC-C show
similar processor and memory system behavior, with TPC-B exhibiting
somewhat worse memory system behavior than TPC-C".

This generator models the TPC-C transaction mix so the claim can be
tested on the simulated system.  It reuses the TPC-B building blocks
(index walks, block updates, lock-protected migratory metadata updates,
history/log writes) and varies their composition per transaction type:

===============  =====  =======================================
transaction      share  shape
===============  =====  =======================================
new-order         45%   5-15 order lines, several block updates,
                        district sequence under a lock (migratory)
payment           43%   like a TPC-B transaction (warehouse +
                        district balances under locks)
order-status       4%   read-only index walks + block reads
delivery           4%   batch of 10 order updates
stock-level        4%   read-heavy scan over recent stock rows
===============  =====  =======================================

TPC-C's larger share of read-only / read-heavy work and longer
transactions slightly *reduce* communication misses per instruction
relative to TPC-B -- the "somewhat worse" direction the paper reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional

from repro.trace.database import DatabaseLayout, MigratoryHints
from repro.trace.instr import OP_INT, OP_LOAD, OP_STORE, OP_SYSCALL, OP_WMB
from repro.trace.oltp import OltpParams, OltpTraceGenerator

LINE = 64


@dataclass(frozen=True)
class TpccParams:
    """TPC-C transaction-mix shape on top of the TPC-B engine blocks."""

    n_warehouses: int = 10
    n_districts_per_warehouse: int = 10
    p_new_order: float = 0.45
    p_payment: float = 0.43
    p_order_status: float = 0.04
    p_delivery: float = 0.04
    # remainder: stock-level
    min_order_lines: int = 5
    max_order_lines: int = 15
    stock_scan_rows: int = 40

    def scaled(self, factor: int) -> "TpccParams":
        return self


class TpccTraceGenerator(OltpTraceGenerator):
    """Instruction stream of one TPC-C-like server process.

    Reuses the engine blocks of :class:`OltpTraceGenerator`; only the
    transaction composition differs.
    """

    def __init__(self, pid: int, layout: DatabaseLayout,
                 params: Optional[OltpParams] = None,
                 tpcc: Optional[TpccParams] = None, seed: int = 0,
                 hints: Optional[MigratoryHints] = None):
        super().__init__(pid, layout, params, seed=seed, hints=hints)
        self.tpcc = tpcc or TpccParams()
        self.tx_counts = {"new_order": 0, "payment": 0,
                          "order_status": 0, "delivery": 0,
                          "stock_level": 0}

    def _transaction(self) -> Iterator[List[tuple]]:
        t = self.tpcc
        roll = self._rng.random()
        if roll < t.p_new_order:
            kind = "new_order"
        elif roll < t.p_new_order + t.p_payment:
            kind = "payment"
        elif roll < t.p_new_order + t.p_payment + t.p_order_status:
            kind = "order_status"
        elif roll < (t.p_new_order + t.p_payment + t.p_order_status
                     + t.p_delivery):
            kind = "delivery"
        else:
            kind = "stock_level"
        self.tx_counts[kind] += 1
        yield from getattr(self, f"_tx_{kind}")()

    # -- transaction bodies -------------------------------------------------

    def _warehouse_district(self):
        t, rng = self.tpcc, self._rng
        warehouse = rng.randrange(t.n_warehouses)
        district = (warehouse * t.n_districts_per_warehouse
                    + rng.randrange(t.n_districts_per_warehouse))
        return warehouse, district

    def _tx_new_order(self) -> Iterator[List[tuple]]:
        p, t, rng = self.params, self.tpcc, self._rng
        emit = self.emit
        warehouse, district = self._warehouse_district()
        n_lines = rng.randint(t.min_order_lines, t.max_order_lines)

        yield self._phase(0)
        self._filler(p.txn_filler_ops // 5)

        # Next order-id sequence: a contended district structure.
        yield self._phase(5)
        self._critical_section(
            lock_id=t.n_warehouses + district, structure=district,
            hot_prob=p.p_hot_migratory)

        # Item/stock lookup per order line; order rows accumulate in
        # private buffers, and only every third line dirties a shared
        # stock block (TPC-C's writes are spread far wider than TPC-B's).
        for line in range(n_lines):
            yield self._phase(1 + line % 3)
            item = rng.randrange(100_000)
            row_tag = self._index_walk(item)
            if line % 3 == 0:
                self._block_update(item, row_tag)
            self._filler(p.txn_filler_ops // 10)

        # Order insert (sequential, per-process) + commit.
        yield self._phase(7)
        partition = self.layout.history_bytes // 64
        base = (self.pid * partition
                + (self.transactions_emitted * 16 * 8) % partition)
        for i in range(16):
            emit(OP_STORE, self.layout.history_addr(base + i * 8))
        yield self._phase(8)
        log_off = self.transactions_emitted * p.log_stores * 8
        for i in range(p.log_stores):
            emit(OP_STORE, self.layout.log_addr(self.pid, log_off + i * 8))
        emit(OP_WMB)
        if p.commit_blocks:
            emit(OP_SYSCALL)

    def _tx_payment(self) -> Iterator[List[tuple]]:
        """Structurally the TPC-B transaction: balance updates under
        warehouse and district locks."""
        yield from super()._transaction()

    def _tx_order_status(self) -> Iterator[List[tuple]]:
        p, rng = self.params, self._rng
        emit = self.emit
        yield self._phase(0)
        self._filler(p.txn_filler_ops // 6)
        customer = rng.randrange(30_000)
        yield self._phase(2)
        row_tag = self._index_walk(customer)
        for i in range(3):  # read the most recent order's lines
            yield self._phase(3)
            row_tag = emit(
                OP_LOAD,
                self.layout.block_buffer_addr(customer * 640 + i * 64),
                (row_tag,) if row_tag is not None else ())
            self._filler(p.txn_filler_ops // 12)
        if p.commit_blocks:
            emit(OP_SYSCALL)

    def _tx_delivery(self) -> Iterator[List[tuple]]:
        p, t, rng = self.params, self.tpcc, self._rng
        emit = self.emit
        warehouse, district = self._warehouse_district()
        yield self._phase(0)
        self._filler(p.txn_filler_ops // 8)
        for order in range(4):
            yield self._phase(4)
            key = district * 1000 + order
            row_tag = self._index_walk(key)
            self._block_update(key, row_tag)
            self._filler(p.txn_filler_ops // 10)
        yield self._phase(6)
        self._critical_section(
            lock_id=t.n_warehouses + district, structure=district,
            hot_prob=0.4)
        yield self._phase(8)
        log_off = self.transactions_emitted * p.log_stores * 8
        for i in range(p.log_stores):
            emit(OP_STORE, self.layout.log_addr(self.pid, log_off + i * 8))
        emit(OP_WMB)
        if p.commit_blocks:
            emit(OP_SYSCALL)

    def _tx_stock_level(self) -> Iterator[List[tuple]]:
        """Read-heavy: scan recent stock rows (no shared writes)."""
        p, t, rng = self.params, self.tpcc, self._rng
        emit = self.emit
        yield self._phase(0)
        self._filler(p.txn_filler_ops // 8)
        base = rng.randrange(1 << 20) * 64
        tag = None
        for row in range(t.stock_scan_rows):
            yield self._phase(1 + row % 2)
            tag = emit(OP_LOAD, self.layout.block_buffer_addr(base + row * 80),
                       (tag,) if tag is not None and row % 4 == 0 else ())
            emit(OP_INT, 0, (tag,))
            if row % 8 == 7:
                self._filler(p.txn_filler_ops // 24)
        if p.commit_blocks:
            emit(OP_SYSCALL)
