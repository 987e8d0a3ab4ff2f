"""TPC-D Query-6-like DSS trace generator (paper section 2.1.2).

Query 6 scans the largest table of the database, applies arithmetic
predicates to each row, and accumulates a revenue aggregate.  Oracle's
Parallel Query Optimization decomposes the scan into partitions, one per
server process (four processes per processor in the paper).

Published behaviour this generator reproduces:

* compute-intensive kernel with a small, L1-resident instruction footprint
  (0.0% L1I miss rate),
* sequential scan with high spatial locality -- one L1D miss brings a line
  whose remaining rows hit (0.9% L1D miss rate), while the streaming table
  data largely misses in L2 (23.1% L2 local miss rate),
* mid-size working set (sort/aggregation areas) that misses L1 but hits L2,
* negligible locking, and writes (to private aggregation buffers) that can
  overlap under relaxed consistency (paper Figure 3(d)-(g)),
* predictable loop branches (low misprediction rate) and enough independent
  work per row for an IPC of ~2 on the base processor.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, List, Optional

from repro.trace.codewalk import CodeWalker
from repro.trace.database import (
    BLOCK_BUFFER_BASE,
    PRIVATE_BASE,
    PRIVATE_STRIDE,
    DatabaseLayout,
)
from repro.trace.emitter import FP_LATENCY, Emitter
from repro.trace.instr import OP_FP, OP_INT, OP_LOAD, OP_LOCK_ACQ, \
    OP_LOCK_REL, OP_MB, OP_STORE, OP_SYSCALL, OP_WMB

LINE = 64


@dataclass(frozen=True)
class DssParams:
    """Shape of the DSS (Query 6) workload."""

    table_bytes: int = 64 * 1024 * 1024  # scanned table: streams past L2
    row_bytes: int = 8                   # consumed bytes per row, chosen so
                                         # instructions-per-scanned-byte
                                         # matches the paper's miss spacing
    rows_per_batch: int = 48             # rows between bookkeeping work
    compute_per_row: int = 90            # predicate + revenue arithmetic
    fp_fraction: float = 0.35            # revenue math uses FP multiplies
    hot_refs_per_row: int = 110          # row-processing work buffers (L1)
    hot_store_fraction: float = 0.30     # ... stores among the hot refs
    agg_working_set: int = 64 * 1024     # sort/aggregation area: exceeds
                                         # the L1 but sits in the L2, and is
                                         # small enough that scaled runs
                                         # reach steady state during warmup
    agg_accesses_per_row: float = 1.6    # expected accesses per row
    selectivity: float = 0.02            # rows passing the predicate
    code_bytes: int = 24 * 1024          # kernel fits the L1 I-cache
    hard_branch_fraction: float = 0.02
    batches_per_checkpoint: int = 1      # I/O waits between row batches:
                                         # the four server processes per
                                         # CPU interleave, reloading their
                                         # L1 working sets (this is where
                                         # DSS's small L1D miss rate comes
                                         # from -- the misses hit in L2)
    checkpoint_blocks: bool = True

    def scaled(self, factor: int) -> "DssParams":
        """Scale capacity-dependent footprints by ``factor``."""
        import dataclasses
        return dataclasses.replace(
            self,
            table_bytes=max(64 * LINE, self.table_bytes // factor),
            agg_working_set=max(8 * LINE, self.agg_working_set // factor),
            code_bytes=max(16 * LINE, self.code_bytes // factor),
        )


class DssTraceGenerator(Emitter):
    """Instruction stream of one DSS (parallel query) server process.

    Each process scans its own partition of the table: partitions are
    interleaved across processes at page granularity so the scan is
    sequential per process but the table is shared read-only.
    """

    def __init__(self, pid: int, layout: DatabaseLayout,
                 params: Optional[DssParams] = None, seed: int = 0,
                 n_processes: int = 16):
        self.pid = pid
        self.layout = layout
        self.params = params or DssParams()
        self.n_processes = max(1, n_processes)
        rng = random.Random((seed << 20) ^ (pid * 0x85EBCA77) ^ 0x0D55)
        walker = CodeWalker(
            base=0x0100_0000, code_bytes=self.params.code_bytes, rng=rng,
            hot_fraction=0.9, hot_routines=8,
            hard_branch_fraction=self.params.hard_branch_fraction,
            avg_routine_lines=4,
            call_target_variability=0.02, jump_target_variability=0.05)
        super().__init__(rng, walker, block_instrs=(6, 10))
        self.rows_scanned = 0
        self.batches = 0
        self._agg_cursor = 0

    # -- record stream -----------------------------------------------------

    def _chunks(self) -> Iterator[List[tuple]]:
        """Two chunks per scanned row (see :meth:`_scan_batch`); a
        checkpoint joins the next row's first chunk."""
        p = self.params
        while True:
            yield from self._scan_batch()
            self.batches += 1
            if p.checkpoint_blocks and \
                    self.batches % p.batches_per_checkpoint == 0:
                self._checkpoint()

    def _row_addr(self, row_index: int) -> int:
        """Partitioned scan: process p reads pages p, p+N, p+2N, ..."""
        p = self.params
        rows_per_page = 8192 // p.row_bytes
        page, slot = divmod(row_index, rows_per_page)
        virtual_page = page * self.n_processes + self.pid
        offset = (virtual_page * 8192 + slot * p.row_bytes)
        return BLOCK_BUFFER_BASE + offset % p.table_bytes

    def _scan_batch(self) -> Iterator[List[tuple]]:
        """Scan one batch of rows.  Each row yields two chunks: its
        field loads and arithmetic, then its buffer, aggregation and
        result accesses (about a hundred records each, which keeps the
        records produced ahead of the core small)."""
        p, rng = self.params, self._rng
        emit = self.emit
        for _ in range(p.rows_per_batch):
            addr = self._row_addr(self.rows_scanned)
            self.rows_scanned += 1

            # Load the row's fields: shipdate, discount, quantity, price.
            # Field loads of one row are independent of each other (only the
            # row pointer feeds them), giving memory parallelism within the
            # spatially-local line.
            field_tags = [emit(OP_LOAD, addr + field * 2)
                          for field in range(4)]

            # Predicate and revenue arithmetic: dependence chains are kept
            # shallow (most ops consume the row's fields directly), so the
            # ILP is locally available -- a modest instruction window
            # already extracts it and bigger windows add little, matching
            # the paper's Figure 3(b) leveling beyond 32 entries.
            chain_tag, chain_depth = None, 0
            for i in range(p.compute_per_row):
                is_fp = rng.random() < p.fp_fraction
                if chain_tag is not None and chain_depth < 3 and \
                        rng.random() < 0.3:
                    srcs = (chain_tag, rng.choice(field_tags))
                    chain_depth += 1
                else:
                    srcs = (rng.choice(field_tags),)
                    chain_depth = 1
                if is_fp:
                    chain_tag = emit(OP_FP, 0, srcs, FP_LATENCY)
                else:
                    chain_tag = emit(OP_INT, 0, srcs)
            tags = [chain_tag if chain_tag is not None else field_tags[-1]]
            yield self._take()

            # Row-processing work: copies, expression temporaries, and
            # evaluator state on the (L1-resident) private work buffers.
            # This is what makes Oracle's Q6 compute-intensive per row.
            for _ in range(p.hot_refs_per_row):
                off = rng.randrange(self.layout.hot_private_bytes // 8) * 8
                hot_addr = self.layout.hot_private_addr(self.pid, off)
                if rng.random() < p.hot_store_fraction:
                    emit(OP_STORE, hot_addr, (tags[-1],))
                else:
                    tags.append(emit(OP_LOAD, hot_addr))
                    if len(tags) > 5:
                        tags.pop(0)

            # Aggregation-area accesses (hash/sort buckets): miss L1, hit L2.
            # The area lives in the upper half of the process's private
            # window, separate from the generic stack/heap region.
            n_agg = int(p.agg_accesses_per_row) + (
                1 if rng.random() < p.agg_accesses_per_row % 1 else 0)
            for _ in range(n_agg):
                # Sort/merge runs walk the area sequentially; hash-bucket
                # updates hit random slots.  The mix covers the working
                # set quickly (so scaled runs reach steady state) while
                # keeping the random component.
                if rng.random() < 0.5:
                    bucket = self._agg_cursor % p.agg_working_set
                    self._agg_cursor += 64
                else:
                    bucket = rng.randrange(p.agg_working_set // 16) * 16
                agg_addr = (PRIVATE_BASE + self.pid * PRIVATE_STRIDE
                            + PRIVATE_STRIDE // 2 + bucket)
                tag = emit(OP_LOAD, agg_addr)
                utag = emit(OP_FP, 0, (tag,), FP_LATENCY)
                emit(OP_STORE, agg_addr, (utag,))

            # Qualifying rows append to a private result scratch buffer.
            if rng.random() < p.selectivity:
                for s in range(4):
                    off = (self.rows_scanned * 16 + s * 8)
                    emit(OP_STORE, self.layout.hot_private_addr(self.pid, off),
                         (tags[-1],))
            yield self._take()

    def _checkpoint(self) -> None:
        """Rare coordination with the query coordinator (negligible
        locking, matching the paper's DSS characterization)."""
        emit = self.emit
        lock = self.layout.lock_addr(self.pid % 4)
        emit(OP_LOCK_ACQ, lock)
        emit(OP_MB)
        tag = emit(OP_LOAD, self.layout.metadata_addr(self.pid * LINE))
        utag = emit(OP_INT, 0, (tag,))
        emit(OP_STORE, self.layout.metadata_addr(self.pid * LINE), (utag,))
        emit(OP_WMB)
        emit(OP_LOCK_REL, lock)
        if self.params.checkpoint_blocks:
            emit(OP_SYSCALL)
