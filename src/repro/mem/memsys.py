"""Per-node memory hierarchy: L1I + stream buffer, L1D, unified L2, TLBs.

This module composes the cache arrays, MSHR files, TLBs and the stream
buffer of one node and translates processor requests into directory
transactions.  It returns *completion times* plus a service category so the
core can implement the paper's execution-time breakdown (L1 hit, L2 hit,
local memory, remote memory, dirty/cache-to-cache, data TLB).

Structural hazards (request-port saturation, full MSHR files) surface as a
``MemResult`` with ``stalled=True`` and a ``retry_at`` cycle so the core
can sleep rather than poll.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from repro.mem.cache import CacheArray, MshrFile
from repro.mem.coherence import SVC_DIRTY, SVC_LOCAL, SVC_REMOTE, \
    CoherentMemory
from repro.mem.streambuf import InstructionStreamBuffer
from repro.mem.tlb import PageTable, Tlb
from repro.params import SystemParams

# Service categories (read-stall subdivisions of Figures 2(b)/(c)).
CAT_L1_HIT = 0
CAT_L2_HIT = 1
CAT_LOCAL = 2
CAT_REMOTE = 3
CAT_DIRTY = 4
CAT_DTLB = 5

_SVC_TO_CAT = {SVC_LOCAL: CAT_LOCAL, SVC_REMOTE: CAT_REMOTE,
               SVC_DIRTY: CAT_DIRTY}

DEFAULT_LINE_SHIFT = 6  # 64-byte lines


class MemResult:
    """Outcome of a data access."""

    __slots__ = ("done_at", "category", "tlb_miss", "stalled", "retry_at")

    def __init__(self, done_at: int = 0, category: int = CAT_L1_HIT,
                 tlb_miss: bool = False, stalled: bool = False,
                 retry_at: int = 0):
        self.done_at = done_at
        self.category = category
        self.tlb_miss = tlb_miss
        self.stalled = stalled
        self.retry_at = retry_at


def _stall(retry_at: int) -> MemResult:
    return MemResult(stalled=True, retry_at=retry_at)


class NodeMemorySystem:
    """Caches, TLBs and stream buffer of one node."""

    def __init__(self, node_id: int, params: SystemParams,
                 page_table: PageTable, coherent: CoherentMemory,
                 l1d_mshr_stats=None, l2_mshr_stats=None):
        self.node_id = node_id
        self.params = params
        self.page_table = page_table
        self.coherent = coherent
        self.line_shift = params.l2.line_size.bit_length() - 1

        self.l1i = CacheArray(params.l1i)
        self.l1d = CacheArray(params.l1d)
        self.l2 = CacheArray(params.l2)
        self.itlb = Tlb(params.itlb)
        self.dtlb = Tlb(params.dtlb)
        self.l1d_mshrs = MshrFile(params.l1d.mshrs, l1d_mshr_stats)
        self.l2_mshrs = MshrFile(params.l2.mshrs, l2_mshr_stats)
        self.stream_buffer = InstructionStreamBuffer(
            params.stream_buffer_entries, self._prefetch_instr_line)

        # Optional path-predicting instruction prefetcher (section 4.1:
        # "a predictor that interfaces with a branch target buffer to
        # issue prefetches for the right path of the branch").  A small
        # successor table records which line followed each line; fetches
        # prefetch the predicted successor into a side buffer.  The paper
        # found its benefit limited next to a stream buffer -- the
        # ablation benchmark reproduces that conclusion.
        self._nlp_table: dict = {}
        self._nlp_buffer: dict = {}
        self._nlp_last_line = -1
        self.nlp_prefetches = 0
        self.nlp_hits = 0

        # Lines this node may write without a directory transaction
        # (MESI E or M at the node level).
        self._writable = set()

        # Hot-path scalars hoisted out of the frozen params dataclasses
        # (and the page shift) so access_instr/access_data do flat
        # attribute reads instead of chasing params.* chains.
        self._perfect_icache = params.perfect_icache
        self._perfect_dcache = params.perfect_dcache
        self._branch_iprefetch = params.branch_iprefetch
        self._l1d_ports = params.l1d.request_ports
        self._l1d_hit = params.l1d.hit_time
        self._l2_hit = params.l2.hit_time
        self._itlb_miss = params.itlb.miss_latency
        self._dtlb_miss = params.dtlb.miss_latency
        self._page_shift = page_table.page_shift

        # Resource occupancy (contention): L1D ports per cycle, L2 port.
        self._l1d_port_cycle = -1
        self._l1d_port_used = 0
        self._l2_next_free = 0
        self._l2_occupancy = 2  # fully pipelined L2: 2-cycle issue slot

        # Called with a line number when coherence or replacement removes
        # it; the core's consistency unit registers itself here to detect
        # speculative-load violations.
        self.violation_hook: Optional[Callable[[int], None]] = None

        coherent.invalidate_hooks[node_id] = self.external_invalidate
        coherent.dirty_hooks[node_id] = self.line_dirty
        coherent.downgrade_hooks[node_id] = self.external_downgrade

        # Statistics.
        self.l1i_accesses = 0
        self.l1i_misses = 0
        self.l1d_accesses = 0
        self.l1d_misses = 0
        self.l2_accesses = 0
        self.l2_misses = 0
        self.prefetches = 0
        self.flush_hints = 0

    # -- address helpers ----------------------------------------------------

    def _translate(self, vaddr: int, tlb: Tlb) -> Tuple[int, bool]:
        """(physical line, tlb_missed)."""
        vpage = vaddr >> self._page_shift
        hit = tlb.access(vpage)
        line = self.page_table.translate_line(vaddr, self.line_shift)
        return line, not hit

    # -- instruction fetch ---------------------------------------------------

    def access_instr(self, now: int, vaddr: int) -> Tuple[int, int]:
        """Fetch the line containing ``vaddr``.

        Returns ``(ready_at, category)``.  ``ready_at == now`` means the
        fetch proceeds without a stall (L1I hit with its 1-cycle pipelined
        hit time).
        """
        if self._perfect_icache:
            return now, CAT_L1_HIT
        line, tlb_miss = self._translate(vaddr, self.itlb)
        t = now + self._itlb_miss if tlb_miss else now
        if self._branch_iprefetch:
            self._nlp_observe(line, t)
        # l1i_accesses counts instruction *references* (one per fetched
        # instruction, incremented by the core); only misses count here.
        if self.l1i.lookup(line):
            return t, CAT_L1_HIT
        self.l1i_misses += 1

        buffered = self._nlp_buffer.pop(line, None)
        if buffered is not None:
            self.nlp_hits += 1
            self._fill_instr(line)
            return max(t, buffered) + 2, CAT_L2_HIT

        ready = self.stream_buffer.probe(line, t)
        if ready is not None:
            self._fill_instr(line)
            return ready, CAT_L2_HIT

        ready, category = self._demand_instr_fetch(line, t)
        self._fill_instr(line)
        return ready, category

    def _nlp_observe(self, line: int, now: int) -> None:
        """Train the line-successor table and prefetch the predicted
        next fetch line into the side buffer."""
        prev = self._nlp_last_line
        self._nlp_last_line = line
        if prev >= 0 and prev != line:
            self._nlp_table[prev] = line
        predicted = self._nlp_table.get(line)
        if predicted is None or predicted == line:
            return
        if self.l1i.lookup(predicted, touch=False) or \
                predicted in self._nlp_buffer:
            return
        ready = self._prefetch_instr_line(predicted, now)
        self._nlp_buffer[predicted] = ready
        self.nlp_prefetches += 1
        if len(self._nlp_buffer) > 8:
            self._nlp_buffer.pop(next(iter(self._nlp_buffer)))

    def _demand_instr_fetch(self, line: int, t: int) -> Tuple[int, int]:
        """L1I miss serviced by L2 / memory."""
        start = max(t + 1, self._l2_next_free)
        self._l2_next_free = start + self._l2_occupancy
        self.l2_accesses += 1
        if self.l2.lookup(line):
            return start + self._l2_hit, CAT_L2_HIT
        self.l2_misses += 1
        done, svc, _excl = self._directory_read(line, start)
        self._fill_l2(line)
        return done, _SVC_TO_CAT[svc]

    def _prefetch_instr_line(self, line: int, now: int) -> int:
        """Stream-buffer prefetch through the L2 path (consumes L2 and,
        on an L2 miss, directory/network bandwidth -- useless prefetches
        cost real resources)."""
        start = max(now + 1, self._l2_next_free)
        self._l2_next_free = start + self._l2_occupancy
        if self.l2.lookup(line, touch=False):
            return start + self._l2_hit
        done, _svc, _excl = self._directory_read(line, start)
        return done

    def _fill_instr(self, line: int) -> None:
        victim = self.l1i.insert(line)
        # Instruction lines are never dirty; L1I victims just vanish
        # (still present in the inclusive L2).
        self._fill_l2(line)
        del victim

    # -- data access ----------------------------------------------------------

    def access_data(self, now: int, vaddr: int, is_write: bool,
                    pc: int = 0) -> MemResult:
        """Load/store/RMW access.  See module docstring for semantics."""
        # L1D request ports (dual-ported in the base system).
        if self._l1d_port_cycle == now:
            if self._l1d_port_used >= self._l1d_ports:
                return _stall(now + 1)
            self._l1d_port_used += 1
        else:
            self._l1d_port_cycle = now
            self._l1d_port_used = 1

        line, tlb_miss = self._translate(vaddr, self.dtlb)
        t = now + self._dtlb_miss if tlb_miss else now
        l1d_hit = self._l1d_hit

        if self._perfect_dcache:
            self.l1d_accesses += 1
            return MemResult(t + l1d_hit, CAT_L1_HIT, tlb_miss)

        l1d_mshrs = self.l1d_mshrs
        l2_mshrs = self.l2_mshrs
        if now >= l1d_mshrs._min_done:
            l1d_mshrs.expire(now)
        if now >= l2_mshrs._min_done:
            l2_mshrs.expire(now)

        # Coalesce with an in-flight miss to the same line.
        entry = l1d_mshrs.get(line)
        if entry is not None:
            self.l1d_accesses += 1
            if is_write and not entry.exclusive:
                done, svc = self.coherent.write(
                    self.node_id, line, max(t, entry.done_at), pc)
                l1d_mshrs.extend(entry, done, exclusive=True)
                self._writable.add(line)
                self.l1d.mark_dirty(line)
                return MemResult(done, _SVC_TO_CAT[svc], tlb_miss)
            done = max(entry.done_at, t + l1d_hit)
            if is_write:
                self.l1d.mark_dirty(line)
            return MemResult(done, CAT_L2_HIT, tlb_miss)

        # L1 hit path.
        if self.l1d.lookup(line):
            if not is_write or line in self._writable:
                self.l1d_accesses += 1
                if is_write:
                    self.l1d.mark_dirty(line)
                return MemResult(t + l1d_hit, CAT_L1_HIT, tlb_miss)
            # Write hit on a shared line: upgrade.
            if l1d_mshrs.full:
                return _stall(l1d_mshrs.earliest_done())
            self.l1d_accesses += 1
            done, svc = self.coherent.write(self.node_id, line, t, pc)
            l1d_mshrs.register(line, now, done, is_read=False,
                               exclusive=True)
            self._writable.add(line)
            self.l1d.mark_dirty(line)
            self.l2.mark_dirty(line)
            return MemResult(done, _SVC_TO_CAT[svc], tlb_miss)

        # L1 miss.  Structural hazards stall *before* any statistics or
        # resource occupancy so retries are not double-counted.
        if l1d_mshrs.full:
            return _stall(l1d_mshrs.earliest_done())
        l2_entry = l2_mshrs.get(line)
        l2_hit = l2_entry is None and self.l2.lookup(line)
        if l2_entry is None and not l2_hit and l2_mshrs.full:
            return _stall(l2_mshrs.earliest_done())

        self.l1d_accesses += 1
        self.l1d_misses += 1
        start = max(t + 1, self._l2_next_free)
        self._l2_next_free = start + self._l2_occupancy
        self.l2_accesses += 1

        if l2_entry is not None:
            done = max(l2_entry.done_at, start + self._l2_hit)
            exclusive = l2_entry.exclusive
            if is_write and not exclusive:
                done, svc = self.coherent.write(self.node_id, line, done, pc)
                l2_mshrs.extend(l2_entry, done, exclusive=True)
                exclusive = True
            category = CAT_L2_HIT
        elif l2_hit:
            if is_write and line not in self._writable:
                done, svc = self.coherent.write(
                    self.node_id, line, start + self._l2_hit, pc)
                category = _SVC_TO_CAT[svc]
                exclusive = True
            else:
                done = start + self._l2_hit
                category = CAT_L2_HIT
                exclusive = line in self._writable
        else:
            # L2 miss: directory transaction.
            self.l2_misses += 1
            issue = start + self._l2_hit  # tag check before miss
            if is_write:
                done, svc = self.coherent.write(self.node_id, line, issue, pc)
                exclusive = True
            else:
                done, svc, excl = self._directory_read(line, issue, pc)
                exclusive = excl
            category = _SVC_TO_CAT[svc]
            l2_mshrs.register(line, now, done, is_read=not is_write,
                              exclusive=exclusive)
            self._fill_l2(line, dirty=is_write)

        l1d_mshrs.register(line, now, done, is_read=not is_write,
                           exclusive=is_write or exclusive)
        if is_write or exclusive:
            self._writable.add(line)
        victim = self.l1d.insert(line, dirty=is_write)
        if victim is not None:
            v_line, v_dirty = victim
            if v_dirty:
                self.l2.mark_dirty(v_line)  # inclusive: line is in L2
        if is_write:
            self.l2.mark_dirty(line)
        return MemResult(done, category, tlb_miss)

    def _directory_read(self, line: int, t: int, pc: int = 0
                        ) -> Tuple[int, int, bool]:
        """Read via the directory; returns (done, svc, exclusive_granted)."""
        return self.coherent.read(self.node_id, line, t, pc)

    def _fill_l2(self, line: int, dirty: bool = False) -> None:
        victim = self.l2.insert(line, dirty=dirty)
        if victim is None:
            return
        v_line, v_dirty = victim
        self._evict_from_node(v_line, v_dirty, replacement=True)

    def _evict_from_node(self, line: int, dirty: bool,
                         replacement: bool) -> None:
        """L2 eviction: maintain inclusion, notify directory and the
        speculative-load violation detector (replacements can violate
        ordering just like invalidations -- paper section 3.4)."""
        self.l1d.invalidate(line)
        self.l1i.invalidate(line)
        if dirty or line in self._writable:
            self._writable.discard(line)
            self.coherent.writeback(self.node_id, line, 0)
        else:
            self.coherent.evict_clean(self.node_id, line)
        if self.violation_hook is not None:
            self.violation_hook(line)

    # -- software hints (section 4.2) -----------------------------------------

    def prefetch_data(self, now: int, vaddr: int, exclusive: bool = True,
                      pc: int = 0) -> None:
        """Non-binding software prefetch (dropped on structural hazard)."""
        self.prefetches += 1
        line, _ = self._translate(vaddr, self.dtlb)
        self.l1d_mshrs.expire(now)
        self.l2_mshrs.expire(now)
        if self.l1d_mshrs.full or self.l2_mshrs.full:
            return
        if self.l1d.lookup(line, touch=False) and (
                not exclusive or line in self._writable):
            return
        if self.l1d_mshrs.get(line) is not None:
            return
        start = max(now + 1, self._l2_next_free)
        self._l2_next_free = start + self._l2_occupancy
        if exclusive:
            done, _svc = self.coherent.write(self.node_id, line, start, pc)
            granted = True
        else:
            # A read prefetch only confers write permission when the
            # directory actually granted exclusive-clean (MESI E).
            done, _svc, granted = self._directory_read(line, start, pc)
        self.l2_misses += not self.l2.lookup(line, touch=False)
        self.l2_accesses += 1
        self.l1d_mshrs.register(line, now, done, is_read=not exclusive,
                                exclusive=granted)
        self.l2_mshrs.register(line, now, done, is_read=not exclusive,
                               exclusive=granted)
        if granted:
            self._writable.add(line)
        self._fill_l2(line)
        victim = self.l1d.insert(line)
        if victim is not None and victim[1]:
            self.l2.mark_dirty(victim[0])

    def flush_line(self, now: int, vaddr: int) -> None:
        """Software flush / WriteThrough hint: sharing writeback keeping a
        clean cached copy (fire-and-forget)."""
        self.flush_hints += 1
        line, _ = self._translate(vaddr, self.dtlb)
        if line in self._writable:
            self.coherent.flush(self.node_id, line, now)
            self._writable.discard(line)
            # Copy stays cached but is now clean and shared.
            if self.l1d.lookup(line, touch=False):
                self.l1d.invalidate(line)
                self.l1d.insert(line, dirty=False)
            if self.l2.lookup(line, touch=False):
                self.l2.invalidate(line)
                self.l2.insert(line, dirty=False)

    # -- external coherence actions -------------------------------------------

    def line_dirty(self, line: int) -> bool:
        """Whether this node's copy of ``line`` is modified (M vs E)."""
        return self.l1d.is_dirty(line) or self.l2.is_dirty(line)

    def external_downgrade(self, line: int) -> None:
        """Ownership demotion: a remote read turned our exclusive copy
        into a shared one.  The copy stays cached, but write permission
        and the dirty bits go away -- a later store must re-acquire
        ownership through the directory (without this, the old owner
        could silently write a line other nodes now share)."""
        self._writable.discard(line)
        self.l1d.mark_clean(line)
        self.l2.mark_clean(line)

    def external_invalidate(self, line: int) -> None:
        """Invalidation received from the directory."""
        self.l1d.invalidate(line)
        self.l1i.invalidate(line)
        self.l2.invalidate(line)
        self._writable.discard(line)
        self.stream_buffer.invalidate(line)
        if self.violation_hook is not None:
            self.violation_hook(line)

    # -- statistics -------------------------------------------------------------

    @property
    def l1i_miss_rate(self) -> float:
        return self.l1i_misses / self.l1i_accesses if self.l1i_accesses else 0.0

    @property
    def l1d_miss_rate(self) -> float:
        return self.l1d_misses / self.l1d_accesses if self.l1d_accesses else 0.0

    @property
    def l2_miss_rate(self) -> float:
        return self.l2_misses / self.l2_accesses if self.l2_accesses else 0.0
