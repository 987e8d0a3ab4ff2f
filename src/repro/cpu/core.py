"""Unified in-order / out-of-order processor core (paper section 2.4).

The core models fetch, dispatch into an instruction window, issue to
functional units (2 integer ALUs, 2 FP units, 2 address-generation units
by default), non-blocking memory access through the node memory system,
and in-order retirement at the issue width.  A mode flag selects between:

* **out-of-order**: any ready instruction in the window may issue;
* **in-order**: instructions issue strictly in program order and issue
  stalls at the first instruction whose operands are not ready -- the
  paper's in-order baseline.

Trace-driven restrictions match the paper: on a branch misprediction no
instructions are fetched until the branch resolves (wrong-path execution
is not modelled), and the OS scheduler switches processes at blocking
system calls.

Stall accounting implements the paper's retire-based convention (see
:mod:`repro.stats.breakdown`).
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Dict, Iterator, List, Optional, Set

from repro.cpu.bpred import BranchPredictor
from repro.cpu.consistency import UNBOUNDED, ConsistencyUnit
from repro.cpu.storebuffer import StoreBuffer
from repro.mem.memsys import (
    CAT_DIRTY,
    CAT_DTLB,
    CAT_L1_HIT,
    CAT_L2_HIT,
    CAT_LOCAL,
    CAT_REMOTE,
    NodeMemorySystem,
    weak_method,
)
from repro.params import ConsistencyImpl, ConsistencyModel, SystemParams
from repro.stats.breakdown import (
    BUSY,
    CPU_STALL,
    IDLE,
    INSTR,
    READ_DIRTY,
    READ_DTLB,
    READ_L1,
    READ_L2,
    READ_LOCAL,
    READ_REMOTE,
    SYNC,
    WRITE,
    ExecutionBreakdown,
)
from repro.trace.instr import (
    I_ADDR,
    I_LATENCY,
    I_OP,
    I_PC,
    OP_BRANCH,
    OP_FLUSH,
    OP_FP,
    OP_INT,
    OP_LOAD,
    OP_LOCK_ACQ,
    OP_LOCK_REL,
    OP_MB,
    OP_PREFETCH,
    OP_STORE,
    OP_SYSCALL,
    OP_WMB,
)

# Window entry states.
ST_WAIT = 0      # operands pending
ST_READY = 1     # may issue
ST_EXEC = 2      # in a functional unit (address generation for memory ops)
ST_MEMQ = 3      # memory op awaiting permission/resources to perform
ST_MEMACC = 4    # memory access outstanding
ST_DONE = 5
ST_GONE = 6      # retired or squashed: heap items naming it are stale

_CAT_TO_READ = {
    CAT_L1_HIT: READ_L1, CAT_L2_HIT: READ_L2, CAT_LOCAL: READ_LOCAL,
    CAT_REMOTE: READ_REMOTE, CAT_DIRTY: READ_DIRTY, CAT_DTLB: READ_DTLB,
}

# Hot-loop op-class sets/maps (frozenset membership and one dict lookup
# beat tuple scans in the dispatch/issue/retire paths).
_MEMQ_OPS = frozenset((OP_LOAD, OP_STORE, OP_LOCK_ACQ, OP_LOCK_REL))
_ORDERING_OPS = frozenset((OP_MB, OP_WMB, OP_SYSCALL))
_LOAD_OPS = frozenset((OP_LOAD, OP_LOCK_ACQ))
_STORE_OPS = frozenset((OP_STORE, OP_LOCK_REL))
# Functional-unit class of each op: 0 int+branch (the default), 1 fp,
# 2 address generation.  Out-of-order cores keep one ready heap per class.
_FU_CLASS = {OP_FP: 1, OP_LOAD: 2, OP_STORE: 2, OP_LOCK_ACQ: 2,
             OP_LOCK_REL: 2, OP_PREFETCH: 2, OP_FLUSH: 2}
_FU_CLASSES = (0, 1, 2)
_ONE_CLASS = ((0,), (1,), (2,))
_EXCLUSIVE_OPS = frozenset((OP_STORE, OP_LOCK_REL, OP_LOCK_ACQ))
# Ops with work to do at retirement besides leaving the window.
_RETIRE_OPS = frozenset((OP_MB, OP_WMB, OP_STORE, OP_LOCK_REL, OP_FLUSH,
                         OP_SYSCALL))

FAR_FUTURE = 1 << 60
MISPREDICT_RESTART = 3   # pipeline restart after a resolved misprediction
ROLLBACK_RESTART = 8     # recovery from a consistency violation
LOCK_SPIN_INTERVAL = 120  # retry period for a contended lock


class WindowEntry:
    """One in-flight instruction: its seq, its trace record and the
    pipeline's timing state for it."""

    __slots__ = ("seq", "instr", "state", "done_at", "pending", "dependents",
                 "category", "retry_at", "prefetched", "bp_outcome")

    def __init__(self, seq: int, instr: tuple):
        self.seq = seq
        self.instr = instr
        self.state = ST_WAIT
        self.done_at = 0
        self.pending = 0
        self.dependents: List[int] = []
        self.category = READ_L1  # read-stall category, set at perform
        self.retry_at = 0
        self.prefetched = False
        # Branches: True iff the predictor mispredicted this dynamic
        # branch (observed once per seq; see TraceBuffer._outcomes).
        self.bp_outcome = False

    def __lt__(self, other: "WindowEntry") -> bool:
        # Heap items are (seq, entry) and (done_at, seq, entry), so two
        # entries are compared only when their keys tie.  Live entries of
        # one core have distinct seqs, so a tie involves at least one
        # squashed entry (a seq reused after a squash or context switch)
        # and at most one live one.  ST_GONE items are dropped when
        # popped whatever their order, so ties may break arbitrarily.
        return False


class TraceBuffer:
    """Window onto a process's instruction stream supporting re-fetch.

    Records are kept from the oldest unretired one onward so the core
    can rewind after consistency-violation rollbacks and context switches:
    ``_buf[i]`` is the record of seq ``_base + i``.  The core reads
    and extends it in ``_fetch`` and releases the retired prefix in
    ``_retire``.

    ``_outcomes`` maps the seq of each squashed, not yet refetched branch
    to its predictor outcome: a refetched branch reuses it, so it never
    retrains the predictor or pops the RAS a second time.
    """

    __slots__ = ("_source", "_base", "_buf", "_outcomes")

    def __init__(self, source: Iterator):
        self._source = source
        self._base = 0
        self._buf: deque = deque()
        self._outcomes: Dict[int, bool] = {}

    @property
    def consumed(self) -> int:
        """Instructions pulled from the source so far."""
        return self._base + len(self._buf)


class ProcessorCore:
    """One processor: pipeline + window + retirement + stall accounting."""

    def __init__(self, cpu_id: int, params: SystemParams,
                 memsys: NodeMemorySystem, lock_table: Dict[int, int]):
        self.cpu_id = cpu_id
        self.params = params
        self.proc = params.processor
        self.memsys = memsys
        self.lock_table = lock_table
        self.bpred = BranchPredictor(params.bpred)
        self.consistency = ConsistencyUnit(params.consistency,
                                           params.consistency_impl)
        overlap = self.consistency.store_buffer_overlap
        self.storebuf = StoreBuffer(
            capacity=64, memsys=memsys, overlap=overlap,
            wants_prefetch=(self.consistency.wants_prefetch and
                            params.consistency is ConsistencyModel.PC))
        # Only SC and PC order memory operations.  Under RC every ordering
        # query answers "yes" and no load is speculative, so the core
        # keeps no ordering state in the unit, never consults it, and
        # needs no violation hook.
        self._ordered = params.consistency is not ConsistencyModel.RC
        if self._ordered:
            memsys.violation_hook = weak_method(self._on_line_removed)
        # Speculative loads perform whatever the ordering bound says.
        self._speculative = \
            params.consistency_impl is ConsistencyImpl.SPECULATIVE

        self.stats = ExecutionBreakdown()
        self.retired = 0
        # Optional SMT shared pipeline (set by repro.cpu.smt.SmtCore):
        # when present, fetch/issue/retire bandwidth and functional units
        # are drawn from per-cycle pools shared with sibling contexts.
        self.shared = None

        # Pipeline state.
        self.process = None          # assigned by the machine/scheduler
        self._trace: Optional[TraceBuffer] = None
        # Live entries in program order.  Their seqs are contiguous (fetch
        # appends the next seq, retire pops the head, a squash pops the
        # tail), so the live entry of seq s is window[s - window[0].seq];
        # an entry leaving the window takes state ST_GONE.
        self._window: deque = deque()
        # Out-of-order only: one heap of (seq, entry) per FU class
        # (in-order cores issue by walking the window and never push).
        self._ready: List[List] = [[], [], []]
        self._completions: List = []  # heap of (done_at, seq, entry)
        # Memory queue: seqs of the ST_MEMQ entries in the order they
        # joined it, less the parked ones (a set of seqs), which have
        # nothing to do until the ordering bound reaches them.
        self._memq: List[int] = []
        self._parked: Set[int] = set()
        self._next_seq = 0
        self._inorder_ptr = 0
        self._fetch_blocked_until = 0
        self._fetch_block_instr = False   # True: I-miss, False: branch
        self._cur_fetch_line = -1
        self._unresolved_branches = 0
        self._last_now = -1
        self._gap_category = IDLE
        self.syscall_retired = False
        self._rollback_to: Optional[int] = None
        self._issue_wake = 0  # 0: idle, 1: poll next cycle, 2: event-driven
        # Memory-queue slots are reserved at dispatch (like a real
        # load/store queue) and released at retirement/squash, so the
        # oldest memory op always owns a slot -- admission in program
        # order is what makes the 32-entry queue deadlock-free under SC.
        self._mem_inflight = 0

        # SC stores perform from the window, not the store buffer.
        self._sc_mode = params.consistency is ConsistencyModel.SC

        # Hot-path scalars hoisted out of the frozen params dataclasses so
        # per-tick code does flat attribute reads instead of chasing
        # params.processor.* chains.
        self._issue_width = self.proc.issue_width
        self._window_size = self.proc.window_size
        self._out_of_order = self.proc.out_of_order
        self._max_spec_branches = self.proc.max_spec_branches
        self._mem_queue_size = self.proc.mem_queue_size
        if self.proc.infinite_functional_units:
            big = 1 << 30
            self._fu_template = [big, big, big]
        else:
            self._fu_template = [self.proc.int_alus, self.proc.fp_alus,
                                 self.proc.addr_gen_units]

        # True iff the most recent tick() was certifiably a no-op
        # (nothing changed beyond the per-cycle stall accounting, which
        # gap crediting reproduces exactly).  Machine.run skips a quiet
        # core's ticks until its reported wake cycle.
        self.tick_quiet = False

    # ------------------------------------------------------------------ process

    def assign_process(self, process, now: int, switch_cost: int = 0
                       ) -> None:
        """Start (or resume) running ``process`` on this core."""
        self.process = process
        self._trace = process.trace
        self._next_seq = process.resume_seq
        self._inorder_ptr = process.resume_seq
        self._unresolved_branches = 0
        self._rollback_to = None
        self._fetch_blocked_until = now + switch_cost
        self._fetch_block_instr = False
        self._cur_fetch_line = -1
        self._mem_inflight = 0
        if self._ordered:
            self.consistency.reset()
        self.storebuf.reset()

    def preempt(self, now: int):
        """Remove the current process (window flushed, position saved)."""
        process = self.process
        if process is None:
            return None
        head_seq = self._window[0].seq if self._window else self._next_seq
        self._squash_from(head_seq, now, penalty=0)
        process.resume_seq = head_seq
        self.process = None
        self._trace = None
        return process

    @property
    def head_seq(self) -> int:
        return self._window[0].seq if self._window else self._next_seq

    def free_slots(self) -> int:
        """Process slots available (SMT cores override with > 1)."""
        return 0 if self.process is not None else 1

    def blocked_processes(self, now: int):
        """Preempt and return processes that retired a blocking call."""
        if not self.syscall_retired:
            return []
        self.syscall_retired = False
        process = self.preempt(now)
        return [process] if process is not None else []

    def physical_cores(self):
        """The underlying single-context cores (SMT returns several)."""
        return [self]

    def reset_stats(self) -> None:
        self.stats.reset()

    # ------------------------------------------------------------------ tick

    def tick(self, now: int) -> int:
        """Simulate one cycle at time ``now``.

        The machine may skip cycles: the gap since the previous tick is
        charged to the category that was blocking at the end of that tick.
        Returns the next cycle at which this core can possibly make
        progress (``now + 1`` if it is actively working).

        Each pipeline phase runs behind a check that is equivalent to the
        phase's own early-exit, and the tick tracks whether any phase
        changed architectural state: ``tick_quiet`` is set to True iff
        re-running this tick at any cycle before the returned wake would
        also change nothing (all pending event times are absolute, so a
        certified-idle core's wake stays valid until something external
        -- a rollback or the scheduler -- intervenes).  The unguarded
        phase sequence this must match, wake computation included, lives
        in ``tests/reference_tick.py``.
        """
        gap = now - self._last_now - 1
        if gap > 0:
            self.stats.stall(self._gap_category, gap)
        self._last_now = now

        if self.process is None:
            self.stats.stall(IDLE, 1)
            self._gap_category = IDLE
            self.tick_quiet = True
            return FAR_FUTURE

        active = False
        completions = self._completions
        if completions and completions[0][0] <= now:
            # At least one heap pop is guaranteed, and pops (even of
            # squashed entries) mutate machine state.
            self._process_completions(now)
            active = True
        if self._memq or self._parked:
            if self._process_memq(now):
                active = True
        storebuf = self.storebuf
        if storebuf._entries:
            storebuf.drain_activity = False
            sb_event = storebuf.drain(now)
            if storebuf.drain_activity:
                active = True
        else:
            sb_event = None  # drain() on an empty buffer returns None
        if self._out_of_order:
            ready = self._ready
            if ready[0] or ready[1] or ready[2]:
                if self._issue_ooo(now) or self._issue_wake == 1:
                    active = True
            else:
                self._issue_wake = 0  # what _issue_ooo computes when idle
        else:
            ptr = self._inorder_ptr
            self._issue_inorder(now)
            if self._issue_wake == 1 or self._inorder_ptr != ptr:
                active = True
        window = self._window
        if now >= self._fetch_blocked_until and \
                len(window) < self._window_size:
            trace = self._trace
            consumed = trace._base + len(trace._buf)
            seq = self._next_seq
            blocked = self._fetch_blocked_until
            line = self._cur_fetch_line
            self._fetch(now)
            if self._next_seq != seq or \
                    self._fetch_blocked_until != blocked or \
                    self._cur_fetch_line != line or \
                    trace._base + len(trace._buf) != consumed:
                active = True
        if self.shared is not None:
            # SMT retire bandwidth interacts with sibling contexts; take
            # the full path (it may legitimately charge nothing when the
            # shared retire slots are exhausted).
            before = self.retired
            locks = len(self.lock_table)
            self._retire(now)
            if self.retired != before or len(self.lock_table) != locks:
                active = True
        elif window and window[0].state == ST_DONE:
            before = self.retired
            locks = len(self.lock_table)
            self._retire(now)
            if self.retired != before or len(self.lock_table) != locks:
                active = True  # a blocked LOCK_REL drops the lock pre-retire
        else:
            # Nothing can retire: charge the cycle to the blocking
            # category exactly as _retire's zero-retirement path would
            # (adding 0.0 busy is an exact no-op on the accumulator).
            if window:
                category = self._classify_stall(window[0])
            elif now < self._fetch_blocked_until and self._fetch_block_instr:
                category = INSTR
            else:
                category = CPU_STALL
            self.stats.cycles[category] += 1.0
            self._gap_category = category
        self.tick_quiet = not active

        # Wake: the earliest future cycle at which this core can make
        # progress.  Every real candidate is finite, so FAR_FUTURE doubles
        # as the empty-set sentinel.
        if self._issue_wake == 1:
            return now + 1
        best = FAR_FUTURE if sb_event is None else sb_event
        if completions:
            t = completions[0][0]
            if t < best:
                best = t
        memq = self._memq
        if memq:
            head = window[0].seq
            for seq in memq:
                t = window[seq - head].retry_at
                if t > now and t < best:
                    best = t
                # retry_at <= now: consistency-blocked; it wakes with the
                # next completion, which is already among the candidates.
                # (Parked ops are consistency-blocked too.)
        fbu = self._fetch_blocked_until
        if fbu != FAR_FUTURE and fbu < best and \
                len(window) < self._window_size:
            best = fbu
        if best == FAR_FUTURE:
            return now + 1 if window else FAR_FUTURE
        return best if best > now else now + 1

    # Compat alias: exists only because the frozen perfbench/layers.py
    # patches ProcessorCore.__dict__["tick_fast"].  Nothing calls it.
    tick_fast = tick

    def settle(self, now: int) -> None:
        """Charge the stall accounting a skipped span up to ``now``.

        Machine.run calls this once at exit for cores whose last tick
        predates the final grid point, reproducing exactly the per-cycle
        charges ticking them over that span would have made (the skipped
        ticks were certified no-ops, so each would have charged 1.0 cycle
        to the unchanged ``_gap_category``).
        """
        lag = now - self._last_now
        if lag <= 0:
            return
        if self.process is None:
            self.stats.stall(IDLE, lag)
            self._gap_category = IDLE
        else:
            self.stats.stall(self._gap_category, lag)
        self._last_now = now

    # ------------------------------------------------------------------ fetch

    def _fetch(self, now: int) -> None:
        """Fetch and dispatch up to the fetch width into the window."""
        if now < self._fetch_blocked_until:
            return
        trace = self._trace
        buf = trace._buf
        base = trace._base
        next_record = trace._source.__next__
        window = self._window
        limit = self._window_size
        shared = self.shared
        slots = self._issue_width if shared is None \
            else shared.fetch_slots
        memsys = self.memsys
        line_shift = memsys.line_shift
        ordered = self._ordered
        ready = self._ready if self._out_of_order else None
        fu_class = _FU_CLASS.get
        heappush = heapq.heappush
        first = seq = self._next_seq
        # Fetch only appends, so the head seq stays put and seq - head is
        # the window's length (and the index the next entry takes).
        head = window[0].seq if window else seq
        cur_line = self._cur_fetch_line
        while slots > 0 and seq - head < limit:
            # seq never passes the buffer's end (fetch is sequential and
            # squashes only move it back), so pos <= len(buf).
            pos = seq - base
            if pos < len(buf):
                instr = buf[pos]  # refetch after a squash
            else:
                instr = next_record()
                buf.append(instr)
            op, pc, _addr, deps, _latency, taken, target, kind = instr
            line = pc >> line_shift
            if line != cur_line:
                ready_at, _cat = memsys.access_instr(now, pc)
                cur_line = line
                if ready_at > now:
                    self._fetch_blocked_until = ready_at
                    self._fetch_block_instr = True
                    break
            if op == OP_BRANCH and \
                    self._unresolved_branches >= self._max_spec_branches:
                break
            is_memq = op in _MEMQ_OPS
            if is_memq and self._mem_inflight >= self._mem_queue_size:
                break  # no load/store-queue slot; wake on retirement

            # Dispatch into the window.
            entry = WindowEntry(seq, instr)
            pending = 0
            depth = seq - head
            for distance in deps:
                if 0 < distance <= depth:
                    producer = window[depth - distance]
                    if producer.state != ST_DONE:
                        pending += 1
                        producer.dependents.append(seq)
            window.append(entry)
            if is_memq:
                self._mem_inflight += 1
                if ordered:
                    if op in _LOAD_OPS:
                        self.consistency.note_dispatch(seq, is_load=True)
                    elif self._sc_mode:
                        self.consistency.note_dispatch(seq, is_load=False)
            if op in _ORDERING_OPS:
                entry.state = ST_DONE  # ordering enforced at retirement
                entry.pending = pending
            elif pending:
                entry.pending = pending
            else:
                entry.state = ST_READY
                if ready is not None:
                    heappush(ready[fu_class(op, 0)], (seq, entry))
            seq += 1
            slots -= 1
            if op == OP_BRANCH:
                self._unresolved_branches += 1
                # A refetched branch keeps the outcome saved at its squash.
                outcome = trace._outcomes.pop(entry.seq, None)
                if outcome is None:
                    outcome = self.bpred.observe(pc, kind, taken, target)
                if taken:
                    cur_line = -1  # redirect re-checks the line
                if outcome:
                    entry.bp_outcome = True
                    self._fetch_blocked_until = FAR_FUTURE
                    self._fetch_block_instr = False
                    break
        self._cur_fetch_line = cur_line
        fetched = seq - first
        if fetched:
            self._next_seq = seq
            memsys.l1i_accesses += fetched  # per-reference I-miss rates
            if shared is not None:
                shared.fetch_slots -= fetched

    # ------------------------------------------------------------------ issue

    def _issue_ooo(self, now: int) -> bool:
        """Issue the oldest ready entries whose FU class has a unit left.

        Each step takes the lowest-seq ready head among the classes that
        still have a unit, which issues exactly what one seq-ordered heap
        would (pop oldest first, skip exhausted classes, stop at the slot
        limit) without ever popping an entry it cannot issue.  Stale
        heads (entries no longer ST_READY) are dropped on the way.
        Returns True iff state changed: something issued or a stale item
        was dropped.
        """
        shared = self.shared
        if shared is None:
            slots = self._issue_width
            fu = self._fu_template.copy()
        else:
            slots = shared.issue_slots
            fu = shared.fu
        ready = self._ready
        completions = self._completions
        heappop, heappush = heapq.heappop, heapq.heappush
        heads = [FAR_FUTURE, FAR_FUTURE, FAR_FUTURE]
        stale_heads = _FU_CLASSES
        issued = dropped = 0
        while True:
            # Refresh the ready head of each class whose head may have
            # moved (all of them at first, then the one that issued).
            for cls in stale_heads:
                head = FAR_FUTURE
                if fu[cls] > 0:
                    heap = ready[cls]
                    while heap:
                        seq, entry = heap[0]
                        if entry.state == ST_READY:
                            head = seq
                            break
                        heappop(heap)  # stale
                        dropped += 1
                heads[cls] = head
            if slots <= 0:
                break
            h0, h1, h2 = heads
            if h0 < h1:
                cls = 0 if h0 < h2 else 2
            else:
                cls = 1 if h1 < h2 else 2
            if heads[cls] == FAR_FUTURE:
                break  # nothing ready in a class with a unit left
            seq, entry = heappop(ready[cls])
            entry.state = ST_EXEC
            done_at = now + entry.instr[I_LATENCY]
            entry.done_at = done_at
            heappush(completions, (done_at, seq, entry))
            issued += 1
            slots -= 1
            fu[cls] -= 1
            stale_heads = _ONE_CLASS[cls]
        if shared is not None:
            shared.issue_slots -= issued
        # Wake classification for skip-ahead: FU budgets and issue slots
        # replenish every cycle, so a non-empty ready heap (or an issue
        # this cycle) needs a next-cycle tick; otherwise wakes are
        # event-driven.
        if issued or ready[0] or ready[1] or ready[2]:
            self._issue_wake = 1   # poll next cycle
        else:
            self._issue_wake = 0   # nothing ready
        return issued > 0 or dropped > 0

    def _issue_inorder(self, now: int) -> None:
        """Issue strictly in program order; stall at the first instruction
        whose operands are not ready (the paper's in-order model)."""
        shared = self.shared
        if shared is None:
            slots = self._issue_width
            fu = self._fu_template.copy()
        else:
            # The shared pool itself: units a context consumes are gone
            # for its siblings this cycle.
            slots = shared.issue_slots
            fu = shared.fu
        window = self._window
        head = window[0].seq if window else self._next_seq
        live = len(window)
        seq = self._inorder_ptr
        issued = 0
        self._issue_wake = 0
        while slots > 0:
            i = seq - head
            if i < 0:
                seq = head  # skip entries that retired unissued (fences)
                self._inorder_ptr = seq
                continue
            if i >= live:
                break  # nothing fetched yet
            entry = window[i]
            if entry.state in (ST_EXEC, ST_MEMQ, ST_MEMACC, ST_DONE):
                seq += 1
                self._inorder_ptr = seq
                continue
            if entry.state != ST_READY:
                break  # data dependence: in-order issue stalls here
            cls = _FU_CLASS.get(entry.instr[I_OP], 0)
            if fu[cls] <= 0:
                self._issue_wake = 1   # fresh units next cycle
                break
            fu[cls] -= 1
            slots -= 1
            issued += 1
            if shared is not None:
                shared.issue_slots -= 1
            entry.state = ST_EXEC
            entry.done_at = now + entry.instr[I_LATENCY]
            heapq.heappush(self._completions, (entry.done_at, seq, entry))
            seq += 1
            self._inorder_ptr = seq
        if issued:
            self._issue_wake = 1

    # ------------------------------------------------------------------ completion

    def _process_completions(self, now: int) -> None:
        """Finish every execution and memory access due by ``now`` and
        wake the dependents of what became done."""
        completions = self._completions
        window = self._window
        head = window[0].seq if window else 0
        live = len(window)
        memq = self._memq
        sc_mode = self._sc_mode
        ordered = self._ordered
        ready = self._ready if self._out_of_order else None
        heappop, heappush = heapq.heappop, heapq.heappush
        while completions and completions[0][0] <= now:
            _t, seq, entry = heappop(completions)
            state = entry.state
            if state == ST_EXEC:
                op = entry.instr[I_OP]
                if op in _LOAD_OPS or (sc_mode and op in _STORE_OPS):
                    # Address generated; awaits permission to perform.
                    # PC/RC stores are done once their address is ready:
                    # they perform from the store buffer after retirement.
                    entry.state = ST_MEMQ
                    memq.append(seq)
                    continue
                if op == OP_BRANCH:
                    self._unresolved_branches -= 1
                    if entry.bp_outcome:
                        self._fetch_blocked_until = now + MISPREDICT_RESTART
                        self._fetch_block_instr = False
                elif op == OP_PREFETCH:
                    self.memsys.prefetch_data(now, entry.instr[I_ADDR],
                                              exclusive=True,
                                              pc=entry.instr[I_PC])
                    entry.state = ST_DONE
                    continue
                elif op == OP_FLUSH:
                    entry.state = ST_DONE  # effect applied at retirement
                    continue
                entry.state = ST_DONE
            elif state == ST_MEMACC:
                entry.state = ST_DONE
                if ordered:
                    self.consistency.note_complete(seq)
            else:
                continue  # ST_GONE: retired or squashed
            # Wake the dependents (seqs past the window's end were
            # squashed and not refetched yet).
            for dseq in entry.dependents:
                i = dseq - head
                if i >= live:
                    continue
                dep = window[i]
                if dep.pending == 0:
                    continue
                dep.pending -= 1
                if dep.pending == 0 and dep.state == ST_WAIT:
                    dep.state = ST_READY
                    if ready is not None:
                        heappush(ready[_FU_CLASS.get(dep.instr[I_OP], 0)],
                                 (dseq, dep))

    # ------------------------------------------------------------------ memory queue

    def _process_memq(self, now: int) -> bool:
        """Give queued memory ops a chance to perform, in queue order.

        Returns True when the pass changed any state (accesses or lock
        probes attempted, prefetches issued, stale items popped from the
        consistency unit's heap) -- tick uses this to certify no-op
        ticks.  Blocked entries are re-examined without leaving any
        trace: ``retry_at`` is never rewritten on the consistency-blocked
        path (it is already <= now there, and every comparison is
        strict), so polling a blocked queue at different times leaves
        byte-identical machine state.

        Under SC and PC one ordering decision serves the whole pass: no
        memory op completes, dispatches or leaves the window during it,
        so the unit's bound is read once and an op may perform iff its
        seq is at most the bound (speculative loads perform regardless).
        Without speculation a blocked op (``retry_at <= now``) has
        nothing left to do once its prefetch, if any, has issued: it is
        inert until the bound reaches its seq, so it is parked, and
        neither this loop nor tick's wake scan sees it until then.  With
        no rollbacks the bound only grows, and an op that performed was
        at the bound, so between passes the queue holds at most the op
        at the bound plus the ops that joined since the last pass.  An
        op leaving the parked set at the bound therefore goes first:
        every other op that can act in this pass joined the queue after
        it.
        """
        memq = self._memq
        parked = self._parked
        if not memq and not parked:
            return False
        changed = False
        ordered = self._ordered
        if ordered:
            unit = self.consistency
            heap = unit._heap
            stale = len(heap)
            bound = unit.order_bound()
            if len(heap) != stale:
                changed = True  # lazy heap cleanup mutated machine state
            if bound in parked:
                parked.discard(bound)
                memq.insert(0, bound)
            speculative = self._speculative
            load_bound = UNBOUNDED if speculative else bound
            wants_prefetch = unit.wants_prefetch
        if not memq:
            return changed
        window = self._window
        head = window[0].seq
        memsys = self.memsys
        completions = self._completions
        still_queued: List[int] = []
        for seq in memq:
            entry = window[seq - head]
            if entry.retry_at > now:
                still_queued.append(seq)
                continue
            instr = entry.instr
            op = instr[I_OP]
            if ordered and \
                    seq > (load_bound if op in _LOAD_OPS else bound):
                if wants_prefetch and not entry.prefetched:
                    memsys.prefetch_data(
                        now, instr[I_ADDR],
                        exclusive=op in _EXCLUSIVE_OPS, pc=instr[I_PC])
                    entry.prefetched = True
                    changed = True
                # Consistency-blocked: the op becomes performable only
                # when older memory ops complete, so the next completion
                # event (not per-cycle polling) wakes the core.  Without
                # speculation it is inert until the bound reaches it.
                if speculative:
                    still_queued.append(seq)
                else:
                    parked.add(seq)
                continue
            changed = True  # lock probe / memory access attempted
            if op == OP_LOCK_ACQ:
                holder = self.lock_table.get(instr[I_ADDR])
                if holder is not None and holder != self.process.pid:
                    entry.retry_at = now + LOCK_SPIN_INTERVAL
                    still_queued.append(seq)
                    continue
                self.lock_table[instr[I_ADDR]] = self.process.pid
            result = memsys.access_data(now, instr[I_ADDR],
                                        op in _EXCLUSIVE_OPS, instr[I_PC])
            if result.stalled:
                entry.retry_at = result.retry_at
                if op == OP_LOCK_ACQ:
                    # Retry the whole acquire; drop the provisional grab.
                    if self.lock_table.get(instr[I_ADDR]) == \
                            self.process.pid:
                        del self.lock_table[instr[I_ADDR]]
                still_queued.append(seq)
                continue
            entry.state = ST_MEMACC
            done_at = result.done_at
            entry.done_at = done_at
            entry.category = READ_DTLB if result.tlb_miss \
                else _CAT_TO_READ[result.category]
            heapq.heappush(completions, (done_at, seq, entry))
            if ordered and op == OP_LOAD and seq > bound:
                # Performed above the bound: speculative.
                line = memsys.page_table.translate_line(
                    instr[I_ADDR], memsys.line_shift)
                unit.note_speculative_load(seq, line)
        self._memq = still_queued
        return changed

    # ------------------------------------------------------------------ retire

    def _retire(self, now: int) -> None:
        width = self._issue_width
        shared = self.shared
        if shared is not None:
            width = min(width, shared.retire_slots)
        retired = 0
        stall_category: Optional[int] = None
        window = self._window
        ordered = self._ordered
        last_seq = -1
        while retired < width:
            if not window:
                if now < self._fetch_blocked_until:
                    stall_category = INSTR if self._fetch_block_instr \
                        else CPU_STALL
                else:
                    stall_category = CPU_STALL
                break
            entry = window[0]
            if entry.state != ST_DONE:
                stall_category = self._classify_stall(entry)
                break
            op = entry.instr[I_OP]
            if op in _RETIRE_OPS:
                if op == OP_MB and not self.storebuf.empty:
                    stall_category = SYNC
                    break
                if op in _STORE_OPS and not self._sc_mode:
                    if op == OP_LOCK_REL:
                        self.lock_table.pop(entry.instr[I_ADDR], None)
                    if not self.storebuf.push_store(entry.instr[I_ADDR],
                                                    entry.instr[I_PC]):
                        stall_category = WRITE
                        break
                elif op == OP_LOCK_REL:  # SC: already performed in order
                    self.lock_table.pop(entry.instr[I_ADDR], None)
                elif op == OP_WMB:
                    self.storebuf.push_barrier()
                elif op == OP_FLUSH:
                    self.memsys.flush_line(now, entry.instr[I_ADDR])
            window.popleft()
            entry.state = ST_GONE
            last_seq = entry.seq
            if op in _MEMQ_OPS:
                self._mem_inflight -= 1
                if ordered:
                    # Only memory ops are ever noted by the unit.
                    self.consistency.note_removed(last_seq)
            retired += 1
            if shared is not None:
                shared.retire_slots -= 1
            if op == OP_SYSCALL:
                self.syscall_retired = True
                break
        cycles = self.stats.cycles
        if retired:
            # Release the retired prefix of the trace buffer (squashes
            # never rewind past the window head).
            trace = self._trace
            buf = trace._buf
            base = trace._base
            while base <= last_seq and buf:
                buf.popleft()
                base += 1
            trace._base = base
            self.retired += retired
            self.stats.instructions += retired
        # Busy fraction is measured against the full machine width so
        # SMT contexts' breakdowns sum like the paper's per-CPU bars.
        machine_width = self._issue_width
        cycles[BUSY] += retired / machine_width
        if retired < machine_width and stall_category is not None:
            cycles[stall_category] += 1.0 - retired / machine_width
            self._gap_category = stall_category
        else:
            self._gap_category = CPU_STALL

    def _classify_stall(self, entry: WindowEntry) -> int:
        op = entry.instr[I_OP]
        if op in (OP_LOCK_ACQ, OP_LOCK_REL, OP_MB, OP_WMB):
            return SYNC
        if entry.state == ST_MEMACC:
            return WRITE if op == OP_STORE else entry.category
        if entry.state == ST_MEMQ:
            return WRITE if op == OP_STORE else READ_L1
        if op == OP_LOAD:
            return READ_L1  # address generation / restart: "L1 + misc"
        if op == OP_STORE:
            return WRITE
        return CPU_STALL

    # ------------------------------------------------------------------ squash

    def _squash_from(self, seq: int, now: int, penalty: int) -> None:
        """Remove all entries with seq >= ``seq`` and refetch from there."""
        window = self._window
        ordered = self._ordered
        parked = self._parked
        outcomes = self._trace._outcomes
        while window and window[-1].seq >= seq:
            entry = window.pop()
            op = entry.instr[I_OP]
            if op in _MEMQ_OPS:
                self._mem_inflight -= 1
            if ordered:
                self.consistency.note_removed(entry.seq)
                parked.discard(entry.seq)
            if op == OP_BRANCH:
                outcomes[entry.seq] = entry.bp_outcome
                if entry.state != ST_DONE:
                    self._unresolved_branches -= 1
            entry.state = ST_GONE
        self._memq = [s for s in self._memq if s < seq]
        self._next_seq = seq
        self._inorder_ptr = min(self._inorder_ptr, seq)
        self._fetch_blocked_until = now + penalty
        self._fetch_block_instr = False
        self._cur_fetch_line = -1
        # Ready/completion heaps are cleaned lazily: their items name
        # ST_GONE entries now, and pops drop them.  Surviving producers'
        # ``dependents`` keep the squashed seqs, so a refetched consumer
        # is woken once per registration (a known model defect, pinned by
        # tests/test_core_details.py).  Keep the heaps lazy too: squashed
        # entries' completion times stay in _completions and feed the
        # tick's wake, and through it the global grid of Machine.run.
        # A store pushed into the store buffer at retire issues at the
        # next grid point (that tick's wake was computed before the
        # push), so stale completion times are load-bearing: purging
        # them here changes results until that model defect is fixed.

    def _on_line_removed(self, line: int) -> None:
        """Invalidation/replacement hook: speculative-load violations."""
        seq = self.consistency.check_violation(line)
        if seq is None:
            return
        if self._rollback_to is None or seq < self._rollback_to:
            self._rollback_to = seq

    def apply_pending_rollback(self, now: int) -> None:
        """Called by the machine after memory activity each cycle."""
        if self._rollback_to is None:
            return
        seq = self._rollback_to
        self._rollback_to = None
        window = self._window
        if not window or not 0 <= seq - window[0].seq < len(window):
            return  # retired or squashed meanwhile
        self._squash_from(seq, now, penalty=ROLLBACK_RESTART)
