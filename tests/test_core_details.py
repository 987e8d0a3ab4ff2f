"""Detailed core-pipeline tests: trace buffer, squash, structural
limits, per-FU-class issue, the partial-squash wake."""

import dataclasses
import heapq
import itertools
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.workloads import dss_workload
from repro.cpu.core import (
    _FU_CLASS,
    ST_DONE,
    ST_EXEC,
    ST_GONE,
    ST_MEMACC,
    ST_READY,
    ST_WAIT,
    WindowEntry,
)
from repro.params import default_system
from repro.system.machine import Machine
from repro.trace.instr import (
    BR_COND,
    I_LATENCY,
    I_OP,
    OP_BRANCH,
    OP_FP,
    OP_INT,
    OP_LOAD,
    OP_MB,
    OP_STORE,
    OP_WMB,
    Instruction,
)

CODE = 0x0100_0000
DATA = 0x2000_0000


def alu(pc, deps=()):
    return Instruction(OP_INT, pc, deps=tuple(deps))


def fresh_alus(n=100):
    """An endless ALU loop of ``n`` pcs, a new Instruction object per
    record (so identity shows whether a refetch came from the buffer)."""
    return (alu(CODE + 4 * (i % n)) for i in itertools.count())


def seated_core(stream):
    """The one core of a single-node machine, its process seated; tick
    it directly with ``core.tick(now)``."""
    m = Machine(default_system(n_nodes=1, mesh_width=1), [stream])
    m._dispatch_if_idle(0)
    return m.cores[0]


def tick_until(core, now, done, limit=20_000):
    """Tick ``core`` from cycle ``now`` until ``done()``; returns the
    first cycle not yet ticked."""
    stop = now + limit
    while not done():
        assert now < stop, "condition not reached"
        core.tick(now)
        now += 1
    return now


class TestTraceBuffer:
    """The core's trace buffer: fetch reads and extends it, a squash
    refetches from it, retirement releases its prefix."""

    def test_sequential_get(self):
        core = seated_core(fresh_alus())
        tick_until(core, 0, lambda: core.retired >= 20)
        trace = core._trace
        assert core._window
        for entry in core._window:
            assert entry.instr.pc == CODE + 4 * (entry.seq % 100)
            assert entry.instr is trace._buf[entry.seq - trace._base]

    def test_rewind_before_release(self):
        core = seated_core(fresh_alus())
        now = tick_until(core, 0, lambda: len(core._window) >= 8)
        head = core._window[0].seq
        before = {entry.seq: entry.instr for entry in core._window}
        core._squash_from(head + 1, now, penalty=0)
        tick_until(core, now, lambda: len(core._window) >= len(before))
        refetched = [e for e in core._window
                     if e.seq > head and e.seq in before]
        assert refetched
        for entry in refetched:
            assert entry.instr is before[entry.seq]  # same object

    def test_release_frees_prefix(self):
        core = seated_core(fresh_alus())
        tick_until(core, 0, lambda: core.retired >= 30)
        trace = core._trace
        # One process from seq 0: the retired prefix is gone and the
        # buffer starts at the window head.
        assert trace._base == core.retired == core._window[0].seq
        assert trace._buf[0] is core._window[0].instr

    def test_get_after_release_of_same_seq_raises_nothing_beyond(self):
        core = seated_core(fresh_alus())
        now = tick_until(core, 0, lambda: core.retired >= 30)
        head = core._window[0]
        core._squash_from(head.seq, now, penalty=0)
        assert not core._window
        tick_until(core, now, lambda: core._window)
        # The released boundary's next seq is still in the buffer.
        assert core._window[0].seq == head.seq
        assert core._window[0].instr is head.instr


#: Branch targets name the branch's seq: ``TAG + seq``.
TAG = 0x4000_0000


def branchy():
    """An endless stream of fresh records: a never-taken conditional
    branch every eighth instruction, its target naming its own seq (the
    predictor ignores conditional targets)."""
    for seq in itertools.count():
        pc = CODE + 4 * (seq % 64)
        if seq % 8 == 7:
            yield Instruction(OP_BRANCH, pc, target=TAG + seq,
                              branch_kind=BR_COND)
        else:
            yield alu(pc)


def observe_counter(core):
    """Count ``bpred.observe`` calls per branch seq."""
    counts = Counter()
    observe = core.bpred.observe

    def counted(pc, kind, taken, target):
        counts[target - TAG] += 1
        return observe(pc, kind, taken, target)
    core.bpred.observe = counted
    return counts


class TestBranchOutcome:
    """A squashed branch keeps its predictor outcome in the trace
    buffer: the refetch reuses it instead of observing the branch
    again."""

    def _in_flight_branches(self, core, now):
        now = tick_until(core, now, lambda: core.retired >= 40 and sum(
            e.instr[I_OP] == OP_BRANCH for e in core._window) >= 2)
        return now, [e.seq for e in core._window
                     if e.instr[I_OP] == OP_BRANCH]

    def test_rollback_refetch_observes_once(self):
        core = seated_core(branchy())
        counts = observe_counter(core)
        now, branches = self._in_flight_branches(core, 0)
        core._rollback_to = branches[0]
        core.apply_pending_rollback(now)
        assert core._next_seq == branches[0]
        assert set(core._trace._outcomes) == set(branches)
        tick_until(core, now, lambda: core.retired > branches[-1])
        assert all(counts[seq] == 1 for seq in branches)
        assert set(counts.values()) == {1}
        assert not core._trace._outcomes  # every saved outcome was reused

    def test_preempt_refetch_observes_once(self):
        core = seated_core(branchy())
        counts = observe_counter(core)
        now, branches = self._in_flight_branches(core, 0)
        process = core.preempt(now)
        assert set(process.trace._outcomes) == set(branches)
        core.assign_process(process, now)
        tick_until(core, now, lambda: core.retired > branches[-1])
        assert all(counts[seq] == 1 for seq in branches)
        assert set(counts.values()) == {1}
        assert not process.trace._outcomes


class TestStructuralLimits:
    def test_window_size_bounds_inflight(self):
        params = default_system(n_nodes=1, mesh_width=1)
        params = params.replace(processor=dataclasses.replace(
            params.processor, window_size=8))
        # A long-latency head load keeps the window full behind it.
        program = [Instruction(OP_LOAD, CODE, addr=DATA, deps=())] + \
            [alu(CODE + 4 + 4 * i) for i in range(63)]
        m = Machine(params, [itertools.cycle(program)])
        m.run(500)
        assert max(len(core._window) for core in m.cores) <= 8

    def test_max_spec_branches_limits_fetch(self):
        params = default_system(n_nodes=1, mesh_width=1)
        params = params.replace(processor=dataclasses.replace(
            params.processor, max_spec_branches=2))
        # Branches that depend on a slow load cannot resolve quickly.
        program = [Instruction(OP_LOAD, CODE, addr=DATA)]
        for i in range(20):
            program.append(Instruction(
                OP_BRANCH, CODE + 4 + 8 * i, deps=(i + 1,),
                taken=False, target=CODE + 8 + 8 * i,
                branch_kind=BR_COND))
            program.append(alu(CODE + 8 + 8 * i))
        m = Machine(params, [itertools.cycle(program)])
        m.run(200, max_cycles=1_000_000)
        core = m.cores[0]
        assert core._unresolved_branches <= 2

    def test_memory_queue_limits_outstanding(self):
        params = default_system(n_nodes=1, mesh_width=1)
        params = params.replace(processor=dataclasses.replace(
            params.processor, mem_queue_size=4))
        program = [Instruction(OP_LOAD, CODE + 4 * i,
                               addr=DATA + 4096 * i) for i in range(64)]
        m = Machine(params, [itertools.cycle(program)])
        m.run(300)
        core = m.cores[0]
        outstanding = len(core._memq) + sum(
            1 for e in core._window if e.state == ST_MEMACC)
        assert outstanding <= 4 + 2  # small slack for same-cycle issue


class TestFences:
    def test_mb_waits_for_store_buffer(self):
        """An MB after stores costs sync time (buffer drain)."""
        params = default_system(n_nodes=1, mesh_width=1)
        stores_mb = []
        for i in range(8):
            stores_mb.append(Instruction(OP_STORE, CODE + 8 * i,
                                         addr=DATA + 4096 * i))
        stores_mb.append(Instruction(OP_MB, CODE + 100))
        stores_mb.extend(alu(CODE + 104 + 4 * i) for i in range(16))
        m = Machine(params, [itertools.cycle(stores_mb)])
        m.run(2000)
        assert m.breakdown().sync > 0

    def _fence_program(self, fence_op):
        program = []
        for i in range(8):
            program.append(Instruction(OP_STORE, CODE + 8 * i,
                                       addr=DATA + 4096 * i))
            program.append(Instruction(fence_op, CODE + 8 * i + 4))
        program.extend(alu(CODE + 200 + 4 * i) for i in range(16))
        return program

    def test_wmb_cheaper_than_mb(self):
        """WMB only orders the write buffer (retirement continues);
        MB stalls retirement until the buffer drains."""
        params = default_system(n_nodes=1, mesh_width=1)
        t_wmb = Machine(params, [itertools.cycle(
            self._fence_program(OP_WMB))]).run(2000)
        t_mb = Machine(params, [itertools.cycle(
            self._fence_program(OP_MB))]).run(2000)
        assert t_wmb <= t_mb

    def test_wmb_orders_buffered_writes(self):
        """Stores separated by WMBs drain serially: slower end-to-end
        than unordered stores -- the fence really orders the buffer."""
        params = default_system(n_nodes=1, mesh_width=1)
        ordered = Machine(params, [itertools.cycle(
            self._fence_program(OP_WMB))])
        t_ordered = ordered.run(2000)
        plain = [i for i in self._fence_program(OP_WMB)
                 if i.op != OP_WMB]
        t_plain = Machine(params, [itertools.cycle(plain)]).run(2000)
        assert t_ordered > t_plain


class TestRollbackMechanics:
    def test_squash_resets_fetch(self):
        params = default_system(n_nodes=1, mesh_width=1)
        m = Machine(params, [itertools.cycle(
            [alu(CODE + 4 * i) for i in range(64)])])
        m.run(500)
        core = m.cores[0]
        head = core._window[0].seq if core._window else core._next_seq
        target = head + 2 if core._window and len(core._window) > 4 \
            else head
        core._squash_from(target, m.now, penalty=5)
        assert core._next_seq == target
        assert all(e.seq < target for e in core._window)
        # Simulation continues cleanly after the squash.
        m.run(500)
        assert m.total_retired() >= 1000


class TestInOrderReadyHeaps:
    def test_inorder_run_leaves_ready_heaps_empty(self):
        """In-order cores issue by walking the window; nothing may feed
        the out-of-order ready heaps (nobody would ever pop them)."""
        params = default_system()
        params = params.replace(processor=dataclasses.replace(
            params.processor, out_of_order=False))
        m = Machine(params, dss_workload().generators(params.n_nodes,
                                                      seed=0))
        m.run(6000)
        assert m.total_retired() >= 6000
        for core in m.cores:
            assert core._ready == [[], [], []]


# ------------------------------------------------------- per-class issue

#: Ops standing for each FU class: int+branch, fp, address generation.
_CLASS_OPS = ((OP_INT, OP_BRANCH), (OP_FP,), (OP_LOAD, OP_STORE))


class _LoggedInstr:
    """Record stand-in that logs when issue reads its latency, so a test
    sees the order in which entries issued."""

    def __init__(self, op, seq, log):
        self.op = op
        self._seq = seq
        self._log = log

    def __getitem__(self, field):
        if field == I_OP:
            return self.op
        assert field == I_LATENCY, field
        self._log.append(self._seq)
        return 1


def _reference_issue(items, fu, slots):
    """The single-heap rule: pop oldest first, drop stale items, skip
    entries whose FU class is used up, stop at the slot limit."""
    issued = []
    for seq, entry in sorted(items, key=lambda item: item[0]):
        if slots == 0:
            break
        if entry.state != ST_READY:
            continue
        cls = _FU_CLASS.get(entry.instr.op, 0)
        if fu[cls] <= 0:
            continue
        fu[cls] -= 1
        slots -= 1
        issued.append(seq)
    return issued, fu, slots


@st.composite
def ready_sets(draw):
    """Live ready entries over the three FU classes plus stale items:
    squashed entries (possibly sharing a live seq) and live entries that
    already left the ready state."""
    seqs = draw(st.lists(st.integers(0, 60), max_size=24, unique=True))
    live = [(seq, draw(st.integers(0, 2)), draw(st.integers(0, 1)))
            for seq in seqs]
    stale = draw(st.lists(
        st.tuples(st.integers(0, 60), st.integers(0, 2),
                  st.integers(0, 1), st.booleans()),
        max_size=12))
    shared = draw(st.booleans())
    fu = draw(st.lists(st.integers(0, 3), min_size=3, max_size=3))
    slots = draw(st.integers(0 if shared else 1, 6))
    return live, stale, shared, fu, slots


class TestPerClassIssue:
    @given(ready_sets())
    @settings(max_examples=300, deadline=None)
    def test_issue_matches_single_heap_rule(self, case):
        live, stale, shared, fu, slots = case
        core = Machine(default_system(n_nodes=1, mesh_width=1),
                       [iter(())]).cores[0]
        log = []
        items = []
        entries = {}
        for seq, cls, pick in live:
            op = _CLASS_OPS[cls][pick % len(_CLASS_OPS[cls])]
            entry = WindowEntry(seq, _LoggedInstr(op, seq, log))
            entry.state = ST_READY
            entries[seq] = entry
            items.append((seq, entry))
        for seq, cls, pick, in_window in stale:
            op = _CLASS_OPS[cls][pick % len(_CLASS_OPS[cls])]
            entry = WindowEntry(seq, _LoggedInstr(op, seq, log))
            if in_window and seq not in entries:
                entry.state = ST_EXEC  # live, but no longer ready
                entries[seq] = entry
            else:
                entry.state = ST_GONE  # squashed: left the window
            items.append((seq, entry))
        expected, expected_fu, expected_slots = _reference_issue(
            items, list(fu), slots)

        core._ready = [[], [], []]
        for seq, entry in items:
            heapq.heappush(core._ready[_FU_CLASS.get(entry.instr.op, 0)],
                           (seq, entry))
        before = sum(len(heap) for heap in core._ready)
        if shared:
            # SMT-style pool: units and slots a sibling may already have
            # used up this cycle.
            pool = SimpleNamespace(issue_slots=slots, fu=list(fu))
            core.shared = pool
        else:
            core._issue_width = slots
            core._fu_template = list(fu)
        changed = core._issue_ooo(now=100)

        assert log == expected
        assert all(entries[seq].state == ST_EXEC for seq in expected)
        if shared:
            assert pool.fu == expected_fu
            assert pool.issue_slots == expected_slots
        else:
            assert core._fu_template == fu  # the template is not consumed
        after = sum(len(heap) for heap in core._ready)
        assert changed == (bool(expected) or after != before)
        left = [entry for heap in core._ready for seq, entry in heap
                if entry.state == ST_READY]
        if left:
            assert core._issue_wake == 1
        if core._issue_wake == 0:
            assert not any(core._ready)
        # No live ready entry is lost: each issued or is still queued.
        assert sorted(entry.seq for entry in left) == sorted(
            seq for seq, entry in entries.items()
            if entry.state == ST_READY)


# ------------------------------------------------ partial-squash wake

class TestPartialSquashWake:
    @pytest.mark.xfail(strict=True, reason=(
        "known model defect: _squash_from leaves the squashed consumer's "
        "seq in a surviving producer's dependents, so the refetched "
        "consumer is woken twice by one producer"))
    def test_refetched_consumer_waits_for_every_producer(self):
        """Loads at seq 0 and 1 in flight, an ALU at seq 2 needing both;
        a squash from seq 2 and a refetch must leave the consumer
        waiting until both loads are done.  Today load 0's completion
        wakes it twice: it leaves ST_WAIT at cycle 454 while load 1 is
        in flight until 464."""
        program = [Instruction(OP_LOAD, CODE, addr=DATA),
                   Instruction(OP_LOAD, CODE + 4, addr=DATA + 0x10000),
                   alu(CODE + 8, deps=(2, 1))] + \
            [alu(CODE + 12 + 4 * i) for i in range(40)]
        core = seated_core(itertools.cycle(program))
        window = core._window
        now = tick_until(core, 0, lambda: len(window) >= 3 and
                         window[0].state == ST_MEMACC and
                         window[1].state == ST_MEMACC)
        core._squash_from(2, now, penalty=0)
        first, second = window[0], window[1]
        now = tick_until(core, now, lambda: len(window) >= 3)
        consumer = window[2]
        assert consumer.seq == 2 and consumer.state == ST_WAIT
        tick_until(core, now, lambda: consumer.state != ST_WAIT)
        # The consumer left ST_WAIT: both producers must be done.
        assert first.state in (ST_DONE, ST_GONE)
        assert second.state in (ST_DONE, ST_GONE)
