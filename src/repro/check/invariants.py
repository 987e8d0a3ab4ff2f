"""Runtime invariant sanitizer for the simulated machine.

Validated on every transition while enabled (``Tools.check``):

* **Directory well-formedness** -- at most one DIR_EXCLUSIVE owner and
  no sharers alongside it; shared entries have a non-empty sharer set
  and no owner; invalid entries track nobody.
* **Presence agreement** -- any line found in a node's caches is listed
  for that node by the directory (the converse is allowed: a requester
  is registered before its fill completes, and a node may silently drop
  a clean copy).
* **Single writer** -- a dirty copy or a write-permitted line
  (``_writable``) exists only at the exclusive owner.
* **Event-time monotonicity** -- directory transactions never complete
  before they are requested, and a core's next-event time never runs
  backwards (``system/machine.py`` skip-ahead depends on it).
* **FIFO store drain** -- the store buffer never issues a younger store
  before an older one; under PC at most one store is outstanding
  (checked against the *model*, not the configured overlap, so a
  mis-configured buffer is caught); under RC the configured overlap is
  respected.
* **Memory-queue liveness** -- after every tick, each seq in a core's
  memory queue (queued or parked) names a live ``ST_MEMQ`` window
  entry, and no seq is both queued and parked.
* **Memory ordering** -- under SC and PC without speculation, at most
  one ordered op (SC: any memory op; PC: a load) has its access
  outstanding (``ST_MEMACC``), and it is the oldest incomplete ordered
  op in the window.  Derived from the window alone, independently of
  the consistency unit's bound.
* **Speculative-load rollback** -- after an invalidation hits a line
  with in-window speculatively-performed loads, the core must have a
  rollback scheduled at least as old as the oldest such load.
* **Stall-accounting conservation** -- at the end of every
  :meth:`Machine.run`, busy + stall + idle time equals
  ``cores x cycles`` within the tick-granularity tolerance.

The checker attaches by wrapping *bound methods on instances* after the
machine is fully constructed; with ``check`` off nothing is wrapped, so
sanitized runs must produce cycle counts identical to plain runs (the
test suite asserts this).  All checks are read-only: presence probes use
``lookup(touch=False)`` so LRU state is never perturbed.  The checker
holds the machine, and each wrapper the original it calls and the
objects it inspects, only weakly (:func:`~repro.mem.memsys.weak_method`,
``weakref.proxy``), so a sanitized machine, like a plain one, is freed
by reference counting.
"""

from __future__ import annotations

import types
import weakref
from typing import Callable, Optional

from repro.cpu.core import ST_DONE, ST_MEMACC, ST_MEMQ
from repro.mem.coherence import DIR_EXCLUSIVE, DIR_INVALID, DIR_SHARED
from repro.mem.memsys import weak_method
from repro.params import ConsistencyImpl, ConsistencyModel
from repro.trace.instr import I_OP, OP_LOAD, OP_LOCK_ACQ, OP_LOCK_REL, \
    OP_STORE

#: The ops each ordered model performs one at a time, in program order.
ORDERED_OPS = {
    ConsistencyModel.SC: frozenset((OP_LOAD, OP_STORE, OP_LOCK_ACQ,
                                    OP_LOCK_REL)),
    ConsistencyModel.PC: frozenset((OP_LOAD, OP_LOCK_ACQ)),
}


def _weak(method: Callable) -> Callable:
    """``method`` without its hold on its object, if it is a bound
    method; any other callable (a stand-in a test installed on the
    instance) is wrapped as given."""
    if isinstance(method, types.MethodType):
        return weak_method(method)
    return method


class InvariantViolation(AssertionError):
    """A protocol, ordering or accounting invariant failed."""


class InvariantChecker:
    """Wraps one :class:`~repro.system.machine.Machine`'s components and
    raises :class:`InvariantViolation` on the first broken invariant."""

    def __init__(self, machine):
        # Weak: the machine owns the checker (``machine.checker``).
        self.machine = weakref.proxy(machine)
        self.checks = 0
        self.last_violation: Optional[str] = None

    def _fail(self, message: str) -> None:
        self.last_violation = message
        raise InvariantViolation(message)

    # -- attachment ---------------------------------------------------------

    def attach(self) -> None:
        machine = self.machine
        self._wrap_directory(machine.memory)
        for node_id in range(machine.params.n_nodes):
            self._wrap_invalidate_hook(node_id)
        for core in machine.cores:
            self._wrap_tick(core)
            for physical in core.physical_cores():
                self._wrap_drain(physical)

    def _wrap_directory(self, memory) -> None:
        orig_read = _weak(memory.read)
        orig_write = _weak(memory.write)
        orig_flush = _weak(memory.flush)
        orig_writeback = _weak(memory.writeback)
        orig_evict = _weak(memory.evict_clean)
        check_line = self.check_line

        def read(node, line, now, pc=0):
            done, svc, excl = orig_read(node, line, now, pc)
            if done < now:
                self._fail(f"line {line:#x}: read completion {done} "
                           f"precedes request time {now}")
            check_line(line)
            return done, svc, excl

        def write(node, line, now, pc=0):
            done, svc = orig_write(node, line, now, pc)
            if done < now:
                self._fail(f"line {line:#x}: write completion {done} "
                           f"precedes request time {now}")
            check_line(line)
            return done, svc

        def flush(node, line, now):
            orig_flush(node, line, now)
            # The issuing node cleans its cached copy only after this
            # transaction returns; skip cache-side checks for one call.
            check_line(line, include_caches=False)

        def writeback(node, line, now):
            orig_writeback(node, line, now)
            check_line(line)

        def evict_clean(node, line):
            orig_evict(node, line)
            check_line(line)

        memory.read = read
        memory.write = write
        memory.flush = flush
        memory.writeback = writeback
        memory.evict_clean = evict_clean

    def _wrap_invalidate_hook(self, node_id: int) -> None:
        machine = self.machine
        hooks = machine.memory.invalidate_hooks
        orig = hooks[node_id]
        if orig is None:  # pragma: no cover - nodes always register
            return

        def invalidate(line: int) -> None:
            orig(line)
            self.checks += 1
            node = machine.nodes[node_id]
            core = machine.cores[node_id]
            if (node.l1d.lookup(line, touch=False)
                    or node.l2.lookup(line, touch=False)
                    or node.l1i.lookup(line, touch=False)):
                self._fail(f"line {line:#x}: node {node_id} still caches "
                           f"it after an invalidation")
            if line in node._writable:
                self._fail(f"line {line:#x}: node {node_id} keeps write "
                           f"permission after an invalidation")
            for physical in core.physical_cores():
                group = physical.consistency._spec_by_line.get(line)
                if group:
                    rollback = physical._rollback_to
                    if rollback is None or rollback > min(group):
                        self._fail(
                            f"line {line:#x}: speculative load seq "
                            f"{min(group)} at node {node_id} survived an "
                            f"invalidation without a rollback")

        hooks[node_id] = invalidate

    def _wrap_tick(self, core) -> None:
        orig = _weak(core.tick)
        cpu = core.cpu_id
        physical_cores = [weakref.proxy(physical)
                          for physical in core.physical_cores()]
        check_queue = self.check_memory_queue

        def tick(now: int) -> int:
            t = orig(now)
            self.checks += 1
            if t < now:
                self._fail(f"core {cpu}: next-event time {t} runs "
                           f"backwards from cycle {now}")
            for physical in physical_cores:
                check_queue(physical)
            return t

        core.tick = tick

    def _wrap_drain(self, physical) -> None:
        buffer = weakref.proxy(physical.storebuf)
        orig = _weak(physical.storebuf.drain)
        model = physical.consistency.model
        cpu = physical.cpu_id

        def drain(now: int):
            ret = orig(now)
            self.checks += 1
            outstanding = 0
            seen_unissued = False
            for entry in buffer._entries:
                if entry.is_barrier:
                    continue
                if entry.issued:
                    if seen_unissued:
                        self._fail(
                            f"core {cpu}: store buffer issued a younger "
                            f"store before an older one (FIFO violation)")
                    if entry.done_at > now:
                        outstanding += 1
                else:
                    seen_unissued = True
            if model is ConsistencyModel.PC and outstanding > 1:
                self._fail(f"core {cpu}: {outstanding} overlapping stores "
                           f"under PC (stores must drain one at a time)")
            if outstanding > buffer.overlap:
                self._fail(f"core {cpu}: {outstanding} outstanding stores "
                           f"exceed the configured overlap "
                           f"{buffer.overlap}")
            return ret

        buffer.drain = drain

    # -- per-core memory-queue checks ----------------------------------------

    def check_memory_queue(self, core) -> None:
        """Queue liveness, and the ordering rule of non-speculative SC
        and PC, on one physical core after its tick."""
        self.checks += 1
        window = core._window
        queued = core._memq
        parked = core._parked
        if queued or parked:
            head = window[0].seq if window else core._next_seq
            for seq in (*queued, *parked):
                i = seq - head
                if not 0 <= i < len(window) or \
                        window[i].state != ST_MEMQ:
                    self._fail(f"core {core.cpu_id}: memory-queue seq "
                               f"{seq} names no live queued entry")
            both = parked.intersection(queued)
            if both:
                self._fail(f"core {core.cpu_id}: seqs {sorted(both)} are "
                           f"both queued and parked")
        unit = core.consistency
        if unit.model is ConsistencyModel.RC or \
                unit.impl is ConsistencyImpl.SPECULATIVE:
            return
        ordered_ops = ORDERED_OPS[unit.model]
        oldest = None
        for entry in window:
            if entry.state == ST_DONE or \
                    entry.instr[I_OP] not in ordered_ops:
                continue
            if oldest is None:
                oldest = entry.seq
            elif entry.state == ST_MEMACC:
                self._fail(
                    f"core {core.cpu_id}: {unit.model.name} op seq "
                    f"{entry.seq} performs while older op seq {oldest} "
                    f"is incomplete")

    # -- per-line protocol checks -------------------------------------------

    def check_line(self, line: int, include_caches: bool = True) -> None:
        """Validate the directory entry for ``line`` and its agreement
        with every node's cache/dirty/write-permission state."""
        machine = self.machine
        entry = machine.memory._entries.get(line)
        if entry is None:
            return
        self.checks += 1
        n = machine.params.n_nodes
        if entry.state == DIR_EXCLUSIVE:
            if not 0 <= entry.owner < n:
                self._fail(f"line {line:#x}: exclusive with invalid owner "
                           f"{entry.owner}")
            if entry.sharer_mask:
                self._fail(f"line {line:#x}: exclusive at node "
                           f"{entry.owner} but sharers "
                           f"{sorted(entry.sharers)} remain registered")
        elif entry.state == DIR_SHARED:
            if entry.owner != -1:
                self._fail(f"line {line:#x}: shared but owner field still "
                           f"{entry.owner}")
            if not entry.sharer_mask:
                self._fail(f"line {line:#x}: shared with an empty sharer "
                           f"set")
            if entry.sharer_mask >> n:
                bad = [s for s in sorted(entry.sharers) if s >= n]
                self._fail(f"line {line:#x}: sharer ids {bad} out of range")
        elif entry.state == DIR_INVALID:
            if entry.sharer_mask:
                self._fail(f"line {line:#x}: invalid but sharers "
                           f"{sorted(entry.sharers)} remain registered")
        else:
            self._fail(f"line {line:#x}: unknown directory state "
                       f"{entry.state}")
        if not include_caches:
            return
        for node_id, node in enumerate(machine.nodes):
            member = ((entry.state == DIR_EXCLUSIVE
                       and entry.owner == node_id)
                      or (entry.state == DIR_SHARED
                          and entry.sharer_mask >> node_id & 1))
            if not member:
                if (node.l2.lookup(line, touch=False)
                        or node.l1d.lookup(line, touch=False)
                        or node.l1i.lookup(line, touch=False)):
                    self._fail(f"line {line:#x}: cached at node {node_id} "
                               f"but the directory does not list that "
                               f"node")
            owner_here = (entry.state == DIR_EXCLUSIVE
                          and entry.owner == node_id)
            if not owner_here:
                if node.line_dirty(line):
                    self._fail(f"line {line:#x}: dirty at node {node_id} "
                               f"without exclusive ownership")
                if line in node._writable:
                    self._fail(f"line {line:#x}: write-permitted at node "
                               f"{node_id} without exclusive ownership")

    # -- end-of-run accounting ----------------------------------------------

    def check_run_end(self) -> None:
        """Stall-accounting conservation: busy + stall + idle time must
        equal ``cores x cycles`` for the measured window."""
        machine = self.machine
        if machine.params.processor.smt_contexts > 1:
            return  # contexts share one pipeline; accounting overlaps
        self.checks += 1
        cycles = machine.now - machine._measure_started_at
        if cycles <= 0:
            return
        n = machine.params.n_nodes
        accounted = sum(machine.breakdown().cycles)
        expected = cycles * n
        # The final skip-ahead may advance the clock past the last ticked
        # cycle, so allow one maximum-latency jump per core on top of the
        # 2% per-tick fractional tolerance used by `repro validate`.
        tolerance = max(400 * n, 0.02 * expected)
        if abs(accounted - expected) > tolerance:
            self._fail(f"stall accounting leaks time: {accounted:.0f} "
                       f"core-cycles accounted vs {expected} elapsed "
                       f"({n} cores x {cycles} cycles)")
