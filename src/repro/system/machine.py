"""The simulated CC-NUMA multiprocessor (paper section 2.4).

A :class:`Machine` ties together one :class:`ProcessorCore` + node memory
system per node, the global page table, mesh network, directory-based
coherent memory, the shared lock table (lock values live in the simulated
environment -- paper section 2.2), and the per-CPU schedulers.

The main loop is cycle-driven with event skip-ahead: when every core
reports that nothing can happen before some future cycle, the clock jumps
there and the skipped cycles are charged to each core's current stall
category, preserving the paper's accounting convention at a fraction of
the simulation cost.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence

from repro.cpu.core import (
    FAR_FUTURE,
    ST_MEMACC,
    ST_MEMQ,
    ProcessorCore,
)
from repro.cpu.smt import SmtCore
from repro.mem.coherence import CoherentMemory
from repro.mem.interconnect import MeshNetwork
from repro.mem.memsys import NodeMemorySystem
from repro.mem.tlb import PageTable
from repro.params import SystemParams
from repro.stats.breakdown import ExecutionBreakdown
from repro.stats.mshr import MshrOccupancyGroup
from repro.system.process import Process
from repro.system.scheduler import CpuScheduler
from repro.trace.instr import OP_LOCK_ACQ, OP_NAMES

#: Exclusive-ownership transfers on a single line, with no instruction
#: retiring anywhere, before the watchdog calls it a coherence livelock.
LIVELOCK_TRANSFERS = 8


class DeadlockError(RuntimeError):
    """The simulation cannot make progress (indicates a modelling bug)."""


class WedgeError(RuntimeError):
    """The forward-progress watchdog tripped: no instruction retired for
    the configured number of cycles (``SystemParams.watchdog_cycles`` /
    ``watchdog_node_cycles``).  Carries a structured classification so
    crash-triage bundles and ``repro replay`` can report the wedge kind
    without parsing the message."""

    def __init__(self, kind: str, cycle: int, node: Optional[int] = None,
                 line: Optional[int] = None, retired: int = 0,
                 detail: str = ""):
        self.kind = kind
        self.cycle = cycle
        self.node = node
        self.line = line
        self.retired = retired
        self.detail = detail
        where = "machine-wide" if node is None else f"node {node}"
        super().__init__(
            f"forward-progress watchdog tripped ({where}) at cycle "
            f"{cycle}, {retired} retired: {kind}"
            + (f" -- {detail}" if detail else ""))

    def to_dict(self) -> Dict[str, object]:
        return {"kind": self.kind, "cycle": self.cycle, "node": self.node,
                "line": self.line, "retired": self.retired,
                "detail": self.detail}


class Machine:
    """A complete simulated multiprocessor running a set of processes."""

    def __init__(self, params: SystemParams,
                 generators: Sequence[Iterator]):
        self.params = params
        n = params.n_nodes
        lines_per_page = params.page_size // params.l2.line_size
        self.page_table = PageTable(params.page_size, n)
        self.mesh = MeshNetwork(n, params.mesh_width if n > 1 else 1)
        self.memory = CoherentMemory(
            params.latencies, self.mesh, lines_per_page,
            migratory_read_speedup=params.migratory_read_speedup,
            migratory_protocol=params.migratory_protocol)
        self.lock_table: Dict[int, int] = {}

        self.l1d_mshr_stats = MshrOccupancyGroup(n, max_n=params.l1d.mshrs)
        self.l2_mshr_stats = MshrOccupancyGroup(n, max_n=params.l2.mshrs)
        self.nodes: List[NodeMemorySystem] = []
        self.cores: List[ProcessorCore] = []
        for node_id in range(n):
            memsys = NodeMemorySystem(
                node_id, params, self.page_table, self.memory,
                l1d_mshr_stats=self.l1d_mshr_stats[node_id],
                l2_mshr_stats=self.l2_mshr_stats[node_id])
            self.nodes.append(memsys)
            if params.processor.smt_contexts > 1:
                self.cores.append(SmtCore(node_id, params, memsys,
                                          self.lock_table))
            else:
                self.cores.append(ProcessorCore(node_id, params, memsys,
                                                self.lock_table))

        # Processes are pinned round-robin (dedicated-mode Oracle keeps the
        # same number of server processes per CPU).
        self.schedulers = [CpuScheduler(i) for i in range(n)]
        self.processes: List[Process] = []
        for pid, gen in enumerate(generators):
            process = Process(pid, gen, cpu=pid % n)
            self.processes.append(process)
            self.schedulers[process.cpu].add(process)

        self.now = 0
        self.idle_cycles = 0
        self._measure_started_at = 0

        # Opt-in runtime sanitizer (repro.check).  Attached last so it
        # wraps fully-constructed components; with ``check`` off nothing
        # is wrapped and the simulator runs the exact same code.
        self.checker = None
        if params.check:
            from repro.check.invariants import InvariantChecker
            self.checker = InvariantChecker(self)
            self.checker.attach()

    # ---------------------------------------------------------------- schedule

    def _dispatch_if_idle(self, cpu: int) -> None:
        core = self.cores[cpu]
        for _ in range(core.free_slots()):
            process = self.schedulers[cpu].pick_ready(self.now)
            if process is None:
                return
            core.assign_process(
                process, self.now,
                switch_cost=self.params.scheduler.context_switch_cycles)

    def _handle_syscall(self, cpu: int) -> None:
        core = self.cores[cpu]
        for process in core.blocked_processes(self.now):
            process.block(self.now
                          + self.params.scheduler.blocking_io_cycles)
            self.schedulers[cpu].add(process)
        self._dispatch_if_idle(cpu)

    # ---------------------------------------------------------------- main loop

    def total_retired(self) -> int:
        return sum(core.retired for core in self.cores)

    def run(self, instructions: int, max_cycles: int = 1 << 40) -> int:
        """Simulate until ``instructions`` more retire (across all cores).

        Returns the number of cycles elapsed during this call.

        The loop walks a grid of cycle numbers: each step jumps to the
        earliest cycle at which any core reports it can make progress.
        At a grid point a core is ticked only when it is *due*: (a) its
        previous tick was not certified as a no-op (``tick_quiet``),
        (b) its reported wake cycle has arrived, (c) it took a rollback
        squash, or (d) the scheduler can seat a process on a free slot.
        A skipped core is brought up to date by gap crediting inside its
        next real tick (or by ``settle()`` at exit): each skipped cycle
        charges 1.0 cycle to the core's unchanged stall category, exactly
        what ticking it there would have charged.

        Sanitized runs (``params.check``) walk the same grid with
        certification off: every core is due at every grid point and is
        stepped through the same ``tick``, which the invariant checker
        wraps.  Because every wake a skipped core contributes to the
        grid is the value its own tick would have returned, both modes
        visit the same grid -- every cycle count, stall breakdown,
        watchdog trip and machine state is byte-identical.

        Scheduler-wake invariant: only dispatch (``_dispatch_if_idle``)
        and syscall handling (``_handle_syscall``) change a run queue or
        a process's ``blocked_until`` -- a core's tick never does.  So
        each cpu's earliest scheduler wake is cached and recomputed only
        after one of those two calls on that cpu, and dispatch is tried
        only when the core has a free slot (no process, or SMT).
        """
        target = self.total_retired() + instructions
        start_cycle = self.now
        deadline = self.now + max_cycles
        cores = self.cores
        schedulers = self.schedulers
        dispatch_if_idle = self._dispatch_if_idle
        handle_syscall = self._handle_syscall
        indexed_cores = list(enumerate(cores))
        now = self.now
        smt = self.params.processor.smt_contexts > 1
        certify = self.checker is None
        # Each core's step function, bound once per call (under the
        # sanitizer that is the checker's per-instance wrapper).
        stepped = [(cpu, core, core.tick) for cpu, core in indexed_cores]
        # Flat per-core event state, indexed by cpu: the last wake each
        # core reported, whether that wake is certified (the core may be
        # skipped until then), the retired count last observed (for an
        # incremental machine-wide total), and the cached earliest wake
        # of each scheduler (refreshed only after dispatch or syscall
        # handling on that cpu -- see the docstring).
        wake = [now] * len(cores)
        quiet = [False] * len(cores)
        retired_seen = [core.retired for core in cores]
        sched_wake = [s.earliest_wake() for s in schedulers]
        total_now = sum(retired_seen)
        last_step = -1
        # Forward-progress watchdog (off by default: one extra branch per
        # iteration).  Its bookkeeping lives in run()-locals.
        wd_global = self.params.watchdog_cycles
        wd_node = self.params.watchdog_node_cycles
        wd_on = wd_global > 0 or wd_node > 0
        if wd_on:
            if self.memory._ping is None:
                self.memory._ping = {}
            ping = self.memory._ping
            wd_total = total_now
            wd_cycle = now
            wd_node_retired = list(retired_seen)
            wd_node_cycle = [now] * len(cores)
        while True:
            if total_now >= target:
                break
            if wd_on:
                if total_now != wd_total:
                    wd_total = total_now
                    wd_cycle = now
                    ping.clear()
                elif wd_global and now - wd_cycle >= wd_global:
                    raise self._classify_wedge(now, node=None)
                if wd_node:
                    for cpu, core in indexed_cores:
                        r = retired_seen[cpu]
                        if r != wd_node_retired[cpu] or core.process is None:
                            wd_node_retired[cpu] = r
                            wd_node_cycle[cpu] = now
                        elif now - wd_node_cycle[cpu] >= wd_node:
                            raise self._classify_wedge(now, node=cpu)
            if now >= deadline:
                raise DeadlockError(
                    f"exceeded {max_cycles} cycles at "
                    f"{self.total_retired()} retired instructions")
            last_step = now
            next_time = FAR_FUTURE
            for cpu, core, step in stepped:
                if quiet[cpu] and wake[cpu] > now:
                    w = sched_wake[cpu]
                    if w is None or w > now:
                        seat = False
                    elif smt:
                        seat = core.free_slots() > 0
                    else:
                        seat = core.process is None
                    if not seat:
                        t = wake[cpu]
                        if t < next_time:
                            next_time = t
                        continue
                if smt or core.process is None:
                    dispatch_if_idle(cpu)
                    sched_wake[cpu] = schedulers[cpu].earliest_wake()
                t = step(now)
                if core.syscall_retired:
                    handle_syscall(cpu)
                    sched_wake[cpu] = schedulers[cpu].earliest_wake()
                    t = now + 1
                    quiet[cpu] = False
                else:
                    quiet[cpu] = certify and core.tick_quiet
                wake[cpu] = t
                r = core.retired
                if r != retired_seen[cpu]:
                    total_now += r - retired_seen[cpu]
                    retired_seen[cpu] = r
                if t < next_time:
                    next_time = t
            for cpu, core in indexed_cores:
                if core._rollback_to is not None:
                    core.apply_pending_rollback(now)
                    quiet[cpu] = False  # squashed state invalidates the wake
                # Idle CPUs wake when a blocked process becomes ready.
                if core.process is None:
                    w = sched_wake[cpu]
                    if w is not None:
                        candidate = w if w > now else now + 1
                        if candidate < next_time:
                            next_time = candidate
            if next_time >= FAR_FUTURE:
                raise DeadlockError(
                    f"no core can make progress at cycle {now}")
            now = next_time if next_time > now else now + 1
            self.now = now
        # Bring skipped cores' accounting up to the last grid point, as
        # if each had been ticked there (a no-op for cores that were).
        if last_step >= 0:
            for core in cores:
                core.settle(last_step)
        if self.checker is not None:
            self.checker.check_run_end()
        return now - start_cycle

    # ---------------------------------------------------------------- watchdog

    def _classify_wedge(self, now: int, node: Optional[int]) -> WedgeError:
        """Build a classified WedgeError: coherence livelock (ownership
        ping-pong on one line) > head-of-ROB memory stall > empty-ROB
        fetch stall > unknown."""
        retired = self.total_retired()
        ping = self.memory._ping or {}
        if ping:
            # Hottest line; ties broken toward the lowest line number so
            # the classification is deterministic.
            line = max(ping, key=lambda ln: (ping[ln], -ln))
            if ping[line] >= LIVELOCK_TRANSFERS:
                return WedgeError(
                    "coherence-livelock", now, node=node, line=line,
                    retired=retired,
                    detail=f"line {line} changed exclusive owner "
                           f"{ping[line]} times with no retirement")
        cpus = list(range(len(self.cores)))
        if node is not None:
            cpus.remove(node)
            cpus.insert(0, node)
        fetch_stall: Optional[WedgeError] = None
        for cpu in cpus:
            for phys in self.cores[cpu].physical_cores():
                if phys.process is None:
                    continue
                if phys._window:
                    head = phys._window[0]
                    if head.state not in (ST_MEMQ, ST_MEMACC):
                        continue
                    op = head.instr.op
                    detail = (f"head of ROB: {OP_NAMES[op]} "
                              f"pc={head.instr.pc:#x} "
                              f"addr={head.instr.addr:#x} "
                              f"state={'memq' if head.state == ST_MEMQ else 'memacc'} "
                              f"retry_at={head.retry_at}")
                    if op == OP_LOCK_ACQ:
                        holder = self.lock_table.get(head.instr.addr)
                        detail += f" (lock held by pid {holder})"
                    return WedgeError("memory-stall", now, node=cpu,
                                      retired=retired, detail=detail)
                elif fetch_stall is None and \
                        now < phys._fetch_blocked_until:
                    until = phys._fetch_blocked_until
                    what = "unresolved branch" if until >= FAR_FUTURE \
                        else f"I-fetch until cycle {until}"
                    fetch_stall = WedgeError(
                        "fetch-stall", now, node=cpu, retired=retired,
                        detail=f"empty window, fetch blocked ({what})")
        if fetch_stall is not None:
            return fetch_stall
        return WedgeError("unknown", now, node=node, retired=retired,
                          detail="no core matched a known wedge signature")

    def trace_consumed(self) -> List[int]:
        """Per-pid count of instructions already pulled from each trace
        source."""
        return [p.trace.consumed for p in self.processes]

    # ---------------------------------------------------------------- statistics

    def reset_stats(self) -> None:
        """Discard warmup-transient statistics (paper section 2.2) while
        keeping all architectural state (caches, directory, predictors)."""
        for core in self.cores:
            core.reset_stats()
        for node in self.nodes:
            node.l1i_accesses = node.l1i_misses = 0
            node.l1d_accesses = node.l1d_misses = 0
            node.l2_accesses = node.l2_misses = 0
            node.itlb.hits = node.itlb.misses = 0
            node.dtlb.hits = node.dtlb.misses = 0
        for core in self.cores:
            for physical in core.physical_cores():
                physical.bpred.predictions = 0
                physical.bpred.mispredictions = 0
        self.l1d_mshr_stats.reset()
        self.l2_mshr_stats.reset()
        self.memory.stats = type(self.memory.stats)()
        self._measure_started_at = self.now

    @property
    def measured_cycles(self) -> int:
        return self.now - self._measure_started_at

    def breakdown(self) -> ExecutionBreakdown:
        """Aggregate execution-time breakdown across all cores."""
        return ExecutionBreakdown.merged(core.stats for core in self.cores)

    def miss_rates(self) -> Dict[str, float]:
        def rate(misses: int, accesses: int) -> float:
            return misses / accesses if accesses else 0.0
        l1i = rate(sum(x.l1i_misses for x in self.nodes),
                   sum(x.l1i_accesses for x in self.nodes))
        l1d = rate(sum(x.l1d_misses for x in self.nodes),
                   sum(x.l1d_accesses for x in self.nodes))
        l2 = rate(sum(x.l2_misses for x in self.nodes),
                  sum(x.l2_accesses for x in self.nodes))
        return {"l1i": l1i, "l1d": l1d, "l2": l2}

    def misprediction_rate(self) -> float:
        physical = [p for core in self.cores
                    for p in core.physical_cores()]
        predictions = sum(c.bpred.predictions for c in physical)
        mispredictions = sum(c.bpred.mispredictions for c in physical)
        return mispredictions / predictions if predictions else 0.0
