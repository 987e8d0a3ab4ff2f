"""Simultaneous multithreading (SMT) extension (paper section 5).

The paper contrasts its intra-thread ILP results with Lo et al. [13],
who ran the same workloads on a simultaneous multithreaded processor and
found large gains for OLTP (up to 3x) because multiple hardware contexts
hide the memory stalls that defeat single-thread ILP.

:class:`SmtCore` realizes that design point on top of this simulator:
``n`` hardware contexts, each a :class:`~repro.cpu.core.ProcessorCore`
with a statically partitioned instruction window, sharing one node
memory system and per-cycle fetch/issue/retire bandwidth and functional
units through a :class:`SharedPipeline`.

The benchmark ``bench_smt.py`` reproduces the comparison: SMT helps OLTP
far more than DSS, because OLTP's stalls leave the shared pipeline idle
for other contexts to use.
"""

from __future__ import annotations

import dataclasses
from typing import List

from repro.cpu.core import FAR_FUTURE, ProcessorCore
from repro.mem.memsys import NodeMemorySystem
from repro.params import SystemParams
from repro.stats.breakdown import ExecutionBreakdown


class SharedPipeline:
    """Per-cycle execution bandwidth shared by all contexts of one core.

    Budgets are replenished at the first consumption of each new cycle;
    contexts draw fetch slots, issue slots, functional units, and retire
    slots from the same pools, so a stalled context's bandwidth is
    available to the others -- the essence of SMT.
    """

    def __init__(self, params: SystemParams):
        proc = params.processor
        self._issue_width = proc.issue_width
        self._fus = [proc.int_alus, proc.fp_alus, proc.addr_gen_units]
        self._infinite = proc.infinite_functional_units
        self.cycle = -1
        self.fetch_slots = 0
        self.issue_slots = 0
        self.retire_slots = 0
        self.fu = [0, 0, 0]

    def refresh(self, now: int) -> None:
        if self.cycle == now:
            return
        self.cycle = now
        self.fetch_slots = self._issue_width
        self.issue_slots = self._issue_width
        self.retire_slots = self._issue_width
        big = 1 << 30
        self.fu = [big] * 3 if self._infinite else list(self._fus)


class SmtCore:
    """``n`` hardware contexts multiplexed over one pipeline.

    Presents the same interface to :class:`~repro.system.machine.Machine`
    as a single :class:`ProcessorCore`, plus multi-context process
    management (``free_slots`` / ``blocked_processes``).
    """

    def __init__(self, cpu_id: int, params: SystemParams,
                 memsys: NodeMemorySystem, lock_table: dict):
        self.cpu_id = cpu_id
        self.params = params
        self.memsys = memsys
        n = params.processor.smt_contexts
        per_context = max(
            params.processor.issue_width,
            params.processor.window_size // n)
        context_params = params.replace(
            processor=dataclasses.replace(params.processor,
                                          window_size=per_context))
        self.shared = SharedPipeline(params)
        self.contexts: List[ProcessorCore] = []
        for i in range(n):
            core = ProcessorCore(cpu_id, context_params, memsys,
                                 lock_table)
            core.shared = self.shared
            self.contexts.append(core)
        # Coherence violation hook must fan out to every context (each
        # context registered itself only if its model orders memory).
        if memsys.violation_hook is not None:
            memsys.violation_hook = self._on_line_removed

    # -- aggregate accessors (Machine interface) ---------------------------

    @property
    def retired(self) -> int:
        return sum(ctx.retired for ctx in self.contexts)

    @property
    def stats(self) -> ExecutionBreakdown:
        return ExecutionBreakdown.merged(ctx.stats for ctx in self.contexts)

    @property
    def bpred(self):
        return self.contexts[0].bpred

    @property
    def process(self):
        """Non-None if any context is occupied (Machine idle check)."""
        for ctx in self.contexts:
            if ctx.process is not None:
                return ctx.process
        return None

    @property
    def syscall_retired(self) -> bool:
        return any(ctx.syscall_retired for ctx in self.contexts)

    def free_slots(self) -> int:
        return sum(1 for ctx in self.contexts if ctx.process is None)

    def assign_process(self, process, now: int, switch_cost: int = 0
                       ) -> None:
        for ctx in self.contexts:
            if ctx.process is None:
                ctx.assign_process(process, now, switch_cost)
                return
        raise RuntimeError("no free SMT context")

    def blocked_processes(self, now: int):
        """Preempt and return every context that retired a syscall."""
        out = []
        for ctx in self.contexts:
            if ctx.syscall_retired:
                ctx.syscall_retired = False
                process = ctx.preempt(now)
                if process is not None:
                    out.append(process)
        return out

    def preempt(self, now: int):
        """Machine compatibility: preempt the first occupied context."""
        for ctx in self.contexts:
            if ctx.process is not None:
                return ctx.preempt(now)
        return None

    # -- execution ----------------------------------------------------------

    # True iff every context's most recent tick() was a no-op, in which
    # case the whole-core tick only refreshed the (unconsumed) shared
    # pools -- which settle() reproduces at the skipped-to cycle.
    tick_quiet = False

    def tick(self, now: int) -> int:
        self.shared.refresh(now)
        next_event = FAR_FUTURE
        quiet = True
        for ctx in self.contexts:
            t = ctx.tick(now)
            if t < next_event:
                next_event = t
            if not ctx.tick_quiet:
                quiet = False
        self.tick_quiet = quiet
        return next_event

    def settle(self, now: int) -> None:
        """Bring a skipped core's accounting and shared-pool state up to
        ``now`` (see ProcessorCore.settle).  Quiet contexts consume no
        shared bandwidth, so refreshing the pools at ``now`` reproduces
        the end-of-run pipeline state of ticking every cycle exactly."""
        self.shared.refresh(now)
        for ctx in self.contexts:
            ctx.settle(now)

    def apply_pending_rollback(self, now: int) -> None:
        for ctx in self.contexts:
            ctx.apply_pending_rollback(now)

    @property
    def _rollback_to(self):
        for ctx in self.contexts:
            if ctx._rollback_to is not None:
                return ctx._rollback_to
        return None

    def _on_line_removed(self, line: int) -> None:
        for ctx in self.contexts:
            ctx._on_line_removed(line)

    def physical_cores(self):
        return list(self.contexts)

    def reset_stats(self) -> None:
        for ctx in self.contexts:
            ctx.stats.reset()
