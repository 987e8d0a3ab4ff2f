"""Per-layer host-time attribution for the traced benchmark run.

The simulator is measured from outside: :class:`Tracer` wraps the public
entry points of each layer by patching class (and module) attributes in
this process, before any machine is built, and puts every original back
on :meth:`Tracer.uninstall`.  No file of the program changes.

A span is one call of a wrapped function.  Spans nest on a single stack
(everything runs in-process in a traced run), so a layer's *self time*
is the duration of its spans minus the part their child spans cover --
the host-time analogue of the paper charging every simulated cycle to
exactly one stall category.  Spans are aggregated in memory (count,
self time) and reported when the run ends.

Layers, outermost first (the metric prefix is in brackets):

* ``run``        -- ``run_many`` of :mod:`repro.run` [run]
* ``cache_get``  -- ``ResultCache.get`` [run.cache_get_s]
* ``cache_put``  -- ``ResultCache.put`` [run.cache_put_s]
* ``ckpt_save``  -- ``CheckpointStore.save`` [run.checkpoints_written]
* ``system``     -- ``Machine.run``: main loop and scheduler [system]
* ``cpu``        -- ``ProcessorCore.tick`` / ``tick_fast`` [cpu]
* ``mem``        -- ``NodeMemorySystem.access_instr`` / ``access_data``
  / ``prefetch_data`` / ``flush_line`` [mem]
* ``coherence``  -- ``CoherentMemory.read`` / ``write`` / ``flush`` /
  ``writeback`` / ``evict_clean`` [coherence]
* ``mesh``       -- ``MeshNetwork.inject`` [mesh]
* ``trace``      -- every ``next()`` on a trace generator or arena
  stream handed out by ``Workload.generators`` /
  ``TraceArena.generators`` [trace]

Time inside the traced section but outside every span (figure
rendering, the harness) is the *unspanned* remainder; it is charged to
the runner together with ``run``'s own self time.
"""

from __future__ import annotations

import time
import weakref
from typing import Any, Callable, Dict, List, Optional

_perf = time.perf_counter

#: Every layer a span can belong to.
LAYERS = ("run", "cache_get", "cache_put", "ckpt_save", "system", "cpu",
          "mem", "coherence", "mesh", "trace")


class _MachineRecord:
    """Simulator-side counters of one machine, for the cross-checks.

    Filled by the ``Machine.run`` wrapper when each call ends (also when
    it raises) and by the ``Machine.reset_stats`` wrapper, which banks
    the per-node counters the warmup reset is about to zero.
    """

    __slots__ = ("banked_l1d", "banked_l1i_miss", "l1d_accesses",
                 "l1i_misses", "mesh_messages", "consumed", "cycles",
                 "retired", "overshoot_bound", "bad_calls", "aborted")

    def __init__(self) -> None:
        self.banked_l1d = self.banked_l1i_miss = 0
        self.l1d_accesses = self.l1i_misses = 0
        self.mesh_messages = self.consumed = self.cycles = 0
        self.retired = self.overshoot_bound = self.bad_calls = 0
        #: A run() call raised (an arena ran dry and the job re-ran on
        #: the generator path): this machine's work was abandoned.
        self.aborted = False


class _TimedStream:
    """A trace iterator whose every ``next()`` is a ``trace`` span."""

    __slots__ = ("_next", "_tracer")

    def __init__(self, source, tracer: "Tracer"):
        self._next = iter(source).__next__
        self._tracer = tracer

    def __iter__(self) -> "_TimedStream":
        return self

    def __next__(self):
        tracer = self._tracer
        stack = tracer._stack
        stack.append(0.0)
        started = _perf()
        try:
            record = self._next()
            tracer.tally["trace.records"] += 1
            return record
        finally:
            elapsed = _perf() - started
            tracer._close("trace", elapsed, stack.pop())


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.count: Dict[str, int] = {layer: 0 for layer in LAYERS}
        #: Counts made at span boundaries from the wrapped call's
        #: arguments or result (accesses the simulator counts, ...).
        self.tally: Dict[str, int] = {
            "trace.records": 0, "mem.l1d_counted": 0,
            "mem.l1i_miss_calls": 0, "ckpt.written": 0}
        #: Inclusive seconds of ``Machine.run`` (for host us / cycle).
        self.system_incl_s = 0.0
        self.root_s = 0.0
        self._stack: List[float] = []
        self._patches: List[tuple] = []
        self._records: List[_MachineRecord] = []
        self._by_machine: "weakref.WeakKeyDictionary" = \
            weakref.WeakKeyDictionary()

    # ------------------------------------------------------------ spans

    def _close(self, layer: str, elapsed: float, child: float) -> None:
        self.self_s[layer] += elapsed - child
        self.count[layer] += 1
        stack = self._stack
        if stack:
            stack[-1] += elapsed
        else:
            self.root_s += elapsed

    def span(self, layer: str, fn: Callable,
             tally: Optional[Callable[[Any], None]] = None) -> Callable:
        """``fn`` wrapped in a ``layer`` span; ``tally(result)`` runs
        after a call that returned."""
        stack = self._stack
        close = self._close

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            started = _perf()
            try:
                result = fn(*args, **kwargs)
                if tally is not None:
                    tally(result)
                return result
            finally:
                close(layer, _perf() - started, stack.pop())

        return wrapper

    def timed_streams(self, sources) -> list:
        return [_TimedStream(source, self) for source in sources]

    @property
    def open_spans(self) -> int:
        return len(self._stack)

    # ---------------------------------------------------------- patches

    def _patch(self, owner: Any, name: str, replacement: Any) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def install(self, run_many_owner: Any, run_many_name: str) -> None:
        """Wrap every layer entry point (and ``run_many`` as reachable
        through ``run_many_owner.run_many_name``)."""
        from repro.core.workloads import Workload
        from repro.cpu.core import ProcessorCore
        from repro.mem.coherence import CoherentMemory
        from repro.mem.interconnect import MeshNetwork
        from repro.mem.memsys import CAT_L1_HIT, NodeMemorySystem
        from repro.run.cache import ResultCache
        from repro.run.checkpoint import CheckpointStore
        from repro.system.machine import Machine
        from repro.trace.arena import TraceArena

        tally = self.tally
        span = self.span
        patch = self._patch

        patch(run_many_owner, run_many_name,
              span("run", getattr(run_many_owner, run_many_name)))
        patch(ResultCache, "get", span("cache_get", ResultCache.get))
        patch(ResultCache, "put", span("cache_put", ResultCache.put))

        def count_save(path):
            if path is not None:
                tally["ckpt.written"] += 1
        patch(CheckpointStore, "save",
              span("ckpt_save", CheckpointStore.save, count_save))

        self._install_machine(Machine, patch)
        patch(ProcessorCore, "tick", span("cpu", ProcessorCore.tick))
        patch(ProcessorCore, "tick_fast",
              span("cpu", ProcessorCore.tick_fast))

        def count_data(result):
            if not result.stalled:
                tally["mem.l1d_counted"] += 1

        def count_instr(result):
            if result[1] != CAT_L1_HIT:
                tally["mem.l1i_miss_calls"] += 1
        patch(NodeMemorySystem, "access_data",
              span("mem", NodeMemorySystem.access_data, count_data))
        patch(NodeMemorySystem, "access_instr",
              span("mem", NodeMemorySystem.access_instr, count_instr))
        for name in ("prefetch_data", "flush_line"):
            patch(NodeMemorySystem, name,
                  span("mem", getattr(NodeMemorySystem, name)))
        for name in ("read", "write", "flush", "writeback", "evict_clean"):
            patch(CoherentMemory, name,
                  span("coherence", getattr(CoherentMemory, name)))
        patch(MeshNetwork, "inject", span("mesh", MeshNetwork.inject))

        timed_streams = self.timed_streams
        workload_generators = Workload.generators
        arena_generators = TraceArena.generators

        def workload_streams(workload, *args, **kwargs):
            return timed_streams(workload_generators(workload, *args,
                                                     **kwargs))

        def arena_streams(arena, *args, **kwargs):
            return timed_streams(arena_generators(arena, *args, **kwargs))
        patch(Workload, "generators", workload_streams)
        patch(TraceArena, "generators", arena_streams)

    def _install_machine(self, machine_cls, patch) -> None:
        timed_run = self.span("system", machine_cls.run)
        reset_stats = machine_cls.reset_stats

        def record_of(machine) -> _MachineRecord:
            record = self._by_machine.get(machine)
            if record is None:
                record = _MachineRecord()
                self._by_machine[machine] = record
                self._records.append(record)
            return record

        def run(machine, instructions, *args, **kwargs):
            before = machine.total_retired()
            record = record_of(machine)
            record.aborted = True
            started = _perf()
            try:
                cycles = timed_run(machine, instructions, *args, **kwargs)
            finally:
                self.system_incl_s += _perf() - started
                nodes = machine.nodes
                record.l1d_accesses = sum(n.l1d_accesses for n in nodes)
                record.l1i_misses = sum(n.l1i_misses for n in nodes)
                record.mesh_messages = machine.mesh.messages
                record.consumed = sum(machine.trace_consumed())
                record.cycles = machine.now
            record.aborted = False
            # Machine.run's contract: at least `instructions` retire, and
            # the loop stops within one cycle of retire bandwidth.
            retired = machine.total_retired() - before
            bound = machine.params.processor.issue_width * \
                len(machine.cores)
            record.retired += retired
            record.overshoot_bound += bound - 1
            if not instructions <= retired < instructions + bound:
                record.bad_calls += 1
            return cycles

        def reset(machine):
            record = record_of(machine)
            record.banked_l1d += sum(n.l1d_accesses for n in machine.nodes)
            record.banked_l1i_miss += sum(n.l1i_misses
                                          for n in machine.nodes)
            return reset_stats(machine)

        patch(machine_cls, "run", run)
        patch(machine_cls, "reset_stats", reset)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # ----------------------------------------------------------- checks

    def simulator_counters(self) -> Dict[str, int]:
        """Sums of the simulator's own counters over every machine."""
        records = self._records
        finished = [r for r in records if not r.aborted]
        return {
            "l1d_accesses": sum(r.banked_l1d + r.l1d_accesses
                                for r in records),
            "l1i_misses": sum(r.banked_l1i_miss + r.l1i_misses
                              for r in records),
            "mesh_messages": sum(r.mesh_messages for r in records),
            "trace_consumed": sum(r.consumed for r in records),
            "cycles": sum(r.cycles for r in records),
            "machines": len(records),
            "retired": sum(r.retired for r in finished),
            "overshoot_bound": sum(r.overshoot_bound for r in finished),
            "bad_run_calls": sum(r.bad_calls for r in finished),
        }

    def check(self, traced_wall_s: float, asked: int) -> List[str]:
        """Conservation and cross-checks; returns the violations.

        ``asked`` is the total instruction budget (warmup + measured) of
        the jobs the traced section simulated.
        """
        problems = []
        if self._stack:
            problems.append(f"{len(self._stack)} span(s) never closed")
        for layer, value in self.self_s.items():
            if value < -1e-9:
                problems.append(f"negative self time in {layer}: {value}")
        unspanned = traced_wall_s - self.root_s
        if unspanned < -1e-6:
            problems.append(f"root spans ({self.root_s:.6f}s) exceed the "
                            f"traced wall time ({traced_wall_s:.6f}s)")
        total = sum(self.self_s.values()) + unspanned
        if abs(total - traced_wall_s) > 1e-6 * max(1.0, traced_wall_s):
            problems.append(f"self times sum to {total:.6f}s, traced wall "
                            f"is {traced_wall_s:.6f}s")
        sim = self.simulator_counters()
        tally = self.tally
        if tally["mem.l1d_counted"] != sim["l1d_accesses"]:
            problems.append(
                f"access_data spans that were not refused "
                f"({tally['mem.l1d_counted']}) != NodeMemorySystem "
                f"l1d_accesses ({sim['l1d_accesses']})")
        if tally["mem.l1i_miss_calls"] != sim["l1i_misses"]:
            problems.append(
                f"access_instr spans that missed "
                f"({tally['mem.l1i_miss_calls']}) != NodeMemorySystem "
                f"l1i_misses ({sim['l1i_misses']})")
        if self.count["mesh"] != sim["mesh_messages"]:
            problems.append(f"inject spans ({self.count['mesh']}) != "
                            f"MeshNetwork.messages ({sim['mesh_messages']})")
        if tally["trace.records"] < sim["trace_consumed"]:
            problems.append(
                f"trace records pulled ({tally['trace.records']}) < "
                f"records the machines consumed ({sim['trace_consumed']})")
        if sim["bad_run_calls"]:
            problems.append(f"{sim['bad_run_calls']} Machine.run call(s) "
                            f"retired outside [asked, asked + one cycle "
                            f"of retire width)")
        retired, slack = sim["retired"], sim["overshoot_bound"]
        if not asked <= retired <= asked + slack:
            problems.append(f"cpu.retired ({retired}) is not the {asked} "
                            f"instructions the jobs asked for (plus at "
                            f"most {slack} end-of-run overshoot)")
        return problems
