"""Consistency litmus traces replayed on small simulated machines.

The simulator models no data values, so litmus outcomes are decided from
*perform times*: a load "sees" a store to the same address iff the
store's global-perform cycle is at or before the load's final perform
cycle.  A :class:`MemTap` wraps each node's ``access_data`` and records
the last non-stalled completion per ``(cpu, address, is_write)`` -- the
last record is the one whose value the retiring instruction would
consume (speculative loads that roll back re-perform later, store
buffers drain after retirement).

Traces (two threads pinned to a 2-node machine; delays are dependence
chains of long-latency ALU ops, and the interesting latency asymmetries
are engineered with prologues that plant dirty cache-to-cache transfers
on one address while the other stays a fast miss):

* **message passing** -- P0: ST data; ST flag.  P1: LD flag; LD data.
  Seeing the flag but not the data is forbidden under SC and PC; the
  store-reorder witness (flag performing before data) must appear under
  RC's store-buffer overlap.
* **store buffering (Dekker)** -- P0: ST x; LD y.  P1: ST y; LD x.
  Both loads reading "before" the other thread's store is forbidden
  under SC (speculative loads must roll back when their line is
  invalidated), and must be observable under PC and RC where loads
  bypass buffered stores.
* **migratory handoff** -- alternating read-then-write by two threads
  must trigger the directory's migratory-sharing heuristic, and (with
  the adaptive protocol on) grant exclusive ownership on the dirty read.

Each trace runs with the runtime sanitizer attached, so a protocol bug
surfaces either as an :class:`InvariantViolation` or a wrong outcome.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.params import (ConsistencyImpl, ConsistencyModel, Tools,
                          default_system)
from repro.system.machine import Machine
from repro.trace.instr import Instruction, OP_INT, OP_LOAD, OP_STORE

# Litmus variables on distinct pages (so they occupy distinct lines and
# get distinct home nodes from first-touch assignment).
ADDR_X = 0x0100_0000
ADDR_Y = 0x0200_0000
ADDR_DATA = 0x0300_0000
ADDR_FLAG = 0x0400_0000
ADDR_M = 0x0500_0000

_PC_BASE = 0x4000_0000
_PC_STRIDE = 0x0010_0000

MODELS = (ConsistencyModel.SC, ConsistencyModel.PC, ConsistencyModel.RC)
IMPLS = (ConsistencyImpl.STRAIGHTFORWARD, ConsistencyImpl.PREFETCH,
         ConsistencyImpl.SPECULATIVE)


@dataclass
class LitmusResult:
    name: str
    model: ConsistencyModel
    impl: ConsistencyImpl
    observed: bool          # the relaxed outcome / witness occurred
    allowed: bool           # the model permits (and should exhibit) it
    passed: bool
    detail: str

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"[{status}] {self.name:<16s} {self.model.name}/"
                f"{self.impl.name.lower():<15s} "
                f"observed={self.observed} allowed={self.allowed} "
                f"({self.detail})")


class MemTap:
    """Records the final perform time of watched data accesses."""

    def __init__(self, machine: Machine, watch: Sequence[int]):
        self._watch = frozenset(watch)
        self.last_done: Dict[Tuple[int, int, bool], int] = {}
        for node in machine.nodes:
            self._wrap(node)

    def _wrap(self, node) -> None:
        orig = node.access_data
        node_id = node.node_id
        watch = self._watch
        last_done = self.last_done

        def access_data(now, vaddr, is_write, pc=0):
            result = orig(now, vaddr, is_write, pc)
            if vaddr in watch and not result.stalled:
                last_done[(node_id, vaddr, is_write)] = result.done_at
            return result

        node.access_data = access_data

    def done(self, cpu: int, vaddr: int, is_write: bool) -> Optional[int]:
        return self.last_done.get((cpu, vaddr, is_write))

    def sees(self, load_cpu: int, store_cpu: int, vaddr: int) -> bool:
        """Does ``load_cpu``'s load of ``vaddr`` observe ``store_cpu``'s
        store?  True iff the store performed at or before the load."""
        load_at = self.done(load_cpu, vaddr, False)
        store_at = self.done(store_cpu, vaddr, True)
        if load_at is None or store_at is None:
            raise RuntimeError(
                f"litmus access to {vaddr:#x} never performed")
        return store_at <= load_at


def _delay(total: int, pc: int) -> List[Instruction]:
    """A serial dependence chain consuming ~``total`` execution cycles."""
    ops: List[Instruction] = []
    while total > 0:
        latency = min(total, 500)
        ops.append(Instruction(OP_INT, pc, deps=(1,), latency=latency))
        total -= latency
    return ops


def _thread(ops: Sequence[Instruction], pc: int) -> Iterator[Instruction]:
    """The litmus ops followed by infinite single-cycle filler (keeps the
    machine retiring so `Machine.run` instruction budgets are easy)."""
    for instr in ops:
        yield instr
    while True:
        yield Instruction(OP_INT, pc)


def _build_machine(model: ConsistencyModel, impl: ConsistencyImpl,
                   threads: Sequence[Sequence[Instruction]],
                   check: bool = True,
                   migratory_protocol: bool = False) -> Machine:
    params = default_system(
        n_nodes=2, mesh_width=1,
        consistency=model, consistency_impl=impl,
        migratory_protocol=migratory_protocol)
    generators = [
        _thread(ops, _PC_BASE + (i + len(threads)) * _PC_STRIDE)
        for i, ops in enumerate(threads)]
    return Machine(params, generators, Tools(check=check))


def _run(machine: Machine, tap: MemTap,
         expected: Sequence[Tuple[int, int, bool]],
         chunk: int = 2_000, max_chunks: int = 60) -> None:
    """Run until every expected access performed, then a grace period so
    buffered stores drain and rolled-back loads re-perform."""
    for _ in range(max_chunks):
        machine.run(chunk)
        if all(key in tap.last_done for key in expected):
            break
    else:
        missing = [key for key in expected if key not in tap.last_done]
        raise RuntimeError(f"litmus trace never performed {missing}")
    machine.run(2 * chunk)


# -- traces -----------------------------------------------------------------

def message_passing(model: ConsistencyModel, impl: ConsistencyImpl,
                    check: bool = True) -> LitmusResult:
    """MP: P0 stores data then flag; P1 loads flag then data."""
    pc0, pc1 = _PC_BASE, _PC_BASE + _PC_STRIDE
    # P1 pre-owns the data line dirty, so P0's ST data is a slow
    # cache-to-cache transfer while ST flag is a fast cold miss -- under
    # RC's store overlap the flag store performs first (the witness).
    thread0 = (_delay(600, pc0)
               + [Instruction(OP_STORE, pc0 + 4, ADDR_DATA,
                              deps=(1,), latency=1),
                  Instruction(OP_STORE, pc0 + 8, ADDR_FLAG,
                              deps=(2,), latency=1)])
    thread1 = ([Instruction(OP_STORE, pc1, ADDR_DATA, latency=1)]
               + _delay(1000, pc1 + 4)
               + [Instruction(OP_LOAD, pc1 + 8, ADDR_FLAG,
                              deps=(1,), latency=1),
                  Instruction(OP_LOAD, pc1 + 12, ADDR_DATA,
                              deps=(2,), latency=1)])
    machine = _build_machine(model, impl, [thread0, thread1], check)
    tap = MemTap(machine, [ADDR_DATA, ADDR_FLAG])
    _run(machine, tap, [(0, ADDR_DATA, True), (0, ADDR_FLAG, True),
                        (1, ADDR_FLAG, False), (1, ADDR_DATA, False)])

    forbidden = (tap.sees(1, 0, ADDR_FLAG)
                 and not tap.sees(1, 0, ADDR_DATA))
    witness = (tap.done(0, ADDR_FLAG, True)
               < tap.done(0, ADDR_DATA, True))
    allowed = model is ConsistencyModel.RC
    if allowed:
        passed = witness  # stores must visibly reorder under RC overlap
        observed = witness
    else:
        passed = not forbidden and not witness
        observed = forbidden
    detail = (f"ST data@{tap.done(0, ADDR_DATA, True)} "
              f"ST flag@{tap.done(0, ADDR_FLAG, True)} "
              f"LD flag@{tap.done(1, ADDR_FLAG, False)} "
              f"LD data@{tap.done(1, ADDR_DATA, False)}")
    return LitmusResult("message-passing", model, impl, observed, allowed,
                        passed, detail)


def store_buffering(model: ConsistencyModel, impl: ConsistencyImpl,
                    check: bool = True) -> LitmusResult:
    """SB/Dekker: P0 stores x, loads y; P1 stores y, loads x."""
    pc0, pc1 = _PC_BASE, _PC_BASE + _PC_STRIDE
    # Each thread pre-owns the line it will *load*, so the load is a fast
    # L1 hit while the store heads into a slow dirty miss on the line the
    # other thread owns -- the classic store-buffering interleaving.
    thread0 = ([Instruction(OP_STORE, pc0, ADDR_Y, latency=1)]
               + _delay(800, pc0 + 4)
               + [Instruction(OP_STORE, pc0 + 8, ADDR_X,
                              deps=(1,), latency=1),
                  Instruction(OP_LOAD, pc0 + 12, ADDR_Y,
                              deps=(2,), latency=1)])
    thread1 = ([Instruction(OP_STORE, pc1, ADDR_X, latency=1)]
               + _delay(800, pc1 + 4)
               + [Instruction(OP_STORE, pc1 + 8, ADDR_Y,
                              deps=(1,), latency=1),
                  Instruction(OP_LOAD, pc1 + 12, ADDR_X,
                              deps=(2,), latency=1)])
    machine = _build_machine(model, impl, [thread0, thread1], check)
    tap = MemTap(machine, [ADDR_X, ADDR_Y])
    _run(machine, tap, [(0, ADDR_X, True), (0, ADDR_Y, False),
                        (1, ADDR_Y, True), (1, ADDR_X, False)])

    observed = (not tap.sees(0, 1, ADDR_Y)
                and not tap.sees(1, 0, ADDR_X))
    allowed = model is not ConsistencyModel.SC
    passed = observed if allowed else not observed
    detail = (f"LD y@{tap.done(0, ADDR_Y, False)} vs "
              f"ST y@{tap.done(1, ADDR_Y, True)}; "
              f"LD x@{tap.done(1, ADDR_X, False)} vs "
              f"ST x@{tap.done(0, ADDR_X, True)}")
    return LitmusResult("store-buffering", model, impl, observed, allowed,
                        passed, detail)


def migratory_handoff(protocol: bool, check: bool = True) -> LitmusResult:
    """Read-then-write handoff between two threads must be classified as
    migratory by the directory heuristic (paper footnote 2); with the
    adaptive protocol on, the dirty read must hand over exclusive
    ownership."""
    model = ConsistencyModel.RC
    impl = ConsistencyImpl.STRAIGHTFORWARD
    pc0, pc1 = _PC_BASE, _PC_BASE + _PC_STRIDE
    thread0 = ([Instruction(OP_STORE, pc0, ADDR_M, latency=1)]
               + _delay(1600, pc0 + 4)
               + [Instruction(OP_LOAD, pc0 + 8, ADDR_M,
                              deps=(1,), latency=1),
                  Instruction(OP_STORE, pc0 + 12, ADDR_M,
                              deps=(1,), latency=1)])
    thread1 = (_delay(700, pc1)
               + [Instruction(OP_LOAD, pc1 + 4, ADDR_M,
                              deps=(1,), latency=1),
                  Instruction(OP_STORE, pc1 + 8, ADDR_M,
                              deps=(1,), latency=1)])
    machine = _build_machine(model, impl, [thread0, thread1], check,
                             migratory_protocol=protocol)
    tap = MemTap(machine, [ADDR_M])
    _run(machine, tap, [(0, ADDR_M, True), (0, ADDR_M, False),
                        (1, ADDR_M, False), (1, ADDR_M, True)])

    line = machine.page_table.translate_line(
        ADDR_M, machine.nodes[0].line_shift)
    marked = line in machine.memory.stats.migratory_lines
    if protocol:
        observed = marked and machine.memory.migratory_exclusive_grants > 0
        detail = (f"marked={marked} exclusive_grants="
                  f"{machine.memory.migratory_exclusive_grants}")
    else:
        observed = marked
        detail = f"marked={marked}"
    name = "migratory-adpt" if protocol else "migratory"
    return LitmusResult(name, model, impl, observed, True, observed,
                        detail)


def run_litmus_suite(check: bool = True) -> List[LitmusResult]:
    """The full matrix: MP and SB under SC/PC/RC x all three
    implementations, plus the migratory-handoff directory cases.

    ``check=True`` runs every trace under the invariant sanitizer (every
    core stepped through the reference tick at every grid point);
    ``check=False`` takes the certified-skip path.  Both must yield
    identical witnesses (the test suite asserts it)."""
    results: List[LitmusResult] = []
    for model in MODELS:
        for impl in IMPLS:
            results.append(message_passing(model, impl, check))
            results.append(store_buffering(model, impl, check))
    results.append(migratory_handoff(protocol=False, check=check))
    results.append(migratory_handoff(protocol=True, check=check))
    return results
