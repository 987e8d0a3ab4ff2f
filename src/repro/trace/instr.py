"""Instruction records produced by the workload generators.

The simulator is trace-driven (like the paper, section 2.2): generators emit
a dynamic stream of instruction *records* per server process.  Each record
carries everything the timing model needs -- operation kind, program
counter, data address, register dependences expressed as *backward dynamic
distances*, execution latency, and branch outcome -- so the simulator never
needs an architectural register file.

A record is a plain tuple ``(op, pc, addr, deps, latency, taken, target,
branch_kind)``; the ``I_*`` constants name its fields.  The generators
build plain tuples (one allocation per instruction, no per-field
attribute stores), and the core reads them by index or by unpacking.
:class:`Instruction` is a named view of the same tuple for hand-built
streams, tests, the pipe tracer and trace files: it compares equal to
the plain record and the core accepts either.

Dependence encoding
-------------------
``deps`` is a tuple of positive integers; ``d`` in ``deps`` means "this
instruction consumes the result of the instruction ``d`` positions earlier
in this process's dynamic stream".  Producers older than the instruction
window have necessarily completed, so only distances smaller than the window
matter for timing.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple

# Operation kinds (small ints for speed on the simulator hot path).
OP_INT = 0        # integer ALU
OP_FP = 1         # floating point
OP_LOAD = 2
OP_STORE = 3
OP_BRANCH = 4     # conditional branch / jump / call / return
OP_LOCK_ACQ = 5   # read-modify-write lock acquire (simulator models the spin)
OP_LOCK_REL = 6   # lock release store
OP_MB = 7         # Alpha MB: full memory barrier
OP_WMB = 8        # Alpha WMB: write memory barrier
OP_SYSCALL = 9    # blocking system call: context-switch hint (paper 2.2)
OP_PREFETCH = 10  # software non-binding prefetch (exclusive)
OP_FLUSH = 11     # software flush / WriteThrough hint (sharing writeback)

OP_NAMES = {
    OP_INT: "int", OP_FP: "fp", OP_LOAD: "load", OP_STORE: "store",
    OP_BRANCH: "branch", OP_LOCK_ACQ: "lock_acq", OP_LOCK_REL: "lock_rel",
    OP_MB: "mb", OP_WMB: "wmb", OP_SYSCALL: "syscall",
    OP_PREFETCH: "prefetch", OP_FLUSH: "flush",
}

#: Ops that access the data memory hierarchy.
MEMORY_OPS = frozenset({OP_LOAD, OP_STORE, OP_LOCK_ACQ, OP_LOCK_REL,
                        OP_PREFETCH, OP_FLUSH})

#: Ops accounted to the synchronization component of execution time.
SYNC_OPS = frozenset({OP_LOCK_ACQ, OP_LOCK_REL, OP_MB, OP_WMB})

# Branch kinds (for predictor routing, Figure 1).
BR_COND = 0     # conditional: hybrid PA/g predictor
BR_JUMP = 1     # computed jump: BTB
BR_CALL = 2     # call: BTB + RAS push
BR_RETURN = 3   # return: RAS pop


# Record field indices.
I_OP = 0
I_PC = 1
I_ADDR = 2
I_DEPS = 3
I_LATENCY = 4
I_TAKEN = 5
I_TARGET = 6
I_KIND = 7


class Instruction(NamedTuple):
    """Named view of one dynamic instruction record.

    Attributes
    ----------
    op:
        One of the ``OP_*`` constants.
    pc:
        Virtual byte address of the instruction (4-byte instructions).
    addr:
        Virtual byte address touched by memory ops; 0 otherwise.
    deps:
        Backward dynamic distances to producer instructions.
    latency:
        Execution latency in cycles once issued to a functional unit.
    taken / target / branch_kind:
        Branch outcome metadata (``op == OP_BRANCH`` only).
    """

    op: int
    pc: int
    addr: int = 0
    deps: Tuple[int, ...] = ()
    latency: int = 1
    taken: bool = False
    target: int = 0
    branch_kind: int = BR_COND

    @property
    def is_memory(self) -> bool:
        return self.op in MEMORY_OPS

    def __repr__(self) -> str:  # debugging aid only; not on the hot path
        extra = ""
        if self.op == OP_BRANCH:
            extra = f" taken={self.taken} target={self.target:#x}"
        elif self.is_memory:
            extra = f" addr={self.addr:#x}"
        return (f"Instruction({OP_NAMES[self.op]}, pc={self.pc:#x},"
                f" deps={self.deps}{extra})")
