"""Assembly of semantic micro-op streams into full instruction traces.

Workload generators describe *what* a process does (loads/stores to the
database regions, ALU work, locking, commits) as a stream of
:class:`SemanticOp` records with symbolic dependence *tags*.  The assembler
then merges that stream with the instruction-fetch behaviour from a
:class:`~repro.trace.codewalk.CodeWalker` -- assigning PCs, inserting the
branch instructions that terminate basic blocks, and resolving dependence
tags into backward dynamic distances.

Separating semantics from assembly keeps dependence bookkeeping correct:
inserted branches shift dynamic distances, which the assembler accounts for
because tags are resolved only at final emission.

Stream contract
---------------
A process's stream is a pure function of its seed, and it is part of the
model: every cycle count downstream depends on it.  So is the *order of
RNG draws* -- a generator and its walker share one ``random.Random``, and
one extra or missing draw shifts every later instruction.  Rewrites of
this package must keep the draw sequence exactly; for example
``rng.choice(x)`` may replace ``rng.sample(x, 1)[0]`` because on CPython
both make exactly one ``_randbelow(len(x))`` draw and pick the same
element.

The assembler keeps a tag -> dynamic-position map and prunes it to the
entries within :data:`MAX_DEP_DISTANCE` of the current position.
Positions only grow, so an entry pruned as too far back would be further
back still for every later consumer, and dependences beyond
``MAX_DEP_DISTANCE`` are dropped anyway: pruning never drops a dependence
that would have been emitted.
"""

from __future__ import annotations

import random
from typing import Iterator, Optional, Sequence, Tuple

from repro.trace.codewalk import INSTR_BYTES, CodeWalker
from repro.trace.instr import (
    OP_BRANCH,
    OP_FP,
    OP_INT,
    OP_LOAD,
    OP_STORE,
    Instruction,
)

#: Dependences further back than this are dropped: the producer is
#: guaranteed complete before the consumer can possibly enter the window.
MAX_DEP_DISTANCE = 192

#: Size at which the assembler's tag map is pruned back to the live
#: entries (at most ``MAX_DEP_DISTANCE + 1`` survive a pruning).
_PRUNE_AT = 4 * MAX_DEP_DISTANCE


class SemanticOp:
    """One micro-op emitted by a workload generator, pre-assembly."""

    __slots__ = ("op", "addr", "dep_tags", "latency", "tag", "fixed_pc")

    def __init__(self, op: int, addr: int = 0,
                 dep_tags: Sequence[int] = (), latency: int = 1,
                 tag: Optional[int] = None, fixed_pc: Optional[int] = None):
        self.op = op
        self.addr = addr
        self.dep_tags = dep_tags
        self.latency = latency
        self.tag = tag
        self.fixed_pc = fixed_pc


def assemble(semantics: Iterator[SemanticOp], walker: CodeWalker,
             rng: random.Random,
             block_instrs: Tuple[int, int] = (4, 7)) -> Iterator[Instruction]:
    """Merge a semantic stream with the code walk into Instructions.

    Every ``block_instrs``-sized run of sequential PCs is terminated by a
    branch instruction taken from the walker, reproducing the basic-block
    structure (and therefore the branch frequency and instruction-fetch
    streaming behaviour) of the workload.
    """
    lo, hi = block_instrs
    tag_pos = {}
    index = 0
    # Block boundaries are deterministic in the starting PC so branch
    # sites are stable static locations (predictors can learn them).
    remaining = walker.block_len_at(walker.pc, lo, hi)

    for sop in semantics:
        pc = sop.fixed_pc
        if pc is None:
            if remaining <= 0:
                desc = walker.end_block()
                yield Instruction(OP_BRANCH, desc.pc, 0, (), 1, desc.taken,
                                  desc.target, desc.kind)
                index += 1
                remaining = walker.block_len_at(walker.pc, lo, hi)
            pc = walker.pc
            walker.pc = pc + INSTR_BYTES
            remaining -= 1

        deps = ()
        if sop.dep_tags:
            found = []
            for tag in sop.dep_tags:
                pos = tag_pos.get(tag)
                if pos is not None:
                    distance = index - pos
                    if 0 < distance <= MAX_DEP_DISTANCE:
                        found.append(distance)
            deps = tuple(found)
        tag = sop.tag
        if tag is not None:
            tag_pos[tag] = index
            if len(tag_pos) > _PRUNE_AT:
                oldest = index - MAX_DEP_DISTANCE
                tag_pos = {t: p for t, p in tag_pos.items() if p >= oldest}
        yield Instruction(sop.op, pc, sop.addr, deps, sop.latency)
        index += 1


class SemanticHelpers:
    """Mixin with emit helpers shared by the workload generators.

    Producer tags come from a per-generator counter: each helper that
    returns a tag hands out the next integer.
    """

    def __init__(self, rng: random.Random):
        self._rng = rng
        self._next_tag = 0

    def alu(self, dep_tags: Sequence[int] = (), fp: bool = False,
            fixed_pc: Optional[int] = None) -> Tuple[SemanticOp, int]:
        """An ALU op producing a new value; returns (op, result tag)."""
        tag = self._next_tag
        self._next_tag = tag + 1
        if fp:
            return SemanticOp(OP_FP, 0, dep_tags, 3, tag, fixed_pc), tag
        return SemanticOp(OP_INT, 0, dep_tags, 1, tag, fixed_pc), tag

    def load(self, addr: int, dep_tags: Sequence[int] = (),
             fixed_pc: Optional[int] = None) -> Tuple[SemanticOp, int]:
        """A load producing a value; returns (op, result tag)."""
        tag = self._next_tag
        self._next_tag = tag + 1
        return SemanticOp(OP_LOAD, addr, dep_tags, 1, tag, fixed_pc), tag

    def store(self, addr: int, dep_tags: Sequence[int] = (),
              fixed_pc: Optional[int] = None) -> SemanticOp:
        return SemanticOp(OP_STORE, addr, dep_tags, 1, None, fixed_pc)

    def simple(self, op_kind: int, addr: int = 0,
               fixed_pc: Optional[int] = None,
               dep_tags: Sequence[int] = ()) -> SemanticOp:
        """A non-producing op (locks, fences, syscalls, hints)."""
        return SemanticOp(op_kind, addr, dep_tags, 1, None, fixed_pc)

    def tagged(self, op_kind: int, addr: int = 0,
               fixed_pc: Optional[int] = None
               ) -> Tuple[SemanticOp, int]:
        """A non-ALU op that later ops can order themselves after (e.g. a
        lock acquire that a critical section's prefetch must follow)."""
        tag = self._next_tag
        self._next_tag = tag + 1
        return SemanticOp(op_kind, addr, (), 1, tag, fixed_pc), tag
