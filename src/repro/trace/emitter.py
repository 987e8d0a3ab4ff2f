"""Emission of instruction records by the workload generators.

Workload generators describe *what* a process does (loads/stores to the
database regions, ALU work, locking, commits) by calling
:meth:`Emitter.emit` once per micro-op.  The emitter merges each op with
the instruction-fetch behaviour of a
:class:`~repro.trace.codewalk.CodeWalker` -- inserting the branch that
terminates a basic block, assigning the PC -- and appends the finished
record (see :mod:`repro.trace.instr`) to the current *chunk*.

Tags are stream indices: :meth:`Emitter.emit` returns the op's index in
the process's dynamic stream (inserted branches included), and a later
op names its producers by those indices.  The dependence distance is
``index - producer_index``, kept when ``0 < d <= MAX_DEP_DISTANCE``; a
producer further back has necessarily completed, and an index not yet
emitted names nothing.

Stream contract
---------------
A process's stream is a pure function of its seed, and it is part of the
model: every cycle count downstream depends on it.  So is the *order of
RNG draws* -- a generator and its walker share one ``random.Random``, and
one extra or missing draw shifts every later instruction.  Rewrites of
this package must keep the draw sequence exactly; for example
``rng.choice(x)`` may replace ``rng.sample(x, 1)[0]`` because on CPython
both make exactly one ``_randbelow(len(x))`` draw and pick the same
element.  Emitting into chunks rather than yielding one op at a time
left that sequence unchanged: each op's block-end branch is drawn at its
:meth:`~Emitter.emit`, after the op's own draws and before the next op's,
exactly where the former one-op-per-yield assembler drew it.

A generator's ``__iter__`` hands out one record per ``next()`` from a
chain over its chunks.  A chunk holds at most one DSS row section (its
arithmetic, or its memory accesses; a checkpoint between row batches
joins the next section) or one OLTP/TPC-C transaction step (the span
between two ``_phase`` calls).  So the records produced but not yet
consumed stay bounded, and the generators' counters
(``transactions_emitted``, ``tx_counts``, ``rows_scanned``, ``batches``)
run ahead of what the consumer has pulled by at most one chunk.
"""

from __future__ import annotations

import random
from itertools import chain
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.trace.codewalk import INSTR_BYTES, CodeWalker
from repro.trace.instr import BR_COND

#: Dependences further back than this are dropped: the producer is
#: guaranteed complete before the consumer can possibly enter the window.
MAX_DEP_DISTANCE = 192

#: ``(d,)`` for every keepable distance ``d``: records share these
#: one-dependence tuples instead of each allocating its own.
_ONE_DEP = tuple((d,) for d in range(MAX_DEP_DISTANCE + 1))

#: Execution latency of a floating-point ALU op (integer ops take 1).
FP_LATENCY = 3


class Emitter:
    """Base of the workload generators: chunked record emission.

    Subclasses implement :meth:`_chunks`, which runs the workload and
    yields each finished chunk (:meth:`_take`) at its step boundaries.
    ``block_instrs`` bounds the basic-block length of the code walk.
    """

    def __init__(self, rng: random.Random, walker: CodeWalker,
                 block_instrs: Tuple[int, int]):
        self._rng = rng
        self._walker = walker
        self._block_lo, self._block_hi = block_instrs
        # Block boundaries are deterministic in the starting PC so branch
        # sites are stable static locations (predictors can learn them).
        self._remaining = walker.block_len_at(walker.pc, *block_instrs)
        self._index = 0
        self._chunk: List[tuple] = []

    def __iter__(self) -> Iterator[tuple]:
        return chain.from_iterable(self._chunks())

    def _chunks(self) -> Iterator[List[tuple]]:
        raise NotImplementedError

    def _take(self) -> List[tuple]:
        """Close the current chunk and return it."""
        chunk = self._chunk
        self._chunk = []
        return chunk

    def emit(self, op: int, addr: int = 0, deps: Sequence[int] = (),
             latency: int = 1, fixed_pc: Optional[int] = None) -> int:
        """Append one op's record; returns its stream index.

        ``deps`` are producer stream indices.  Ops without a
        ``fixed_pc`` follow the code walk: every ``block_instrs``-sized
        run of sequential PCs is first closed by a branch from the
        walker, reproducing the basic-block structure (and therefore the
        branch frequency and instruction-fetch streaming behaviour) of
        the workload.
        """
        chunk = self._chunk
        index = self._index
        if fixed_pc is None:
            walker = self._walker
            if self._remaining <= 0:
                chunk.append(walker.end_block())
                index += 1
                self._remaining = walker.block_len_at(
                    walker.pc, self._block_lo, self._block_hi) - 1
            else:
                self._remaining -= 1
            pc = walker.pc
            walker.pc = pc + INSTR_BYTES
        else:
            pc = fixed_pc
        if deps:
            found = ()
            for producer in deps:
                distance = index - producer
                if 0 < distance <= MAX_DEP_DISTANCE:
                    found += _ONE_DEP[distance]
            deps = found
        chunk.append((op, pc, addr, deps, latency, False, 0, BR_COND))
        self._index = index + 1
        return index
