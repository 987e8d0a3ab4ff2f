"""Instruction-fetch behaviour of the synthetic workloads.

The paper characterizes OLTP instruction references (section 4.1) as

* a ~560KB instruction working set that overwhelms the 128KB L1 I-cache but
  fits in the 8MB L2,
* a *streaming* pattern -- successive references access successive lines,
  with streams typically shorter than 4 cache lines,
* remaining misses with repeating sequences but no regular stride.

:class:`CodeWalker` reproduces this: the code region is carved into
routines; execution proceeds in basic blocks that fall through sequentially
(producing the short streams) and end in branches that either continue,
jump within the routine, or transfer to another routine (call/return/jump).
Each static conditional branch has a per-PC outcome bias, so a real
predictor achieves realistic accuracy instead of being fed oracle bits.
"""

from __future__ import annotations

import bisect
import functools
import random
from typing import List, Tuple

from repro.trace.instr import BR_CALL, BR_COND, BR_JUMP, BR_RETURN, \
    OP_BRANCH

INSTR_BYTES = 4


def _site_hash(pc: int) -> int:
    """Stable per-PC hash: static code properties (block boundaries,
    branch kinds, biases, call targets) are functions of the PC, so
    every revisit of an address behaves like the same static code."""
    h = (pc * 2654435761) & 0xFFFFFFFF
    return (h ^ (h >> 13)) & 0xFFFFFFFF


@functools.lru_cache(maxsize=16)
def code_image(base: int, code_bytes: int, avg_lines: int, line_size: int
               ) -> Tuple[Tuple[Tuple[int, int], ...], Tuple[int, ...]]:
    """The routine table of a code region and its routine starts.

    The region is split into contiguous routines ``(start, bytes)``.
    The layout is a pure function of the arguments, so every walker of
    one image (the 24 processes of an OLTP machine) shares one table,
    carved once per process; the tuples are never mutated.
    """
    routines = []
    offset = 0
    # Deterministic local generator so routine layout does not depend on
    # how much of the walk-RNG has been consumed.
    layout_rng = random.Random(0xC0DE ^ code_bytes)
    while offset < code_bytes:
        lines = max(1, int(layout_rng.expovariate(1.0 / avg_lines)) + 1)
        length = min(lines * line_size, code_bytes - offset)
        routines.append((base + offset, length))
        offset += length
    return tuple(routines), tuple(start for start, _ in routines)


class CodeWalker:
    """Walks a synthetic static code image, producing PCs and branches.

    Parameters
    ----------
    base, code_bytes:
        The virtual code region.
    rng:
        Private ``random.Random`` (determinism).
    hot_fraction:
        Probability that a control transfer lands in the hot routine subset.
    hot_routines:
        Size of the hot subset (the remaining routines form the cold tail
        that produces the large instruction footprint).
    hard_branch_fraction:
        Fraction of static conditional branches with weakly-biased outcomes
        (the source of branch mispredictions).
    avg_routine_lines:
        Mean routine length in cache lines; streams are bounded by routine
        length, matching the paper's < 4-line streams.
    """

    def __init__(self, base: int, code_bytes: int, rng: random.Random,
                 hot_fraction: float = 0.25, hot_routines: int = 16,
                 hard_branch_fraction: float = 0.15,
                 avg_routine_lines: int = 3, line_size: int = 64,
                 max_call_depth: int = 8,
                 call_target_variability: float = 0.10,
                 jump_target_variability: float = 0.25,
                 p_call: float = 0.12, p_return: float = 0.12,
                 p_jump: float = 0.06, call_locality: int = 0):
        self._rng = rng
        self._line = line_size
        self._hard_fraction = hard_branch_fraction
        self._hot_fraction = hot_fraction
        self._max_depth = max_call_depth
        self._call_variability = call_target_variability
        self._jump_variability = jump_target_variability
        self._p_call = p_call
        self._p_return = p_return
        self._p_jump = p_jump
        self._call_locality = call_locality
        self._routines, self._starts = code_image(
            base, code_bytes, avg_routine_lines, line_size)
        self._hot_n = min(hot_routines, len(self._routines))
        self._stack: List[int] = []
        start, length = self._routines[0]
        #: PC of the next instruction.  Straight-line code advances it by
        #: ``INSTR_BYTES`` per instruction (the emitter does this
        #: itself); :meth:`end_block` and the phase/loop jumps move it.
        self.pc = start
        self._routine_end = start + length

    # -- branch bias -------------------------------------------------------

    @staticmethod
    def block_len_at(pc: int, lo: int, hi: int) -> int:
        """Deterministic basic-block length starting at ``pc``."""
        return lo + _site_hash(pc) % (hi - lo + 1)

    def _bias_for(self, h: int) -> float:
        """Taken probability of the static branch whose PC hashes to
        ``h``."""
        if (h % 1000) / 1000.0 < self._hard_fraction:
            return 0.55 if h & 0x100 else 0.45    # weakly biased: hard
        return 0.97 if h & 0x200 else 0.03        # strongly biased: easy

    def _pick_routine(self) -> Tuple[int, int]:
        if self._rng.random() < self._hot_fraction:
            idx = self._rng.randrange(self._hot_n)
        else:
            idx = self._rng.randrange(len(self._routines))
        return self._routines[idx]

    def _site_routine(self, br_pc: int, variability: float
                      ) -> Tuple[int, int]:
        """Target routine of a call/jump *site*: stable per static PC
        (so the BTB can learn it), occasionally overridden (indirect
        calls / dispatch tables).

        With ``call_locality`` > 0 non-hot targets lie within a
        neighbourhood of the calling routine: real code clusters callees
        near callers, which is what gives transaction *phases* distinct
        slices of the instruction footprint.
        """
        if self._rng.random() < variability:
            return self._pick_routine()
        h = (br_pc * 0x9E3779B1) >> 8
        if (h % 997) / 997.0 < self._hot_fraction:
            idx = h % self._hot_n
        elif self._call_locality:
            here = bisect.bisect_right(self._starts, br_pc) - 1
            span = 2 * self._call_locality + 1
            delta = (h >> 4) % span - self._call_locality
            idx = max(0, min(len(self._routines) - 1, here + delta))
        else:
            idx = h % len(self._routines)
        return self._routines[idx]

    def enter_phase(self, phase: int, n_phases: int) -> None:
        """Jump to the entry routine of transaction phase ``phase`` and
        clear the call stack (a new top-level engine stage begins)."""
        idx = (phase % n_phases) * len(self._routines) // n_phases
        start, length = self._routines[idx]
        self._stack.clear()
        self.pc = start
        self._routine_end = start + length

    # -- public walking API --------------------------------------------------

    def end_block(self) -> Tuple:
        """Terminate the current basic block with a branch.

        The branch *kind* and its static properties are deterministic in
        the branch PC (real code does not change shape between visits);
        only conditional outcomes and occasional indirect-target
        variations are dynamic.  Returns the branch's instruction record
        (see :mod:`repro.trace.instr`) and repositions the walk at the
        branch's actual successor.
        """
        br_pc = self.pc
        fallthrough = br_pc + INSTR_BYTES
        rng = self._rng
        at_end = br_pc >= self._routine_end
        h = _site_hash(br_pc)
        roll = (h % 9973) / 9973.0
        p_call, p_return, p_jump = self._p_call, self._p_return, self._p_jump

        if at_end:
            kind = BR_RETURN if self._stack else BR_JUMP
        elif roll < p_return:
            kind = BR_RETURN if self._stack else BR_COND
        elif roll < p_return + p_call:
            kind = BR_CALL if len(self._stack) < self._max_depth else BR_COND
        elif roll < p_return + p_call + p_jump:
            kind = BR_JUMP
        else:
            kind = BR_COND

        taken = True
        if kind == BR_RETURN:
            target = self._stack.pop()
            # Re-derive the routine end loosely; precision is not needed
            # for fetch behaviour, only for stream lengths.
            self._routine_end = target + 2 * self._line
        elif kind == BR_CALL:
            target, length = self._site_routine(br_pc,
                                                self._call_variability)
            self._stack.append(fallthrough)
            self._routine_end = target + length
        elif kind == BR_JUMP:
            target, length = self._site_routine(br_pc,
                                                self._jump_variability)
            self._routine_end = target + length
        else:
            taken = rng.random() < self._bias_for(h)
            if taken:
                # Short forward skip within the routine: keeps the stream
                # property (same or next couple of lines).
                skip = 2 + _site_hash(br_pc + 4) % 8
                target = min(br_pc + skip * INSTR_BYTES, self._routine_end)
            else:
                target = fallthrough

        self.pc = target if taken else fallthrough
        return (OP_BRANCH, br_pc, 0, (), 1, taken, target, kind)

    @property
    def n_routines(self) -> int:
        return len(self._routines)
