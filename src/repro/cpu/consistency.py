"""Memory consistency model implementations (paper section 3.4).

Three models:

* **SC** (sequential consistency): memory operations perform one at a
  time in program order; stores block retirement until globally performed.
* **PC** (processor consistency): loads perform in order with respect to
  loads; stores drain in order through a FIFO store buffer and may retire
  before performing.
* **RC** (release consistency / Alpha): loads perform as soon as their
  address is ready; stores drain from the buffer with overlap; only MB and
  WMB fences impose order.

Three implementations per model, cumulative:

* **straightforward** -- operations wait until the model allows them.
* **prefetch** -- hardware prefetch from the instruction window
  (Gharachorloo et al. [7]): operations blocked by consistency constraints
  issue non-binding prefetches (exclusive for stores) so they hit in the
  cache once allowed to perform.
* **speculative** -- speculative load execution: loads perform and their
  values are consumed regardless of constraints; coherence invalidations
  and cache replacements of speculatively-read lines before the load
  *retires* force a rollback, as in the MIPS R10000 / Pentium Pro.

The unit tracks in-window memory operations in program order and answers
"may this operation perform now?"; the core owns issue/retire mechanics.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Set

from repro.params import ConsistencyImpl, ConsistencyModel


class ConsistencyUnit:
    """Ordering logic + speculative-load violation tracking for one core.

    Ordering queries reduce to "is there an incomplete memory op (or
    load) older than seq?", answered in O(log n) from lazy min-heaps of
    incomplete seqs -- these queries run for every queued memory op every
    active cycle, so they must be cheap.
    """

    def __init__(self, model: ConsistencyModel, impl: ConsistencyImpl):
        self.model = model
        self.impl = impl
        self._incomplete_mem: Set[int] = set()
        self._incomplete_loads: Set[int] = set()
        self._mem_heap: List[int] = []
        self._load_heap: List[int] = []
        # Speculatively performed loads, by line, until they retire.
        self._spec_by_line: Dict[int, Set[int]] = {}
        self._spec_lines_by_seq: Dict[int, int] = {}
        self.rollbacks = 0
        self.prefetches = 0

    # -- bookkeeping ---------------------------------------------------------

    def reset(self) -> None:
        self._incomplete_mem.clear()
        self._incomplete_loads.clear()
        self._mem_heap.clear()
        self._load_heap.clear()
        self._spec_by_line.clear()
        self._spec_lines_by_seq.clear()

    def note_dispatch(self, seq: int, is_load: bool) -> None:
        self._incomplete_mem.add(seq)
        heapq.heappush(self._mem_heap, seq)
        if is_load:
            self._incomplete_loads.add(seq)
            heapq.heappush(self._load_heap, seq)

    def note_complete(self, seq: int) -> None:
        self._incomplete_mem.discard(seq)
        self._incomplete_loads.discard(seq)

    def note_removed(self, seq: int) -> None:
        """Operation left the window (retired or squashed)."""
        self._incomplete_mem.discard(seq)
        self._incomplete_loads.discard(seq)
        line = self._spec_lines_by_seq.pop(seq, None)
        if line is not None:
            group = self._spec_by_line.get(line)
            if group is not None:
                group.discard(seq)
                if not group:
                    del self._spec_by_line[line]

    # -- ordering decisions ------------------------------------------------------

    @staticmethod
    def _oldest(heap: List[int], live: Set[int]) -> Optional[int]:
        while heap and heap[0] not in live:
            heapq.heappop(heap)
        return heap[0] if heap else None

    def _no_older_incomplete_mem(self, seq: int) -> bool:
        oldest = self._oldest(self._mem_heap, self._incomplete_mem)
        return oldest is None or oldest >= seq

    def _no_older_incomplete_load(self, seq: int) -> bool:
        oldest = self._oldest(self._load_heap, self._incomplete_loads)
        return oldest is None or oldest >= seq

    def may_perform_load(self, seq: int) -> bool:
        if self.model is ConsistencyModel.RC:
            return True
        if self.impl is ConsistencyImpl.SPECULATIVE:
            return True  # speculative execution; violations roll back
        if self.model is ConsistencyModel.SC:
            return self._no_older_incomplete_mem(seq)
        # PC: ordered among loads only.
        return self._no_older_incomplete_load(seq)

    def load_is_speculative(self, seq: int) -> bool:
        """Whether a load performing *now* is ahead of the straightforward
        ordering point (and must be tracked for violations)."""
        if self.model is ConsistencyModel.RC:
            return False
        if self.impl is not ConsistencyImpl.SPECULATIVE:
            return False
        if self.model is ConsistencyModel.SC:
            return not self._no_older_incomplete_mem(seq)
        return not self._no_older_incomplete_load(seq)

    def may_perform_store(self, seq: int) -> bool:
        """Whether an in-window store may perform (SC only -- PC and RC
        stores perform from the post-retirement store buffer)."""
        if self.model is not ConsistencyModel.SC:
            return True
        return self._no_older_incomplete_mem(seq)

    @property
    def store_blocks_retire(self) -> bool:
        """SC stores must be globally performed before retiring."""
        return self.model is ConsistencyModel.SC

    @property
    def store_buffer_overlap(self) -> int:
        """How many buffered stores may be outstanding simultaneously."""
        return 8 if self.model is ConsistencyModel.RC else 1

    @property
    def wants_prefetch(self) -> bool:
        return self.impl is not ConsistencyImpl.STRAIGHTFORWARD

    # -- speculative-load violation tracking -----------------------------------

    def note_speculative_load(self, seq: int, line: int) -> None:
        self._spec_by_line.setdefault(line, set()).add(seq)
        self._spec_lines_by_seq[seq] = line

    def check_violation(self, line: int) -> Optional[int]:
        """An invalidation/replacement hit ``line``; returns the oldest
        speculative load seq that must roll back, or ``None``."""
        group = self._spec_by_line.get(line)
        if not group:
            return None
        self.rollbacks += 1
        return min(group)
