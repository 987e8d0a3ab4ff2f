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
"how far may operations perform now?"; the core owns issue/retire
mechanics.
Under RC every answer is "yes" and no load is ever speculative, so the
core never consults the unit and it holds no state.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Set

from repro.params import ConsistencyImpl, ConsistencyModel


#: The bound when no ordered operation is incomplete: every seq is below it.
UNBOUNDED = 1 << 62


class ConsistencyUnit:
    """Ordering logic + speculative-load violation tracking for one core.

    Every ordering decision reduces to one bound: the seq of the oldest
    incomplete operation the model orders (under SC every memory op,
    under PC every load), found by :meth:`order_bound` with one peek at
    a lazy min-heap of incomplete seqs.  An op may perform iff its seq
    is at most the bound, and a load that performs above it is
    speculative.  Under SC and PC the core reads the bound once per
    memory-queue pass (no memory op completes, dispatches or leaves the
    window during a pass) and notes each ordered op's dispatch,
    completion and removal, so all of these must be cheap.  Under RC
    the core calls none of them (see ``ProcessorCore._ordered``): the
    RC branches of ``may_perform_load`` and ``load_is_speculative``
    only keep the unit's answers right for every model when it is used
    on its own.
    """

    def __init__(self, model: ConsistencyModel, impl: ConsistencyImpl):
        self.model = model
        self.impl = impl
        # Incomplete ordered ops: their seqs, and a min-heap of them
        # whose stale items (completed or removed seqs) are popped
        # lazily.
        self._incomplete: Set[int] = set()
        self._heap: List[int] = []
        # Speculatively performed loads, by line, until they retire.
        self._spec_by_line: Dict[int, Set[int]] = {}
        self._spec_lines_by_seq: Dict[int, int] = {}
        self.rollbacks = 0

    # -- bookkeeping ---------------------------------------------------------

    def reset(self) -> None:
        self._incomplete.clear()
        self._heap.clear()
        self._spec_by_line.clear()
        self._spec_lines_by_seq.clear()

    def note_dispatch(self, seq: int, is_load: bool) -> None:
        # PC orders loads only: a store never holds a load back.
        if is_load or self.model is ConsistencyModel.SC:
            self._incomplete.add(seq)
            heapq.heappush(self._heap, seq)

    def note_complete(self, seq: int) -> None:
        self._incomplete.discard(seq)

    def note_removed(self, seq: int) -> None:
        """Operation left the window (retired or squashed)."""
        self._incomplete.discard(seq)
        line = self._spec_lines_by_seq.pop(seq, None)
        if line is not None:
            group = self._spec_by_line.get(line)
            if group is not None:
                group.discard(seq)
                if not group:
                    del self._spec_by_line[line]

    # -- ordering decisions ------------------------------------------------------

    def order_bound(self) -> int:
        """Seq of the oldest incomplete ordered op (:data:`UNBOUNDED` if
        there is none): an op younger than it must not perform yet."""
        heap = self._heap
        live = self._incomplete
        while heap and heap[0] not in live:
            heapq.heappop(heap)
        return heap[0] if heap else UNBOUNDED

    def may_perform_load(self, seq: int) -> bool:
        if self.model is ConsistencyModel.RC:
            return True
        if self.impl is ConsistencyImpl.SPECULATIVE:
            return True  # speculative execution; violations roll back
        return seq <= self.order_bound()

    def load_is_speculative(self, seq: int) -> bool:
        """Whether a load performing *now* is ahead of the straightforward
        ordering point (and must be tracked for violations)."""
        if self.model is ConsistencyModel.RC:
            return False
        if self.impl is not ConsistencyImpl.SPECULATIVE:
            return False
        return seq > self.order_bound()

    def may_perform_store(self, seq: int) -> bool:
        """Whether an in-window store may perform (SC only -- PC and RC
        stores perform from the post-retirement store buffer)."""
        if self.model is not ConsistencyModel.SC:
            return True
        return seq <= self.order_bound()

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
