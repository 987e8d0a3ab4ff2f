"""Post-retirement store buffer.

Under PC and RC, stores retire into a FIFO buffer and perform later,
hiding write latency (section 3.4: the base RC results show little or no
write latency).  The drain policy realizes the model:

* **PC**: strictly in order, one outstanding store at a time.
* **RC**: multiple outstanding stores (write overlap -- the source of the
  MSHR occupancy beyond 1-2 entries in Figures 2(d)-(e) and 3(d)-(e));
  WMB fences insert barriers that earlier stores must drain past.

Under SC the buffer is unused: stores perform from the instruction window
and block retirement until globally performed.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

_BARRIER = None  # sentinel entry type marker


class _BufferedStore:
    __slots__ = ("addr", "pc", "issued", "done_at", "retry_at",
                 "is_barrier", "prefetched")

    def __init__(self, addr: int, pc: int, is_barrier: bool = False):
        self.addr = addr
        self.pc = pc
        self.issued = False
        self.done_at = 0
        self.retry_at = 0
        self.is_barrier = is_barrier
        self.prefetched = False


class StoreBuffer:
    """FIFO store buffer draining through the node memory system."""

    def __init__(self, capacity: int, memsys, overlap: int = 4,
                 wants_prefetch: bool = False):
        self.capacity = capacity
        self.memsys = memsys
        self.overlap = overlap
        self.wants_prefetch = wants_prefetch
        self._entries: deque = deque()
        # Stores (not barriers) in ``_entries``.
        self._stores = 0
        self.stores_pushed = 0
        self.barriers_pushed = 0
        # Set by drain() when a pass changed state (pops, issues, retry
        # reschedules, prefetches).  ProcessorCore.tick resets it
        # before calling drain and reads it afterwards to certify no-op
        # ticks; it is scratch, not machine state.
        self.drain_activity = False

    def __len__(self) -> int:
        return self._stores

    @property
    def full(self) -> bool:
        return self._stores >= self.capacity

    @property
    def empty(self) -> bool:
        return not self._entries

    def push_store(self, addr: int, pc: int) -> bool:
        """Append a retired store; False if the buffer is full."""
        if self._stores >= self.capacity:
            return False
        self._entries.append(_BufferedStore(addr, pc))
        self._stores += 1
        self.stores_pushed += 1
        return True

    def push_barrier(self) -> None:
        """WMB: later stores may not perform until earlier ones have."""
        if self._entries and self._entries[-1].is_barrier:
            return  # coalesce adjacent barriers
        if self._entries:
            self._entries.append(_BufferedStore(0, 0, is_barrier=True))
            self.barriers_pushed += 1

    def drain(self, now: int) -> Optional[int]:
        """Issue eligible stores and pop completed ones.

        Returns the next cycle at which the buffer state can change (for
        machine skip-ahead), or ``None`` if empty.
        """
        # Pop completed stores / satisfied barriers from the front.
        while self._entries:
            head = self._entries[0]
            if head.is_barrier:
                self._entries.popleft()
                self.drain_activity = True
                continue
            if head.issued and head.done_at <= now:
                self._entries.popleft()
                self._stores -= 1
                self.drain_activity = True
                continue
            break
        if not self._entries:
            return None

        outstanding = 0
        next_event = None
        for e in self._entries:
            if e.issued and e.done_at > now:
                outstanding += 1
                if next_event is None or e.done_at < next_event:
                    next_event = e.done_at

        for e in self._entries:
            if e.is_barrier:
                if outstanding:
                    break  # earlier stores must drain past the barrier
                continue
            if e.issued:
                continue
            if outstanding >= self.overlap:
                if self.wants_prefetch and not e.prefetched:
                    self.memsys.prefetch_data(now, e.addr, exclusive=True,
                                              pc=e.pc)
                    e.prefetched = True
                    self.drain_activity = True
                break
            if e.retry_at > now:
                next_event = e.retry_at if next_event is None else \
                    min(next_event, e.retry_at)
                break
            # The access itself mutates memory-system state (ports, TLB
            # LRU, MSHR expiry) even when it stalls.
            self.drain_activity = True
            result = self.memsys.access_data(now, e.addr, is_write=True,
                                             pc=e.pc)
            if result.stalled:
                e.retry_at = result.retry_at
                next_event = result.retry_at if next_event is None else \
                    min(next_event, result.retry_at)
                break
            e.issued = True
            e.done_at = result.done_at
            outstanding += 1
            next_event = e.done_at if next_event is None else \
                min(next_event, e.done_at)
        return next_event

    def reset(self) -> None:
        self._entries.clear()
        self._stores = 0
