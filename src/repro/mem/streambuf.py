"""Instruction stream buffer between the L1 I-cache and L2 (section 4.1).

A stream buffer (Jouppi [10]) is a small FIFO of prefetched cache lines.
On an L1I miss that hits in the buffer, the line is transferred to the L1
quickly and the buffer tops itself up by prefetching the next sequential
lines; on a miss that does not hit any entry, the buffer is flushed and a
fresh stream is started.  The paper shows a 2-4 entry buffer removes most
of OLTP's instruction stall time.

Prefetches are issued through the node's L2 path by the owning
:class:`~repro.mem.memsys.NodeMemorySystem`, so useless prefetches consume
real L2/directory bandwidth -- which is exactly how the paper's 8-entry
buffer loses performance to contention.
"""

from __future__ import annotations

from typing import Callable, List, Optional


class _StreamEntry:
    __slots__ = ("line", "ready_at")

    def __init__(self, line: int, ready_at: int):
        self.line = line
        self.ready_at = ready_at


class InstructionStreamBuffer:
    """N-entry FIFO stream buffer.

    ``fetch_line`` is a callback ``(line, now) -> ready_at`` that performs
    the actual prefetch through the L2/memory path and returns when the
    line will arrive.
    """

    def __init__(self, n_entries: int,
                 fetch_line: Callable[[int, int], int],
                 transfer_time: int = 2, max_issue_per_probe: int = 2):
        self.n_entries = n_entries
        self._fetch_line = fetch_line
        self._transfer_time = transfer_time
        self._max_issue = max_issue_per_probe
        self._entries: List[_StreamEntry] = []
        self._next_line = 0
        self.hits = 0
        self.misses = 0
        self.prefetches_issued = 0
        self.flushes = 0

    @property
    def enabled(self) -> bool:
        return self.n_entries > 0

    def probe(self, line: int, now: int) -> Optional[int]:
        """L1I miss for ``line``: returns the cycle the line is available
        from the buffer, or ``None`` if the buffer does not hold it.

        A hit consumes the entry (and everything ahead of it) and tops the
        buffer up with further sequential prefetches; a miss flushes the
        buffer and starts a new stream at ``line + 1``.
        """
        if not self.enabled:
            return None
        hit_index = None
        for i, e in enumerate(self._entries):
            if e.line == line:
                hit_index = i
                break
        if hit_index is None:
            self.misses += 1
            self.flushes += bool(self._entries)
            self._entries.clear()
            self._next_line = line + 1
            self._top_up(now)
            return None
        self.hits += 1
        entry = self._entries[hit_index]
        ready = max(now, entry.ready_at) + self._transfer_time
        del self._entries[:hit_index + 1]
        self._top_up(now)
        return ready

    def _top_up(self, now: int) -> None:
        # At most a couple of prefetches launch per probe; deeper entries
        # fill on later probes.  This paces L2-port consumption so large
        # buffers degrade gracefully (the paper's 8-entry buffer loses
        # performance to useless-prefetch contention, not to a flood).
        issued = 0
        while len(self._entries) < self.n_entries and \
                issued < self._max_issue:
            line = self._next_line
            self._next_line += 1
            ready = self._fetch_line(line, now)
            self._entries.append(_StreamEntry(line, ready))
            self.prefetches_issued += 1
            issued += 1

    def invalidate(self, line: int) -> None:
        """Coherence invalidation may target a buffered line."""
        self._entries = [e for e in self._entries if e.line != line]

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
