"""Set-associative cache tag arrays and miss-status holding registers.

The simulator is a timing model: caches track only tags, LRU order and
dirty bits, never data.  MSHRs (Kroft [12] in the paper) bound the number
of outstanding misses per cache and coalesce requests to a line that is
already in flight; their occupancy over time feeds the Figure 2(d)-(g)
distributions via :class:`repro.stats.mshr.MshrOccupancy`.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.params import CacheParams


class CacheArray:
    """LRU set-associative tag array (write-back, write-allocate).

    Addresses are *line* numbers (byte address >> log2(line size)); the
    caller performs the shift once so hot-path arithmetic stays cheap.
    """

    def __init__(self, params: CacheParams):
        self.params = params
        self._set_mask = params.num_sets - 1
        self._assoc = params.assoc
        # One OrderedDict per set: line -> dirty flag, LRU order = insertion
        # order with move_to_end on touch.
        self._sets: List[OrderedDict] = [
            OrderedDict() for _ in range(params.num_sets)]

    def lookup(self, line: int, touch: bool = True) -> bool:
        """True on hit; refreshes LRU order unless ``touch`` is False."""
        s = self._sets[line & self._set_mask]
        if touch:
            # move_to_end doubles as the membership probe: one dict
            # lookup instead of two on the (dominant) hit path.
            try:
                s.move_to_end(line)
            except KeyError:
                return False
            return True
        return line in s

    def insert(self, line: int, dirty: bool = False
               ) -> Optional[Tuple[int, bool]]:
        """Insert ``line``; returns the evicted ``(line, was_dirty)`` or
        ``None``.  Inserting a present line just updates its dirty bit."""
        s = self._sets[line & self._set_mask]
        if line in s:
            s[line] = s[line] or dirty
            s.move_to_end(line)
            return None
        victim = None
        if len(s) >= self._assoc:
            victim = s.popitem(last=False)
        s[line] = dirty
        return victim

    def mark_dirty(self, line: int) -> bool:
        """Set the dirty bit; returns False if the line is absent."""
        s = self._sets[line & self._set_mask]
        if line not in s:
            return False
        s[line] = True
        return True

    def mark_clean(self, line: int) -> bool:
        """Clear the dirty bit (ownership downgrade: memory now holds the
        data); returns False if the line is absent."""
        s = self._sets[line & self._set_mask]
        if line not in s:
            return False
        s[line] = False
        return True

    def invalidate(self, line: int) -> Tuple[bool, bool]:
        """Remove ``line``; returns (was_present, was_dirty)."""
        s = self._sets[line & self._set_mask]
        dirty = s.pop(line, None)
        return (dirty is not None, bool(dirty))

    def is_dirty(self, line: int) -> bool:
        s = self._sets[line & self._set_mask]
        return bool(s.get(line, False))

    def occupancy(self) -> int:
        """Number of valid lines (testing / introspection)."""
        return sum(len(s) for s in self._sets)


class MshrEntry:
    __slots__ = ("line", "done_at", "is_read", "exclusive", "started_at")

    def __init__(self, line: int, done_at: int, is_read: bool,
                 exclusive: bool, started_at: int):
        self.line = line
        self.done_at = done_at
        self.is_read = is_read
        self.exclusive = exclusive
        self.started_at = started_at


class MshrFile:
    """Bounded set of outstanding line misses with request coalescing.

    ``stats`` (optional) receives ``(start, end, is_read)`` intervals for
    occupancy-distribution plots.
    """

    def __init__(self, n_entries: int, stats=None):
        self.n_entries = n_entries
        self.stats = stats
        self._entries: Dict[int, MshrEntry] = {}
        # Lower bound on min(done_at) over live entries; lets expire()
        # return without scanning when nothing can have completed yet.
        # Derived cache only.
        self._min_done = 1 << 62

    def expire(self, now: int) -> None:
        """Retire entries whose miss has completed."""
        if now < self._min_done or not self._entries:
            return
        entries = self._entries
        done = [line for line, e in entries.items() if e.done_at <= now]
        for line in done:
            del entries[line]
        self._min_done = min(
            (e.done_at for e in entries.values()), default=1 << 62)

    def get(self, line: int) -> Optional[MshrEntry]:
        return self._entries.get(line)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.n_entries

    def outstanding(self) -> int:
        return len(self._entries)

    def earliest_done(self) -> int:
        """Completion time of the next entry to free (caller checked
        non-empty); used for structural-stall skip-ahead."""
        return min(e.done_at for e in self._entries.values())

    def register(self, line: int, now: int, done_at: int, is_read: bool,
                 exclusive: bool) -> MshrEntry:
        entry = MshrEntry(line, done_at, is_read, exclusive, now)
        self._entries[line] = entry
        if done_at < self._min_done:
            self._min_done = done_at
        if self.stats is not None:
            self.stats.add_interval(now, done_at, is_read)
        return entry

    def extend(self, entry: MshrEntry, done_at: int,
               exclusive: bool) -> None:
        """Coalesced request upgraded the in-flight miss (e.g. a store
        joining a read fetch needs exclusive ownership)."""
        if done_at > entry.done_at:
            if self.stats is not None:
                self.stats.add_interval(entry.done_at, done_at,
                                        entry.is_read)
            entry.done_at = done_at
        entry.exclusive = entry.exclusive or exclusive
