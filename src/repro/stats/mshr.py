"""MSHR occupancy distributions (Figure 2(d)-(g) and 3(d)-(g)).

The paper plots, for each cache, the fraction of *miss-busy* time (time
with at least one miss outstanding) during which at least ``n`` MSHRs are
in use -- once for all misses and once for read misses only.

MSHR files report ``(start, end, is_read)`` intervals as misses are
registered; the distribution is computed by an event sweep at the end of
the run.
"""

from __future__ import annotations

from typing import Dict, List, Tuple


class MshrOccupancy:
    """Time-weighted occupancy histogram built from miss intervals."""

    def __init__(self, max_n: int = 8):
        self.max_n = max_n
        self._events_all: List[Tuple[int, int]] = []
        self._events_read: List[Tuple[int, int]] = []

    def add_interval(self, start: int, end: int, is_read: bool) -> None:
        if end <= start:
            return
        self._events_all.append((start, 1))
        self._events_all.append((end, -1))
        if is_read:
            self._events_read.append((start, 1))
            self._events_read.append((end, -1))

    def reset(self) -> None:
        self._events_all.clear()
        self._events_read.clear()

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable snapshot: the raw (time, delta) event lists,
        so distributions recompute exactly after a round trip."""
        return {"max_n": self.max_n,
                "events_all": [list(e) for e in self._events_all],
                "events_read": [list(e) for e in self._events_read]}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "MshrOccupancy":
        out = cls(max_n=int(data["max_n"]))
        out._events_all = [(int(t), int(d)) for t, d in data["events_all"]]
        out._events_read = [(int(t), int(d)) for t, d in data["events_read"]]
        return out

    @staticmethod
    def _sweep(events: List[Tuple[int, int]], max_n: int) -> List[float]:
        """time spent at each occupancy level, index 0 unused."""
        time_at = [0.0] * (max_n + 2)
        if not events:
            return time_at
        events.sort()
        level = 0
        prev_t = events[0][0]
        for t, delta in events:
            if t > prev_t and level > 0:
                time_at[min(level, max_n + 1)] += t - prev_t
            level += delta
            prev_t = t
        return time_at

    def distribution(self, reads_only: bool = False) -> Dict[int, float]:
        """``{n: fraction of miss-busy time with >= n outstanding}``.

        ``distribution()[1]`` is 1.0 by construction whenever any miss
        occurred.
        """
        events = self._events_read if reads_only else self._events_all
        time_at = self._sweep(list(events), self.max_n)
        busy = sum(time_at[1:])
        if busy <= 0:
            return {n: 0.0 for n in range(1, self.max_n + 1)}
        out = {}
        for n in range(1, self.max_n + 1):
            out[n] = sum(time_at[n:]) / busy
        return out

    def mean_occupancy(self, reads_only: bool = False) -> float:
        """Average number of MSHRs in use over miss-busy time."""
        events = self._events_read if reads_only else self._events_all
        time_at = self._sweep(list(events), self.max_n)
        busy = sum(time_at[1:])
        if busy <= 0:
            return 0.0
        weighted = sum(n * t for n, t in enumerate(time_at))
        return weighted / busy


class MshrOccupancyGroup:
    """Per-cache occupancy collectors aggregated by time-weighted
    averaging (MSHRs are per cache; summing events across caches would
    fabricate overlap that no single MSHR file ever saw)."""

    def __init__(self, n_caches: int, max_n: int = 8):
        self.max_n = max_n
        self.collectors = [MshrOccupancy(max_n) for _ in range(n_caches)]

    def __getitem__(self, index: int) -> MshrOccupancy:
        return self.collectors[index]

    def reset(self) -> None:
        for collector in self.collectors:
            collector.reset()

    def to_dict(self) -> Dict[str, object]:
        return {"max_n": self.max_n,
                "collectors": [c.to_dict() for c in self.collectors]}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "MshrOccupancyGroup":
        out = cls(n_caches=0, max_n=int(data["max_n"]))
        out.collectors = [MshrOccupancy.from_dict(c)
                          for c in data["collectors"]]
        return out

    def distribution(self, reads_only: bool = False) -> Dict[int, float]:
        """Busy-time-weighted average of the per-cache distributions."""
        weighted = {n: 0.0 for n in range(1, self.max_n + 1)}
        total_busy = 0.0
        for collector in self.collectors:
            events = collector._events_read if reads_only \
                else collector._events_all
            time_at = MshrOccupancy._sweep(list(events), self.max_n)
            busy = sum(time_at[1:])
            if busy <= 0:
                continue
            dist = collector.distribution(reads_only)
            for n, frac in dist.items():
                weighted[n] += frac * busy
            total_busy += busy
        if total_busy <= 0:
            return {n: 0.0 for n in range(1, self.max_n + 1)}
        return {n: v / total_busy for n, v in weighted.items()}

    def mean_occupancy(self, reads_only: bool = False) -> float:
        dist = self.distribution(reads_only)
        return sum(dist.values())
