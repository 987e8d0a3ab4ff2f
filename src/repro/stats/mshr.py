"""MSHR occupancy distributions (Figure 2(d)-(g) and 3(d)-(g)).

The paper plots, for each cache, the fraction of *miss-busy* time (time
with at least one miss outstanding) during which at least ``n`` MSHRs are
in use -- once for all misses and once for read misses only.

MSHR files report ``(start, end, is_read)`` intervals as misses are
registered; the distribution is computed by an event sweep at the end of
the run.

The interval log is the only simulator structure that grows with run
length, so it is kept as flat ``array('q')`` columns of ``start, end``
pairs: 16 bytes per interval, where two boxed ``(time, delta)`` tuples
in a list cost about 170.  The sweep sorts the starts and the ends as
two plain int lists and merges them, ends first on equal times, which
visits the events in exactly the order a sort of ``(time, delta)``
tuples would, so every float it sums is the same.  Pickles carry the
columns as byte buffers.

The stored format still spells the log as ``[[start, 1], [end, -1],
...]`` event lists.  The result cache's put writes that text straight
from the columns, in chunks (:meth:`MshrOccupancy.json_chunks`), so no
event list is built on the way to disk.  :meth:`MshrOccupancy.to_dict`
still builds the lists, but only as the digest and format spelling:
result digests hash it, and :meth:`MshrOccupancy.from_dict` reads the
same lists back.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterator, List

#: Intervals per chunk of :meth:`MshrOccupancy.json_chunks` text (about
#: 50 KB of JSON).
_CHUNK_INTERVALS = 2048


def _events_json(column: array) -> Iterator[str]:
    """The compact JSON text of the event list of ``column``, in chunks:
    ``[[start,1],[end,-1],...]`` in insertion order."""
    yield "["
    step = 2 * _CHUNK_INTERVALS
    for i in range(0, len(column), step):
        part = column[i:i + step]
        text = ("[%d,1],[%d,-1]," * (len(part) // 2)) % tuple(part)
        yield text if i + step < len(column) else text[:-1]
    yield "]"


def _fractions(time_at: List[float], max_n: int) -> Dict[int, float]:
    """``{n: share of busy time with >= n outstanding}`` from a sweep."""
    busy = sum(time_at[1:])
    if busy <= 0:
        return {n: 0.0 for n in range(1, max_n + 1)}
    return {n: sum(time_at[n:]) / busy for n in range(1, max_n + 1)}


class MshrOccupancy:
    """Time-weighted occupancy histogram built from miss intervals."""

    def __init__(self, max_n: int = 8):
        self.max_n = max_n
        # start, end, start, end, ... of every kept interval, and of the
        # read misses among them.
        self._all = array("q")
        self._read = array("q")

    def add_interval(self, start: int, end: int, is_read: bool) -> None:
        if end <= start:
            return
        self._all.append(start)
        self._all.append(end)
        if is_read:
            self._read.append(start)
            self._read.append(end)

    def reset(self) -> None:
        del self._all[:]
        del self._read[:]

    @staticmethod
    def _events(column: array) -> List[List[int]]:
        out = []
        pairs = iter(column)
        for start, end in zip(pairs, pairs):
            out.append([start, 1])
            out.append([end, -1])
        return out

    @staticmethod
    def _column(events) -> array:
        """Intervals of a ``[[start, 1], [end, -1], ...]`` event list;
        raises ``ValueError`` on anything else."""
        if len(events) % 2:
            raise ValueError("MSHR event list has an unpaired event")
        column = array("q")
        pairs = iter(events)
        for (start, up), (end, down) in zip(pairs, pairs):
            if int(up) != 1 or int(down) != -1:
                raise ValueError(
                    f"MSHR events are not +1/-1 start/end pairs: "
                    f"{[start, up]}, {[end, down]}")
            start, end = int(start), int(end)
            if end <= start:
                raise ValueError(
                    f"MSHR interval ends before it starts: {start}, {end}")
            column.append(start)
            column.append(end)
        return column

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable snapshot: the raw (time, delta) event lists,
        so distributions recompute exactly after a round trip."""
        return {"max_n": self.max_n,
                "events_all": self._events(self._all),
                "events_read": self._events(self._read)}

    def json_chunks(self) -> Iterator[str]:
        """:meth:`to_dict` as compact, key-sorted JSON text, in chunks
        taken straight from the columns."""
        yield '{"events_all":'
        yield from _events_json(self._all)
        yield ',"events_read":'
        yield from _events_json(self._read)
        yield f',"max_n":{self.max_n}}}'

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "MshrOccupancy":
        out = cls(max_n=int(data["max_n"]))
        out._all = cls._column(data["events_all"])
        out._read = cls._column(data["events_read"])
        return out

    def time_at(self, reads_only: bool = False) -> List[float]:
        """Time spent at each occupancy level, index 0 unused and the
        last index counting every level above ``max_n``."""
        column = self._read if reads_only else self._all
        top = self.max_n + 1
        time_at = [0.0] * (top + 1)
        if not column:
            return time_at
        starts = sorted(column[0::2])
        ends = sorted(column[1::2])
        # Every end is after its own start, so the k-th end is after the
        # k-th start: the first event is a start, the ends due before a
        # start never run out, and the level is positive at every end.
        level = 0
        prev_t = starts[0]
        j = 0
        for t in starts:
            end = ends[j]
            while end <= t:
                if end > prev_t:
                    time_at[min(level, top)] += end - prev_t
                level -= 1
                prev_t = end
                j += 1
                end = ends[j]
            if t > prev_t and level > 0:
                time_at[min(level, top)] += t - prev_t
            level += 1
            prev_t = t
        for end in ends[j:]:
            if end > prev_t:
                time_at[min(level, top)] += end - prev_t
            level -= 1
            prev_t = end
        return time_at

    def distribution(self, reads_only: bool = False) -> Dict[int, float]:
        """``{n: fraction of miss-busy time with >= n outstanding}``.

        ``distribution()[1]`` is 1.0 by construction whenever any miss
        occurred.
        """
        return _fractions(self.time_at(reads_only), self.max_n)

    def mean_occupancy(self, reads_only: bool = False) -> float:
        """Average number of MSHRs in use over miss-busy time."""
        time_at = self.time_at(reads_only)
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

    def json_chunks(self) -> Iterator[str]:
        """:meth:`to_dict` as compact, key-sorted JSON text, in chunks."""
        yield '{"collectors":['
        for index, collector in enumerate(self.collectors):
            if index:
                yield ","
            yield from collector.json_chunks()
        yield f'],"max_n":{self.max_n}}}'

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
            time_at = collector.time_at(reads_only)
            busy = sum(time_at[1:])
            if busy <= 0:
                continue
            for n, frac in _fractions(time_at, collector.max_n).items():
                weighted[n] += frac * busy
            total_busy += busy
        if total_busy <= 0:
            return {n: 0.0 for n in range(1, self.max_n + 1)}
        return {n: v / total_busy for n, v in weighted.items()}

    def mean_occupancy(self, reads_only: bool = False) -> float:
        return sum(self.distribution(reads_only).values())
