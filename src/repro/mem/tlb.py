"""Virtual memory: bin-hopping page mapping and fully-associative TLBs.

The paper's virtual memory system uses a bin-hopping page-mapping policy
with 8K pages and separate 128-entry fully-associative instruction and data
TLBs (Figure 1).  Bin-hopping assigns successive page frames round-robin,
which in a CC-NUMA machine also spreads pages across home nodes.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Tuple

from repro.params import TlbParams


class PageTable:
    """Global virtual-to-physical mapping shared by all processes.

    The SGA is a single shared mapping in Oracle (all processes attach the
    same addresses), so one table suffices: frames are handed out in
    bin-hopping (round-robin) order on first touch.
    """

    def __init__(self, page_size: int = 8192, n_nodes: int = 4):
        self.page_size = page_size
        self.n_nodes = n_nodes
        self._page_shift = page_size.bit_length() - 1
        self._frames: Dict[int, int] = {}
        self._next_frame = 0

    @property
    def page_shift(self) -> int:
        return self._page_shift

    def frame_of(self, vpage: int) -> int:
        frame = self._frames.get(vpage)
        if frame is None:
            frame = self._next_frame
            self._next_frame += 1
            self._frames[vpage] = frame
        return frame

    def home_node(self, frame: int) -> int:
        """Home memory/directory node of a physical frame."""
        return frame % self.n_nodes

    def translate_line(self, vaddr: int, line_shift: int = 6) -> int:
        """Virtual byte address -> physical line number."""
        vpage = vaddr >> self._page_shift
        frame = self.frame_of(vpage)
        lines_per_page = self.page_size >> line_shift
        offset_line = (vaddr >> line_shift) & (lines_per_page - 1)
        return frame * lines_per_page + offset_line

    @property
    def pages_mapped(self) -> int:
        return len(self._frames)


class Tlb:
    """Fully-associative LRU TLB over a :class:`PageTable`.

    Each entry holds its page's frame, so a hit translates without
    consulting the page table.  Frames never move once assigned, so a
    cached frame is always the page table's.
    """

    def __init__(self, params: TlbParams, page_table: PageTable):
        self.params = params
        self.page_table = page_table
        self._entries: "OrderedDict[int, int]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def translate(self, vpage: int) -> Tuple[int, bool]:
        """``(frame, hit)`` for ``vpage``.  A miss installs the
        translation (refill cost is charged by the caller via
        ``params.miss_latency``); a perfect TLB always hits."""
        if self.params.perfect:
            self.hits += 1
            return self.page_table.frame_of(vpage), True
        entries = self._entries
        frame = entries.get(vpage)
        if frame is not None:
            entries.move_to_end(vpage)
            self.hits += 1
            return frame, True
        self.misses += 1
        frame = entries[vpage] = self.page_table.frame_of(vpage)
        if len(entries) > self.params.entries:
            entries.popitem(last=False)
        return frame, False

    @property
    def miss_rate(self) -> float:
        total = self.hits + self.misses
        return self.misses / total if total else 0.0
