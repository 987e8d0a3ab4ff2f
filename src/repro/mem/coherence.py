"""Invalidation-based MESI directory coherence for the CC-NUMA system.

Each physical line has a home node (from the bin-hopping frame number).
The directory tracks one of three stable global states per line --
uncached, shared (one or more clean copies), exclusive (single owner whose
copy may be dirty) -- which, combined with the owner-side E/M distinction
held in the caches, realizes the paper's four-state MESI protocol.

Latency model (Figure 1): reads serviced by local memory cost ~100 cycles,
by remote memory 160-180 depending on hop count, and dirty misses serviced
by cache-to-cache transfer 280-310 cycles.  Queueing at the home directory,
the memory banks, and the network interfaces adds contention on top of the
contentionless numbers.

Migratory sharing detection implements the paper's footnote-2 heuristic
(after Cox & Fowler / Stenstrom et al.): a line is marked migratory when
the directory receives a request for exclusive ownership while exactly two
nodes hold copies and the last writer is not the requester.

The ``flush`` transaction implements the paper's software flush /
WriteThrough hint (section 4.2): an unsolicited *sharing writeback* that
updates memory but leaves a clean shared copy in the owner's cache, so a
subsequent remote read is serviced by memory instead of cache-to-cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.params import MemoryLatencies
from repro.mem.interconnect import MeshNetwork

# Directory states.
DIR_INVALID = 0
DIR_SHARED = 1
DIR_EXCLUSIVE = 2

# Service classes returned to the node memory systems.
SVC_LOCAL = 0
SVC_REMOTE = 1
SVC_DIRTY = 2


def mask_nodes(mask: int) -> List[int]:
    """Node ids whose bits are set in ``mask``, in ascending order."""
    nodes = []
    while mask:
        low = mask & -mask
        nodes.append(low.bit_length() - 1)
        mask ^= low
    return nodes


class DirectoryEntry:
    """Directory state of one line.  Sharers are a node bitmask
    (``sharer_mask``, bit ``n`` = node ``n``): masks of a few nodes are
    cached small ints, where a ``set`` per entry costs 216 bytes even
    when empty.  The protocol uses the mask; :attr:`sharers` reads and
    assigns it as a set of node ids."""

    __slots__ = ("state", "owner", "sharer_mask", "last_writer",
                 "migratory")

    def __init__(self) -> None:
        self.state = DIR_INVALID
        self.owner = -1
        self.sharer_mask = 0
        self.last_writer = -1
        self.migratory = False

    @property
    def sharers(self) -> Set[int]:
        return set(mask_nodes(self.sharer_mask))

    @sharers.setter
    def sharers(self, nodes: Iterable[int]) -> None:
        mask = 0
        for node in nodes:
            mask |= 1 << node
        self.sharer_mask = mask


@dataclass
class CoherenceStats:
    """Sharing-pattern characterization counters (paper section 4.2)."""

    reads_local: int = 0
    reads_remote: int = 0
    reads_dirty: int = 0
    writes_local: int = 0
    writes_remote: int = 0
    writes_dirty: int = 0
    upgrades: int = 0
    invalidations_sent: int = 0
    writebacks: int = 0
    flushes: int = 0
    flush_converted_reads: int = 0    # dirty reads avoided thanks to a flush
    migratory_dirty_reads: int = 0
    migratory_writes: int = 0
    shared_writes: int = 0            # GETX on lines cached elsewhere
    migratory_lines: Set[int] = field(default_factory=set)
    migratory_write_by_line: Dict[int, int] = field(default_factory=dict)
    migratory_refs_by_pc: Dict[int, int] = field(default_factory=dict)

    def note_migratory_ref(self, pc: int, line: int, is_write: bool) -> None:
        self.migratory_refs_by_pc[pc] = \
            self.migratory_refs_by_pc.get(pc, 0) + 1
        if is_write:
            self.migratory_write_by_line[line] = \
                self.migratory_write_by_line.get(line, 0) + 1

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable snapshot; sets and int-keyed maps become
        sorted pair lists so the encoding is deterministic."""
        out: Dict[str, object] = {
            name: getattr(self, name)
            for name in ("reads_local", "reads_remote", "reads_dirty",
                         "writes_local", "writes_remote", "writes_dirty",
                         "upgrades", "invalidations_sent", "writebacks",
                         "flushes", "flush_converted_reads",
                         "migratory_dirty_reads", "migratory_writes",
                         "shared_writes")
        }
        out["migratory_lines"] = sorted(self.migratory_lines)
        out["migratory_write_by_line"] = sorted(
            self.migratory_write_by_line.items())
        out["migratory_refs_by_pc"] = sorted(
            self.migratory_refs_by_pc.items())
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CoherenceStats":
        kwargs = dict(data)
        kwargs["migratory_lines"] = set(kwargs.get("migratory_lines", ()))
        kwargs["migratory_write_by_line"] = {
            int(k): v for k, v in kwargs.get("migratory_write_by_line", ())}
        kwargs["migratory_refs_by_pc"] = {
            int(k): v for k, v in kwargs.get("migratory_refs_by_pc", ())}
        return cls(**kwargs)

    @property
    def dirty_read_fraction_migratory(self) -> float:
        if not self.reads_dirty:
            return 0.0
        return self.migratory_dirty_reads / self.reads_dirty

    @property
    def shared_write_fraction_migratory(self) -> float:
        if not self.shared_writes:
            return 0.0
        return self.migratory_writes / self.shared_writes


class CoherentMemory:
    """Directory controllers + memory banks of all nodes.

    ``invalidate_hooks`` is a list (one callable per node) invoked when the
    protocol removes a line from that node's hierarchy -- the node uses it
    to maintain cache inclusion and to detect speculative-load consistency
    violations (paper section 3.4).
    """

    def __init__(self, latencies: MemoryLatencies, mesh: MeshNetwork,
                 lines_per_page: int = 128,
                 migratory_read_speedup: float = 0.0,
                 migratory_protocol: bool = False):
        self.lat = latencies
        self.mesh = mesh
        self.n_nodes = mesh.n_nodes
        self._lines_per_page = lines_per_page
        self._dir_next_free = [0] * self.n_nodes
        self._mem_next_free = [0] * self.n_nodes
        self._entries: Dict[int, DirectoryEntry] = {}
        self.invalidate_hooks: List = [None] * self.n_nodes
        # Per-node predicate: does the node hold a *modified* copy?  An
        # exclusive-but-clean (E) line is supplied by memory; only truly
        # dirty lines need the long cache-to-cache transfer.
        self.dirty_hooks: List = [None] * self.n_nodes
        # Invoked on the old owner when a remote read demotes its
        # exclusive copy to shared: the copy stays cached but loses write
        # permission and its dirty bit (memory now holds the data).
        self.downgrade_hooks: List = [None] * self.n_nodes
        self.stats = CoherenceStats()
        self.migratory_read_speedup = migratory_read_speedup
        # Stenstrom et al. [25] adaptive protocol: reads to migratory
        # lines transfer *exclusive* ownership, eliminating the later
        # upgrade.  The paper's footnote 2 argues this gains nothing
        # under a relaxed model because write latency is already hidden;
        # the ablation benchmark verifies that claim.
        self.migratory_protocol = migratory_protocol
        self.migratory_exclusive_grants = 0
        # Forward-progress watchdog scratch: when armed (a dict), counts
        # exclusive-ownership transfers per line since the last retirement
        # machine-wide -- repeated transfers on one line with no progress
        # is the coherence-livelock signature.  None = disarmed (default);
        # never affects timing.
        self._ping: Optional[Dict[int, int]] = None

    # -- helpers -----------------------------------------------------------

    def home_of(self, line: int) -> int:
        return (line // self._lines_per_page) % self.n_nodes

    def entry(self, line: int) -> DirectoryEntry:
        e = self._entries.get(line)
        if e is None:
            e = DirectoryEntry()
            self._entries[line] = e
        return e

    def _queue(self, next_free: List[int], node: int, t: int,
               occupancy: int) -> int:
        start = max(t, next_free[node])
        next_free[node] = start + occupancy
        return start

    def _memory_latency(self, node: int, home: int, start: int
                        ) -> Tuple[int, int]:
        """(completion time, service class) for a memory-serviced request."""
        mem_start = self._queue(self._mem_next_free, home, start,
                                self.lat.memory_occupancy)
        if node == home:
            return mem_start + self.lat.local_read, SVC_LOCAL
        hops = self.mesh.hops(node, home)
        return (mem_start + self.lat.remote_read_base
                + hops * self.lat.remote_read_per_hop), SVC_REMOTE

    def _cache_to_cache_latency(self, node: int, home: int, owner: int,
                                start: int) -> int:
        hops = self.mesh.hops(node, home) + self.mesh.hops(home, owner)
        return (start + self.lat.cache_to_cache_base
                + hops * self.lat.cache_to_cache_per_hop)

    def _invalidate_node(self, node: int, line: int) -> None:
        self.stats.invalidations_sent += 1
        hook = self.invalidate_hooks[node]
        if hook is not None:
            hook(line)

    def _owner_is_dirty(self, node: int, line: int) -> bool:
        hook = self.dirty_hooks[node]
        return True if hook is None else hook(line)

    def _downgrade_node(self, node: int, line: int) -> None:
        hook = self.downgrade_hooks[node]
        if hook is not None:
            hook(line)

    # -- transactions --------------------------------------------------------

    def read(self, node: int, line: int, now: int, pc: int = 0
             ) -> Tuple[int, int, bool]:
        """Read (GETS).  Returns (completion, service class, E-granted).

        MESI: a read to an uncached line is granted exclusive-clean (E),
        enabling later silent write upgrades by the same node.
        """
        e = self.entry(line)
        home = self.home_of(line)
        inject = self.mesh.inject(node, now) if node != home else now
        start = self._queue(self._dir_next_free, home, inject,
                            self.lat.directory_occupancy)

        if e.state == DIR_EXCLUSIVE and e.owner != node:
            owner = e.owner
            if self._owner_is_dirty(owner, line):
                done = self._cache_to_cache_latency(node, home, owner, start)
                if e.migratory:
                    self.stats.migratory_dirty_reads += 1
                    self.stats.note_migratory_ref(pc, line, is_write=False)
                    if self.migratory_read_speedup:
                        # Figure 7(b) bound experiment: migratory dirty
                        # reads serviced as if memory held the data.
                        saved = int((done - start)
                                    * self.migratory_read_speedup)
                        done -= saved
                self.stats.reads_dirty += 1
                if self.migratory_protocol and e.migratory:
                    # Adaptive migratory protocol: hand the reader
                    # exclusive ownership, invalidating the old owner.
                    self._invalidate_node(owner, line)
                    e.state = DIR_EXCLUSIVE
                    e.owner = node
                    e.sharer_mask = 0
                    self.migratory_exclusive_grants += 1
                    if self._ping is not None:
                        self._ping[line] = self._ping.get(line, 0) + 1
                    return done, SVC_DIRTY, True
                # Owner's copy is demoted to shared; memory has the data.
                self._downgrade_node(owner, line)
                e.state = DIR_SHARED
                e.sharer_mask = (1 << owner) | (1 << node)
                e.owner = -1
                return done, SVC_DIRTY, False
            # Exclusive but clean (E): memory supplies; owner demoted.
            done, svc = self._memory_latency(node, home, start)
            if svc == SVC_LOCAL:
                self.stats.reads_local += 1
            else:
                self.stats.reads_remote += 1
            self._downgrade_node(owner, line)
            e.state = DIR_SHARED
            e.sharer_mask = (1 << owner) | (1 << node)
            e.owner = -1
            return done, svc, False

        done, svc = self._memory_latency(node, home, start)
        if svc == SVC_LOCAL:
            self.stats.reads_local += 1
        else:
            self.stats.reads_remote += 1
        if e.state == DIR_INVALID:
            # Exclusive-clean grant (MESI E state).
            e.state = DIR_EXCLUSIVE
            e.owner = node
            e.sharer_mask = 0
            return done, svc, True
        if e.state == DIR_EXCLUSIVE:
            # Owner re-reading after a silent drop of its own line.
            e.state = DIR_SHARED
            e.owner = -1
        e.sharer_mask |= 1 << node
        return done, svc, False

    def write(self, node: int, line: int, now: int, pc: int = 0
              ) -> Tuple[int, int]:
        """Read-exclusive / upgrade (GETX).  Returns (done, service)."""
        e = self.entry(line)
        home = self.home_of(line)
        inject = self.mesh.inject(node, now) if node != home else now
        start = self._queue(self._dir_next_free, home, inject,
                            self.lat.directory_occupancy)

        bit = 1 << node
        mask = e.sharer_mask
        copies = bin(mask).count("1") if e.state == DIR_SHARED else (
            1 if e.state == DIR_EXCLUSIVE else 0)
        cached_elsewhere = (
            (e.state == DIR_EXCLUSIVE and e.owner != node)
            or (e.state == DIR_SHARED and (mask & ~bit) != 0))
        if cached_elsewhere:
            self.stats.shared_writes += 1
            if self._ping is not None:
                self._ping[line] = self._ping.get(line, 0) + 1

        # Migratory detection heuristic (paper footnote 2).
        if (copies == 2 and e.last_writer != -1 and e.last_writer != node
                and ((mask & bit) or node == e.owner)):
            if not e.migratory:
                e.migratory = True
                self.stats.migratory_lines.add(line)
        if e.migratory and cached_elsewhere:
            self.stats.migratory_writes += 1
            self.stats.note_migratory_ref(pc, line, is_write=True)

        if e.state == DIR_EXCLUSIVE and e.owner != node:
            owner = e.owner
            if self._owner_is_dirty(owner, line):
                done = self._cache_to_cache_latency(node, home, owner, start)
                self.stats.writes_dirty += 1
                svc = SVC_DIRTY
            else:
                done, svc = self._memory_latency(node, home, start)
                if svc == SVC_LOCAL:
                    self.stats.writes_local += 1
                else:
                    self.stats.writes_remote += 1
            self._invalidate_node(owner, line)
        elif e.state == DIR_SHARED and mask & bit:
            # Upgrade: ownership grant + invalidations, no data transfer.
            # Invalidations go out in ascending node order.
            for sharer in mask_nodes(mask & ~bit):
                self._invalidate_node(sharer, line)
            if node == home:
                done = start + self.lat.local_read // 2
                svc = SVC_LOCAL
            else:
                hops = self.mesh.hops(node, home)
                done = (start + (self.lat.remote_read_base
                                 + hops * self.lat.remote_read_per_hop) // 2)
                svc = SVC_REMOTE
            self.stats.upgrades += 1
            if svc == SVC_LOCAL:
                self.stats.writes_local += 1
            else:
                self.stats.writes_remote += 1
        else:
            for sharer in mask_nodes(mask & ~bit):
                self._invalidate_node(sharer, line)
            done, svc = self._memory_latency(node, home, start)
            if svc == SVC_LOCAL:
                self.stats.writes_local += 1
            else:
                self.stats.writes_remote += 1

        e.state = DIR_EXCLUSIVE
        e.owner = node
        e.sharer_mask = 0
        e.last_writer = node
        return done, svc

    def flush(self, node: int, line: int, now: int) -> None:
        """Software sharing writeback: update memory, keep a clean copy.

        Fire-and-forget from the issuing processor's point of view; costs
        directory and memory occupancy at the home node.
        """
        e = self.entry(line)
        if e.state != DIR_EXCLUSIVE or e.owner != node:
            return
        home = self.home_of(line)
        inject = self.mesh.inject(node, now) if node != home else now
        start = self._queue(self._dir_next_free, home, inject,
                            self.lat.directory_occupancy)
        self._queue(self._mem_next_free, home, start,
                    self.lat.memory_occupancy)
        e.state = DIR_SHARED
        e.sharer_mask = 1 << node
        e.owner = -1
        self.stats.flushes += 1
        if e.migratory:
            self.stats.flush_converted_reads += 1

    def writeback(self, node: int, line: int, now: int) -> None:
        """Eviction of a dirty (owned) line: memory update, line uncached."""
        e = self._entries.get(line)
        if e is None or e.state != DIR_EXCLUSIVE or e.owner != node:
            return
        home = self.home_of(line)
        inject = self.mesh.inject(node, now) if node != home else now
        start = self._queue(self._dir_next_free, home, inject,
                            self.lat.directory_occupancy)
        self._queue(self._mem_next_free, home, start,
                    self.lat.memory_occupancy)
        e.state = DIR_INVALID
        e.owner = -1
        self.stats.writebacks += 1

    def evict_clean(self, node: int, line: int) -> None:
        """Silent drop of a shared copy (replacement hint)."""
        e = self._entries.get(line)
        if e is None:
            return
        e.sharer_mask &= ~(1 << node)
        if e.state == DIR_SHARED and not e.sharer_mask:
            e.state = DIR_INVALID
