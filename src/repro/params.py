"""System parameter model (Figure 1 of the paper).

Every simulated structure is configured from the frozen dataclasses here.
Two factory functions build complete systems:

* :func:`paper_system` -- the exact parameters of Figure 1 (1 GHz, 4-way
  issue, 64-entry window, 128KB L1s, 8MB L2, 4 nodes).
* :func:`default_system` -- a simulation-scaled configuration that divides
  cache capacities by :data:`DEFAULT_SCALE` while keeping associativities,
  latencies and processor parameters identical.  The workload generators
  scale their footprints by the same factor, so miss *ratios* and
  execution-time *shares* are preserved at Python-feasible trace lengths.

The run's tooling (sanitizer, watchdogs) is a separate :class:`Tools`
value: it never belongs to the machine description.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass

#: Capacity scale factor between the paper configuration and the default
#: simulation configuration (applies to caches and workload footprints).
DEFAULT_SCALE = 16


class ConsistencyModel(enum.Enum):
    """Hardware memory consistency model (paper section 3.4)."""

    SC = "sequential"
    PC = "processor"
    RC = "release"  # Alpha consistency, called RC in the paper


class ConsistencyImpl(enum.Enum):
    """Implementation ladder for a consistency model (paper section 3.4)."""

    STRAIGHTFORWARD = "straightforward"
    PREFETCH = "hardware prefetch from the instruction window"
    SPECULATIVE = "prefetch + speculative load execution"


@dataclass(frozen=True)
class CacheParams:
    """Geometry and timing of one cache level."""

    name: str
    size_bytes: int
    assoc: int
    line_size: int = 64
    hit_time: int = 1
    request_ports: int = 1
    mshrs: int = 8

    def __post_init__(self) -> None:
        if self.size_bytes % (self.assoc * self.line_size) != 0:
            raise ValueError(
                f"{self.name}: size {self.size_bytes} not divisible by "
                f"assoc*line ({self.assoc}*{self.line_size})"
            )
        if self.num_sets & (self.num_sets - 1):
            raise ValueError(f"{self.name}: number of sets must be a power of two")

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.assoc * self.line_size)

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_size

    def scaled(self, factor: int) -> "CacheParams":
        """Return a copy with capacity divided by ``factor``."""
        return dataclasses.replace(self, size_bytes=self.size_bytes // factor)


@dataclass(frozen=True)
class BranchPredictorParams:
    """Hybrid PA/g predictor + BTB + RAS (Figure 1)."""

    pa_table_entries: int = 4096     # per-address first-level table
    pa_history_bits: int = 12
    global_history_bits: int = 12
    choice_entries: int = 4096
    btb_entries: int = 512
    btb_assoc: int = 4
    ras_entries: int = 32
    perfect: bool = False


@dataclass(frozen=True)
class ProcessorParams:
    """Core pipeline parameters (Figure 1)."""

    out_of_order: bool = True
    issue_width: int = 4
    window_size: int = 64
    int_alus: int = 2
    fp_alus: int = 2
    addr_gen_units: int = 2
    max_spec_branches: int = 8
    mem_queue_size: int = 32
    infinite_functional_units: bool = False
    smt_contexts: int = 1      # >1: simultaneous multithreading (section 5
                               # comparison with Lo et al. [13])

    def __post_init__(self) -> None:
        if self.issue_width < 1:
            raise ValueError("issue width must be >= 1")
        if self.window_size < self.issue_width:
            raise ValueError("window must hold at least one issue group")


@dataclass(frozen=True)
class TlbParams:
    """Fully-associative TLB (Figure 1: 128 entries, 8K pages)."""

    entries: int = 128
    page_size: int = 8192
    miss_latency: int = 40  # software-walk style refill cost in cycles
    perfect: bool = False


@dataclass(frozen=True)
class MemoryLatencies:
    """Contentionless latencies in processor cycles (Figure 1).

    Remote and cache-to-cache latencies are expressed as a base plus a
    per-hop increment so a 2D mesh produces the paper's 160-180 and
    280-310 cycle ranges depending on node distance.
    """

    l2_hit: int = 20
    local_read: int = 100
    remote_read_base: int = 150
    remote_read_per_hop: int = 10
    cache_to_cache_base: int = 265
    cache_to_cache_per_hop: int = 15
    directory_occupancy: int = 6   # cycles the home directory is busy per request
    memory_occupancy: int = 10     # cycles a memory bank is busy per request


@dataclass(frozen=True)
class SchedulerParams:
    """OS scheduler model (paper section 2.2).

    The costs are scaled with the workload (transactions are ~10^3
    instructions in the scaled traces vs ~10^5 in the real workload) so
    context-switch overhead and I/O-hiding behaviour keep the same
    proportions: I/O latency is hidden as long as the other processes on
    the CPU supply more work than one blocking call takes.
    """

    context_switch_cycles: int = 150
    blocking_io_cycles: int = 8000    # latency of a blocking system call / I/O
    quantum_cycles: int = 1_000_000   # effectively: switch only on blocking calls


@dataclass(frozen=True)
class SystemParams:
    """Complete description of one simulated machine."""

    n_nodes: int = 4
    mesh_width: int = 2  # 2D mesh: n_nodes arranged mesh_width x (n/mesh_width)
    processor: ProcessorParams = ProcessorParams()
    bpred: BranchPredictorParams = BranchPredictorParams()
    l1i: CacheParams = CacheParams("L1I", 128 * 1024, 2, hit_time=1, mshrs=8)
    l1d: CacheParams = CacheParams("L1D", 128 * 1024, 2, hit_time=1,
                                   request_ports=2, mshrs=8)
    l2: CacheParams = CacheParams("L2", 8 * 1024 * 1024, 4, hit_time=20,
                                  request_ports=1, mshrs=8)
    itlb: TlbParams = TlbParams()
    dtlb: TlbParams = TlbParams()
    latencies: MemoryLatencies = MemoryLatencies()
    scheduler: SchedulerParams = SchedulerParams()
    consistency: ConsistencyModel = ConsistencyModel.RC
    consistency_impl: ConsistencyImpl = ConsistencyImpl.STRAIGHTFORWARD
    stream_buffer_entries: int = 0          # 0 disables the I-stream buffer
    branch_iprefetch: bool = False          # path-predicting I-prefetcher
                                            # (section 4.1 alternative)
    perfect_icache: bool = False
    perfect_dcache: bool = False
    migratory_read_speedup: float = 0.0     # Fig 7(b) bound: fraction shaved
                                            # off migratory dirty-read latency
    migratory_protocol: bool = False        # Stenstrom-style adaptive
                                            # protocol (footnote 2 ablation)

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError("need at least one node")
        if self.n_nodes % self.mesh_width and self.n_nodes > 1:
            raise ValueError("n_nodes must be a multiple of mesh_width")
        if self.l1i.line_size != self.l2.line_size and self.stream_buffer_entries:
            raise ValueError("stream buffer requires matching L1I/L2 line sizes")

    @property
    def page_size(self) -> int:
        return self.itlb.page_size

    def replace(self, **changes) -> "SystemParams":
        """Convenience wrapper around :func:`dataclasses.replace`."""
        return dataclasses.replace(self, **changes)

    def canonical(self) -> "SystemParams":
        """The same machine with every field this configuration never
        reads reset to its default: two configurations the model cannot
        tell apart have one canonical form, so they share one result
        cache key and one simulation.

        The one such field: under RC the core never consults the
        consistency unit (``ProcessorCore._ordered``), so
        ``consistency_impl`` becomes STRAIGHTFORWARD.
        """
        if self.consistency is ConsistencyModel.RC and \
                self.consistency_impl is not ConsistencyImpl.STRAIGHTFORWARD:
            return self.replace(
                consistency_impl=ConsistencyImpl.STRAIGHTFORWARD)
        return self


@dataclass(frozen=True)
class Tools:
    """Tooling for one run, apart from the machine it runs on.

    The sanitizer and the forward-progress watchdogs observe a run
    without changing it, so they are not part of :class:`SystemParams`:
    a job's cache key and its saved configuration never see them.  Only
    :class:`~repro.system.machine.Machine` reads them.
    """

    check: bool = False             # run the invariant sanitizer
                                    # (repro.check)
    watchdog_cycles: int = 0        # abort with WedgeError when no
                                    # instruction retires machine-wide
                                    # for this many cycles (0 = off)
    watchdog_node_cycles: int = 0   # same, per node with a runnable
                                    # process (0 = off)


def paper_system(**changes) -> SystemParams:
    """The Figure 1 configuration, optionally overridden via ``changes``."""
    return SystemParams().replace(**changes)


def default_system(scale: int = DEFAULT_SCALE, **changes) -> SystemParams:
    """The simulation-scaled configuration used by tests and benchmarks.

    Cache capacities are divided by ``scale``; everything else matches
    :func:`paper_system`.  Workload generators built through
    ``repro.trace`` apply the same factor to their footprints.
    """
    base = SystemParams()
    scaled = base.replace(
        l1i=base.l1i.scaled(scale),
        l1d=base.l1d.scaled(scale),
        l2=base.l2.scaled(scale),
    )
    return scaled.replace(**changes)
