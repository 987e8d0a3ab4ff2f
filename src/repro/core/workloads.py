"""Workload definitions binding trace generators to machine configurations.

The paper runs eight server processes per CPU for OLTP and four for DSS
(section 2.3).  A :class:`Workload` owns the shared database layout and
builds one trace generator per process; all generators of one machine
share the layout, so cross-process sharing (SGA metadata, locks) produces
real coherence traffic.

Each factory imports its trace generator when it is called, so loading
this module (as every job description does) compiles no generator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator, List, Optional

from repro.params import DEFAULT_SCALE
from repro.trace.database import DatabaseLayout, MigratoryHints

if TYPE_CHECKING:
    from repro.trace.dss import DssParams
    from repro.trace.oltp import OltpParams
    from repro.trace.tpcc import TpccParams

#: Default measurement length (dynamic instructions across all CPUs).
DEFAULT_INSTRUCTIONS = 80_000
DEFAULT_WARMUP = 40_000


@dataclass
class Workload:
    """A named workload: layout + per-process generator factory."""

    name: str
    layout: DatabaseLayout
    processes_per_cpu: int
    _factory: Callable[[int, int, int], Iterator] = field(repr=False)

    def generators(self, n_cpus: int, seed: int = 0) -> List[Iterator]:
        n_processes = self.processes_per_cpu * n_cpus
        return [self._factory(pid, seed, n_processes)
                for pid in range(n_processes)]


def oltp_workload(scale: int = DEFAULT_SCALE,
                  params: Optional[OltpParams] = None,
                  hints: Optional[MigratoryHints] = None,
                  processes_per_cpu: int = 6) -> Workload:
    """TPC-B-like OLTP (paper sections 2.1.1, 2.3).

    ``scale`` divides footprints to match :func:`repro.params.default_system`;
    ``hints`` enables the section-4.2 software prefetch/flush optimization.
    """
    from repro.trace.oltp import OltpParams, OltpTraceGenerator
    oltp_params = (params or OltpParams()).scaled(scale)
    layout = DatabaseLayout().scaled(scale)

    def factory(pid: int, seed: int, _n_processes: int) -> Iterator:
        return OltpTraceGenerator(pid, layout, oltp_params, seed=seed,
                                  hints=hints)

    return Workload("oltp", layout, processes_per_cpu, factory)


def tpcc_workload(scale: int = DEFAULT_SCALE,
                  params: Optional[OltpParams] = None,
                  tpcc: Optional[TpccParams] = None,
                  hints: Optional[MigratoryHints] = None,
                  processes_per_cpu: int = 6) -> Workload:
    """TPC-C-like OLTP mix (paper section 2.1.1's comparison point)."""
    from repro.trace.oltp import OltpParams
    from repro.trace.tpcc import TpccParams, TpccTraceGenerator
    oltp_params = (params or OltpParams()).scaled(scale)
    tpcc_params = (tpcc or TpccParams()).scaled(scale)
    layout = DatabaseLayout().scaled(scale)

    def factory(pid: int, seed: int, _n_processes: int) -> Iterator:
        return TpccTraceGenerator(pid, layout, oltp_params,
                                  tpcc=tpcc_params, seed=seed,
                                  hints=hints)

    return Workload("tpcc", layout, processes_per_cpu, factory)


def dss_workload(scale: int = DEFAULT_SCALE,
                 params: Optional[DssParams] = None,
                 processes_per_cpu: int = 4) -> Workload:
    """TPC-D Query-6-like DSS (paper sections 2.1.2, 2.3)."""
    from repro.trace.dss import DssParams, DssTraceGenerator
    dss_params = (params or DssParams()).scaled(scale)
    layout = DatabaseLayout().scaled(scale)

    def factory(pid: int, seed: int, n_processes: int) -> Iterator:
        return DssTraceGenerator(pid, layout, dss_params, seed=seed,
                                 n_processes=n_processes)

    return Workload("dss", layout, processes_per_cpu, factory)
