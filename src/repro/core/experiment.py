"""Simulation runner: build a machine, warm it up, measure, and report.

:func:`run_simulation` is the single entry point used by tests, examples
and benchmarks.  It reproduces the paper's methodology: the machine runs a
warmup period whose statistics are discarded (section 2.2: "warmup
transients were ignored"), then a measurement period; execution time is
the number of machine cycles needed to retire the requested number of
instructions across all processors.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Iterator, Optional

from repro.core.workloads import Workload
from repro.mem.coherence import CoherenceStats
from repro.params import SystemParams, Tools
from repro.stats.breakdown import ExecutionBreakdown
from repro.stats.mshr import MshrOccupancyGroup
from repro.stats.sharing import SharingReport, sharing_characterization
from repro.system.machine import Machine

#: Default measurement length (dynamic instructions across all CPUs).
DEFAULT_INSTRUCTIONS = 80_000
DEFAULT_WARMUP = 40_000


def _compact_json(value: object) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


@dataclass
class SimulationResult:
    """Everything the paper's figures need from one run."""

    params: SystemParams
    workload: str
    cycles: int
    instructions: int
    breakdown: ExecutionBreakdown
    miss_rates: Dict[str, float]
    misprediction_rate: float
    coherence: CoherenceStats
    l1d_mshr: MshrOccupancyGroup
    l2_mshr: MshrOccupancyGroup
    stream_buffer_hit_rate: float = 0.0
    idle_fraction: float = 0.0

    @property
    def execution_time(self) -> int:
        """Cycles to complete the measured work (lower is better)."""
        return self.cycles

    @property
    def ipc(self) -> float:
        """Aggregate instructions per cycle per processor."""
        n = self.params.n_nodes
        return self.instructions / (self.cycles * n) if self.cycles else 0.0

    def sharing(self) -> SharingReport:
        return sharing_characterization(self.coherence)

    def normalized_to(self, base: "SimulationResult") -> float:
        return self.execution_time / base.execution_time

    def _fields(self, l1d_mshr: object,
                l2_mshr: object) -> Dict[str, object]:
        from repro.params_io import params_to_dict
        return {
            "params": params_to_dict(self.params),
            "workload": self.workload,
            "cycles": self.cycles,
            "instructions": self.instructions,
            "breakdown": self.breakdown.to_dict(),
            "miss_rates": dict(self.miss_rates),
            "misprediction_rate": self.misprediction_rate,
            "coherence": self.coherence.to_dict(),
            "l1d_mshr": l1d_mshr,
            "l2_mshr": l2_mshr,
            "stream_buffer_hit_rate": self.stream_buffer_hit_rate,
            "idle_fraction": self.idle_fraction,
        }

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable snapshot of the full result.

        The encoding is exact (raw counters and cycle lists, no derived
        ratios), so ``from_dict(to_dict(r))`` reproduces every figure
        table byte-for-byte.  This is what the result cache stores, and
        what result digests hash.
        """
        return self._fields(self.l1d_mshr.to_dict(), self.l2_mshr.to_dict())

    def to_json_chunks(self) -> Iterator[str]:
        """:meth:`to_dict` as compact, key-sorted JSON text, in chunks.

        The text is ``json.dumps(self.to_dict(), sort_keys=True,
        separators=(",", ":"))``, but the MSHR occupancy logs are
        encoded straight from their columns, so their event lists are
        never built.  The two logs are adjacent in key order; everything
        before and after them is encoded by :func:`json.dumps`.
        """
        fields = self._fields(None, None)
        head = _compact_json({key: value for key, value in fields.items()
                              if key < "l1d_mshr"})
        tail = _compact_json({key: value for key, value in fields.items()
                              if key > "l2_mshr"})
        yield head[:-1] + ',"l1d_mshr":'
        yield from self.l1d_mshr.json_chunks()
        yield ',"l2_mshr":'
        yield from self.l2_mshr.json_chunks()
        yield "," + tail[1:]

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SimulationResult":
        from repro.params_io import params_from_dict
        # Canonical level order: JSON encoders may sort keys, and dump()
        # prints miss rates in insertion order.
        raw_rates = data["miss_rates"]
        miss_rates = {k: raw_rates[k] for k in ("l1i", "l1d", "l2")
                      if k in raw_rates}
        miss_rates.update((k, v) for k, v in raw_rates.items()
                          if k not in miss_rates)
        return cls(
            params=params_from_dict(data["params"]),
            workload=data["workload"],
            cycles=int(data["cycles"]),
            instructions=int(data["instructions"]),
            breakdown=ExecutionBreakdown.from_dict(data["breakdown"]),
            miss_rates=miss_rates,
            misprediction_rate=float(data["misprediction_rate"]),
            coherence=CoherenceStats.from_dict(data["coherence"]),
            l1d_mshr=MshrOccupancyGroup.from_dict(data["l1d_mshr"]),
            l2_mshr=MshrOccupancyGroup.from_dict(data["l2_mshr"]),
            stream_buffer_hit_rate=float(data["stream_buffer_hit_rate"]),
            idle_fraction=float(data["idle_fraction"]),
        )

    def dump(self) -> str:
        """Full text report of the run (stats-file style)."""
        from repro.stats.traffic import traffic_report
        lines = [
            f"workload           {self.workload}",
            f"nodes              {self.params.n_nodes}",
            f"instructions       {self.instructions}",
            f"cycles             {self.cycles}",
            f"ipc per processor  {self.ipc:.3f}",
            f"idle fraction      {self.idle_fraction:.3f}",
            f"branch mispredict  {self.misprediction_rate:.3f}",
            "",
            "miss rates:",
        ]
        for level, rate in self.miss_rates.items():
            lines.append(f"  {level:<6s} {rate:.4f}")
        lines.append("")
        lines.append("execution-time breakdown (non-idle shares):")
        for name, share in self.breakdown.shares().items():
            if share > 0.0005:
                lines.append(f"  {name:<16s} {share:.3f}")
        lines.append("")
        lines.append(traffic_report(self.coherence,
                                    self.instructions).format())
        sharing = self.sharing()
        lines.append("")
        lines.append("sharing:")
        lines.append(f"  migratory dirty reads    "
                     f"{sharing.migratory_dirty_read_fraction:.3f}")
        lines.append(f"  migratory shared writes  "
                     f"{sharing.migratory_shared_write_fraction:.3f}")
        lines.append(f"  migratory lines          "
                     f"{sharing.migratory_lines}")
        if self.stream_buffer_hit_rate:
            lines.append(f"  stream buffer hit rate   "
                         f"{self.stream_buffer_hit_rate:.3f}")
        return "\n".join(lines)


def assemble_result(machine: Machine, workload_name: str, cycles: int,
                    instructions: int) -> SimulationResult:
    """Collect a :class:`SimulationResult` from a finished machine."""
    breakdown = machine.breakdown()
    idle = breakdown.cycles[-1]  # IDLE is the last category
    total_with_idle = sum(breakdown.cycles)
    sb_hits = sum(n.stream_buffer.hits for n in machine.nodes)
    sb_total = sb_hits + sum(n.stream_buffer.misses for n in machine.nodes)
    return SimulationResult(
        params=machine.params,
        workload=workload_name,
        cycles=cycles,
        instructions=instructions,
        breakdown=breakdown,
        miss_rates=machine.miss_rates(),
        misprediction_rate=machine.misprediction_rate(),
        coherence=machine.memory.stats,
        l1d_mshr=machine.l1d_mshr_stats,
        l2_mshr=machine.l2_mshr_stats,
        stream_buffer_hit_rate=sb_hits / sb_total if sb_total else 0.0,
        idle_fraction=idle / total_with_idle if total_with_idle else 0.0,
    )


def run_simulation(params: SystemParams, workload: Workload,
                   instructions: int = DEFAULT_INSTRUCTIONS,
                   warmup: int = DEFAULT_WARMUP,
                   seed: int = 0, tools: Tools = Tools()) -> SimulationResult:
    """Simulate ``workload`` on ``params`` and collect statistics.

    ``instructions`` counts retired instructions summed over all CPUs; the
    same total work is simulated for every configuration so execution
    times are directly comparable (as in the paper's normalized charts).
    ``tools`` arms the sanitizer and the watchdogs (:class:`Tools`).
    An exception raised while the machine runs carries the machine as
    ``__machine__``, so crash triage can record where it stopped.
    """
    generators = workload.generators(params.n_nodes, seed=seed)
    machine = Machine(params, generators, tools)
    try:
        if warmup:
            machine.run(warmup)
            machine.reset_stats()
        cycles = machine.run(instructions)
    except Exception as exc:
        exc.__machine__ = machine
        raise
    return assemble_result(machine, workload.name, cycles, instructions)
