"""Picklable job descriptions for the experiment runner.

Trace generators hold closures, RNG state and the shared
:class:`~repro.trace.database.DatabaseLayout`, so a live
:class:`~repro.core.workloads.Workload` cannot cross a process boundary.
A :class:`JobSpec` instead carries everything needed to *rebuild* the
workload inside a worker -- the system parameters, a declarative
:class:`WorkloadSpec`, and the run sizes/seed -- and exposes a stable
content fingerprint used as the result-cache key.

:data:`MODEL_VERSION` is part of every fingerprint.  Bump it whenever
simulator *semantics* change (timing model, protocol behaviour, workload
generation), so stale cached results are never reused across
behaviour-changing PRs.  Pure refactors and speedups that keep results
bit-identical must not bump it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.core.experiment import (
    DEFAULT_INSTRUCTIONS,
    DEFAULT_WARMUP,
    SimulationResult,
    run_simulation,
)
from repro.core.workloads import (
    Workload,
    dss_workload,
    oltp_workload,
    tpcc_workload,
)
from repro.params import DEFAULT_SCALE, SystemParams
from repro.params_io import params_from_dict, params_to_dict
from repro.trace.database import MigratoryHints

#: Simulator-semantics version baked into every job fingerprint.
#: 2: exclusive->shared demotions revoke the old owner's write
#:    permission and dirty bits; read prefetches only confer write
#:    permission on an actual exclusive grant.
MODEL_VERSION = 2

#: Workload kinds a spec can rebuild, with their default processes/CPU.
_WORKLOAD_FACTORIES = {
    "oltp": oltp_workload,
    "dss": dss_workload,
    "tpcc": tpcc_workload,
}


@dataclass(frozen=True)
class WorkloadSpec:
    """Declarative, picklable description of a workload.

    ``processes_per_cpu=None`` keeps the factory's default (6 for OLTP,
    4 for DSS).  Migratory hints are flattened to plain fields so the
    spec stays hashable and JSON-friendly; ``hints_pcs=None`` means "no
    PC filter" while an empty tuple filters everything out.
    """

    kind: str
    scale: int = DEFAULT_SCALE
    processes_per_cpu: Optional[int] = None
    hints_prefetch: bool = False
    hints_flush: bool = False
    hints_pcs: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.kind not in _WORKLOAD_FACTORIES:
            raise ValueError(
                f"unknown workload kind {self.kind!r}; expected one of "
                f"{sorted(_WORKLOAD_FACTORIES)}")

    @classmethod
    def from_factory(cls, factory, **kw) -> Optional["WorkloadSpec"]:
        """Map a known workload factory function to a spec (or ``None``)."""
        for kind, known in _WORKLOAD_FACTORIES.items():
            if factory is known:
                return cls(kind=kind, **kw)
        return None

    @property
    def hints(self) -> Optional[MigratoryHints]:
        if not (self.hints_prefetch or self.hints_flush):
            return None
        pc_filter = set(self.hints_pcs) if self.hints_pcs is not None \
            else None
        return MigratoryHints(prefetch=self.hints_prefetch,
                              flush=self.hints_flush, pc_filter=pc_filter)

    def build(self) -> Workload:
        """Instantiate the live workload (generators, shared layout)."""
        factory = _WORKLOAD_FACTORIES[self.kind]
        kw: Dict[str, Any] = {"scale": self.scale}
        if self.processes_per_cpu is not None:
            kw["processes_per_cpu"] = self.processes_per_cpu
        if self.kind != "dss":
            kw["hints"] = self.hints
        elif self.hints is not None:
            raise ValueError("DSS workload does not take migratory hints")
        return factory(**kw)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "scale": self.scale,
            "processes_per_cpu": self.processes_per_cpu,
            "hints_prefetch": self.hints_prefetch,
            "hints_flush": self.hints_flush,
            "hints_pcs": list(self.hints_pcs)
            if self.hints_pcs is not None else None,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "WorkloadSpec":
        pcs = data.get("hints_pcs")
        return cls(
            kind=data["kind"],
            scale=int(data.get("scale", DEFAULT_SCALE)),
            processes_per_cpu=data.get("processes_per_cpu"),
            hints_prefetch=bool(data.get("hints_prefetch", False)),
            hints_flush=bool(data.get("hints_flush", False)),
            hints_pcs=tuple(pcs) if pcs is not None else None,
        )

    @classmethod
    def from_hints(cls, kind: str,
                   hints: Optional[MigratoryHints] = None,
                   **kw) -> "WorkloadSpec":
        """Build a spec from a live :class:`MigratoryHints` object."""
        if hints is None:
            return cls(kind=kind, **kw)
        pcs = tuple(sorted(hints.pc_filter)) \
            if hints.pc_filter is not None else None
        return cls(kind=kind, hints_prefetch=hints.prefetch,
                   hints_flush=hints.flush, hints_pcs=pcs, **kw)


@dataclass(frozen=True)
class JobSpec:
    """One `run_simulation` call, described as data.

    Fully picklable and JSON-round-trippable; :meth:`fingerprint` is a
    stable content hash over the canonical JSON encoding plus
    :data:`MODEL_VERSION`, suitable as a cache key.
    """

    params: SystemParams
    workload: WorkloadSpec
    instructions: int = DEFAULT_INSTRUCTIONS
    warmup: int = DEFAULT_WARMUP
    seed: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "params": params_to_dict(self.params),
            "workload": self.workload.to_dict(),
            "instructions": self.instructions,
            "warmup": self.warmup,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JobSpec":
        return cls(
            params=params_from_dict(data["params"]),
            workload=WorkloadSpec.from_dict(data["workload"]),
            instructions=int(data["instructions"]),
            warmup=int(data["warmup"]),
            seed=int(data["seed"]),
        )

    def fingerprint(self) -> str:
        """Stable content hash of the job (includes the model version)."""
        payload = {"model_version": MODEL_VERSION, "job": self.to_dict()}
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def describe(self) -> str:
        """Short human-readable label for manifests and progress output.

        Not a cache key (that is :meth:`fingerprint`); just enough for a
        person scanning ``repro sweep-status`` to recognise the cell:
        workload kind, run sizes, seed, and a fingerprint prefix that
        disambiguates the system configuration.
        """
        return (f"{self.workload.kind} i={self.instructions} "
                f"w={self.warmup} seed={self.seed} "
                f"[{self.fingerprint()[:12]}]")

    def run(self) -> SimulationResult:
        """Execute the simulation on a freshly built workload."""
        return run_simulation(self.params, self.workload.build(),
                              instructions=self.instructions,
                              warmup=self.warmup, seed=self.seed)
