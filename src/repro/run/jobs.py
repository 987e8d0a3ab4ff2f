"""Picklable job descriptions for the experiment runner.

Trace generators hold closures, RNG state and the shared
:class:`~repro.trace.database.DatabaseLayout`, so a live
:class:`~repro.core.workloads.Workload` cannot cross a process boundary.
A :class:`JobSpec` instead carries everything needed to *rebuild* the
workload inside a worker -- the system parameters, a declarative
:class:`WorkloadSpec`, the run sizes/seed and the run's
:class:`~repro.params.Tools` -- and exposes a stable content
fingerprint, taken without the tools, used as the result-cache key.

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
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

from repro.core.workloads import (
    DEFAULT_INSTRUCTIONS,
    DEFAULT_WARMUP,
    Workload,
    dss_workload,
    oltp_workload,
    tpcc_workload,
)
from repro.params import DEFAULT_SCALE, SystemParams, Tools
from repro.params_io import params_from_dict, params_to_dict
from repro.trace.database import MigratoryHints

if TYPE_CHECKING:
    from repro.core.experiment import SimulationResult

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


def keyed_job(job: Dict[str, Any]) -> Dict[str, Any]:
    """``job`` (:meth:`JobSpec.to_dict` data) without its ``"tools"``:
    what a cache key is taken over and a cache entry stores, because a
    sanitized or watchdog-armed run gives the plain run's result."""
    return {key: value for key, value in job.items() if key != "tools"}


def fingerprint_of(job: Dict[str, Any]) -> str:
    """The cache key of a job given as :meth:`JobSpec.to_dict` data: a
    content hash of the job, with its params in their
    :meth:`~repro.params.SystemParams.canonical` form, and the current
    :data:`MODEL_VERSION`, over :func:`keyed_job`.  Jobs whose machines
    differ only in fields the model never reads share one key.

    The one recipe for the key, so ``repro gc`` tells an entry stored
    under its job's current key from one no lookup can reach.
    """
    params = params_from_dict(job["params"]).canonical()
    payload = {"model_version": MODEL_VERSION,
               "job": dict(keyed_job(job), params=params_to_dict(params))}
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class JobSpec:
    """One `run_simulation` call, described as data.

    Fully picklable and JSON-round-trippable: :meth:`to_dict` is the
    one job dict the runner ships, the triage bundle records and
    :meth:`from_dict` rebuilds, ``tools`` included.  :meth:`fingerprint`
    is a stable content hash over the canonical JSON encoding, without
    the tools, plus :data:`MODEL_VERSION`, suitable as a cache key
    (:func:`fingerprint_of`).
    """

    params: SystemParams
    workload: WorkloadSpec
    instructions: int = DEFAULT_INSTRUCTIONS
    warmup: int = DEFAULT_WARMUP
    seed: int = 0
    tools: Tools = Tools()

    def to_dict(self) -> Dict[str, Any]:
        tools = self.tools
        return {
            "params": params_to_dict(self.params),
            "workload": self.workload.to_dict(),
            "instructions": self.instructions,
            "warmup": self.warmup,
            "seed": self.seed,
            "tools": {"check": tools.check,
                      "watchdog_cycles": tools.watchdog_cycles,
                      "watchdog_node_cycles": tools.watchdog_node_cycles},
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JobSpec":
        """Rebuild a job from :meth:`to_dict` data (a job stored
        without ``"tools"`` runs with none)."""
        return cls(
            params=params_from_dict(data["params"]),
            workload=WorkloadSpec.from_dict(data["workload"]),
            instructions=int(data["instructions"]),
            warmup=int(data["warmup"]),
            seed=int(data["seed"]),
            tools=Tools(**data.get("tools", {})),
        )

    def fingerprint(self) -> str:
        """Stable content hash of the job (includes the model version)."""
        return fingerprint_of(self.to_dict())

    def describe(self, fingerprint: Optional[str] = None) -> str:
        """Short human-readable label for manifests and progress output.

        Not a cache key (that is :meth:`fingerprint`, passed in as
        ``fingerprint`` when the caller already has it); just enough for
        a person scanning ``repro sweep-status`` to recognise the cell:
        workload kind, run sizes, seed, and a fingerprint prefix that
        disambiguates the system configuration.
        """
        fingerprint = fingerprint or self.fingerprint()
        return (f"{self.workload.kind} i={self.instructions} "
                f"w={self.warmup} seed={self.seed} [{fingerprint[:12]}]")

    def run(self) -> SimulationResult:
        """Execute the simulation on a freshly built workload."""
        from repro.core.experiment import run_simulation
        return run_simulation(self.params, self.workload.build(),
                              instructions=self.instructions,
                              warmup=self.warmup, seed=self.seed,
                              tools=self.tools)
