"""repro: reproduction of "Performance of Database Workloads on
Shared-Memory Systems with Out-of-Order Processors" (ASPLOS 1998).

A from-scratch, cycle-level CC-NUMA multiprocessor simulator plus
synthetic OLTP (TPC-B-like) and DSS (TPC-D-Q6-like) workload generators
that reproduce the paper's characterization and all of its experiments.

Quickstart::

    from repro import default_system, oltp_workload, run_simulation

    result = run_simulation(default_system(), oltp_workload())
    print(result.ipc, result.breakdown.summary_row())

See ``DESIGN.md`` for the system inventory and ``EXPERIMENTS.md`` for the
paper-vs-measured record of every table and figure.
"""

import importlib

__version__ = "1.0.0"

#: Public name -> the module that defines it.  Resolved on first use
#: (PEP 562), so ``import repro`` compiles this file only.
_EXPORTS = {
    "ConsistencyModel": "repro.params",
    "ConsistencyImpl": "repro.params",
    "SystemParams": "repro.params",
    "default_system": "repro.params",
    "paper_system": "repro.params",
    "Workload": "repro.core.workloads",
    "oltp_workload": "repro.core.workloads",
    "dss_workload": "repro.core.workloads",
    "tpcc_workload": "repro.core.workloads",
    "SimulationResult": "repro.core.experiment",
    "run_simulation": "repro.core.experiment",
    "profile_migratory_pcs": "repro.core.optimizations",
    "migratory_hints": "repro.core.optimizations",
    "Machine": "repro.system.machine",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute "
                             f"{name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value
