"""Simulation validation, in the spirit of paper section 2.3.

The authors validated their trace-driven simulator by checking cache
behaviour, locking characteristics and speedup against the real
AlphaServer and against published studies.  We have no hardware, but the
same *internal* consistency checks apply and are exposed here (and
exercised by the test suite):

* :func:`check_determinism` -- identical runs produce identical cycle
  counts (a prerequisite for every comparison in the paper).
* :func:`check_scaling` -- four processors complete the same total work
  faster than one (the workload actually parallelizes).
* :func:`check_lock_correctness` -- mutual exclusion holds: every
  critical section observed the lock held by its own process.
* :func:`check_stall_accounting` -- the execution-time breakdown
  conserves simulated time (the paper's attribution convention accounts
  for every cycle exactly once).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.core.experiment import run_simulation
from repro.core.workloads import Workload, dss_workload, oltp_workload
from repro.params import SystemParams, Tools, default_system
from repro.system.machine import Machine


@dataclass
class ValidationResult:
    name: str
    passed: bool
    detail: str

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: {self.detail}"


def check_determinism(params: SystemParams = None,
                      workload: Workload = None,
                      instructions: int = 10_000) -> ValidationResult:
    """Two identical simulations must agree cycle for cycle."""
    params = params or default_system()
    runs = []
    for _ in range(2):
        wl = workload or oltp_workload()
        runs.append(run_simulation(params, wl,
                                   instructions=instructions,
                                   warmup=instructions))
    passed = runs[0].cycles == runs[1].cycles
    return ValidationResult(
        "determinism", passed,
        f"cycles {runs[0].cycles} vs {runs[1].cycles}")


def check_scaling(instructions: int = 24_000) -> ValidationResult:
    """Four CPUs complete the same total work in fewer cycles than one
    (paper 2.3: verified the speedup of the simulated system)."""
    up = run_simulation(default_system(n_nodes=1, mesh_width=1),
                        oltp_workload(), instructions=instructions,
                        warmup=instructions)
    mp = run_simulation(default_system(), oltp_workload(),
                        instructions=instructions, warmup=instructions)
    speedup = up.cycles / mp.cycles
    return ValidationResult(
        "scaling", speedup > 1.5,
        f"1->4 CPU speedup {speedup:.2f}x for equal total work")


def check_lock_correctness(instructions: int = 30_000
                           ) -> ValidationResult:
    """Mutual exclusion: the lock table never assigns one lock to two
    holders, and every release comes from the current holder."""
    machine = Machine(default_system(),
                      oltp_workload().generators(4))
    violations = []
    original = dict.__setitem__  # sanity: we just observe the table

    class _WatchedLocks(dict):
        def __setitem__(self, key, value):
            if key in self and self[key] != value:
                violations.append((key, self[key], value))
            original(self, key, value)

    watched = _WatchedLocks()
    machine.lock_table = watched
    for core in machine.cores:
        for physical in core.physical_cores():
            physical.lock_table = watched
    machine.run(instructions)
    return ValidationResult(
        "lock-correctness", not violations,
        f"{len(violations)} double-grant(s) observed")


def check_stall_accounting(instructions: int = 10_000
                           ) -> ValidationResult:
    """Busy + stall + idle must equal cores x cycles (within the tick
    granularity)."""
    machine = Machine(default_system(),
                      oltp_workload().generators(4))
    cycles = machine.run(instructions)
    accounted = sum(machine.breakdown().cycles)
    expected = cycles * machine.params.n_nodes
    error = abs(accounted - expected) / expected
    return ValidationResult(
        "stall-accounting", error < 0.02,
        f"accounted {accounted:.0f} vs {expected} core-cycles "
        f"({error:.2%} error)")


def check_sanitizer_neutrality(workload: str = "oltp",
                               instructions: int = 10_000
                               ) -> ValidationResult:
    """The runtime sanitizer (``Tools.check``) must be a pure
    observer: a sanitized run passes every invariant *and* reproduces
    the plain run's cycle count exactly."""
    from repro.check.invariants import InvariantViolation
    factory = oltp_workload if workload == "oltp" else dss_workload
    params = default_system()
    plain = run_simulation(params, factory(), instructions=instructions,
                           warmup=instructions)
    try:
        checked = run_simulation(params, factory(),
                                 instructions=instructions,
                                 warmup=instructions,
                                 tools=Tools(check=True))
    except InvariantViolation as violation:
        return ValidationResult(f"sanitizer-{workload}", False,
                                f"invariant violated: {violation}")
    passed = plain.cycles == checked.cycles
    return ValidationResult(
        f"sanitizer-{workload}", passed,
        f"cycles {plain.cycles} plain vs {checked.cycles} sanitized")


ALL_CHECKS: Dict[str, Callable[[], ValidationResult]] = {
    "determinism": check_determinism,
    "scaling": check_scaling,
    "lock-correctness": check_lock_correctness,
    "stall-accounting": check_stall_accounting,
    "sanitizer-oltp": check_sanitizer_neutrality,
    "sanitizer-dss": lambda: check_sanitizer_neutrality("dss"),
}


def run_all(verbose: bool = True) -> List[ValidationResult]:
    """Run every validation check; returns the results."""
    results = []
    for name, check in ALL_CHECKS.items():
        result = check()
        results.append(result)
        if verbose:
            print(result)
    return results
