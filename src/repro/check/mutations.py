"""Seeded protocol/ordering bugs proving the sanitizer has teeth.

Each mutation is a context manager that monkeypatches a *class* method
with a subtly broken variant, mimicking a realistic simulator bug.  The
self-test builds a sanitized machine inside the mutation context and
asserts the bug is detected -- by an
:class:`~repro.check.invariants.InvariantViolation` or by a litmus
failure.  A mutation that survives undetected means a checker regression
and fails ``repro check``.

Mutations must be applied *before* machine construction: the checker
captures bound methods at attach time, so only class-level patches made
beforehand are seen through the wrappers.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.check.invariants import InvariantViolation
from repro.check.litmus import store_buffering
from repro.core.experiment import run_simulation
from repro.core.workloads import oltp_workload
from repro.cpu.consistency import ConsistencyUnit
from repro.cpu.core import ProcessorCore
from repro.mem.coherence import CoherentMemory
from repro.params import ConsistencyImpl, ConsistencyModel, default_system
from repro.stats.breakdown import ExecutionBreakdown
from repro.system.machine import WedgeError


@contextlib.contextmanager
def mutate_stale_sharer():
    """GETX forgets to clear the sharer set: stale copies survive a
    write (breaks the single-owner invariant)."""
    orig = CoherentMemory.write

    def write(self, node, line, now, pc=0):
        entry = self.entry(line)
        before = set(entry.sharers)
        result = orig(self, node, line, now, pc)
        entry.sharers |= before - {node}
        return result

    CoherentMemory.write = write
    try:
        yield
    finally:
        CoherentMemory.write = orig


@contextlib.contextmanager
def mutate_skip_invalidate():
    """The directory counts invalidations but never delivers them:
    remote caches keep copies the directory no longer tracks."""
    orig = CoherentMemory._invalidate_node

    def skip(self, node, line):
        self.stats.invalidations_sent += 1

    CoherentMemory._invalidate_node = skip
    try:
        yield
    finally:
        CoherentMemory._invalidate_node = orig


@contextlib.contextmanager
def mutate_pc_store_overlap():
    """The PC store buffer drains with RC-style overlap, letting stores
    perform out of the one-at-a-time order PC requires."""
    orig = ConsistencyUnit.store_buffer_overlap
    ConsistencyUnit.store_buffer_overlap = property(lambda self: 8)
    try:
        yield
    finally:
        ConsistencyUnit.store_buffer_overlap = orig


@contextlib.contextmanager
def mutate_no_rollback():
    """Speculative loads ignore invalidations of their lines (stale
    values reach retirement -- the R10000-style rollback is gone)."""
    orig = ConsistencyUnit.check_violation

    def check_violation(self, line):
        return None

    ConsistencyUnit.check_violation = check_violation
    try:
        yield
    finally:
        ConsistencyUnit.check_violation = orig


@contextlib.contextmanager
def mutate_time_warp():
    """Directory reads complete thousands of cycles before they were
    requested (event-time monotonicity broken)."""
    orig = CoherentMemory.read

    def read(self, node, line, now, pc=0):
        done, svc, excl = orig(self, node, line, now, pc)
        return done - 5_000, svc, excl

    CoherentMemory.read = read
    try:
        yield
    finally:
        CoherentMemory.read = orig


@contextlib.contextmanager
def mutate_lost_stall_time():
    """Half of every stall cycle vanishes from the execution-time
    breakdown (the paper's accounting no longer conserves time)."""
    orig = ExecutionBreakdown.stall

    def stall(self, category, cycles):
        orig(self, category, cycles * 0.5)

    ExecutionBreakdown.stall = stall
    try:
        yield
    finally:
        ExecutionBreakdown.stall = orig


@contextlib.contextmanager
def mutate_lost_lock_release():
    """Lock releases retire but the lock table keeps the old holder:
    every other process spins on the acquire forever.  Invisible to the
    coherence/consistency sanitizer (no protocol rule is broken) -- only
    the forward-progress watchdog can catch it."""
    orig = ProcessorCore._retire

    def retire(self, now):
        before = dict(self.lock_table)
        orig(self, now)
        for addr, pid in before.items():
            if addr not in self.lock_table:
                self.lock_table[addr] = pid   # the release is lost

    ProcessorCore._retire = retire
    try:
        yield
    finally:
        ProcessorCore._retire = orig


def _wedge_detector() -> str:
    """Watchdog-armed OLTP run; returns the wedge classification or ''.

    OLTP's lock contention guarantees a lost release leaves some node
    spinning on an acquire for the rest of the run;
    ``watchdog_node_cycles`` is sized well above any legitimate stall at
    this scale so the unmutated run passes.
    """
    params = default_system(watchdog_node_cycles=8_000)
    try:
        run_simulation(params, oltp_workload(), instructions=12_000,
                       warmup=0)
    except WedgeError as wedge:
        return str(wedge)
    return ""


@dataclass
class MutationResult:
    name: str
    description: str
    detected: bool
    detail: str

    def __str__(self) -> str:
        status = "DETECTED" if self.detected else "MISSED"
        return f"[{status}] {self.name}: {self.detail}"


def _sanitized_oltp(model: ConsistencyModel = ConsistencyModel.RC,
                    impl: ConsistencyImpl =
                    ConsistencyImpl.STRAIGHTFORWARD) -> str:
    """A small sanitizer-enabled OLTP run; returns '' or the violation."""
    params = default_system(consistency=model, consistency_impl=impl,
                            check=True)
    try:
        run_simulation(params, oltp_workload(), instructions=6_000,
                       warmup=3_000)
    except InvariantViolation as violation:
        return str(violation)
    return ""


def _oltp_detector(model=ConsistencyModel.RC,
                   impl=ConsistencyImpl.STRAIGHTFORWARD
                   ) -> Callable[[], str]:
    return lambda: _sanitized_oltp(model, impl)


def _sb_litmus_detector() -> str:
    """SC+speculative store-buffering litmus: a missing rollback shows
    up as the forbidden outcome (or as an invariant violation first)."""
    try:
        result = store_buffering(ConsistencyModel.SC,
                                 ConsistencyImpl.SPECULATIVE, check=True)
    except InvariantViolation as violation:
        return str(violation)
    if not result.passed:
        return f"litmus store-buffering failed: {result.detail}"
    return ""


#: name -> (context manager, description, detector returning '' if missed).
MUTATIONS: Dict[str, tuple] = {
    "stale-sharer": (
        mutate_stale_sharer,
        "GETX leaves stale sharers registered under an exclusive owner",
        _oltp_detector()),
    "skip-invalidate": (
        mutate_skip_invalidate,
        "invalidations are counted but never delivered to caches",
        _oltp_detector()),
    "pc-store-overlap": (
        mutate_pc_store_overlap,
        "PC store buffer drains with RC-style overlap",
        _oltp_detector(model=ConsistencyModel.PC)),
    "no-rollback": (
        mutate_no_rollback,
        "speculative loads survive invalidations without rolling back",
        _sb_litmus_detector),
    "time-warp": (
        mutate_time_warp,
        "directory reads complete before they are requested",
        _oltp_detector()),
    "lost-stall": (
        mutate_lost_stall_time,
        "half of every stall cycle vanishes from the breakdown",
        _oltp_detector()),
    "lost-lock-release": (
        mutate_lost_lock_release,
        "lock releases retire without freeing the lock table entry",
        _wedge_detector),
}


def _static_detector(name: str) -> Callable[[], str]:
    def detect() -> str:
        from repro.check.lint.selftest import run_static_mutation
        return run_static_mutation(name)
    return detect


def _register_static_mutations() -> None:
    """Seeded *source* mutations caught by the contract passes of
    ``repro lint`` (R011-R013) rather than by running a simulation.
    The mutation context is a no-op: the seeded violation lives in an
    in-memory source override inside the detector, never on disk."""
    from repro.check.lint.selftest import STATIC_MUTATIONS
    for name in sorted(STATIC_MUTATIONS):
        description = STATIC_MUTATIONS[name][0]
        MUTATIONS[f"static-{name}"] = (
            contextlib.nullcontext,
            f"[static] {description}",
            _static_detector(name))


_register_static_mutations()


def run_mutation_self_test(names=None) -> List[MutationResult]:
    """Apply each mutation and assert the checker/litmus catches it."""
    results: List[MutationResult] = []
    for name, (mutation, description, detector) in MUTATIONS.items():
        if names is not None and name not in names:
            continue
        with mutation():
            detail = detector()
        results.append(MutationResult(
            name, description, detected=bool(detail),
            detail=detail or "no violation raised"))
    return results
