"""Certified tick skipping: byte-identity against the sanitized loop.

``Machine.run`` ticks a core at a grid point only when something can
happen there, and credits the skipped cycles to the core's unchanged
stall category.  A sanitized run (``check=True``) takes the same loop
with certification off: every core is stepped through the reference
``ProcessorCore.tick`` at every grid point.  The whole contract of
skipping is *instruction-for-instruction equivalence* with that
oracle.  These tests pin it:

* results (``SimulationResult.to_dict``) and full machine snapshots are
  byte-identical across workloads, consistency models, SMT, in-order
  cores, chunked, watchdog-armed and idle-heavy runs;
* the forward-progress watchdog trips at the identical cycle with the
  identical classification (``now`` never skips past a pending
  watchdog deadline);
* checkpoint-interval boundaries land on the same retired-instruction
  counts with the same ``now`` and byte-identical snapshots;
* the litmus suite yields identical witnesses with and without the
  sanitizer;
* sanitized runs never take the certifying ``tick_fast`` and plain runs
  do; there is no backend option, and the sanitizer does not change a
  job's cache fingerprint;
* skipping is actually engaged: a plain run ticks far fewer times than
  the sanitized one.
"""

import dataclasses
import functools
from collections import OrderedDict, deque

import pytest

from repro.check.invariants import InvariantChecker
from repro.check.litmus import run_litmus_suite
from repro.core.experiment import assemble_result
from repro.core.workloads import dss_workload, oltp_workload, \
    tpcc_workload
from repro.cpu.core import ProcessorCore
from repro.params import ConsistencyImpl, ConsistencyModel, \
    default_system
from repro.params_io import params_from_dict, params_to_dict
from repro.run.jobs import JobSpec, WorkloadSpec
from repro.system.machine import Machine, WedgeError


# --------------------------------------------------------------- helpers

def canon(obj):
    """Order-insensitive deep canonical form for snapshot comparison.

    Dicts and sets are sorted (insertion order of an ``OrderedDict`` is
    semantic -- LRU order -- and preserved); generic objects compare by
    class name plus attributes.
    """
    if isinstance(obj, OrderedDict):
        return ("od", [(canon(k), canon(v)) for k, v in obj.items()])
    if isinstance(obj, dict):
        return ("d", sorted(((canon(k), canon(v))
                             for k, v in obj.items()), key=repr))
    if isinstance(obj, (set, frozenset)):
        return ("s", sorted((canon(x) for x in obj), key=repr))
    if isinstance(obj, (list, tuple, deque)):
        return ("l", [canon(x) for x in obj])
    if isinstance(obj, (int, float, str, bool, bytes, type(None))):
        return obj
    attrs = {}
    if hasattr(obj, "__slots__"):
        names = []
        for klass in type(obj).__mro__:
            names.extend(getattr(klass, "__slots__", ()))
        for name in names:
            if hasattr(obj, name):
                attrs[name] = getattr(obj, name)
    if hasattr(obj, "__dict__"):
        attrs.update(obj.__dict__)
    return (type(obj).__name__,
            sorted(((k, canon(v)) for k, v in attrs.items()), key=repr))


def build_machine(params, workload, seed=0):
    return Machine(params, workload.generators(params.n_nodes,
                                               seed=seed))


def one_run(params, workload, instr, warmup, seed=0, chunks=None):
    m = build_machine(params, workload, seed)
    if warmup:
        m.run(warmup)
        m.reset_stats()
    if chunks:
        cycles = 0
        base = m.total_retired()
        for stop in chunks:
            cycles += m.run(base + stop - m.total_retired())
    else:
        cycles = m.run(instr)
    res = assemble_result(m, workload.name, cycles, instr)
    return res.to_dict(), canon(m.snapshot())


def assert_identical(params, workload, instr=2500, warmup=1000, seed=0,
                     chunks=None):
    plain = one_run(params, workload, instr, warmup, seed, chunks)
    checked = one_run(params.replace(check=True), workload, instr,
                      warmup, seed, chunks)
    assert plain[0] == checked[0], "results diverged from the sanitized run"
    assert plain[1] == checked[1], \
        "snapshots diverged from the sanitized run"


BASE = default_system()
_SMT2 = BASE.replace(processor=dataclasses.replace(
    BASE.processor, smt_contexts=2))
_INORDER = BASE.replace(processor=dataclasses.replace(
    BASE.processor, out_of_order=False))

MATRIX = [
    ("oltp", BASE, oltp_workload, {}),
    ("dss", BASE, dss_workload, {}),
    ("tpcc", BASE, tpcc_workload, {}),
    ("oltp-inorder", _INORDER, oltp_workload, {}),
    ("oltp-smt2", _SMT2, oltp_workload, {}),
    ("oltp-sc", BASE.replace(
        consistency=ConsistencyModel.SC,
        consistency_impl=ConsistencyImpl.STRAIGHTFORWARD),
        oltp_workload, {}),
    ("oltp-pc-prefetch", BASE.replace(
        consistency=ConsistencyModel.PC,
        consistency_impl=ConsistencyImpl.PREFETCH),
        oltp_workload, {}),
    ("oltp-rc-spec", BASE.replace(
        consistency=ConsistencyModel.RC,
        consistency_impl=ConsistencyImpl.SPECULATIVE),
        oltp_workload, {}),
    ("oltp-chunked", BASE, oltp_workload,
     {"chunks": [800, 1700, 2500]}),
    ("oltp-watchdog-armed", BASE.replace(
        watchdog_cycles=200000, watchdog_node_cycles=150000),
        oltp_workload, {}),
    # One process per CPU: every commit syscall idles its CPU until the
    # cached scheduler wake seats the process again.
    ("oltp-idle", BASE,
     functools.partial(oltp_workload, processes_per_cpu=1),
     {"instr": 6000}),
]


#: Known model defect the sanitizer catches on the PC-prefetch row: a
#: read prefetch (``NodeMemorySystem.prefetch_data`` with
#: ``exclusive=False``) only checks L1D residency, so for a line the node
#: owns dirty in L2 but not in L1D it issues a directory read, and the
#: directory demotes the node's own ownership while the dirty, writable
#: L2 copy stays put.  Fixing it changes simulated results (and needs a
#: MODEL_VERSION bump), so until then that row records sanitizer
#: violations instead of raising -- the skip-vs-full-tick identity is
#: still checked -- and asserts this defect is the only one seen.
KNOWN_DEFECT_ROW = "oltp-pc-prefetch"
KNOWN_DEFECT = "without exclusive ownership"


@pytest.mark.parametrize("name,params,workload,kw",
                         MATRIX, ids=[m[0] for m in MATRIX])
def test_backend_identity(name, params, workload, kw, monkeypatch):
    """The two ways ``Machine.run`` executes -- certified skipping and
    the sanitized reference walk -- are byte-identical."""
    if name != KNOWN_DEFECT_ROW:
        assert_identical(params, workload(), **kw)
        return
    seen = []
    monkeypatch.setattr(InvariantChecker, "_fail",
                        lambda self, message: seen.append(message))
    assert_identical(params, workload(), **kw)
    assert seen, "the known prefetch defect is gone: drop this special case"
    assert all(KNOWN_DEFECT in message for message in seen), seen


# ----------------------------------------------- watchdog equivalence

def test_watchdog_trips_at_identical_cycle():
    """A wedged single-node run trips the watchdog at the same cycle
    with the same classification with and without the sanitizer:
    skip-ahead never jumps past a pending watchdog deadline."""
    params = BASE.replace(n_nodes=1, mesh_width=1, watchdog_cycles=40)
    trips = {}
    for check in (False, True):
        m = build_machine(params.replace(check=check), oltp_workload())
        with pytest.raises(WedgeError) as err:
            m.run(4000)
        trips[check] = err.value.to_dict()
    assert trips[False] == trips[True]


# ---------------------------------------------- checkpoint boundaries

def test_checkpoint_boundaries_identical():
    """Interval-chunked runs (the ``--checkpoint-every`` driver loop)
    stop at the same retired counts with the same ``now`` and
    byte-identical snapshots with and without the sanitizer."""
    every, target = 600, 3000
    states = {}
    for check in (False, True):
        m = build_machine(BASE.replace(check=check), oltp_workload())
        boundaries = []
        total = m.total_retired()
        while total < target:
            boundary = (total // every + 1) * every
            m.run(min(boundary, target) - total)
            total = m.total_retired()
            boundaries.append((total, m.now, canon(m.snapshot())))
        states[check] = boundaries
    plain, checked = states[False], states[True]
    assert len(plain) == len(checked)
    for (p_total, p_now, p_snap), (c_total, c_now, c_snap) in \
            zip(plain, checked):
        assert p_total == c_total, \
            "checkpoint boundary hit a different retired count"
        assert p_now == c_now, \
            "machine time diverged at a checkpoint boundary"
        assert p_snap == c_snap, \
            "snapshot diverged at a checkpoint boundary"


# ------------------------------------------------------------ litmus

def test_litmus_witnesses_identical():
    """Every litmus trace observes the same witness on the skipping
    path as under the sanitizer."""
    plain = run_litmus_suite(check=False)
    assert plain == run_litmus_suite(check=True)
    assert all(r.passed for r in plain)


# ---------------------------------------------------- execution gating

def test_sanitized_runs_decline_fast(monkeypatch):
    """check=True steps every core through the reference ``tick``: the
    sanitizer's wrappers assume every core is polled every grid
    cycle."""
    def boom(self, now):
        raise AssertionError("tick_fast used under the sanitizer")
    monkeypatch.setattr(ProcessorCore, "tick_fast", boom)
    params = BASE.replace(check=True, n_nodes=1, mesh_width=1)
    m = build_machine(params, oltp_workload())
    m.run(300)  # must not hit the patched certifying tick


def test_fast_backend_is_dispatched(monkeypatch):
    """Plain runs step cores through the certifying ``tick_fast``."""
    calls = []
    original = ProcessorCore.tick_fast

    def spy(self, now):
        calls.append(now)
        return original(self, now)
    monkeypatch.setattr(ProcessorCore, "tick_fast", spy)
    m = build_machine(BASE, oltp_workload())
    m.run(300)
    assert calls, "a plain run never reached tick_fast"


def test_backend_validation():
    """There is one main loop: asking for an execution backend is an
    error, not a silently ignored option."""
    with pytest.raises(TypeError):
        BASE.replace(backend="fast")
    data = params_to_dict(BASE)
    data["backend"] = "fast"
    with pytest.raises(ValueError):
        params_from_dict(data)


def test_backend_is_ephemeral_for_fingerprints():
    """Byte-identical results must share result-cache entries: a
    sanitized job fingerprints like the plain one."""
    plain = JobSpec(BASE, WorkloadSpec("oltp"), instructions=1000,
                    warmup=0, seed=0)
    checked = JobSpec(BASE.replace(check=True), WorkloadSpec("oltp"),
                      instructions=1000, warmup=0, seed=0)
    assert plain.fingerprint() == checked.fingerprint()


# ---------------------------------------------------- skip engagement

def test_plain_runs_skip_ticks(monkeypatch):
    """Skipping is engaged on the plain path: on a 2.5k-instruction
    OLTP run it makes fewer than half as many ``tick_fast`` calls as
    the sanitized run makes ``tick`` calls (which tick every core at
    every grid point), while retiring identically."""
    calls = {"tick": 0, "tick_fast": 0}

    def counted(name):
        original = getattr(ProcessorCore, name)

        def wrapper(self, now):
            calls[name] += 1
            return original(self, now)
        monkeypatch.setattr(ProcessorCore, name, wrapper)
    counted("tick")
    counted("tick_fast")

    ends = {}
    for check in (False, True):
        m = build_machine(BASE.replace(check=check), oltp_workload())
        m.run(2500)
        ends[check] = (m.now, m.total_retired())
    assert ends[False] == ends[True]
    assert calls["tick"] > 0 and calls["tick_fast"] > 0
    assert calls["tick_fast"] * 2 < calls["tick"], calls
