"""Certified tick skipping: byte-identity against the sanitized loop.

``Machine.run`` ticks a core at a grid point only when something can
happen there, and credits the skipped cycles to the core's unchanged
stall category.  A sanitized run (``check=True``) takes the same loop
with certification off: every core is stepped through
``ProcessorCore.tick`` at every grid point.  The whole contract of
skipping is *instruction-for-instruction equivalence* with that
oracle.  These tests pin it:

* results (``SimulationResult.to_dict``) and full machine state (the
  reflective walk of ``machine_state.py``) are byte-identical across
  workloads, consistency models, SMT, in-order cores, chunked,
  watchdog-armed and idle-heavy runs;
* the forward-progress watchdog trips at the identical cycle with the
  identical classification (``now`` never skips past a pending
  watchdog deadline);
* a run in chunks stops at the same retired-instruction counts with
  the same ``now`` and byte-identical machine state at every chunk end;
* the state walk itself sees a one-field change in each major
  component of an otherwise identical run;
* the litmus suite yields identical witnesses with and without the
  sanitizer;
* both modes step cores through the one ``ProcessorCore.tick`` (under
  the sanitizer, through the checker's wrapper); there is no backend
  option, and the sanitizer does not change a job's cache fingerprint;
* skipping is actually engaged: a plain run ticks far fewer times than
  the sanitized one;
* the guards inside ``tick`` match the unguarded reference step of
  ``reference_tick.py`` on every matrix row (plain and sanitized runs
  share ``tick``, so only that reference can catch a wrong guard).
"""

import dataclasses
import functools

import pytest
from machine_state import machine_state
from reference_tick import reference_tick

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
    return res.to_dict(), machine_state(m)


def assert_identical(params, workload, instr=2500, warmup=1000, seed=0,
                     chunks=None):
    plain = one_run(params, workload, instr, warmup, seed, chunks)
    checked = one_run(params.replace(check=True), workload, instr,
                      warmup, seed, chunks)
    assert plain[0] == checked[0], "results diverged from the sanitized run"
    assert plain[1] == checked[1], \
        "machine state diverged from the sanitized run"


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


def assert_row_identical(name, params, workload, kw, monkeypatch):
    """:func:`assert_identical` on one ``MATRIX`` row, recording the
    known defect's sanitizer violations on its row instead of raising."""
    if name != KNOWN_DEFECT_ROW:
        assert_identical(params, workload(), **kw)
        return
    seen = []
    monkeypatch.setattr(InvariantChecker, "_fail",
                        lambda self, message: seen.append(message))
    assert_identical(params, workload(), **kw)
    assert seen, "the known prefetch defect is gone: drop this special case"
    assert all(KNOWN_DEFECT in message for message in seen), seen


@pytest.mark.parametrize("name,params,workload,kw",
                         MATRIX, ids=[m[0] for m in MATRIX])
def test_backend_identity(name, params, workload, kw, monkeypatch):
    """The two ways ``Machine.run`` executes -- certified skipping and
    the sanitized walk of every grid point -- are byte-identical."""
    assert_row_identical(name, params, workload, kw, monkeypatch)


@pytest.mark.parametrize("name,params,workload,kw",
                         MATRIX, ids=[m[0] for m in MATRIX])
def test_guards_match_unguarded_reference(name, params, workload, kw,
                                          monkeypatch):
    """A plain run (guarded ``tick``, skipping on) is byte-identical to
    a sanitized run whose physical cores step through the unguarded
    :func:`reference_tick`, installed before the checker wraps them."""
    attach = InvariantChecker.attach

    def attach_over_reference(self):
        for core in self.machine.cores:
            for physical in core.physical_cores():
                physical.tick = functools.partial(reference_tick,
                                                  physical)
        attach(self)
    monkeypatch.setattr(InvariantChecker, "attach", attach_over_reference)
    assert_row_identical(name, params, workload, kw, monkeypatch)


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


# -------------------------------------------------- chunk boundaries

def test_chunked_run_boundaries_identical():
    """A run in fixed-size chunks (as warmup then measure splits every
    job) stops at the same retired counts with the same ``now`` and
    byte-identical machine state with and without the sanitizer."""
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
            boundaries.append((total, m.now, machine_state(m)))
        states[check] = boundaries
    plain, checked = states[False], states[True]
    assert len(plain) == len(checked)
    for (p_total, p_now, p_state), (c_total, c_now, c_state) in \
            zip(plain, checked):
        assert p_total == c_total, \
            "chunk boundary hit a different retired count"
        assert p_now == c_now, \
            "machine time diverged at a chunk boundary"
        assert p_state == c_state, \
            "machine state diverged at a chunk boundary"


# ------------------------------------------------- the state walk

def _set_lru_swap(cache):
    """Swap the two oldest lines of the first set holding two or more."""
    lines = next(s for s in cache._sets if len(s) >= 2)
    oldest = next(iter(lines))
    lines.move_to_end(oldest)
    return lambda: lines.move_to_end(oldest, last=False)


def _edit(obj, name, change=lambda value: value + 1):
    """Apply ``change`` to ``obj.name``; returns the undo."""
    before = getattr(obj, name)
    setattr(obj, name, change(before))
    return lambda: setattr(obj, name, before)


def _first_directory_entry(memory):
    return memory._entries[min(memory._entries)]


#: One seeded change per major component: (label, change) where the
#: change edits the machine and returns its undo.
SEEDED_CHANGES = [
    ("bpred global history",
     lambda m: _edit(m.cores[0].bpred, "_g_hist", lambda h: h ^ 1)),
    ("store buffer count",
     lambda m: _edit(m.cores[0].storebuf, "stores_pushed")),
    ("L1D LRU order", lambda m: _set_lru_swap(m.nodes[0].l1d)),
    ("L2 LRU order", lambda m: _set_lru_swap(m.nodes[1].l2)),
    ("directory last writer",
     lambda m: _edit(_first_directory_entry(m.memory), "last_writer")),
    ("scheduler switches",
     lambda m: _edit(m.schedulers[0], "context_switches")),
    ("core sequence number", lambda m: _edit(m.cores[0], "_next_seq")),
]


def test_machine_state_sees_each_seeded_change():
    """Two identical runs have equal state; a one-field change in any
    of the seeded components makes them differ, and undoing it makes
    them equal again."""
    def run():
        m = build_machine(BASE, oltp_workload())
        m.run(1000)
        m.reset_stats()
        m.run(2500)
        return m
    reference, other = run(), run()
    expected = machine_state(reference)
    assert machine_state(other) == expected
    for label, change in SEEDED_CHANGES:
        undo = change(other)
        assert machine_state(other) != expected, \
            f"machine_state missed a change to the {label}"
        undo()
        assert machine_state(other) == expected, label


@pytest.mark.parametrize("row", ["oltp", "oltp-inorder", "oltp-smt2"])
def test_plain_and_sanitized_states_equal(row):
    """The walk skips exactly what the sanitizer adds: plain and
    sanitized runs of an OoO, an in-order and an SMT row give equal
    state."""
    _name, params, workload, _kw = next(m for m in MATRIX if m[0] == row)
    plain = one_run(params, workload(), 1500, 500)
    checked = one_run(params.replace(check=True), workload(), 1500, 500)
    assert plain == checked


# ------------------------------------------------------------ litmus

def test_litmus_witnesses_identical():
    """Every litmus trace observes the same witness on the skipping
    path as under the sanitizer."""
    plain = run_litmus_suite(check=False)
    assert plain == run_litmus_suite(check=True)
    assert all(r.passed for r in plain)


# ---------------------------------------------------- execution gating

def run_spying_on_tick(monkeypatch, check):
    """Run a 1-node OLTP machine for 300 instructions with a spy on
    ``ProcessorCore.tick``; return the machine and the spied cycles."""
    calls = []
    original = ProcessorCore.tick

    def spy(self, now):
        calls.append(now)
        return original(self, now)
    monkeypatch.setattr(ProcessorCore, "tick", spy)
    params = BASE.replace(check=check, n_nodes=1, mesh_width=1)
    m = build_machine(params, oltp_workload())
    m.run(300)
    return m, calls


def test_sanitized_runs_decline_fast(monkeypatch):
    """A sanitized run steps cores through ``ProcessorCore.tick`` only
    via the checker's ``_wrap_tick``, so ``checker.checks`` grows with
    every call."""
    m, calls = run_spying_on_tick(monkeypatch, check=True)
    assert calls, "a check=True run never reached tick"
    assert "_wrap_tick" in m.cores[0].tick.__qualname__
    assert m.checker.checks >= len(calls)


def test_fast_backend_is_dispatched(monkeypatch):
    """A plain run steps cores through ``ProcessorCore.tick`` directly,
    with no checker in between."""
    m, calls = run_spying_on_tick(monkeypatch, check=False)
    assert calls, "a check=False run never reached tick"
    assert m.checker is None
    assert "_wrap_tick" not in m.cores[0].tick.__qualname__


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
    OLTP run it makes fewer than half as many ``tick`` calls as the
    sanitized run (which ticks every core at every grid point), while
    retiring identically."""
    calls = {False: 0, True: 0}
    mode = [False]
    original = ProcessorCore.tick

    def counted(self, now):
        calls[mode[0]] += 1
        return original(self, now)
    monkeypatch.setattr(ProcessorCore, "tick", counted)

    ends = {}
    for check in (False, True):
        mode[0] = check
        m = build_machine(BASE.replace(check=check), oltp_workload())
        m.run(2500)
        ends[check] = (m.now, m.total_retired())
    assert ends[False] == ends[True]
    assert calls[False] > 0 and calls[True] > 0
    assert calls[False] * 2 < calls[True], calls
