"""Tests for the consistency-model ordering unit (paper section 3.4)."""

import dataclasses

import pytest

from repro.core.experiment import run_simulation
from repro.core.workloads import dss_workload, oltp_workload
from repro.cpu.consistency import UNBOUNDED, ConsistencyUnit
from repro.params import ConsistencyImpl, ConsistencyModel, default_system
from repro.system.machine import Machine

SC = ConsistencyModel.SC
PC = ConsistencyModel.PC
RC = ConsistencyModel.RC
STRAIGHT = ConsistencyImpl.STRAIGHTFORWARD
PREFETCH = ConsistencyImpl.PREFETCH
SPEC = ConsistencyImpl.SPECULATIVE


def unit(model, impl=STRAIGHT):
    return ConsistencyUnit(model, impl)


class TestRc:
    def test_loads_unordered(self):
        u = unit(RC)
        u.note_dispatch(1, is_load=True)
        u.note_dispatch(2, is_load=True)
        assert u.may_perform_load(2)

    def test_store_does_not_block_retire(self):
        assert not unit(RC).store_blocks_retire

    def test_store_overlap(self):
        assert unit(RC).store_buffer_overlap > 1

    def test_no_speculation_tracking(self):
        u = unit(RC, SPEC)
        u.note_dispatch(1, is_load=True)
        u.note_dispatch(2, is_load=True)
        assert not u.load_is_speculative(2)


class TestScStraightforward:
    def test_memory_ops_serialize(self):
        u = unit(SC)
        u.note_dispatch(1, is_load=True)
        u.note_dispatch(2, is_load=True)
        assert u.may_perform_load(1)
        assert not u.may_perform_load(2)
        u.note_complete(1)
        assert u.may_perform_load(2)

    def test_store_waits_for_older_load(self):
        u = unit(SC)
        u.note_dispatch(1, is_load=True)
        u.note_dispatch(2, is_load=False)
        assert not u.may_perform_store(2)
        u.note_complete(1)
        assert u.may_perform_store(2)

    def test_load_waits_for_older_store(self):
        u = unit(SC)
        u.note_dispatch(1, is_load=False)
        u.note_dispatch(2, is_load=True)
        assert not u.may_perform_load(2)

    def test_stores_block_retire(self):
        assert unit(SC).store_blocks_retire

    def test_order_bound_is_oldest_incomplete(self):
        u = unit(SC)
        assert u.order_bound() == UNBOUNDED
        for seq in (3, 5, 8):
            u.note_dispatch(seq, is_load=seq != 5)
        assert u.order_bound() == 3
        u.note_complete(3)
        u.note_removed(8)
        assert u.order_bound() == 5
        assert u.may_perform_store(5) and not u.may_perform_load(6)

    def test_removed_ops_unblock(self):
        u = unit(SC)
        u.note_dispatch(1, is_load=True)
        u.note_dispatch(2, is_load=True)
        u.note_removed(1)
        assert u.may_perform_load(2)


class TestPcStraightforward:
    def test_loads_ordered_among_loads(self):
        u = unit(PC)
        u.note_dispatch(1, is_load=True)
        u.note_dispatch(2, is_load=True)
        assert not u.may_perform_load(2)
        u.note_complete(1)
        assert u.may_perform_load(2)

    def test_load_bypasses_store(self):
        u = unit(PC)
        u.note_dispatch(1, is_load=False)
        u.note_dispatch(2, is_load=True)
        assert u.may_perform_load(2)

    def test_order_bound_ignores_stores(self):
        u = unit(PC)
        u.note_dispatch(1, is_load=False)
        u.note_dispatch(2, is_load=True)
        assert u.order_bound() == 2

    def test_stores_do_not_block_retire(self):
        assert not unit(PC).store_blocks_retire

    def test_store_drain_serialized(self):
        assert unit(PC).store_buffer_overlap == 1


class TestPrefetchImpl:
    def test_straightforward_does_not_prefetch(self):
        assert not unit(SC, STRAIGHT).wants_prefetch

    def test_prefetch_and_speculative_do(self):
        assert unit(SC, PREFETCH).wants_prefetch
        assert unit(SC, SPEC).wants_prefetch

    def test_prefetch_does_not_reorder(self):
        u = unit(SC, PREFETCH)
        u.note_dispatch(1, is_load=True)
        u.note_dispatch(2, is_load=True)
        assert not u.may_perform_load(2)


class TestSpeculativeLoads:
    def test_loads_perform_immediately(self):
        u = unit(SC, SPEC)
        u.note_dispatch(1, is_load=True)
        u.note_dispatch(2, is_load=True)
        assert u.may_perform_load(2)
        assert u.load_is_speculative(2)
        assert not u.load_is_speculative(1)  # oldest: not speculative

    def test_violation_detected_on_tracked_line(self):
        u = unit(SC, SPEC)
        u.note_dispatch(1, is_load=True)
        u.note_dispatch(2, is_load=True)
        u.note_speculative_load(2, line=77)
        assert u.check_violation(77) == 2
        assert u.rollbacks == 1

    def test_violation_returns_oldest_speculative(self):
        u = unit(SC, SPEC)
        for seq in (1, 2, 3):
            u.note_dispatch(seq, is_load=True)
        u.note_speculative_load(3, line=77)
        u.note_speculative_load(2, line=77)
        assert u.check_violation(77) == 2

    def test_untracked_line_no_violation(self):
        u = unit(SC, SPEC)
        u.note_dispatch(1, is_load=True)
        u.note_speculative_load(1, line=5)
        assert u.check_violation(6) is None

    def test_retired_load_is_safe(self):
        u = unit(SC, SPEC)
        u.note_dispatch(1, is_load=True)
        u.note_dispatch(2, is_load=True)
        u.note_speculative_load(2, line=77)
        u.note_removed(2)
        assert u.check_violation(77) is None

    def test_pc_speculation_tracks_loads_only(self):
        u = unit(PC, SPEC)
        u.note_dispatch(1, is_load=False)   # store
        u.note_dispatch(2, is_load=True)
        # PC loads only order against loads; a load after only a store is
        # not speculative.
        assert not u.load_is_speculative(2)

    def test_reset_clears_state(self):
        u = unit(SC, SPEC)
        u.note_dispatch(1, is_load=True)
        u.note_speculative_load(1, line=9)
        u.reset()
        assert u.check_violation(9) is None
        assert u.may_perform_load(5)


# ----------------------------------------------- the core under RC

#: Every ConsistencyUnit method the core may call while simulating.
UNIT_METHODS = ("reset", "note_dispatch", "note_complete", "note_removed",
                "order_bound", "may_perform_load", "may_perform_store",
                "load_is_speculative", "note_speculative_load",
                "check_violation")


def run_counting_unit_calls(params, workload, instructions, monkeypatch):
    """Run ``instructions`` on a fresh machine while counting calls of
    the unit's methods; returns (machine, call counts)."""
    machine = Machine(params, workload.generators(params.n_nodes, seed=0))
    calls = dict.fromkeys(UNIT_METHODS, 0)
    for name in UNIT_METHODS:
        original = getattr(ConsistencyUnit, name)

        def counted(self, *args, _name=name, _original=original, **kw):
            calls[_name] += 1
            return _original(self, *args, **kw)
        monkeypatch.setattr(ConsistencyUnit, name, counted)
    machine.run(instructions)
    return machine, calls


class TestCoreUnderRc:
    """Only SC and PC order memory operations, so under RC the core
    never consults the unit and the unit holds no ordering state."""

    @pytest.mark.parametrize("workload", [oltp_workload, dss_workload],
                             ids=["oltp", "dss"])
    def test_rc_run_keeps_no_ordering_state(self, workload, monkeypatch):
        params = default_system()
        assert params.consistency is RC
        machine, calls = run_counting_unit_calls(
            params, workload(), 20_000, monkeypatch)
        assert sum(calls.values()) == 0, calls
        for core in machine.cores:
            for physical in core.physical_cores():
                u = physical.consistency
                assert not u._heap and not u._incomplete
                assert not u._spec_by_line and not u._spec_lines_by_seq

    def test_pc_run_consults_the_unit(self, monkeypatch):
        """Control for the call counter: PC orders loads, and the core
        reads the ordering bound once per memory-queue pass."""
        params = default_system(consistency=PC)
        _machine, calls = run_counting_unit_calls(
            params, oltp_workload(), 2_000, monkeypatch)
        assert calls["note_dispatch"] and calls["order_bound"]


_BASE = default_system()
#: Machines whose RC results must not depend on the implementation:
#: out-of-order, in-order and 2-way SMT cores.
_RC_MACHINES = {
    "ooo": _BASE,
    "inorder": _BASE.replace(processor=dataclasses.replace(
        _BASE.processor, out_of_order=False)),
    "smt2": _BASE.replace(processor=dataclasses.replace(
        _BASE.processor, smt_contexts=2)),
}


@pytest.mark.parametrize("machine", sorted(_RC_MACHINES))
@pytest.mark.parametrize("workload", [oltp_workload, dss_workload],
                         ids=["oltp", "dss"])
def test_rc_results_ignore_the_implementation(workload, machine):
    """RC straightforward, prefetch and speculative give one result.

    ``SystemParams.canonical()`` rests on this: it resets
    ``consistency_impl`` to STRAIGHTFORWARD under RC, so the three RC
    bars of Figure 6 share one cache key and one simulation.
    """
    base = _RC_MACHINES[machine].replace(consistency=RC)
    results = {}
    for impl in ConsistencyImpl:
        params = base.replace(consistency_impl=impl)
        assert params.canonical() == base.replace(consistency_impl=STRAIGHT)
        data = run_simulation(params, workload(), instructions=2000,
                              warmup=1000).to_dict()
        del data["params"]
        results[impl] = data
    for impl in (PREFETCH, SPEC):
        assert results[impl] == results[STRAIGHT], (
            f"RC-{impl.name} differs from RC-STRAIGHTFORWARD on "
            f"{machine}: the model reads consistency_impl under RC, so "
            f"the canonical rule of SystemParams.canonical() (RC resets "
            f"consistency_impl to STRAIGHTFORWARD) no longer holds and "
            f"would serve one implementation's result for another")
