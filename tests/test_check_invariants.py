"""Runtime sanitizer tests: neutrality, teeth (mutation self-test) and
parameter plumbing."""

import dataclasses

import pytest

from repro.check.invariants import InvariantChecker, InvariantViolation
from repro.check.mutations import MUTATIONS, run_mutation_self_test
from repro.core.validation import check_sanitizer_neutrality
from repro.core.workloads import oltp_workload
from repro.params import ConsistencyModel, Tools, default_system
from repro.params_io import params_to_dict
from repro.run.jobs import JobSpec, WorkloadSpec, keyed_job
from repro.system.machine import Machine


class TestNeutrality:
    """Acceptance criterion: sanitizer-enabled runs pass every invariant
    and reproduce the plain run's cycle count exactly."""

    def test_oltp(self):
        result = check_sanitizer_neutrality("oltp", instructions=8_000)
        assert result.passed, result.detail

    def test_dss(self):
        result = check_sanitizer_neutrality("dss", instructions=8_000)
        assert result.passed, result.detail


class TestCheckerWiring:
    def test_checker_attached_and_active(self):
        machine = Machine(default_system(), oltp_workload().generators(4),
                          Tools(check=True))
        machine.run(4_000)
        assert isinstance(machine.checker, InvariantChecker)
        assert machine.checker.checks > 1_000
        assert machine.checker.last_violation is None

    def test_checker_absent_by_default(self):
        machine = Machine(default_system(),
                          oltp_workload().generators(4))
        assert machine.checker is None

    def test_violation_is_assertion_error(self):
        checker = InvariantChecker.__new__(InvariantChecker)
        checker.last_violation = None
        with pytest.raises(InvariantViolation):
            checker._fail("boom")
        assert checker.last_violation == "boom"
        assert issubclass(InvariantViolation, AssertionError)


class TestMemoryQueueChecks:
    """The memory-queue checks see a seq naming no queued entry, and a
    clean SC run (whose queue parks blocked ops) passes them."""

    def sanitized_sc_machine(self):
        params = default_system(consistency=ConsistencyModel.SC)
        machine = Machine(params, oltp_workload().generators(4),
                          Tools(check=True))
        machine.run(1_500)
        return machine

    def test_clean_sc_run_passes(self):
        machine = self.sanitized_sc_machine()
        for core in machine.cores:
            machine.checker.check_memory_queue(core)
        assert machine.checker.last_violation is None

    @pytest.mark.parametrize("queue", ["_memq", "_parked"])
    def test_stale_seq_is_caught(self, queue):
        machine = self.sanitized_sc_machine()
        core = machine.cores[0]
        stale = core._next_seq + 3   # not fetched yet
        container = getattr(core, queue)
        if isinstance(container, list):
            container.append(stale)
        else:
            container.add(stale)
        with pytest.raises(InvariantViolation, match="names no live"):
            machine.checker.check_memory_queue(core)


class TestStaleMshrExclusive:
    @pytest.mark.xfail(strict=True, raises=InvariantViolation, reason=(
        "known model defect, ROADMAP item 1(b): a downgrade leaves the "
        "in-flight MSHR entry's exclusive flag set, so a store that "
        "coalesces with the miss dirties L1D without ownership"))
    def test_store_merging_into_a_downgraded_miss_stays_coherent(self):
        """Node 0 misses a load on line 0 and is granted E at issue;
        node 1's load downgrades it; node 0's store then merges into the
        in-flight miss.  The line must not end up dirty at node 0 while
        the directory has it shared."""
        machine = Machine(default_system().replace(n_nodes=2), [],
                          Tools(check=True))
        machine.nodes[0].access_data(0, 0, False)
        machine.nodes[1].access_data(1, 0, False)
        machine.nodes[0].access_data(2, 0, True)
        machine.checker.check_line(0)


class TestMutationSelfTest:
    """The ISSUE requires >= 4 seeded bugs, each detected; we ship 6."""

    def test_catalog_size(self):
        assert len(MUTATIONS) >= 4

    def test_all_mutations_detected(self):
        results = run_mutation_self_test()
        missed = [r for r in results if not r.detected]
        assert len(results) == len(MUTATIONS)
        assert not missed, "\n".join(str(r) for r in missed)

    def test_world_restored_after_mutation(self):
        """Mutations must unpatch cleanly: a sanitized run after the
        self-test sees no violations."""
        run_mutation_self_test(names=["time-warp"])
        result = check_sanitizer_neutrality("oltp", instructions=4_000)
        assert result.passed, result.detail


class TestParamsPlumbing:
    """The sanitizer is a :class:`Tools` knob, not a machine field: it
    travels with a job but never enters the machine or the key."""

    def test_check_field_not_serialized(self):
        assert "check" not in params_to_dict(default_system())
        plain = JobSpec(default_system(), WorkloadSpec("oltp"))
        checked = dataclasses.replace(plain, tools=Tools(check=True))
        assert checked.fingerprint() == plain.fingerprint()
        assert checked.to_dict()["params"] == plain.to_dict()["params"]

    def test_round_trip_drops_check(self):
        """A cache entry stores the job as its key sees it: a sanitized
        job read back from one is the plain job."""
        plain = JobSpec(default_system(), WorkloadSpec("oltp"))
        checked = dataclasses.replace(plain, tools=Tools(check=True))
        assert JobSpec.from_dict(keyed_job(checked.to_dict())) == plain

    def test_replace_toggles_check(self):
        tools = Tools()
        assert dataclasses.replace(tools, check=True).check is True
        assert tools.check is False
        with pytest.raises(TypeError):
            default_system().replace(check=True)
