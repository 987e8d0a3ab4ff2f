"""Object lifetime: a finished machine is freed by reference counting.

The machine owns its nodes, cores and directory; the three callbacks
that point back up the ownership tree (each node's directory hooks, its
stream buffer's prefetch callback, and the core's ``violation_hook``)
are registered weakly (:func:`repro.mem.memsys.weak_method`).  So a
plain machine's object graph holds no reference cycle, and its memory
hierarchy is freed the moment the last reference goes, not whenever
the cycle collector next runs a full pass.  These tests run with the collector disabled, so anything left
behind is a cycle.

Sanitized machines (``Tools(check=True)``) are freed the same way: the
invariant checker's wrappers are stored on the instances they wrap, so
they reach those instances, the originals they call and the machine
only weakly.
"""

import dataclasses
import gc
import weakref
from contextlib import contextmanager

import pytest

from repro.core.experiment import run_simulation
from repro.core.workloads import dss_workload, oltp_workload, tpcc_workload
from repro.mem.memsys import NodeMemorySystem, weak_method
from repro.params import ConsistencyImpl, ConsistencyModel, Tools, \
    default_system
from repro.run import forkserver
from repro.run.jobs import JobSpec, WorkloadSpec
from repro.system.machine import Machine

SMALL = dict(instructions=1500, warmup=500, seed=0)


def _processor(**changes):
    return dataclasses.replace(default_system().processor, **changes)


DESIGN_POINTS = {
    "rc": (dict(), oltp_workload),
    "pc": (dict(consistency=ConsistencyModel.PC), oltp_workload),
    "sc-straightforward": (dict(consistency=ConsistencyModel.SC),
                           oltp_workload),
    "sc-speculative": (dict(consistency=ConsistencyModel.SC,
                            consistency_impl=ConsistencyImpl.SPECULATIVE),
                       oltp_workload),
    "in-order": (dict(processor=_processor(out_of_order=False)),
                 oltp_workload),
    "smt-sc": (dict(processor=_processor(smt_contexts=2),
                    consistency=ConsistencyModel.SC), oltp_workload),
    "stream-buffer-iprefetch": (dict(stream_buffer_entries=4,
                                     branch_iprefetch=True,
                                     consistency=ConsistencyModel.PC),
                                oltp_workload),
    "tpcc": (dict(), tpcc_workload),
    "dss": (dict(), dss_workload),
}


@contextmanager
def collector_off():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.fixture
def instances(monkeypatch):
    """Weak references to every Machine and NodeMemorySystem built
    while the test runs."""
    refs = []
    for cls in (Machine, NodeMemorySystem):
        init = cls.__init__

        def tracking_init(self, *args, _init=init, **kwargs):
            _init(self, *args, **kwargs)
            refs.append(weakref.ref(self))
        monkeypatch.setattr(cls, "__init__", tracking_init)
    return refs


def _alive(refs):
    return [ref() for ref in refs if ref() is not None]


@pytest.mark.parametrize("point", sorted(DESIGN_POINTS))
def test_plain_run_leaves_no_cycles(point):
    changes, workload = DESIGN_POINTS[point]
    with collector_off():
        run_simulation(default_system(**changes), workload(), **SMALL)
        assert gc.collect() == 0


@pytest.mark.parametrize(
    "point", ["rc", "sc-straightforward", "sc-speculative", "smt-sc"])
def test_sanitized_run_leaves_no_cycles(point):
    changes, workload = DESIGN_POINTS[point]
    with collector_off():
        run_simulation(default_system(**changes), workload(),
                       tools=Tools(check=True), **SMALL)
        assert gc.collect() == 0


def test_in_process_attempts_free_their_machines(instances):
    jobs = [JobSpec(default_system(consistency=model), WorkloadSpec("oltp"),
                    **SMALL).to_dict()
            for model in (ConsistencyModel.RC, ConsistencyModel.SC)]
    with collector_off():
        outcomes = [forkserver.run_entry(job, 0, None, None)
                    for job in jobs]
        assert [outcome["ok"] for outcome in outcomes] == [True, True]
        assert len(instances) == 2 * (1 + 4)    # two machines, 4 nodes each
        assert _alive(instances) == []


def test_failed_attempt_frees_its_machine(instances, tmp_path):
    """A watchdog trip carries the machine on the exception (for its
    triage bundle); once the attempt's outcome is returned, nothing
    holds it."""
    spec = JobSpec(default_system(n_nodes=2), WorkloadSpec("oltp"),
                   instructions=2400, warmup=1200,
                   tools=Tools(watchdog_node_cycles=40))
    with collector_off():
        outcome = forkserver.run_entry(spec.to_dict(), 0, None,
                                       str(tmp_path))
        assert not outcome["ok"]
        assert outcome["error"].startswith("WedgeError")
        assert (tmp_path / outcome["bundle"] / "stream-tail.json").is_file()
        assert len(instances) == 1 + 2
        assert _alive(instances) == []


class TestWeakMethod:
    def test_calls_through_to_the_live_object(self):
        class Node:
            def scaled(self, x, y):
                return 10 * x + y

        node = Node()
        call = weak_method(node.scaled)
        assert call(3, 4) == 34

    def test_does_not_keep_its_object_alive(self):
        class Node:
            def ping(self):
                return "pong"

        node = Node()
        call = weak_method(node.ping)
        ref = weakref.ref(node)
        del node
        assert ref() is None
        with pytest.raises(ReferenceError, match="ping"):
            call()
