"""Tests for record emission: PC assignment, branch insertion, and
dependence resolution from stream indices."""

import random

from repro.trace.codewalk import CodeWalker
from repro.trace.emitter import FP_LATENCY, MAX_DEP_DISTANCE, Emitter
from repro.trace.instr import (
    OP_BRANCH,
    OP_FP,
    OP_INT,
    OP_LOAD,
    OP_STORE,
    Instruction,
)


class Helper(Emitter):
    """An emitter over a 32KB code walk with 4-7 instruction blocks."""

    def __init__(self, seed=0):
        rng = random.Random(seed)
        super().__init__(rng, CodeWalker(0x100000, 32 * 1024, rng), (4, 7))

    def records(self):
        """The records emitted so far, as Instruction views."""
        return [Instruction._make(record) for record in self._take()]


class TestAssembly:
    def test_branches_inserted(self):
        h = Helper()
        for _ in range(100):
            h.emit(OP_INT)
        out = h.records()
        branches = [i for i in out if i.op == OP_BRANCH]
        assert branches
        # Emitted ops preserved in order.
        assert sum(1 for i in out if i.op == OP_INT) == 100

    def test_non_branch_pcs_advance_sequentially(self):
        h = Helper()
        for _ in range(50):
            h.emit(OP_INT)
        out = h.records()
        for a, b in zip(out, out[1:]):
            if a.op != OP_BRANCH and b.op != OP_BRANCH:
                assert b.pc == a.pc + 4

    def test_fixed_pc_respected(self):
        h = Helper()
        for _ in range(10):
            h.emit(OP_INT)
        h.emit(OP_STORE, 0x5000, fixed_pc=0x77777770)
        stores = [i for i in h.records() if i.op == OP_STORE]
        assert stores[0].pc == 0x77777770

    def test_fixed_pc_does_not_trigger_branch_insertion(self):
        h = Helper()
        for i in range(64):
            h.emit(OP_INT, fixed_pc=0x1000 + 4 * i)
        assert all(i.op != OP_BRANCH for i in h.records())


class TestDependences:
    def test_dependence_distance_resolved(self):
        h = Helper()
        producer = h.emit(OP_LOAD, 0x9000)
        h.emit(OP_INT, deps=(producer,))
        out = h.records()
        loads = [(idx, i) for idx, i in enumerate(out) if i.op == OP_LOAD]
        ints = [(idx, i) for idx, i in enumerate(out) if i.op == OP_INT]
        (load_idx, _), (int_idx, instr) = loads[0], ints[0]
        assert instr.deps == (int_idx - load_idx,)

    def test_inserted_branches_shift_distances(self):
        """Distances account for emitter-inserted branch instructions."""
        h = Helper()
        producer = h.emit(OP_LOAD, 0x9000)
        for _ in range(20):
            h.emit(OP_INT)
        h.emit(OP_INT, deps=(producer,))
        out = h.records()
        load_idx = next(i for i, x in enumerate(out) if x.op == OP_LOAD)
        consumer_idx = len(out) - 1
        while out[consumer_idx].op == OP_BRANCH:
            consumer_idx -= 1
        assert out[consumer_idx].deps == (consumer_idx - load_idx,)
        # More dynamic instructions than emitted ops -> branches counted.
        assert len(out) > 22

    def test_faraway_dependences_dropped(self):
        h = Helper()
        producer = h.emit(OP_LOAD, 0x9000)
        for _ in range(MAX_DEP_DISTANCE + 50):
            h.emit(OP_INT)
        h.emit(OP_INT, deps=(producer,))
        out = h.records()
        assert out[-1].deps == () or max(out[-1].deps) <= MAX_DEP_DISTANCE

    def test_unknown_tag_ignored(self):
        """A dependence on an index not yet emitted (the op's own, or a
        later one) names nothing and is dropped."""
        h = Helper()
        first = h.emit(OP_INT, deps=(99999,), fixed_pc=0x1000)
        h.emit(OP_INT, deps=(first + 1, first + 2), fixed_pc=0x1004)
        out = h.records()
        assert len(out) == 2
        assert all(i.deps == () for i in out)

    def test_pruning_keeps_dependence_at_max_distance(self):
        """Fixed-PC ops get no inserted branches, so op ``i`` sits at
        position ``i``: each depends on the ops exactly MAX_DEP_DISTANCE
        and MAX_DEP_DISTANCE + 1 back, and keeps only the first.  The
        emitter holds no producer map to prune."""
        h = Helper()
        indices = []
        for i in range(10 * MAX_DEP_DISTANCE):
            dep = (indices[i - MAX_DEP_DISTANCE],
                   indices[i - MAX_DEP_DISTANCE - 1]) \
                if i > MAX_DEP_DISTANCE else ()
            indices.append(h.emit(OP_INT, deps=dep, fixed_pc=0x1000))
        assert not any(isinstance(value, dict) for value in vars(h).values())
        out = h.records()
        assert len(out) == len(indices)
        for instr in out[MAX_DEP_DISTANCE + 1:]:
            assert instr.deps == (MAX_DEP_DISTANCE,)

    def test_deps_always_positive_and_bounded(self):
        h = Helper()
        indices = []
        rng = random.Random(5)
        for _ in range(500):
            dep = (rng.choice(indices),) \
                if indices and rng.random() < 0.5 else ()
            indices.append(h.emit(OP_INT, deps=dep))
            indices = indices[-8:]
        for instr in h.records():
            for d in instr.deps:
                assert 0 < d <= MAX_DEP_DISTANCE


class TestHelpers:
    def test_alu_latencies(self):
        h = Helper()
        h.emit(OP_INT, fixed_pc=0x1000)
        h.emit(OP_FP, latency=FP_LATENCY, fixed_pc=0x1004)
        int_op, fp_op = h.records()
        assert int_op.latency == 1
        assert fp_op.latency == 3

    def test_tags_unique(self):
        """Each emit returns a fresh index: its record's stream position."""
        h = Helper()
        indices = [h.emit(OP_INT), h.emit(OP_LOAD, 0x100)]
        for _ in range(30):
            indices.append(h.emit(OP_STORE, 0x200))
        assert len(set(indices)) == len(indices)
        out = h.records()
        assert out[indices[0]].op == OP_INT
        assert out[indices[1]].op == OP_LOAD
        assert all(out[i].op == OP_STORE for i in indices[2:])

    def test_store_has_no_tag(self):
        """Dependences are explicit: an op after a store depends on it
        only if it names the store's index."""
        h = Helper()
        store = h.emit(OP_STORE, 0x100, fixed_pc=0x1000)
        h.emit(OP_INT, fixed_pc=0x1004)
        h.emit(OP_INT, deps=(store,), fixed_pc=0x1008)
        _, independent, dependent = h.records()
        assert independent.deps == ()
        assert dependent.deps == (2,)
