"""Tests for semantic-op assembly: PC assignment, branch insertion, and
dependence-tag resolution."""

import random

from repro.trace.codewalk import CodeWalker
from repro.trace.emitter import (
    MAX_DEP_DISTANCE,
    SemanticHelpers,
    SemanticOp,
    assemble,
)
from repro.trace.instr import OP_BRANCH, OP_INT, OP_LOAD, OP_STORE


class Helper(SemanticHelpers):
    def __init__(self, seed=0):
        super().__init__(random.Random(seed))


def assemble_ops(sops, seed=0):
    rng = random.Random(seed)
    w = CodeWalker(0x100000, 32 * 1024, rng)
    return list(assemble(iter(sops), w, rng))


class TestAssembly:
    def test_branches_inserted(self):
        h = Helper()
        sops = [h.alu()[0] for _ in range(100)]
        out = assemble_ops(sops)
        branches = [i for i in out if i.op == OP_BRANCH]
        assert branches
        # Semantic ops preserved in order.
        assert sum(1 for i in out if i.op == OP_INT) == 100

    def test_non_branch_pcs_advance_sequentially(self):
        h = Helper()
        out = assemble_ops([h.alu()[0] for _ in range(50)])
        for a, b in zip(out, out[1:]):
            if a.op != OP_BRANCH and b.op != OP_BRANCH:
                assert b.pc == a.pc + 4

    def test_fixed_pc_respected(self):
        h = Helper()
        sops = [h.alu()[0] for _ in range(10)]
        fixed = h.store(0x5000, fixed_pc=0x77777770)
        sops.append(fixed)
        out = assemble_ops(sops)
        stores = [i for i in out if i.op == OP_STORE]
        assert stores[0].pc == 0x77777770

    def test_fixed_pc_does_not_trigger_branch_insertion(self):
        h = Helper()
        sops = [h.simple(OP_INT, fixed_pc=0x1000 + 4 * i)
                for i in range(64)]
        out = assemble_ops(sops)
        assert all(i.op != OP_BRANCH for i in out)


class TestDependences:
    def test_dependence_distance_resolved(self):
        h = Helper()
        producer, tag = h.load(0x9000)
        consumer, _ = h.alu(dep_tags=(tag,))
        out = assemble_ops([producer, consumer])
        loads = [(idx, i) for idx, i in enumerate(out) if i.op == OP_LOAD]
        ints = [(idx, i) for idx, i in enumerate(out) if i.op == OP_INT]
        (load_idx, _), (int_idx, instr) = loads[0], ints[0]
        assert instr.deps == (int_idx - load_idx,)

    def test_inserted_branches_shift_distances(self):
        """Distances account for assembler-inserted branch instructions."""
        h = Helper()
        sops = []
        producer, tag = h.load(0x9000)
        sops.append(producer)
        sops.extend(h.alu()[0] for _ in range(20))
        consumer, _ = h.alu(dep_tags=(tag,))
        sops.append(consumer)
        out = assemble_ops(sops)
        load_idx = next(i for i, x in enumerate(out) if x.op == OP_LOAD)
        consumer_idx = len(out) - 1
        while out[consumer_idx].op == OP_BRANCH:
            consumer_idx -= 1
        assert out[consumer_idx].deps == (consumer_idx - load_idx,)
        # More dynamic instructions than semantic ops -> branches counted.
        assert len(out) > len(sops)

    def test_faraway_dependences_dropped(self):
        h = Helper()
        producer, tag = h.load(0x9000)
        sops = [producer]
        sops.extend(h.alu()[0] for _ in range(MAX_DEP_DISTANCE + 50))
        consumer, _ = h.alu(dep_tags=(tag,))
        sops.append(consumer)
        out = assemble_ops(sops)
        assert out[-1].deps == () or max(out[-1].deps) <= MAX_DEP_DISTANCE

    def test_unknown_tag_ignored(self):
        h = Helper()
        op = SemanticOp(OP_INT, dep_tags=(99999,))
        out = assemble_ops([op])
        assert all(i.deps == () for i in out)

    def test_pruning_keeps_dependence_at_max_distance(self):
        """Fixed-PC ops get no inserted branches, so op ``i`` sits at
        position ``i``: each depends on the ops exactly MAX_DEP_DISTANCE
        and MAX_DEP_DISTANCE + 1 back, across many prunings."""
        h = Helper()
        sops, tags = [], []
        for i in range(10 * MAX_DEP_DISTANCE):
            dep = (tags[i - MAX_DEP_DISTANCE],
                   tags[i - MAX_DEP_DISTANCE - 1]) \
                if i > MAX_DEP_DISTANCE else ()
            op, tag = h.alu(dep_tags=dep, fixed_pc=0x1000)
            sops.append(op)
            tags.append(tag)
        out = assemble_ops(sops)
        assert len(out) == len(sops)
        for instr in out[MAX_DEP_DISTANCE + 1:]:
            assert instr.deps == (MAX_DEP_DISTANCE,)

    def test_deps_always_positive_and_bounded(self):
        h = Helper()
        tags = []
        sops = []
        rng = random.Random(5)
        for _ in range(500):
            dep = (rng.choice(tags),) if tags and rng.random() < 0.5 else ()
            op, tag = h.alu(dep_tags=dep)
            sops.append(op)
            tags.append(tag)
            tags = tags[-8:]
        out = assemble_ops(sops)
        for instr in out:
            for d in instr.deps:
                assert 0 < d <= MAX_DEP_DISTANCE


class TestHelpers:
    def test_alu_latencies(self):
        h = Helper()
        int_op, _ = h.alu()
        fp_op, _ = h.alu(fp=True)
        assert int_op.latency == 1
        assert fp_op.latency == 3

    def test_tags_unique(self):
        h = Helper()
        _, t1 = h.alu()
        _, t2 = h.load(0x100)
        assert t1 != t2

    def test_store_has_no_tag(self):
        h = Helper()
        assert h.store(0x100).tag is None
