"""Unit tests for the SMT shared pipeline and hint ordering details."""

import itertools

import pytest

from repro.cpu.smt import SharedPipeline
from repro.params import default_system
from repro.trace.database import DatabaseLayout, MigratoryHints
from repro.trace.instr import OP_LOCK_ACQ, OP_PREFETCH, Instruction
from repro.trace.oltp import OltpTraceGenerator


class TestSharedPipeline:
    def test_refresh_replenishes_budgets(self):
        shared = SharedPipeline(default_system())
        shared.refresh(5)
        assert shared.issue_slots == 4
        assert shared.fu == [2, 2, 2]
        shared.issue_slots -= 3
        shared.fu[0] -= 2
        shared.refresh(5)               # same cycle: no replenish
        assert shared.issue_slots == 1
        assert shared.fu[0] == 0
        shared.refresh(6)               # new cycle: fresh budgets
        assert shared.issue_slots == 4
        assert shared.fu[0] == 2

    def test_infinite_fu_mode(self):
        import dataclasses
        params = default_system()
        params = params.replace(processor=dataclasses.replace(
            params.processor, infinite_functional_units=True))
        shared = SharedPipeline(params)
        shared.refresh(0)
        assert shared.fu[0] > 1_000_000


class TestHintOrdering:
    def test_cs_prefetch_depends_on_lock_acquire(self):
        """The migratory prefetch must be ordered after the acquire so it
        cannot steal the line from the current critical-section holder."""
        layout = DatabaseLayout().scaled(16)
        hints = MigratoryHints(prefetch=True, flush=True)
        gen = OltpTraceGenerator(0, layout, seed=1, hints=hints)
        instrs = [Instruction._make(record)
                  for record in itertools.islice(iter(gen), 40_000)]
        found = 0
        for i, instr in enumerate(instrs):
            if instr.op != OP_PREFETCH:
                continue
            found += 1
            assert instr.deps, "prefetch must carry a dependence"
            producer = instrs[i - instr.deps[0]]
            assert producer.op == OP_LOCK_ACQ
        assert found > 0
