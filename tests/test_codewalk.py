"""Tests for the code walker: streams, branch structure, determinism."""

import random
from collections import Counter

from repro.trace.codewalk import INSTR_BYTES, CodeWalker
from repro.trace.instr import BR_CALL, BR_COND, BR_JUMP, BR_RETURN, \
    OP_BRANCH, Instruction


def walker(seed=1, code_bytes=64 * 1024, **kw):
    return CodeWalker(base=0x100000, code_bytes=code_bytes,
                      rng=random.Random(seed), **kw)


def end_block(w):
    """Close ``w``'s current block; returns the branch record's view."""
    branch = Instruction._make(w.end_block())
    assert branch.op == OP_BRANCH
    return branch


def straight(w, n):
    """Walk ``n`` straight-line instructions the way the emitter does
    (step ``pc`` by one instruction each); return their PCs."""
    pcs = [w.pc + i * INSTR_BYTES for i in range(n)]
    w.pc += n * INSTR_BYTES
    return pcs


class TestBlocks:
    def test_block_pcs_sequential(self):
        """A basic block is straight-line code closed by its branch: the
        branch sits right after the block's last instruction."""
        w = walker()
        for _ in range(200):
            pcs = straight(w, 5)
            assert end_block(w).pc == pcs[-1] + INSTR_BYTES

    def test_block_len_deterministic_per_pc(self):
        w1, w2 = walker(seed=1), walker(seed=2)
        for pc in (0x100000, 0x100040, 0x105554):
            assert w1.block_len_at(pc, 4, 7) == w2.block_len_at(pc, 4, 7)
            assert 4 <= w1.block_len_at(pc, 4, 7) <= 7

    def test_pcs_stay_in_code_region(self):
        w = walker(code_bytes=8 * 1024)
        for _ in range(2000):
            pcs = straight(w, 4)
            assert all(0x100000 <= pc < 0x100000 + 8 * 1024 + 64 * 16
                       for pc in pcs)
            end_block(w)


class TestBranches:
    def test_branch_kind_mostly_stable_per_site(self):
        """A static branch PC keeps one dominant kind (routine-end and
        call-depth boundary cases may occasionally force another)."""
        w = walker()
        per_site = {}
        for _ in range(6000):
            straight(w, 4)
            desc = end_block(w)
            per_site.setdefault(desc.pc, Counter())[desc.branch_kind] += 1
        revisited = {pc: c for pc, c in per_site.items()
                     if sum(c.values()) >= 5}
        assert revisited
        stable = sum(1 for c in revisited.values()
                     if max(c.values()) / sum(c.values()) >= 0.8)
        assert stable / len(revisited) > 0.8

    def test_all_kinds_occur(self):
        w = walker()
        kinds = Counter()
        for _ in range(3000):
            straight(w, 4)
            kinds[end_block(w).branch_kind] += 1
        assert set(kinds) == {BR_COND, BR_CALL, BR_RETURN, BR_JUMP}
        assert kinds[BR_COND] > kinds[BR_CALL]

    def test_calls_and_returns_balance(self):
        w = walker()
        kinds = Counter()
        for _ in range(5000):
            straight(w, 4)
            kinds[end_block(w).branch_kind] += 1
        # Returns can only follow calls; counts track each other.
        assert abs(kinds[BR_CALL] - kinds[BR_RETURN]) <= 10

    def test_not_taken_falls_through(self):
        w = walker()
        for _ in range(2000):
            straight(w, 4)
            desc = end_block(w)
            next_pc = w.pc
            if desc.taken:
                assert next_pc == desc.target
            else:
                assert next_pc == desc.pc + 4

    def test_call_target_stable_per_site(self):
        w = walker(call_target_variability=0.0,
                   jump_target_variability=0.0)
        targets = {}
        for _ in range(5000):
            straight(w, 4)
            desc = end_block(w)
            if desc.branch_kind in (BR_CALL, BR_JUMP):
                if desc.pc in targets:
                    assert targets[desc.pc] == desc.target
                targets[desc.pc] = desc.target


class TestStreams:
    def test_streaming_reference_pattern(self):
        """Successive I-references access successive lines in short
        streams (paper section 4.1)."""
        w = walker(avg_routine_lines=2)
        lines = []
        for _ in range(4000):
            for pc in straight(w, 4):
                lines.append(pc >> 6)
            end_block(w)
        transitions = [b - a for a, b in zip(lines, lines[1:]) if b != a]
        sequential = sum(1 for d in transitions if d == 1)
        # A large fraction of line transitions are to the next line.
        assert sequential / len(transitions) > 0.4

    def test_phase_entries_spread_over_region(self):
        w = walker(code_bytes=64 * 1024)
        entry_pcs = set()
        for phase in range(8):
            w.enter_phase(phase, 8)
            entry_pcs.add(w.pc)
        assert len(entry_pcs) == 8
        span = max(entry_pcs) - min(entry_pcs)
        assert span > 32 * 1024  # spread across the region

    def test_enter_phase_clears_stack(self):
        w = walker()
        for _ in range(50):
            straight(w, 4)
            end_block(w)
        w.enter_phase(0, 4)
        straight(w, 4)
        desc = end_block(w)
        # No stale stack pop.
        assert desc.branch_kind != BR_RETURN or desc.target


class TestLocality:
    def test_call_locality_keeps_targets_near(self):
        w = walker(code_bytes=256 * 1024, call_locality=4,
                   call_target_variability=0.0, hot_fraction=0.0)
        spans = []
        for _ in range(4000):
            straight(w, 4)
            desc = end_block(w)
            if desc.branch_kind == BR_CALL:
                spans.append(abs(desc.target - desc.pc))
        assert spans
        near = sum(1 for s in spans if s < 16 * 1024)
        assert near / len(spans) > 0.9

    def test_n_routines(self):
        assert walker(code_bytes=16 * 1024).n_routines > 10
