"""Tests for the processor core pipeline using hand-built traces."""

import itertools

import pytest

from repro.params import (
    ConsistencyImpl,
    ConsistencyModel,
    default_system,
)
from repro.system.machine import Machine
from repro.trace.instr import (
    BR_COND,
    OP_BRANCH,
    OP_INT,
    OP_LOAD,
    OP_LOCK_ACQ,
    OP_LOCK_REL,
    OP_MB,
    OP_STORE,
    OP_SYSCALL,
    OP_WMB,
    Instruction,
)

CODE = 0x0100_0000
DATA = 0x2000_0000


def alu(pc, deps=()):
    return Instruction(OP_INT, pc, deps=tuple(deps))


def load(pc, addr, deps=()):
    return Instruction(OP_LOAD, pc, addr=addr, deps=tuple(deps))


def store(pc, addr, deps=()):
    return Instruction(OP_STORE, pc, addr=addr, deps=tuple(deps))


def branch(pc, taken=False, target=0):
    return Instruction(OP_BRANCH, pc, taken=taken,
                       target=target or pc + 4, branch_kind=BR_COND)


def looped(program):
    """Endless trace cycling over ``program`` (records are reused; the
    simulator treats them read-only, and consults the predictor once
    per dynamic branch)."""
    return itertools.cycle(program)


def machine_for(program, params=None, n_procs=1):
    params = params or default_system(n_nodes=1, mesh_width=1)
    gens = [looped(program) for _ in range(n_procs)]
    return Machine(params, gens)


def straightline(n, start_pc=CODE):
    return [alu(start_pc + 4 * i) for i in range(n)]


class TestBasicPipeline:
    def test_retires_requested_instructions(self):
        m = machine_for(straightline(64))
        cycles = m.run(1000)
        assert m.total_retired() >= 1000
        assert cycles > 0

    def test_wide_issue_faster_than_single(self):
        import dataclasses
        base = default_system(n_nodes=1, mesh_width=1)
        narrow = base.replace(processor=dataclasses.replace(
            base.processor, issue_width=1))
        t_wide = machine_for(straightline(64), base).run(4000)
        t_narrow = machine_for(straightline(64), narrow).run(4000)
        assert t_wide < t_narrow

    def test_ipc_bounded_by_issue_width(self):
        m = machine_for(straightline(64))
        cycles = m.run(8000)
        ipc = 8000 / cycles
        assert ipc <= 4.0 + 1e-9

    def test_dependence_chain_serializes(self):
        # Every element depends on its predecessor, across loop
        # iterations too (the cycled trace keeps distance-1 deps valid).
        chain = [alu(CODE + 4 * i, deps=(1,)) for i in range(64)]
        t_chain = machine_for(chain).run(4000)
        t_parallel = machine_for(straightline(64)).run(4000)
        assert t_chain > 1.5 * t_parallel

    def test_fp_uses_separate_units(self):
        ints = straightline(64)
        mix = []
        for i in range(64):
            op = OP_INT if i % 2 == 0 else 5  # placeholder
        # Mixed INT/FP streams issue in parallel across unit classes.
        fp = [Instruction(1, CODE + 4 * i, latency=3) for i in range(64)]
        both = [x for pair in zip(ints, fp) for x in pair]
        t_both = machine_for(both).run(4000)
        t_int = machine_for(ints).run(4000)
        # FP adds work but uses its own units: less than 2x slowdown
        # would fail if FP contended for integer ALUs.
        assert t_both < 2.2 * t_int


class TestMemoryBehaviour:
    def test_load_chain_exposes_latency(self):
        # Pointer chase over distinct lines: dependent loads serialize.
        chase = []
        for i in range(32):
            chase.append(load(CODE + 8 * i, DATA + 4096 * i,
                              deps=(1,) if i else ()))
            chase.append(alu(CODE + 8 * i + 4, deps=(1,)))
        independent = []
        for i in range(32):
            independent.append(load(CODE + 8 * i, DATA + 4096 * i))
            independent.append(alu(CODE + 8 * i + 4))
        t_chase = machine_for(chase).run(2000)
        t_indep = machine_for(independent).run(2000)
        assert t_chase > 1.5 * t_indep

    def test_read_stall_attributed(self):
        program = [load(CODE + 8 * i, DATA + 1 << 20) for i in range(8)]
        program = [load(CODE + 8 * i, DATA + 65536 * i, deps=(1,) if i else ())
                   for i in range(16)]
        m = machine_for(program)
        m.run(2000)
        bd = m.breakdown()
        assert bd.read > 0

    def test_stores_hidden_under_rc(self):
        stores = [store(CODE + 4 * i, DATA + 64 * i) for i in range(32)]
        m = machine_for(stores)
        m.run(3000)
        bd = m.breakdown()
        # Write stall should be a small share under RC.
        assert bd.write / bd.total < 0.5


class TestBranches:
    def test_predictable_branches_cheap(self):
        program = []
        for i in range(32):
            program.extend(straightline(4, CODE + 32 * i))
            program.append(branch(CODE + 32 * i + 16, taken=False))
        m = machine_for(program)
        m.run(6000)
        # After warmup the predictor nails the never-taken branches.
        assert m.misprediction_rate() < 0.2

    def test_mispredictions_counted(self):
        # The branch at one PC alternates between taken and not taken.
        a = branch(CODE + 16, taken=True, target=CODE + 64)
        b = branch(CODE + 16, taken=False)

        def gen():
            i = 0
            while True:
                yield from straightline(4, CODE + (i % 7) * 64)
                yield Instruction(OP_BRANCH, CODE + 16,
                                  taken=bool(i & 1), target=CODE + 64,
                                  branch_kind=BR_COND)
                i += 1

        params = default_system(n_nodes=1, mesh_width=1)
        m = Machine(params, [gen()])
        m.run(4000)
        assert m.cores[0].bpred.predictions > 0


class TestSynchronization:
    def _cs_program(self, lock_id=0):
        lock_addr = 0x1400_0000 + lock_id * 64
        shared = 0x1000_0000
        return [
            Instruction(OP_LOCK_ACQ, CODE, addr=lock_addr),
            Instruction(OP_MB, CODE + 4),
            load(CODE + 8, shared),
            alu(CODE + 12, deps=(1,)),
            store(CODE + 16, shared, deps=(1,)),
            Instruction(OP_WMB, CODE + 20),
            Instruction(OP_LOCK_REL, CODE + 24, addr=lock_addr),
        ] + straightline(24, CODE + 28)

    def test_lock_protected_updates_complete(self):
        params = default_system(n_nodes=4)
        m = Machine(params, [looped(self._cs_program())
                             for _ in range(4)])
        m.run(4000)
        assert m.total_retired() >= 4000
        # Lock table is empty or holds a current owner; never corrupt.
        assert all(isinstance(v, int) for v in m.lock_table.values())

    def test_contended_lock_creates_sync_stall(self):
        params = default_system(n_nodes=4)
        m = Machine(params, [looped(self._cs_program())
                             for _ in range(4)])
        m.run(6000)
        assert m.breakdown().sync > 0

    def test_uncontended_locks_cheap(self):
        params = default_system(n_nodes=4)
        # Each process uses a different lock: no contention.
        m = Machine(params, [looped(self._cs_program(lock_id=i))
                             for i in range(4)])
        m.run(6000)
        contended = Machine(params, [looped(self._cs_program())
                                     for _ in range(4)])
        contended.run(6000)
        assert m.breakdown().sync <= contended.breakdown().sync + 1e-9


class TestContextSwitch:
    def test_syscall_switches_process(self):
        program = straightline(50) + [Instruction(OP_SYSCALL, CODE + 400)]
        params = default_system(n_nodes=1, mesh_width=1)
        m = Machine(params, [looped(program) for _ in range(3)])
        m.run(2000)
        assert m.schedulers[0].context_switches >= 2
        assert all(p.syscalls > 0 for p in m.processes[:2])

    def test_single_blocking_process_idles(self):
        program = straightline(10) + [Instruction(OP_SYSCALL, CODE + 80)]
        params = default_system(n_nodes=1, mesh_width=1)
        m = Machine(params, [looped(program)])
        m.run(200)
        bd = m.breakdown()
        assert bd.cycles[-1] > 0  # IDLE accumulated while blocked


class TestConsistencyModels:
    def _store_heavy(self):
        return [store(CODE + 4 * i, DATA + 64 * i) for i in range(48)] + \
            straightline(16, CODE + 256)

    def _run(self, model, impl=ConsistencyImpl.STRAIGHTFORWARD):
        params = default_system(n_nodes=1, mesh_width=1,
                                consistency=model, consistency_impl=impl)
        m = machine_for(self._store_heavy(), params)
        return m.run(3000)

    def test_rc_faster_than_sc(self):
        t_sc = self._run(ConsistencyModel.SC)
        t_rc = self._run(ConsistencyModel.RC)
        assert t_rc < t_sc

    def test_pc_between_sc_and_rc(self):
        t_sc = self._run(ConsistencyModel.SC)
        t_pc = self._run(ConsistencyModel.PC)
        t_rc = self._run(ConsistencyModel.RC)
        assert t_rc <= t_pc <= t_sc * 1.05

    def test_prefetch_helps_sc(self):
        t_plain = self._run(ConsistencyModel.SC)
        t_pf = self._run(ConsistencyModel.SC, ConsistencyImpl.PREFETCH)
        assert t_pf <= t_plain

    def test_speculation_helps_sc_loads(self):
        loads = [load(CODE + 4 * i, DATA + 64 * i) for i in range(48)]
        def run(impl):
            params = default_system(
                n_nodes=1, mesh_width=1, consistency=ConsistencyModel.SC,
                consistency_impl=impl)
            return machine_for(loads, params).run(3000)
        t_plain = run(ConsistencyImpl.STRAIGHTFORWARD)
        t_spec = run(ConsistencyImpl.SPECULATIVE)
        assert t_spec < t_plain

    def test_speculative_rollback_on_remote_write(self):
        """A remote write to a speculatively-loaded line forces rollback;
        execution still completes."""
        params = default_system(consistency=ConsistencyModel.SC,
                                consistency_impl=ConsistencyImpl.SPECULATIVE)
        shared = 0x1000_0000
        reader = [load(CODE, DATA + 1 << 16, deps=()),
                  load(CODE + 4, shared)] + straightline(20, CODE + 8)
        writer = [store(CODE + 1024, shared)] + \
            straightline(20, CODE + 1028)
        m = Machine(params, [looped(reader), looped(writer),
                             looped(straightline(16)),
                             looped(straightline(16))])
        m.run(20000)
        assert m.total_retired() >= 20000
