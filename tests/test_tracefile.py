"""Tests for trace capture and replay."""

import io
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.workloads import dss_workload, oltp_workload, tpcc_workload
from repro.params import default_system
from repro.system.machine import Machine
from repro.trace.instr import (
    BR_CALL,
    BR_COND,
    OP_BRANCH,
    OP_INT,
    OP_LOAD,
    OP_STORE,
    Instruction,
)
from repro.trace.tracefile import (
    MAGIC,
    TraceWriteError,
    capture,
    read_trace,
    replay,
    write_trace,
)


def roundtrip(instructions):
    buf = io.BytesIO()
    write_trace(iter(instructions), buf)
    buf.seek(0)
    return list(read_trace(buf))


class TestRoundTrip:
    def test_alu(self):
        out = roundtrip([Instruction(OP_INT, 0x1000, deps=(1, 5),
                                     latency=3)])
        instr = out[0]
        assert (instr.op, instr.pc, instr.deps, instr.latency) == \
            (OP_INT, 0x1000, (1, 5), 3)

    def test_memory_ops(self):
        out = roundtrip([
            Instruction(OP_LOAD, 0x1000, addr=0x2000_0000, deps=(2,)),
            Instruction(OP_STORE, 0x1004, addr=0x2000_0040)])
        assert out[0].addr == 0x2000_0000
        assert out[0].deps == (2,)
        assert out[1].op == OP_STORE

    def test_branches(self):
        out = roundtrip([
            Instruction(OP_BRANCH, 0x1000, taken=True, target=0x5000,
                        branch_kind=BR_CALL),
            Instruction(OP_BRANCH, 0x1010, taken=False, target=0x1014,
                        branch_kind=BR_COND)])
        assert out[0].taken and out[0].target == 0x5000
        assert out[0].branch_kind == BR_CALL
        assert not out[1].taken

    def test_workload_segment_roundtrips(self):
        gen = oltp_workload().generators(4)[0]
        original = [Instruction._make(record)
                    for record in itertools.islice(iter(gen), 5000)]
        out = roundtrip(original)
        assert len(out) == 5000
        for a, b in zip(original, out):
            assert (a.op, a.pc, a.addr, tuple(a.deps)[:3], a.taken,
                    a.target if a.op == OP_BRANCH else 0) == \
                   (b.op, b.pc, b.addr, b.deps, b.taken,
                    b.target if b.op == OP_BRANCH else 0)

    @pytest.mark.parametrize("factory", [oltp_workload, dss_workload,
                                         tpcc_workload])
    def test_generated_records_read_back_equal(self, factory):
        """Generated streams fit the format whole (at most 3 deps, no
        branch deps): a written file reads back to equal records."""
        gen = factory().generators(1)[0]
        original = list(itertools.islice(iter(gen), 4000))
        assert [tuple(record) for record in roundtrip(original)] == original

    @given(st.lists(st.tuples(
        st.sampled_from([OP_INT, OP_LOAD, OP_STORE]),
        st.integers(0, 1 << 40),
        st.lists(st.integers(1, 0xFFFF), max_size=3)), max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_arbitrary_records(self, specs):
        instrs = [Instruction(op, 0x1000, addr=addr, deps=tuple(deps))
                  for op, addr, deps in specs]
        out = roundtrip(instrs)
        assert [(i.op, i.addr, i.deps) for i in out] == \
            [(i.op, i.addr, tuple(i.deps)) for i in instrs]


class TestErrors:
    def test_bad_magic(self):
        with pytest.raises(ValueError, match="magic"):
            list(read_trace(io.BytesIO(b"NOTATRACE")))

    def test_truncated(self):
        buf = io.BytesIO()
        write_trace(iter([Instruction(OP_INT, 0x1000)]), buf)
        data = buf.getvalue()[:-5]
        with pytest.raises(ValueError, match="truncated"):
            list(read_trace(io.BytesIO(data)))

    def test_oversized_dep(self):
        with pytest.raises(TraceWriteError):
            roundtrip([Instruction(OP_INT, 0x1000, deps=(1 << 20,))])


class TestFileHelpers:
    def test_capture_and_replay(self, tmp_path):
        gen = oltp_workload().generators(4)[0]
        path = str(tmp_path / "oltp.trace")
        written = capture(gen, path, 2000)
        assert written == 2000
        replayed = list(replay(path))
        assert len(replayed) == 2000

    def test_replay_loop(self, tmp_path):
        path = str(tmp_path / "t.trace")
        capture(iter([Instruction(OP_INT, 0x1000 + 4 * i)
                      for i in range(10)]), path, 10)
        stream = replay(path, loop=True)
        first_20 = list(itertools.islice(stream, 20))
        assert len(first_20) == 20
        assert first_20[0].pc == first_20[10].pc

    def test_replayed_trace_drives_machine(self, tmp_path):
        """A captured trace file can replace the live generator."""
        gens = oltp_workload().generators(1)
        path = str(tmp_path / "p0.trace")
        capture(gens[0], path, 20_000)
        params = default_system(n_nodes=1, mesh_width=1)
        machine = Machine(params, [replay(path, loop=True)])
        machine.run(5000)
        assert machine.total_retired() >= 5000
