"""Trace capture and replay (the paper's ATOM-style workflow).

The paper drives RSIM with per-process trace *files* captured by an ATOM
tool on an AlphaServer (section 2.2).  Our generators produce streams on
the fly, but capturing them to files is useful for exactly the reasons
the authors used files: bit-identical replay across experiments, sharing
workloads between machines, and inspecting what the simulator consumed.

Format: one record per instruction, fixed 32-byte little-endian layout::

    u8  op          u8  branch_kind   u8  taken   u8  n_deps
    u32 latency     u64 pc            u64 addr    u64 target/deps

``deps`` (up to 3 backward distances, u16 each) are packed into the last
word for non-branches; branches store their target there instead (their
deps are always empty in the generated workloads).
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Optional

from repro.trace.instr import (
    I_ADDR,
    I_DEPS,
    I_KIND,
    I_LATENCY,
    I_OP,
    I_PC,
    I_TAKEN,
    I_TARGET,
    OP_BRANCH,
    Instruction,
)

_RECORD = struct.Struct("<BBBBIQQQ")
MAGIC = b"RPTRACE1"


class TraceWriteError(ValueError):
    """The instruction cannot be represented in the file format."""


def write_trace(instructions: Iterable[tuple], fh: BinaryIO,
                limit: Optional[int] = None) -> int:
    """Write up to ``limit`` instruction records; returns the count
    written."""
    fh.write(MAGIC)
    count = 0
    for record in instructions:
        if limit is not None and count >= limit:
            break
        op = record[I_OP]
        if op == OP_BRANCH:
            last = record[I_TARGET]
            n_deps = 0
        else:
            deps = tuple(record[I_DEPS])[:3]
            if any(d > 0xFFFF for d in deps):
                raise TraceWriteError(
                    f"dependence distance too large: {deps}")
            n_deps = len(deps)
            last = 0
            for i, d in enumerate(deps):
                last |= d << (16 * i)
        fh.write(_RECORD.pack(op, record[I_KIND],
                              1 if record[I_TAKEN] else 0, n_deps,
                              record[I_LATENCY], record[I_PC],
                              record[I_ADDR], last))
        count += 1
    return count


def read_trace(fh: BinaryIO) -> Iterator[Instruction]:
    """Yield instructions from a trace file (lazy)."""
    magic = fh.read(len(MAGIC))
    if magic != MAGIC:
        raise ValueError(f"not a trace file (magic {magic!r})")
    while True:
        raw = fh.read(_RECORD.size)
        if not raw:
            return
        if len(raw) != _RECORD.size:
            raise ValueError("truncated trace record")
        (op, kind, taken, n_deps, latency, pc, addr,
         last) = _RECORD.unpack(raw)
        if op == OP_BRANCH:
            yield Instruction(op, pc, addr=addr, latency=latency,
                              taken=bool(taken), target=last,
                              branch_kind=kind)
        else:
            deps = tuple((last >> (16 * i)) & 0xFFFF
                         for i in range(n_deps))
            yield Instruction(op, pc, addr=addr, deps=deps,
                              latency=latency)


def capture(generator: Iterable[tuple], path: str,
            n_instructions: int) -> int:
    """Capture the first ``n_instructions`` of a generator to ``path``.

    The file is published atomically (buffered in memory, then one
    :func:`repro.run.atomicio.atomic_write_bytes`), so a capture killed
    mid-write never leaves a truncated trace behind.
    """
    import io

    from repro.run import atomicio
    buffer = io.BytesIO()
    count = write_trace(iter(generator), buffer, limit=n_instructions)
    if not atomicio.atomic_write_bytes(Path(path), buffer.getvalue(),
                                       category="trace"):
        raise OSError(f"could not write trace file {path}")
    return count


def replay(path: str, loop: bool = False) -> Iterator[Instruction]:
    """Instruction stream from a trace file.

    With ``loop=True`` the trace repeats forever (so it can drive
    simulations longer than the captured segment, like cycling the
    generated workloads).
    """
    while True:
        with open(path, "rb") as fh:
            yield from read_trace(fh)
        if not loop:
            return
