"""Pipeline trace: per-cycle text dump of a core's instruction window.

A debugging tool in the tradition of SimpleScalar's "pipetrace": attach a
:class:`PipeTracer` to a core, run, and get a per-cycle listing of what
occupied the window and why the head could not retire.  Invaluable when a
stall attribution looks wrong.

Usage::

    tracer = PipeTracer(machine.cores[0], max_cycles=200)
    machine.run(1000)
    print(tracer.format())
"""

from __future__ import annotations

from typing import List, Optional

from repro.cpu.core import (
    ST_DONE,
    ST_EXEC,
    ST_MEMACC,
    ST_MEMQ,
    ST_READY,
    ST_WAIT,
    ProcessorCore,
)
from repro.trace.instr import OP_NAMES

_STATE_CHARS = {
    ST_WAIT: "w",     # waiting for operands
    ST_READY: "r",    # ready to issue
    ST_EXEC: "X",     # in a functional unit
    ST_MEMQ: "q",     # in the memory queue
    ST_MEMACC: "M",   # memory access outstanding
    ST_DONE: "D",     # complete, awaiting retirement
}


class PipeTracer:
    """Records a window snapshot after every core tick."""

    def __init__(self, core: ProcessorCore, max_cycles: int = 1000,
                 window_chars: int = 48):
        self.core = core
        self.max_cycles = max_cycles
        self.window_chars = window_chars
        self.lines: List[str] = []
        # Machine.run skips a core while its last tick was certified
        # quiet.  A traced core is never quiet, so it is recorded at
        # every grid point (results are unchanged: a skipped tick is a
        # certified no-op).  Attach before run().
        self._original_tick = core.tick
        core.tick = self._traced_tick  # type: ignore[assignment]

    def detach(self) -> None:
        self.core.tick = self._original_tick  # type: ignore[assignment]

    def _traced_tick(self, now: int) -> int:
        result = self._original_tick(now)
        self.core.tick_quiet = False
        if len(self.lines) < self.max_cycles:
            self.lines.append(self._snapshot(now))
        return result

    def _snapshot(self, now: int) -> str:
        core = self.core
        window = list(core._window)[:self.window_chars]
        picture = "".join(_STATE_CHARS.get(e.state, "?") for e in window)
        head = window[0] if window else None
        if head is None:
            detail = "(window empty)"
        else:
            op = OP_NAMES.get(head.instr.op, "?")
            detail = (f"head seq={head.seq} {op} "
                      f"{_STATE_CHARS.get(head.state, '?')}")
        return (f"{now:>10d} |{picture:<{self.window_chars}s}| "
                f"retired={core.retired} {detail}")

    def format(self, last: Optional[int] = None) -> str:
        title = "window (head left)"
        header = (f"{'cycle':>10s} |{title:<{self.window_chars}s}| "
                  "legend: w=wait r=ready X=exec q=memq M=mem D=done")
        body = self.lines if last is None else self.lines[-last:]
        return "\n".join([header] + body)
