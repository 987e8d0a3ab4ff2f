"""Per-CPU OS scheduler model (paper section 2.2).

Blocking system calls in the traces are context-switch hints; the
simulator models the operating-system scheduler internally: the blocking
process is put to sleep for the I/O latency and the next ready process on
that CPU's run queue is dispatched after a context-switch cost.  Idle time
(no ready process) is accounted separately and factored out of the
execution-time breakdowns, as in the paper.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.system.process import Process


class CpuScheduler:
    """Round-robin run queue of one CPU."""

    def __init__(self, cpu_id: int):
        self.cpu_id = cpu_id
        self._queue: deque = deque()
        self.context_switches = 0

    def add(self, process: Process) -> None:
        self._queue.append(process)

    def pick_ready(self, now: int) -> Optional[Process]:
        """Pop the first ready process, preserving round-robin order."""
        for _ in range(len(self._queue)):
            process = self._queue.popleft()
            if process.ready(now):
                self.context_switches += 1
                return process
            self._queue.append(process)
        return None

    def earliest_wake(self) -> Optional[int]:
        if not self._queue:
            return None
        return min(p.blocked_until for p in self._queue)

    def __len__(self) -> int:
        return len(self._queue)
