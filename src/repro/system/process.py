"""Simulated Oracle server process: an instruction stream + schedule state."""

from __future__ import annotations

from typing import Iterator

from repro.cpu.core import TraceBuffer


class Process:
    """One server process, pinned to a CPU (dedicated-mode Oracle).

    ``trace`` wraps the workload generator and supports re-fetch across
    rollbacks and context switches; ``resume_seq`` is the next dynamic
    instruction to fetch when the process is (re)scheduled.
    """

    __slots__ = ("pid", "cpu", "trace", "generator", "resume_seq",
                 "blocked_until", "syscalls")

    def __init__(self, pid: int, generator: Iterator, cpu: int):
        self.pid = pid
        self.cpu = cpu
        self.trace = TraceBuffer(iter(generator))
        self.generator = generator
        self.resume_seq = 0
        self.blocked_until = 0
        self.syscalls = 0

    def block(self, until: int) -> None:
        self.blocked_until = until
        self.syscalls += 1

    def ready(self, now: int) -> bool:
        return now >= self.blocked_until

    def __repr__(self) -> str:
        return f"Process(pid={self.pid}, cpu={self.cpu})"
