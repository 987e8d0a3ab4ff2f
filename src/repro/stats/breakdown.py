"""Execution-time breakdown with the paper's stall-attribution convention.

Section 3 of the paper: *"At every cycle, we calculate the ratio of the
instructions retired that cycle to the maximum retire rate and attribute
this fraction of the cycle to the busy time.  The remaining fraction is
attributed as stall time to the first instruction that could not be retired
that cycle."*

Components match the paper's figures: CPU (busy + functional-unit stalls),
data read (subdivided into L1 hits + miscellaneous, L2 hits, local memory,
remote memory, dirty/cache-to-cache, and data TLB), data write,
synchronization, and instruction stall (I-cache + I-TLB).  Idle time is
factored out, as in the paper (footnote 1).
"""

from __future__ import annotations

from typing import Dict, Iterable

BUSY = 0
CPU_STALL = 1      # FU stalls, non-memory latency, pipeline restarts
READ_L1 = 2        # L1 hits + miscellaneous (address generation, restarts)
READ_L2 = 3
READ_LOCAL = 4
READ_REMOTE = 5
READ_DIRTY = 6
READ_DTLB = 7
WRITE = 8
SYNC = 9
INSTR = 10
IDLE = 11

N_CATEGORIES = 12

CATEGORY_NAMES = {
    BUSY: "busy", CPU_STALL: "cpu_stall", READ_L1: "read_l1_misc",
    READ_L2: "read_l2", READ_LOCAL: "read_local", READ_REMOTE: "read_remote",
    READ_DIRTY: "read_dirty", READ_DTLB: "read_dtlb", WRITE: "write",
    SYNC: "sync", INSTR: "instr", IDLE: "idle",
}

READ_CATEGORIES = (READ_L1, READ_L2, READ_LOCAL, READ_REMOTE, READ_DIRTY,
                   READ_DTLB)


class ExecutionBreakdown:
    """Per-core (or aggregated) execution-time components in cycles."""

    def __init__(self) -> None:
        self.cycles = [0.0] * N_CATEGORIES
        self.instructions = 0

    def busy(self, fraction: float) -> None:
        self.cycles[BUSY] += fraction

    def stall(self, category: int, cycles: float) -> None:
        self.cycles[category] += cycles

    def reset(self) -> None:
        self.cycles = [0.0] * N_CATEGORIES
        self.instructions = 0

    # -- aggregation & reporting --------------------------------------------

    @property
    def total(self) -> float:
        """Total accounted cycles excluding idle (paper factors idle out)."""
        return sum(self.cycles) - self.cycles[IDLE]

    @property
    def cpu(self) -> float:
        """Paper's 'CPU' component: busy + functional-unit stalls."""
        return self.cycles[BUSY] + self.cycles[CPU_STALL]

    @property
    def read(self) -> float:
        return sum(self.cycles[c] for c in READ_CATEGORIES)

    @property
    def write(self) -> float:
        return self.cycles[WRITE]

    @property
    def sync(self) -> float:
        return self.cycles[SYNC]

    @property
    def instr(self) -> float:
        return self.cycles[INSTR]

    @property
    def ipc(self) -> float:
        return self.instructions / self.total if self.total else 0.0

    def merge(self, other: "ExecutionBreakdown") -> None:
        for i in range(N_CATEGORIES):
            self.cycles[i] += other.cycles[i]
        self.instructions += other.instructions

    @classmethod
    def merged(cls, parts: Iterable["ExecutionBreakdown"]
               ) -> "ExecutionBreakdown":
        out = cls()
        for part in parts:
            out.merge(part)
        return out

    def as_dict(self) -> Dict[str, float]:
        return {CATEGORY_NAMES[i]: self.cycles[i]
                for i in range(N_CATEGORIES)}

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable snapshot (exact: cycles are kept as the raw
        per-category list, not derived shares)."""
        return {"cycles": list(self.cycles),
                "instructions": self.instructions}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ExecutionBreakdown":
        out = cls()
        cycles = list(data["cycles"])
        if len(cycles) != N_CATEGORIES:
            raise ValueError(
                f"expected {N_CATEGORIES} breakdown categories, "
                f"got {len(cycles)}")
        out.cycles = cycles
        out.instructions = int(data["instructions"])
        return out

    def shares(self) -> Dict[str, float]:
        """Each component as a fraction of non-idle execution time."""
        total = self.total or 1.0
        return {CATEGORY_NAMES[i]: self.cycles[i] / total
                for i in range(N_CATEGORIES) if i != IDLE}

    def summary_row(self) -> Dict[str, float]:
        """The paper's top-level bar segments, as fractions."""
        total = self.total or 1.0
        return {
            "cpu": self.cpu / total,
            "read": self.read / total,
            "write": self.write / total,
            "sync": self.sync / total,
            "instr": self.instr / total,
        }

    def format_bar(self, label: str, scale: float = 1.0) -> str:
        """One printable row of a normalized-execution-time figure."""
        row = self.summary_row()
        return (f"{label:<28s} total={scale:6.3f} | "
                f"CPU={row['cpu'] * scale:5.3f} "
                f"read={row['read'] * scale:5.3f} "
                f"write={row['write'] * scale:5.3f} "
                f"sync={row['sync'] * scale:5.3f} "
                f"instr={row['instr'] * scale:5.3f}")
