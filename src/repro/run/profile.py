"""Per-phase cost log printed at the end of ``repro report``.

:func:`phase` times one report phase and charges the part spent inside
``run_many`` to simulation by sampling the executor's process-wide
totals; :func:`format_phase_log` renders the table.
"""

from __future__ import annotations

import contextlib
import time
from typing import Any, Dict, List

#: Per-phase execution accounting collected by :func:`phase`: for each
#: report phase, the wall time and how much of it went to simulation
#: (watchdog polling is part of the simulate column -- it runs inside
#: the cycle loop).
_phase_log: List[Dict[str, Any]] = []


def reset_phase_log() -> None:
    _phase_log.clear()


@contextlib.contextmanager
def phase(name: str):
    """Time one report phase, attributing runner costs by delta.

    Samples the executor's process-wide totals before and after, so the
    phase row shows exactly what *this* phase spent on simulation and
    how many of its jobs were cache hits.
    """
    from repro.run.executor import run_totals
    before = run_totals()
    started = time.perf_counter()  # repro-lint: disable=R002
    try:
        yield
    finally:
        elapsed = time.perf_counter() - started  # repro-lint: disable=R002
        after = run_totals()
        delta = {key: after[key] - before[key] for key in after}
        _phase_log.append({
            "phase": name,
            "wall_s": elapsed,
            "sim_s": delta["wall_s"],
            "jobs": int(delta["jobs"]),
            "cache_hits": int(delta["cache_hits"]),
            "failed": int(delta["failed"]),
        })


def format_phase_log() -> str:
    """The per-phase cost table printed at the end of ``repro report``."""
    if not _phase_log:
        return "per-phase cost: nothing recorded"
    lines = ["per-phase cost (total / simulate):"]
    for row in _phase_log:
        notes = []
        if row["cache_hits"]:
            notes.append(f"{row['cache_hits']} cached")
        if row["failed"]:
            notes.append(f"{row['failed']} FAILED")
        suffix = f"  ({', '.join(notes)})" if notes else ""
        lines.append(
            f"  {row['phase']:<16s} {row['wall_s']:>7.2f}s total: "
            f"{row['sim_s']:>7.2f}s sim, {row['jobs']:>3d} job(s)"
            f"{suffix}")
    total = {key: sum(row[key] for row in _phase_log)
             for key in ("wall_s", "sim_s")}
    lines.append(
        f"  {'TOTAL':<16s} {total['wall_s']:>7.2f}s total: "
        f"{total['sim_s']:>7.2f}s sim")
    return "\n".join(lines)
