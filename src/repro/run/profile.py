"""Profiling harness for the simulator hot path (``repro profile``).

Runs one simulation under :mod:`cProfile` and attributes exclusive time
to simulator subsystems (``cpu``, ``mem``, ``system``, ``trace``, ...),
reporting per-subsystem seconds, share, and microseconds per simulated
instruction plus overall simulated-instructions-per-second throughput.
This is the measurement backing the arena/fork-server optimisation work:
it shows where a cycle of host time goes and catches hot-path
regressions before they reach the benchmarks.

``--compare-arena`` additionally materializes a trace arena for the same
job, replays it, and reports the replay speedup and a byte-identity
check against the generator path -- a quick local version of the
cross-check the benchmark and CI smoke enforce.
"""

from __future__ import annotations

import cProfile
import contextlib
import json
import pstats
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.core.experiment import DEFAULT_INSTRUCTIONS, DEFAULT_WARMUP
from repro.params import default_system
from repro.run.jobs import JobSpec, WorkloadSpec

#: Top-level ``repro`` subpackages reported as subsystems; anything
#: else inside the package is charged to its module name, and stdlib /
#: builtin frames to ``python``.
_PACKAGE = "repro"


# ------------------------------------------------------------ phase costs

#: Per-phase execution accounting collected by :func:`phase` and
#: rendered at the end of ``repro report``: for each report phase, the
#: wall time and how much of it went to simulation, arena generation
#: and checkpoint writes (watchdog polling is part of the simulate
#: column -- it runs inside the cycle loop).
_phase_log: List[Dict[str, Any]] = []


def reset_phase_log() -> None:
    _phase_log.clear()


@contextlib.contextmanager
def phase(name: str):
    """Time one report phase, attributing runner costs by delta.

    Samples the executor's process-wide totals before and after, so the
    phase row shows exactly what *this* phase spent on simulation,
    trace-arena generation and checkpoint writes, and how many of its
    jobs were cache hits or checkpoint resumes.
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
            "sim_s": max(0.0, delta["wall_s"] - delta["trace_gen_s"]
                         - delta["checkpoint_s"]),
            "trace_gen_s": delta["trace_gen_s"],
            "checkpoint_s": delta["checkpoint_s"],
            "jobs": int(delta["jobs"]),
            "cache_hits": int(delta["cache_hits"]),
            "resumed": int(delta["resumed"]),
            "failed": int(delta["failed"]),
        })


def format_phase_log() -> str:
    """The per-phase cost table printed at the end of ``repro report``."""
    if not _phase_log:
        return "per-phase cost: nothing recorded"
    lines = ["per-phase cost (simulate / arena gen / checkpoints):"]
    for row in _phase_log:
        notes = []
        if row["cache_hits"]:
            notes.append(f"{row['cache_hits']} cached")
        if row["resumed"]:
            notes.append(f"{row['resumed']} resumed")
        if row["failed"]:
            notes.append(f"{row['failed']} FAILED")
        suffix = f"  ({', '.join(notes)})" if notes else ""
        lines.append(
            f"  {row['phase']:<16s} {row['wall_s']:>7.2f}s total: "
            f"{row['sim_s']:>7.2f}s sim, {row['trace_gen_s']:>5.2f}s "
            f"arenas, {row['checkpoint_s']:>5.2f}s ckpt, "
            f"{row['jobs']:>3d} job(s){suffix}")
    total = {key: sum(row[key] for row in _phase_log)
             for key in ("wall_s", "sim_s", "trace_gen_s",
                         "checkpoint_s")}
    overhead = total["checkpoint_s"] / total["sim_s"] \
        if total["sim_s"] > 0 else 0.0
    lines.append(
        f"  {'TOTAL':<16s} {total['wall_s']:>7.2f}s total: "
        f"{total['sim_s']:>7.2f}s sim, {total['trace_gen_s']:>5.2f}s "
        f"arenas, {total['checkpoint_s']:>5.2f}s ckpt "
        f"({overhead:.1%} checkpoint overhead)")
    return "\n".join(lines)


def _subsystem_of(filename: str) -> str:
    if filename.startswith("<") or filename.startswith("~"):
        return "python"
    parts = Path(filename).parts
    if _PACKAGE not in parts:
        return "python"
    at = len(parts) - 1 - parts[::-1].index(_PACKAGE)
    if at + 1 >= len(parts):
        return _PACKAGE
    component = parts[at + 1]
    return component[:-3] if component.endswith(".py") else component


def _profile_once(spec: JobSpec):
    """cProfile one job; (result, wall_s, subsystem seconds, functions)."""
    profiler = cProfile.Profile()
    started = time.perf_counter()  # repro-lint: disable=R002
    profiler.enable()
    result = spec.run()
    profiler.disable()
    wall_s = time.perf_counter() - started  # repro-lint: disable=R002

    stats = pstats.Stats(profiler)
    by_subsystem: Dict[str, float] = {}
    functions = []
    for (filename, lineno, funcname), \
            (_cc, ncalls, tottime, _cum, _callers) in stats.stats.items():
        by_subsystem[_subsystem_of(filename)] = \
            by_subsystem.get(_subsystem_of(filename), 0.0) + tottime
        functions.append({
            "function": f"{Path(filename).name}:{lineno}({funcname})",
            "seconds": tottime,
            "calls": ncalls,
        })
    functions.sort(key=lambda f: f["seconds"], reverse=True)
    return result, wall_s, by_subsystem, functions


def profile_run(kind: str = "oltp",
                instructions: int = DEFAULT_INSTRUCTIONS,
                warmup: int = DEFAULT_WARMUP,
                seed: int = 0,
                top: int = 10,
                compare_arena: bool = False,
                trace_dir: Optional[str] = None) -> Dict[str, Any]:
    """Profile one simulation; return a JSON-friendly report dict."""
    spec = JobSpec(default_system(), WorkloadSpec(kind),
                   instructions=instructions, warmup=warmup, seed=seed)
    total_instr = instructions + warmup

    result, wall_s, by_subsystem, functions = _profile_once(spec)
    profiled_s = sum(by_subsystem.values()) or 1e-9

    subsystems = [
        {
            "name": name,
            "seconds": round(seconds, 4),
            "share": round(seconds / profiled_s, 4),
            "us_per_instr": round(seconds / total_instr * 1e6, 3),
        }
        for name, seconds in sorted(by_subsystem.items(),
                                    key=lambda kv: kv[1], reverse=True)
    ]
    report: Dict[str, Any] = {
        "workload": kind,
        "instructions": instructions,
        "warmup": warmup,
        "seed": seed,
        "cycles": result.cycles,
        "wall_s": round(wall_s, 4),
        "instr_per_s": round(total_instr / wall_s) if wall_s else 0,
        "subsystems": subsystems,
        "top_functions": [
            {"function": f["function"],
             "seconds": round(f["seconds"], 4),
             "calls": f["calls"]}
            for f in functions[:max(0, top)]
        ],
    }
    if compare_arena:
        report["arena"] = _compare_arena(spec, result, trace_dir)
    return report


def _compare_arena(spec: JobSpec, generator_result,
                   trace_dir: Optional[str]) -> Dict[str, Any]:
    """Materialize + replay the job's arena; time and cross-check it."""
    import tempfile

    from repro.trace import arena as trace_arena

    def measure(workload=None):
        started = time.perf_counter()  # repro-lint: disable=R002
        result = spec.run(workload=workload)
        return result, time.perf_counter() - started  # repro-lint: disable=R002

    with tempfile.TemporaryDirectory() as scratch:
        directory = Path(trace_dir) if trace_dir else Path(scratch)
        recorder = trace_arena.ArenaRecorder(
            spec.workload.build(), spec.params.n_nodes, spec.seed,
            spec.workload.to_dict(), spec.instructions + spec.warmup)
        _recorded, generator_s = measure(workload=recorder.workload())
        path = directory / f"{recorder.key()}.arena"
        wrote = recorder.write(path)
        handle = trace_arena.load_cached(path) if wrote else None
        if handle is None:
            return {"materialized": False}
        replayed, replay_s = measure(workload=handle)
        comparison = {
            "materialized": True,
            "generator_s": round(generator_s, 4),
            "replay_s": round(replay_s, 4),
            "replay_speedup": round(generator_s / replay_s, 2)
            if replay_s else 0.0,
            "identical": replayed.to_dict() == generator_result.to_dict(),
            "arena_bytes": path.stat().st_size if path.exists() else 0,
        }
        trace_arena.forget(path)
        return comparison


def format_report(report: Dict[str, Any]) -> str:
    lines = [
        f"workload {report['workload']}  "
        f"instr {report['instructions']:,} (+{report['warmup']:,} warmup)"
        f"  seed {report['seed']}",
        f"cycles {report['cycles']:,}  wall {report['wall_s']:.2f}s  "
        f"{report['instr_per_s']:,} simulated instr/s",
        "",
        "per-subsystem exclusive time:",
    ]
    for sub in report["subsystems"]:
        if sub["share"] < 0.001:
            continue
        lines.append(f"  {sub['name']:<10s} {sub['seconds']:>8.3f}s  "
                     f"{sub['share']:>6.1%}  "
                     f"{sub['us_per_instr']:>8.3f} us/instr")
    if report.get("top_functions"):
        lines.append("")
        lines.append("hottest functions (exclusive):")
        for fn in report["top_functions"]:
            lines.append(f"  {fn['seconds']:>8.3f}s  {fn['calls']:>10,}x  "
                         f"{fn['function']}")
    arena = report.get("arena")
    if arena is not None:
        lines.append("")
        if not arena.get("materialized"):
            lines.append("arena cross-check: not materialized "
                         "(stream outside format envelope?)")
        else:
            verdict = "identical" if arena["identical"] else "DIVERGED"
            lines.append(
                f"arena cross-check: generator {arena['generator_s']:.2f}s"
                f" vs replay {arena['replay_s']:.2f}s "
                f"({arena['replay_speedup']:.2f}x), results {verdict}, "
                f"{arena['arena_bytes']:,} bytes on disk")
    return "\n".join(lines)
