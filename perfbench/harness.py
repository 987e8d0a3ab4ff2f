"""Workloads, measured passes and metrics of the repository benchmark.

One *pass* runs a workload's job set once against a fresh result cache
(the cold side: simulation, arenas, checkpoints, cache puts, manifest),
then reruns it against the cache the cold side just filled (the warm
side: cache gets and manifest only).  ``run.py`` repeats passes for
about the requested number of seconds and reports the fastest; a traced
run adds one pass under :class:`layers.Tracer`.

Every job's ``SimulationResult.to_dict()`` is hashed, in job order, into
one digest per pass.  All passes of a run -- cold, warm, traced -- must
agree, and must match the digest recorded in ``digests.json`` for this
``MODEL_VERSION``, workload and seed when one is recorded.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from layers import Tracer

_perf = time.perf_counter

#: Cell run sizes: the default warmup, and enough measured instructions
#: that the default checkpoint interval (100k retired, warmup included)
#: fires twice -- at 100k and 200k of the 220k total.
CELL_WARMUP = 40_000
CELL_INSTRUCTIONS = 180_000

#: The ``repro report --quick`` phases this benchmark runs: DSS issue
#: width with in-order cores (Figure 3(a)), DSS SC/PC/RC implementations
#: (Figure 6), and OLTP migratory hints on a stream-buffer machine
#: (Figure 7(b)).  (label, figure function, quick-size key.)
REPORT_PHASES: Tuple[Tuple[str, str, str], ...] = (
    ("figure 3a", "figure_ilp_issue_width:dss", "dss"),
    ("figure 6 dss", "figure6:dss", "dss"),
    ("figure 7b", "figure7b", "oltp"),
)


@dataclass(frozen=True)
class Sizes:
    """Run lengths; the smoke mode shrinks all of them."""

    cell_instructions: int = CELL_INSTRUCTIONS
    cell_warmup: int = CELL_WARMUP
    checkpoint_every: Optional[int] = None   # None: the program default
    report_sizes: Optional[Dict[str, Tuple[int, int]]] = None  # None: quick
    setup_reps: int = 9                      # spread over the passes
    warm_reps: Optional[int] = None          # None: the workload's own


SMOKE = Sizes(cell_instructions=3_000, cell_warmup=1_000,
              checkpoint_every=1_500,
              report_sizes={"oltp": (600, 400), "dss": (600, 400)},
              setup_reps=2, warm_reps=1)


@dataclass
class Pass:
    """What one pass measured."""

    wall_s: float                    # the cold side
    warm_s: List[float]              # each warm rerun
    digest: str
    warm_digests: List[str]
    reports: list                    # RunReports of the cold side
    jobs: int                        # outcomes, cold and warm
    failed: int                      # failed outcomes, cold and warm
    sim_instructions: int            # simulated by the cold side
    job_s_sum: float                 # seconds the cold side's jobs took
    problems: List[str] = field(default_factory=list)
    phases: List[Dict[str, Any]] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    workers: int = 1

    @property
    def computed(self) -> list:
        """Results the cold side simulated (not served from the cache)."""
        return [o.result for r in self.reports for o in r.outcomes
                if not o.cached and o.result is not None]

    @property
    def consistent(self) -> bool:
        return all(d == self.digest for d in self.warm_digests)


def result_problems(reports) -> List[str]:
    """Sanity checks on every simulated result, recorded digest or not:
    the measured instruction count is the one asked for, and the stall
    breakdown charges every measured cycle of every node, to within the
    skip-ahead jumps that straddle the start and end of measurement
    (1% plus 1000 cycles per node)."""
    problems = []
    for report in reports:
        for outcome in report.outcomes:
            result = outcome.result
            if result is None or outcome.cached:
                continue
            label = outcome.spec.describe()
            if result.instructions != outcome.spec.instructions:
                problems.append(f"{label}: {result.instructions} "
                                f"instructions measured, "
                                f"{outcome.spec.instructions} asked")
            charged = sum(result.breakdown.cycles)
            nodes = result.params.n_nodes
            expected = result.cycles * nodes
            slack = 0.01 * expected + 1000 * nodes
            if result.cycles <= 0 or abs(charged - expected) > slack:
                problems.append(f"{label}: breakdown charges {charged} "
                                f"node-cycles for {expected}")
    return problems


def digest_of(reports) -> str:
    """sha256 over every job's canonical result dict, in job order."""
    results = [None if o.result is None else o.result.to_dict()
               for r in reports for o in r.outcomes]
    text = json.dumps(results, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ------------------------------------------------------------------ memory

def _children_hwm_mb() -> float:
    """Peak RSS of this process's live children (the worker pool)."""
    me = str(os.getpid())
    total_kb = 0
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
            if stat[stat.rindex(")") + 2:].split()[1] != me:
                continue
            with open(f"/proc/{entry}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except (OSError, ValueError, IndexError):
            continue   # exited while we looked
    return total_kb / 1024.0


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its live children, MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return own + _children_hwm_mb()


def stop_pool() -> None:
    """Shut the worker pool down and wait until every worker has ended,
    so the next cold pass starts it afresh, as a new process would."""
    from repro.run import forkserver
    pool = forkserver._pool
    if pool is not None:
        pool.shutdown(wait=True)
    forkserver.recycle_pool()


# ------------------------------------------------------------------- setup

_SETUP_CHILD = """\
import importlib
import sys
importlib.import_module(sys.argv[3])
from repro.params import default_system
from repro.run.jobs import JobSpec, WorkloadSpec
from repro.system.machine import Machine
spec = JobSpec(default_system(), WorkloadSpec(sys.argv[1]),
               seed=int(sys.argv[2]))
workload = spec.workload.build()
Machine(spec.params, workload.generators(spec.params.n_nodes,
                                         seed=spec.seed))
print("ready", flush=True)
"""


def measure_setup(root: Path, kind: str, seed: int, entry_module: str,
                  reps: int) -> List[float]:
    """Seconds from launching a fresh interpreter to a built machine
    (interpreter start, importing ``entry_module``, building the
    ``kind`` workload and its machine), ``reps`` times."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    times = []
    for _ in range(reps):
        started = _perf()
        child = subprocess.Popen(
            [sys.executable, "-c", _SETUP_CHILD, kind, str(seed),
             entry_module],
            cwd=str(root), env=env, stdout=subprocess.PIPE, text=True)
        try:
            line = child.stdout.readline()
            elapsed = _perf() - started
            child.stdout.close()
        finally:
            child.wait()
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"set-up child failed (exit "
                               f"{child.returncode}, said {line!r})")
        times.append(elapsed)
    return times


# ------------------------------------------------------------------- bench

class Bench:
    """Fresh working directories and the ``run_many`` every pass calls.

    ``inner`` is the runner's ``run_many``; a traced pass wraps it.
    :meth:`collect` records every report it returns, and is what the
    figure functions call during a report pass.
    """

    def __init__(self, work: Path):
        import repro.run as run
        self.work = work
        self.inner: Callable = run.run_many
        self.reports: list = []
        self._n = 0

    def collect(self, *args, **kwargs):
        report = self.inner(*args, **kwargs)
        self.reports.append(report)
        return report

    def fresh_dir(self) -> Path:
        self._n += 1
        path = self.work / f"pass-{self._n}"
        path.mkdir(parents=True)
        return path

    def finish_dir(self, path: Path) -> None:
        """Drop the arenas mapped from ``path`` and delete it."""
        from repro.trace import arena as trace_arena
        for arena_file in path.rglob("*.arena"):
            trace_arena.forget(arena_file)
        shutil.rmtree(path, ignore_errors=True)
        gc.collect()

    @contextlib.contextmanager
    def runner(self, cache_dir: Path, jobs: int,
               checkpoint_every: Optional[int]):
        """Configure the runner as ``repro --jobs N --cache-dir DIR``
        would, route the figure functions through :meth:`collect`."""
        import repro.run as run
        from repro.core import figures
        from repro.run.checkpoint import DEFAULT_CHECKPOINT_EVERY
        run.configure(jobs=jobs, cache_dir=str(cache_dir), resume=False,
                      arenas="auto", trace_dir="",
                      checkpoint_every=(DEFAULT_CHECKPOINT_EVERY
                                        if checkpoint_every is None
                                        else checkpoint_every),
                      dispatch="local", workers=())
        original = figures.run_many
        figures.run_many = self.collect
        try:
            yield
        finally:
            figures.run_many = original


# ------------------------------------------------------------------ passes

def _cell(kind: str) -> Callable[[Bench, int, Sizes], None]:
    """The job set of a base cell of workload ``kind``."""
    def body(bench: Bench, seed: int, sizes: Sizes) -> None:
        from repro.params import default_system
        from repro.run.jobs import JobSpec, WorkloadSpec
        spec = JobSpec(default_system(), WorkloadSpec(kind),
                       instructions=sizes.cell_instructions,
                       warmup=sizes.cell_warmup, seed=seed)
        bench.collect([spec])
    return body


def _report(bench: Bench, seed: int, sizes: Sizes) -> None:
    """The selected ``repro report --quick`` phases, rendered as the
    report renders them (output discarded)."""
    import repro.run as run
    from repro import cli
    from repro.core import figures
    from repro.run import profile as run_profile
    quick = sizes.report_sizes or cli._QUICK_SIZES
    run_profile.reset_phase_log()
    with contextlib.redirect_stdout(io.StringIO()):
        for label, target, size_key in REPORT_PHASES:
            name, _, workload = target.partition(":")
            instructions, warmup = quick[size_key]
            args = (workload,) if workload else ()
            with run_profile.phase(label):
                fig = getattr(figures, name)(*args, instructions, warmup,
                                             seed)
                cli._print_figure(fig)
        print(run.shared_cache().format_stats())
        print(run.shared_manifest().format_summary())
        print(run_profile.format_phase_log())


@dataclass(frozen=True)
class Workload:
    """A benchmark workload: its job set and how a timed run repeats it.

    A timed run makes ``max(min_passes, round(seconds / pass_s))``
    passes: a fixed count for a given ``--seconds``, so every run
    measures the same work.
    """

    body: Callable[[Bench, int, Sizes], None]
    jobs: int              # workers of the measured passes
    pass_s: float          # budget of one pass (reference host)
    min_passes: int
    warm_reps: int         # warm reruns per pass
    setup_kind: str        # what the set-up probe builds ...
    setup_module: str      # ... after importing this entry point


WORKLOADS = {
    "oltp-cell": Workload(_cell("oltp"), jobs=1, pass_s=10.0, min_passes=2,
                          warm_reps=6, setup_kind="oltp",
                          setup_module="repro.run"),
    "dss-cell": Workload(_cell("dss"), jobs=1, pass_s=7.5, min_passes=2,
                         warm_reps=6, setup_kind="dss",
                         setup_module="repro.run"),
    # As ``repro report --quick --jobs 2``; its first job is DSS.
    "report-quick": Workload(_report, jobs=2, pass_s=15.0, min_passes=1,
                             warm_reps=8, setup_kind="dss",
                             setup_module="repro.cli"),
}


def run_pass(bench: Bench, workload: Workload, seed: int,
             sizes: Sizes, jobs: int, warm_reps: int) -> Pass:
    """One cold pass plus ``warm_reps`` warm reruns in a fresh cache."""
    from repro.run import profile as run_profile
    body = workload.body
    directory = bench.fresh_dir()
    try:
        with bench.runner(directory, jobs, sizes.checkpoint_every):
            bench.reports = []
            started = _perf()
            body(bench, seed, sizes)
            wall = _perf() - started
            cold = bench.reports
            phases = [dict(row) for row in run_profile._phase_log]
            rss = peak_rss_mb()
            if jobs > 1:
                stop_pool()
            warm_s, warm_digests, warm_jobs, warm_failed = [], [], 0, 0
            for _ in range(warm_reps):
                bench.reports = []
                started = _perf()
                body(bench, seed, sizes)
                warm_s.append(_perf() - started)
                warm_digests.append(digest_of(bench.reports))
                warm_jobs += sum(len(r.outcomes) for r in bench.reports)
                warm_failed += sum(len(r.failures) for r in bench.reports)
        return Pass(wall_s=wall, warm_s=warm_s, digest=digest_of(cold),
                    warm_digests=warm_digests, reports=cold,
                    jobs=sum(len(r.outcomes) for r in cold) + warm_jobs,
                    failed=sum(len(r.failures) for r in cold) + warm_failed,
                    sim_instructions=sum(r.simulated_instructions
                                         for r in cold),
                    job_s_sum=sum(o.wall_time for r in cold
                                  for o in r.outcomes if not o.cached),
                    problems=result_problems(cold),
                    phases=phases,
                    peak_rss_mb=rss, workers=jobs)
    finally:
        stop_pool()
        bench.finish_dir(directory)


def traced_pass(bench: Bench, workload: Workload, seed: int,
                sizes: Sizes) -> Tuple[Pass, Tracer, float]:
    """A serial pass (cold plus one warm rerun) with every layer traced.

    Returns the pass, the tracer and the traced wall time (the whole
    pass, including the parts no span covers).
    """
    tracer = Tracer()
    tracer.install(bench, "inner")
    try:
        started = _perf()
        result = run_pass(bench, workload, seed, sizes, jobs=1,
                          warm_reps=1)
        traced_wall = _perf() - started
    finally:
        tracer.uninstall()
    return result, tracer, traced_wall


# ----------------------------------------------------------------- metrics

def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def layer_metrics(traced: Pass, tracer: Tracer, traced_wall: float,
                  untraced: Pass, untraced_serial_wall: float
                  ) -> Tuple[Dict[str, float], List[str]]:
    """The per-layer metrics of a traced run, and the violations of the
    conservation and counter cross-checks."""
    reports = traced.reports
    computed = traced.computed
    asked = sum(o.spec.instructions + o.spec.warmup
                for r in reports for o in r.outcomes
                if not o.cached and not o.failed)
    problems = tracer.check(traced_wall, asked)
    sim = tracer.simulator_counters()
    self_s = tracer.self_s
    unspanned = traced_wall - tracer.root_s
    retired = sim["retired"]
    ticks = tracer.count["cpu"]
    attempted = sum(len(r.outcomes) for r in reports)
    metrics = {
        "trace.records": tracer.tally["trace.records"],
        "trace.gen_s": self_s["trace"],
        "run.arena_gen_s": sum(r.trace_gen_s for r in reports),
        "cpu.ticks": ticks,
        "cpu.ticks_per_instr": ticks / retired if retired else 0.0,
        "cpu.self_s": self_s["cpu"],
        "cpu.retired": retired,
        "cpu.mispredict_rate": _mean(r.misprediction_rate
                                     for r in computed),
        "mem.accesses": tracer.count["mem"],
        "mem.self_s": self_s["mem"],
        "mem.l1i_miss_rate": _mean(r.miss_rates["l1i"] for r in computed),
        "mem.l1d_miss_rate": _mean(r.miss_rates["l1d"] for r in computed),
        "mem.l2_miss_rate": _mean(r.miss_rates["l2"] for r in computed),
        "mem.sb_hit_rate": _mean(r.stream_buffer_hit_rate
                                 for r in computed),
        "coherence.transactions": tracer.count["coherence"],
        "coherence.self_s": self_s["coherence"],
        "coherence.dirty_misses": sum(r.coherence.reads_dirty
                                      + r.coherence.writes_dirty
                                      for r in computed),
        "mesh.messages": tracer.count["mesh"],
        "mesh.self_s": self_s["mesh"],
        "system.self_s": self_s["system"],
        "system.sim_cycles": sum(r.cycles for r in computed),
        "system.ipc": _mean(r.ipc for r in computed),
        "system.host_us_per_cycle": (tracer.system_incl_s / sim["cycles"]
                                     * 1e6 if sim["cycles"] else 0.0),
        "run.jobs": attempted,
        "run.cache_hits": sum(r.cache_hits for r in reports),
        "run.cache_get_s": self_s["cache_get"],
        "run.cache_put_s": self_s["cache_put"],
        "run.checkpoint_s": sum(r.checkpoint_s for r in reports),
        "run.checkpoints_written": tracer.tally["ckpt.written"],
        "run.job_s_sum": traced.job_s_sum,
        "run.pool_overhead_s": (untraced.wall_s
                                - untraced.job_s_sum / untraced.workers),
        "run.attempts": sum(o.attempts for r in reports
                            for o in r.outcomes),
        "run.self_s": self_s["run"] + self_s["ckpt_save"] + unspanned,
        "run.job_failure_rate": (traced.failed / traced.jobs
                                 if traced.jobs else 0.0),
        "warm_wall_s": min(untraced.warm_s),
        "trace_overhead_frac": (traced.wall_s / untraced_serial_wall - 1.0
                                if untraced_serial_wall > 0 else 0.0),
        "traced_wall_s": traced_wall,
    }
    for label, _target, _size in REPORT_PHASES:
        row = next((p for p in untraced.phases if p["phase"] == label), {})
        key = "run.phase." + label.replace(" ", "_")
        metrics[key + "_s"] = row.get("wall_s", 0.0)
        metrics[key + ".sim_s"] = row.get("sim_s", 0.0)
        metrics[key + ".arena_s"] = row.get("trace_gen_s", 0.0)
        metrics[key + ".ckpt_s"] = row.get("checkpoint_s", 0.0)
    return metrics, problems


def end_to_end_metrics(passes: List[Pass], setup: List[float]
                       ) -> Dict[str, float]:
    """The end-to-end metrics of a timed (untraced) run.

    Timings are the fastest pass: on a shared host,
    interference only ever slows a pass down, and the fastest of several
    is the steadiest estimate of the program's own cost (its run-to-run
    spread is a third to a half of the median's on the reference host).
    Set-up is the median of its launches.
    """
    fastest = min(passes, key=lambda p: p.wall_s)
    return {
        "wall_s": fastest.wall_s,
        "sim_instr_per_s": fastest.sim_instructions / fastest.wall_s,
        "setup_s": statistics.median(setup),
        # The first pass runs in a fresh process, as a user's run does;
        # later passes inherit its heap, so only the first counts.
        "peak_rss_mb": passes[0].peak_rss_mb,
    }
