"""Runner scaling: serial vs trace arenas vs fork-server pool vs cache.

Runs a small OLTP configuration sweep four ways and records the wall
times in ``BENCH_runner.json`` at the repo root so the perf trajectory
of the experiment harness itself is tracked across PRs:

1. **serial cold** -- generator path, no arenas (the baseline);
2. **arena serial** -- same sweep with trace arenas materialized and
   replayed in-process (``trace_gen_s`` is reported separately from
   ``sim_s`` so the arena win is attributable);
3. **parallel** -- fork-server pool with warm arenas and batched
   dispatch (``REPRO_BENCH_INSTR``/``REPRO_BENCH_WARMUP`` shrink the
   per-job size for smoke runs; ``REPRO_BENCH_JOBS`` sets workers);
4. **warm cache** -- serial rerun against the now-warm result cache.

Checked invariants: all paths return bit-identical results, and the
warm-cache rerun is at least 5x faster than the cold serial run.
Parallel speedup expectations scale with the cores actually available
(``os.sched_getaffinity``): with 4+ cores the pool must beat serial by
1.5x, with 2-3 cores by 1.3x.  On a single effective
core real parallelism is impossible, so ``parallel_speedup`` is
reported as ``null`` and ``parallel_regression`` as ``"skipped"``
rather than mislabelling the inevitable pool overhead a regression.
"""

import dataclasses
import json
import multiprocessing
import os
from pathlib import Path

from conftest import BENCH_JOBS

from repro.params import default_system
from repro.run import DEFAULT_CHECKPOINT_EVERY, MODEL_VERSION, JobSpec, \
    ResultCache, WorkloadSpec, run_many

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_runner.json"

# Checkpointing at the default interval may cost at most this fraction
# of simulation time; emitted into BENCH_runner.json so dashboards can
# plot overhead against its budget.
CHECKPOINT_BUDGET = 0.08


def _effective_cores() -> int:
    """Cores this process may actually run on (cgroup/affinity aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return multiprocessing.cpu_count()


def _pool_floor(cores: int):
    """Least pool-over-serial speedup ``cores`` must reach (``None``: one
    core, where real parallelism is impossible)."""
    if cores >= 4:
        return 1.5
    return 1.3 if cores >= 2 else None


def _sweep_specs(instructions=None, warmup=None):
    """A small but representative sweep: window sizes x two seeds."""
    instructions = instructions if instructions is not None else \
        int(os.environ.get("REPRO_BENCH_INSTR", "6000"))
    warmup = warmup if warmup is not None else \
        int(os.environ.get("REPRO_BENCH_WARMUP", "6000"))
    base = default_system()
    specs = []
    for window in (16, 32, 64):
        params = base.replace(processor=dataclasses.replace(
            base.processor, window_size=window))
        for seed in (0, 1):
            specs.append(JobSpec(params, WorkloadSpec("oltp"),
                                 instructions=instructions,
                                 warmup=warmup, seed=seed))
    return specs


def _assert_identical(reference, other, label):
    assert [r.to_dict() for r in other.results] == \
        [r.to_dict() for r in reference.results], \
        f"{label} results diverged from the serial generator path"


def test_runner_scaling(tmp_path):
    specs = _sweep_specs()
    cache = ResultCache(tmp_path / "cache")
    trace_dir = str(tmp_path / "traces")
    cores = _effective_cores()
    jobs = BENCH_JOBS if BENCH_JOBS > 1 else max(2, cores)

    cold = run_many(specs, jobs=1, cache=cache, arenas="off")
    arena_serial = run_many(specs, jobs=1, cache=None, arenas="auto",
                            trace_dir=trace_dir)
    parallel = run_many(specs, jobs=jobs, cache=None, arenas="auto",
                        trace_dir=trace_dir)
    warm = run_many(specs, jobs=1, cache=cache, arenas="off")

    # All paths must agree bit-for-bit with the generator baseline.
    _assert_identical(cold, arena_serial, "arena replay")
    _assert_identical(cold, parallel, "fork-server pool")
    _assert_identical(cold, warm, "warm cache")
    assert cold.cache_misses == len(specs)
    assert warm.cache_hits == len(specs)
    assert arena_serial.arena_jobs > 0, \
        "arena path never engaged (nothing was materialized)"

    warm_speedup = cold.wall_time / max(warm.wall_time, 1e-9)
    arena_speedup = cold.wall_time / max(arena_serial.wall_time, 1e-9)
    floor = _pool_floor(cores)
    if floor is not None:
        parallel_speedup = cold.wall_time / max(parallel.wall_time, 1e-9)
        regression = parallel_speedup < floor
    else:
        # Real parallelism is impossible on one effective core; the
        # pool's fork/IPC overhead is expected, not a regression.
        parallel_speedup = None
        regression = "skipped"
    record = {
        "model_version": MODEL_VERSION,
        "sweep_jobs": len(specs),
        "instructions_per_job": specs[0].instructions
        + specs[0].warmup,
        "pool_workers": parallel.jobs,
        "effective_cores": cores,
        "fell_back_to_serial": parallel.fell_back_to_serial,
        "serial_cold_s": round(cold.wall_time, 3),
        "arena_serial_s": round(arena_serial.wall_time, 3),
        "trace_gen_s": round(arena_serial.trace_gen_s, 3),
        "sim_s": round(arena_serial.sim_s, 3),
        "parallel_s": round(parallel.wall_time, 3),
        "warm_cache_s": round(warm.wall_time, 3),
        "arena_serial_speedup": round(arena_speedup, 2),
        "parallel_speedup": None if parallel_speedup is None
        else round(parallel_speedup, 2),
        "parallel_regression": regression,
        "arena_generator_identical": True,   # asserted above
        "warm_cache_speedup": round(warm_speedup, 2),
        "serial_throughput_instr_per_s": round(cold.throughput),
    }
    BENCH_JSON.write_text(json.dumps(record, indent=2) + "\n")
    verdict = f" [REGRESSION: pool under {floor}x serial]" \
        if regression is True else ""
    parallel_txt = "skipped (1 core)" if parallel_speedup is None \
        else f"{parallel_speedup:.2f}x"
    print(f"\nserial {cold.wall_time:.2f}s | "
          f"arena serial {arena_serial.wall_time:.2f}s "
          f"({arena_speedup:.2f}x, trace gen "
          f"{arena_serial.trace_gen_s:.2f}s + sim "
          f"{arena_serial.sim_s:.2f}s) | "
          f"parallel({parallel.jobs}) {parallel.wall_time:.2f}s "
          f"({parallel_txt}){verdict} | "
          f"warm cache {warm.wall_time:.3f}s ({warm_speedup:.0f}x) | "
          f"{cores} core(s)")

    assert warm_speedup >= 5.0, (
        f"warm cache rerun only {warm_speedup:.1f}x faster than cold")
    if floor is not None and not parallel.fell_back_to_serial:
        assert parallel_speedup >= floor, (
            f"pool speedup {parallel_speedup:.2f}x < {floor}x "
            f"with {cores} cores")


def test_checkpoint_overhead(tmp_path):
    """Checkpoint writes at the default interval cost <= 5% of sim time.

    One job long enough to cross a couple of default-interval boundaries
    is run three ways: checkpoints off, at ``DEFAULT_CHECKPOINT_EVERY``,
    and at a deliberately tiny interval.  The default-interval overhead
    (``checkpoint_s / sim_s``) is asserted under budget; the
    tiny-interval ratio is a *deliberate worst-case probe* -- an
    interval ~50x denser than anyone runs in practice -- recorded so
    the cost curve stays visible across PRs.  It is emitted under an
    explicit non-gating label (``checkpoint_tiny_gating: false`` plus
    a ``checkpoint_tiny_label`` note) so a dashboard scanning the
    bench JSON cannot mistake a 1.1x ratio here for a regression
    against the 8% budget, which applies to the default interval only.
    All three runs must return bit-identical results.

    Budget history: the original robustness plan set 5% when sim ran at
    ~17k instr/s.  The execution-backend PR sped the simulator itself up
    ~1.7x while snapshot cost (deepcopy-bound) stayed flat, so the same
    absolute checkpoint cost is now a larger fraction of a smaller
    denominator; the budget is recalibrated to 8% of the faster sim,
    which is still *less* absolute overhead than the old 5%.
    """
    instructions = int(os.environ.get("REPRO_BENCH_CKPT_INSTR",
                                      str(2 * DEFAULT_CHECKPOINT_EVERY
                                          + 10_000)))
    spec = JobSpec(default_system(), WorkloadSpec("oltp"),
                   instructions=instructions, warmup=0, seed=0)

    def once(label, every):
        cache = ResultCache(tmp_path / f"cache-{label}")
        return run_many([spec], jobs=1, cache=cache, arenas="off",
                        checkpoint_every=every)

    off = once("off", 0)
    default = once("default", DEFAULT_CHECKPOINT_EVERY)
    tiny_every = max(1_000, instructions // 50)
    tiny = once("tiny", tiny_every)

    _assert_identical(off, default, "default-interval checkpointing")
    _assert_identical(off, tiny, "tiny-interval checkpointing")

    default_ratio = default.checkpoint_s / max(default.sim_s, 1e-9)
    tiny_ratio = tiny.checkpoint_s / max(tiny.sim_s, 1e-9)
    record = json.loads(BENCH_JSON.read_text()) \
        if BENCH_JSON.exists() else {"model_version": MODEL_VERSION}
    record.update({
        "checkpoint_instr": instructions,
        "checkpoint_budget": CHECKPOINT_BUDGET,
        "checkpoint_default_every": DEFAULT_CHECKPOINT_EVERY,
        "checkpoint_default_s": round(default.checkpoint_s, 3),
        "checkpoint_default_overhead": round(default_ratio, 4),
        "checkpoint_tiny_every": tiny_every,
        "checkpoint_tiny_s": round(tiny.checkpoint_s, 3),
        "checkpoint_tiny_overhead": round(tiny_ratio, 4),
        "checkpoint_tiny_gating": False,
        "checkpoint_tiny_label": (
            "worst-case probe at a deliberately tiny interval; "
            "informational only, never compared against "
            "checkpoint_budget"),
    })
    BENCH_JSON.write_text(json.dumps(record, indent=2) + "\n")
    print(f"\ncheckpoints off {off.wall_time:.2f}s | "
          f"every {DEFAULT_CHECKPOINT_EVERY:,}: "
          f"{default.checkpoint_s:.3f}s ckpt "
          f"({default_ratio:.2%} of sim) | "
          f"every {tiny_every:,}: {tiny.checkpoint_s:.3f}s ckpt "
          f"({tiny_ratio:.2%} of sim)")

    assert default_ratio <= CHECKPOINT_BUDGET, (
        f"checkpointing at the default interval costs "
        f"{default_ratio:.1%} of sim time "
        f"(budget: {CHECKPOINT_BUDGET:.0%})")
