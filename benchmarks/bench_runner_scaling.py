"""Runner scaling: serial vs fork-server pool vs cache.

Runs a small OLTP configuration sweep three ways and records the wall
times in ``BENCH_runner.json`` at the repo root so the perf trajectory
of the experiment harness itself is tracked across PRs:

1. **serial cold** -- in process, filling a fresh result cache (the
   baseline);
2. **parallel** -- fork-server pool, one attempt per submission
   (``REPRO_BENCH_INSTR``/``REPRO_BENCH_WARMUP`` shrink the per-job
   size for smoke runs; ``REPRO_BENCH_JOBS`` sets workers);
3. **warm cache** -- serial rerun against the now-warm result cache.

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
from repro.run import MODEL_VERSION, JobSpec, ResultCache, WorkloadSpec, \
    run_many

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_runner.json"


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
        f"{label} results diverged from the serial run"


def test_runner_scaling(tmp_path):
    specs = _sweep_specs()
    cache = ResultCache(tmp_path / "cache")
    cores = _effective_cores()
    jobs = BENCH_JOBS if BENCH_JOBS > 1 else max(2, cores)

    cold = run_many(specs, jobs=1, cache=cache)
    parallel = run_many(specs, jobs=jobs, cache=None)
    warm = run_many(specs, jobs=1, cache=cache)

    # All paths must agree bit-for-bit with the serial baseline.
    _assert_identical(cold, parallel, "fork-server pool")
    _assert_identical(cold, warm, "warm cache")
    assert cold.cache_misses == len(specs)
    assert warm.cache_hits == len(specs)

    warm_speedup = cold.wall_time / max(warm.wall_time, 1e-9)
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
        "parallel_s": round(parallel.wall_time, 3),
        "warm_cache_s": round(warm.wall_time, 3),
        "parallel_speedup": None if parallel_speedup is None
        else round(parallel_speedup, 2),
        "parallel_regression": regression,
        "warm_cache_speedup": round(warm_speedup, 2),
        "serial_throughput_instr_per_s": round(cold.throughput),
    }
    BENCH_JSON.write_text(json.dumps(record, indent=2) + "\n")
    verdict = f" [REGRESSION: pool under {floor}x serial]" \
        if regression is True else ""
    parallel_txt = "skipped (1 core)" if parallel_speedup is None \
        else f"{parallel_speedup:.2f}x"
    print(f"\nserial {cold.wall_time:.2f}s | "
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
