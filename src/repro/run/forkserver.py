"""Persistent fork-server worker pool and the per-attempt job runner.

The original pool paid two per-job taxes that dwarf small simulations:
a fresh ``ProcessPoolExecutor`` per ``run_many`` call (interpreter spawn
plus module imports per worker) and one pickle round-trip per job.  This
module removes both:

* **Persistent pool.**  One executor lives for the whole process
  (module-level, recycled only on breakage/zombie exhaustion or a
  worker-count change), so repeated ``run_many`` calls within a sweep
  reuse warm workers; a call with fewer pending jobs than workers uses
  fewer of them rather than rebuilding the pool.  The start method is
  the first of ``fork`` > ``forkserver`` > ``spawn`` the platform
  offers: forked workers inherit the parent's imported modules.
* **Batched dispatch.**  A chunk ships its plain job dicts
  (:meth:`~repro.run.jobs.JobSpec.to_dict`, tools included), each with
  its attempt number, in a single pickle.
* **Explicit fault plan.**  The chunk payload carries the parent's
  ``REPRO_FAULTS`` string, because persistent workers must not trust the
  environment they captured at pool creation time.

:func:`run_entry` is the runner's one per-attempt function: pool workers
call it for each job of a chunk, and the executor's in-process runner
calls it directly.  Each job is independently timed, fault-injected and
exception-isolated, and yields either a result dict or an error string
for the executor's retry machinery.
"""

from __future__ import annotations

import atexit
import os
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.run import triage
from repro.run.faults import FAULTS_ENV, InjectedWriterDeath, plan_from_env
from repro.run.jobs import JobSpec


def pick_method() -> str:
    """The start method to use: ``fork`` > ``forkserver`` > ``spawn``.

    ``fork`` is preferred where available because workers inherit the
    parent's imported modules for free; ``forkserver`` still avoids
    re-importing per job batch; ``spawn`` is the lowest-common-
    denominator fallback.
    """
    import multiprocessing
    available = multiprocessing.get_all_start_methods()
    for method in ("fork", "forkserver"):
        if method in available:
            return method
    return "spawn"


# ----------------------------------------------------------- pool lifetime

_pool = None
_pool_jobs = 0


def get_pool(jobs: int):
    """The shared executor with ``jobs`` workers, or ``None`` if process
    pools are unusable here (the executor then runs the jobs in
    process).

    The pool persists across calls; it is rebuilt only when the worker
    count changes or after :func:`recycle_pool`.
    """
    global _pool, _pool_jobs
    if _pool is not None and _pool_jobs == jobs:
        return _pool
    recycle_pool()
    try:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        context = multiprocessing.get_context(pick_method())
        _pool = ProcessPoolExecutor(max_workers=jobs, mp_context=context)
    except (ImportError, OSError, PermissionError, RuntimeError,
            ValueError):
        _pool = None
        return None
    _pool_jobs = jobs
    return _pool


def recycle_pool() -> None:
    """Discard the shared pool (broken workers, zombie exhaustion).

    The next :func:`get_pool` call builds a fresh one.
    """
    global _pool
    if _pool is not None:
        _pool.shutdown(wait=False, cancel_futures=True)
        _pool = None


atexit.register(recycle_pool)


# ----------------------------------------------------------------- payload

def make_batch_payload(entries: Sequence[Tuple[Dict[str, Any], int]],
                       cache_dir: Optional[str] = None) -> Dict[str, Any]:
    """Build one chunk payload from ``(job dict, attempt)`` pairs.
    Captures the parent's current fault plan explicitly so persistent
    workers never act on a stale inherited environment.  ``cache_dir``
    (when set) is where workers write crash-triage bundles.
    """
    return {
        "jobs": [{"job": job, "attempt": attempt}
                 for job, attempt in entries],
        "faults": os.environ.get(FAULTS_ENV, ""),
        "cache_dir": cache_dir,
    }


# ------------------------------------------------------------- worker side

def run_entry(job: Dict[str, Any], attempt: int, plan,
              cache_dir: Optional[str]) -> Dict[str, Any]:
    """Run one attempt of the job dict ``job``
    (:meth:`~repro.run.jobs.JobSpec.to_dict` data, so the job's
    watchdog and sanitizer settings arrive with it).

    This is the runner's one per-attempt function, in pool workers (via
    :func:`_execute_batch`) and in the executor's in-process runner
    alike.  The clock starts before fault injection, so an injected
    hang is charged to the attempt and the executor's
    timeout sees it; faults come from the explicit ``plan`` (never a
    worker's inherited environment); triage bundles land under
    ``cache_dir`` when one is given; and any exception -- injected or
    real -- is folded into the returned outcome dict so one bad job
    cannot poison its neighbours in the chunk.  The one exception that
    escapes is :class:`~repro.run.faults.InjectedWriterDeath`, a disk
    fault modelling the writing process dying (say, mid-way through a
    triage bundle): it ends the in-process sweep, or ends the pool
    worker's chunk, as a real death would.  A success carries the
    :class:`~repro.core.experiment.SimulationResult` itself: pickling
    it back from a worker is exact (its MSHR occupancy columns travel
    as byte buffers), and the in-process runner hands it over uncopied.
    """
    start = time.perf_counter()  # repro-lint: disable=R002
    try:
        spec = JobSpec.from_dict(job)
        result = triage.run_attempt(spec, attempt, faults=plan,
                                    cache_dir=cache_dir)
    except InjectedWriterDeath:
        raise
    except Exception as exc:  # noqa: BLE001 -- per-job isolation
        return {
            "ok": False,
            "error": f"{type(exc).__name__}: {exc}",
            "elapsed": time.perf_counter() - start,  # repro-lint: disable=R002
            "bundle": getattr(exc, "__triage_bundle__", ""),
        }
    return {
        "ok": True,
        "result": result,
        "elapsed": time.perf_counter() - start,  # repro-lint: disable=R002
    }


def _execute_batch(payload: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Worker entry point: run the jobs of one chunk in order, each
    through :func:`run_entry` with the payload's captured fault plan
    (not the worker's environment).

    A writer death (:class:`~repro.run.faults.InjectedWriterDeath`)
    fails the attempt it hit and ends the chunk there, as the death of
    the worker would; the worker lives on.  The outcomes are then fewer
    than the jobs, and the executor requeues the jobs the chunk never
    reached at their current attempt, so none is charged an attempt it
    did not run.
    """
    plan = plan_from_env(payload["faults"])
    outcomes = []
    for entry in payload["jobs"]:
        try:
            outcomes.append(run_entry(entry["job"], entry["attempt"],
                                      plan, payload["cache_dir"]))
        except InjectedWriterDeath as exc:
            outcomes.append({"ok": False,
                             "error": f"{type(exc).__name__}: {exc}",
                             "elapsed": 0.0, "bundle": ""})
            break
    return outcomes
