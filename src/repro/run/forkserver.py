"""Persistent fork-server worker pool and the per-attempt job runner.

The original pool paid a per-call tax that dwarfs small simulations: a
fresh ``ProcessPoolExecutor`` per ``run_many`` call (interpreter spawn
plus module imports per worker).  This module removes it:

* **Persistent pool.**  One executor lives for the whole process
  (module-level, recycled only on breakage/zombie exhaustion or a
  worker-count change), so repeated ``run_many`` calls within a sweep
  reuse warm workers; a call with fewer pending jobs than workers uses
  fewer of them rather than rebuilding the pool.  The start method is
  the first of ``fork`` > ``forkserver`` > ``spawn`` the platform
  offers: forked workers inherit the parent's imported modules, so
  :func:`get_pool` imports everything a job runs (:data:`JOB_MODULES`)
  before the first fork and no worker compiles a module of its own.
* **One attempt per submission.**  The executor submits
  :func:`run_entry` with one plain job dict
  (:meth:`~repro.run.jobs.JobSpec.to_dict`, tools included), its
  attempt number, the fault plan and the cache directory.
* **Explicit fault plan.**  The plan is the parent's, parsed from
  ``REPRO_FAULTS`` at submission, because persistent workers must not
  trust the environment they captured at pool creation time.

:func:`run_entry` is the runner's one per-attempt function: pool workers
run it for each submission, and the executor's in-process runner calls
it directly.  Each attempt is independently timed, fault-injected and
exception-isolated, and yields either a result dict or an error string
for the executor's retry machinery.
"""

from __future__ import annotations

import atexit
import importlib
import time
from typing import Any, Dict, Optional

from repro.run import triage
from repro.run.faults import InjectedWriterDeath
from repro.run.jobs import JobSpec


def pick_method() -> str:
    """The start method to use: ``fork`` > ``forkserver`` > ``spawn``.

    ``fork`` is preferred where available because workers inherit the
    parent's imported modules for free; ``forkserver`` still avoids
    re-importing per job; ``spawn`` is the lowest-common-denominator
    fallback.
    """
    import multiprocessing
    available = multiprocessing.get_all_start_methods()
    for method in ("fork", "forkserver"):
        if method in available:
            return method
    return "spawn"


# ----------------------------------------------------------- pool lifetime

#: What :meth:`~repro.run.jobs.JobSpec.run` imports: the model and the
#: trace generator of every workload kind.
JOB_MODULES = ("repro.core.experiment", "repro.trace.dss",
               "repro.trace.oltp", "repro.trace.tpcc")

_pool = None
_pool_jobs = 0


def get_pool(jobs: int):
    """The shared executor with ``jobs`` workers, or ``None`` if process
    pools are unusable here (the executor then runs the jobs in
    process).

    The pool persists across calls; it is rebuilt only when the worker
    count changes or after :func:`recycle_pool`.  Its workers fork after
    :data:`JOB_MODULES` are loaded, so they inherit them compiled.
    """
    global _pool, _pool_jobs
    if _pool is not None and _pool_jobs == jobs:
        return _pool
    recycle_pool()
    for name in JOB_MODULES:
        importlib.import_module(name)
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


# ------------------------------------------------------------- worker side

def run_entry(job: Dict[str, Any], attempt: int, plan,
              cache_dir: Optional[str]) -> Dict[str, Any]:
    """Run one attempt of the job dict ``job``
    (:meth:`~repro.run.jobs.JobSpec.to_dict` data, so the job's
    watchdog and sanitizer settings arrive with it).

    This is the runner's one per-attempt function, in pool workers and
    in the executor's in-process runner alike.  The clock starts before
    fault injection, so an injected hang is charged to the attempt and
    the executor's timeout sees it; faults come from the explicit
    ``plan`` (never a worker's inherited environment); triage bundles
    land under
    ``cache_dir`` when one is given; and any exception -- injected or
    real -- is folded into the returned outcome dict so one bad job
    cannot poison the sweep.  The one exception that escapes is
    :class:`~repro.run.faults.InjectedWriterDeath`, a disk fault
    modelling the writing process dying (say, mid-way through a triage
    bundle): it ends the in-process sweep, as a real death would, and
    in a pool worker it becomes the exception of the attempt's future,
    which fails that attempt only.  A success carries the
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
