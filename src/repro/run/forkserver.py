"""Persistent fork-server worker pool with batched job dispatch.

The original pool paid three per-job taxes that dwarf small simulations:
a fresh ``ProcessPoolExecutor`` per ``run_many`` call (interpreter spawn
plus module imports per worker), one pickle round-trip per job, and full
workload reconstruction -- trace regeneration included -- inside every
worker.  This module removes all three:

* **Persistent pool.**  One executor lives for the whole process
  (module-level, recycled only on breakage/zombie exhaustion or a
  worker-count change), so repeated ``run_many`` calls within a sweep
  reuse warm workers.  Start method preference is ``fork`` >
  ``forkserver`` > ``spawn`` (override with ``REPRO_START_METHOD``):
  forked workers inherit imported modules *and* any trace arenas already
  mapped by the parent as shared read-only pages.
* **Batched dispatch.**  Sweep jobs differ from each other by a handful
  of ``SystemParams`` fields, so a chunk ships one full base job dict
  plus per-job *deltas* (path/value pairs) -- a single small pickle per
  chunk instead of one full spec per job.
* **Explicit fault plan.**  The chunk payload carries the parent's
  ``REPRO_FAULTS`` string, because persistent workers must not trust the
  environment they captured at pool creation time.

Per-job semantics are unchanged from the one-job-per-future path: each
job in a chunk is independently timed, fault-injected and
exception-isolated, and ships back either a result dict or an error
string for the executor's retry machinery.
"""

from __future__ import annotations

import atexit
import os
import time
import warnings
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.run.faults import FAULTS_ENV, plan_from_env
from repro.run.jobs import JobSpec

#: Environment override for the multiprocessing start method.
START_METHOD_ENV = "REPRO_START_METHOD"

_MISSING = object()


def pick_method() -> str:
    """The start method to use: ``fork`` > ``forkserver`` > ``spawn``.

    ``fork`` is preferred where available because workers inherit the
    parent's imported modules and mmap'd arenas for free; ``forkserver``
    still avoids re-importing per job batch; ``spawn`` is the
    lowest-common-denominator fallback.
    """
    import multiprocessing
    available = multiprocessing.get_all_start_methods()
    override = os.environ.get(START_METHOD_ENV, "").strip().lower()
    if override:
        if override in available:
            return override
        warnings.warn(
            f"{START_METHOD_ENV}={override!r} is not available here "
            f"(have {available}); ignoring", RuntimeWarning, stacklevel=2)
    for method in ("fork", "forkserver"):
        if method in available:
            return method
    return "spawn"


# ----------------------------------------------------------- pool lifetime

_pool = None
_pool_jobs = 0


def get_pool(jobs: int):
    """The shared executor with ``jobs`` workers, or ``None`` if process
    pools are unusable here (the caller then falls back to serial).

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


# ------------------------------------------------------------ delta coding

def flatten(data: Dict[str, Any],
            prefix: Tuple[str, ...] = ()) -> Dict[Tuple[str, ...], Any]:
    """Flatten a nested dict to ``{path-tuple: leaf value}``.

    Only dicts recurse; lists and scalars are leaves.  Job dicts contain
    no empty-dict leaves, so the encoding is lossless for them.
    """
    flat: Dict[Tuple[str, ...], Any] = {}
    for key, value in data.items():
        path = prefix + (key,)
        if isinstance(value, dict):
            flat.update(flatten(value, path))
        else:
            flat[path] = value
    return flat


def unflatten(flat: Dict[Tuple[str, ...], Any]) -> Dict[str, Any]:
    root: Dict[str, Any] = {}
    for path, value in flat.items():
        node = root
        for key in path[:-1]:
            node = node.setdefault(key, {})
        node[path[-1]] = value
    return root


def encode_delta(base_flat: Dict[Tuple[str, ...], Any],
                 job: Dict[str, Any]) -> Dict[str, Any]:
    """Encode ``job`` as a delta against a flattened base job dict."""
    job_flat = flatten(job)
    sets = [(path, value) for path, value in sorted(job_flat.items())
            if base_flat.get(path, _MISSING) != value]
    drops = [path for path in sorted(base_flat) if path not in job_flat]
    return {"set": sets, "drop": drops}


def apply_delta(base_flat: Dict[Tuple[str, ...], Any],
                delta: Dict[str, Any]) -> Dict[str, Any]:
    """Reconstruct a full job dict from the base and one delta."""
    flat = dict(base_flat)
    for path in delta.get("drop", ()):
        flat.pop(tuple(path), None)
    for path, value in delta.get("set", ()):
        flat[tuple(path)] = value
    return unflatten(flat)


def make_batch_payload(base: Dict[str, Any],
                       entries: Sequence[Tuple[Dict[str, Any], int,
                                               Optional[str]]],
                       cache_dir: Optional[str] = None,
                       checkpoint_every: int = 0) -> Dict[str, Any]:
    """Build one chunk payload from ``(job dict, attempt, arena path)``
    triples.  Captures the parent's current fault plan explicitly so
    persistent workers never act on a stale inherited environment.
    ``cache_dir`` (when set) is where workers keep checkpoints and write
    crash-triage bundles; ``checkpoint_every`` is the checkpoint
    interval in retired instructions (0 disables checkpoint writes).
    """
    base_flat = flatten(base)
    return {
        "base": base,
        "jobs": [{"delta": encode_delta(base_flat, job),
                  "attempt": attempt, "arena": arena}
                 for job, attempt, arena in entries],
        "faults": os.environ.get(FAULTS_ENV, ""),
        "cache_dir": cache_dir,
        "checkpoint_every": int(checkpoint_every),
    }


# ------------------------------------------------------------- worker side

def run_entry(spec_dict: Dict[str, Any], attempt: int,
              arena: Optional[str], plan,
              cache_dir: Optional[str],
              checkpoint_every: int) -> Dict[str, Any]:
    """Execute one job dict with full worker semantics; never raises.

    This is the per-job execution path of every pool worker (called
    once per chunk entry by :func:`_execute_batch`): the clock starts
    before fault injection, faults come from the explicit ``plan``
    (never the worker's inherited environment), checkpoints/triage land
    under ``cache_dir`` when one is given, and any exception --
    injected or real -- is folded into the returned outcome dict so one
    bad job cannot poison its neighbours in the chunk.
    """
    start = time.perf_counter()  # repro-lint: disable=R002
    info: Dict[str, Any] = {}
    try:
        spec = JobSpec.from_dict(spec_dict)
        if plan is not None:
            fingerprint = spec.fingerprint()
            plan.maybe_crash(fingerprint, attempt)
            plan.maybe_hang(fingerprint, attempt)
        workload = _arena_workload(arena)
        if cache_dir:
            from repro.run import checkpoint as ckpt
            store = ckpt.CheckpointStore.for_job(
                cache_dir, spec.fingerprint()) \
                if checkpoint_every > 0 else None
            result, info = ckpt.run_spec(
                spec, workload=workload, store=store,
                every=checkpoint_every, faults=plan, attempt=attempt,
                triage_dir=cache_dir)
        else:
            result = spec.run(workload=workload)
    except Exception as exc:  # noqa: BLE001 -- per-job isolation
        return {
            "ok": False,
            "error": f"{type(exc).__name__}: {exc}",
            "elapsed": time.perf_counter() - start,  # repro-lint: disable=R002
            "bundle": getattr(exc, "__triage_bundle__", ""),
            "start_offset": getattr(exc, "__resumed_from__", 0),
        }
    return {
        "ok": True,
        "result": result.to_dict(),
        "elapsed": time.perf_counter() - start,  # repro-lint: disable=R002
        "ckpt_s": float(info.get("ckpt_s", 0.0)),
        "resumed_from": int(info.get("resumed_from", 0)),
    }


def _execute_batch(payload: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Worker entry point: run every job of one chunk independently.

    Mirrors the single-job ``_execute_payload`` semantics per job
    through the shared :func:`run_entry` path: faults come from the
    payload's captured plan (not the worker's environment), and any
    exception -- injected or real -- is isolated to its job's outcome
    so one bad job cannot poison its chunk-mates.
    """
    base_flat = flatten(payload["base"])
    plan = plan_from_env(payload.get("faults", ""))
    cache_dir = payload.get("cache_dir")
    every = int(payload.get("checkpoint_every", 0) or 0)
    return [run_entry(apply_delta(base_flat, entry["delta"]),
                      entry["attempt"], entry.get("arena"), plan,
                      cache_dir, every)
            for entry in payload["jobs"]]


def _arena_workload(path: Optional[str]):
    """Load the chunk's arena reference (memoized per worker process).

    Forked workers find it already in the registry; spawned workers map
    the file on first use (the page cache still shares the bytes).  Any
    defect degrades to ``None`` -- the job reruns its generators.
    """
    if not path:
        return None
    from repro.trace import arena
    return arena.load_cached(path, quarantine=False)
