"""Parallel experiment runner with fault isolation and a persistent cache.

Public surface:

* :class:`~repro.run.jobs.JobSpec` / :class:`~repro.run.jobs.WorkloadSpec`
  -- picklable descriptions of one simulation;
* :func:`~repro.run.executor.run_many` -- cache-aware fan-out over a
  process pool with deterministic result ordering, per-job retry /
  timeout isolation, and failed-job outcomes instead of sweep-aborting
  exceptions;
* :class:`~repro.run.cache.ResultCache` -- on-disk JSON store keyed by
  job fingerprint (includes :data:`~repro.run.jobs.MODEL_VERSION`) with
  content checksums and a quarantine for corrupt entries;
* :class:`~repro.run.manifest.SweepManifest` -- crash-safe progress
  journal read by ``repro sweep-status``;
* :mod:`~repro.run.faults` -- deterministic host-side fault injection
  (``REPRO_FAULTS``) used to prove every recovery path;
* :func:`configure` -- process-wide defaults (worker count, cache,
  retry policy) that the figure sweeps, seed sweeps, CLI and benchmarks
  all route through.

By default the runner is serial and the cache is disabled, so library
users see exactly the old ``run_simulation`` behaviour unless they (or
the CLI, which enables the cache) opt in::

    import repro.run as run
    run.configure(jobs=4, use_cache=True, retries=3, job_timeout=600)
    ...                       # figure/sweep calls now fan out + memoize
    print(run.shared_cache().format_stats())
"""

from __future__ import annotations

import dataclasses
import importlib
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

if TYPE_CHECKING:
    from repro.run.cache import ResultCache
    from repro.run.executor import RetryPolicy
    from repro.run.manifest import SweepManifest

#: Public name -> the submodule that defines it.  Resolved on first use
#: (PEP 562), so ``import repro.run`` compiles this file only.
_EXPORTS = {
    "JobSpec": "jobs", "WorkloadSpec": "jobs", "MODEL_VERSION": "jobs",
    "ResultCache": "cache", "DEFAULT_CACHE_DIR": "cache",
    "default_cache_dir": "cache",
    "run_many": "executor", "RunReport": "executor",
    "JobOutcome": "executor", "RetryPolicy": "executor",
    "DEFAULT_POLICY": "executor",
    "SweepManifest": "manifest", "JobRecord": "manifest",
    "MANIFEST_NAME": "manifest",
    "FaultPlan": "faults", "InjectedCrash": "faults",
    "InjectedDiskFault": "faults", "InjectedWriterDeath": "faults",
    "plan_from_env": "faults",
    "CriticalWriteError": "atomicio", "DurabilityWarning": "atomicio",
    "AuditFinding": "audit", "AuditReport": "audit",
    "audit_state": "audit",
}

__all__ = [
    *_EXPORTS, "default_jobs",
    "configure", "runner_defaults", "runner_state",
    "shared_cache", "shared_manifest", "retry_policy",
]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute "
                             f"{name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def default_jobs() -> int:
    """Worker count from ``REPRO_JOBS`` (default 1: serial)."""
    try:
        return max(1, int(os.environ.get("REPRO_JOBS", "1")))
    except ValueError:
        return 1


def _open_cache(cache_dir: Optional[str] = None) -> None:
    """Point the shared cache, and its manifest, at ``cache_dir``."""
    global _cache, _manifest
    from repro.run.cache import ResultCache
    from repro.run.manifest import MANIFEST_NAME, SweepManifest
    _cache = ResultCache(cache_dir)
    _manifest = SweepManifest(_cache.path / MANIFEST_NAME)


_jobs: int = default_jobs()
_cache: Optional[ResultCache] = None
_manifest: Optional[SweepManifest] = None
_policy: Optional[RetryPolicy] = None     # None: DEFAULT_POLICY


@dataclass(frozen=True)
class RunnerState:
    """Snapshot of the process-wide runner configuration."""

    jobs: int
    cache: Optional[ResultCache]
    policy: RetryPolicy
    manifest: Optional[SweepManifest]


def configure(jobs: Optional[int] = None,
              use_cache: Optional[bool] = None,
              cache_dir: Optional[str] = None,
              retries: Optional[int] = None,
              job_timeout: Optional[float] = None,
              resume: Optional[bool] = None,
              arenas: Optional[str] = None,
              trace_dir: Optional[str] = None,
              checkpoint_every: Optional[int] = None,
              dispatch: Optional[str] = None,
              workers: Optional[Tuple[str, ...]] = None) -> None:
    """Set process-wide runner defaults.

    ``jobs``: worker count for subsequent sweeps (1 = serial).
    ``use_cache``: enable/disable the shared on-disk result cache (the
    sweep manifest lives and dies with it).
    ``cache_dir``: cache location (implies ``use_cache=True``).
    ``retries``: extra attempts per failed job (default 2).
    ``job_timeout``: seconds before one attempt is abandoned and
    retried (default: unlimited).
    ``resume``, ``arenas``, ``trace_dir``, ``checkpoint_every``,
    ``dispatch`` and ``workers`` remain only so existing callers that
    pass ``resume=False, arenas="auto", trace_dir=""``, a non-negative
    ``checkpoint_every`` and ``dispatch="local", workers=()`` keep
    working; they store nothing.  Any other value raises
    :class:`ValueError`, because the resume mode, trace arenas, mid-job
    checkpoints and multi-host execution mode they selected have been
    removed.
    Arguments left as ``None`` keep their current value.
    """
    global _jobs, _cache, _manifest, _policy
    if resume:
        raise ValueError(
            "resume=True is no longer supported: the resume mode was "
            "removed; running a sweep again executes only what the "
            "result cache lacks")
    if arenas not in (None, "auto"):
        raise ValueError(
            f"arenas={arenas!r} is no longer supported: trace arenas "
            f"were removed; every job generates its own streams")
    if trace_dir not in (None, ""):
        raise ValueError(
            f"trace_dir={trace_dir!r} is no longer supported: trace "
            f"arenas were removed, so nothing is stored there")
    if checkpoint_every is not None and int(checkpoint_every) < 0:
        raise ValueError(
            f"checkpoint_every={checkpoint_every!r} is no longer "
            f"supported: mid-job checkpoints were removed")
    if dispatch not in (None, "local"):
        raise ValueError(
            f"dispatch={dispatch!r} is no longer supported: the "
            f"multi-host fabric was removed; sweeps always run locally")
    if workers:
        raise ValueError(
            f"workers={tuple(workers)!r} is no longer supported: the "
            f"multi-host fabric was removed; sweeps always run locally")
    if jobs is not None:
        _jobs = max(1, int(jobs))
    if cache_dir is not None:
        _open_cache(cache_dir)
    elif use_cache is not None:
        if use_cache:
            if _cache is None:
                _open_cache()
            elif _manifest is None:
                from repro.run.manifest import MANIFEST_NAME, SweepManifest
                _manifest = SweepManifest(_cache.path / MANIFEST_NAME)
        else:
            _cache = None
            _manifest = None
    if retries is not None:
        _policy = dataclasses.replace(retry_policy(),
                                      retries=max(0, int(retries)))
    if job_timeout is not None:
        _policy = dataclasses.replace(
            retry_policy(),
            job_timeout=float(job_timeout) if job_timeout > 0 else None)


def runner_defaults() -> Tuple[int, Optional[ResultCache]]:
    """Current (jobs, cache) defaults used by :func:`run_many`."""
    return _jobs, _cache


def runner_state() -> RunnerState:
    """Full runner configuration consumed by :func:`run_many`."""
    return RunnerState(jobs=_jobs, cache=_cache, policy=retry_policy(),
                       manifest=_manifest)


def shared_cache() -> Optional[ResultCache]:
    """The process-wide cache instance, or ``None`` when disabled."""
    return _cache


def shared_manifest() -> Optional[SweepManifest]:
    """The process-wide sweep manifest, or ``None`` when disabled."""
    return _manifest


def retry_policy() -> RetryPolicy:
    """The process-wide retry/timeout policy."""
    if _policy is None:
        from repro.run.executor import DEFAULT_POLICY
        return DEFAULT_POLICY
    return _policy
