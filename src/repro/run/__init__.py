"""Parallel experiment runner with fault isolation and a persistent cache.

Public surface:

* :class:`~repro.run.jobs.JobSpec` / :class:`~repro.run.jobs.WorkloadSpec`
  -- picklable descriptions of one simulation;
* :func:`~repro.run.executor.run_many` -- cache-aware fan-out over a
  process pool with deterministic result ordering, per-job retry /
  timeout / backoff isolation, and failed-job outcomes instead of
  sweep-aborting exceptions;
* :class:`~repro.run.cache.ResultCache` -- on-disk JSON store keyed by
  job fingerprint (includes :data:`~repro.run.jobs.MODEL_VERSION`) with
  content checksums and a quarantine for corrupt entries;
* :class:`~repro.run.manifest.SweepManifest` -- crash-safe progress
  journal enabling ``--resume`` and ``repro sweep-status``;
* :mod:`~repro.run.faults` -- deterministic host-side fault injection
  (``REPRO_FAULTS``) used to prove every recovery path;
* :func:`configure` -- process-wide defaults (worker count, cache,
  retry policy, resume mode) that the figure sweeps, seed sweeps, CLI
  and benchmarks all route through.

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
import os
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.run.atomicio import (
    CriticalWriteError,
    DurabilityWarning,
    FramedReadError,
)
from repro.run.audit import AuditFinding, AuditReport, audit_state
from repro.run.cache import DEFAULT_CACHE_DIR, ResultCache, default_cache_dir
from repro.run.checkpoint import (
    CHECKPOINT_EVERY_ENV,
    DEFAULT_CHECKPOINT_EVERY,
    CheckpointStore,
    checkpoint_every_from_env,
)
from repro.run.executor import (
    ARENAS_ENV,
    DEFAULT_POLICY,
    JobOutcome,
    RetryPolicy,
    RunReport,
    default_arena_mode,
    default_jobs,
    run_many,
)
from repro.run.faults import (FaultPlan, InjectedCrash, InjectedDiskFault,
                              plan_from_env)
from repro.run.jobs import MODEL_VERSION, JobSpec, WorkloadSpec
from repro.run.manifest import MANIFEST_NAME, JobRecord, SweepManifest

__all__ = [
    "JobSpec", "WorkloadSpec", "MODEL_VERSION",
    "ResultCache", "DEFAULT_CACHE_DIR", "default_cache_dir",
    "run_many", "RunReport", "JobOutcome", "default_jobs",
    "RetryPolicy", "DEFAULT_POLICY",
    "SweepManifest", "JobRecord", "MANIFEST_NAME",
    "FaultPlan", "InjectedCrash", "InjectedDiskFault", "plan_from_env",
    "CriticalWriteError", "DurabilityWarning", "FramedReadError",
    "AuditFinding", "AuditReport", "audit_state",
    "configure", "runner_defaults", "runner_state",
    "shared_cache", "shared_manifest", "retry_policy",
    "ARENAS_ENV", "default_arena_mode",
    "CheckpointStore", "CHECKPOINT_EVERY_ENV",
    "DEFAULT_CHECKPOINT_EVERY", "checkpoint_every_from_env",
]

_jobs: int = default_jobs()
_cache: Optional[ResultCache] = None
_manifest: Optional[SweepManifest] = None
_policy: RetryPolicy = DEFAULT_POLICY
_resume: bool = False
_arenas: str = default_arena_mode()
_trace_dir: Optional[str] = None
_checkpoint_every: int = checkpoint_every_from_env()
if os.environ.get("REPRO_CACHE") == "1":
    _cache = ResultCache()
    _manifest = SweepManifest(_cache.path / MANIFEST_NAME)


@dataclass(frozen=True)
class RunnerState:
    """Snapshot of the process-wide runner configuration."""

    jobs: int
    cache: Optional[ResultCache]
    policy: RetryPolicy
    manifest: Optional[SweepManifest]
    resume: bool
    arenas: str = "auto"
    trace_dir: Optional[str] = None
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY


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
    ``resume``: keep completed entries of an existing sweep manifest
    instead of starting sweeps from a clean slate.
    ``arenas``: trace-arena policy -- ``auto`` (share traces across
    sweep groups of 2+ jobs; the default), ``on``, or ``off``
    (booleans accepted).
    ``trace_dir``: where arenas are stored (default: ``traces/`` beside
    the result cache when one is active, else ``REPRO_TRACE_DIR``).
    ``checkpoint_every``: mid-simulation checkpoint interval in retired
    instructions (0 disables writes; default
    :data:`DEFAULT_CHECKPOINT_EVERY`, overridable via
    ``REPRO_CHECKPOINT_EVERY``).  Checkpoints only activate when the
    result cache is enabled -- they live beside it.
    ``dispatch`` and ``workers`` remain only so existing callers that
    pass ``dispatch="local", workers=()`` keep working; they store
    nothing, and any other value raises :class:`ValueError` because
    the multi-host execution mode they selected has been removed.
    Arguments left as ``None`` keep their current value.
    """
    global _jobs, _cache, _manifest, _policy, _resume, _arenas, \
        _trace_dir, _checkpoint_every
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
        _cache = ResultCache(cache_dir)
        _manifest = SweepManifest(_cache.path / MANIFEST_NAME)
    elif use_cache is not None:
        if use_cache:
            if _cache is None:
                _cache = ResultCache()
            if _manifest is None:
                _manifest = SweepManifest(_cache.path / MANIFEST_NAME)
        else:
            _cache = None
            _manifest = None
    if retries is not None:
        _policy = dataclasses.replace(_policy,
                                      retries=max(0, int(retries)))
    if job_timeout is not None:
        _policy = dataclasses.replace(
            _policy,
            job_timeout=float(job_timeout) if job_timeout > 0 else None)
    if resume is not None:
        _resume = bool(resume)
    if arenas is not None:
        if arenas is True:
            _arenas = "on"
        elif arenas is False:
            _arenas = "off"
        elif arenas in ("auto", "on", "off"):
            _arenas = arenas
        else:
            raise ValueError(
                f"arenas must be 'auto', 'on' or 'off', got {arenas!r}")
    if trace_dir is not None:
        _trace_dir = str(trace_dir) if trace_dir else None
    if checkpoint_every is not None:
        _checkpoint_every = max(0, int(checkpoint_every))


def runner_defaults() -> Tuple[int, Optional[ResultCache]]:
    """Current (jobs, cache) defaults used by :func:`run_many`."""
    return _jobs, _cache


def runner_state() -> RunnerState:
    """Full runner configuration consumed by :func:`run_many`."""
    return RunnerState(jobs=_jobs, cache=_cache, policy=_policy,
                       manifest=_manifest, resume=_resume,
                       arenas=_arenas, trace_dir=_trace_dir,
                       checkpoint_every=_checkpoint_every)


def shared_cache() -> Optional[ResultCache]:
    """The process-wide cache instance, or ``None`` when disabled."""
    return _cache


def shared_manifest() -> Optional[SweepManifest]:
    """The process-wide sweep manifest, or ``None`` when disabled."""
    return _manifest


def retry_policy() -> RetryPolicy:
    """The process-wide retry/timeout policy."""
    return _policy
