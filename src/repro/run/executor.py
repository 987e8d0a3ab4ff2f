"""Fault-isolating fan-out executor for independent simulation jobs.

:func:`run_many` takes a list of :class:`~repro.run.jobs.JobSpec` and
returns their results *in input order*, regardless of completion order,
so callers (figure sweeps, seed sweeps) see exactly the rows they asked
for.  Dispatch policy:

* every spec is first looked up in the result cache (when one is given);
* jobs sharing a workload/seed/run-size are grouped onto a **trace
  arena** (:mod:`repro.trace.arena`): the group's first member runs
  serially while recording its instruction streams, which are packed and
  persisted once, and the remaining members replay the arena instead of
  regenerating their traces;
* remaining misses run either serially in-process (``jobs=1``, the
  deterministic baseline) or on the **persistent fork-server pool**
  (:mod:`repro.run.forkserver`) in chunked batches -- one pickle of a
  base job plus per-job deltas per chunk;
* if the pool cannot be created or dies (restricted environments without
  ``fork``/semaphores, interpreter shutdown), the executor falls back to
  the serial path instead of failing the sweep.

Failures are isolated **per job**: an attempt that raises any exception
is retried up to :attr:`RetryPolicy.retries` times with deterministic
exponential backoff, an attempt that exceeds
:attr:`RetryPolicy.job_timeout` is abandoned and retried, and only a job
that exhausts its retries is reported as a *failed*
:class:`JobOutcome` (``result=None``) -- the rest of the sweep keeps
going.  Progress is journalled through an optional
:class:`~repro.run.manifest.SweepManifest` so interrupted sweeps resume
from the incomplete remainder.  When ``job_timeout`` is set, chunks
shrink to one job so each attempt keeps its own deadline.

Arenas never affect results or cache keys: replay is byte-identical to
generation, an arena defect falls back to the generator path inside the
job, and the arena reference travels beside the spec -- never inside
:meth:`~repro.run.jobs.JobSpec.fingerprint`.
"""

from __future__ import annotations

import hashlib
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.experiment import SimulationResult
from repro.run import triage
from repro.run.cache import ResultCache
from repro.run.faults import plan_from_env
from repro.run.jobs import JobSpec
from repro.run.manifest import SweepManifest

#: Environment override for arena usage: ``auto`` (default: share
#: traces across sweep groups of 2+), ``on`` (materialize even for
#: singleton groups), ``off`` (generator path only).
ARENAS_ENV = "REPRO_ARENAS"

_ARENA_MODES = ("auto", "on", "off")


def default_arena_mode() -> str:
    """Arena policy from ``REPRO_ARENAS`` (default ``auto``)."""
    mode = os.environ.get(ARENAS_ENV, "auto").strip().lower()
    return mode if mode in _ARENA_MODES else "auto"


@dataclass(frozen=True)
class RetryPolicy:
    """Per-job failure handling knobs for :func:`run_many`.

    ``retries`` is the number of *additional* attempts after the first
    failure; ``job_timeout`` (seconds, ``None`` = unlimited) bounds one
    attempt's wall time.  On the process pool an overdue attempt is
    abandoned (the worker is left to drain) and retried; on the serial
    path the attempt cannot be interrupted, so the timeout is enforced
    post-hoc -- an over-budget attempt is discarded and retried, giving
    both paths the same observable semantics.

    Backoff between attempts is exponential with a deterministic
    fingerprint-derived jitter -- no wall-clock or global RNG feeds the
    schedule, so two runs of the same sweep back off identically.
    """

    retries: int = 2
    job_timeout: Optional[float] = None
    backoff_base: float = 0.05
    backoff_cap: float = 2.0

    def backoff_delay(self, fingerprint: str, attempt: int) -> float:
        """Seconds to wait before attempt ``attempt`` (1-based retry)."""
        if attempt <= 0:
            return 0.0
        exponential = min(self.backoff_cap,
                          self.backoff_base * (2 ** (attempt - 1)))
        token = f"backoff:{fingerprint}:{attempt}"
        digest = hashlib.sha256(token.encode("utf-8")).digest()
        unit = int.from_bytes(digest[:8], "big") / float(1 << 64)
        return exponential * (0.5 + unit / 2)

    def deadline_for(self, started: float) -> float:
        if self.job_timeout is None:
            return math.inf
        return started + self.job_timeout


#: Library default: a couple of retries, no timeout (opt-in via CLI).
DEFAULT_POLICY = RetryPolicy()


@dataclass
class JobOutcome:
    """One job's result plus execution accounting.

    ``result`` is ``None`` -- and :attr:`failed` true -- when the job
    exhausted its retries; ``error`` then holds the last failure text.
    """

    spec: JobSpec
    result: Optional[SimulationResult]
    wall_time: float      # seconds spent simulating (0.0 for cache hits)
    cached: bool = False
    attempts: int = 1     # executed attempts (0 for cache hits)
    error: str = ""
    bundle: str = ""      # triage bundle path for a failed job ("" none)

    @property
    def failed(self) -> bool:
        return self.result is None


@dataclass
class RunReport:
    """Results of one :func:`run_many` call, in input order."""

    outcomes: List[JobOutcome] = field(default_factory=list)
    wall_time: float = 0.0    # elapsed time of the whole run_many call
    jobs: int = 1             # worker count actually used
    fell_back_to_serial: bool = False
    trace_gen_s: float = 0.0  # time spent packing/writing trace arenas
    arena_jobs: int = 0       # jobs dispatched with an arena reference

    @property
    def results(self) -> List[Optional[SimulationResult]]:
        """Results in input order (``None`` for failed jobs)."""
        return [o.result for o in self.outcomes]

    @property
    def cache_hits(self) -> int:
        return sum(1 for o in self.outcomes if o.cached)

    @property
    def cache_misses(self) -> int:
        return len(self.outcomes) - self.cache_hits

    @property
    def failures(self) -> List[JobOutcome]:
        return [o for o in self.outcomes if o.failed]

    @property
    def retried(self) -> int:
        """Jobs that needed more than one attempt."""
        return sum(1 for o in self.outcomes if o.attempts > 1)

    @property
    def simulated_instructions(self) -> int:
        """Instructions actually simulated (cache hits cost nothing)."""
        return sum(o.spec.instructions + o.spec.warmup
                   for o in self.outcomes
                   if not o.cached and not o.failed)

    @property
    def checkpoint_s(self) -> float:
        """Always 0.0: mid-job checkpoints were removed.  Kept because
        the repository benchmark (``perfbench/harness.py``) reads it."""
        return 0.0

    @property
    def sim_s(self) -> float:
        """Wall time net of arena packing/writing: pure simulation
        time."""
        return max(0.0, self.wall_time - self.trace_gen_s)

    @property
    def throughput(self) -> float:
        """Simulated instructions per wall-clock second."""
        if self.wall_time <= 0:
            return 0.0
        return self.simulated_instructions / self.wall_time

    def format_summary(self) -> str:
        text = (f"{len(self.outcomes)} jobs ({self.cache_hits} cached) in "
                f"{self.wall_time:.2f}s with {self.jobs} worker(s), "
                f"{self.throughput:,.0f} simulated instr/s")
        if self.arena_jobs:
            text += f", {self.arena_jobs} replayed from arenas"
        if self.trace_gen_s > 0:
            text += f" (trace gen {self.trace_gen_s:.2f}s)"
        if self.retried:
            text += f", {self.retried} retried"
        if self.failures:
            text += f", {len(self.failures)} FAILED"
        return text


#: Process-wide execution totals accumulated across ``run_many`` calls.
#: ``repro report`` samples these around each phase to attribute wall
#: time to simulation vs. arena generation.
_TOTALS: Dict[str, float] = {
    "wall_s": 0.0, "trace_gen_s": 0.0,
    "jobs": 0, "cache_hits": 0, "failed": 0,
}


def run_totals() -> Dict[str, float]:
    """A snapshot of the process-wide ``run_many`` accounting totals."""
    return dict(_TOTALS)


def default_jobs() -> int:
    """Worker count from ``REPRO_JOBS`` (default 1: serial)."""
    try:
        return max(1, int(os.environ.get("REPRO_JOBS", "1")))
    except ValueError:
        return 1


def _failure_text(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _serial_attempt(spec: JobSpec, attempt: int,
                    workload: Optional[Any] = None,
                    cache: Optional[ResultCache] = None
                    ) -> Tuple[SimulationResult, float]:
    """One in-process attempt through the workers' path
    (:func:`repro.run.triage.run_attempt`); returns ``(result,
    elapsed)``.

    The clock starts before fault injection: the serial path enforces
    ``job_timeout`` post-hoc from this elapsed time, so a hang must be
    charged to the attempt for the timeout to ever trip.  ``workload``
    optionally substitutes a trace arena or recording wrapper for the
    spec's own generators (see :meth:`JobSpec.run`).  With a ``cache``,
    a failed attempt leaves a triage bundle beside it.
    """
    start = time.perf_counter()  # repro-lint: disable=R002
    result = triage.run_attempt(
        spec, attempt, workload=workload, faults=plan_from_env(),
        cache_dir=cache.path if cache is not None else None)
    return result, time.perf_counter() - start  # repro-lint: disable=R002


def _finish(spec: JobSpec, result: SimulationResult, elapsed: float,
            attempts: int, cache: Optional[ResultCache],
            manifest: Optional[SweepManifest]) -> JobOutcome:
    """Record a successful completion (cache write is best-effort)."""
    if cache is not None:
        cache.put(spec, result)
    if manifest is not None:
        fingerprint = spec.fingerprint()
        manifest.mark_attempt(fingerprint, attempts - 1, "ok")
        manifest.mark_done(fingerprint)
    return JobOutcome(spec, result, elapsed, attempts=attempts)


def _fail(spec: JobSpec, error: str, elapsed: float, attempts: int,
          manifest: Optional[SweepManifest],
          bundle: str = "") -> JobOutcome:
    """Record a job that exhausted its retries; the sweep continues."""
    if manifest is not None:
        manifest.mark_failed(spec.fingerprint(), error)
    return JobOutcome(spec, None, elapsed, attempts=attempts, error=error,
                      bundle=bundle)


def _run_serial(pending: Sequence[Tuple[int, JobSpec]],
                cache: Optional[ResultCache],
                outcomes: List[Optional[JobOutcome]],
                policy: RetryPolicy = DEFAULT_POLICY,
                manifest: Optional[SweepManifest] = None,
                workloads: Optional[Dict[int, Any]] = None) -> None:
    workloads = workloads or {}
    for index, spec in pending:
        outcomes[index] = _run_one_serial(spec, cache, policy, manifest,
                                          workload=workloads.get(index))


def _run_one_serial(spec: JobSpec, cache: Optional[ResultCache],
                    policy: RetryPolicy,
                    manifest: Optional[SweepManifest],
                    workload: Optional[Any] = None) -> JobOutcome:
    fingerprint = spec.fingerprint()
    total_elapsed = 0.0
    error = ""
    bundle = ""
    for attempt in range(policy.retries + 1):
        if attempt:
            time.sleep(policy.backoff_delay(fingerprint, attempt))
        if manifest is not None:
            manifest.mark_running(fingerprint)
        try:
            result, elapsed = _serial_attempt(spec, attempt,
                                              workload=workload,
                                              cache=cache)
        except Exception as exc:   # noqa: BLE001 -- per-job isolation
            error = _failure_text(exc)
            bundle = getattr(exc, "__triage_bundle__", bundle)
            if manifest is not None:
                manifest.mark_attempt(fingerprint, attempt, "failed",
                                      error)
                if attempt < policy.retries:
                    manifest.mark_retrying(fingerprint, error)
            continue
        total_elapsed += elapsed
        if policy.job_timeout is not None and elapsed > policy.job_timeout:
            # The serial path cannot interrupt a running attempt, so the
            # timeout is enforced after the fact: discard and retry,
            # matching the pool's observable behaviour.
            error = (f"timeout: attempt took {elapsed:.2f}s "
                     f"(limit {policy.job_timeout:.2f}s)")
            if manifest is not None:
                manifest.mark_attempt(fingerprint, attempt, "timeout",
                                      error)
                if attempt < policy.retries:
                    manifest.mark_retrying(fingerprint, error)
            continue
        return _finish(spec, result, total_elapsed, attempt + 1, cache,
                       manifest)
    return _fail(spec, error, total_elapsed, policy.retries + 1, manifest,
                 bundle=bundle)


# ------------------------------------------------------------------ arenas

def _resolve_trace_dir(trace_dir: Optional[str],
                       cache: Optional[ResultCache]) -> Optional[Path]:
    """Where arenas live: explicit dir > ``REPRO_TRACE_DIR`` > beside the
    result cache > nowhere (arenas disabled)."""
    from repro.trace import arena as trace_arena
    if trace_dir is not None:
        return Path(trace_dir)
    env = trace_arena.default_trace_dir()
    if env is not None:
        return Path(env)
    if cache is not None:
        return Path(cache.path) / "traces"
    return None


def _materialize_arenas(pending: Sequence[Tuple[int, JobSpec]],
                        cache: Optional[ResultCache],
                        outcomes: List[Optional[JobOutcome]],
                        policy: RetryPolicy,
                        manifest: Optional[SweepManifest],
                        trace_dir: Path,
                        mode: str) -> Tuple[Dict[int, Any], float]:
    """Group pending jobs by arena key; ensure each group's arena exists.

    Missing arenas are materialized by running the group's *first*
    member serially with a recording tee (full retry/timeout/fault
    semantics apply -- the recording job is an ordinary job); its
    outcome is filled in directly and the remaining members become arena
    consumers.  Returns ``(index -> arena handle, seconds spent
    packing/writing)``.  In ``auto`` mode singleton groups are left on
    the generator path (an arena can't pay for itself there); ``on``
    materializes unconditionally.
    """
    from repro.trace import arena as trace_arena
    handles: Dict[int, Any] = {}
    trace_gen_s = 0.0
    groups: Dict[str, List[Tuple[int, JobSpec]]] = {}
    for index, spec in pending:
        key = trace_arena.arena_key(spec.workload.to_dict(),
                                    spec.params.n_nodes, spec.seed,
                                    spec.instructions + spec.warmup)
        groups.setdefault(key, []).append((index, spec))
    for key, members in groups.items():
        if mode == "auto" and len(members) < 2:
            continue
        path = trace_dir / f"{key}.arena"
        handle = trace_arena.load_cached(path)
        consumers = members
        if handle is None:
            index, spec = members[0]
            consumers = members[1:]
            try:
                recorder = trace_arena.ArenaRecorder(
                    spec.workload.build(), spec.params.n_nodes, spec.seed,
                    spec.workload.to_dict(),
                    spec.instructions + spec.warmup)
                recording = recorder.workload()
            except Exception:  # noqa: BLE001 -- job isolation owns this
                recorder, recording = None, None
            outcomes[index] = _run_one_serial(
                spec, cache, policy, manifest, workload=recording)
            if recorder is not None and not outcomes[index].failed:
                started = time.perf_counter()  # repro-lint: disable=R002
                wrote = recorder.write(path)
                trace_gen_s += time.perf_counter() - started  # repro-lint: disable=R002
                if wrote:
                    handle = trace_arena.load_cached(path)
        if handle is not None:
            for index, _spec in consumers:
                handles[index] = handle
    return handles, trace_gen_s


# -------------------------------------------------------------------- pool

def _chunk_size(n_pending: int, jobs: int, policy: RetryPolicy) -> int:
    """Jobs per dispatch chunk.

    With a ``job_timeout`` every chunk is a single job so each attempt
    keeps its own deadline; otherwise aim for ~4 chunks per worker (load
    balance) capped at 8 jobs per pickle.
    """
    if policy.job_timeout is not None:
        return 1
    return max(1, min(8, math.ceil(n_pending / (jobs * 4))))


def _run_pool(pending: Sequence[Tuple[int, JobSpec]], jobs: int,
              cache: Optional[ResultCache],
              outcomes: List[Optional[JobOutcome]],
              policy: RetryPolicy = DEFAULT_POLICY,
              manifest: Optional[SweepManifest] = None,
              arena_paths: Optional[Dict[int, str]] = None) -> bool:
    """Run misses on the persistent pool; ``False`` if it was unusable.

    Jobs are dispatched in chunks (:func:`_chunk_size` per future): each
    chunk ships one base job dict plus per-job deltas and an optional
    arena reference, and returns per-job outcome dicts, so one pickle
    amortizes over the chunk while failure isolation stays per job.

    Scheduling is slot-limited (at most ``jobs`` in-flight futures) so a
    submitted chunk starts essentially immediately and its deadline can
    be measured from submission (timeouts force single-job chunks).  An
    overdue future is abandoned -- the worker keeps draining in the
    background as a *zombie* occupying one slot until its bounded work
    finishes -- and the job is retried.  If zombies ever occupy every
    slot the pool is recycled wholesale; a run that ends with zombies
    outstanding also recycles it so the next sweep starts with clean
    workers.  Job-level failures are consumed per entry; only pool-level
    breakage (no semaphores, dead workers) aborts to the serial
    fallback, which re-runs exactly the jobs without an outcome.
    """
    try:
        from concurrent.futures import FIRST_COMPLETED, wait
        from concurrent.futures.process import BrokenProcessPool
    except ImportError:                                # pragma: no cover
        return False
    from repro.run import forkserver

    pool = forkserver.get_pool(jobs)
    if pool is None:
        return False
    arena_paths = arena_paths or {}
    chunk = _chunk_size(len(pending), jobs, policy)

    # Jobs waiting to (re)submit: (not-before time, index, spec, attempt,
    # elapsed-so-far, last error).  `active` maps future -> (chunk
    # entries, deadline); `zombies` holds abandoned futures still
    # draining a worker.
    queue: List[Tuple[float, int, JobSpec, int, float, str]] = []
    active: Dict[Any, Tuple[List[Tuple[int, JobSpec, int, float]],
                            float]] = {}
    zombies: List[Any] = []
    now = time.perf_counter()  # repro-lint: disable=R002
    for index, spec in pending:
        queue.append((now, index, spec, 0, 0.0, ""))

    def settle(index: int, spec: JobSpec, attempt: int, elapsed: float,
               error: str, at: float, kind: str = "failed",
               bundle: str = "") -> None:
        """Failed attempt: schedule a retry or record the failure.

        The attempt log is written first: the host deadline and a late
        worker failure can both reach here for the same attempt, and
        :meth:`SweepManifest.mark_attempt` keeps exactly one outcome.
        """
        if manifest is not None:
            manifest.mark_attempt(spec.fingerprint(), attempt, kind,
                                  error)
        if attempt < policy.retries:
            if manifest is not None:
                manifest.mark_retrying(spec.fingerprint(), error)
            delay = policy.backoff_delay(spec.fingerprint(), attempt + 1)
            queue.append((at + delay, index, spec, attempt + 1, elapsed,
                          error))
        else:
            outcomes[index] = _fail(spec, error, elapsed, attempt + 1,
                                    manifest, bundle=bundle)

    def submit(ready: List[Tuple[float, int, JobSpec, int, float, str]],
               at: float) -> None:
        """Dispatch one chunk of ready queue items as a single future."""
        entries = [(index, spec, attempt, elapsed)
                   for (_nb, index, spec, attempt, elapsed, _e) in ready]
        if manifest is not None:
            for _index, spec, _attempt, _elapsed in entries:
                manifest.mark_running(spec.fingerprint())
        payload = forkserver.make_batch_payload(
            entries[0][1].to_dict(),
            [(spec.to_dict(), attempt, arena_paths.get(index))
             for index, spec, attempt, _elapsed in entries],
            cache_dir=str(cache.path) if cache is not None else None)
        future = pool.submit(forkserver._execute_batch, payload)
        active[future] = (entries, policy.deadline_for(at))

    try:
        while queue or active:
            now = time.perf_counter()  # repro-lint: disable=R002
            zombies = [future for future in zombies if not future.done()]

            # Submit ready work in chunks while slots are free.
            free = jobs - len(active) - len(zombies)
            if free > 0 and queue:
                queue.sort(key=lambda item: item[0])
                ready = [item for item in queue if item[0] <= now]
                held = [item for item in queue if item[0] > now]
                while free > 0 and ready:
                    submit(ready[:chunk], now)
                    ready = ready[chunk:]
                    free -= 1
                queue = held + ready

            # Every slot wedged on an abandoned attempt: recycle the
            # pool so pending retries are not starved forever.
            if len(zombies) >= jobs and (queue or active):
                forkserver.recycle_pool()
                for future, (entries, _deadline) in active.items():
                    # Innocent in-flight jobs requeue at the same
                    # attempt; they were not at fault.
                    for index, spec, attempt, elapsed in entries:
                        queue.append((now, index, spec, attempt, elapsed,
                                      ""))
                active.clear()
                zombies = []
                pool = forkserver.get_pool(jobs)
                if pool is None:
                    return False
                continue

            # Block until something can change: an active or zombie
            # future completes (a finished zombie frees a slot too), an
            # attempt reaches its deadline, or a backoff-held retry comes
            # due.  Jobs that wait only for a free slot set no timer --
            # a slot frees only on completion -- so the parent never
            # polls while the workers simulate.
            horizon = min([record[1] for record in active.values()]
                          + [item[0] for item in queue if item[0] > now],
                          default=math.inf)
            wait_for = None if horizon == math.inf \
                else max(0.0, horizon - now)
            done, _ = wait(list(active) + zombies, timeout=wait_for,
                           return_when=FIRST_COMPLETED)

            for future in done:
                if future not in active:
                    continue            # a zombie drained; slot freed
                entries, _deadline = active.pop(future)
                at = time.perf_counter()  # repro-lint: disable=R002
                try:
                    batch = future.result()
                except BrokenProcessPool:
                    # Pool-level breakage: recycle and bail out; the
                    # serial fallback re-runs every job without an
                    # outcome yet.
                    forkserver.recycle_pool()
                    return False
                except Exception as exc:  # noqa: BLE001 -- per-future
                    for index, spec, attempt, elapsed in entries:
                        settle(index, spec, attempt, elapsed,
                               _failure_text(exc), at)
                    continue
                for (index, spec, attempt, elapsed), job in \
                        zip(entries, batch):
                    attempt_time = float(job.get("elapsed", 0.0))
                    if job.get("ok"):
                        result = SimulationResult.from_dict(job["result"])
                        outcomes[index] = _finish(
                            spec, result, elapsed + attempt_time,
                            attempt + 1, cache, manifest)
                    else:
                        settle(index, spec, attempt,
                               elapsed + attempt_time,
                               job.get("error", "worker returned no "
                                                "outcome"), at,
                               bundle=str(job.get("bundle", "")))

            # Abandon overdue attempts and retry them.
            now = time.perf_counter()  # repro-lint: disable=R002
            for future in [f for f, record in active.items()
                           if record[1] <= now]:
                entries, _deadline = active.pop(future)
                if not future.cancel():
                    zombies.append(future)
                for index, spec, attempt, elapsed in entries:
                    settle(index, spec, attempt, elapsed,
                           f"timeout: attempt exceeded "
                           f"{policy.job_timeout:.2f}s", now,
                           kind="timeout")
        return True
    finally:
        # The pool outlives this call (warm workers for the next sweep)
        # unless abandoned attempts are still draining inside it.
        if zombies:
            forkserver.recycle_pool()


def run_many(specs: Sequence[JobSpec], jobs: Optional[int] = None,
             cache: Optional[ResultCache] = None,
             policy: Optional[RetryPolicy] = None,
             manifest: Optional[SweepManifest] = None,
             resume: Optional[bool] = None,
             arenas: Optional[str] = None,
             trace_dir: Optional[str] = None) -> RunReport:
    """Execute ``specs`` and return a report with results in input order.

    Arguments left as ``None`` pick up the process-wide configuration
    (see :func:`repro.run.configure` / ``REPRO_JOBS`` /
    ``REPRO_ARENAS`` / ``REPRO_TRACE_DIR``): worker count, shared cache,
    retry policy, sweep manifest, resume mode, and arena policy.
    ``arenas`` is ``auto`` / ``on`` / ``off`` (booleans accepted);
    ``trace_dir`` overrides where arenas are stored (default: a
    ``traces/`` directory beside the result cache when one is active).
    Triage bundles need somewhere durable to live, so they are written
    only when a result cache is in use.  Failed jobs (retries exhausted)
    appear as outcomes with ``result=None`` rather than aborting the
    sweep.

    With ``jobs > 1`` and at least two pending jobs the misses run on
    the fork-server pool (:func:`_run_pool`); whatever still lacks an
    outcome afterwards -- all of it when the pool was skipped, the
    remainder when it broke -- runs serially in-process.  Completed
    outcomes survive a pool failure, and results are byte-identical
    either way because both paths execute the same per-job code.
    """
    if jobs is None or cache is None or policy is None \
            or manifest is None or resume is None or arenas is None \
            or trace_dir is None:
        from repro.run import runner_state
        state = runner_state()
        jobs = state.jobs if jobs is None else jobs
        cache = state.cache if cache is None else cache
        policy = state.policy if policy is None else policy
        manifest = state.manifest if manifest is None else manifest
        resume = state.resume if resume is None else resume
        arenas = state.arenas if arenas is None else arenas
        trace_dir = state.trace_dir if trace_dir is None else trace_dir
    jobs = max(1, int(jobs))
    if arenas is True:
        arenas = "on"
    elif arenas is False:
        arenas = "off"
    elif arenas not in _ARENA_MODES:
        arenas = "auto"

    start = time.perf_counter()  # repro-lint: disable=R002
    if manifest is not None:
        fingerprints = [spec.fingerprint() for spec in specs]
        manifest.begin(fingerprints, [spec.describe() for spec in specs],
                       resume=bool(resume))

    outcomes: List[Optional[JobOutcome]] = [None] * len(specs)
    pending: List[Tuple[int, JobSpec]] = []
    for index, spec in enumerate(specs):
        hit = cache.get(spec) if cache is not None else None
        if hit is not None:
            outcomes[index] = JobOutcome(spec, hit, 0.0, cached=True,
                                         attempts=0)
            if manifest is not None:
                manifest.mark_done(spec.fingerprint(), cached=True)
        else:
            pending.append((index, spec))

    trace_gen_s = 0.0
    arena_handles: Dict[int, Any] = {}
    if pending and arenas != "off":
        directory = _resolve_trace_dir(trace_dir, cache)
        if directory is not None:
            arena_handles, trace_gen_s = _materialize_arenas(
                pending, cache, outcomes, policy, manifest, directory,
                arenas)
            pending = [p for p in pending if outcomes[p[0]] is None]

    fell_back = False
    if jobs > 1 and len(pending) > 1:
        arena_paths = {index: str(handle.path)
                       for index, handle in arena_handles.items()}
        fell_back = not _run_pool(pending, min(jobs, len(pending)), cache,
                                  outcomes, policy, manifest, arena_paths)
    remaining = [p for p in pending if outcomes[p[0]] is None]
    if remaining:
        _run_serial(remaining, cache, outcomes, policy, manifest,
                    arena_handles)

    report = RunReport(outcomes=[o for o in outcomes if o is not None],
                       wall_time=time.perf_counter() - start,  # repro-lint: disable=R002
                       jobs=1 if (jobs == 1 or fell_back) else jobs,
                       fell_back_to_serial=fell_back,
                       trace_gen_s=trace_gen_s,
                       arena_jobs=len(arena_handles))
    assert len(report.outcomes) == len(specs)
    _TOTALS["wall_s"] += report.wall_time
    _TOTALS["trace_gen_s"] += report.trace_gen_s
    _TOTALS["jobs"] += len(report.outcomes)
    _TOTALS["cache_hits"] += report.cache_hits
    _TOTALS["failed"] += len(report.failures)
    return report
