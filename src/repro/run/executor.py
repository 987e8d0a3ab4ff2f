"""Fault-isolating fan-out executor for independent simulation jobs.

:func:`run_many` takes a list of :class:`~repro.run.jobs.JobSpec` and
returns their results *in input order*, regardless of completion order,
so callers (figure sweeps, seed sweeps) see exactly the rows they asked
for.  Dispatch policy:

* specs with the same fingerprint run once per call: one of them leads
  (the first sanitized one, else the first) and is looked up and
  simulated, and the others are served from it;
* every leader but a sanitized one is first looked up in the result
  cache (when one is given);
* the misses go through one scheduling loop (:func:`_run`)
  that owns retries, backoff, timeouts and the manifest, and hands
  chunks of jobs to one of two chunk runners: the **persistent
  fork-server pool** (:mod:`repro.run.forkserver`) for ``jobs > 1``
  with at least two pending jobs, each chunk one pickle of plain job
  dicts; otherwise the **in-process runner**, one job at a time;
* if the pool cannot be created or breaks (restricted environments
  without ``fork``/semaphores, interpreter shutdown), the same loop
  carries on with the in-process runner instead of failing the sweep.

Both runners execute every attempt through
:func:`~repro.run.forkserver.run_entry`, so results are byte-identical
whichever runs them.  Failures are isolated **per job**: an attempt that
raises any exception is retried up to :attr:`RetryPolicy.retries` times
with deterministic exponential backoff, an attempt that exceeds
:attr:`RetryPolicy.job_timeout` is abandoned and retried, and only a job
that exhausts its retries is reported as a *failed*
:class:`JobOutcome` (``result=None``) -- the rest of the sweep keeps
going.  Progress is journalled through an optional
:class:`~repro.run.manifest.SweepManifest` so interrupted sweeps resume
from the incomplete remainder.  When ``job_timeout`` is set, chunks
shrink to one job so each attempt keeps its own deadline.

Every attempt builds its job's workload and generates its instruction
streams itself, wherever it runs, so no attempt depends on another.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.experiment import SimulationResult
from repro.run.cache import ResultCache
from repro.run.faults import plan_from_env
from repro.run.jobs import JobSpec
from repro.run.manifest import SweepManifest


@dataclass(frozen=True)
class RetryPolicy:
    """Per-job failure handling knobs for :func:`run_many`.

    ``retries`` is the number of *additional* attempts after the first
    failure; ``job_timeout`` (seconds, ``None`` = unlimited) bounds one
    attempt's wall time.  An attempt is over budget if its deadline
    passes while it is in flight (the pool abandons it, leaving the
    worker to drain) or if its measured time exceeds ``job_timeout``
    when its result is collected; either way it is discarded and
    retried.  The in-process runner cannot interrupt an attempt, so only
    the second rule reaches it, and it judges the same attempts over
    budget as the pool.

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
    def trace_gen_s(self) -> float:
        """Always 0.0: trace arenas were removed.  Kept because the
        repository benchmark (``perfbench/harness.py``) sums it."""
        return 0.0

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
        if self.retried:
            text += f", {self.retried} retried"
        if self.failures:
            text += f", {len(self.failures)} FAILED"
        return text


#: Process-wide execution totals accumulated across ``run_many`` calls.
#: ``repro report`` samples these around each phase to attribute its
#: wall time to simulation.
_TOTALS: Dict[str, float] = {
    "wall_s": 0.0,
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


def _served(spec: JobSpec, leader: JobOutcome) -> JobOutcome:
    """The outcome of ``spec`` when another spec of the same
    :func:`run_many` call has its fingerprint: that spec's result
    under ``spec``'s own params, charged no time and no attempt (a
    failure is shared too)."""
    if leader.failed:
        return JobOutcome(spec, None, 0.0, attempts=0, error=leader.error,
                          bundle=leader.bundle)
    result = dataclasses.replace(leader.result, params=spec.params)
    return JobOutcome(spec, result, 0.0, cached=True, attempts=0)


# ------------------------------------------------------------- scheduling

class _Ran:
    """The outcomes of a chunk the in-process runner has run, in the
    place of a finished future: the scheduling loop imports
    :mod:`concurrent.futures` only when it builds a pool."""

    __slots__ = ("outcomes",)

    def __init__(self, outcomes: List[Dict[str, Any]]):
        self.outcomes = outcomes

    def result(self) -> List[Dict[str, Any]]:
        return self.outcomes


def _chunk_size(n_pending: int, slots: int, policy: RetryPolicy) -> int:
    """Jobs per pool dispatch chunk.

    With a ``job_timeout`` every chunk is a single job so each attempt
    keeps its own deadline; otherwise aim for ~4 chunks per slot (load
    balance) capped at 8 jobs per pickle.
    """
    if policy.job_timeout is not None:
        return 1
    return max(1, min(8, math.ceil(n_pending / (slots * 4))))


def _run(pending: Sequence[Tuple[int, JobSpec]], jobs: int,
         cache: Optional[ResultCache],
         outcomes: List[Optional[JobOutcome]],
         policy: RetryPolicy,
         manifest: Optional[SweepManifest]) -> bool:
    """Run every ``pending`` job to an outcome: the runner's one
    scheduling loop.  Returns whether the pool was wanted but could not
    be used (or broke), so the in-process runner took over.

    The loop owns the retry queue, backoff, deadlines, zombies, manifest
    marks and outcomes.  It hands chunks of jobs to one of two chunk
    runners, both of which return a future of per-job outcome dicts from
    :func:`~repro.run.forkserver.run_entry`:

    * the persistent fork-server pool, for ``jobs > 1`` with at least
      two pending jobs.  The pool keeps ``jobs`` workers (so a small
      sweep does not re-fork it) while at most ``min(jobs, pending)``
      chunks are in flight; each chunk ships plain job dicts with their
      attempt numbers;
    * the in-process runner otherwise: one slot, one job per chunk, run
      at submission; its outcomes stand in for a finished future, so
      :mod:`concurrent.futures` is imported only with a pool.

    Scheduling is slot-limited, so a submitted chunk starts essentially
    at once and its deadline is measured from submission (timeouts force
    single-job chunks).  An overdue future is abandoned -- the worker
    keeps draining in the background as a *zombie* holding one worker
    until its bounded work finishes -- and the job is retried.  If
    zombies ever hold every worker the pool is recycled; a run that ends
    with zombies outstanding also recycles it so the next sweep starts
    with clean workers.  If the pool cannot be built or breaks, the jobs
    in flight are requeued at their current attempt and the loop carries
    on with the in-process runner, so completed outcomes survive and
    only jobs without one run again.  A chunk a writer death cut short
    (:func:`~repro.run.forkserver._execute_batch`) requeues the jobs it
    never reached at their current attempt in the same way.
    """
    from repro.run import forkserver

    cache_dir = str(cache.path) if cache is not None else None
    timeout_error = (f"timeout: attempt exceeded {policy.job_timeout:.2f}s"
                     if policy.job_timeout is not None else "")
    wants_pool = jobs > 1 and len(pending) > 1
    pool = forkserver.get_pool(jobs) if wants_pool else None
    fell_back = wants_pool and pool is None

    def runner_shape(pool) -> Tuple[int, int, int]:
        """``(workers, slots, jobs per chunk)`` of the runner in use."""
        if pool is None:
            return 1, 1, 1
        slots = min(jobs, len(pending))
        return jobs, slots, _chunk_size(len(pending), slots, policy)

    workers, slots, chunk = runner_shape(pool)

    # Jobs waiting to (re)submit: (not-before time, index, spec, attempt,
    # elapsed-so-far).  `active` maps future -> (chunk entries,
    # deadline); `zombies` holds abandoned futures still draining a
    # worker.
    queue: List[Tuple[float, int, JobSpec, int, float]] = []
    active: Dict[Any, Tuple[List[Tuple[int, JobSpec, int, float]],
                            float]] = {}
    zombies: List[Any] = []
    now = time.perf_counter()  # repro-lint: disable=R002
    for index, spec in pending:
        queue.append((now, index, spec, 0, 0.0))

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
            queue.append((at + delay, index, spec, attempt + 1, elapsed))
        else:
            outcomes[index] = _fail(spec, error, elapsed, attempt + 1,
                                    manifest, bundle=bundle)

    def submit(entries: List[Tuple[int, JobSpec, int, float]],
               at: float) -> None:
        """Hand one chunk to the runner in use as a single future."""
        if manifest is not None:
            for _index, spec, _attempt, _elapsed in entries:
                manifest.mark_running(spec.fingerprint())
        if pool is not None:
            from concurrent.futures import BrokenExecutor, Future
            payload = forkserver.make_batch_payload(
                [(spec.to_dict(), attempt)
                 for _index, spec, attempt, _elapsed in entries],
                cache_dir=cache_dir)
            try:
                future = pool.submit(forkserver._execute_batch, payload)
            except BrokenExecutor as exc:    # broke between calls
                future = Future()
                future.set_exception(exc)
        else:
            (_index, spec, attempt, _elapsed), = entries
            future = _Ran([forkserver.run_entry(
                spec.to_dict(), attempt, plan_from_env(),
                cache_dir)])
        active[future] = (entries, policy.deadline_for(at))

    def restart(at: float, rebuild: bool) -> None:
        """Recycle the pool and requeue the jobs in flight at their
        current attempt (they were not at fault).  Carry on with a fresh
        pool when ``rebuild`` asks for one and it can be built, else with
        the in-process runner."""
        nonlocal pool, fell_back, workers, slots, chunk, zombies
        forkserver.recycle_pool()
        for entries, _deadline in active.values():
            for index, spec, attempt, elapsed in entries:
                queue.append((at, index, spec, attempt, elapsed))
        active.clear()
        zombies = []
        pool = forkserver.get_pool(jobs) if rebuild else None
        fell_back = fell_back or pool is None
        workers, slots, chunk = runner_shape(pool)

    def refill(now: float) -> None:
        """Submit ready work in chunks, lowest input index first, while
        slots are free."""
        nonlocal queue
        free = min(slots, workers - len(zombies)) - len(active)
        if free > 0 and queue:
            ready = sorted((item for item in queue if item[0] <= now),
                           key=lambda item: item[1])
            queue = [item for item in queue if item[0] > now]
            while free > 0 and ready:
                submit([item[1:] for item in ready[:chunk]], now)
                ready = ready[chunk:]
                free -= 1
            queue += ready

    try:
        while queue or active:
            now = time.perf_counter()  # repro-lint: disable=R002
            zombies = [future for future in zombies if not future.done()]
            refill(now)

            # Every worker wedged on an abandoned attempt: recycle the
            # pool so pending retries are not starved forever.
            if len(zombies) >= workers:
                restart(now, rebuild=True)
                continue

            # Block until something can change: an active or zombie
            # future completes (a finished zombie frees a worker too), an
            # attempt reaches its deadline, or a backoff-held retry comes
            # due.  Jobs that wait only for a free slot set no timer --
            # a slot frees only on completion -- so the parent never
            # polls while the workers simulate.
            horizon = min([record[1] for record in active.values()]
                          + [item[0] for item in queue if item[0] > now],
                          default=math.inf)
            wait_for = None if horizon == math.inf \
                else max(0.0, horizon - now)
            if pool is None and active:
                done = set(active)      # in-process chunks ran in submit
            elif active or zombies:
                from concurrent.futures import FIRST_COMPLETED, wait
                done, _ = wait(list(active) + zombies, timeout=wait_for,
                               return_when=FIRST_COMPLETED)
            else:
                time.sleep(wait_for)    # only backoff-held retries left
                done = set()

            # Collect in submission order.  A collected attempt is over
            # budget if its measured time exceeds the timeout, wherever
            # it ran.  Successes are recorded after the refill below.
            at = time.perf_counter()  # repro-lint: disable=R002
            broken = False
            finished: List[Tuple[int, JobSpec, SimulationResult, float,
                                 int]] = []
            for future in [f for f in active if f in done]:
                entries, _deadline = active.pop(future)
                try:
                    batch = future.result()
                except Exception as exc:  # noqa: BLE001 -- per-future
                    # Only pool futures raise, so the pool's module is
                    # already imported.
                    from concurrent.futures import BrokenExecutor
                    if isinstance(exc, BrokenExecutor):
                        broken = True
                        queue.extend((at,) + entry for entry in entries)
                        continue
                    for index, spec, attempt, elapsed in entries:
                        settle(index, spec, attempt, elapsed,
                               _failure_text(exc), at)
                    continue
                # A writer death ends a worker's chunk early; the jobs
                # it never reached go back at their current attempt.
                queue.extend((at,) + entry for entry in entries[len(batch):])
                for (index, spec, attempt, elapsed), job in \
                        zip(entries, batch):
                    attempt_time = float(job.get("elapsed", 0.0))
                    elapsed += attempt_time
                    if not job.get("ok"):
                        settle(index, spec, attempt, elapsed,
                               job.get("error", "worker returned no "
                                                "outcome"), at,
                               bundle=str(job.get("bundle", "")))
                    elif policy.job_timeout is not None and \
                            attempt_time > policy.job_timeout:
                        settle(index, spec, attempt, elapsed, timeout_error,
                               at, kind="timeout")
                    else:
                        finished.append((index, spec, job["result"],
                                         elapsed, attempt + 1))
            if broken:
                restart(at, rebuild=False)
            else:
                # Abandon attempts whose deadline passed in flight, and
                # retry them.
                now = time.perf_counter()  # repro-lint: disable=R002
                for future in [f for f, record in active.items()
                               if record[1] <= now]:
                    entries, _deadline = active.pop(future)
                    if not future.cancel():
                        zombies.append(future)
                    for index, spec, attempt, elapsed in entries:
                        settle(index, spec, attempt, elapsed,
                               timeout_error, now, kind="timeout")
                # Hand the freed workers their next chunks before the
                # cache put and manifest flushes of the collected
                # outcomes, so no worker idles through the parent's
                # bookkeeping.  The in-process runner runs a job at
                # submission, so it records its outcome first.
                if pool is not None:
                    refill(now)
            for index, spec, result, elapsed, attempts in finished:
                outcomes[index] = _finish(spec, result, elapsed, attempts,
                                          cache, manifest)
        return fell_back
    finally:
        # The pool outlives this call (warm workers for the next sweep)
        # unless abandoned attempts are still draining inside it.
        if zombies:
            forkserver.recycle_pool()


def run_many(specs: Sequence[JobSpec], jobs: Optional[int] = None,
             cache: Optional[ResultCache] = None,
             policy: Optional[RetryPolicy] = None,
             manifest: Optional[SweepManifest] = None,
             resume: Optional[bool] = None) -> RunReport:
    """Execute ``specs`` and return a report with results in input order.

    Arguments left as ``None`` pick up the process-wide configuration
    (see :func:`repro.run.configure` / ``REPRO_JOBS``): worker count,
    shared cache, retry policy, sweep manifest and resume mode.  Triage
    bundles need somewhere durable to live,
    so they are written only when a result cache is in use.  Failed jobs
    (retries exhausted) appear as outcomes with ``result=None`` rather
    than aborting the sweep.

    Each distinct fingerprint is looked up and simulated once, by its
    leader: the first spec of the call with that key and
    ``tools.check`` on, else the first with that key.  The other specs
    of the key (machines that differ only in fields the model never
    reads, :meth:`~repro.params.SystemParams.canonical`, or runs that
    differ only in tools) are served from its outcome, as cached
    outcomes with their own params and no attempts.  A sanitized
    leader is never looked up in the cache, so a sanitized job always
    runs under its checker; its result, byte-identical to the plain
    run's, is stored as usual.

    The misses run through :func:`_run`: on the fork-server pool with
    ``jobs > 1`` and at least two pending jobs, else in process, and in
    process too for whatever still lacks an outcome when the pool
    cannot be used.  Results are byte-identical either way because both
    runners execute the same per-attempt code.
    """
    if jobs is None or cache is None or policy is None \
            or manifest is None or resume is None:
        from repro.run import runner_state
        state = runner_state()
        jobs = state.jobs if jobs is None else jobs
        cache = state.cache if cache is None else cache
        policy = state.policy if policy is None else policy
        manifest = state.manifest if manifest is None else manifest
        resume = state.resume if resume is None else resume
    jobs = max(1, int(jobs))

    start = time.perf_counter()  # repro-lint: disable=R002
    # One spec of each fingerprint leads: the first sanitized one, else
    # the first.  It alone is looked up and, on a miss, simulated.
    fingerprints = [spec.fingerprint() for spec in specs]
    leaders: Dict[str, int] = {}
    for index, fingerprint in enumerate(fingerprints):
        leader = leaders.setdefault(fingerprint, index)
        if specs[index].tools.check and not specs[leader].tools.check:
            leaders[fingerprint] = index
    if manifest is not None:
        manifest.begin(list(leaders),
                       [specs[index].describe()
                        for index in leaders.values()],
                       resume=bool(resume))

    outcomes: List[Optional[JobOutcome]] = [None] * len(specs)
    pending: List[Tuple[int, JobSpec]] = []
    for fingerprint, index in leaders.items():
        spec = specs[index]
        hit = cache.get(spec) \
            if cache is not None and not spec.tools.check else None
        if hit is not None:
            outcomes[index] = JobOutcome(spec, hit, 0.0, cached=True,
                                         attempts=0)
            if manifest is not None:
                manifest.mark_done(fingerprint, cached=True)
        else:
            pending.append((index, spec))

    fell_back = bool(pending) and _run(pending, jobs, cache, outcomes,
                                       policy, manifest)
    for index, fingerprint in enumerate(fingerprints):
        leader = leaders[fingerprint]
        if leader != index:
            outcomes[index] = _served(specs[index], outcomes[leader])

    report = RunReport(outcomes=[o for o in outcomes if o is not None],
                       wall_time=time.perf_counter() - start,  # repro-lint: disable=R002
                       jobs=1 if (jobs == 1 or fell_back) else jobs,
                       fell_back_to_serial=fell_back)
    assert len(report.outcomes) == len(specs)
    _TOTALS["wall_s"] += report.wall_time
    _TOTALS["jobs"] += len(report.outcomes)
    _TOTALS["cache_hits"] += report.cache_hits
    _TOTALS["failed"] += len(report.failures)
    return report
