"""Tests for the sweep resilience layer.

Covers deterministic fault injection (``REPRO_FAULTS``), per-job retry /
timeout / backoff isolation in both the serial and pool executors, the
persistent sweep manifest with ``--resume`` semantics, cache integrity
(checksums, quarantine, best-effort writes, orphan sweeping), failure
accounting in :class:`RunReport`, explicit figure gaps, and the
acceptance property that a fault-injected sweep reproduces the
fault-free results byte-for-byte.
"""

import dataclasses
import hashlib
import json
import math
import os
import time
import tracemalloc

import pytest

import repro.run
import repro.run.executor as executor
from repro.core import figures as F
from repro.core.sweep import seed_sweep
from repro.core.workloads import oltp_workload
from repro.params import ConsistencyModel, default_system
from repro.run import atomicio, forkserver, triage
from repro.run import (
    DEFAULT_POLICY,
    MANIFEST_NAME,
    FaultPlan,
    InjectedCrash,
    JobSpec,
    ResultCache,
    RetryPolicy,
    SweepManifest,
    WorkloadSpec,
    plan_from_env,
    run_many,
)
from repro.run.cache import _entry_chunks, _payload_checksum
from repro.run.jobs import keyed_job
from repro.stats import mshr

# Small enough that retries stay cheap, large enough to exercise the
# simulator for real.  One attempt takes ~0.1s serially on a slow box;
# every timeout in this file keeps a generous multiple of that.
TINY = dict(instructions=800, warmup=800)

#: Backoff knobs that keep retry-heavy tests fast without changing the
#: deterministic schedule's shape.
FAST_BACKOFF = dict(backoff_base=0.001, backoff_cap=0.01)


def tiny_spec(seed=0, kind="oltp", **params_changes):
    params = default_system(**params_changes)
    return JobSpec(params, WorkloadSpec(kind), seed=seed, **TINY)


def find_fault_seed(predicate, limit=200000):
    """Smallest fault-plan seed satisfying ``predicate`` -- fault rolls
    are pure hashes, so the search (and thus the test) is deterministic."""
    for seed in range(limit):
        if predicate(seed):
            return seed
    raise AssertionError("no suitable fault seed in search range")


def _count_pool_waits(monkeypatch):
    """Record every ``concurrent.futures.wait`` call (the pool imports
    it at call time, so the patch reaches it); returns the timeouts."""
    import concurrent.futures
    calls = []
    real_wait = concurrent.futures.wait

    def counting_wait(fs, timeout=None, return_when="ALL_COMPLETED"):
        calls.append(timeout)
        return real_wait(fs, timeout=timeout, return_when=return_when)

    monkeypatch.setattr(concurrent.futures, "wait", counting_wait)
    return calls


class _HalfDonePool:
    """Stand-in for the fork-server pool: completes the first chunk it
    is given, then fails every later one as a broken pool would."""

    def __init__(self):
        self.chunks = 0

    def submit(self, fn, payload):
        from concurrent.futures import Future
        from concurrent.futures.process import BrokenProcessPool
        self.chunks += 1
        future = Future()
        if self.chunks == 1:
            future.set_result([
                {"ok": True, "elapsed": 0.0,
                 "result": JobSpec.from_dict(entry["job"]).run()}
                for entry in payload["jobs"]])
        else:
            future.set_exception(BrokenProcessPool("worker died"))
        return future


@pytest.fixture(autouse=True)
def clean_runner(monkeypatch):
    """Isolate each test from process-wide runner state and fault env."""
    monkeypatch.setattr(repro.run, "_jobs", 1)
    monkeypatch.setattr(repro.run, "_cache", None)
    monkeypatch.setattr(repro.run, "_manifest", None)
    monkeypatch.setattr(repro.run, "_policy", DEFAULT_POLICY)
    monkeypatch.setattr(repro.run, "_resume", False)
    monkeypatch.delenv("REPRO_FAULTS", raising=False)


# ---------------------------------------------------------------------------
# Fault plan parsing and deterministic rolls
# ---------------------------------------------------------------------------

class TestFaultPlan:
    def test_parse_full_plan(self):
        plan = FaultPlan.parse("crash:0.2,hang:0.1,corrupt:0.1,seed:7")
        assert plan.crash == 0.2 and plan.hang == 0.1
        assert plan.corrupt == 0.1 and plan.seed == 7
        assert plan.active

    def test_parse_hang_duration(self):
        assert FaultPlan.parse("hang:1,hang_s:0.25").hang_seconds == 0.25

    def test_parse_rejects_probability_outside_unit_interval(self):
        with pytest.raises(ValueError):
            FaultPlan.parse("crash:1.5")
        with pytest.raises(ValueError):
            FaultPlan.parse("hang:-0.1")

    def test_parse_rejects_unknown_key(self):
        # workerdie/netdrop are removed transport fault kinds: a stale
        # REPRO_FAULTS string naming them must fail loudly.
        for text in ("explode:0.5", "workerdie:0.1", "netdrop:0.1"):
            with pytest.raises(ValueError, match="unknown"):
                FaultPlan.parse(text)

    def test_parse_rejects_malformed_entry(self):
        with pytest.raises(ValueError, match="malformed"):
            FaultPlan.parse("crash")

    def test_plan_from_env(self, monkeypatch):
        assert plan_from_env("") is None
        # All-zero probabilities: syntactically valid but inactive.
        assert plan_from_env("crash:0,hang:0,corrupt:0") is None
        monkeypatch.setenv("REPRO_FAULTS", "crash:1,seed:3")
        plan = plan_from_env()
        assert plan is not None
        assert plan.crash == 1.0 and plan.seed == 3

    def test_rolls_deterministic_and_attempt_independent(self):
        plan = FaultPlan(crash=0.5, seed=7)
        fingerprint = "a" * 64
        rolls = [plan.roll("crash", fingerprint, a) for a in range(32)]
        again = [plan.roll("crash", fingerprint, a) for a in range(32)]
        assert rolls == again
        # Retried attempts roll independently: with p=0.5 over 32
        # attempts both outcomes must appear (else retries could never
        # rescue a crashing job).
        assert any(rolls) and not all(rolls)

    def test_maybe_crash(self):
        with pytest.raises(InjectedCrash):
            FaultPlan(crash=1.0).maybe_crash("f" * 64)
        FaultPlan(crash=0.0).maybe_crash("f" * 64)  # no-op

    def test_injected_crash_is_not_a_common_exception_type(self):
        # Guards the "arbitrary exception" isolation claim: if this ever
        # becomes an OSError/RuntimeError subclass, the executor tests
        # would only prove a lucky catch tuple.
        assert not issubclass(InjectedCrash, (OSError, RuntimeError))

    def test_corrupt_text_deterministic_and_always_detectable(self):
        plan = FaultPlan(corrupt=1.0, seed=1)
        text = json.dumps({"payload": list(range(64))})
        for char in "abcd":
            fingerprint = char * 64
            mangled = plan.corrupt_text(text, fingerprint)
            assert mangled != text
            assert mangled == plan.corrupt_text(text, fingerprint)
        assert FaultPlan(corrupt=0.0).corrupt_text(text, "a" * 64) == text


class TestRetryPolicy:
    def test_backoff_deterministic_and_capped(self):
        policy = RetryPolicy(backoff_base=0.05, backoff_cap=0.4)
        fingerprint = "e" * 64
        delays = [policy.backoff_delay(fingerprint, a) for a in range(1, 10)]
        assert delays == [policy.backoff_delay(fingerprint, a)
                          for a in range(1, 10)]
        assert policy.backoff_delay(fingerprint, 0) == 0.0
        assert all(0.0 < delay <= 0.4 for delay in delays)
        # Late attempts sit at the cap (modulo the 0.5-1.0 jitter band).
        assert delays[-1] >= 0.2

    def test_deadline(self):
        assert RetryPolicy(job_timeout=None).deadline_for(5.0) == math.inf
        assert RetryPolicy(job_timeout=2.0).deadline_for(5.0) == 7.0


# ---------------------------------------------------------------------------
# Serial executor: retries, exhaustion, post-hoc timeouts
# ---------------------------------------------------------------------------

class TestSerialRetries:
    def test_crash_then_success_matches_fault_free_baseline(
            self, monkeypatch):
        spec = tiny_spec()
        baseline = spec.run()
        fingerprint = spec.fingerprint()
        fault_seed = find_fault_seed(
            lambda s: FaultPlan(crash=0.5, seed=s).roll(
                "crash", fingerprint, 0)
            and not FaultPlan(crash=0.5, seed=s).roll(
                "crash", fingerprint, 1))
        monkeypatch.setenv("REPRO_FAULTS", f"crash:0.5,seed:{fault_seed}")
        policy = RetryPolicy(retries=2, **FAST_BACKOFF)
        report = run_many([spec], jobs=1, cache=None, policy=policy)
        outcome = report.outcomes[0]
        assert not outcome.failed and outcome.attempts == 2
        assert report.retried == 1 and not report.failures
        assert outcome.result.dump() == baseline.dump()

    def test_exhausted_retries_fail_without_aborting_the_sweep(
            self, monkeypatch):
        specs = [tiny_spec(seed=s) for s in range(3)]
        monkeypatch.setenv("REPRO_FAULTS", "crash:1,seed:0")
        policy = RetryPolicy(retries=1, **FAST_BACKOFF)
        report = run_many(specs, jobs=1, cache=None, policy=policy)
        assert len(report.outcomes) == 3
        assert len(report.failures) == 3
        assert all(o.failed and o.attempts == 2 for o in report.outcomes)
        assert all("InjectedCrash" in o.error for o in report.outcomes)
        assert report.results == [None, None, None]
        assert report.simulated_instructions == 0
        assert "3 FAILED" in report.format_summary()

    def test_serial_timeout_is_enforced_post_hoc(self, monkeypatch):
        # Every attempt hangs 0.8s against a 0.4s budget: the serial
        # path cannot interrupt the attempt, so it must discard the
        # over-budget result afterwards and eventually fail the job.
        spec = tiny_spec()
        monkeypatch.setenv("REPRO_FAULTS", "hang:1,hang_s:0.8,seed:0")
        policy = RetryPolicy(retries=1, job_timeout=0.4, **FAST_BACKOFF)
        report = run_many([spec], jobs=1, cache=None, policy=policy)
        outcome = report.outcomes[0]
        assert outcome.failed and outcome.attempts == 2
        assert "timeout" in outcome.error

    def test_timeout_then_success_matches_baseline(self, monkeypatch):
        spec = tiny_spec(seed=3)
        baseline = spec.run()
        fingerprint = spec.fingerprint()
        fault_seed = find_fault_seed(
            lambda s: FaultPlan(hang=0.5, seed=s).roll(
                "hang", fingerprint, 0)
            and not FaultPlan(hang=0.5, seed=s).roll(
                "hang", fingerprint, 1))
        monkeypatch.setenv("REPRO_FAULTS",
                           f"hang:0.5,hang_s:1.5,seed:{fault_seed}")
        # A clean attempt takes ~0.1s; 0.6s keeps a wide margin while
        # the injected 1.5s hang reliably overshoots it.
        policy = RetryPolicy(retries=2, job_timeout=0.6, **FAST_BACKOFF)
        report = run_many([spec], jobs=1, cache=None, policy=policy)
        outcome = report.outcomes[0]
        assert not outcome.failed and outcome.attempts == 2
        assert outcome.result.dump() == baseline.dump()


# ---------------------------------------------------------------------------
# Pool executor: isolation, timeout abandonment, serial fallback
# ---------------------------------------------------------------------------

class TestPoolResilience:
    def test_pool_crash_isolation_matches_baseline(self, monkeypatch):
        specs = [tiny_spec(seed=s) for s in range(4)]
        baseline = [spec.run().dump() for spec in specs]
        fingerprints = [spec.fingerprint() for spec in specs]

        def crashes_then_succeeds(seed):
            plan = FaultPlan(crash=0.5, seed=seed)
            first = [plan.roll("crash", fp, 0) for fp in fingerprints]
            second = [plan.roll("crash", fp, 1) for fp in fingerprints]
            return any(first) and \
                all(not (a and b) for a, b in zip(first, second))

        fault_seed = find_fault_seed(crashes_then_succeeds)
        monkeypatch.setenv("REPRO_FAULTS", f"crash:0.5,seed:{fault_seed}")
        policy = RetryPolicy(retries=2, **FAST_BACKOFF)
        report = run_many(specs, jobs=2, cache=None, policy=policy)
        assert not report.failures
        assert report.retried >= 1
        assert [r.dump() for r in report.results] == baseline

    def test_pool_timeout_abandons_and_retries(self, monkeypatch):
        specs = [tiny_spec(seed=s) for s in range(4)]
        baseline = [spec.run().dump() for spec in specs]
        fingerprints = [spec.fingerprint() for spec in specs]

        def one_hang_then_clean(seed):
            plan = FaultPlan(hang=0.3, seed=seed)
            first = [plan.roll("hang", fp, 0) for fp in fingerprints]
            second = [plan.roll("hang", fp, 1) for fp in fingerprints]
            return sum(first) == 1 and not any(second)

        fault_seed = find_fault_seed(one_hang_then_clean)
        monkeypatch.setenv("REPRO_FAULTS",
                           f"hang:0.3,hang_s:6,seed:{fault_seed}")
        # The 6s hang dwarfs the 2s budget; clean attempts (~0.3s even
        # under single-core pool contention) stay far inside it.
        policy = RetryPolicy(retries=3, job_timeout=2.0, **FAST_BACKOFF)
        report = run_many(specs, jobs=2, cache=None, policy=policy)
        assert not report.failures
        assert report.retried >= 1
        hung = [o for o in report.outcomes if o.attempts > 1]
        assert hung and all(not o.failed for o in hung)
        assert [r.dump() for r in report.results] == baseline

    def test_pool_zombie_slot_does_not_poll(self, monkeypatch):
        # The first attempt hangs and is abandoned almost at once, so its
        # zombie holds one of the two slots while the rest of the sweep
        # (and the retry) queue for the other.  The queued jobs wait on
        # completions, not on a timer.
        specs = [tiny_spec(seed=s) for s in range(6)]
        fingerprints = [spec.fingerprint() for spec in specs]

        def only_first_hangs_once(seed):
            plan = FaultPlan(hang=0.3, seed=seed)
            first = [plan.roll("hang", fp, 0) for fp in fingerprints]
            return first == [True] + [False] * 5 and \
                not plan.roll("hang", fingerprints[0], 1)

        fault_seed = find_fault_seed(only_first_hangs_once)
        monkeypatch.setenv("REPRO_FAULTS",
                           f"hang:0.3,hang_s:6,seed:{fault_seed}")
        budgets = iter([0.05])

        def deadline_for(policy, started):
            # Only the first submission (spec 0) gets the short budget.
            return started + next(budgets, policy.job_timeout)

        monkeypatch.setattr(RetryPolicy, "deadline_for", deadline_for)
        calls = _count_pool_waits(monkeypatch)
        policy = RetryPolicy(retries=2, job_timeout=30.0, **FAST_BACKOFF)
        report = run_many(specs, jobs=2, cache=None, policy=policy)
        assert not report.failures and not report.fell_back_to_serial
        assert [o.attempts for o in report.outcomes] == [2] + [1] * 5
        assert report.results[0].dump() == specs[0].run().dump()
        assert len(calls) <= 2 * len(specs), \
            f"parent woke {len(calls)} times for {len(specs)} jobs"

    def test_pool_parent_blocks_while_slots_are_busy(self, monkeypatch):
        # Jobs that wait only for a free slot set no timer: the parent
        # wakes about once per completed chunk instead of spinning.
        specs = [tiny_spec(seed=s) for s in range(6)]
        calls = _count_pool_waits(monkeypatch)
        report = run_many(specs, jobs=2, cache=None)
        assert not report.failures and not report.fell_back_to_serial
        assert 0 < len(calls) <= 2 * len(specs), \
            f"parent woke {len(calls)} times for {len(specs)} jobs"

    def test_serial_fallback_reruns_only_missing_outcomes(
            self, monkeypatch):
        specs = [tiny_spec(seed=s) for s in range(3)]
        executed = []
        real_entry = forkserver.run_entry

        def tracking_entry(job, *args, **kwargs):
            executed.append(job["seed"])
            return real_entry(job, *args, **kwargs)

        # The fake pool completes the first job, then reports itself dead.
        monkeypatch.setattr(forkserver, "get_pool",
                            lambda jobs: _HalfDonePool())
        monkeypatch.setattr(forkserver, "run_entry", tracking_entry)
        report = run_many(specs, jobs=2, cache=None)
        assert report.fell_back_to_serial and report.jobs == 1
        # Seed 0 completed on the "pool" and must not re-run.
        assert executed == [1, 2]
        assert len(report.outcomes) == 3 and not report.failures

    def test_pool_broken_before_the_sweep_falls_back(self, monkeypatch):
        # A pool whose worker died between sweeps refuses every submit;
        # the same loop then runs the whole sweep in process.
        class DeadPool:
            def submit(self, fn, payload):
                from concurrent.futures.process import BrokenProcessPool
                raise BrokenProcessPool("a worker died since the last sweep")

        monkeypatch.setattr(forkserver, "get_pool", lambda jobs: DeadPool())
        specs = [tiny_spec(seed=s) for s in range(3)]
        report = run_many(specs, jobs=2, cache=None)
        assert report.fell_back_to_serial and not report.failures
        assert [o.attempts for o in report.outcomes] == [1, 1, 1]

    def test_pool_runs_only_for_two_or_more_pending_jobs(
            self, tmp_path, monkeypatch):
        calls = []
        executed = []
        real_entry = forkserver.run_entry

        def declining_pool(jobs):
            calls.append(jobs)
            return None         # decline; the in-process runner finishes

        def tracking_entry(job, *args, **kwargs):
            executed.append(job["seed"])
            return real_entry(job, *args, **kwargs)

        monkeypatch.setattr(forkserver, "get_pool", declining_pool)
        monkeypatch.setattr(forkserver, "run_entry", tracking_entry)
        cache = ResultCache(tmp_path / "cache")
        specs = [tiny_spec(seed=s) for s in range(7)]

        serial = run_many(specs[:3], jobs=1, cache=cache)
        assert calls == [] and not serial.fell_back_to_serial
        # jobs=2 but only one pending job (three are cache hits).
        single = run_many(specs[:4], jobs=2, cache=cache)
        assert calls == [] and single.cache_hits == 3
        assert not single.fell_back_to_serial

        executed.clear()
        pooled = run_many(specs[4:], jobs=2, cache=cache)
        assert calls == [2] and executed == [4, 5, 6]
        assert pooled.fell_back_to_serial and not pooled.failures

    def test_serial_and_pool_agree_on_attempt_history(self, monkeypatch,
                                                      tmp_path):
        # One crash-and-hang plan, run by the in-process runner (jobs=1)
        # and by the pool (jobs=2): the same attempts fail, time out and
        # succeed, and the results are the same bytes.
        specs = [tiny_spec(seed=s) for s in range(4)]
        fingerprints = [spec.fingerprint() for spec in specs]
        retries = 2

        def expected_history(plan, fingerprint):
            kinds = []
            for attempt in range(retries + 1):
                if plan.roll("crash", fingerprint, attempt):
                    kinds.append("failed")
                elif plan.roll("hang", fingerprint, attempt):
                    kinds.append("timeout")
                else:
                    kinds.append("ok")
                    break
            return kinds

        def crash_hang_and_exhaustion(seed):
            plan = FaultPlan(crash=0.4, hang=0.2, seed=seed)
            histories = [expected_history(plan, fp) for fp in fingerprints]
            kinds = [kind for history in histories for kind in history]
            return "failed" in kinds and kinds.count("timeout") == 1 \
                and any("ok" not in history for history in histories)

        fault_seed = find_fault_seed(crash_hang_and_exhaustion)
        monkeypatch.setenv("REPRO_FAULTS",
                           f"crash:0.4,hang:0.2,hang_s:2,seed:{fault_seed}")
        # The 2s hang doubles the 1s budget; a clean attempt takes ~0.1s.
        policy = RetryPolicy(retries=retries, job_timeout=1.0,
                             **FAST_BACKOFF)

        def run(jobs):
            manifest = SweepManifest(tmp_path / f"manifest-{jobs}.json")
            report = run_many(specs, jobs=jobs, cache=None, policy=policy,
                              manifest=manifest)
            assert not report.fell_back_to_serial
            per_job = [(o.attempts, o.failed, o.error.split(":")[0])
                       for o in report.outcomes]
            per_attempt = [
                [entry["outcome"] for entry in sorted(
                    manifest.get(fp).attempt_log,
                    key=lambda entry: entry["attempt"])]
                for fp in fingerprints]
            results = [json.dumps(r.to_dict(), sort_keys=True)
                       if r is not None else None for r in report.results]
            return per_job, per_attempt, results

        in_process, pooled = run(1), run(2)
        assert in_process == pooled
        plan = plan_from_env()
        assert in_process[1] == [expected_history(plan, fp)
                                 for fp in fingerprints]

        # A raised attempt's time counts toward the job's wall time on
        # both runners.
        if forkserver.pick_method() != "fork":
            pytest.skip("pool workers see the patch below only when forked")
        monkeypatch.delenv("REPRO_FAULTS")
        real_attempt = triage.run_attempt

        def slow_failure(spec, attempt=0, **kwargs):
            if attempt == 0:
                time.sleep(0.3)
                raise RuntimeError("slow failure")
            return real_attempt(spec, attempt, **kwargs)

        monkeypatch.setattr(triage, "run_attempt", slow_failure)
        forkserver.recycle_pool()       # fork fresh workers that see it
        try:
            for jobs in (1, 2):
                report = run_many(specs[:2], jobs=jobs, cache=None,
                                  policy=RetryPolicy(retries=1,
                                                     **FAST_BACKOFF))
                assert [o.attempts for o in report.outcomes] == [2, 2]
                assert all(o.wall_time >= 0.3 for o in report.outcomes)
        finally:
            forkserver.recycle_pool()

    def test_mixed_cached_failed_retried_accounting(self, tmp_path,
                                                    monkeypatch):
        cache = ResultCache(tmp_path / "cache")
        cached_spec, retried_spec, doomed_spec = \
            tiny_spec(seed=0), tiny_spec(seed=1), tiny_spec(seed=2)
        cache.put(cached_spec, cached_spec.run())
        retried_fp = retried_spec.fingerprint()
        doomed_fp = doomed_spec.fingerprint()

        def mixed_fates(seed):
            plan = FaultPlan(crash=0.6, seed=seed)
            return (plan.roll("crash", retried_fp, 0)
                    and not plan.roll("crash", retried_fp, 1)
                    and all(plan.roll("crash", doomed_fp, a)
                            for a in range(3)))

        fault_seed = find_fault_seed(mixed_fates)
        monkeypatch.setenv("REPRO_FAULTS", f"crash:0.6,seed:{fault_seed}")
        policy = RetryPolicy(retries=2, **FAST_BACKOFF)
        report = run_many([cached_spec, retried_spec, doomed_spec],
                          jobs=1, cache=cache, policy=policy)
        assert report.cache_hits == 1 and report.cache_misses == 2
        assert report.retried == 2          # both needed >1 attempt
        assert len(report.failures) == 1
        assert report.failures[0].spec is doomed_spec
        assert report.outcomes[0].cached
        assert report.outcomes[0].attempts == 0
        assert report.outcomes[1].attempts == 2
        assert report.outcomes[2].attempts == 3
        assert report.results[2] is None
        # Only the retried job actually simulated anything.
        cost = retried_spec.instructions + retried_spec.warmup
        assert report.simulated_instructions == cost
        summary = report.format_summary()
        assert "1 cached" in summary
        assert "2 retried" in summary and "1 FAILED" in summary


# ---------------------------------------------------------------------------
# Cache integrity: checksums, quarantine, best-effort writes, orphans
# ---------------------------------------------------------------------------

class TestCacheIntegrity:
    def _seed_entry(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = tiny_spec()
        cache.put(spec, spec.run())
        return cache, spec, next(cache.path.glob("*.json"))

    def test_checksum_round_trip(self, tmp_path):
        cache, spec, entry = self._seed_entry(tmp_path)
        data = json.loads(entry.read_text())
        assert data["format"] == 2 and data["checksum"]
        hit = cache.get(spec)
        assert hit is not None and hit.dump() == spec.run().dump()

    def test_entry_is_the_checksummed_text_encoded_once(self, tmp_path):
        cache, spec, entry = self._seed_entry(tmp_path)
        job, result = keyed_job(spec.to_dict()), spec.run().to_dict()
        payload = {"format": 2, "checksum": _payload_checksum(job, result),
                   "job": job, "result": result}
        text = entry.read_text()
        assert json.loads(text) == payload
        assert text == json.dumps(payload, sort_keys=True,
                                  separators=(",", ":")) + "\n"
        # An entry spelled with default separators (as older writers
        # stored them) verifies too: get re-encodes what it parsed.
        entry.write_text(json.dumps(payload, sort_keys=True) + "\n")
        assert cache.get(spec).dump() == spec.run().dump()
        assert cache.quarantined == 0

    def test_bit_flip_quarantined(self, tmp_path):
        cache, spec, entry = self._seed_entry(tmp_path)
        text = entry.read_text()
        stored = json.loads(text)["checksum"]
        flipped = text.replace(stored, "0" + stored, 1)
        assert flipped != text
        entry.write_text(flipped)
        with pytest.warns(RuntimeWarning, match="quarantined"):
            assert cache.get(spec) is None
        assert (cache.quarantine_path / entry.name).exists()
        assert cache.stats()["quarantine_entries"] == 1

    def test_malformed_mshr_log_quarantined(self, tmp_path):
        # A checksum-valid entry whose MSHR event list is not start/end
        # pairs fails to decode and is quarantined like a bit flip.
        cache, spec, entry = self._seed_entry(tmp_path)
        data = json.loads(entry.read_text())
        collector = data["result"]["l1d_mshr"]["collectors"][0]
        collector["events_all"].append([7, 1])
        data["checksum"] = _payload_checksum(data["job"], data["result"])
        entry.write_text(json.dumps(data, sort_keys=True))
        with pytest.warns(RuntimeWarning, match="undecodable result"):
            assert cache.get(spec) is None
        assert cache.quarantined == 1

    def test_truncation_quarantined(self, tmp_path):
        cache, spec, entry = self._seed_entry(tmp_path)
        text = entry.read_text()
        entry.write_text(text[:len(text) // 2])
        with pytest.warns(RuntimeWarning, match="quarantined"):
            assert cache.get(spec) is None
        assert cache.quarantined == 1

    def test_pre_integrity_format_quarantined(self, tmp_path):
        cache, spec, entry = self._seed_entry(tmp_path)
        data = json.loads(entry.read_text())
        del data["checksum"]
        data["format"] = 1
        entry.write_text(json.dumps(data))
        with pytest.warns(RuntimeWarning, match="missing checksum"):
            assert cache.get(spec) is None
        assert cache.quarantine_entries() == 1

    def test_put_is_best_effort_on_unwritable_directory(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")          # a *file* where the dir should be
        cache = ResultCache(blocker / "cache")
        spec = tiny_spec()
        result = spec.run()
        with pytest.warns(RuntimeWarning, match="cache write failed"):
            assert cache.put(spec, result) is False
        assert cache.write_errors == 1
        assert "1 write errors" in cache.format_stats()
        # The sweep that computed the result keeps going regardless.
        with pytest.warns(RuntimeWarning, match="cache write failed"):
            report = run_many([spec], jobs=1, cache=cache)
        assert not report.failures
        assert report.results[0].dump() == result.dump()

    def test_orphan_tmp_files_swept_and_purged(self, tmp_path):
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        stale = cache_dir / "killed-writer.tmp"
        stale.write_text("partial")
        os.utime(stale, (1, 1))         # ancient: well past the TTL
        fresh = cache_dir / "live-writer.tmp"
        fresh.write_text("partial")
        cache = ResultCache(cache_dir)
        cache.put(tiny_spec(), tiny_spec().run())  # triggers the sweep
        assert not stale.exists()       # stale orphan removed
        assert fresh.exists()           # in-flight writer left alone
        assert cache.purge() == 2       # entry + fresh tmp
        assert not any(cache_dir.glob("*.tmp"))

    def test_injected_corruption_quarantined_on_next_read(
            self, tmp_path, monkeypatch):
        spec = tiny_spec()
        fingerprint = spec.fingerprint()
        fault_seed = find_fault_seed(
            lambda s: FaultPlan(corrupt=0.5, seed=s).roll(
                "corrupt", fingerprint))
        monkeypatch.setenv("REPRO_FAULTS",
                           f"corrupt:0.5,seed:{fault_seed}")
        cache = ResultCache(tmp_path)
        first = run_many([spec], jobs=1, cache=cache)
        assert len(cache) == 1          # corrupt bytes landed, undetected
        with pytest.warns(RuntimeWarning, match="quarantined"):
            second = run_many([spec], jobs=1, cache=cache)
        assert second.cache_hits == 0   # detected, quarantined, re-run
        assert cache.quarantined == 1
        assert cache.quarantine_entries() == 1
        assert second.results[0].dump() == first.results[0].dump()


# ---------------------------------------------------------------------------
# The streamed cache put: same bytes as the one-string encoding
# ---------------------------------------------------------------------------

def _entry_text(job, result):
    """The entry as the one-string encoding spelled it: the canonical
    payload with its checksum and format spliced in front."""
    canonical = json.dumps({"job": job, "result": result}, sort_keys=True,
                           separators=(",", ":"))
    checksum = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    head = f'{{"checksum":"{checksum}","format":2,'
    return canonical.replace("{", head, 1)


def _add_intervals(result, n):
    """Extra MSHR intervals on one L1D and one L2 collector, half of
    them reads."""
    for i in range(n):
        start = 10**7 + 1000 * i
        result.l1d_mshr[0].add_interval(start, start + 500, i % 2 == 0)
        result.l2_mshr[1].add_interval(start, start + 700, i % 3 == 0)


def _mshr_events(result):
    return sum(len(c._all) + len(c._read)
               for group in (result.l1d_mshr, result.l2_mshr)
               for c in group.collectors)


STREAMED_POINTS = {
    "rc-oltp": dict(),
    "empty-logs": dict(perfect_dcache=True),
    "smt": dict(processor=dataclasses.replace(
        default_system().processor, smt_contexts=2)),
    "sc": dict(consistency=ConsistencyModel.SC),
}


class TestStreamedEntry:
    @pytest.mark.parametrize("point", sorted(STREAMED_POINTS))
    def test_stored_bytes_equal_the_one_string_encoding(
            self, point, tmp_path, monkeypatch):
        # Three intervals per chunk, so even a tiny run's logs cross
        # several chunk boundaries.
        monkeypatch.setattr(mshr, "_CHUNK_INTERVALS", 3)
        spec = tiny_spec(**STREAMED_POINTS[point])
        result = spec.run()
        if point == "empty-logs":
            assert all(not c._all and not c._read
                       for c in result.l1d_mshr.collectors)
        else:
            assert max(len(c._all) for c in result.l1d_mshr.collectors) \
                > 3 * 2 * 3
        cache = ResultCache(tmp_path)
        assert cache.put(spec, result)
        stored = cache._entry_path(spec.fingerprint()).read_bytes()
        assert stored == (_entry_text(keyed_job(spec.to_dict()),
                                      result.to_dict())
                          + "\n").encode("ascii")
        assert cache.get(spec).to_dict() == result.to_dict()

    def test_default_chunks_of_a_long_log(self, tmp_path):
        spec = tiny_spec()
        result = spec.run()
        _add_intervals(result, 3 * mshr._CHUNK_INTERVALS + 7)
        text = "".join(result.to_json_chunks())
        assert text == json.dumps(result.to_dict(), sort_keys=True,
                                  separators=(",", ":"))
        cache = ResultCache(tmp_path)
        cache.put(spec, result)
        stored = cache._entry_path(spec.fingerprint()).read_text()
        assert stored == _entry_text(keyed_job(spec.to_dict()),
                                     result.to_dict()) + "\n"

    def test_put_peak_memory_per_mshr_event(self, tmp_path):
        # The one-string put built a two-element list per event and
        # held several whole-entry strings: about 165 B per event.
        spec = tiny_spec()
        result = spec.run()
        _add_intervals(result, 10_000)
        events = _mshr_events(result)
        cache = ResultCache(tmp_path)
        cache.put(spec, result)         # imports and first-write state
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            cache.put(spec, result)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak / events <= 40, f"{peak / events:.0f} B per event"

    def test_chunk_corruption_matches_text_corruption(self):
        spec = tiny_spec()
        result = spec.run()
        text = _entry_text(spec.to_dict(), result.to_dict())
        chunks = _entry_chunks(spec.to_dict(), result)
        assert len(chunks) > 3
        modes = set()
        for seed in range(12):
            plan = FaultPlan(corrupt=1.0, seed=seed)
            fingerprint = f"{seed:064x}"
            mangled = plan.corrupt_text(text, fingerprint)
            modes.add(len(mangled) < len(text))
            assert b"".join(plan.corrupt_chunks(chunks, fingerprint)) \
                == mangled.encode("ascii")
        assert modes == {True, False}   # both truncation and flips
        assert FaultPlan(corrupt=0.0).corrupt_chunks(
            chunks, "a" * 64) is chunks

    def test_torn_chunks_cut_where_torn_bytes_do(self, tmp_path):
        chunks = [b'{"a":', b"0123456789" * 7, b"", b"[1,2,3]}", b"\n"]
        whole = b"".join(chunks)
        for seed in range(8):
            plan = FaultPlan.parse(f"torn:1.0,seed:{seed}")
            written = []
            for name, data in (("chunks", chunks), ("bytes", whole)):
                atomicio.reset_state()
                target = tmp_path / f"{name}-{seed}"
                assert atomicio.atomic_write_bytes(
                    target, data, category="cache", plan=plan)
                written.append(target.read_bytes())
            assert written[0] == written[1] == \
                whole[:plan.torn_offset(len(whole), "cache", 0)]


# ---------------------------------------------------------------------------
# Sweep manifest: persistence, recovery, resume
# ---------------------------------------------------------------------------

class TestSweepManifest:
    def test_round_trip_through_disk(self, tmp_path):
        path = tmp_path / MANIFEST_NAME
        manifest = SweepManifest(path)
        manifest.begin(["f1", "f2", "f3"], ["a", "b", "c"])
        manifest.mark_running("f1")
        manifest.mark_done("f1")
        manifest.mark_running("f2")
        manifest.mark_retrying("f2", "InjectedCrash: boom")
        manifest.mark_running("f2")
        manifest.mark_failed("f2", "InjectedCrash: boom")
        reloaded = SweepManifest(path)
        assert len(reloaded) == 3 and reloaded.load_error is None
        assert reloaded.get("f1").complete
        assert reloaded.get("f2").status == "failed"
        assert reloaded.get("f2").attempts == 2
        assert "boom" in reloaded.get("f2").error
        assert reloaded.get("f3").status == "pending"
        assert reloaded.counts() == {"done": 1, "failed": 1, "pending": 1}
        assert reloaded.total_attempts() == 3
        assert "1/3 done" in reloaded.format_summary()
        assert "failed" in reloaded.format_status()

    def test_no_worker_section_for_local_sweeps(self, tmp_path):
        path = tmp_path / MANIFEST_NAME
        manifest = SweepManifest(path)
        manifest.begin(["f1", "f2", "f3"], ["a", "b", "c"])
        manifest.mark_running("f1")
        manifest.mark_done("f1")
        manifest.mark_running("f2")
        manifest.mark_failed("f2", "InjectedCrash: boom")
        assert "workers:" not in manifest.format_status()
        raw = json.loads(path.read_text())
        assert "workers" not in raw

        # A manifest from an older checkout carries a worker-health
        # section: it still loads and resumes, and the next flush
        # drops the section.
        raw["workers"] = {"w1": {"status": "lost", "jobs_done": 2}}
        path.write_text(json.dumps(raw))
        old = SweepManifest(path)
        assert old.load_error is None
        assert old.counts() == {"done": 1, "failed": 1, "pending": 1}
        old.begin(["f1", "f2", "f3"], ["a", "b", "c"], resume=True)
        assert old.get("f1").complete
        assert old.get("f2").status == "pending"
        assert "workers" not in json.loads(path.read_text())

    def test_torn_manifest_recovers_without_wedging(self, tmp_path):
        path = tmp_path / MANIFEST_NAME
        path.write_text('{"format": 1, "jobs": [{"fing')  # torn write
        manifest = SweepManifest(path)
        assert manifest.load_error is not None
        assert len(manifest) == 0
        manifest.begin(["f1"], ["a"])   # still fully usable
        assert SweepManifest(path).get("f1") is not None

    def test_resume_keeps_done_and_rearms_incomplete(self, tmp_path):
        manifest = SweepManifest(tmp_path / MANIFEST_NAME)
        manifest.begin(["f1", "f2"], ["a", "b"])
        manifest.mark_running("f1")
        manifest.mark_done("f1")
        manifest.mark_running("f2")
        manifest.mark_retrying("f2", "err")
        manifest.begin(["f1", "f2"], ["a", "b"], resume=True)
        assert manifest.get("f1").status == "done"
        assert manifest.get("f1").attempts == 1    # history preserved
        assert manifest.get("f2").status == "pending"
        assert manifest.get("f2").attempts == 1    # attempts accumulate
        # Without resume the same call resets everything.
        manifest.begin(["f1", "f2"], ["a", "b"], resume=False)
        assert manifest.get("f1").status == "pending"
        assert manifest.total_attempts() == 0

    def test_interrupted_sweep_resumes_only_the_remainder(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        manifest = SweepManifest(cache.path / MANIFEST_NAME)
        specs = [tiny_spec(seed=s) for s in range(6)]
        first = run_many(specs[:4], jobs=1, cache=cache,
                         manifest=manifest)
        assert not first.failures
        attempts_before = {spec.fingerprint():
                           manifest.get(spec.fingerprint()).attempts
                           for spec in specs[:4]}
        # The manifest as a checkout with mid-job checkpoints wrote it:
        # every attempt-log entry carries a nonzero resume offset.
        path = cache.path / MANIFEST_NAME
        raw = json.loads(path.read_text())
        for job in raw["jobs"]:
            for entry in job["attempt_log"]:
                entry["start_offset"] = 80001
        path.write_text(json.dumps(raw))
        # A "new process" after the kill: reload the manifest from disk.
        reloaded = SweepManifest(path)
        assert len(reloaded) == 4 and reloaded.load_error is None
        assert "resumed@" not in reloaded.format_status()
        second = run_many(specs, jobs=1, cache=cache, manifest=reloaded,
                          resume=True)
        assert not second.failures
        assert second.cache_hits == 4   # completed jobs did not re-run
        assert [r.to_dict() for r in second.results[:4]] == \
            [r.to_dict() for r in first.results]
        assert "start_offset" not in path.read_text()
        for spec in specs[:4]:
            record = reloaded.get(spec.fingerprint())
            assert record.status == "done" and record.cached
            assert record.attempts == \
                attempts_before[spec.fingerprint()]
        assert reloaded.counts() == {"done": 6}
        # A third resume run is a pure no-op: zero new attempts.
        total_attempts = reloaded.total_attempts()
        third = run_many(specs, jobs=1, cache=cache, manifest=reloaded,
                         resume=True)
        assert third.cache_hits == 6
        assert reloaded.total_attempts() == total_attempts

    def test_mixed_dispatch_resume_one_outcome_per_job(self, tmp_path):
        """A sweep started on the pool, resumed on the pool, and
        finished serially lands exactly one completed outcome per job
        with no duplicate attempts."""
        specs = [tiny_spec(seed=s) for s in range(6)]
        reference = run_many(specs, jobs=1, cache=None)
        cache = ResultCache(tmp_path / "cache")

        first = run_many(specs[:3], jobs=2, cache=cache,
                         manifest=SweepManifest(cache.path / MANIFEST_NAME))
        assert not first.failures and first.jobs == 2

        second = run_many(specs[:5], jobs=2, cache=cache,
                          manifest=SweepManifest(cache.path / MANIFEST_NAME),
                          resume=True)
        assert not second.failures and second.jobs == 2
        assert second.cache_hits == 3   # first-phase results reused

        final = SweepManifest(cache.path / MANIFEST_NAME)
        third = run_many(specs, jobs=1, cache=cache, manifest=final,
                         resume=True)
        assert not third.failures
        assert third.cache_hits == 5
        assert [r.to_dict() for r in third.results] == \
            [r.to_dict() for r in reference.results]

        assert final.counts() == {"done": 6}
        for spec in specs:
            record = final.get(spec.fingerprint())
            assert record.status == "done"
            assert record.attempts == 1, \
                f"job {spec.fingerprint()[:12]} ran {record.attempts}x"
            logged = [entry["attempt"] for entry in record.attempt_log]
            assert len(logged) == len(set(logged)) == 1, \
                "duplicate attempt entries across executors"


# ---------------------------------------------------------------------------
# Downstream consumers: figures render gaps, seed sweeps keep going
# ---------------------------------------------------------------------------

def _doctor_first_outcome(monkeypatch):
    """Make figure-level run_many calls report their first job failed."""
    real_run_many = F.run_many

    def doctored(specs, **kwargs):
        report = real_run_many(specs, jobs=1, cache=None)
        first = report.outcomes[0]
        report.outcomes[0] = executor.JobOutcome(
            first.spec, None, first.wall_time, attempts=3,
            error="InjectedCrash: injected crash")
        return report

    monkeypatch.setattr(F, "run_many", doctored)


class TestDownstreamGaps:
    def test_figure_renders_explicit_gap_for_failed_config(
            self, monkeypatch):
        _doctor_first_outcome(monkeypatch)
        out = F.run_figure("5 oltp", **TINY)
        assert list(out.failed) == ["uniprocessor"]
        assert "InjectedCrash" in out.failed["uniprocessor"]
        assert [row.label for row in out.rows] == ["multiprocessor"]
        assert "FAILED" in out.format_table()

    def test_sweep_normalizes_to_first_surviving_config(
            self, monkeypatch):
        _doctor_first_outcome(monkeypatch)
        out = F.run_figure("4", **TINY)
        assert len(out.failed) == 1
        assert out.rows and out.rows[0].normalized == 1.0
        assert out.rows[0].label not in out.failed

    def test_cli_prints_mshr_figure_with_a_failed_bar(
            self, monkeypatch, capsys):
        # A failed bar is a gap, not a crash: the occupancy rows of the
        # surviving 8-MSHR bar still print, and a report would go on.
        import repro.cli as cli
        monkeypatch.setitem(F.SIZES, "quick", {"oltp": (600, 400),
                                               "dss": (600, 400)})
        _doctor_first_outcome(monkeypatch)
        assert cli.main(["--quick", "--no-cache", "figure", "2c"]) == 0
        out = capsys.readouterr().out
        assert "mshr-1                   FAILED: InjectedCrash" in out
        for name in ("l1d_occupancy_all", "l1d_occupancy_reads",
                     "l2_occupancy_all", "l2_occupancy_reads"):
            assert f"  {name}: >=1:" in out

    def test_characterization_table_maps_failure_to_none(
            self, monkeypatch):
        _doctor_first_outcome(monkeypatch)
        table = F.characterization_table(**TINY)
        assert table["oltp"] is None
        assert table["dss"] is not None and "ipc" in table["dss"]

    def test_seed_sweep_reports_partial_failures(self, monkeypatch):
        params = default_system()
        specs = [JobSpec(params, WorkloadSpec("oltp"), seed=s, **TINY)
                 for s in (0, 1)]
        fp0, fp1 = (spec.fingerprint() for spec in specs)
        fault_seed = find_fault_seed(
            lambda s: FaultPlan(crash=0.5, seed=s).roll("crash", fp0, 0)
            and not FaultPlan(crash=0.5, seed=s).roll("crash", fp1, 0))
        monkeypatch.setenv("REPRO_FAULTS", f"crash:0.5,seed:{fault_seed}")
        monkeypatch.setattr(repro.run, "_policy",
                            RetryPolicy(retries=0, **FAST_BACKOFF))
        sweep = seed_sweep(params, oltp_workload, seeds=(0, 1),
                           label="partial", **TINY)
        assert sweep.failures == 1 and len(sweep.cycles) == 1
        assert "1 seed(s) FAILED" in str(sweep)

    def test_seed_sweep_raises_when_every_seed_fails(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "crash:1,seed:0")
        monkeypatch.setattr(repro.run, "_policy",
                            RetryPolicy(retries=0, **FAST_BACKOFF))
        with pytest.raises(RuntimeError, match="every seed failed"):
            seed_sweep(default_system(), oltp_workload, seeds=(0, 1),
                       label="doomed", **TINY)


# ---------------------------------------------------------------------------
# Acceptance: fault-injected sweeps reproduce fault-free results
# ---------------------------------------------------------------------------

class TestAcceptance:
    def test_fault_free_run_with_resilience_layer_is_byte_identical(
            self, tmp_path):
        specs = [tiny_spec(seed=s) for s in (0, 1)]
        plain = run_many(specs, jobs=1, cache=None,
                         policy=RetryPolicy(retries=0))
        cache = ResultCache(tmp_path / "cache")
        manifest = SweepManifest(cache.path / MANIFEST_NAME)
        layered = run_many(specs, jobs=1, cache=cache, manifest=manifest,
                           policy=RetryPolicy(retries=3, job_timeout=60))
        assert [r.dump() for r in layered.results] == \
            [r.dump() for r in plain.results]

    def test_twenty_job_sweep_under_faults_matches_fault_free(
            self, tmp_path, monkeypatch):
        specs = [tiny_spec(seed=s) for s in range(10)] + \
                [tiny_spec(seed=s, kind="dss") for s in range(10)]
        baseline = run_many(specs, jobs=1, cache=None)
        base_dumps = [r.dump() for r in baseline.results]
        fingerprints = [spec.fingerprint() for spec in specs]
        retries = 5

        def exercised_but_survivable(seed):
            plan = FaultPlan(crash=0.2, hang=0.1, corrupt=0.1, seed=seed)
            clean = all(
                any(not plan.roll("crash", fp, a)
                    and not plan.roll("hang", fp, a)
                    for a in range(retries + 1))
                for fp in fingerprints)
            return (clean
                    and any(plan.roll("crash", fp, 0)
                            for fp in fingerprints)
                    and any(plan.roll("hang", fp, 0)
                            for fp in fingerprints)
                    and any(plan.roll("corrupt", fp)
                            for fp in fingerprints))

        fault_seed = find_fault_seed(exercised_but_survivable)
        monkeypatch.setenv(
            "REPRO_FAULTS",
            f"crash:0.2,hang:0.1,corrupt:0.1,hang_s:6,seed:{fault_seed}")
        cache = ResultCache(tmp_path / "cache")
        manifest = SweepManifest(cache.path / MANIFEST_NAME)
        # Injected hangs (6s) trip the 2s deadline; clean attempts stay
        # far inside it even with two workers contending on one core.
        policy = RetryPolicy(retries=retries, job_timeout=2.0,
                             **FAST_BACKOFF)
        report = run_many(specs, jobs=2, cache=cache, manifest=manifest,
                          policy=policy)
        assert not report.failures
        assert report.retried >= 1      # crashes/hangs actually fired
        assert [r.dump() for r in report.results] == base_dumps
        assert manifest.counts() == {"done": len(specs)}

        # Second pass over the same cache: corrupt entries are detected,
        # quarantined, re-run -- and the results still match.
        with pytest.warns(RuntimeWarning, match="quarantined"):
            again = run_many(specs, jobs=1, cache=cache,
                             manifest=manifest, policy=policy,
                             resume=True)
        assert not again.failures
        assert cache.quarantined >= 1
        assert cache.stats()["quarantine_entries"] >= 1
        assert again.cache_hits >= 1    # uncorrupted entries served
        assert again.cache_hits < len(specs)
        assert [r.dump() for r in again.results] == base_dumps
