"""Tests for the fork-server pool and batched dispatch
(:mod:`repro.run.forkserver`).

Chunk payloads are exercised on real JobSpec dicts, pool persistence
across calls is checked directly, and the headline guarantee -- a
fork-server sweep under ``REPRO_FAULTS`` produces byte-identical
results to the in-process runner -- is asserted end to end.
"""

import os

import pytest

import repro.run
from repro.params import default_system
from repro.run import DEFAULT_POLICY, JobSpec, RetryPolicy, WorkloadSpec, \
    run_many
from repro.run import forkserver

TINY = dict(instructions=1200, warmup=400)
FAST_POLICY = RetryPolicy(retries=4, backoff_base=0.001,
                          backoff_cap=0.01)


@pytest.fixture(autouse=True)
def clean_runner(monkeypatch):
    monkeypatch.setattr(repro.run, "_jobs", 1)
    monkeypatch.setattr(repro.run, "_cache", None)
    monkeypatch.setattr(repro.run, "_manifest", None)
    monkeypatch.setattr(repro.run, "_policy", DEFAULT_POLICY)
    monkeypatch.setattr(repro.run, "_resume", False)
    monkeypatch.delenv("REPRO_FAULTS", raising=False)


def _spec(seed=0, kind="oltp", **sizes):
    sizes = {**TINY, **sizes}
    return JobSpec(default_system(), WorkloadSpec(kind), seed=seed,
                   **sizes)


class TestBatchPayload:
    def test_payload_ships_faults_string(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "crash:0.5,seed:7")
        spec = _spec()
        payload = forkserver.make_batch_payload([(spec.to_dict(), 1)])
        assert payload["faults"] == "crash:0.5,seed:7"
        assert payload["jobs"] == [{"job": spec.to_dict(), "attempt": 1}]

    def test_execute_batch_runs_jobs(self):
        spec_a, spec_b = _spec(seed=0), _spec(seed=1)
        payload = forkserver.make_batch_payload(
            [(spec_a.to_dict(), 1), (spec_b.to_dict(), 1)])
        out = forkserver._execute_batch(payload)
        assert [entry["ok"] for entry in out] == [True, True]
        assert out[0]["result"].to_dict() == spec_a.run().to_dict()
        assert out[1]["result"].to_dict() == spec_b.run().to_dict()

    def test_execute_batch_isolates_per_job_errors(self):
        good = _spec(seed=0)
        bad = good.to_dict()
        bad["workload"]["kind"] = "no-such-workload"
        payload = forkserver.make_batch_payload(
            [(bad, 1), (good.to_dict(), 1)])
        out = forkserver._execute_batch(payload)
        assert out[0]["ok"] is False and out[0]["error"]
        assert out[1]["ok"] is True


class TestPoolLifecycle:
    def test_pool_persists_across_calls(self):
        pool = forkserver.get_pool(2)
        if pool is None:
            pytest.skip("no usable multiprocessing start method")
        try:
            assert forkserver.get_pool(2) is pool
        finally:
            forkserver.recycle_pool()

    def test_worker_count_change_recycles(self):
        pool = forkserver.get_pool(2)
        if pool is None:
            pytest.skip("no usable multiprocessing start method")
        try:
            other = forkserver.get_pool(3)
            assert other is not pool
        finally:
            forkserver.recycle_pool()

    def test_recycle_gives_fresh_pool(self):
        pool = forkserver.get_pool(2)
        if pool is None:
            pytest.skip("no usable multiprocessing start method")
        forkserver.recycle_pool()
        fresh = forkserver.get_pool(2)
        try:
            assert fresh is not pool
        finally:
            forkserver.recycle_pool()

    def test_small_sweeps_reuse_the_pool(self):
        # The pool keeps its configured size: a sweep with fewer pending
        # jobs than workers uses fewer slots instead of re-forking it.
        forkserver.recycle_pool()
        try:
            run_many([_spec(seed=s) for s in (0, 1)], jobs=3)
            pool = forkserver._pool
            if pool is None:
                pytest.skip("no usable multiprocessing start method")
            report = run_many([_spec(seed=s) for s in (2, 3, 4)], jobs=3)
            assert not report.fell_back_to_serial
            assert forkserver._pool is pool
        finally:
            forkserver.recycle_pool()


class TestPoolVsSerial:
    def test_pool_sweep_matches_serial(self, tmp_path):
        specs = [_spec(seed=s) for s in (0, 1, 2)]
        serial = run_many(specs, jobs=1)
        pooled = run_many(specs, jobs=2)
        assert [r.to_dict() for r in pooled.results] == \
            [r.to_dict() for r in serial.results]

    def test_pool_with_faults_matches_serial(self, monkeypatch,
                                             tmp_path):
        """Fault-injected fork-server run is byte-identical to serial.

        The faults string rides inside the batch payload, so persistent
        workers honour the value set *after* the pool was first forked.
        """
        forkserver.recycle_pool()
        specs = [_spec(seed=s) for s in range(4)]
        baseline = run_many(specs, jobs=1)
        monkeypatch.setenv("REPRO_FAULTS", "crash:0.3,seed:11")
        faulty_serial = run_many(specs, jobs=1, policy=FAST_POLICY)
        faulty_pool = run_many(specs, jobs=2, policy=FAST_POLICY)
        assert [r.to_dict() for r in faulty_serial.results] == \
            [r.to_dict() for r in baseline.results]
        assert [r.to_dict() for r in faulty_pool.results] == \
            [r.to_dict() for r in baseline.results]

    def test_shared_workload_sweep_runs_only_in_workers(
            self, monkeypatch, tmp_path):
        """Jobs sharing a workload and seed are ordinary pool jobs: the
        parent runs none of their attempts (no job records its streams
        in process for the others to replay) and leaves no trace files
        beside the cache, and the results match a serial run."""
        import dataclasses
        base = default_system()
        specs = []
        for window in (16, 64):
            params = base.replace(processor=dataclasses.replace(
                base.processor, window_size=window))
            specs.append(JobSpec(params, WorkloadSpec("oltp"), seed=0,
                                 **TINY))
        serial = run_many(specs, jobs=1)

        parent = os.getpid()
        in_parent = []
        real_run_entry = forkserver.run_entry

        def spy(job, attempt, *args, **kwargs):
            if os.getpid() == parent:
                in_parent.append(job["seed"])
            return real_run_entry(job, attempt, *args, **kwargs)

        monkeypatch.setattr(forkserver, "run_entry", spy)
        cache = repro.run.ResultCache(tmp_path / "cache")
        pooled = run_many(specs, jobs=2, cache=cache)
        if pooled.fell_back_to_serial:
            pytest.skip("no usable multiprocessing start method")
        assert in_parent == []
        assert not (tmp_path / "cache" / "traces").exists()
        assert [r.to_dict() for r in pooled.results] == \
            [r.to_dict() for r in serial.results]
