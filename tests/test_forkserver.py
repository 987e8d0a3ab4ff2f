"""Tests for the fork-server pool and batched dispatch
(:mod:`repro.run.forkserver`).

Chunk payloads are exercised on real JobSpec dicts, pool persistence
across calls is checked directly, and the headline guarantee -- a
fork-server sweep under ``REPRO_FAULTS`` produces byte-identical
results to the in-process runner -- is asserted end to end.
"""

import dataclasses
import os
import subprocess
import sys

import pytest

import repro
import repro.run
from repro.params import Tools, default_system
from repro.run import DEFAULT_POLICY, JobSpec, RetryPolicy, WorkloadSpec, \
    run_many
from repro.run import forkserver, triage
from repro.run.faults import InjectedWriterDeath

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


# The watchdog trips on this job: its two nodes stop retiring for more
# than 40 cycles long before the run ends.
WEDGE = JobSpec(default_system(n_nodes=2), WorkloadSpec("oltp"),
                instructions=2400, warmup=1200,
                tools=Tools(watchdog_node_cycles=40))


class TestToolsReachTheJob:
    """A job's ``Tools`` (watchdog, sanitizer) travel in its job dict,
    outside its fingerprint, so they arm under ``run_many`` too."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_watchdog_fails_the_job_under_run_many(self, jobs, tmp_path):
        specs = [WEDGE, dataclasses.replace(WEDGE, seed=1)][:jobs]
        report = run_many(specs, jobs=jobs,
                          cache=repro.run.ResultCache(tmp_path),
                          policy=RetryPolicy(retries=0))
        if report.fell_back_to_serial:
            pytest.skip("no usable multiprocessing start method")
        outcome = report.outcomes[0]
        assert outcome.failed
        assert outcome.error.startswith("WedgeError")
        bundle = triage.load_bundle(outcome.bundle)
        assert bundle["job"]["tools"] == {"check": False,
                                          "watchdog_cycles": 0,
                                          "watchdog_node_cycles": 40}
        assert bundle["wedge"] is not None
        assert bundle["job"] == WEDGE.to_dict()

    def test_sanitized_job_keeps_result_and_fingerprint(
            self, tmp_path, monkeypatch):
        from repro.check import invariants
        armed = []
        real_init = invariants.InvariantChecker.__init__

        def spy(self, machine):
            armed.append(machine)
            real_init(self, machine)

        monkeypatch.setattr(invariants.InvariantChecker, "__init__", spy)
        plain = _spec()
        checked = dataclasses.replace(plain, tools=Tools(check=True))
        assert checked.fingerprint() == plain.fingerprint()
        runs = []
        for name, spec in (("plain", plain), ("checked", checked)):
            cache = repro.run.ResultCache(tmp_path / name)
            report = run_many([spec], jobs=1, cache=cache)
            assert not report.failures
            runs.append((report.results[0].to_dict(),
                         cache._entry_path(spec.fingerprint()).read_bytes()))
            assert len(armed) == (name == "checked")
        armed.clear()
        assert runs[0] == runs[1]

    def test_job_dict_carries_tools_outside_the_fingerprint(self):
        shipped = WEDGE.to_dict()
        assert shipped["tools"] == {"check": False, "watchdog_cycles": 0,
                                    "watchdog_node_cycles": 40}
        assert JobSpec.from_dict(shipped) == WEDGE
        plain = dataclasses.replace(WEDGE, tools=Tools())
        assert WEDGE.fingerprint() == plain.fingerprint()
        del shipped["tools"]
        assert JobSpec.from_dict(shipped) == plain


class TestChunkWriterDeath:
    def test_death_charges_no_attempt_to_the_rest_of_its_chunk(
            self, tmp_path, monkeypatch):
        # Seventeen jobs on two workers travel in chunks of three:
        # seeds 3, 4, 5 share one.  The worker "dies" writing seed 4's
        # triage bundle, after seed 3 completed and before seed 5 ran.
        if forkserver.pick_method() != "fork":
            pytest.skip("the patched attempt reaches workers only by fork")
        canned = _spec().run()

        def attempt(spec, attempt=0, **kwargs):
            if spec.seed == 4 and attempt == 0:
                raise InjectedWriterDeath(
                    "injected crash before rename (triage write #0)")
            return canned

        specs = [_spec(seed=s) for s in range(17)]
        manifest = repro.run.SweepManifest(tmp_path / "manifest.json")
        forkserver.recycle_pool()
        monkeypatch.setattr(triage, "run_attempt", attempt)
        try:
            report = run_many(specs, jobs=2,
                              cache=repro.run.ResultCache(tmp_path),
                              policy=FAST_POLICY, manifest=manifest)
        finally:
            forkserver.recycle_pool()
        if report.fell_back_to_serial:
            pytest.skip("no usable multiprocessing start method")
        assert not report.failures
        assert [o.attempts for o in report.outcomes] == \
            [1] * 4 + [2] + [1] * 12
        logs = [manifest.records[spec.fingerprint()].attempt_log
                for spec in specs]
        assert [len(log) for log in logs] == [1] * 4 + [2] + [1] * 12
        assert logs[4][0]["error"].startswith("InjectedWriterDeath")


def test_in_process_runner_leaves_concurrent_futures_unimported():
    code = (
        "import sys\n"
        "from repro.params import default_system\n"
        "from repro.run import JobSpec, WorkloadSpec, run_many\n"
        "spec = JobSpec(default_system(n_nodes=2), WorkloadSpec('oltp'),\n"
        "               instructions=400, warmup=100)\n"
        "assert not run_many([spec], jobs=1).failures\n"
        "print('concurrent.futures' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("REPRO_FAULTS", None)
    env.pop("REPRO_JOBS", None)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
