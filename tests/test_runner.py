"""Tests for the parallel experiment runner and persistent result cache.

Covers the determinism guarantees the runner depends on (serial reruns
and parallel fan-out must be bit-identical), the JobSpec fingerprint,
SimulationResult round-trip serialization, and the on-disk cache.
"""

import dataclasses
import hashlib
import json

import pytest

import repro.run
from repro.core.experiment import SimulationResult, run_simulation
from repro.core.sweep import seed_sweep
from repro.core.workloads import dss_workload, oltp_workload
from repro.params import ConsistencyImpl, ConsistencyModel, Tools, \
    default_system
from repro.run import (MANIFEST_NAME, JobSpec, ResultCache, RunReport,
                       SweepManifest, WorkloadSpec, run_many)
from repro.run import jobs as jobs_mod

TINY = dict(instructions=2500, warmup=2500)


def tiny_spec(seed=0, kind="oltp", **params_changes):
    params = default_system(**params_changes)
    return JobSpec(params, WorkloadSpec(kind), seed=seed, **TINY)


class TestWorkloadSpec:
    def test_build_matches_direct_factory(self):
        wl = WorkloadSpec("oltp").build()
        direct = oltp_workload()
        assert wl.name == direct.name
        assert wl.processes_per_cpu == direct.processes_per_cpu

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            WorkloadSpec("tpc-z")

    def test_from_factory(self):
        assert WorkloadSpec.from_factory(oltp_workload).kind == "oltp"
        assert WorkloadSpec.from_factory(dss_workload).kind == "dss"
        assert WorkloadSpec.from_factory(lambda: None) is None

    def test_hints_round_trip(self):
        spec = WorkloadSpec("oltp", hints_prefetch=True, hints_flush=True,
                            hints_pcs=(3, 7))
        rebuilt = WorkloadSpec.from_dict(spec.to_dict())
        assert rebuilt == spec
        assert rebuilt.hints.prefetch and rebuilt.hints.flush
        assert rebuilt.hints.pc_filter == {3, 7}

    def test_dss_rejects_hints(self):
        spec = WorkloadSpec("dss", hints_flush=True)
        with pytest.raises(ValueError):
            spec.build()


class TestJobSpec:
    def test_fingerprint_stable_and_distinct(self):
        a, b = tiny_spec(seed=0), tiny_spec(seed=0)
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != tiny_spec(seed=1).fingerprint()
        assert a.fingerprint() != tiny_spec(kind="dss").fingerprint()
        wider = tiny_spec()
        wider = dataclasses.replace(wider, instructions=3000)
        assert a.fingerprint() != wider.fingerprint()

    def test_fingerprint_depends_on_model_version(self, monkeypatch):
        before = tiny_spec().fingerprint()
        monkeypatch.setattr(jobs_mod, "MODEL_VERSION",
                            jobs_mod.MODEL_VERSION + 1)
        assert tiny_spec().fingerprint() != before

    def test_dict_round_trip(self):
        spec = tiny_spec(seed=3)
        again = JobSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert again == spec
        assert again.fingerprint() == spec.fingerprint()

    def test_to_dict_covers_every_field(self):
        """A field ``to_dict`` forgets would never reach a worker or the
        cache key."""
        spec = tiny_spec()
        for obj in (spec, spec.workload):
            assert set(obj.to_dict()) == \
                {f.name for f in dataclasses.fields(obj)}

    def test_every_field_round_trips(self):
        """Each field, moved off its default, survives the JSON trip
        jobs take to a worker (and, but for the tools, into the
        cache)."""
        workload = WorkloadSpec("oltp", scale=8, processes_per_cpu=3,
                                hints_prefetch=True, hints_flush=True,
                                hints_pcs=(0x40, 0x80))
        spec = JobSpec(default_system(n_nodes=2), workload,
                       instructions=1234, warmup=567, seed=9,
                       tools=Tools(check=True))
        defaults = JobSpec(default_system(), WorkloadSpec("oltp"))
        for obj, default in ((spec, defaults),
                             (workload, defaults.workload)):
            for f in dataclasses.fields(obj):
                if f.name != "kind":
                    assert getattr(obj, f.name) != \
                        getattr(default, f.name), f.name
        again = JobSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert again == spec
        assert again.fingerprint() == spec.fingerprint()

    def test_run_equals_run_simulation(self):
        spec = tiny_spec()
        direct = run_simulation(spec.params, oltp_workload(),
                                seed=0, **TINY)
        assert spec.run().cycles == direct.cycles


class TestResultRoundTrip:
    def test_byte_identical_through_json(self):
        result = tiny_spec().run()
        encoded = json.dumps(result.to_dict(), sort_keys=True)
        again = SimulationResult.from_dict(json.loads(encoded))
        assert again.dump() == result.dump()
        assert again.breakdown.cycles == result.breakdown.cycles
        assert again.breakdown.instructions == \
            result.breakdown.instructions
        assert again.coherence == result.coherence
        for reads_only in (False, True):
            assert again.l1d_mshr.distribution(reads_only) == \
                result.l1d_mshr.distribution(reads_only)
            assert again.l2_mshr.distribution(reads_only) == \
                result.l2_mshr.distribution(reads_only)
        assert again.params == result.params
        assert again.miss_rates == result.miss_rates


class TestDeterminism:
    """Two serial runs and one parallel run with the same seed produce
    identical cycles and breakdowns -- guards cache and executor
    correctness (results computed anywhere must be interchangeable)."""

    def test_serial_twice_and_parallel_once_identical(self):
        specs = [tiny_spec(seed=7), tiny_spec(seed=7, n_nodes=2),
                 tiny_spec(seed=7, kind="dss")]
        first = run_many(specs, jobs=1, cache=None)
        second = run_many(specs, jobs=1, cache=None)
        parallel = run_many(specs, jobs=2, cache=None)
        runs = [first.results, second.results, parallel.results]
        for results in runs[1:]:
            for got, want in zip(results, runs[0]):
                assert got.cycles == want.cycles
                assert got.breakdown.cycles == want.breakdown.cycles
                assert got.miss_rates == want.miss_rates
                assert got.dump() == want.dump()
        # The pool may legitimately fall back to serial in restricted
        # sandboxes; determinism must hold either way.
        assert len(parallel.results) == len(specs)


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        spec = tiny_spec()
        assert cache.get(spec, spec.fingerprint()) is None
        result = spec.run()
        cache.put(spec, result, spec.fingerprint())
        hit = cache.get(spec, spec.fingerprint())
        assert hit is not None and hit.dump() == result.dump()
        assert cache.hits == 1 and cache.misses == 1
        assert len(cache) == 1

    def test_corrupt_entry_is_a_miss_and_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = tiny_spec()
        cache.put(spec, spec.run(), spec.fingerprint())
        entry = next(cache.path.glob("*.json"))
        entry.write_text("{not json")
        with pytest.warns(RuntimeWarning, match="quarantined"):
            assert cache.get(spec, spec.fingerprint()) is None
        assert not entry.exists()
        assert (cache.quarantine_path / entry.name).exists()
        assert cache.stats()["quarantined"] == 1

    def test_purge(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = tiny_spec()
        cache.put(spec, spec.run(), spec.fingerprint())
        assert cache.purge() == 1
        assert len(cache) == 0
        assert "0 entries" in cache.format_stats()

    def test_run_many_integration(self, tmp_path):
        cache = ResultCache(tmp_path)
        specs = [tiny_spec(seed=s) for s in (0, 1)]
        cold = run_many(specs, jobs=1, cache=cache)
        warm = run_many(specs, jobs=1, cache=cache)
        assert cold.cache_hits == 0 and warm.cache_hits == 2
        assert warm.simulated_instructions == 0
        assert [r.dump() for r in warm.results] == \
            [r.dump() for r in cold.results]

    def test_model_version_invalidates(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        spec = tiny_spec()
        cache.put(spec, spec.run(), spec.fingerprint())
        monkeypatch.setattr(jobs_mod, "MODEL_VERSION",
                            jobs_mod.MODEL_VERSION + 1)
        assert cache.get(tiny_spec(), tiny_spec().fingerprint()) is None


def _rc(impl):
    """A tiny OLTP spec on the default RC machine with ``impl``."""
    return JobSpec(default_system(consistency_impl=impl), WorkloadSpec("oltp"),
                   **TINY)


def _without_params(result):
    data = result.to_dict()
    del data["params"]
    return data


class TestCanonicalKey:
    """Jobs whose machines differ only in fields the model never reads
    share one cache key, one entry and one simulation."""

    def test_canonical_resets_only_unread_fields(self):
        for model in ConsistencyModel:
            for impl in ConsistencyImpl:
                params = default_system(consistency=model,
                                        consistency_impl=impl)
                canonical = params.canonical()
                if model is ConsistencyModel.RC:
                    assert canonical == default_system(consistency=model)
                else:
                    assert canonical is params

    def test_rc_implementations_share_one_fingerprint(self):
        keys = {impl: _rc(impl).fingerprint() for impl in ConsistencyImpl}
        assert len(set(keys.values())) == 1
        sc = {JobSpec(default_system(consistency=ConsistencyModel.SC,
                                     consistency_impl=impl),
                      WorkloadSpec("oltp"), **TINY).fingerprint()
              for impl in ConsistencyImpl}
        assert len(sc) == 3
        # Canonical params leave every other key as it was.
        job = jobs_mod.keyed_job(_rc(ConsistencyImpl.STRAIGHTFORWARD)
                                 .to_dict())
        text = json.dumps({"model_version": jobs_mod.MODEL_VERSION,
                           "job": job}, sort_keys=True,
                          separators=(",", ":"))
        assert keys[ConsistencyImpl.STRAIGHTFORWARD] == \
            hashlib.sha256(text.encode("utf-8")).hexdigest()

    def test_hit_carries_the_requesting_params(self, tmp_path):
        cache = ResultCache(tmp_path)
        straight = _rc(ConsistencyImpl.STRAIGHTFORWARD)
        result = straight.run()
        cache.put(straight, result, straight.fingerprint())
        prefetch = _rc(ConsistencyImpl.PREFETCH)
        hit = cache.get(prefetch, prefetch.fingerprint())
        assert hit is not None and cache.hits == 1
        assert hit.params == prefetch.params
        assert _without_params(hit) == _without_params(result)
        assert len(cache) == 1

    def test_run_many_simulates_each_key_once(self, tmp_path, monkeypatch):
        from repro.run import forkserver
        calls = []
        original = forkserver.run_entry

        def counted(job, *args):
            calls.append(job)
            return original(job, *args)
        monkeypatch.setattr(forkserver, "run_entry", counted)
        sc = tiny_spec(consistency=ConsistencyModel.SC)
        specs = [_rc(ConsistencyImpl.PREFETCH), sc,
                 _rc(ConsistencyImpl.STRAIGHTFORWARD),
                 _rc(ConsistencyImpl.SPECULATIVE)]
        manifest = SweepManifest(tmp_path / MANIFEST_NAME)
        report = run_many(specs, jobs=1, cache=ResultCache(tmp_path),
                          manifest=manifest)
        assert len(calls) == 2
        assert [o.spec for o in report.outcomes] == specs
        assert [o.result.params for o in report.outcomes] == \
            [spec.params for spec in specs]
        assert [o.cached for o in report.outcomes] == \
            [False, False, True, True]
        assert [o.attempts for o in report.outcomes] == [1, 1, 0, 0]
        leader = _without_params(report.outcomes[0].result)
        for outcome in report.outcomes[2:]:
            assert _without_params(outcome.result) == leader
            assert outcome.wall_time == 0.0
        assert report.simulated_instructions == 2 * (TINY["instructions"]
                                                     + TINY["warmup"])
        record = manifest.get(specs[0].fingerprint())
        assert record.status == "done" and record.attempts == 1
        assert manifest.total_attempts() == 2 and len(manifest) == 2
        assert len(ResultCache(tmp_path)) == 2

    def test_run_many_fingerprints_each_spec_once(self, tmp_path,
                                                  monkeypatch):
        """The key is computed once per spec per call and handed to the
        cache, the manifest marks and the labels, cold and warm."""
        calls = []
        original = JobSpec.fingerprint

        def counted(spec):
            calls.append(spec)
            return original(spec)
        specs = [_rc(ConsistencyImpl.PREFETCH), tiny_spec(seed=1),
                 _rc(ConsistencyImpl.STRAIGHTFORWARD)]
        cache = ResultCache(tmp_path)
        manifest = SweepManifest(tmp_path / MANIFEST_NAME)
        monkeypatch.setattr(JobSpec, "fingerprint", counted)
        for cached in ([False, False, True], [True] * 3):
            calls.clear()
            report = run_many(specs, jobs=1, cache=cache,
                              manifest=manifest)
            assert [o.cached for o in report.outcomes] == cached
            assert calls == specs
        assert len(ResultCache(tmp_path)) == 2

    def test_refill_precedes_the_bookkeeping(self, tmp_path, monkeypatch):
        """A freed pool slot gets its next attempt before the parent puts
        the outcome that freed it.  (A single slot runs in process,
        where each job is recorded before the next one runs, so the
        pool here has two workers for three jobs.)"""
        from concurrent.futures import Future

        from repro.run import forkserver
        log = []

        class InlinePool:
            def submit(self, fn, job, *args):
                log.append(("submit", job["seed"]))
                future = Future()
                future.set_result(fn(job, *args))
                return future
        monkeypatch.setattr(forkserver, "get_pool",
                            lambda jobs: InlinePool())
        original_put = ResultCache.put

        def logged_put(self, spec, result, *key):
            log.append(("put", spec.seed))
            return original_put(self, spec, result, *key)
        monkeypatch.setattr(ResultCache, "put", logged_put)
        specs = [tiny_spec(seed=s) for s in range(3)]
        report = run_many(specs, jobs=2, cache=ResultCache(tmp_path))
        assert not report.failures and not report.fell_back_to_serial
        assert log.index(("submit", 2)) < log.index(("put", 0))
        assert sorted(log) == sorted([("submit", s) for s in range(3)]
                                     + [("put", s) for s in range(3)])


class TestSanitizedLeader:
    """A sanitized job is never served: it leads its key, skips the
    cache lookup and runs under its checker, while the plain specs of
    its key are served from its byte-identical result."""

    @pytest.fixture
    def machines(self, monkeypatch):
        """Whether each ``Machine`` built had a checker, in order."""
        from repro.system.machine import Machine
        built = []
        original = Machine.__init__

        def spy(self, *args, **kwargs):
            original(self, *args, **kwargs)
            built.append(self.checker is not None)
        monkeypatch.setattr(Machine, "__init__", spy)
        monkeypatch.setattr(repro.run, "_cache", None)
        monkeypatch.setattr(repro.run, "_manifest", None)
        return built

    def test_cached_key_still_runs_sanitized(self, tmp_path, machines):
        plain = tiny_spec()
        sanitized = dataclasses.replace(plain, tools=Tools(check=True))
        cache = ResultCache(tmp_path)
        run_many([plain], jobs=1, cache=cache)
        assert machines == [False]
        report = run_many([sanitized], jobs=1, cache=cache)
        assert machines == [False, True]
        outcome = report.outcomes[0]
        assert not outcome.cached and outcome.attempts == 1
        assert outcome.result.to_dict() == \
            cache.get(plain, plain.fingerprint()).to_dict()
        assert len(cache) == 1

    def test_one_machine_per_key_and_it_is_sanitized(self, machines):
        plain = tiny_spec()
        sanitized = dataclasses.replace(plain, tools=Tools(check=True))
        report = run_many([plain, sanitized], jobs=1)
        assert machines == [True]
        assert [o.cached for o in report.outcomes] == [True, False]
        assert [o.attempts for o in report.outcomes] == [0, 1]
        assert report.outcomes[0].result.to_dict() == \
            report.outcomes[1].result.to_dict()


class TestRunnerDefaults:
    def test_configure_round_trip(self, monkeypatch, tmp_path):
        monkeypatch.setattr(repro.run, "_jobs", 1)
        monkeypatch.setattr(repro.run, "_cache", None)
        monkeypatch.setattr(repro.run, "_manifest", None)
        monkeypatch.setattr(repro.run, "_policy", repro.run.DEFAULT_POLICY)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        repro.run.configure(jobs=3, use_cache=False)
        jobs, cache = repro.run.runner_defaults()
        assert jobs == 3 and cache is None
        assert repro.run.shared_manifest() is None
        repro.run.configure(use_cache=True, retries=5, job_timeout=90,
                            resume=False)
        assert repro.run.shared_cache() is not None
        assert repro.run.shared_manifest() is not None
        state = repro.run.runner_state()
        assert state.policy.retries == 5
        assert state.policy.job_timeout == 90.0
        assert not hasattr(state, "resume")

    def test_configure_dispatch_compat_arguments(self, monkeypatch):
        monkeypatch.setattr(repro.run, "_jobs", 2)
        before = repro.run.runner_state()
        repro.run.configure(dispatch="local", workers=())
        repro.run.configure(checkpoint_every=100_000)
        repro.run.configure(checkpoint_every=0)
        assert repro.run.runner_state() == before
        assert not hasattr(before, "checkpoint_every")
        assert not hasattr(before, "dispatch")
        assert not hasattr(before, "workers")
        with pytest.raises(ValueError, match="removed"):
            repro.run.configure(jobs=4, dispatch="fabric")
        with pytest.raises(ValueError, match="removed"):
            repro.run.configure(jobs=4, workers=("spawn:2",))
        with pytest.raises(ValueError, match="removed"):
            repro.run.configure(jobs=4, checkpoint_every=-1)
        with pytest.raises(ValueError, match="resume mode was removed"):
            repro.run.configure(jobs=4, resume=True)
        with pytest.raises(TypeError):
            run_many([], jobs=1, resume=False)
        # A rejected call applies none of its other arguments.
        assert repro.run.runner_state() == before

    def test_configure_arena_compat_arguments(self, monkeypatch):
        monkeypatch.setattr(repro.run, "_jobs", 2)
        before = repro.run.runner_state()
        repro.run.configure(arenas="auto", trace_dir="")
        assert repro.run.runner_state() == before
        assert not hasattr(before, "arenas")
        assert not hasattr(before, "trace_dir")
        for kwargs in ({"arenas": "on"}, {"arenas": "off"},
                       {"arenas": False}, {"arenas": "sometimes"},
                       {"trace_dir": "traces"}):
            with pytest.raises(ValueError, match="arenas were removed"):
                repro.run.configure(jobs=4, **kwargs)
        assert repro.run.runner_state() == before
        with pytest.raises(TypeError):
            run_many([], jobs=1, arenas="off")
        assert RunReport().trace_gen_s == 0.0

    def test_seed_sweep_uses_runner_cache(self, monkeypatch, tmp_path):
        cache = ResultCache(tmp_path)
        monkeypatch.setattr(repro.run, "_jobs", 1)
        monkeypatch.setattr(repro.run, "_cache", cache)
        monkeypatch.setattr(repro.run, "_manifest", None)
        sweep_a = seed_sweep(default_system(), oltp_workload,
                             seeds=(0, 1), label="a", **TINY)
        sweep_b = seed_sweep(default_system(), oltp_workload,
                             seeds=(0, 1), label="b", **TINY)
        assert sweep_a.cycles == sweep_b.cycles
        assert cache.hits == 2  # second sweep fully cached

    def test_seed_sweep_arbitrary_factory_falls_back(self):
        calls = []

        def custom():
            calls.append(1)
            return oltp_workload()

        sweep = seed_sweep(default_system(), custom, seeds=(0,),
                           label="custom", **TINY)
        assert len(sweep.cycles) == 1 and calls
