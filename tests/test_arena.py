"""Tests for what is left of trace arenas.

Trace arenas are gone: every job generates its own instruction streams
wherever it runs.  What remains is the compatibility surface the
repository benchmark still uses -- ``configure(arenas="auto",
trace_dir="")``, ``RunReport.trace_gen_s`` and the inert names in
:mod:`repro.trace.arena` -- and the guarantee that a sweep of jobs
sharing a workload and seed records nothing, stores no trace files and
leaves its specs untouched.
"""

import pytest

import repro.run
from repro.params import default_system
from repro.run import DEFAULT_POLICY, JobSpec, ResultCache, WorkloadSpec, \
    run_many
from repro.trace import arena

TINY = dict(instructions=1500, warmup=500)


@pytest.fixture(autouse=True)
def clean_runner(monkeypatch):
    """Isolate each test from process-wide runner state."""
    monkeypatch.setattr(repro.run, "_jobs", 1)
    monkeypatch.setattr(repro.run, "_cache", None)
    monkeypatch.setattr(repro.run, "_manifest", None)
    monkeypatch.setattr(repro.run, "_policy", DEFAULT_POLICY)
    monkeypatch.delenv("REPRO_FAULTS", raising=False)


def _spec(kind="oltp", seed=0, **sizes):
    sizes = {**TINY, **sizes}
    return JobSpec(default_system(), WorkloadSpec(kind), seed=seed,
                   **sizes)


class TestExecutorIntegration:
    def test_auto_skips_singleton_groups(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        report = run_many([_spec(seed=9)], jobs=1, cache=cache)
        assert report.trace_gen_s == 0.0
        # The cache holds the one result entry and nothing else.
        assert [p.suffix for p in (tmp_path / "cache").iterdir()] == \
            [".json"]

    def test_unknown_mode_rejected(self):
        # configure keeps only the benchmark's arenas value; run_many no
        # longer takes the keyword at all.
        with pytest.raises(TypeError, match="arenas"):
            run_many([_spec(seed=0)], jobs=1, arenas="sometimes")
        with pytest.raises(ValueError, match="arenas"):
            repro.run.configure(arenas="sometimes")

    def test_trace_dir_defaults_beside_cache(self, tmp_path):
        # Two jobs sharing workload and seed used to materialize an
        # arena under <cache>/traces/; now nothing is stored there.
        cache = ResultCache(tmp_path / "cache")
        specs = [_spec(seed=0), _spec(seed=0)]
        report = run_many(specs, jobs=1, cache=cache)
        assert not report.failures
        assert not (tmp_path / "cache" / "traces").exists()
        assert not list(tmp_path.rglob("*.arena"))

    def test_no_trace_dir_no_cache_disables_arenas(self):
        specs = [_spec(seed=0), _spec(seed=0)]
        report = run_many(specs, jobs=1)
        assert report.trace_gen_s == 0.0
        assert report.results[0].to_dict() == report.results[1].to_dict()

    def test_arena_reference_not_in_fingerprint(self):
        spec = _spec(seed=0)
        before = spec.fingerprint()
        run_many([spec, _spec(seed=0)], jobs=1)
        assert spec.fingerprint() == before

    def test_benchmark_names_are_inert(self, tmp_path):
        path = tmp_path / "t.arena"
        assert arena.forget(path) is None
        assert not path.exists()
        assert arena.TraceArena().generators(4, seed=0) == []
