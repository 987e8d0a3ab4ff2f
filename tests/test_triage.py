"""Tests for the forward-progress watchdog, replayable crash-triage
bundles, and the manifest's per-attempt log.

A failed attempt reruns from the start; what survives it is the bundle
written by :func:`repro.run.triage.run_attempt` (the one job-attempt
path of serial and pooled runs) and the attempt log of the sweep
manifest.
"""

import pytest

import repro.run
from repro.check.mutations import mutate_lost_lock_release
from repro.core.experiment import run_simulation
from repro.core.workloads import oltp_workload
from repro.cpu.core import ProcessorCore
from repro.params import default_system
from repro.run import triage
from repro.run.cache import ResultCache
from repro.run.executor import RetryPolicy, run_many
from repro.run.faults import FaultPlan, InjectedCrash
from repro.run.jobs import JobSpec, WorkloadSpec
from repro.run.manifest import JobRecord, SweepManifest
from repro.system.machine import LIVELOCK_TRANSFERS, Machine, WedgeError

#: Small but real: crosses the warmup boundary and touches every
#: subsystem.  One run takes well under a second.
SMALL = dict(instructions=2400, warmup=1200)


def small_params(**changes):
    return default_system(n_nodes=2, **changes)


def small_spec(seed=0, kind="oltp", **params_changes):
    return JobSpec(small_params(**params_changes), WorkloadSpec(kind),
                   seed=seed, **SMALL)


@pytest.fixture(autouse=True)
def clean_runner(monkeypatch):
    monkeypatch.setattr(repro.run, "_cache", None)
    monkeypatch.setattr(repro.run, "_manifest", None)
    monkeypatch.delenv("REPRO_FAULTS", raising=False)


# ---------------------------------------------------------------------------
# Forward-progress watchdog
# ---------------------------------------------------------------------------

class TestWatchdog:
    def test_clean_run_never_trips(self):
        params = small_params(watchdog_cycles=50_000,
                              watchdog_node_cycles=10_000)
        result = run_simulation(params, oltp_workload(), seed=0, **SMALL)
        assert result.cycles > 0

    def test_lost_lock_release_classified_as_memory_stall(self):
        params = default_system(watchdog_node_cycles=8_000)
        with mutate_lost_lock_release():
            with pytest.raises(WedgeError) as info:
                run_simulation(params, oltp_workload(),
                               instructions=12_000, warmup=0)
        wedge = info.value
        assert wedge.kind == "memory-stall"
        assert wedge.node is not None
        assert "lock held by pid" in wedge.detail
        assert wedge.to_dict()["kind"] == "memory-stall"

    def test_livelock_outranks_memory_stall(self):
        """Ownership ping-pong on one line classifies as livelock even
        when a core is also memory-stalled."""
        params = small_params()
        machine = Machine(params, oltp_workload().generators(2, seed=0))
        machine.run(500)
        machine.memory._ping = {7: LIVELOCK_TRANSFERS, 3: 2}
        wedge = machine._classify_wedge(machine.now, node=None)
        assert wedge.kind == "coherence-livelock"
        assert wedge.line == 7
        assert wedge.retired == machine.total_retired()

    def test_wedge_error_to_dict(self):
        wedge = WedgeError("fetch-stall", 123, node=1, retired=42,
                           detail="empty window")
        data = wedge.to_dict()
        assert data == {"kind": "fetch-stall", "cycle": 123, "node": 1,
                        "line": None, "retired": 42,
                        "detail": "empty window"}
        assert "node 1" in str(wedge)


# ---------------------------------------------------------------------------
# Triage bundles and replay
# ---------------------------------------------------------------------------

class MidRunFault(RuntimeError):
    """A failure raised from inside the simulation."""


def fail_after_ticks(monkeypatch, ticks):
    """Make the core step raise once it has run ``ticks`` times."""
    original = ProcessorCore.tick
    calls = [0]

    def tick(self, now):
        calls[0] += 1
        if calls[0] > ticks:
            raise MidRunFault(f"test fault at cycle {now}")
        return original(self, now)
    monkeypatch.setattr(ProcessorCore, "tick", tick)


class TestTriageBundles:
    def test_failed_attempt_writes_replayable_bundle(self, tmp_path,
                                                     monkeypatch):
        """A failure inside the simulation leaves a bundle with the
        machine's retired count, cycle and stream tails."""
        spec = small_spec(seed=4)
        fail_after_ticks(monkeypatch, 3000)
        with pytest.raises(MidRunFault) as info:
            triage.run_attempt(spec, 2, cache_dir=tmp_path)
        bundle_path = getattr(info.value, "__triage_bundle__", "")
        assert bundle_path
        assert bundle_path == str(triage.bundle_dir(
            tmp_path, spec.fingerprint(), 2))
        data = triage.load_bundle(bundle_path)
        assert data["fingerprint"] == spec.fingerprint()
        assert data["attempt"] == 2
        assert data["error"]["type"] == "MidRunFault"
        assert data["wedge"] is None
        assert data["retired"] > SMALL["warmup"]
        assert data["cycle"] > 0
        assert "checkpoint" not in data
        assert JobSpec.from_dict(data["job"]).fingerprint() == \
            spec.fingerprint()
        tails = list((tmp_path / triage.TRIAGE_DIR).rglob(
            "stream-tail.json"))
        assert len(tails) == 1
        summary = triage.format_bundle(data)
        assert "MidRunFault" in summary

    def test_no_cache_dir_writes_no_bundle(self, tmp_path, monkeypatch):
        fail_after_ticks(monkeypatch, 100)
        with pytest.raises(MidRunFault) as info:
            triage.run_attempt(small_spec())
        assert not hasattr(info.value, "__triage_bundle__")

    def test_wedge_bundle_replays_to_same_wedge(self, tmp_path):
        """A genuine (simulated) wedge reproduces under ``repro
        replay`` -- exit 1 and the same classification."""
        from repro.cli import main
        spec = small_spec(seed=0, watchdog_node_cycles=40)
        with pytest.raises(WedgeError) as info:
            triage.run_attempt(spec, cache_dir=tmp_path)
        bundle_path = getattr(info.value, "__triage_bundle__", "")
        assert bundle_path
        data = triage.load_bundle(bundle_path)
        assert data["wedge"]["kind"] == info.value.kind
        assert data["retired"] is not None and data["cycle"] is not None
        assert main(["replay", bundle_path, "--no-cache"]) == 1

    def test_host_side_crash_replays_clean(self, tmp_path, capsys):
        """An injected (host-side) crash fires before the machine is
        built: its bundle holds the job and error only, and replay
        completes cleanly."""
        from repro.cli import main
        spec = small_spec(seed=7)
        with pytest.raises(InjectedCrash) as info:
            triage.run_attempt(spec, faults=FaultPlan(crash=1.0),
                               cache_dir=tmp_path)
        bundle_path = info.value.__triage_bundle__
        data = triage.load_bundle(bundle_path)
        assert data["retired"] is None and data["cycle"] is None
        assert main(["replay", bundle_path, "--no-cache"]) == 0
        assert "completed cleanly" in capsys.readouterr().out

    def test_replay_rejects_garbage(self, tmp_path):
        from repro.cli import main
        bogus = tmp_path / "job.json"
        bogus.write_text("{}")
        assert main(["replay", str(bogus), "--no-cache"]) == 2

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_bundle_reaches_the_failed_outcome(self, tmp_path,
                                               monkeypatch, jobs):
        """Serial and pooled attempts both hand the bundle path back to
        the executor, which records it on the failed outcome."""
        monkeypatch.setenv("REPRO_FAULTS", "crash:1.0")
        specs = [small_spec(seed=seed) for seed in (1, 2)]
        report = run_many(specs, jobs=jobs, cache=ResultCache(tmp_path),
                          policy=RetryPolicy(retries=1, backoff_base=0.0),
                          manifest=None, resume=False)
        for outcome in report.outcomes:
            assert outcome.failed
            assert outcome.bundle == str(triage.bundle_dir(
                tmp_path, outcome.spec.fingerprint(), 1))
            assert (tmp_path / outcome.bundle / "job.json").is_file()


# ---------------------------------------------------------------------------
# Attempt-log dedup (host timeout vs. watchdog race)
# ---------------------------------------------------------------------------

class TestAttemptDedup:
    def test_first_writer_wins_per_attempt(self, tmp_path):
        manifest = SweepManifest(tmp_path / "m.json")
        assert manifest.mark_attempt("fp", 0, "timeout", "host deadline")
        # The late worker failure for the same attempt must not land.
        assert not manifest.mark_attempt("fp", 0, "failed",
                                         "WedgeError: ...")
        assert manifest.mark_attempt("fp", 1, "ok")
        log = manifest.get("fp").attempt_log
        assert [(e["attempt"], e["outcome"]) for e in log] == \
            [(0, "timeout"), (1, "ok")]

    def test_attempt_log_survives_reload(self, tmp_path):
        path = tmp_path / "m.json"
        manifest = SweepManifest(path)
        manifest.mark_attempt("fp", 0, "failed", "boom")
        reloaded = SweepManifest(path)
        assert reloaded.get("fp").attempt_log == \
            [{"attempt": 0, "outcome": "failed", "error": "boom"}]

    def test_record_from_dict_tolerates_junk_entries(self):
        record = JobRecord.from_dict({
            "fingerprint": "fp",
            "attempt_log": [{"attempt": 1, "outcome": "ok"},
                            "garbage", {"no_attempt": True}],
        })
        assert len(record.attempt_log) == 1
        assert record.attempt_log[0]["attempt"] == 1
