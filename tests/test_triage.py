"""Tests for the forward-progress watchdog, replayable crash-triage
bundles, and the manifest's per-attempt log.

A failed attempt reruns from the start; what survives it is the bundle
written by :func:`repro.run.triage.run_attempt` (the one job-attempt
path of serial and pooled runs) and the attempt log of the sweep
manifest.
"""

import json

import pytest

import repro.run
from repro.check.invariants import InvariantViolation
from repro.check.mutations import (mutate_lost_lock_release,
                                   mutate_stale_sharer)
from repro.core.experiment import run_simulation
from repro.core.workloads import oltp_workload
from repro.cpu.core import ProcessorCore
from repro.params import Tools, default_system
from repro.run import triage
from repro.run.cache import ResultCache
from repro.run.executor import RetryPolicy, run_many
from repro.run.faults import FaultPlan, InjectedCrash
from repro.run.jobs import JobSpec, WorkloadSpec
from repro.run.manifest import MANIFEST_NAME, JobRecord, SweepManifest
from repro.system.machine import LIVELOCK_TRANSFERS, Machine, WedgeError

#: Small but real: crosses the warmup boundary and touches every
#: subsystem.  One run takes well under a second.
SMALL = dict(instructions=2400, warmup=1200)


def small_params(**changes):
    return default_system(n_nodes=2, **changes)


def small_spec(seed=0, kind="oltp", tools=Tools(), **params_changes):
    return JobSpec(small_params(**params_changes), WorkloadSpec(kind),
                   seed=seed, tools=tools, **SMALL)


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
        tools = Tools(watchdog_cycles=50_000, watchdog_node_cycles=10_000)
        result = run_simulation(small_params(), oltp_workload(), seed=0,
                                tools=tools, **SMALL)
        assert result.cycles > 0

    def test_lost_lock_release_classified_as_memory_stall(self):
        with mutate_lost_lock_release():
            with pytest.raises(WedgeError) as info:
                run_simulation(default_system(), oltp_workload(),
                               instructions=12_000, warmup=0,
                               tools=Tools(watchdog_node_cycles=8_000))
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
        spec = small_spec(seed=0, tools=Tools(watchdog_node_cycles=40))
        with pytest.raises(WedgeError) as info:
            triage.run_attempt(spec, cache_dir=tmp_path)
        bundle_path = getattr(info.value, "__triage_bundle__", "")
        assert bundle_path
        data = triage.load_bundle(bundle_path)
        assert data["wedge"]["kind"] == info.value.kind
        assert data["retired"] is not None and data["cycle"] is not None
        assert data["job"] == spec.to_dict()
        assert "watchdog" not in data
        assert main(["replay", bundle_path, "--no-cache"]) == 1

    def test_sanitized_bundle_replays_to_same_violation(self, tmp_path,
                                                        capsys):
        """A job that fails its sanitizer replays sanitized: the bundle
        records the job's tools, so the violation reproduces (exit 1)
        instead of the plain run completing."""
        from repro.cli import main
        spec = JobSpec(default_system(), WorkloadSpec("oltp"),
                       instructions=6_000, warmup=3_000, seed=0,
                       tools=Tools(check=True))
        with mutate_stale_sharer():
            with pytest.raises(InvariantViolation) as info:
                triage.run_attempt(spec, cache_dir=tmp_path)
            bundle_path = info.value.__triage_bundle__
            assert triage.load_bundle(bundle_path)["job"]["tools"] == \
                {"check": True, "watchdog_cycles": 0,
                 "watchdog_node_cycles": 0}
            capsys.readouterr()
            assert main(["replay", bundle_path, "--no-cache"]) == 1
        out = capsys.readouterr().out
        assert "replay: failure reproduced: InvariantViolation" in out
        assert "but sharers" in out

    def test_format_1_bundle_is_refused(self, tmp_path, capsys):
        """A format-1 bundle kept its watchdog apart from the job;
        replayed without it, a recorded wedge would hang, so replay
        refuses the bundle (exit 2)."""
        from repro.cli import main
        spec = small_spec()
        job = {key: value for key, value in spec.to_dict().items()
               if key != "tools"}
        (tmp_path / "job.json").write_text(json.dumps({
            "format": 1, "job": job, "fingerprint": spec.fingerprint(),
            "attempt": 0, "error": {"type": "WedgeError", "message": ""},
            "watchdog": {"cycles": 0, "node_cycles": 40}}))
        assert main(["replay", str(tmp_path), "--no-cache"]) == 2
        assert "format-2" in capsys.readouterr().out

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
                          policy=RetryPolicy(retries=1), manifest=None)
        for outcome in report.outcomes:
            assert outcome.failed
            assert outcome.bundle == str(triage.bundle_dir(
                tmp_path, outcome.spec.fingerprint(), 1))
            assert (tmp_path / outcome.bundle / "job.json").is_file()


# ---------------------------------------------------------------------------
# Attempt log: one entry per closed attempt; the audit flags duplicates
# ---------------------------------------------------------------------------

class TestAttemptDedup:
    def test_an_attempt_closed_twice_is_an_audit_violation(self,
                                                            tmp_path):
        """The runner closes each attempt once (its future leaves the
        in-flight set when it is collected or abandoned), so the writer
        keeps every entry it is given and the audit catches a second
        close of one attempt instead of the writer hiding it."""
        from repro.run.audit import audit_state
        manifest = SweepManifest(tmp_path / MANIFEST_NAME)
        manifest.mark_attempt("fp", 0, "timeout", "host deadline",
                              "retrying")
        manifest.mark_attempt("fp", 0, "failed", "WedgeError: ...",
                              "retrying")
        manifest.mark_attempt("fp", 1, "ok", "", "done")
        log = SweepManifest(manifest.path).get("fp").attempt_log
        assert [(e["attempt"], e["outcome"]) for e in log] == \
            [(0, "timeout"), (0, "failed"), (1, "ok")]
        report = audit_state(tmp_path)
        assert any("attempt 0 charged more than once" in f.message
                   for f in report.violations)

    def test_attempt_log_survives_reload(self, tmp_path):
        path = tmp_path / "m.json"
        manifest = SweepManifest(path)
        manifest.mark_attempt("fp", 0, "failed", "boom", "failed")
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
