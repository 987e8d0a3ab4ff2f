"""Tests for mid-simulation checkpoint/restore, the forward-progress
watchdog, and replayable crash-triage bundles.

The core property: a run resumed from a checkpoint -- at any boundary,
on either trace path -- is byte-identical to an uninterrupted run.  The
round-trip tests draw checkpoint offsets from a seeded RNG so each CI
run exercises the same offsets deterministically, across both OLTP and
DSS, comparing cycles, full breakdowns, and the architectural state
digest (cache tags in LRU order, directory, lock table).
"""

import random

import pytest

import repro.run
from repro.check.mutations import mutate_lost_lock_release
from repro.core.experiment import run_simulation
from repro.core.workloads import dss_workload, oltp_workload
from repro.params import default_system
from repro.run import checkpoint as ckpt
from repro.run import triage
from repro.run.checkpoint import (
    CheckpointStore,
    CorruptCheckpoint,
    checkpoint_every_from_env,
    state_digest,
)
from repro.run.faults import InjectedCrash
from repro.run.jobs import MODEL_VERSION, JobSpec, WorkloadSpec
from repro.run.manifest import JobRecord, SweepManifest
from repro.system.machine import LIVELOCK_TRANSFERS, Machine, WedgeError

WORKLOADS = {"oltp": oltp_workload, "dss": dss_workload}

#: Small but real: crosses the warmup boundary and touches every
#: subsystem.  One run takes well under a second.
SMALL = dict(instructions=2400, warmup=1200)


def small_params(**changes):
    return default_system(n_nodes=2, **changes)


def small_spec(seed=0, kind="oltp", **params_changes):
    return JobSpec(small_params(**params_changes), WorkloadSpec(kind),
                   seed=seed, **SMALL)


class CrashAfterCheckpoints:
    """Fault hook that dies after the Nth checkpoint write (then never
    again), standing in for a host kill at a reproducible spot."""

    def __init__(self, after=1):
        self.after = after
        self.writes = 0

    def maybe_midcrash(self, fingerprint, attempt, boundary):
        self.writes += 1
        if self.writes == self.after:
            raise InjectedCrash(f"test crash after checkpoint "
                                f"at {boundary}")


@pytest.fixture(autouse=True)
def clean_runner(monkeypatch):
    monkeypatch.setattr(repro.run, "_cache", None)
    monkeypatch.setattr(repro.run, "_manifest", None)
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.delenv(ckpt.CHECKPOINT_EVERY_ENV, raising=False)


# ---------------------------------------------------------------------------
# Store mechanics: format, checksums, quarantine, fallback
# ---------------------------------------------------------------------------

def _payload(retired, **extra):
    base = {"format": ckpt.CHECKPOINT_FORMAT,
            "model_version": MODEL_VERSION, "retired": retired,
            "warmed": False, "measure_target": None, "seed": 0,
            "machine": {"x": retired}, "trace_offsets": [0, 0]}
    base.update(extra)
    return base


class TestCheckpointStore:
    def test_save_load_roundtrip(self, tmp_path):
        store = CheckpointStore(tmp_path / "ck")
        path = store.save(_payload(1000))
        assert path is not None and path.name == "ck-000000001000.ckpt"
        assert CheckpointStore.load_file(path) == _payload(1000)

    def test_latest_prefers_newest(self, tmp_path):
        store = CheckpointStore(tmp_path / "ck")
        store.save(_payload(1000))
        store.save(_payload(2000))
        assert store.latest()["retired"] == 2000
        assert [p.name for p in store.checkpoint_files()] == \
            ["ck-000000001000.ckpt", "ck-000000002000.ckpt"]

    def test_corrupt_newest_quarantined_with_fallback(self, tmp_path):
        store = CheckpointStore(tmp_path / "ck")
        store.save(_payload(1000))
        newest = store.save(_payload(2000))
        blob = newest.read_bytes()
        newest.write_bytes(blob[:len(blob) // 2])
        with pytest.warns(RuntimeWarning, match="quarantined"):
            payload = store.latest()
        assert payload["retired"] == 1000
        assert store.quarantined == 1
        quarantine = store.directory / ckpt.QUARANTINE_DIR
        assert (quarantine / newest.name).exists()
        assert not newest.exists()

    def test_all_corrupt_falls_back_to_cold(self, tmp_path):
        store = CheckpointStore(tmp_path / "ck")
        path = store.save(_payload(1000))
        path.write_bytes(b"not a checkpoint at all")
        with pytest.warns(RuntimeWarning, match="quarantined"):
            assert store.latest() is None

    def test_load_rejects_stale_model_version(self, tmp_path):
        store = CheckpointStore(tmp_path / "ck")
        path = store.save(_payload(500))
        stale = store.save(_payload(600, model_version=MODEL_VERSION + 1))
        with pytest.raises(CorruptCheckpoint, match="model version"):
            CheckpointStore.load_file(stale)
        assert CheckpointStore.load_file(path)["retired"] == 500

    def test_clear_removes_checkpoints(self, tmp_path):
        store = CheckpointStore(tmp_path / "ck")
        store.save(_payload(1000))
        store.save(_payload(2000))
        assert store.clear() == 2
        assert store.checkpoint_files() == []

    def test_missing_magic_raises_corrupt(self, tmp_path):
        bad = tmp_path / "ck-000000000001.ckpt"
        bad.write_bytes(b"JUNKJUNK" + b"0" * 64)
        with pytest.raises(CorruptCheckpoint, match="magic"):
            CheckpointStore.load_file(bad)


class TestEveryFromEnv:
    def test_default_when_unset(self):
        assert checkpoint_every_from_env() == \
            ckpt.DEFAULT_CHECKPOINT_EVERY

    def test_parses_and_clamps(self, monkeypatch):
        monkeypatch.setenv(ckpt.CHECKPOINT_EVERY_ENV, "1234")
        assert checkpoint_every_from_env() == 1234
        monkeypatch.setenv(ckpt.CHECKPOINT_EVERY_ENV, "-5")
        assert checkpoint_every_from_env() == 0

    def test_unparseable_warns_and_defaults(self, monkeypatch):
        monkeypatch.setenv(ckpt.CHECKPOINT_EVERY_ENV, "zebra")
        with pytest.warns(RuntimeWarning, match="unparseable"):
            assert checkpoint_every_from_env() == \
                ckpt.DEFAULT_CHECKPOINT_EVERY


# ---------------------------------------------------------------------------
# The round-trip property (seeded random offsets, both workloads)
# ---------------------------------------------------------------------------

class TestRoundTripProperty:
    @pytest.mark.parametrize("kind", ["oltp", "dss"])
    def test_crash_resume_byte_identical_at_random_offsets(
            self, kind, tmp_path):
        """Kill at several seeded offsets; every resume reproduces the
        uninterrupted result byte-for-byte."""
        params = small_params()
        factory = WORKLOADS[kind]
        baseline = run_simulation(params, factory(), seed=1,
                                  **SMALL).to_dict()
        total = SMALL["instructions"] + SMALL["warmup"]
        rng = random.Random(20260806 + len(kind))
        offsets = rng.sample(range(200, total - 200), 3)
        for offset in offsets:
            store = CheckpointStore(tmp_path / kind / str(offset))
            with pytest.raises(InjectedCrash):
                ckpt.run_job(params, factory(), seed=1, store=store,
                             every=offset,
                             faults=CrashAfterCheckpoints(1), **SMALL)
            assert store.checkpoint_files(), \
                f"no checkpoint written at offset {offset}"
            result, info = ckpt.run_job(params, factory(), seed=1,
                                        store=store, every=offset,
                                        **SMALL)
            assert info["resumed_from"] >= offset
            assert result.to_dict() == baseline, \
                f"resume at offset {offset} diverged"
            # Completion clears the checkpoints; the cache takes over.
            assert store.checkpoint_files() == []

    @pytest.mark.parametrize("kind", ["oltp", "dss"])
    def test_restored_machine_state_digest_matches(self, kind):
        """snapshot/restore preserves the architectural state exactly,
        and the restored machine stays in lockstep afterwards."""
        params = small_params()
        factory = WORKLOADS[kind]
        machine = Machine(params, factory().generators(2, seed=3))
        machine.run(1500)
        payload = {"machine": machine.snapshot(),
                   "trace_offsets": machine.trace_consumed()}
        digest = state_digest(machine)
        restored = ckpt._rebuild_machine(params, factory(), 3, payload)
        assert state_digest(restored) == digest
        assert restored.now == machine.now
        assert restored.total_retired() == machine.total_retired()
        machine.run(800)
        restored.run(800)
        assert state_digest(restored) == state_digest(machine)
        assert restored.now == machine.now
        assert restored.total_retired() == machine.total_retired()

    def test_corrupt_newest_checkpoint_resumes_from_older(self, tmp_path):
        """A torn newest checkpoint falls back to the previous one and
        the result is still byte-identical."""
        params = small_params()
        baseline = run_simulation(params, oltp_workload(), seed=2,
                                  **SMALL).to_dict()
        store = CheckpointStore(tmp_path / "ck")
        with pytest.raises(InjectedCrash):
            ckpt.run_job(params, oltp_workload(), seed=2, store=store,
                         every=900, faults=CrashAfterCheckpoints(2),
                         **SMALL)
        files = store.checkpoint_files()
        assert len(files) == 2
        blob = files[-1].read_bytes()
        files[-1].write_bytes(blob[:-10])
        with pytest.warns(RuntimeWarning, match="quarantined"):
            result, info = ckpt.run_job(params, oltp_workload(), seed=2,
                                        store=store, every=900, **SMALL)
        assert store.quarantined == 1
        assert 0 < info["resumed_from"] < 1800
        assert result.to_dict() == baseline

    def test_format_1_checkpoint_is_quarantined(self, tmp_path):
        """A checkpoint of the previous format (heap items that carried a
        uid tie-breaker, a ``next_uid`` key) is never restored: it is
        quarantined and the job cold-starts to the uninterrupted result."""
        assert ckpt.CHECKPOINT_FORMAT == 2
        params = small_params()
        baseline = run_simulation(params, oltp_workload(), seed=4,
                                  **SMALL).to_dict()
        store = CheckpointStore(tmp_path / "ck")
        with pytest.raises(InjectedCrash):
            ckpt.run_job(params, oltp_workload(), seed=4, store=store,
                         every=1000, faults=CrashAfterCheckpoints(1),
                         **SMALL)
        [path] = store.checkpoint_files()
        payload = CheckpointStore.load_file(path)
        payload["format"] = 1
        payload["machine"]["next_uid"] = 12345
        path.unlink()
        store.save(payload)
        with pytest.warns(RuntimeWarning, match="quarantined"):
            result, info = ckpt.run_job(params, oltp_workload(), seed=4,
                                        store=store, **SMALL)
        assert store.quarantined == 1
        assert (store.directory / ckpt.QUARANTINE_DIR / path.name).exists()
        assert info["resumed_from"] == 0
        assert result.to_dict() == baseline

    def test_seed_mismatch_forces_cold_start(self, tmp_path):
        store = CheckpointStore(tmp_path / "ck")
        params = small_params()
        with pytest.raises(InjectedCrash):
            ckpt.run_job(params, oltp_workload(), seed=5, store=store,
                         every=1000, faults=CrashAfterCheckpoints(1),
                         **SMALL)
        result, info = ckpt.run_job(params, oltp_workload(), seed=6,
                                    store=store, **SMALL)
        assert info["resumed_from"] == 0
        baseline = run_simulation(params, oltp_workload(), seed=6,
                                  **SMALL)
        assert result.to_dict() == baseline.to_dict()


class TestSupportsCheckpointing:
    def test_declines_invariant_checker(self):
        assert not ckpt.supports_checkpointing(
            small_params(check=True), oltp_workload())

    def test_declines_recording_workload(self):
        from repro.trace.arena import ArenaRecorder
        wl = oltp_workload()
        recorder = ArenaRecorder(wl, 2, 0, {"kind": "oltp"}, 100)
        assert not ckpt.supports_checkpointing(small_params(),
                                               recorder.workload())

    def test_accepts_plain_run(self):
        assert ckpt.supports_checkpointing(small_params(),
                                           oltp_workload())


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

class TestTriageBundles:
    def test_failed_run_spec_writes_replayable_bundle(self, tmp_path):
        spec = small_spec(seed=4)
        store = CheckpointStore.for_job(tmp_path, spec.fingerprint())
        with pytest.raises(InjectedCrash) as info:
            ckpt.run_spec(spec, store=store, every=1000,
                          faults=CrashAfterCheckpoints(1),
                          triage_dir=tmp_path)
        bundle_path = getattr(info.value, "__triage_bundle__", "")
        assert bundle_path
        data = triage.load_bundle(bundle_path)
        assert data["fingerprint"] == spec.fingerprint()
        assert data["error"]["type"] == "InjectedCrash"
        assert data["wedge"] is None
        assert data["checkpoint"]  # the newest checkpoint rode along
        assert JobSpec.from_dict(data["job"]).fingerprint() == \
            spec.fingerprint()
        tails = (tmp_path / triage.TRIAGE_DIR).rglob("stream-tail.json")
        assert list(tails)
        summary = triage.format_bundle(data)
        assert "InjectedCrash" in summary

    def test_wedge_bundle_replays_to_same_wedge(self, tmp_path):
        """A genuine (simulated) wedge reproduces under ``repro
        replay`` -- exit 1 and the same classification."""
        from repro.cli import main
        spec = small_spec(seed=0, watchdog_node_cycles=40)
        with pytest.raises(WedgeError) as info:
            ckpt.run_spec(spec, triage_dir=tmp_path)
        bundle_path = getattr(info.value, "__triage_bundle__", "")
        assert bundle_path
        data = triage.load_bundle(bundle_path)
        assert data["wedge"]["kind"] == info.value.kind
        assert main(["replay", bundle_path, "--no-cache"]) == 1

    def test_host_side_crash_replays_clean(self, tmp_path, capsys):
        """An injected (host-side) crash does not reproduce: replay
        completes cleanly, from cold and from the checkpoint."""
        from repro.cli import main
        spec = small_spec(seed=7)
        store = CheckpointStore.for_job(tmp_path, spec.fingerprint())
        with pytest.raises(InjectedCrash) as info:
            ckpt.run_spec(spec, store=store, every=1000,
                          faults=CrashAfterCheckpoints(1),
                          triage_dir=tmp_path)
        bundle_path = info.value.__triage_bundle__
        assert main(["replay", bundle_path, "--no-cache"]) == 0
        assert main(["replay", bundle_path, "--from-checkpoint",
                     "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "resumed from checkpoint" in out
        assert "completed cleanly" in out

    def test_replay_rejects_garbage(self, tmp_path):
        from repro.cli import main
        bogus = tmp_path / "job.json"
        bogus.write_text("{}")
        assert main(["replay", str(bogus), "--no-cache"]) == 2


# ---------------------------------------------------------------------------
# Attempt-log dedup (host timeout vs. watchdog race)
# ---------------------------------------------------------------------------

class TestAttemptDedup:
    def test_first_writer_wins_per_attempt(self, tmp_path):
        manifest = SweepManifest(tmp_path / "m.json")
        assert manifest.mark_attempt("fp", 0, "timeout",
                                     "host deadline", start_offset=500)
        # The late worker failure for the same attempt must not land.
        assert not manifest.mark_attempt("fp", 0, "failed",
                                         "WedgeError: ...")
        assert manifest.mark_attempt("fp", 1, "ok", start_offset=500)
        log = manifest.get("fp").attempt_log
        assert [(e["attempt"], e["outcome"]) for e in log] == \
            [(0, "timeout"), (1, "ok")]

    def test_attempt_log_survives_reload(self, tmp_path):
        path = tmp_path / "m.json"
        manifest = SweepManifest(path)
        manifest.mark_attempt("fp", 0, "failed", "boom", start_offset=42)
        reloaded = SweepManifest(path)
        assert reloaded.get("fp").attempt_log == \
            [{"attempt": 0, "outcome": "failed", "error": "boom",
              "start_offset": 42}]

    def test_record_from_dict_tolerates_junk_entries(self):
        record = JobRecord.from_dict({
            "fingerprint": "fp",
            "attempt_log": [{"attempt": 1, "outcome": "ok"},
                            "garbage", {"no_attempt": True}],
        })
        assert len(record.attempt_log) == 1
        assert record.attempt_log[0]["attempt"] == 1
