"""Tests for the crash-consistency harness.

Covers the unified atomic write primitive (:mod:`repro.run.atomicio`),
deterministic disk-fault injection (``REPRO_FAULTS`` ``torn`` /
``shortwrite`` / ``enospc`` / ``eio`` / ``renamecrash`` /
``fsyncdrop``), the recovery auditor (``repro audit-state``), gc race
safety against in-flight writes, the R013 lint rule, and the core
property: a sweep crashed at *every* durable write boundary of every
artifact category, then resumed, reproduces the fault-free results
byte-for-byte with a clean durability audit.
"""

import errno
import json
import os
import warnings
from pathlib import Path

import pytest

import repro.run
from repro import cli
from repro.params import default_system
from repro.run import (
    DEFAULT_POLICY,
    MANIFEST_NAME,
    AuditReport,
    CriticalWriteError,
    DurabilityWarning,
    FaultPlan,
    InjectedCrash,
    InjectedDiskFault,
    InjectedWriterDeath,
    JobSpec,
    ResultCache,
    RetryPolicy,
    SweepManifest,
    WorkloadSpec,
    audit_state,
    run_many,
)
from repro.run import atomicio
from repro.run import gc as run_gc
from repro.run import triage
from repro.run.faults import DISK_FAULT_KINDS

TINY = dict(instructions=800, warmup=800)

FAST_BACKOFF = dict(backoff_base=0.001, backoff_cap=0.01)


def tiny_spec(seed=0, kind="oltp", **params_changes):
    params = default_system(**params_changes)
    return JobSpec(params, WorkloadSpec(kind), seed=seed, **TINY)


@pytest.fixture(autouse=True)
def clean_runner(monkeypatch):
    """Isolate each test from process-wide runner and atomicio state."""
    monkeypatch.setattr(repro.run, "_jobs", 1)
    monkeypatch.setattr(repro.run, "_cache", None)
    monkeypatch.setattr(repro.run, "_manifest", None)
    monkeypatch.setattr(repro.run, "_policy", DEFAULT_POLICY)
    monkeypatch.setattr(repro.run, "_resume", False)
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    atomicio.reset_state()
    yield
    atomicio.reset_state()


def _plan(**kwargs):
    return FaultPlan(**kwargs)


# ---------------------------------------------------------------------------
# The atomic write primitive
# ---------------------------------------------------------------------------

class TestAtomicWrite:
    def test_bytes_round_trip_leaves_no_temp_files(self, tmp_path):
        target = tmp_path / "deep" / "artifact.bin"
        assert atomicio.atomic_write_bytes(target, b"payload",
                                           category="cache")
        assert target.read_bytes() == b"payload"
        assert atomicio.orphan_tmp_files(target.parent) == []

    def test_json_is_canonical_with_trailing_newline(self, tmp_path):
        target = tmp_path / "doc.json"
        assert atomicio.atomic_write_json(target, {"b": 1, "a": 2},
                                          category="cache")
        text = target.read_text()
        assert text.endswith("\n")
        assert json.loads(text) == {"a": 2, "b": 1}

    def test_overwrite_is_atomic_replacement(self, tmp_path):
        target = tmp_path / "doc.txt"
        atomicio.atomic_write_text(target, "old", category="cache")
        atomicio.atomic_write_text(target, "new", category="cache")
        assert target.read_text() == "new"

    def test_best_effort_failure_warns_once_per_kind(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where a directory must go")
        target = blocker / "entry.json"
        with pytest.warns(DurabilityWarning, match="cache write failed"):
            assert not atomicio.atomic_write_bytes(target, b"x",
                                                   category="cache")
        # Same (category, error kind): silent the second time.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not atomicio.atomic_write_bytes(target, b"x",
                                                   category="cache")
        # A different category still gets its one warning.
        with pytest.warns(DurabilityWarning, match="triage write failed"):
            assert not atomicio.atomic_write_bytes(target, b"x",
                                                   category="triage")

    def test_critical_failure_raises(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        with pytest.raises(CriticalWriteError, match="manifest"):
            atomicio.atomic_write_bytes(blocker / "m.json", b"x",
                                        category="manifest",
                                        critical=True)

    def test_quarantine_moves_evidence_and_warns(self, tmp_path):
        corrupt = tmp_path / "bad.json"
        corrupt.write_text("torn")
        with pytest.warns(RuntimeWarning,
                          match="quarantined corrupt cache entry"):
            moved = atomicio.quarantine(corrupt, "checksum mismatch",
                                        label="cache entry")
        assert moved == tmp_path / "quarantine" / "bad.json"
        assert moved.exists() and not corrupt.exists()

    def test_sweep_orphans_removes_only_stale(self, tmp_path):
        stale = tmp_path / "dead.tmp"
        young = tmp_path / "live.tmp"
        stale.write_bytes(b"")
        young.write_bytes(b"")
        now = atomicio.time_now()
        os.utime(stale, (now - 7200, now - 7200))
        assert atomicio.sweep_orphans(tmp_path, now=now) == 1
        assert not stale.exists() and young.exists()


# ---------------------------------------------------------------------------
# Deterministic disk-fault injection
# ---------------------------------------------------------------------------

class TestDiskFaultInjection:
    def test_parse_recognises_disk_fault_keys(self):
        plan = FaultPlan.parse(
            "torn:0.1,shortwrite:0.2,enospc:0.3,eio:0.4,"
            "renamecrash:0.5,fsyncdrop:0.6,seed:9")
        for kind, prob in zip(DISK_FAULT_KINDS,
                              (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)):
            assert getattr(plan, kind) == prob
        assert plan.seed == 9
        assert plan.active and plan.disk_active

    def test_schedule_is_a_pure_function_of_the_plan(self):
        plan = _plan(torn=0.3, enospc=0.2, renamecrash=0.1, seed=5)
        schedule = [plan.disk_fault("cache", "write", seq)
                    for seq in range(64)]
        assert schedule == [plan.disk_fault("cache", "write", seq)
                            for seq in range(64)]
        # Multiple kinds actually fire somewhere in the window, and a
        # different category rolls an independent schedule.
        assert len({kind for kind in schedule if kind}) >= 2
        assert schedule != [plan.disk_fault("triage", "write", seq)
                            for seq in range(64)]

    def test_torn_offset_strictly_damages_the_payload(self):
        plan = _plan(torn=1.0, seed=3)
        for size in (1, 2, 17, 4096):
            offset = plan.torn_offset(size, "cache", 0)
            assert 0 <= offset < size

    def test_sequence_counters_order_the_schedule(self, tmp_path):
        plan = _plan()          # inactive: no faults, just counting
        for i in range(3):
            atomicio.atomic_write_bytes(tmp_path / f"{i}.bin", b"x",
                                        category="cache", plan=plan)
        atomicio.atomic_write_bytes(tmp_path / "a.bin", b"x",
                                    category="triage", plan=plan)
        assert atomicio.sequence_numbers() == {"cache": 3, "triage": 1}

    def test_enospc_fails_up_front(self, tmp_path):
        target = tmp_path / "entry.json"
        with pytest.warns(DurabilityWarning, match="ENOSPC"):
            ok = atomicio.atomic_write_bytes(target, b"x" * 64,
                                             category="cache",
                                             plan=_plan(enospc=1.0))
        assert not ok
        assert not target.exists()
        assert atomicio.orphan_tmp_files(tmp_path) == []

    def test_torn_write_renames_damaged_bytes(self, tmp_path):
        target = tmp_path / "blob.bin"
        payload = b"p" * 100
        assert atomicio.atomic_write_bytes(target, payload,
                                           category="triage",
                                           plan=_plan(torn=1.0))
        assert target.exists()
        stored = target.read_bytes()
        assert len(stored) < len(payload)
        assert payload.startswith(stored)

    def test_shortwrite_fails_with_eio_and_cleans_up(self, tmp_path):
        target = tmp_path / "entry.json"
        with pytest.warns(DurabilityWarning, match="EIO"):
            ok = atomicio.atomic_write_bytes(target, b"x" * 64,
                                             category="cache",
                                             plan=_plan(shortwrite=1.0))
        assert not ok
        assert not target.exists()
        assert atomicio.orphan_tmp_files(tmp_path) == []

    def test_eio_fails_the_rename_and_cleans_up(self, tmp_path):
        target = tmp_path / "entry.json"
        with pytest.warns(DurabilityWarning, match="EIO"):
            ok = atomicio.atomic_write_bytes(target, b"x",
                                             category="cache",
                                             plan=_plan(eio=1.0))
        assert not ok
        assert not target.exists()
        assert atomicio.orphan_tmp_files(tmp_path) == []

    def test_renamecrash_leaves_the_orphan_behind(self, tmp_path):
        target = tmp_path / "entry.json"
        with pytest.raises(InjectedCrash, match="before rename"):
            atomicio.atomic_write_bytes(target, b"x", category="cache",
                                        plan=_plan(renamecrash=1.0))
        assert not target.exists()
        assert len(atomicio.orphan_tmp_files(tmp_path)) == 1

    def test_fsyncdrop_keeps_the_content_intact(self, tmp_path):
        target = tmp_path / "entry.json"
        assert atomicio.atomic_write_bytes(target, b"payload",
                                           category="cache",
                                           plan=_plan(fsyncdrop=1.0))
        assert target.read_bytes() == b"payload"

    def test_critical_writes_are_exempt_from_injection(self, tmp_path):
        target = tmp_path / "manifest.json"
        plan = _plan(enospc=1.0, renamecrash=1.0)
        assert atomicio.atomic_write_bytes(target, b"ledger",
                                           category="manifest",
                                           critical=True, plan=plan)
        assert target.read_bytes() == b"ledger"

    def test_explicit_none_plan_disables_env_injection(
            self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "enospc:1")
        target = tmp_path / "entry.json"
        assert atomicio.atomic_write_bytes(target, b"x",
                                           category="cache", plan=None)
        assert target.exists()

    def test_injected_disk_fault_is_a_real_oserror(self):
        fault = InjectedDiskFault(errno.ENOSPC, "injected")
        assert isinstance(fault, OSError)
        assert fault.errno == errno.ENOSPC


# ---------------------------------------------------------------------------
# Crash at every durable write boundary, resume, byte-identity + audit
# ---------------------------------------------------------------------------

class _BoundaryPlan:
    """Fault-plan stub firing one kind at exactly one (category, seq)."""

    def __init__(self, category, seq, kind="renamecrash"):
        self.category = category
        self.seq = seq
        self.kind = kind
        self.fired = False

    def disk_fault(self, category, op, seq):
        if category == self.category and seq == self.seq:
            self.fired = True
            return self.kind
        return None

    def torn_offset(self, size, category, seq):
        return size // 2 if size > 1 else 0


SWEEP_SEEDS = (0, 1)


def _sweep(cache_dir, *, seeds=SWEEP_SEEDS):
    cache_dir = Path(cache_dir)
    cache = ResultCache(cache_dir)
    manifest = SweepManifest(cache_dir / MANIFEST_NAME)
    specs = [tiny_spec(seed=s) for s in seeds]
    return run_many(
        specs, jobs=1, cache=cache, manifest=manifest,
        policy=RetryPolicy(retries=3, job_timeout=60, **FAST_BACKOFF),
        resume=True)


def _crash_once_faults(seeds=SWEEP_SEEDS):
    """A ``REPRO_FAULTS`` plan under which every job of a ``_sweep``
    crashes on its first attempt only, so each writes one triage bundle
    and then completes.  Fault rolls are pure hashes, so the search (and
    thus the test) is deterministic."""
    fingerprints = [tiny_spec(seed=s).fingerprint() for s in seeds]
    for fault_seed in range(10_000):
        text = f"crash:0.5,seed:{fault_seed}"
        plan = FaultPlan.parse(text)
        if all(plan.roll("crash", fp, 0) and not plan.roll("crash", fp, 1)
               for fp in fingerprints):
            return text
    raise AssertionError("no suitable fault seed in search range")


def _dumps(report):
    return [r.dump() for r in report.results]


def _assert_clean_audit(cache_dir):
    report = audit_state(cache_dir)
    assert isinstance(report, AuditReport)
    assert report.ok, report.format_report(verbose=True)
    return report


class TestCrashAtEveryWriteBoundary:
    """The acceptance property: kill the writer at each durable write
    boundary; a resumed sweep must match the fault-free baseline
    byte-for-byte and leave zero audit violations."""

    @pytest.mark.parametrize("category,job_crashes", [
        ("cache", "off"),
        ("triage", "on"),
    ])
    def test_writer_death_at_every_boundary(self, tmp_path, monkeypatch,
                                            category, job_crashes):
        # Triage bundles are written only for failed attempts, so that
        # case crashes every job once before it completes.
        if job_crashes == "on":
            monkeypatch.setenv("REPRO_FAULTS", _crash_once_faults())
        base = _sweep(tmp_path / "base")
        assert not base.failures
        base_dumps = _dumps(base)
        boundaries = atomicio.sequence_numbers().get(category, 0)
        assert boundaries >= 2, \
            f"baseline produced no {category} write boundaries"

        for seq in range(boundaries):
            workdir = tmp_path / f"{category}-{seq}"
            plan = _BoundaryPlan(category, seq)
            atomicio.reset_state()
            monkeypatch.setattr(atomicio, "plan_from_env",
                                lambda p=plan: p)
            # The writer's death must escape run_many (a real process
            # kill looks exactly like this), whether it died in the
            # parent's cache put or inside a failed attempt's triage
            # bundle write.
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                with pytest.raises(InjectedWriterDeath):
                    _sweep(workdir)
            monkeypatch.setattr(atomicio, "plan_from_env",
                                lambda: None)
            assert plan.fired, \
                f"{category} boundary {seq} never reached"
            atomicio.reset_state()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                resumed = _sweep(workdir)
            assert not resumed.failures
            assert _dumps(resumed) == base_dumps, \
                f"resume after {category} boundary {seq} diverged"
            _assert_clean_audit(workdir)

    def test_crash_between_manifest_flushes(self, tmp_path, monkeypatch):
        base = _sweep(tmp_path / "base")
        base_dumps = _dumps(base)
        flushes = atomicio.sequence_numbers().get("manifest", 0)
        assert flushes >= 2

        real_write = atomicio.atomic_write_json
        for target in range(flushes):
            workdir = tmp_path / f"manifest-{target}"
            state = {"calls": 0}

            def crashing(path, payload, *, category, _state=state,
                         _target=target, **kwargs):
                if category == "manifest":
                    call = _state["calls"]
                    _state["calls"] = call + 1
                    if call == _target:
                        raise InjectedCrash(
                            f"injected crash at manifest flush {call}")
                return real_write(path, payload, category=category,
                                  **kwargs)

            atomicio.reset_state()
            monkeypatch.setattr(atomicio, "atomic_write_json", crashing)
            try:
                _sweep(workdir)
            except InjectedCrash:
                pass
            monkeypatch.setattr(atomicio, "atomic_write_json",
                                real_write)
            assert state["calls"] > target
            atomicio.reset_state()
            resumed = _sweep(workdir)
            assert not resumed.failures
            assert _dumps(resumed) == base_dumps, \
                f"resume after manifest flush {target} diverged"
            _assert_clean_audit(workdir)

    def test_torn_cache_entry_is_quarantined_and_recomputed(
            self, tmp_path, monkeypatch):
        base = _sweep(tmp_path / "base")
        base_dumps = _dumps(base)

        workdir = tmp_path / "torn"
        plan = _BoundaryPlan("cache", 0, kind="torn")
        atomicio.reset_state()
        monkeypatch.setattr(atomicio, "plan_from_env", lambda: plan)
        torn = _sweep(workdir)
        monkeypatch.setattr(atomicio, "plan_from_env", lambda: None)
        assert plan.fired
        # The torn write renamed silently; results are still correct
        # (computed in memory) and the scar is caught at the next read.
        assert _dumps(torn) == base_dumps
        report = audit_state(workdir)
        assert report.ok
        assert any("corrupt entry" in f.message for f in report.warnings)

        atomicio.reset_state()
        with pytest.warns(RuntimeWarning, match="quarantined"):
            resumed = _sweep(workdir)
        assert _dumps(resumed) == base_dumps
        _assert_clean_audit(workdir)

    def test_sweep_survives_total_storage_failure(self, tmp_path,
                                                  monkeypatch):
        base = _sweep(tmp_path / "base")
        base_dumps = _dumps(base)
        # Every best-effort write fails with disk-full; only the
        # critical manifest lands.  The sweep must still complete with
        # byte-identical results and a clean (if scarred) audit.
        monkeypatch.setenv("REPRO_FAULTS", "enospc:1,seed:0")
        workdir = tmp_path / "full-disk"
        with pytest.warns(DurabilityWarning):
            report = _sweep(workdir)
        assert not report.failures
        assert _dumps(report) == base_dumps
        monkeypatch.delenv("REPRO_FAULTS")
        _assert_clean_audit(workdir)

    def test_chaos_plan_resumes_to_byte_identity(self, tmp_path,
                                                 monkeypatch):
        """The CI chaos-smoke recipe in miniature: a mixed
        torn+enospc+renamecrash plan, re-invoked until the sweep
        completes, must converge on the fault-free baseline."""
        base = _sweep(tmp_path / "base")
        base_dumps = _dumps(base)
        monkeypatch.setenv(
            "REPRO_FAULTS",
            "torn:0.08,enospc:0.08,renamecrash:0.04,seed:11")
        workdir = tmp_path / "chaos"
        report = None
        for _ in range(25):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                try:
                    report = _sweep(workdir)
                    break
                except InjectedCrash:
                    continue    # process died mid-write: run again
        assert report is not None, "chaos sweep never completed"
        assert not report.failures
        assert _dumps(report) == base_dumps
        monkeypatch.delenv("REPRO_FAULTS")
        atomicio.reset_state()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            resumed = _sweep(workdir)
        assert _dumps(resumed) == base_dumps
        _assert_clean_audit(workdir)


# ---------------------------------------------------------------------------
# Focused boundary tests for triage bundles and the old gc journal
# ---------------------------------------------------------------------------

class TestTriageAndGcStateBoundaries:
    def test_triage_writer_death_leaves_auditable_orphan(
            self, tmp_path, monkeypatch):
        spec = tiny_spec()
        monkeypatch.setenv("REPRO_FAULTS", "renamecrash:1,seed:0")
        with pytest.raises(InjectedCrash):
            triage.write_bundle(tmp_path, spec=spec,
                                fingerprint=spec.fingerprint(),
                                attempt=0, error="boom")
        monkeypatch.delenv("REPRO_FAULTS")
        report = audit_state(tmp_path)
        assert report.ok
        # A young temp file may belong to a live writer: counted, and
        # not a warning until it outlives the orphan TTL.
        assert report.scanned["orphans"] == 1
        assert not any(f.category == "orphans" for f in report.findings)
        later = audit_state(tmp_path,
                            now=atomicio.time_now() + atomicio.ORPHAN_TTL)
        assert any(f.category == "orphans" for f in later.warnings)

    def test_leftover_gc_journal_is_evicted_and_audit_stays_clean(
            self, tmp_path):
        """Older checkouts journalled each collection to
        ``gc-state.json``; nothing reads it now, so gc evicts it even
        when fresh, and audit never flags it."""
        journal = tmp_path / "gc-state.json"
        journal.write_text('{"format": 1, "checksum": "0", "body": {}}\n')
        report = _assert_clean_audit(tmp_path)
        assert report.scanned == {"legacy": 1} and not report.findings
        assert cli.main(["gc", "--cache-dir", str(tmp_path)]) == 0
        assert not journal.exists()
        assert not _assert_clean_audit(tmp_path).findings


# ---------------------------------------------------------------------------
# Manifest criticality
# ---------------------------------------------------------------------------

class TestManifestCriticality:
    def test_unwritable_manifest_fails_loudly(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        manifest = SweepManifest(blocker / MANIFEST_NAME)
        manifest.records = {}
        with pytest.raises(CriticalWriteError):
            manifest.flush()

    def test_manifest_flush_ignores_disk_fault_plans(self, tmp_path,
                                                     monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS",
                           "enospc:1,renamecrash:1,seed:0")
        manifest = SweepManifest(tmp_path / MANIFEST_NAME)
        manifest.flush()
        assert (tmp_path / MANIFEST_NAME).exists()
        data = json.loads((tmp_path / MANIFEST_NAME).read_text())
        assert "jobs" in data


# ---------------------------------------------------------------------------
# GC racing in-flight writes
# ---------------------------------------------------------------------------

class TestGcRaceSafety:
    def test_grace_window_pins_fresh_artifacts(self, tmp_path):
        now = atomicio.time_now()
        manifest = SweepManifest(tmp_path / MANIFEST_NAME)
        manifest.begin(["a" * 64], ["job-a"])
        manifest.mark_done("a" * 64)
        bundle = tmp_path / "triage" / ("a" * 12 + "-a0")
        bundle.mkdir(parents=True)
        (bundle / "job.json").write_bytes(b"fresh")
        plan = run_gc.plan_gc(tmp_path, now=now)
        assert plan.evictions == []
        (pinned,) = plan.pinned
        assert "grace window" in pinned.pin_reason

    def test_gc_never_eats_a_young_tmp_file(self, tmp_path):
        now = atomicio.time_now()
        young = tmp_path / "inflight.tmp"
        young.write_bytes(b"mid-write")
        stale = tmp_path / "abandoned.tmp"
        stale.write_bytes(b"dead")
        os.utime(stale, (now - 7200, now - 7200))
        plan = run_gc.plan_gc(tmp_path, now=now)
        evicted = {item.path for item in plan.evictions}
        assert stale in evicted and young not in evicted
        plan.apply()
        assert young.exists() and not stale.exists()
        _assert_clean_audit(tmp_path)

    def test_just_renamed_artifact_survives_aggressive_rules(
            self, tmp_path):
        now = atomicio.time_now()
        quarantine = tmp_path / "quarantine"
        quarantine.mkdir()
        (quarantine / "fresh.json").write_bytes(b"x" * 128)
        # gc evicts every quarantined entry -- but not a fresh one.
        plan = run_gc.plan_gc(tmp_path, now=now)
        assert plan.evictions == []
        assert len(plan.pinned) == 1

    def test_audit_clean_after_gc_on_a_real_sweep(self, tmp_path):
        _sweep(tmp_path)
        # Age everything past the grace window, then collect: gc must
        # leave every live entry and zero audit violations.
        old = atomicio.time_now() - 30 * 86400
        for path in tmp_path.rglob("*"):
            if path.name != MANIFEST_NAME:
                os.utime(path, (old, old))
        plan = run_gc.plan_gc(tmp_path)
        assert plan.evictions == []
        plan.apply()
        report = _assert_clean_audit(tmp_path)
        assert report.scanned == {"entries": 2, "manifest": 1}


# ---------------------------------------------------------------------------
# The recovery auditor
# ---------------------------------------------------------------------------

class TestAuditState:
    def test_missing_directory_is_a_note(self, tmp_path):
        report = audit_state(tmp_path / "never-created")
        assert report.ok
        assert len(report.notes) == 1

    def test_clean_sweep_audits_clean(self, tmp_path):
        _sweep(tmp_path)
        report = _assert_clean_audit(tmp_path)
        assert report.scanned == {"entries": 2, "manifest": 1}
        assert not report.findings
        assert not (tmp_path / "traces").exists()

    def test_corrupt_entry_is_a_warning_not_a_violation(self, tmp_path):
        _sweep(tmp_path)
        entry = sorted(p for p in tmp_path.glob("*.json")
                       if ResultCache._is_entry(p))[0]
        entry.write_text(entry.read_text()[: entry.stat().st_size // 2])
        report = audit_state(tmp_path)
        assert report.ok
        assert any("corrupt entry" in f.message
                   for f in report.warnings)

    def test_unparseable_manifest_is_a_violation(self, tmp_path):
        for text in ("{torn mid-write", "[]", '{"jobs": ["x"]}'):
            (tmp_path / MANIFEST_NAME).write_text(text)
            report = audit_state(tmp_path)
            assert not report.ok, text
            assert any(f.category == "manifest"
                       for f in report.violations)

    def test_double_charged_attempt_is_a_violation(self, tmp_path):
        record = {
            "fingerprint": "ab" * 32, "label": "cell", "status": "done",
            "attempts": 2, "cached": True, "error": "",
            "attempt_log": [
                {"attempt": 0, "outcome": "ok", "error": "",
                 "start_offset": 0},
                {"attempt": 0, "outcome": "ok", "error": "",
                 "start_offset": 0},
            ],
        }
        (tmp_path / MANIFEST_NAME).write_text(
            json.dumps({"format": 1, "jobs": [record]}))
        report = audit_state(tmp_path)
        assert not report.ok
        assert any("charged more than once" in f.message
                   for f in report.violations)

    def test_stale_orphans_warn_and_sweep_on_request(self, tmp_path):
        stray = tmp_path / "abandoned.tmp"
        stray.write_bytes(b"")
        now = atomicio.time_now() + 2 * atomicio.ORPHAN_TTL
        report = audit_state(tmp_path, now=now)
        assert report.ok
        assert any(f.category == "orphans" for f in report.warnings)
        swept = audit_state(tmp_path, now=now, sweep=True)
        assert swept.swept == 1 and not stray.exists()
        assert not audit_state(tmp_path, now=now).findings

    def test_format_report_states_the_verdict(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text("{")
        report = audit_state(tmp_path)
        text = report.format_report(verbose=True)
        assert "durability contract: VIOLATED" in text
        clean = audit_state(tmp_path / "empty-elsewhere")
        assert "durability contract: OK" in clean.format_report()


# ---------------------------------------------------------------------------
# R013: durable writes must go through atomicio
# ---------------------------------------------------------------------------

class TestR013Lint:
    @staticmethod
    def _lint_override(rel_path, source):
        from repro.check.lint import default_lint_root, lint_paths
        target = os.path.join(default_lint_root(), rel_path)
        violations, _ = lint_paths([target], overrides={target: source})
        return [v for v in violations if v.code == "R013"]

    def test_fires_on_raw_open_in_the_durable_tree(self):
        hits = self._lint_override(
            os.path.join("run", "cache.py"),
            "def probe(path, text):\n"
            "    with open(path, 'w') as fh:\n"
            "        fh.write(text)\n")
        assert len(hits) == 1
        assert "atomicio" in hits[0].message

    def test_fires_on_os_replace_and_path_write(self):
        hits = self._lint_override(
            os.path.join("trace", "tracefile.py"),
            "import os\n"
            "def probe(tmp, path):\n"
            "    os.replace(tmp, path)\n"
            "    path.write_bytes(b'x')\n")
        assert {v.line for v in hits} == {3, 4}

    def test_read_only_open_is_fine(self):
        hits = self._lint_override(
            os.path.join("run", "cache.py"),
            "def probe(path):\n"
            "    with open(path) as fh:\n"
            "        return fh.read()\n"
            "def probe2(path):\n"
            "    with open(path, 'rb') as fh:\n"
            "        return fh.read()\n")
        assert hits == []

    def test_atomicio_itself_is_exempt(self):
        hits = self._lint_override(
            os.path.join("run", "atomicio.py"),
            "import os\n"
            "def probe(tmp, path):\n"
            "    os.replace(tmp, path)\n")
        assert hits == []

    def test_pragma_escape_hatch(self):
        hits = self._lint_override(
            os.path.join("run", "cache.py"),
            "def probe(path, text):\n"
            "    path.write_text(text)  "
            "# repro-lint: disable=R013\n")
        assert hits == []

    def test_static_teeth_mutation_is_detected(self):
        from repro.check.mutations import run_static_mutation
        detail = run_static_mutation("raw-durable-write")
        assert "R013 fired" in detail

    def test_the_real_tree_is_clean(self):
        from repro.check.lint import default_lint_root, lint_paths
        violations, _ = lint_paths([default_lint_root()])
        assert [v for v in violations if v.code == "R013"] == []


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------

class TestAuditStateCli:
    def test_clean_directory_exits_zero(self, tmp_path, capsys):
        _sweep(tmp_path)
        assert cli.main(["--no-cache", "audit-state",
                         str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "durability contract: OK" in out

    def test_violation_exits_nonzero(self, tmp_path, capsys):
        (tmp_path / MANIFEST_NAME).write_text("{torn")
        assert cli.main(["--no-cache", "audit-state",
                         str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "durability contract: VIOLATED" in out

    def test_sweep_flag_removes_stale_orphans(self, tmp_path):
        stray = tmp_path / "abandoned.tmp"
        stray.write_bytes(b"")
        old = atomicio.time_now() - 2 * atomicio.ORPHAN_TTL
        os.utime(stray, (old, old))
        assert cli.main(["--no-cache", "audit-state", "--sweep",
                         str(tmp_path)]) == 0
        assert not stray.exists()

    def test_check_durability_flag_runs(self, tmp_path, monkeypatch):
        calls = {}

        def fake_suite(verbose=True, self_test=True, durability=False):
            calls["durability"] = durability
            return True

        monkeypatch.setattr("repro.check.run_check_suite", fake_suite)
        assert cli.main(["check", "--durability"]) == 0
        assert calls["durability"] is True
