"""Tests for the retention GC (``repro gc``).

Covers the eviction planner's age, count and byte caps, manifest pins
that protect in-flight jobs, applying a plan, its rendering, and the
``checkpoints/`` and ``traces/`` trees an older checkout may have left
in a cache.
"""

import os

import pytest

import repro.run
from repro.cli import main
from repro.run import MANIFEST_NAME, SweepManifest, audit_state
from repro.run import gc as run_gc

NOW = 1_000_000.0


def _touch(path, age_s, payload=b"x"):
    """Create ``path`` (file) with mtime ``NOW - age_s``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(payload)
    stamp = NOW - age_s
    os.utime(path, (stamp, stamp))
    os.utime(path.parent, (stamp, stamp))


class TestGc:
    def seed_cache(self, root):
        """A cache dir with one artifact per category at known ages."""
        fp_old, fp_new = "a" * 64, "b" * 64
        _touch(root / "triage" / (fp_old[:12] + "-a1") / "job.json",
               age_s=9 * 86400)
        _touch(root / "triage" / (fp_new[:12] + "-a1") / "job.json",
               age_s=1 * 86400)
        _touch(root / "quarantine" / "stale.json", age_s=8 * 86400,
               payload=b"y" * 100)
        _touch(root / "quarantine" / "bad.json", age_s=2 * 86400)
        return fp_old, fp_new

    def test_age_rule_evicts_only_the_old(self, tmp_path):
        fp_old, fp_new = self.seed_cache(tmp_path)
        plan = run_gc.plan_gc(tmp_path, now=NOW)
        gone = {item.path.name for item in plan.evictions}
        assert gone == {fp_old[:12] + "-a1", "stale.json"}
        kept = {item.path.name for item in plan.items if not item.evict}
        assert kept == {fp_new[:12] + "-a1", "bad.json"}
        assert plan.freed_bytes() > 0

    def test_manifest_pins_in_flight_jobs(self, tmp_path):
        fp_old, _ = self.seed_cache(tmp_path)
        manifest = SweepManifest(tmp_path / MANIFEST_NAME)
        manifest.begin([fp_old], ["job-a"])
        manifest.mark_running(fp_old)
        plan = run_gc.plan_gc(tmp_path, manifest=manifest, now=NOW)
        pinned = {item.path.name for item in plan.pinned}
        # The triage bundle (fp12 prefix) of the running job survives.
        assert pinned == {fp_old[:12] + "-a1"}
        gone = {item.path.name for item in plan.evictions}
        assert gone == {"stale.json"}

    def test_count_cap_keeps_newest_and_pins_hold_slots(self, tmp_path):
        root = tmp_path
        for n, age in enumerate((300.0, 200.0, 100.0)):
            _touch(root / "triage" / (f"{n:012d}" + "-a1") / "job.json",
                   age_s=age)
        manifest = SweepManifest(root / MANIFEST_NAME)
        oldest = "0" * 11 + "0"
        manifest.begin([oldest + "f" * 52], ["job-a"])
        manifest.mark_running(oldest + "f" * 52)
        rules = {"triage": run_gc.RetentionRule(max_count=2)}
        plan = run_gc.plan_gc(root, rules=rules, manifest=manifest,
                              now=NOW)
        # Three bundles, cap two, oldest pinned: the pin occupies a
        # slot, so the middle bundle goes and the newest survives.
        gone = {item.path.name for item in plan.evictions}
        assert gone == {f"{1:012d}" + "-a1"}

    def test_bytes_cap_evicts_oldest_first(self, tmp_path):
        for n, age in enumerate((300.0, 200.0, 100.0)):
            _touch(tmp_path / "quarantine" / f"q{n}.json", age_s=age,
                   payload=b"z" * 400)
        rules = {"quarantine": run_gc.RetentionRule(max_bytes=900)}
        plan = run_gc.plan_gc(tmp_path, rules=rules, now=NOW)
        gone = {item.path.name for item in plan.evictions}
        assert gone == {"q0.json"}   # 1200 -> 800 bytes

    def test_apply_deletes_plan_and_spares_the_rest(self, tmp_path):
        fp_old, fp_new = self.seed_cache(tmp_path)
        plan = run_gc.plan_gc(tmp_path, now=NOW)
        removed, freed = plan.apply()
        assert removed == 2 and freed == plan.freed_bytes()
        assert not (tmp_path / "triage" / (fp_old[:12] + "-a1")).exists()
        assert not (tmp_path / "quarantine" / "stale.json").exists()
        assert (tmp_path / "triage" / (fp_new[:12] + "-a1")).exists()
        assert (tmp_path / "quarantine" / "bad.json").exists()

    def test_format_plan_mentions_categories_and_reasons(self, tmp_path):
        self.seed_cache(tmp_path)
        plan = run_gc.plan_gc(tmp_path, now=NOW)
        text = plan.format_plan(verbose=True)
        assert "gc plan: 2 evictions" in text
        assert "triage" in text and "quarantine" in text
        assert "older than 7.0d" in text

    def test_empty_cache_dir_plans_nothing(self, tmp_path):
        plan = run_gc.plan_gc(tmp_path / "missing", now=NOW)
        assert plan.items == [] and plan.evictions == []
        assert "0 evictions" in plan.format_plan()


def _seed_legacy_checkpoints(root):
    """A ``checkpoints/`` tree as an older checkout left it, written just
    now: an in-flight job's checkpoint file, and the ``quarantine/``
    directory a job's store kept after clearing its checkpoints."""
    fp = "c" * 64
    for path in (root / "checkpoints" / fp / "ck-000000100000.ckpt",
                 root / "checkpoints" / ("d" * 64) / "quarantine"
                 / "ck-000000200000.ckpt"):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"RPCKPT01")
    manifest = SweepManifest(root / MANIFEST_NAME)
    manifest.begin([fp], ["job-c"])
    manifest.mark_running(fp)


class TestLegacyCheckpointTree:
    @pytest.fixture(autouse=True)
    def isolated_runner(self, monkeypatch):
        """The CLI reconfigures the process-wide runner; undo it."""
        for name in ("_jobs", "_cache", "_manifest", "_policy",
                     "_resume"):
            monkeypatch.setattr(repro.run, name, getattr(repro.run, name))

    def test_gc_deletes_the_whole_tree_and_dry_run_lists_it(
            self, tmp_path, capsys):
        """Nothing reads the tree any more: gc evicts it whole, even a
        fresh one holding an in-flight job's files, and a dry run only
        lists it."""
        _seed_legacy_checkpoints(tmp_path)
        legacy = tmp_path / "checkpoints"
        assert main(["gc", "--cache-dir", str(tmp_path), "--dry-run",
                     "--verbose"]) == 0
        out = capsys.readouterr().out
        assert f"rm {legacy}" in out and "legacy checkpoint tree" in out
        assert legacy.is_dir()
        assert main(["gc", "--cache-dir", str(tmp_path)]) == 0
        assert not legacy.exists()

    def test_audit_state_passes_a_cache_holding_one(self, tmp_path):
        _seed_legacy_checkpoints(tmp_path)
        report = audit_state(tmp_path)
        assert report.ok, report.format_report(verbose=True)
        assert main(["--no-cache", "audit-state", str(tmp_path)]) == 0


def _seed_legacy_traces(root):
    """A ``traces/`` tree as an older checkout left it, written just now:
    a trace arena, a quarantined one, and a writer's temp file."""
    for path in (root / "traces" / ("e" * 64 + ".arena"),
                 root / "traces" / "quarantine" / ("f" * 64 + ".arena"),
                 root / "traces" / "tmpa1b2c3.tmp"):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"RPARENA1")


class TestLegacyTraceTree:
    @pytest.fixture(autouse=True)
    def isolated_runner(self, monkeypatch):
        """The CLI reconfigures the process-wide runner; undo it."""
        for name in ("_jobs", "_cache", "_manifest", "_policy",
                     "_resume"):
            monkeypatch.setattr(repro.run, name, getattr(repro.run, name))

    def test_gc_deletes_the_whole_tree_and_dry_run_lists_it(
            self, tmp_path, capsys):
        """Nothing reads the tree any more: gc evicts it whole, even a
        fresh one, and a dry run only lists it."""
        _seed_legacy_traces(tmp_path)
        legacy = tmp_path / "traces"
        assert main(["gc", "--cache-dir", str(tmp_path), "--dry-run",
                     "--verbose"]) == 0
        out = capsys.readouterr().out
        assert f"rm {legacy}" in out and "legacy trace tree" in out
        assert legacy.is_dir()
        assert main(["gc", "--cache-dir", str(tmp_path)]) == 0
        assert not legacy.exists()

    def test_audit_state_passes_a_cache_holding_one(self, tmp_path):
        _seed_legacy_traces(tmp_path)
        report = audit_state(tmp_path)
        assert report.ok, report.format_report(verbose=True)
        assert not report.findings
        assert main(["--no-cache", "audit-state", str(tmp_path)]) == 0
