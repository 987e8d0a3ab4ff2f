"""Tests for the retention GC (``repro gc``).

Covers the eviction planner's age, count and byte caps, manifest pins
that protect in-flight jobs, applying a plan, and its rendering.
"""

import os

from repro.run import MANIFEST_NAME, SweepManifest
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
        _touch(root / "checkpoints" / fp_old / "ck-1.ckpt", age_s=10 * 86400)
        _touch(root / "checkpoints" / fp_new / "ck-1.ckpt", age_s=1 * 86400)
        _touch(root / "triage" / (fp_old[:12] + "-a1") / "job.json",
               age_s=9 * 86400)
        _touch(root / "traces" / "t1.arena", age_s=8 * 86400,
               payload=b"y" * 100)
        _touch(root / "quarantine" / "bad.json", age_s=2 * 86400)
        return fp_old, fp_new

    def test_age_rule_evicts_only_the_old(self, tmp_path):
        fp_old, fp_new = self.seed_cache(tmp_path)
        plan = run_gc.plan_gc(tmp_path, now=NOW)
        gone = {item.path.name for item in plan.evictions}
        assert gone == {fp_old, fp_old[:12] + "-a1", "t1.arena"}
        kept = {item.path.name for item in plan.items if not item.evict}
        assert kept == {fp_new, "bad.json"}
        assert plan.freed_bytes() > 0

    def test_manifest_pins_in_flight_jobs(self, tmp_path):
        fp_old, _ = self.seed_cache(tmp_path)
        manifest = SweepManifest(tmp_path / MANIFEST_NAME)
        manifest.begin([fp_old], ["job-a"])
        manifest.mark_running(fp_old)
        plan = run_gc.plan_gc(tmp_path, manifest=manifest, now=NOW)
        pinned = {item.path.name for item in plan.pinned}
        # Both the checkpoint dir (full fingerprint) and the triage
        # bundle (fp12 prefix) of the running job survive.
        assert pinned == {fp_old, fp_old[:12] + "-a1"}
        gone = {item.path.name for item in plan.evictions}
        assert gone == {"t1.arena"}

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
            _touch(tmp_path / "traces" / f"t{n}.arena", age_s=age,
                   payload=b"z" * 400)
        rules = {"arenas": run_gc.RetentionRule(max_bytes=900)}
        plan = run_gc.plan_gc(tmp_path, rules=rules, now=NOW)
        gone = {item.path.name for item in plan.evictions}
        assert gone == {"t0.arena"}   # 1200 -> 800 bytes

    def test_apply_deletes_plan_and_spares_the_rest(self, tmp_path):
        fp_old, fp_new = self.seed_cache(tmp_path)
        plan = run_gc.plan_gc(tmp_path, now=NOW)
        removed, freed = plan.apply()
        assert removed == 3 and freed == plan.freed_bytes()
        assert not (tmp_path / "checkpoints" / fp_old).exists()
        assert not (tmp_path / "traces" / "t1.arena").exists()
        assert (tmp_path / "checkpoints" / fp_new).exists()
        assert (tmp_path / "quarantine" / "bad.json").exists()

    def test_format_plan_mentions_categories_and_reasons(self, tmp_path):
        self.seed_cache(tmp_path)
        plan = run_gc.plan_gc(tmp_path, now=NOW)
        text = plan.format_plan(verbose=True)
        assert "gc plan: 3 evictions" in text
        assert "checkpoints" in text and "arenas" in text
        assert "older than 7.0d" in text

    def test_empty_cache_dir_plans_nothing(self, tmp_path):
        plan = run_gc.plan_gc(tmp_path / "missing", now=NOW)
        assert plan.items == [] and plan.evictions == []
        assert "0 evictions" in plan.format_plan()
