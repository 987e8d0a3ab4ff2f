"""Tests for the cache garbage collector (``repro gc``).

gc evicts what no current reader can use: result entries filed under
a key other than their job's current fingerprint, quarantined entries,
triage bundles of ``done`` jobs, stale orphaned ``*.tmp`` files, and
the ``checkpoints/``, ``traces/`` and ``gc-state.json`` an older
checkout may have left in a cache.  Covers the plan, applying it, its
rendering, and that gc and ``repro audit-state`` walk one layout.
"""

import hashlib
import json
import os
from collections import Counter

import pytest

import repro.run
from repro.cli import main
from repro.params import ConsistencyImpl, default_system
from repro.run import (MANIFEST_NAME, JobSpec, ResultCache, SweepManifest,
                       WorkloadSpec, audit_state)
from repro.run import atomicio
from repro.run import gc as run_gc
from repro.run import jobs as run_jobs
from repro.run.jobs import fingerprint_of

NOW = 1_000_000.0
HOUR = 3600.0


def _touch(path, age_s, payload=b"x", now=NOW):
    """Create ``path`` (file) with mtime ``now - age_s``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(payload)
    stamp = now - age_s
    os.utime(path, (stamp, stamp))
    os.utime(path.parent, (stamp, stamp))


def _bundle(root, fingerprint, age_s=2 * HOUR, now=NOW):
    directory = root / "triage" / (fingerprint[:12] + "-a1")
    _touch(directory / "job.json", age_s=age_s, now=now)
    return directory


def _manifest(root, **statuses):
    """A sweep manifest recording one job per ``fingerprint=status``."""
    manifest = SweepManifest(root / MANIFEST_NAME)
    manifest.begin(list(statuses.values()), list(statuses))
    for label, fingerprint in statuses.items():
        if label in ("done", "failed", "running"):
            manifest.mark_running(fingerprint)
        if label == "done":
            manifest.mark_attempt(fingerprint, 0, "ok", "", "done")
        elif label == "failed":
            manifest.mark_attempt(fingerprint, 0, "failed", "boom",
                                  "failed")
    return manifest


@pytest.fixture
def isolated_runner(monkeypatch):
    """The CLI reconfigures the process-wide runner; undo it."""
    for name in ("_jobs", "_cache", "_manifest", "_policy"):
        monkeypatch.setattr(repro.run, name, getattr(repro.run, name))


def _tiny_spec(seed=0):
    return JobSpec(default_system(), WorkloadSpec("oltp"),
                   instructions=800, warmup=800, seed=seed)


class TestGc:
    def seed_cache(self, root):
        """A cache dir past the grace window: bundles of a done and a
        running job, a quarantined entry, a stale and a young orphan."""
        fp_done, fp_running = "a" * 64, "b" * 64
        # First: the manifest's first flush sweeps stale orphans.
        _manifest(root, done=fp_done, running=fp_running)
        _bundle(root, fp_done)
        _bundle(root, fp_running)
        _touch(root / "quarantine" / "bad.json", age_s=2 * HOUR,
               payload=b"y" * 100)
        _touch(root / "dead.tmp", age_s=2 * HOUR)
        _touch(root / "slow.tmp", age_s=HOUR / 2)
        return fp_done, fp_running

    def test_age_rule_evicts_only_the_old(self, tmp_path):
        """Orphans are the one kind gc judges by age: older than the
        orphan TTL goes, younger may still belong to a live writer."""
        self.seed_cache(tmp_path)
        plan = run_gc.plan_gc(tmp_path, now=NOW)
        orphans = {item.path.name: item for item in plan.items
                   if item.category == "orphans"}
        assert orphans["dead.tmp"].evict
        assert not orphans["slow.tmp"].evict
        assert not orphans["slow.tmp"].pinned

    def test_manifest_pins_in_flight_jobs(self, tmp_path):
        fp_done, fp_running = self.seed_cache(tmp_path)
        plan = run_gc.plan_gc(tmp_path, now=NOW)
        gone = {item.path.name for item in plan.evictions}
        assert gone == {fp_done[:12] + "-a1", "bad.json", "dead.tmp"}
        # The running job's bundle is kept; so is the manifest.
        kept = {item.path.name for item in plan.items if not item.evict}
        assert kept == {fp_running[:12] + "-a1", "slow.tmp",
                        MANIFEST_NAME}

    def test_apply_deletes_plan_and_spares_the_rest(self, tmp_path):
        fp_done, fp_running = self.seed_cache(tmp_path)
        plan = run_gc.plan_gc(tmp_path, now=NOW)
        removed, freed = plan.apply()
        assert removed == 3 and freed == plan.freed_bytes() > 0
        assert not (tmp_path / "triage" / (fp_done[:12] + "-a1")).exists()
        assert not (tmp_path / "quarantine" / "bad.json").exists()
        assert not (tmp_path / "dead.tmp").exists()
        assert (tmp_path / "triage" / (fp_running[:12] + "-a1")).exists()
        assert (tmp_path / "slow.tmp").exists()
        assert (tmp_path / MANIFEST_NAME).exists()

    def test_format_plan_mentions_categories_and_reasons(self, tmp_path):
        self.seed_cache(tmp_path)
        plan = run_gc.plan_gc(tmp_path, now=NOW)
        text = plan.format_plan(verbose=True)
        assert "gc plan: 3 evictions" in text
        assert "triage" in text and "quarantine" in text
        assert "job done" in text and "older than 1h" in text

    def test_empty_cache_dir_plans_nothing(self, tmp_path):
        plan = run_gc.plan_gc(tmp_path / "missing", now=NOW)
        assert plan.items == [] and plan.evictions == []
        assert "0 evictions" in plan.format_plan()


class TestDoneBundles:
    def test_only_the_bundle_of_a_done_job_goes(self, tmp_path):
        fps = {"done": "a" * 64, "failed": "b" * 64, "running": "c" * 64}
        for fingerprint in fps.values():
            _bundle(tmp_path, fingerprint)
        _manifest(tmp_path, **fps)
        plan = run_gc.plan_gc(tmp_path, now=NOW)
        gone = {item.path.name for item in plan.evictions}
        assert gone == {fps["done"][:12] + "-a1"}
        kept = {item.path.name for item in plan.items
                if item.category == "triage" and not item.evict}
        assert kept == {fps["failed"][:12] + "-a1",
                        fps["running"][:12] + "-a1"}
        # With a torn manifest no job reads as done: nothing goes.
        manifest = tmp_path / MANIFEST_NAME
        manifest.write_text(manifest.read_text()[:40])
        assert run_gc.plan_gc(tmp_path, now=NOW).evictions == []


@pytest.mark.usefixtures("isolated_runner")
class TestStaleEntries:
    def test_gc_evicts_entries_of_another_model_version(
            self, tmp_path, monkeypatch):
        spec = _tiny_spec()
        result = spec.run()
        with monkeypatch.context() as patch:
            patch.setattr(run_jobs, "MODEL_VERSION",
                          run_jobs.MODEL_VERSION + 1)
            stale_key = spec.fingerprint()
            assert ResultCache(tmp_path).put(spec, result, stale_key)
        current_key = spec.fingerprint()
        assert current_key != stale_key
        assert ResultCache(tmp_path).put(spec, result, current_key)
        stale = tmp_path / f"{stale_key}.json"
        # Unparseable entries stay for the reader to quarantine.
        torn = tmp_path / f"{'e' * 64}.json"
        torn.write_text('{"job": ')
        old = atomicio.time_now() - 2 * HOUR
        for path in (stale, torn):
            os.utime(path, (old, old))

        assert main(["gc", "--cache-dir", str(tmp_path)]) == 0
        assert not stale.exists() and torn.exists()
        assert (tmp_path / f"{current_key}.json").exists()
        cache = ResultCache(tmp_path)
        assert cache.get(spec, spec.fingerprint()).dump() == result.dump()
        assert cache.hits == 1

    def test_gc_evicts_entries_under_a_non_canonical_key(self, tmp_path):
        """Before keys were taken over canonical params, RC-prefetch had
        a key of its own; no lookup reaches an entry filed under it."""
        spec = JobSpec(default_system(
            consistency_impl=ConsistencyImpl.PREFETCH), WorkloadSpec("oltp"),
            instructions=800, warmup=800)
        text = json.dumps({"model_version": run_jobs.MODEL_VERSION,
                           "job": run_jobs.keyed_job(spec.to_dict())},
                          sort_keys=True, separators=(",", ":"))
        old_key = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert old_key != spec.fingerprint()
        result = spec.run()
        cache = ResultCache(tmp_path)
        assert cache.put(spec, result, spec.fingerprint())
        canonical = tmp_path / f"{spec.fingerprint()}.json"
        stale = tmp_path / f"{old_key}.json"
        stale.write_bytes(canonical.read_bytes())
        other = _tiny_spec(seed=1)
        assert cache.put(other, other.run(), other.fingerprint())
        old = atomicio.time_now() - 2 * HOUR
        for path in tmp_path.glob("*.json"):
            os.utime(path, (old, old))

        plan = run_gc.plan_gc(tmp_path)
        assert [item.path for item in plan.evictions] == [stale]
        assert main(["gc", "--cache-dir", str(tmp_path)]) == 0
        assert not stale.exists() and canonical.exists()
        assert (tmp_path / f"{other.fingerprint()}.json").exists()
        hit = ResultCache(tmp_path).get(spec, spec.fingerprint())
        assert hit.params == spec.params

    def test_young_stale_entry_is_pinned(self, tmp_path):
        spec = _tiny_spec()
        cache = ResultCache(tmp_path)
        cache.put(spec, spec.run(), spec.fingerprint())
        entry = tmp_path / f"{spec.fingerprint()}.json"
        renamed = tmp_path / f"{'f' * 64}.json"
        entry.rename(renamed)
        plan = run_gc.plan_gc(tmp_path)
        assert plan.evictions == []
        assert [item.path for item in plan.pinned] == [renamed]

    def test_every_entry_of_a_sweep_is_filed_under_fingerprint_of(
            self, tmp_path):
        """gc's stale-entry test and ``ResultCache.get`` share one key
        recipe; were they to drift, gc would evict live results."""
        assert main(["--quick", "sweep", "oltp", "--seeds", "2",
                     "--jobs", "1", "--cache-dir", str(tmp_path)]) == 0
        entries = [path for path in tmp_path.glob("*.json")
                   if path.name != MANIFEST_NAME]
        assert len(entries) == 2
        for path in entries:
            entry = json.loads(path.read_text())
            assert fingerprint_of(entry["job"]) == path.stem
        plan = run_gc.plan_gc(tmp_path, now=atomicio.time_now() + HOUR)
        assert plan.evictions == []


def _seed_every_kind(root, now):
    """One artifact of each kind in the table, all at ``now``."""
    _touch(root / f"{'c' * 64}.json", age_s=0, payload=b"{}", now=now)
    _manifest(root, done="d" * 64)
    _touch(root / "quarantine" / "bad.json", age_s=0, now=now)
    _bundle(root, "d" * 64, age_s=0, now=now)
    _touch(root / "writer.tmp", age_s=0, now=now)
    _touch(root / "checkpoints" / "x.ckpt", age_s=0, now=now)
    _touch(root / "gc-state.json", age_s=0, payload=b"{}", now=now)


def test_gc_inventory_and_audit_scan_the_same_artifacts(tmp_path):
    now = atomicio.time_now()
    _seed_every_kind(tmp_path, now)
    plan = run_gc.plan_gc(tmp_path, now=now)
    report = audit_state(tmp_path, now=now)
    inventory = Counter(item.category for item in plan.items)
    assert inventory == Counter(report.scanned)
    assert set(inventory) == {"entries", "manifest", "quarantine",
                              "triage", "orphans", "legacy"}
    assert inventory["legacy"] == 2


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


@pytest.mark.usefixtures("isolated_runner")
class TestLegacyCheckpointTree:
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


@pytest.mark.usefixtures("isolated_runner")
class TestLegacyTraceTree:
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
