"""Retention GC for cache-adjacent artifacts: plan first, then apply.

Long sweep campaigns accrete two kinds of disk debris under the
result cache: crash-**triage** bundles (``triage/<fp12>-aN/``) and
**quarantined** corrupt cache entries (``quarantine/*.json``).  Results
themselves are never touched -- they are the product; everything here
is recoverable scaffolding.  Caches written before mid-job checkpoints
or trace arenas were removed may also hold a ``checkpoints/`` or
``traces/`` tree; nothing reads either, so every collection evicts them
whole, whatever the rules say.

``repro gc`` builds a :class:`GcPlan` from per-category
:class:`RetentionRule` caps (age, count, total bytes -- applied in that
order, evicting oldest first) and only deletes when asked
(``--dry-run`` is the default posture in CI).  The plan is
**manifest-aware**: artifacts belonging to jobs the sweep manifest
still considers in flight (``pending``/``running``/``retrying``) are
*pinned* -- reported, counted against the caps, but never evicted --
so a GC run concurrent with (or between resumes of) a sweep cannot eat
the bundle of a crash that has not been triaged.

A third category, **orphans**, covers ``*.tmp`` files abandoned by
writers that died between ``mkstemp`` and the final rename (including
injected ``renamecrash`` faults): the cache root and the triage
trees.  Race safety: any item -- orphan or artifact -- whose newest
mtime is younger than :data:`GC_GRACE_S` is pinned outright, so a gc
run concurrent with a live sweep can never eat an in-flight temp file
or a just-renamed artifact, even under ``--max-age-days 0``.

After :meth:`GcPlan.apply`, :func:`write_gc_state` journals the run
(``gc-state.json``, checksummed via
:func:`repro.run.atomicio.write_checked_json`) so ``repro audit-state``
can cross-check the last collection.

Determinism note: the only clock here is host housekeeping time
(:func:`repro.run.cache.time_now`); nothing simulated ever reads it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.run import atomicio
from repro.run.cache import time_now

#: Seconds per day, for readable rule declarations.
_DAY = 86400.0

#: Manifest statuses that pin a job's artifacts against eviction.
PINNED_STATUSES = ("pending", "running", "retrying")

#: Grace window (seconds): nothing younger than this is ever evicted,
#: whatever the rules say -- it may be an in-flight write racing the
#: collection.  Durable writes land in milliseconds, so one minute is
#: generous without starving tight count/bytes caps.
GC_GRACE_S = 60.0

#: File name of the gc journal inside the cache directory.
GC_STATE_NAME = "gc-state.json"

#: ``gc-state.json`` body schema version.
GC_STATE_FORMAT = 1


@dataclass(frozen=True)
class RetentionRule:
    """Retention caps for one artifact category (``None`` = uncapped).

    Applied in order: items older than ``max_age_s`` are evicted first;
    then the oldest items beyond ``max_count``; then the oldest items
    until the category fits ``max_bytes``.
    """

    max_age_s: Optional[float] = None
    max_count: Optional[int] = None
    max_bytes: Optional[int] = None


#: Subdirectories of a cache written before mid-job checkpoints and
#: trace arenas were removed, with the reason gc gives for collecting
#: each whole (see the module docstring).
LEGACY_TREES: Dict[str, str] = {
    "checkpoints": "legacy checkpoint tree",
    "traces": "legacy trace tree",
}

#: Default retention policy per category.  Triage bundles and
#: quarantined entries are evidence, so a count cap keeps the newest.
DEFAULT_RULES: Dict[str, RetentionRule] = {
    "triage": RetentionRule(max_age_s=7 * _DAY, max_count=50),
    "quarantine": RetentionRule(max_age_s=7 * _DAY, max_count=200),
    # Abandoned *.tmp files are pure debris once stale; the orphan TTL
    # matches the writers' own startup sweeps.
    "orphans": RetentionRule(max_age_s=atomicio.ORPHAN_TTL),
}


@dataclass
class GcItem:
    """One evictable artifact (a directory tree or single file)."""

    category: str
    path: Path
    mtime: float
    bytes: int
    pinned: bool = False
    pin_reason: str = ""
    evict: bool = False
    evict_reason: str = ""

    def age_s(self, now: float) -> float:
        return max(0.0, now - self.mtime)


@dataclass
class GcPlan:
    """A fully-decided eviction plan; inspect, print, then apply."""

    now: float
    items: List[GcItem] = field(default_factory=list)

    @property
    def evictions(self) -> List[GcItem]:
        return [item for item in self.items if item.evict]

    @property
    def pinned(self) -> List[GcItem]:
        return [item for item in self.items if item.pinned]

    def freed_bytes(self) -> int:
        return sum(item.bytes for item in self.evictions)

    def format_plan(self, verbose: bool = False) -> str:
        """Human summary; ``verbose`` lists every planned eviction."""
        by_cat: Dict[str, Tuple[int, int, int]] = {}
        for item in self.items:
            kept, gone, freed = by_cat.get(item.category, (0, 0, 0))
            if item.evict:
                by_cat[item.category] = (kept, gone + 1,
                                         freed + item.bytes)
            else:
                by_cat[item.category] = (kept + 1, gone, freed)
        lines = [f"gc plan: {len(self.evictions)} evictions, "
                 f"{_human_bytes(self.freed_bytes())} reclaimable, "
                 f"{len(self.pinned)} pinned"]
        for category in sorted(by_cat):
            kept, gone, freed = by_cat[category]
            lines.append(f"  {category:<12s} keep {kept:>4d}  "
                         f"evict {gone:>4d}  ({_human_bytes(freed)})")
        if verbose:
            for item in self.evictions:
                lines.append(
                    f"  rm {item.path}  [{item.evict_reason}, "
                    f"{item.age_s(self.now) / _DAY:.1f}d, "
                    f"{_human_bytes(item.bytes)}]")
            for item in self.pinned:
                lines.append(f"  pin {item.path}  [{item.pin_reason}]")
        return "\n".join(lines)

    def apply(self) -> Tuple[int, int]:
        """Delete every planned eviction; ``(removed, freed bytes)``.

        Best-effort per item: an undeletable path is skipped, the rest
        of the plan still applies.
        """
        import shutil
        removed = 0
        freed = 0
        for item in self.evictions:
            try:
                if item.path.is_dir():
                    shutil.rmtree(item.path)
                else:
                    item.path.unlink()
            except OSError:
                continue
            removed += 1
            freed += item.bytes
        return removed, freed


def _human_bytes(count: int) -> str:
    value = float(count)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024.0 or unit == "GiB":
            return f"{value:.1f} {unit}" if unit != "B" \
                else f"{int(value)} B"
        value /= 1024.0
    return f"{int(count)} B"


def _tree_stat(path: Path) -> Tuple[float, int]:
    """``(newest mtime, total bytes)`` over a file or directory tree.

    The newest mtime anywhere in the tree is the item's age -- a
    bundle directory whose latest file is fresh must read as fresh even
    if the directory inode itself is old.
    """
    try:
        stat = path.stat()
    except OSError:
        return 0.0, 0
    if not path.is_dir():
        return stat.st_mtime, stat.st_size
    newest = stat.st_mtime
    total = 0
    for child in sorted(path.rglob("*")):
        try:
            child_stat = child.stat()
        except OSError:
            continue
        if child.is_file():
            total += child_stat.st_size
        newest = max(newest, child_stat.st_mtime)
    return newest, total


def _pinned_fingerprints(manifest) -> set:
    """The fp12 prefixes of in-flight jobs."""
    short: set = set()
    if manifest is not None:
        for fingerprint in sorted(manifest.records):
            if manifest.records[fingerprint].status in PINNED_STATUSES:
                short.add(fingerprint[:12])
    return short


def collect_items(cache_dir: Union[str, Path],
                  manifest=None) -> List[GcItem]:
    """Inventory every GC-eligible artifact under ``cache_dir``."""
    from repro.run import triage
    cache_dir = Path(cache_dir)
    pinned_short = _pinned_fingerprints(manifest)
    items: List[GcItem] = []

    for name, reason in LEGACY_TREES.items():
        legacy = cache_dir / name
        if legacy.is_dir():
            mtime, size = _tree_stat(legacy)
            items.append(GcItem(name, legacy, mtime, size, evict=True,
                                evict_reason=reason))

    for directory in triage.bundle_dirs(cache_dir):
        mtime, size = _tree_stat(directory)
        fp12 = directory.name.split("-a")[0]
        pinned = fp12 in pinned_short
        items.append(GcItem(
            "triage", directory, mtime, size, pinned=pinned,
            pin_reason="job in flight" if pinned else ""))

    quarantine = cache_dir / "quarantine"
    if quarantine.is_dir():
        for entry in sorted(quarantine.iterdir()):
            mtime, size = _tree_stat(entry)
            items.append(GcItem("quarantine", entry, mtime, size))

    for stray in _orphan_tmp_files(cache_dir):
        mtime, size = _tree_stat(stray)
        items.append(GcItem("orphans", stray, mtime, size))

    return items


def _orphan_tmp_files(cache_dir: Path) -> List[Path]:
    """Every abandoned ``*.tmp`` across the durable tree, sorted:
    the cache root (entries + manifest) and triage bundles."""
    from repro.run import triage
    directories = [cache_dir]
    directories.extend(triage.bundle_dirs(cache_dir))
    strays: List[Path] = []
    for directory in directories:
        strays.extend(atomicio.orphan_tmp_files(directory))
    return sorted(strays)


def plan_gc(cache_dir: Union[str, Path],
            rules: Optional[Dict[str, RetentionRule]] = None,
            manifest=None, now: Optional[float] = None) -> GcPlan:
    """Decide what to evict under ``cache_dir``; nothing is deleted.

    ``manifest`` (a :class:`~repro.run.manifest.SweepManifest`) enables
    pinning; ``now`` overrides the housekeeping clock for tests.
    """
    if now is None:
        now = time_now()
    rules = rules if rules is not None else DEFAULT_RULES
    plan = GcPlan(now=now, items=collect_items(cache_dir, manifest))
    for item in plan.items:
        # Race safety: a fresh mtime means a writer may be mid-flight
        # (an in-progress temp file, a just-renamed artifact).  Pin it
        # unconditionally; the next collection gets it once it is
        # genuinely stale.
        if not item.pinned and not item.evict \
                and item.age_s(now) < GC_GRACE_S:
            item.pinned = True
            item.pin_reason = (f"younger than grace window "
                               f"({GC_GRACE_S:.0f}s)")
    by_cat: Dict[str, List[GcItem]] = {}
    for item in plan.items:
        by_cat.setdefault(item.category, []).append(item)
    for category, items in sorted(by_cat.items()):
        rule = rules.get(category)
        if rule is None:
            continue
        _apply_rule(items, rule, now)
    return plan


def _apply_rule(items: Sequence[GcItem], rule: RetentionRule,
                now: float) -> None:
    """Mark evictions for one category, oldest first.

    Pinned items participate in the caps (they still occupy disk) but
    are never marked.  Ties on mtime break on path for determinism.
    """
    ordered = sorted(items, key=lambda item: (item.mtime, str(item.path)))

    def mark(item: GcItem, reason: str) -> None:
        if not item.pinned and not item.evict:
            item.evict = True
            item.evict_reason = reason

    if rule.max_age_s is not None:
        for item in ordered:
            if item.age_s(now) > rule.max_age_s:
                mark(item, f"older than {rule.max_age_s / _DAY:.1f}d")

    if rule.max_count is not None:
        surviving = [item for item in ordered if not item.evict]
        excess = len(surviving) - rule.max_count
        for item in surviving:
            if excess <= 0:
                break
            if not item.pinned:
                mark(item, f"count cap {rule.max_count}")
            # A pinned item still uses a slot, so the excess only
            # shrinks when something actually goes.
            if item.evict:
                excess -= 1

    if rule.max_bytes is not None:
        surviving = [item for item in ordered if not item.evict]
        total = sum(item.bytes for item in surviving)
        for item in surviving:
            if total <= rule.max_bytes:
                break
            if not item.pinned:
                mark(item, f"size cap {_human_bytes(rule.max_bytes)}")
            if item.evict:
                total -= item.bytes


# ------------------------------------------------------------------ journal

def gc_state_path(cache_dir: Union[str, Path]) -> Path:
    return Path(cache_dir) / GC_STATE_NAME


def write_gc_state(cache_dir: Union[str, Path], plan: GcPlan,
                   removed: int, freed: int) -> bool:
    """Journal one applied collection (best-effort, checksummed).

    The body records what the plan decided and what actually went, per
    category, so ``repro audit-state`` can verify the journal parses
    and matches its checksum after a faulted run.
    """
    by_cat: Dict[str, int] = {}
    for item in plan.evictions:
        by_cat[item.category] = by_cat.get(item.category, 0) + 1
    body: Dict[str, Any] = {
        "format": GC_STATE_FORMAT,
        "applied_at": plan.now,
        "planned": len(plan.evictions),
        "removed": removed,
        "freed_bytes": freed,
        "pinned": len(plan.pinned),
        "evictions_by_category": {key: by_cat[key]
                                  for key in sorted(by_cat)},
    }
    return atomicio.write_checked_json(gc_state_path(cache_dir), body,
                                       category="gcstate")


def read_gc_state(cache_dir: Union[str, Path]) -> Optional[Dict[str, Any]]:
    """The last gc journal body, or ``None`` when absent.

    Raises :class:`~repro.run.atomicio.FramedReadError` on a corrupt
    journal (the audit reports it; the journal is best-effort state,
    so the caller may simply delete it).
    """
    path = gc_state_path(cache_dir)
    if not path.exists():
        return None
    return atomicio.read_checked_json(path)
