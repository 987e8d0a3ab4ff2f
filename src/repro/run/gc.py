"""Cache garbage collection: evict what no current reader can use.

``repro gc`` walks the artifact table of :mod:`repro.run.cache`
(:func:`~repro.run.cache.inventory`) and asks each artifact's kind
whether any current reader can still use it.  What none can goes:

* result entries filed under a key other than their job's current
  fingerprint (another ``MODEL_VERSION``, an older job format, or a key
  taken over non-canonical params), which
  :meth:`~repro.run.cache.ResultCache.get` can never hit;
* every quarantined entry;
* triage bundles of jobs the sweep manifest beside them records as
  ``done`` (a retry resolved the failure);
* orphaned ``*.tmp`` files older than
  :data:`~repro.run.atomicio.ORPHAN_TTL`;
* the ``checkpoints/`` and ``traces/`` trees and the ``gc-state.json``
  journal an older checkout may have left, whole.

Everything else stays: current entries, the manifest, and the bundles
of pending, running, retrying or failed jobs.  ``repro gc`` builds a
:class:`GcPlan` first and only deletes when asked (``--dry-run`` is the
default posture in CI).  Race safety: an item whose newest mtime is
younger than :data:`GC_GRACE_S` is pinned, not evicted, so a gc run
concurrent with a live sweep can never eat an in-flight temp file or a
just-renamed artifact.  Legacy trees are exempt: nothing writes them.

Determinism note: the only clock here is host housekeeping time
(:func:`repro.run.atomicio.time_now`); nothing simulated ever reads it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.run.cache import CacheScan, inventory

#: Seconds per day, for the age column of the plan.
_DAY = 86400.0

#: Grace window (seconds): nothing younger than this is ever evicted --
#: it may be an in-flight write racing the collection.  Durable writes
#: land in milliseconds, so one minute is generous.
GC_GRACE_S = 60.0


@dataclass
class GcItem:
    """One artifact under the cache (a directory tree or single file)."""

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


def plan_gc(cache_dir: Union[str, Path],
            now: Optional[float] = None) -> GcPlan:
    """Decide what to evict under ``cache_dir``; nothing is deleted.

    The sweep manifest is read from ``cache_dir``; ``now`` overrides
    the housekeeping clock for tests.
    """
    scan = CacheScan(cache_dir, now)
    plan = GcPlan(now=scan.now)
    for kind, path in inventory(cache_dir):
        item = GcItem(kind.name, path, *_tree_stat(path))
        reason = kind.evict(path, scan) if kind.evict else ""
        if reason and kind.grace and item.age_s(scan.now) < GC_GRACE_S:
            # A fresh mtime means a writer may be mid-flight; the next
            # collection gets the item once it is genuinely stale.
            item.pinned = True
            item.pin_reason = (f"younger than grace window "
                               f"({GC_GRACE_S:.0f}s)")
        elif reason:
            item.evict = True
            item.evict_reason = reason
        plan.items.append(item)
    return plan
