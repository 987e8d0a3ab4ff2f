"""Durable-state recovery audit: walk, verify, classify, assert.

``repro audit-state [CACHE_DIR]`` (and ``repro check --durability``)
walks every artifact category the runner persists -- cache entries, the
sweep manifest, triage bundles, the gc journal -- and checks the
**durability contract**:

* every artifact's checksum verifies (corrupt-but-recoverable files
  are *warnings*: the owning reader quarantines and recomputes them,
  so nothing is lost);
* the manifest parses and charges each attempt at most once per job
  (duplicate attempt numbers in an attempt log are *violations*);
* completed outcomes survive: a ``done`` manifest record whose cache
  entry is missing or corrupt is a *warning* (cache puts are
  best-effort by contract -- the job recomputes on resume, losing no
  results), never silent;
* orphaned ``*.tmp`` files are classified, not ignored: stale ones
  (older than the orphan TTL) are *warnings* and swept on request,
  young ones are *notes* (a live writer may own them).

The ``checkpoints/`` and ``traces/`` trees that older checkouts left in
a cache are not audited: nothing reads them, and ``repro gc`` deletes
them whole.

Severity is the whole point: **violations** are contract breaches that
should never occur, faulted or not -- ``audit_state`` after a disk-
faulted, resumed sweep must report zero.  **Warnings** are the expected
scars of degraded best-effort writes.  **Notes** are informational.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.run import atomicio

#: Severities, in display order.
SEVERITIES = ("violation", "warning", "note")


@dataclass
class AuditFinding:
    """One classified observation about the durable tree."""

    severity: str      # violation | warning | note
    category: str      # cache | manifest | triage | gcstate | orphan
    path: str
    message: str

    def format(self) -> str:
        return (f"[{self.severity.upper():<9s}] {self.category:<10s} "
                f"{self.path}: {self.message}")


@dataclass
class AuditReport:
    """Everything one audit pass found, plus coverage counts."""

    cache_dir: Path
    findings: List[AuditFinding] = field(default_factory=list)
    #: Artifacts examined per category (coverage, not defects).
    scanned: Dict[str, int] = field(default_factory=dict)
    swept: int = 0     # stale orphans removed (``--sweep`` only)

    def add(self, severity: str, category: str, path: Union[str, Path],
            message: str) -> None:
        assert severity in SEVERITIES, severity
        self.findings.append(AuditFinding(severity, category,
                                          str(path), message))

    def count(self, category: str, n: int = 1) -> None:
        self.scanned[category] = self.scanned.get(category, 0) + n

    @property
    def violations(self) -> List[AuditFinding]:
        return [f for f in self.findings if f.severity == "violation"]

    @property
    def warnings(self) -> List[AuditFinding]:
        return [f for f in self.findings if f.severity == "warning"]

    @property
    def notes(self) -> List[AuditFinding]:
        return [f for f in self.findings if f.severity == "note"]

    @property
    def ok(self) -> bool:
        """The durability contract holds (warnings/notes allowed)."""
        return not self.violations

    def format_report(self, verbose: bool = False) -> str:
        parts = [f"{self.scanned.get(key, 0)} {key}"
                 for key in sorted(self.scanned)]
        lines = [f"audit-state: {self.cache_dir} "
                 f"({', '.join(parts) if parts else 'empty'})"]
        lines.append(
            f"  {len(self.violations)} violations, "
            f"{len(self.warnings)} warnings, {len(self.notes)} notes" +
            (f", {self.swept} stale orphans swept" if self.swept
             else ""))
        shown = self.findings if verbose else \
            self.violations + self.warnings
        for finding in shown:
            lines.append("  " + finding.format())
        lines.append("durability contract: " +
                     ("OK" if self.ok else "VIOLATED"))
        return "\n".join(lines)


# ------------------------------------------------------------ categories

def _audit_cache_entries(report: AuditReport, cache_dir: Path) -> set:
    """Verify every result entry; returns the valid fingerprints."""
    from repro.run.cache import ResultCache
    valid: set = set()
    for entry in sorted(cache_dir.glob("*.json")):
        if not ResultCache._is_entry(entry):
            continue
        report.count("entries")
        try:
            with open(entry) as fh:
                ResultCache._decode_entry(fh.read())
        except OSError as exc:
            report.add("warning", "cache", entry,
                       f"unreadable ({exc})")
            continue
        except ValueError as exc:
            report.add("warning", "cache", entry,
                       f"corrupt entry ({exc}); the next read "
                       f"quarantines it and the job recomputes")
            continue
        valid.add(entry.stem)
    return valid


def _audit_manifest(report: AuditReport, cache_dir: Path,
                    valid_entries: set) -> None:
    from repro.run.manifest import MANIFEST_NAME, JobRecord
    path = cache_dir / MANIFEST_NAME
    if not path.exists():
        return
    report.count("manifest")
    try:
        with open(path) as fh:
            data = json.load(fh)
        records = [JobRecord.from_dict(entry)
                   for entry in data.get("jobs", [])]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        # The manifest is the critical artifact: it is written
        # atomically and loudly, so a torn one on disk means the
        # contract broke (or someone edited it).
        report.add("violation", "manifest", path,
                   f"unparseable ({type(exc).__name__}: {exc})")
        return
    for record in records:
        attempts_seen: set = set()
        for entry in record.attempt_log:
            number = entry.get("attempt")
            if number in attempts_seen:
                report.add(
                    "violation", "manifest", path,
                    f"job {record.fingerprint[:12]}: attempt "
                    f"{number} charged more than once")
            attempts_seen.add(number)
        if record.status == "done" and not record.cached \
                and record.fingerprint not in valid_entries:
            report.add(
                "warning", "manifest", path,
                f"job {record.fingerprint[:12]} is done but its cache "
                f"entry is missing or corrupt (best-effort put may "
                f"have degraded; the job recomputes on resume)")


def _audit_triage(report: AuditReport, cache_dir: Path) -> None:
    from repro.run import triage
    for directory in triage.bundle_dirs(cache_dir):
        report.count("triage")
        try:
            triage.load_bundle(directory)
        except OSError as exc:
            report.add("warning", "triage", directory,
                       f"bundle without readable job.json ({exc}); "
                       f"best-effort write may have degraded")
        except ValueError as exc:
            report.add("warning", "triage", directory,
                       f"malformed bundle ({exc})")


def _audit_gc_state(report: AuditReport, cache_dir: Path) -> None:
    from repro.run import gc as run_gc
    path = run_gc.gc_state_path(cache_dir)
    if not path.exists():
        return
    report.count("gcstate")
    try:
        run_gc.read_gc_state(cache_dir)
    except OSError as exc:
        report.add("warning", "gcstate", path, f"unreadable ({exc})")
    except atomicio.FramedReadError as exc:
        report.add("warning", "gcstate", path,
                   f"corrupt journal ({exc}); safe to delete")


def _orphan_directories(cache_dir: Path) -> List[Path]:
    from repro.run import triage
    directories = [cache_dir]
    directories.extend(triage.bundle_dirs(cache_dir))
    return directories


def _audit_orphans(report: AuditReport, cache_dir: Path,
                   now: float, sweep: bool) -> None:
    for directory in _orphan_directories(cache_dir):
        for stray in atomicio.orphan_tmp_files(directory):
            report.count("orphans")
            try:
                age = max(0.0, now - stray.stat().st_mtime)
            except OSError:
                continue
            if age >= atomicio.ORPHAN_TTL:
                if sweep:
                    try:
                        stray.unlink()
                        report.swept += 1
                        continue
                    except OSError:
                        pass
                report.add(
                    "warning", "orphan", stray,
                    f"stale temp file ({age / 3600.0:.1f}h old) from "
                    f"a writer that died mid-write; `repro audit-state "
                    f"--sweep` or `repro gc` removes it")
            else:
                report.add("note", "orphan", stray,
                           f"young temp file ({age:.0f}s); may belong "
                           f"to a live writer -- left alone")


def audit_state(cache_dir: Union[str, Path],
                now: Optional[float] = None,
                sweep: bool = False) -> AuditReport:
    """Audit every durable artifact under ``cache_dir``.

    ``now`` overrides the housekeeping clock (tests); ``sweep=True``
    also removes stale orphaned temp files (never young ones).
    Returns an :class:`AuditReport`; ``report.ok`` is the contract
    verdict (``repro audit-state`` exits non-zero when it is false).
    """
    cache_dir = Path(cache_dir)
    report = AuditReport(cache_dir=cache_dir)
    if now is None:
        now = atomicio.time_now()
    if not cache_dir.is_dir():
        report.add("note", "cache", cache_dir,
                   "no cache directory; nothing to audit")
        return report
    valid_entries = _audit_cache_entries(report, cache_dir)
    _audit_manifest(report, cache_dir, valid_entries)
    _audit_triage(report, cache_dir)
    _audit_gc_state(report, cache_dir)
    _audit_orphans(report, cache_dir, now, sweep)
    return report
