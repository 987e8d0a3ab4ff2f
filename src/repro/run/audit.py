"""Durable-state recovery audit: walk, verify, classify, assert.

``repro audit-state [CACHE_DIR]`` (and ``repro check --durability``)
walks the artifact table of :mod:`repro.run.cache` -- the table ``repro
gc`` walks too -- counts every artifact per kind, applies each kind's
check and reports a failure at the kind's severity.  Together they
check the **durability contract**:

* every result entry's checksum verifies, and every triage bundle
  parses (corrupt-but-recoverable files are *warnings*: the owning
  reader quarantines and recomputes them, so nothing is lost);
* the manifest parses and charges each attempt at most once per job
  (a torn manifest or a duplicate attempt number is a *violation*);
* orphaned ``*.tmp`` files older than the orphan TTL are *warnings*
  (swept on request); young ones may belong to a live writer;
* quarantined entries and the trees an older checkout left are
  counted, not checked: nothing reads them, and ``repro gc`` deletes
  them.

One check spans kinds: completed outcomes survive.  A ``done`` manifest
record whose cache entry is missing or corrupt is a *warning* (cache
puts are best-effort by contract -- the job recomputes when the sweep
runs again, losing no results), never silent.

Severity is the whole point: **violations** are contract breaches that
should never occur, faulted or not -- ``audit_state`` after a disk-
faulted sweep that was run again to completion must report zero.  **Warnings** are the expected
scars of degraded best-effort writes.  **Notes** are informational.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.run.cache import ENTRIES, ORPHANS, CacheScan, inventory

#: Severities, in display order.
SEVERITIES = ("violation", "warning", "note")


@dataclass
class AuditFinding:
    """One classified observation about the durable tree."""

    severity: str      # violation | warning | note
    category: str      # the artifact kind's name
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
    #: Artifacts examined per kind (coverage, not defects).
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
    if not cache_dir.is_dir():
        report.add("note", "cache", cache_dir,
                   "no cache directory; nothing to audit")
        return report
    scan = CacheScan(cache_dir, now)
    sound_entries = set()
    for kind, path in inventory(cache_dir):
        report.count(kind.name)
        problem = kind.check(path, scan) if kind.check else ""
        if not problem:
            if kind is ENTRIES:
                sound_entries.add(path.stem)
            continue
        if sweep and kind is ORPHANS:
            try:
                path.unlink()
                report.swept += 1
                continue
            except OSError:
                pass
        report.add(kind.severity, kind.name, path, problem)
    for fingerprint in sorted(scan.manifest.records):
        record = scan.manifest.records[fingerprint]
        if record.status == "done" and not record.cached \
                and fingerprint not in sound_entries:
            report.add(
                "warning", "manifest", scan.manifest.path,
                f"job {fingerprint[:12]} is done but its cache entry is "
                f"missing or corrupt (best-effort put may have degraded; "
                f"the job recomputes when the sweep runs again)")
    return report
