"""Persistent sweep manifest: which jobs ran, retried, failed, finished.

A sweep manifest lives next to the result cache (one JSON file,
``sweep-manifest.json``) and records, for every job fingerprint the
runner has seen, its status (``pending`` / ``running`` / ``retrying`` /
``done`` / ``failed``), attempt count, whether the last completion came
from the cache, and the last error text.  It is flushed atomically after
every state transition, so a sweep killed mid-flight leaves an accurate
record of exactly which cells completed.

``repro report --resume`` / ``repro figure --resume`` reuse the manifest
(completed jobs keep their records and are served from the cache; only
the incomplete remainder executes), and ``repro sweep-status`` prints
progress without touching the simulator at all.

The manifest never feeds simulated state: it stores fingerprints and
bookkeeping only, and results always round-trip through the content-
checked :class:`~repro.run.cache.ResultCache`.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Union

from repro.run import atomicio

#: File name of the manifest inside the cache directory.
MANIFEST_NAME = "sweep-manifest.json"

_MANIFEST_FORMAT = 1

#: Statuses that mean "nothing left to do for this job".
_TERMINAL = ("done",)


@dataclass
class JobRecord:
    """Execution bookkeeping for one job fingerprint."""

    fingerprint: str
    label: str = ""
    status: str = "pending"   # pending | running | retrying | done | failed
    attempts: int = 0
    cached: bool = False      # last completion served from the cache
    error: str = ""           # last failure text ("" when clean)
    #: Per-attempt outcome entries ({attempt, outcome, error}),
    #: deduplicated by attempt number: the host timeout and a late
    #: worker failure can both try to close one attempt, and exactly one
    #: record must win (see SweepManifest.mark_attempt).
    attempt_log: List[Dict[str, object]] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return self.status in _TERMINAL

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "JobRecord":
        log = []
        for entry in data.get("attempt_log") or []:
            if isinstance(entry, dict) and "attempt" in entry:
                log.append({
                    "attempt": int(entry["attempt"]),
                    "outcome": str(entry.get("outcome", "")),
                    "error": str(entry.get("error", "")),
                })
        return cls(
            fingerprint=str(data["fingerprint"]),
            label=str(data.get("label", "")),
            status=str(data.get("status", "pending")),
            attempts=int(data.get("attempts", 0)),
            cached=bool(data.get("cached", False)),
            error=str(data.get("error", "")),
            attempt_log=log,
        )


class SweepManifest:
    """Crash-safe record of sweep progress, keyed by job fingerprint."""

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self.records: Dict[str, JobRecord] = {}
        self.load_error: Optional[str] = None
        self._swept_orphans = False
        self._load()

    # ------------------------------------------------------------------ io

    def _load(self) -> None:
        try:
            with open(self.path) as handle:
                data = json.load(handle)
            for entry in data.get("jobs", []):
                record = JobRecord.from_dict(entry)
                self.records[record.fingerprint] = record
        except FileNotFoundError:
            pass
        except (OSError, ValueError, KeyError, TypeError,
                AttributeError) as exc:
            # A torn manifest must never wedge the sweep: start fresh
            # (the cache still holds the results) but remember why.
            self.load_error = f"{type(exc).__name__}: {exc}"
            self.records = {}

    def flush(self) -> bool:
        """Atomically persist the manifest (a **critical** write).

        The manifest is the attempt ledger the durability audit checks
        cache outcomes against, so unlike every other artifact a flush
        that cannot land raises
        :class:`~repro.run.atomicio.CriticalWriteError` loudly instead
        of degrading -- losing attempt accounting silently would
        invalidate the sweep's bookkeeping.  On the first flush, stale
        orphaned ``*.tmp`` files beside the manifest are swept.
        """
        payload = {
            "format": _MANIFEST_FORMAT,
            "jobs": [self.records[key].to_dict()
                     for key in sorted(self.records)],
        }
        if not self._swept_orphans:
            self._swept_orphans = True
            atomicio.sweep_orphans(self.path.parent)
        return atomicio.atomic_write_json(self.path, payload,
                                          category="manifest",
                                          critical=True)

    # ------------------------------------------------------------ lifecycle

    def begin(self, fingerprints: Iterable[str], labels: Iterable[str],
              resume: bool = False) -> None:
        """Register the jobs of one sweep.

        With ``resume=False`` every given job starts from a clean
        ``pending`` record (attempt counters reset).  With
        ``resume=True`` completed jobs keep their records untouched and
        interrupted ones (``running``/``retrying``/``failed``) are
        re-armed as ``pending`` while *keeping* their accumulated
        attempt count and last error, so the manifest shows the full
        history across invocations.
        """
        for fingerprint, label in zip(fingerprints, labels):
            existing = self.records.get(fingerprint)
            if resume and existing is not None:
                if not existing.label:
                    existing.label = label
                if not existing.complete:
                    existing.status = "pending"
                continue
            self.records[fingerprint] = JobRecord(fingerprint, label)
        self.flush()

    # ------------------------------------------------------------- events

    def _record(self, fingerprint: str) -> JobRecord:
        record = self.records.get(fingerprint)
        if record is None:
            record = JobRecord(fingerprint)
            self.records[fingerprint] = record
        return record

    def mark_running(self, fingerprint: str) -> None:
        record = self._record(fingerprint)
        record.status = "running"
        record.attempts += 1
        self.flush()

    def mark_retrying(self, fingerprint: str, error: str) -> None:
        record = self._record(fingerprint)
        record.status = "retrying"
        record.error = error
        self.flush()

    def mark_done(self, fingerprint: str, cached: bool = False) -> None:
        record = self._record(fingerprint)
        record.status = "done"
        record.cached = cached
        record.error = ""
        self.flush()

    def mark_failed(self, fingerprint: str, error: str) -> None:
        record = self._record(fingerprint)
        record.status = "failed"
        record.error = error
        self.flush()

    def mark_attempt(self, fingerprint: str, attempt: int, outcome: str,
                     error: str = "") -> bool:
        """Record one attempt's outcome; first writer wins per attempt.

        Two host-side paths can race to close the same attempt: the
        parent's ``--job-timeout`` deadline abandons it while the worker
        (or its in-simulator watchdog) reports a failure for it.  The
        attempt number keys the log, so the second writer is a no-op
        and the manifest holds exactly one outcome per attempt.
        Returns whether the entry landed.
        """
        record = self._record(fingerprint)
        attempt = int(attempt)
        if any(entry.get("attempt") == attempt
               for entry in record.attempt_log):
            return False
        record.attempt_log.append({
            "attempt": attempt,
            "outcome": outcome,
            "error": error,
        })
        self.flush()
        return True

    # ------------------------------------------------------------ queries

    def __len__(self) -> int:
        return len(self.records)

    def get(self, fingerprint: str) -> Optional[JobRecord]:
        return self.records.get(fingerprint)

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for key in sorted(self.records):
            status = self.records[key].status
            out[status] = out.get(status, 0) + 1
        return out

    def incomplete(self) -> List[JobRecord]:
        return [self.records[key] for key in sorted(self.records)
                if not self.records[key].complete]

    def total_attempts(self) -> int:
        return sum(record.attempts for record in self.records.values())

    # ---------------------------------------------------------- rendering

    def format_summary(self) -> str:
        counts = self.counts()
        done = counts.get("done", 0)
        parts = [f"{done}/{len(self.records)} done"]
        for status in ("failed", "retrying", "running", "pending"):
            if counts.get(status):
                parts.append(f"{counts[status]} {status}")
        parts.append(f"{self.total_attempts()} attempts")
        return f"sweep: {', '.join(parts)}"

    def format_status(self, verbose: bool = True) -> str:
        """Multi-line progress report for ``repro sweep-status``."""
        if not self.records:
            return f"no sweep manifest entries at {self.path}"
        lines = [self.format_summary()]
        if verbose:
            for key in sorted(self.records):
                record = self.records[key]
                note = f"  [{record.error}]" if record.error else ""
                origin = " (cached)" if record.cached and \
                    record.status == "done" else ""
                lines.append(
                    f"  {record.fingerprint[:12]}  {record.status:<8s} "
                    f"attempts={record.attempts}{origin}  "
                    f"{record.label}{note}")
        return "\n".join(lines)
