"""On-disk result cache for experiment jobs, with integrity checking.

One JSON file per completed :class:`~repro.run.jobs.JobSpec`, stored
under ``.repro-cache/`` (override with the ``REPRO_CACHE_DIR``
environment variable) and keyed by the spec's content fingerprint --
which already folds in :data:`~repro.run.jobs.MODEL_VERSION`, so results
produced by an older simulator simply stop matching after a version bump
(they are dead weight until :meth:`ResultCache.purge` removes them).

Each entry stores the job description next to the result plus a sha256
**content checksum** over both.  On read the checksum is re-verified:
an entry that is truncated, bit-flipped, or missing its checksum is
*quarantined* -- moved to a ``quarantine/`` subdirectory rather than
silently overwritten -- counted in :meth:`ResultCache.stats`, and
reported as a miss so the job simply re-runs.  Writes go through
:mod:`repro.run.atomicio` (atomic, fsynced, fault-injected) and are
**best-effort**: a read-only or full cache directory degrades to a
warning instead of failing the sweep that computed the result.
Orphaned ``*.tmp`` files left by a writer killed mid-write are swept on
startup (when stale) and by :meth:`purge`.
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.core.experiment import SimulationResult
from repro.run import atomicio
from repro.run.faults import plan_from_env
from repro.run.jobs import JobSpec

#: Default cache location (relative to the current working directory).
DEFAULT_CACHE_DIR = ".repro-cache"

#: Subdirectory (inside the cache) holding corrupt entries for autopsy.
QUARANTINE_DIR = "quarantine"

#: 2: entries carry a sha256 checksum over the job+result payload.
#: Format-1 entries (no checksum) are quarantined on first read.
_ENTRY_FORMAT = 2

#: Age (seconds) after which an orphaned ``*.tmp`` file is considered
#: abandoned and removed by the startup sweep.  Generous enough that a
#: concurrent writer's in-flight temp file is never touched.
_ORPHAN_TTL = 3600.0


def default_cache_dir() -> str:
    return os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR)


def _canonical_payload(job: Dict[str, object],
                       result: Dict[str, object]) -> str:
    """Canonical JSON text of one entry's job + result payload."""
    return json.dumps({"job": job, "result": result}, sort_keys=True,
                      separators=(",", ":"))


def _text_checksum(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _payload_checksum(job: Dict[str, object],
                      result: Dict[str, object]) -> str:
    """Canonical checksum over one entry's job + result payload."""
    return _text_checksum(_canonical_payload(job, result))


def _entry_text(job: Dict[str, object], result: Dict[str, object]) -> str:
    """One stored entry, encoded once: the canonical payload text with
    its checksum and the entry format spliced in front.  "checksum" and
    "format" sort before "job" and "result", so the entry is itself
    sorted, compact JSON; :meth:`ResultCache.get` verifies it by
    re-encoding the parsed job and result."""
    canonical = _canonical_payload(job, result)
    head = (f'{{"checksum":"{_text_checksum(canonical)}",'
            f'"format":{_ENTRY_FORMAT},')
    return canonical.replace("{", head, 1)


class CorruptEntry(ValueError):
    """A cache entry failed checksum or structural validation."""


class ResultCache:
    """Content-addressed store of :class:`SimulationResult` snapshots."""

    def __init__(self, path: Union[str, Path, None] = None):
        self.path = Path(path if path is not None else default_cache_dir())
        self.hits = 0
        self.misses = 0
        self.quarantined = 0       # entries quarantined by this instance
        self.write_errors = 0      # best-effort puts that could not land
        self._swept_orphans = False

    # ------------------------------------------------------------------ io

    def _entry_path(self, key: str) -> Path:
        return self.path / f"{key}.json"

    @property
    def quarantine_path(self) -> Path:
        return self.path / QUARANTINE_DIR

    def _quarantine(self, entry: Path, reason: str) -> None:
        """Move a corrupt entry aside (never silently overwrite it).

        An unwritable cache leaves the entry in place; it keeps missing
        (checksum still fails) which is safe, just noisy.
        """
        atomicio.quarantine(entry, reason, label="cache entry",
                            quarantine_dir=self.quarantine_path,
                            stacklevel=4)
        self.quarantined += 1

    @staticmethod
    def _decode_entry(text: str) -> SimulationResult:
        """Validate and decode one entry; raises :class:`CorruptEntry`."""
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise CorruptEntry(f"unparseable JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise CorruptEntry("entry is not a JSON object")
        stored = data.get("checksum")
        if not stored:
            raise CorruptEntry("missing checksum (pre-integrity format)")
        try:
            computed = _payload_checksum(data["job"], data["result"])
        except (KeyError, TypeError) as exc:
            raise CorruptEntry(f"malformed payload: {exc}") from exc
        if computed != stored:
            raise CorruptEntry(
                f"checksum mismatch (stored {str(stored)[:12]}..., "
                f"computed {computed[:12]}...)")
        try:
            return SimulationResult.from_dict(data["result"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CorruptEntry(f"undecodable result: {exc}") from exc

    def get(self, spec: JobSpec) -> Optional[SimulationResult]:
        """Checksum-verified cached result for ``spec``, or ``None``.

        Counts a hit or miss either way; corrupt entries are moved to
        ``quarantine/`` and reported as misses so the caller re-runs the
        job and rewrites a clean entry.
        """
        entry = self._entry_path(spec.fingerprint())
        try:
            with open(entry) as fh:
                text = fh.read()
        except OSError:
            self.misses += 1
            return None
        try:
            result = self._decode_entry(text)
        except CorruptEntry as exc:
            self._quarantine(entry, str(exc))
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, spec: JobSpec, result: SimulationResult) -> bool:
        """Store ``result`` under ``spec``'s fingerprint (atomic write).

        Best-effort: storage faults (read-only directory, disk full)
        degrade to a :class:`RuntimeWarning` and ``False`` -- the
        computed result stays usable in memory and the sweep continues.
        """
        fingerprint = spec.fingerprint()
        text = _entry_text(spec.to_dict(), result.to_dict())
        plan = plan_from_env()
        if plan is not None:
            # Deterministic write-fault injection (REPRO_FAULTS=corrupt:p):
            # the stored bytes are truncated or bit-flipped so the next
            # read must detect and quarantine them.
            text = plan.corrupt_text(text, fingerprint)
        self._sweep_orphans()
        if not atomicio.atomic_write_text(
                self._entry_path(fingerprint), text + "\n",
                category="cache"):
            self.write_errors += 1
            warnings.warn(
                f"result cache write failed for {fingerprint[:12]}; "
                f"continuing without caching", RuntimeWarning,
                stacklevel=2)
            return False
        return True

    # ------------------------------------------------------------------ admin

    def _sweep_orphans(self) -> int:
        """Remove stale ``*.tmp`` files abandoned by killed writers.

        Runs once per cache instance (before the first write).  Only
        temp files older than :data:`_ORPHAN_TTL` are removed, so a
        concurrent writer's in-flight file is left alone.
        """
        if self._swept_orphans:
            return 0
        self._swept_orphans = True
        return atomicio.sweep_orphans(self.path, ttl=_ORPHAN_TTL)

    @staticmethod
    def _is_entry(path: Path) -> bool:
        """Result entries have a 64-hex fingerprint stem; the sweep
        manifest (and anything else) living in the directory is not one."""
        stem = path.stem
        return len(stem) == 64 and all(c in "0123456789abcdef"
                                       for c in stem)

    def __len__(self) -> int:
        if not self.path.is_dir():
            return 0
        return sum(1 for entry in self.path.glob("*.json")
                   if self._is_entry(entry))

    def quarantine_entries(self) -> int:
        """Number of entries currently sitting in ``quarantine/``."""
        return len(self.quarantine_files())

    def quarantine_files(self) -> List[Path]:
        """Quarantined entries, sorted; ``repro gc`` evicts the oldest
        beyond the retention caps (they are autopsy evidence, not
        results, so bounded retention is safe)."""
        if not self.quarantine_path.is_dir():
            return []
        return sorted(self.quarantine_path.glob("*.json"))

    def purge(self) -> int:
        """Delete every cached entry, orphaned temp file, and
        quarantined entry; returns the number removed."""
        removed = 0
        if self.path.is_dir():
            for pattern in ("*.json", "*.tmp"):
                for entry in self.path.glob(pattern):
                    if pattern == "*.json" and not self._is_entry(entry):
                        continue   # e.g. the sweep manifest
                    try:
                        entry.unlink()
                        removed += 1
                    except OSError:
                        pass
        if self.quarantine_path.is_dir():
            for entry in self.quarantine_path.glob("*"):
                try:
                    entry.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed

    def stats(self) -> Dict[str, object]:
        return {"hits": self.hits, "misses": self.misses,
                "entries": len(self), "dir": str(self.path),
                "quarantined": self.quarantined,
                "quarantine_entries": self.quarantine_entries(),
                "write_errors": self.write_errors}

    def format_stats(self) -> str:
        text = (f"cache: {self.hits} hits, {self.misses} misses, "
                f"{len(self)} entries in {self.path}")
        in_quarantine = self.quarantine_entries()
        if in_quarantine or self.quarantined:
            text += (f", {in_quarantine} quarantined"
                     f" ({self.quarantined} this run)")
        if self.write_errors:
            text += f", {self.write_errors} write errors"
        return text


def time_now() -> float:
    """Wall-clock seconds for cache housekeeping only (orphan aging).

    Isolated in one function so the determinism linter exemption is
    explicit: nothing simulated ever reads this.
    """
    import time
    return time.time()  # repro-lint: disable=R002
