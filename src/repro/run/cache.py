"""On-disk result cache for experiment jobs, with integrity checking.

One JSON file per completed :class:`~repro.run.jobs.JobSpec`, stored
under ``.repro-cache/`` (override with the ``REPRO_CACHE_DIR``
environment variable) and keyed by the spec's content fingerprint --
which already folds in :data:`~repro.run.jobs.MODEL_VERSION`, so results
produced by an older simulator simply stop matching after a version bump
(``repro gc`` evicts them).  The fingerprint is taken over the job's
canonical params (:meth:`~repro.params.SystemParams.canonical`), so
machines that differ only in fields the model never reads share one
entry; a hit carries the requesting spec's params.

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

:data:`ARTIFACT_KINDS` is the layout of the whole cache directory: every
kind of file the runner leaves there, with the check ``repro
audit-state`` applies to it and the test ``repro gc`` evicts it by.
Both commands walk that one table (:func:`inventory`).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.core.experiment import SimulationResult
from repro.run import atomicio, triage
from repro.run.faults import plan_from_env
from repro.run.jobs import JobSpec, fingerprint_of, keyed_job
from repro.run.manifest import MANIFEST_NAME, SweepManifest

#: Default cache location (relative to the current working directory).
DEFAULT_CACHE_DIR = ".repro-cache"

#: 2: entries carry a sha256 checksum over the job+result payload.
#: Format-1 entries (no checksum) are quarantined on first read.
_ENTRY_FORMAT = 2


def default_cache_dir() -> str:
    return os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR)


def _canonical_payload(job: Dict[str, object],
                       result: Dict[str, object]) -> str:
    """Canonical JSON text of one entry's job + result payload."""
    return json.dumps({"job": job, "result": result}, sort_keys=True,
                      separators=(",", ":"))


def _payload_checksum(job: Dict[str, object],
                      result: Dict[str, object]) -> str:
    """Canonical checksum over one entry's job + result payload."""
    return hashlib.sha256(
        _canonical_payload(job, result).encode("utf-8")).hexdigest()


def _entry_chunks(job: Dict[str, object],
                  result: SimulationResult) -> List[bytes]:
    """One stored entry, encoded once, as ASCII byte chunks (without
    the trailing newline).

    The entry is the canonical payload text with its checksum and the
    entry format spliced in front: "checksum" and "format" sort before
    "job" and "result", so the entry is itself sorted, compact JSON.
    The result part comes from :meth:`SimulationResult.to_json_chunks`,
    so the MSHR event logs are encoded straight from their columns; the
    checksum is taken over the chunks as they are made.
    :meth:`ResultCache.get` verifies an entry by re-encoding the parsed
    job and result with :func:`_canonical_payload`.
    """
    digest = hashlib.sha256()
    chunks = []
    texts = itertools.chain(
        ['{"job":' + json.dumps(job, sort_keys=True, separators=(",", ":"))
         + ',"result":'], result.to_json_chunks(), ["}"])
    for text in texts:
        data = text.encode("ascii")
        digest.update(data)
        chunks.append(data)
    head = (f'{{"checksum":"{digest.hexdigest()}",'
            f'"format":{_ENTRY_FORMAT},')
    chunks[0] = head.encode("ascii") + chunks[0][1:]
    return chunks


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
        return self.path / atomicio.QUARANTINE_DIR

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

        The entry may have been stored by another spec with the same
        canonical machine; the result returned carries ``spec``'s own
        params, so it reads as if ``spec`` had been simulated.

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
        result.params = spec.params
        return result

    def put(self, spec: JobSpec, result: SimulationResult) -> bool:
        """Store ``result`` under ``spec``'s fingerprint (atomic write),
        with the job as its key sees it (:func:`keyed_job`).

        Best-effort: storage faults (read-only directory, disk full)
        degrade to a :class:`RuntimeWarning` and ``False`` -- the
        computed result stays usable in memory and the sweep continues.
        """
        fingerprint = spec.fingerprint()
        chunks = _entry_chunks(keyed_job(spec.to_dict()), result)
        plan = plan_from_env()
        if plan is not None:
            # Deterministic write-fault injection (REPRO_FAULTS=corrupt:p):
            # the stored bytes are truncated or bit-flipped so the next
            # read must detect and quarantine them.
            chunks = plan.corrupt_chunks(chunks, fingerprint)
        chunks.append(b"\n")
        self._sweep_orphans()
        if not atomicio.atomic_write_bytes(self._entry_path(fingerprint),
                                           chunks, category="cache"):
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
        temp files older than :data:`~repro.run.atomicio.ORPHAN_TTL`
        are removed, so a concurrent writer's in-flight file is left
        alone.
        """
        if self._swept_orphans:
            return 0
        self._swept_orphans = True
        return atomicio.sweep_orphans(self.path)

    @staticmethod
    def _is_entry(path: Path) -> bool:
        """Result entries have a 64-hex fingerprint stem; the sweep
        manifest (and anything else) living in the directory is not one."""
        stem = path.stem
        return len(stem) == 64 and all(c in "0123456789abcdef"
                                       for c in stem)

    def __len__(self) -> int:
        return len(_entry_paths(self.path))

    def quarantine_entries(self) -> int:
        """Number of entries currently sitting in ``quarantine/``."""
        return len(_quarantine_paths(self.path))

    def purge(self) -> int:
        """Delete every cached entry, orphaned temp file, and
        quarantined entry; returns the number removed."""
        removed = 0
        for kind, path in inventory(self.path):
            if kind in (ENTRIES, QUARANTINE, ORPHANS):
                try:
                    path.unlink()
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


# ------------------------------------------------------------------ layout

class CacheScan:
    """What an artifact's check and eviction test read besides the
    artifact: the housekeeping clock and the sweep manifest beside it.

    A torn or missing manifest has no records, so no job reads as done.
    """

    def __init__(self, cache_dir: Union[str, Path],
                 now: Optional[float] = None):
        self.now = atomicio.time_now() if now is None else now
        self.manifest = SweepManifest(Path(cache_dir) / MANIFEST_NAME)
        self.done = {fingerprint[:12] for fingerprint, record
                     in self.manifest.records.items()
                     if record.status == "done"}


@dataclass(frozen=True)
class ArtifactKind:
    """One kind of artifact under a cache directory.

    ``paths`` lists the artifacts of the kind under a cache directory.
    ``check`` says what is wrong with one (``""`` when it is sound);
    ``repro audit-state`` reports that at ``severity``.  ``evict`` says
    why no current reader can use one (``""`` when one can); ``repro
    gc`` deletes what it names.  ``None`` means no check, or never
    evicted.  ``grace=False`` lets gc delete even a young artifact.
    """

    name: str
    paths: Callable[[Path], List[Path]]
    check: Optional[Callable[[Path, CacheScan], str]] = None
    severity: str = "warning"
    evict: Optional[Callable[[Path, CacheScan], str]] = None
    grace: bool = True


def _entry_paths(cache_dir: Path) -> List[Path]:
    return sorted(path for path in cache_dir.glob("*.json")
                  if ResultCache._is_entry(path))


def _check_entry(path: Path, scan: CacheScan) -> str:
    try:
        with open(path) as fh:
            ResultCache._decode_entry(fh.read())
    except OSError as exc:
        return f"unreadable ({exc})"
    except ValueError as exc:
        return (f"corrupt entry ({exc}); the next read quarantines it "
                f"and the job recomputes")
    return ""


def _stale_entry(path: Path, scan: CacheScan) -> str:
    """An entry filed under a key other than its job's current
    fingerprint (another model version, job format or key recipe, such
    as a key taken over non-canonical params) is one no
    :meth:`ResultCache.get` can hit.  An entry or job that does not
    parse stays for the reader to quarantine."""
    try:
        with open(path) as fh:
            current = fingerprint_of(json.load(fh)["job"])
    except (OSError, ValueError, KeyError, TypeError, AttributeError):
        return ""
    if current == path.stem:
        return ""
    return "not its job's current fingerprint"


def _manifest_paths(cache_dir: Path) -> List[Path]:
    path = cache_dir / MANIFEST_NAME
    return [path] if path.exists() else []


def _check_manifest(path: Path, scan: CacheScan) -> str:
    """The manifest is written atomically and loudly, so a torn one
    means the contract broke (or someone edited it); so does an
    attempt charged twice."""
    if scan.manifest.load_error:
        return f"unparseable ({scan.manifest.load_error})"
    problems = []
    for fingerprint in sorted(scan.manifest.records):
        seen: set = set()
        for entry in scan.manifest.records[fingerprint].attempt_log:
            if entry["attempt"] in seen:
                problems.append(f"job {fingerprint[:12]}: attempt "
                                f"{entry['attempt']} charged more than "
                                f"once")
            seen.add(entry["attempt"])
    return "; ".join(problems)


def _quarantine_paths(cache_dir: Path) -> List[Path]:
    quarantine = cache_dir / atomicio.QUARANTINE_DIR
    return sorted(quarantine.iterdir()) if quarantine.is_dir() else []


def _check_bundle(path: Path, scan: CacheScan) -> str:
    try:
        triage.load_bundle(path)
    except OSError as exc:
        return (f"bundle without readable job.json ({exc}); best-effort "
                f"write may have degraded")
    except ValueError as exc:
        return f"malformed bundle ({exc})"
    return ""


def _done_bundle(path: Path, scan: CacheScan) -> str:
    """A retry resolved the failure once the job is done; bundles of
    pending, running, retrying or failed jobs stay."""
    return "job done" if path.name.split("-a")[0] in scan.done else ""


def _orphan_paths(cache_dir: Path) -> List[Path]:
    """Abandoned ``*.tmp`` files: in the cache root (entries, manifest)
    and in triage bundles."""
    strays: List[Path] = []
    for directory in [cache_dir] + triage.bundle_dirs(cache_dir):
        strays.extend(atomicio.orphan_tmp_files(directory))
    return strays


def _stale_orphan(path: Path, scan: CacheScan) -> str:
    """A younger temp file may belong to a live writer."""
    try:
        if scan.now - path.stat().st_mtime < atomicio.ORPHAN_TTL:
            return ""
    except OSError:
        return ""
    return (f"stale temp file (older than "
            f"{atomicio.ORPHAN_TTL / 3600.0:.0f}h) from a writer that "
            f"died mid-write")


#: What a cache written by an older checkout may hold and nothing reads
#: any more: mid-job checkpoints, trace arenas and the gc journal.
_LEGACY = {"checkpoints": "legacy checkpoint tree",
           "traces": "legacy trace tree",
           "gc-state.json": "leftover gc journal"}


def _legacy_paths(cache_dir: Path) -> List[Path]:
    return [cache_dir / name for name in _LEGACY
            if (cache_dir / name).exists()]


ENTRIES = ArtifactKind("entries", _entry_paths, _check_entry,
                       evict=_stale_entry)
MANIFEST = ArtifactKind("manifest", _manifest_paths, _check_manifest,
                        severity="violation")
QUARANTINE = ArtifactKind("quarantine", _quarantine_paths,
                          evict=lambda path, scan: "quarantined")
TRIAGE = ArtifactKind("triage", triage.bundle_dirs, _check_bundle,
                      evict=_done_bundle)
ORPHANS = ArtifactKind("orphans", _orphan_paths, _stale_orphan,
                       evict=_stale_orphan)
LEGACY = ArtifactKind("legacy", _legacy_paths, grace=False,
                      evict=lambda path, scan: _LEGACY[path.name])

#: Every kind of artifact under a cache directory, in audit order.
ARTIFACT_KINDS = (ENTRIES, MANIFEST, QUARANTINE, TRIAGE, ORPHANS, LEGACY)


def inventory(cache_dir: Union[str, Path]
              ) -> List[Tuple[ArtifactKind, Path]]:
    """Every artifact under ``cache_dir`` with its kind, in table order."""
    cache_dir = Path(cache_dir)
    if not cache_dir.is_dir():
        return []
    return [(kind, path) for kind in ARTIFACT_KINDS
            for path in kind.paths(cache_dir)]
