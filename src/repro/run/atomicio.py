"""Audited atomic file I/O for every durable runner artifact.

Every artifact the sweep stack persists -- result-cache entries, the
sweep manifest and triage bundles -- used to carry its own copy of the
same tmp + rename dance.  This module is the single implementation: one
write primitive (``mkstemp`` in the target directory, write, flush,
fsync, ``os.replace``, directory fsync), one quarantine helper for
corrupt files, and one orphaned-``*.tmp`` sweeper.

Durability policy is declared per call:

* **best-effort** (the default): a storage failure degrades to a
  structured one-time :class:`DurabilityWarning` per (category, error
  kind) and a ``False`` return -- the artifact is recomputable
  (cache entries, triage bundles), so the sweep continues.
* **critical** (``critical=True``): the write must land or the caller
  must hear about it; failures raise :class:`CriticalWriteError`.  The
  sweep manifest is the only critical artifact -- it is the attempt
  ledger the durability audit checks outcomes against.

Deterministic disk-fault injection (``REPRO_FAULTS`` -- see
:mod:`repro.run.faults`) lives *inside* the write primitive, so every
durable site in the tree is fault-covered by construction: ``torn``
truncates the stored bytes at a hash-derived offset but lets the rename
complete (the next read must detect and quarantine), ``shortwrite``
writes a prefix then fails with EIO, ``enospc`` fails up front,
``eio`` fails the rename, ``renamecrash`` leaves the temp file behind
and raises :class:`~repro.run.faults.InjectedWriterDeath` like a writer
dying mid-flight, and ``fsyncdrop`` silently skips the fsync.  Faults roll
per (category, op, per-category sequence number) through the plan's
sha256 scheme, so the same plan string injects the same schedule on a
serial re-run.  Critical writes are exempt: their only recovery path is
"stop the sweep", which injection would merely demonstrate by stopping
the test.

Nothing here reads the wall clock except the orphan sweeper's
housekeeping cutoff; no simulated state is ever touched.
"""

from __future__ import annotations

import errno
import json
import os
import tempfile
import warnings
from pathlib import Path
from typing import (Any, Dict, List, Optional, Sequence, Set, Tuple,
                    Union)

from repro.run.faults import (FaultPlan, InjectedDiskFault,
                              InjectedWriterDeath, plan_from_env,
                              prefix_chunks)

#: The known artifact categories (any string is accepted; these are the
#: three the recovery audit walks).
CATEGORIES = ("cache", "manifest", "triage")

#: Age (seconds) after which an orphaned ``*.tmp`` file is considered
#: abandoned and swept.  Generous enough that a live concurrent
#: writer's in-flight temp file is never touched.
ORPHAN_TTL = 3600.0

#: Subdirectory name used for quarantined corrupt artifacts.
QUARANTINE_DIR = "quarantine"

class CriticalWriteError(OSError):
    """A critical durable write (the sweep manifest) could not land."""


class DurabilityWarning(RuntimeWarning):
    """A best-effort durable write degraded; emitted once per
    (category, error kind)."""


#: Per-category durable-write sequence counters (process-local).  The
#: counter orders fault rolls: write ``seq`` of a category always rolls
#: the same fault for the same plan, so serial replays inject
#: identically.
_SEQ: Dict[str, int] = {}

#: (category, error kind) pairs already warned about.
_WARNED: Set[Tuple[str, str]] = set()


def reset_state() -> None:
    """Clear sequence counters and warn-once state (tests only)."""
    _SEQ.clear()
    _WARNED.clear()


def sequence_numbers() -> Dict[str, int]:
    """Snapshot of the per-category write counters (diagnostics)."""
    return dict(_SEQ)


def _next_seq(category: str) -> int:
    seq = _SEQ.get(category, 0)
    _SEQ[category] = seq + 1
    return seq


def _error_kind(exc: OSError) -> str:
    if exc.errno is not None:
        return errno.errorcode.get(exc.errno, str(exc.errno))
    return type(exc).__name__


def _warn_once(category: str, exc: OSError, stacklevel: int) -> None:
    key = (category, _error_kind(exc))
    if key in _WARNED:
        return
    _WARNED.add(key)
    warnings.warn(
        f"durable {category} write failed ({_error_kind(exc)}: {exc}); "
        f"artifact is best-effort, continuing -- further {category} "
        f"failures of this kind are not repeated",
        DurabilityWarning, stacklevel=stacklevel)


def _fsync_dir(directory: Path) -> None:
    """Best-effort fsync of a directory after a rename into it."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


_UNSET = object()


def atomic_write_bytes(path: Union[str, Path],
                       data: Union[bytes, Sequence[bytes]], *,
                       category: str, critical: bool = False,
                       fsync: bool = True, plan: Any = _UNSET,
                       stacklevel: int = 3) -> bool:
    """Atomically publish ``data`` at ``path``; the one durable write.

    Writes to a ``mkstemp`` temp file in the target directory, flushes,
    fsyncs (unless ``fsync=False`` -- callers on hot write paths may
    trade sync cost for a bounded loss window), renames over ``path``,
    and fsyncs the directory.  Returns ``True`` when the rename
    completed.  Failure handling follows the module policy: best-effort
    calls warn once per (category, error kind) and return ``False``;
    ``critical=True`` raises :class:`CriticalWriteError`.

    ``data`` is the bytes, or a list of byte chunks written back to back
    and never joined, so a large cache entry is not copied whole once
    more.

    Disk-fault injection (``REPRO_FAULTS``) is keyed by ``category``
    and the category-local write sequence number; ``plan`` overrides
    the environment plan (tests).  An injected ``renamecrash``
    deliberately leaks the temp file and raises
    :class:`~repro.run.faults.InjectedWriterDeath` -- simulating the
    writer's process dying, which a resumed sweep and orphan sweeping
    must absorb.
    """
    path = Path(path)
    chunks = [data] if isinstance(data, (bytes, bytearray)) else data
    active: Optional[FaultPlan] = plan_from_env() if plan is _UNSET \
        else plan
    seq = _next_seq(category)
    kind: Optional[str] = None
    if active is not None and not critical:
        kind = active.disk_fault(category, "write", seq)
    tmp: Optional[str] = None
    try:
        if kind == "enospc":
            raise InjectedDiskFault(
                errno.ENOSPC,
                f"injected ENOSPC ({category} write #{seq})")
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                if kind in ("torn", "shortwrite"):
                    size = sum(map(len, chunks))
                    chunks = prefix_chunks(
                        chunks, active.torn_offset(size, category, seq))
                fh.writelines(chunks)
                fh.flush()
                if fsync and kind != "fsyncdrop":
                    os.fsync(fh.fileno())
            if kind == "shortwrite":
                raise InjectedDiskFault(
                    errno.EIO,
                    f"injected short write ({category} write #{seq})")
            if kind == "renamecrash":
                raise InjectedWriterDeath(
                    f"injected crash before rename ({category} write "
                    f"#{seq}; temp file left behind)")
            if kind == "eio":
                raise InjectedDiskFault(
                    errno.EIO,
                    f"injected EIO at rename ({category} write #{seq})")
            os.replace(tmp, path)
            tmp = None
        except InjectedWriterDeath:
            raise   # simulated writer death: the orphan stays on disk
        except BaseException:
            if tmp is not None:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
            raise
        if fsync and kind != "fsyncdrop":
            _fsync_dir(path.parent)
    except OSError as exc:
        if critical:
            raise CriticalWriteError(
                f"critical {category} write to {path} failed "
                f"({_error_kind(exc)}: {exc})") from exc
        _warn_once(category, exc, stacklevel)
        return False
    return True


def atomic_write_text(path: Union[str, Path], text: str, *,
                      category: str, critical: bool = False,
                      fsync: bool = True, plan: Any = _UNSET,
                      stacklevel: int = 4) -> bool:
    """UTF-8 text flavour of :func:`atomic_write_bytes`."""
    return atomic_write_bytes(path, text.encode("utf-8"),
                              category=category, critical=critical,
                              fsync=fsync, plan=plan,
                              stacklevel=stacklevel)


def atomic_write_json(path: Union[str, Path], payload: Any, *,
                      category: str, critical: bool = False,
                      fsync: bool = True, indent: Optional[int] = 1,
                      sort_keys: bool = True, plan: Any = _UNSET,
                      stacklevel: int = 5) -> bool:
    """JSON flavour of :func:`atomic_write_bytes` (trailing newline)."""
    text = json.dumps(payload, indent=indent, sort_keys=sort_keys) + "\n"
    return atomic_write_text(path, text, category=category,
                             critical=critical, fsync=fsync, plan=plan,
                             stacklevel=stacklevel)


# ------------------------------------------------------------ quarantine

def quarantine(path: Union[str, Path], reason: str, *,
               label: str = "artifact",
               quarantine_dir: Union[str, Path, None] = None,
               stacklevel: int = 3) -> Optional[Path]:
    """Move a corrupt file into a ``quarantine/`` sibling directory.

    Never silently overwrites or deletes evidence: the file keeps its
    name inside the quarantine directory (default
    ``<parent>/quarantine/``).  Returns the new location, or ``None``
    when the move itself failed (unwritable directory -- the corrupt
    file stays put, which is safe but noisy).  A
    :class:`RuntimeWarning` mentioning ``label`` and ``reason`` is
    emitted either way, matching the historical per-module messages.
    """
    path = Path(path)
    target_dir = Path(quarantine_dir) if quarantine_dir is not None \
        else path.parent / QUARANTINE_DIR
    moved: Optional[Path] = None
    try:
        target_dir.mkdir(parents=True, exist_ok=True)
        moved = target_dir / path.name
        os.replace(path, moved)
    except OSError:
        moved = None
    warnings.warn(f"quarantined corrupt {label} {path.name} ({reason})",
                  RuntimeWarning, stacklevel=stacklevel)
    return moved


# ---------------------------------------------------------- orphan sweep

def orphan_tmp_files(directory: Union[str, Path]) -> List[Path]:
    """The ``*.tmp`` files directly inside ``directory``, sorted."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    return sorted(directory.glob("*.tmp"))


def sweep_orphans(directory: Union[str, Path],
                  ttl: float = ORPHAN_TTL,
                  now: Optional[float] = None) -> int:
    """Remove ``*.tmp`` files older than ``ttl`` seconds; the count.

    Only stale temp files go: anything younger than ``ttl`` may belong
    to a live writer and is left alone.  ``now`` overrides the
    housekeeping clock (tests).
    """
    if now is None:
        now = time_now()
    cutoff = now - ttl
    removed = 0
    for stray in orphan_tmp_files(directory):
        try:
            if stray.stat().st_mtime <= cutoff:
                stray.unlink()
                removed += 1
        except OSError:
            pass
    return removed


def time_now() -> float:
    """Wall-clock seconds for orphan aging only (housekeeping).

    Isolated in one function so the determinism linter exemption is
    explicit: nothing simulated ever reads this.
    """
    import time
    return time.time()  # repro-lint: disable=R002
