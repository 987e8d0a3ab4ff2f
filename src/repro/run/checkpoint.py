"""Mid-simulation checkpoint/restore for experiment jobs.

Long sweep cells can run for minutes; a crash (host fault, OOM kill,
injected ``REPRO_FAULTS`` crash) previously threw away the whole
attempt.  This module checkpoints a running :class:`~repro.system
.machine.Machine` every ``checkpoint_every`` retired instructions and
resumes the next attempt from the newest valid checkpoint, so retries
repeat only the tail of the work.

Correctness bar: a resumed run must be **byte-identical** to an
uninterrupted one.  Three properties make that hold:

* ``Machine.run`` checks its retirement target at the top of each cycle
  iteration, so splitting one run into chunks with absolute targets
  replays exactly the same iteration sequence (including the same
  overshoot at phase ends).
* ``Machine.snapshot()`` deep-copies all mutable state through one
  machine-wide memo, preserving every identity relationship (window
  entries shared across heaps, instructions shared between trace
  buffers and window entries); ``Machine.restore()`` installs it onto a
  freshly constructed machine.
* Trace positions are recorded as per-process *consumed counts*.  On
  restore the generator path re-seeks a fresh stream by discarding that
  prefix; the arena path seeks in O(1) via ``TraceArena.replay(pid,
  skip)``.  Consumed counts are identical on both paths, so a
  checkpoint written against an arena remains valid for a generator
  re-run (and vice versa).

Checkpoints live under ``<cache>/checkpoints/<fingerprint>/`` as
``ck-<retired>.ckpt`` files in the standard framed format
(:func:`repro.run.atomicio.write_framed`: magic, sha256 digest, pickled
payload).  Writes go through :mod:`repro.run.atomicio` (atomic,
fault-injected) and are best-effort; a corrupt checkpoint is
quarantined and the loader falls back to the previous one, then to a
cold start.  Checkpoints are cleared once the job completes (the
result cache takes over).

Checkpointing declines configurations it cannot reproduce exactly:
runs with the invariant checker attached (``params.check`` wraps
components in closures a snapshot cannot capture) and arena-recording
runs (the recorder tees streams into Python lists as they are pulled).
Those simply run monolithically.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import warnings
from collections import deque
from itertools import islice
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.core.experiment import SimulationResult, assemble_result
from repro.params import SystemParams
from repro.run import atomicio, triage
from repro.run.cache import time_now
from repro.run.faults import FaultPlan
from repro.run.jobs import MODEL_VERSION, JobSpec
from repro.system.machine import Machine
from repro.trace.arena import ArenaError, TraceArena, _RecordingWorkload

#: On-disk checkpoint file format version.
CHECKPOINT_FORMAT = 2

MAGIC = b"RPCKPT01"

#: Default checkpoint interval (total retired instructions, warmup
#: included).  Paper-scale jobs (80k+40k) write one mid-run checkpoint;
#: quick tests write none.  A write costs one snapshot + pickle
#: (~0.1s), so the interval is sized to keep overhead well under the 5%
#: budget asserted in ``bench_runner_scaling``.
DEFAULT_CHECKPOINT_EVERY = 100_000

#: Environment override for the checkpoint interval (0 disables).
CHECKPOINT_EVERY_ENV = "REPRO_CHECKPOINT_EVERY"

#: Subdirectory of the result cache holding per-job checkpoint dirs.
CHECKPOINT_DIR = "checkpoints"

#: Subdirectory (inside one job's checkpoint dir) for corrupt files.
QUARANTINE_DIR = "quarantine"


class CorruptCheckpoint(ValueError):
    """A checkpoint file failed magic, checksum or format validation."""


def job_checkpoint_dirs(cache_dir: Union[str, Path]) -> List[Path]:
    """Every per-job checkpoint directory under ``cache_dir``, sorted.

    Directory names are full 64-hex job fingerprints (anything else --
    stray files, quarantine debris promoted by hand -- is ignored), so
    ``repro gc`` can match them against the sweep manifest for pinning.
    """
    root = Path(cache_dir) / CHECKPOINT_DIR
    if not root.is_dir():
        return []
    return sorted(
        entry for entry in root.iterdir()
        if entry.is_dir() and len(entry.name) == 64
        and all(c in "0123456789abcdef" for c in entry.name))


def checkpoint_every_from_env(
        default: int = DEFAULT_CHECKPOINT_EVERY) -> int:
    """The checkpoint interval from ``REPRO_CHECKPOINT_EVERY``.

    Unset or unparseable values fall back to ``default``; negative
    values clamp to 0 (disabled).
    """
    raw = os.environ.get(CHECKPOINT_EVERY_ENV, "")
    if not raw.strip():
        return default
    try:
        return max(0, int(raw))
    except ValueError:
        warnings.warn(
            f"ignoring unparseable {CHECKPOINT_EVERY_ENV}={raw!r}",
            RuntimeWarning, stacklevel=2)
        return default


# -------------------------------------------------------------------- store

class CheckpointStore:
    """Checksummed checkpoint files of one job, newest-wins.

    One directory per job fingerprint; files are named by their total
    retired-instruction count so a lexical sort is a numeric sort.
    """

    def __init__(self, directory: Union[str, Path]):
        self.directory = Path(directory)
        self.writes = 0
        self.write_errors = 0
        self.quarantined = 0
        self._swept_orphans = False

    @classmethod
    def for_job(cls, cache_dir: Union[str, Path],
                fingerprint: str) -> "CheckpointStore":
        return cls(Path(cache_dir) / CHECKPOINT_DIR / fingerprint)

    def _path(self, retired: int) -> Path:
        return self.directory / f"ck-{retired:012d}.ckpt"

    def checkpoint_files(self) -> List[Path]:
        """All checkpoint files, oldest first."""
        if not self.directory.is_dir():
            return []
        return sorted(self.directory.glob("ck-*.ckpt"))

    def save(self, payload: Dict[str, Any]) -> Optional[Path]:
        """Atomically persist one checkpoint payload (best-effort).

        On the first save of this store, stale orphaned ``*.tmp`` files
        left in the job's directory by killed writers are swept.
        """
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        target = self._path(int(payload["retired"]))
        if not self._swept_orphans:
            self._swept_orphans = True
            atomicio.sweep_orphans(self.directory)
        if not atomicio.write_framed(target, MAGIC, blob,
                                     category="checkpoint"):
            self.write_errors += 1
            warnings.warn(
                f"checkpoint write failed at {payload['retired']} retired"
                f"; continuing without it", RuntimeWarning, stacklevel=2)
            return None
        self.writes += 1
        return target

    @staticmethod
    def load_file(path: Union[str, Path]) -> Dict[str, Any]:
        """Validate and decode one checkpoint file.

        Raises :class:`CorruptCheckpoint` on any defect and ``OSError``
        when the file cannot be read at all.
        """
        try:
            blob = atomicio.read_framed(path, MAGIC)
        except atomicio.FramedReadError as exc:
            raise CorruptCheckpoint(str(exc)) from exc
        try:
            payload = pickle.loads(blob)
        except Exception as exc:
            raise CorruptCheckpoint(f"unpicklable payload: {exc}") from exc
        if not isinstance(payload, dict):
            raise CorruptCheckpoint("payload is not a dict")
        if payload.get("format") != CHECKPOINT_FORMAT:
            raise CorruptCheckpoint(
                f"format {payload.get('format')!r} != {CHECKPOINT_FORMAT}")
        if payload.get("model_version") != MODEL_VERSION:
            raise CorruptCheckpoint(
                f"model version {payload.get('model_version')!r} != "
                f"{MODEL_VERSION} (stale checkpoint)")
        return payload

    def latest(self) -> Optional[Dict[str, Any]]:
        """The newest valid checkpoint payload, or ``None``.

        Corrupt files are quarantined and the loader falls back to the
        next-older checkpoint, then to ``None`` (cold start).
        """
        for path in reversed(self.checkpoint_files()):
            try:
                return self.load_file(path)
            except OSError:
                continue
            except CorruptCheckpoint as exc:
                self._quarantine(path, str(exc))
        return None

    def _quarantine(self, path: Path, reason: str) -> None:
        if atomicio.quarantine(
                path, reason, label="checkpoint",
                quarantine_dir=self.directory / QUARANTINE_DIR,
                stacklevel=4) is None:
            return
        self.quarantined += 1

    def clear(self) -> int:
        """Remove every checkpoint and temp file (job completed)."""
        removed = 0
        if not self.directory.is_dir():
            return 0
        for pattern in ("ck-*.ckpt", "*.tmp"):
            for entry in self.directory.glob(pattern):
                try:
                    entry.unlink()
                    removed += 1
                except OSError:
                    pass
        try:
            self.directory.rmdir()    # leaves dirs holding quarantine/
        except OSError:
            pass
        return removed


# ------------------------------------------------------------------- runner

def supports_checkpointing(params: SystemParams, workload: Any) -> bool:
    """Whether this configuration can be checkpointed exactly.

    The invariant checker (``params.check``) wraps components in
    closures a snapshot cannot capture, and the arena recorder tees
    streams into growing lists; both decline to the monolithic path.
    """
    if params.check:
        return False
    if isinstance(workload, _RecordingWorkload):
        return False
    return True


def _seek(source, skip: int) -> None:
    """Discard the first ``skip`` items of a fresh trace iterator."""
    deque(islice(source, skip), maxlen=0)


def _rebuild_machine(params: SystemParams, workload: Any, seed: int,
                     payload: Dict[str, Any]) -> Machine:
    """A machine resumed from ``payload``: fresh construction, restored
    state, trace streams re-positioned to the recorded consumed counts."""
    offsets = [int(n) for n in payload["trace_offsets"]]
    if isinstance(workload, TraceArena):
        generators = workload.generators(params.n_nodes, seed=seed,
                                         skips=offsets)
        machine = Machine(params, generators)
        machine.restore(payload["machine"])
    else:
        machine = Machine(params,
                          workload.generators(params.n_nodes, seed=seed))
        machine.restore(payload["machine"])
        for process, skip in zip(machine.processes, offsets):
            if skip:
                _seek(process.trace._source, skip)
    return machine


def run_job(params: SystemParams, workload: Any, instructions: int,
            warmup: int, seed: int = 0, *,
            store: Optional[CheckpointStore] = None,
            every: int = 0,
            faults: Optional[FaultPlan] = None,
            fingerprint: str = "",
            attempt: int = 0,
            spec: Optional[JobSpec] = None,
            triage_dir: Optional[Union[str, Path]] = None,
            ) -> Tuple[SimulationResult, Dict[str, Any]]:
    """``run_simulation`` with checkpoint/restore and crash triage.

    Returns ``(result, info)`` where ``info`` carries ``resumed_from``
    (total retired instructions restored from a checkpoint; 0 on a cold
    start) and ``ckpt_s`` (host seconds spent writing checkpoints --
    kept out of the result, which must stay byte-identical).

    With a ``store``, the run resumes from the newest valid checkpoint;
    with ``every > 0`` it also writes checkpoints at every interval
    boundary (total retired instructions, warmup included) and clears
    them on success.  On failure, a self-contained triage bundle is
    written under ``triage_dir`` when one is configured, and the bundle
    path is attached to the exception as ``__triage_bundle__``.
    """
    info: Dict[str, Any] = {"ckpt_s": 0.0, "resumed_from": 0}
    enabled = store is not None and supports_checkpointing(params,
                                                           workload)
    writing = enabled and every > 0
    machine: Optional[Machine] = None
    warmed = False
    measure_target = 0
    if enabled:
        payload = store.latest()
        if payload is not None and payload.get("seed") == seed:
            # ArenaError here (arena too short for the recorded offsets)
            # propagates: the caller retries on the generator path and
            # the checkpoint, which is path-independent, still applies.
            machine = _rebuild_machine(params, workload, seed, payload)
            warmed = bool(payload["warmed"])
            measure_target = int(payload["measure_target"] or 0)
            info["resumed_from"] = int(payload["retired"])
    if machine is None:
        machine = Machine(params,
                          workload.generators(params.n_nodes, seed=seed))

    def advance(target: int, warmed_now: bool, measure_now: int) -> None:
        total = machine.total_retired()
        while total < target:
            if writing:
                boundary = (total // every + 1) * every
                stop = min(boundary, target)
            else:
                stop = target
            machine.run(stop - total)
            total = machine.total_retired()
            if writing and stop < target:
                started = time_now()
                store.save({
                    "format": CHECKPOINT_FORMAT,
                    "model_version": MODEL_VERSION,
                    "retired": total,
                    "warmed": warmed_now,
                    "measure_target": measure_now if warmed_now else None,
                    "seed": seed,
                    "machine": machine.snapshot(),
                    "trace_offsets": machine.trace_consumed(),
                })
                info["ckpt_s"] += time_now() - started
                if faults is not None:
                    faults.maybe_midcrash(fingerprint, attempt, boundary)

    try:
        if not warmed:
            advance(warmup, False, 0)
            if warmup:
                machine.reset_stats()
            measure_target = machine.total_retired() + instructions
        advance(measure_target, True, measure_target)
    except ArenaError:
        raise
    except Exception as exc:
        exc.__resumed_from__ = info["resumed_from"]
        if triage_dir is not None and spec is not None:
            bundle = triage.write_bundle(
                triage_dir, spec=spec, fingerprint=fingerprint,
                attempt=attempt, error=exc, machine=machine,
                checkpoints=(store.checkpoint_files() if store is not None
                             else []),
                resumed_from=info["resumed_from"])
            if bundle is not None:
                exc.__triage_bundle__ = str(bundle)
        raise

    cycles = machine.measured_cycles
    result = assemble_result(machine, workload.name, cycles, instructions)
    if writing:
        store.clear()
    return result, info


def run_spec(spec: JobSpec, workload: Optional[Any] = None, *,
             store: Optional[CheckpointStore] = None,
             every: int = 0,
             faults: Optional[FaultPlan] = None,
             attempt: int = 0,
             triage_dir: Optional[Union[str, Path]] = None,
             ) -> Tuple[SimulationResult, Dict[str, Any]]:
    """:meth:`JobSpec.run` with checkpointing and triage.

    Mirrors the spec's arena fallback: any :class:`ArenaError` (shape
    mismatch, stream exhausted mid-run, arena too short for a resumed
    offset) re-runs on the freshly built generator path.  Checkpoints
    record stream *positions*, not stream sources, so one written
    during an arena-backed attempt resumes a generator-path re-run
    byte-identically.
    """
    fingerprint = spec.fingerprint()
    kw = dict(store=store, every=every, faults=faults,
              fingerprint=fingerprint, attempt=attempt, spec=spec,
              triage_dir=triage_dir)
    if workload is not None:
        try:
            return run_job(spec.params, workload,
                           instructions=spec.instructions,
                           warmup=spec.warmup, seed=spec.seed, **kw)
        except ArenaError:
            pass
    return run_job(spec.params, spec.workload.build(),
                   instructions=spec.instructions,
                   warmup=spec.warmup, seed=spec.seed, **kw)


# ------------------------------------------------------------------- digest

def state_digest(machine: Machine) -> str:
    """Canonical sha256 over the machine's architectural memory state.

    Hashes every cache tag array (in LRU order -- replacement order is
    state), the full directory (sorted by line), and the lock table.
    Used by the checkpoint round-trip tests to prove a restored machine
    is indistinguishable from one that never stopped.
    """
    import json
    caches = []
    for node in machine.nodes:
        per_node = {}
        for level, arr in (("l1i", node.l1i), ("l1d", node.l1d),
                           ("l2", node.l2)):
            per_node[level] = [[[line, bool(dirty)]
                                for line, dirty in s.items()]
                               for s in arr._sets]
        caches.append(per_node)
    directory = sorted(
        [line, entry.state, entry.owner, sorted(entry.sharers),
         entry.last_writer, bool(entry.migratory)]
        for line, entry in machine.memory._entries.items())
    payload = {"caches": caches, "directory": directory,
               "locks": sorted(machine.lock_table.items())}
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
