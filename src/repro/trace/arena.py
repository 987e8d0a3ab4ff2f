"""Materialized trace arenas: generate once, replay everywhere.

The paper's sweeps (Figs. 2-7) run dozens of system configurations over
the *same* per-workload instruction streams, yet the generator path
regenerates every stream inside every job -- pure redundant work that,
on the process pool, is multiplied by the worker count.  An **arena**
materializes one workload's per-process streams exactly once, packs them
into compact typed arrays (struct-of-arrays, no per-instruction Python
objects at rest), and persists them under ``<trace-dir>/<key>.arena``
with the same sha256-checksum/quarantine discipline as the result cache.
Replay reconstitutes :class:`~repro.trace.instr.Instruction` objects
lazily from a read-only ``mmap`` of the file, so fork-server workers
share the arena pages instead of regenerating or copying them.

How much to materialize is learned, not guessed: per-process consumption
is heavily skewed (a DSS scan process can pull ~5x the uniform share),
so :class:`ArenaRecorder` *records* the streams actually pulled by the
first job of a sweep group while that job runs normally, then extends
each stream by a safety margin and writes the arena.  Sibling
configurations consume nearly identical per-process prefixes; a job that
outruns its recorded stream raises :class:`ArenaExhausted` and the
caller transparently re-runs on the generator path, so results are
byte-identical by construction in every case.

Versioning: :data:`TRACE_VERSION` is **independent** of
``repro.run.jobs.MODEL_VERSION``.  Bump ``TRACE_VERSION`` when the
*trace encoding or workload generation* changes (arenas regenerate);
bump ``MODEL_VERSION`` when *timing-model semantics* change (cached
results invalidate, but existing arenas remain valid -- the instruction
streams they hold are unchanged).

On-disk format::

    MAGIC "RPARENA1"
    u32   header length
    JSON  header {format, trace_version, key, workload, workload_name,
                  n_nodes, processes_per_cpu, seed, total_budget,
                  counts: [per-process instruction counts],
                  checksum: sha256 hex of the body}
    body  struct-of-arrays over all processes, concatenated:
          op[u8] meta[u8] latency[u8] (pad to 8) pc[u64] addr[u64]
          extra[u64]

``meta`` packs ``branch_kind`` (2 bits), ``taken`` (1 bit) and the
dependence count (2 bits); ``extra`` holds the branch target for
branches and up to three u16 backward dependence distances otherwise --
the same losslessness envelope as :mod:`repro.trace.tracefile`.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import warnings
from array import array
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Union

from repro.trace.instr import OP_BRANCH, Instruction

#: Trace-encoding/workload-generation version.  Independent of
#: MODEL_VERSION: a timing-model change keeps every arena valid.
TRACE_VERSION = 1

MAGIC = b"RPARENA1"

#: Subdirectory (inside the trace dir) holding corrupt arenas.
QUARANTINE_DIR = "quarantine"

#: Environment override for the arena directory.
TRACE_DIR_ENV = "REPRO_TRACE_DIR"

_FORMAT = 1


class ArenaError(Exception):
    """Base class: the arena cannot serve this replay request."""


class ArenaExhausted(ArenaError):
    """A process consumed its whole materialized stream mid-simulation."""


class ArenaMismatch(ArenaError):
    """The arena was built for a different machine shape or seed."""


class CorruptArena(ArenaError):
    """The arena file failed checksum or structural validation."""


class ArenaWriteError(ArenaError):
    """The instruction stream cannot be represented in the arena format."""


# --------------------------------------------------------------------- keys

def arena_key(workload: Dict[str, object], n_nodes: int, seed: int,
              total_budget: int) -> str:
    """Stable content key for one materialized workload.

    ``total_budget`` is the run size (instructions + warmup) the arena
    must be able to feed; sweeps over system parameters share sizes, so
    every configuration of one sweep maps to the same arena.  The key
    folds in :data:`TRACE_VERSION`, *not* ``MODEL_VERSION``: timing
    model changes do not invalidate materialized streams.
    """
    payload = {
        "trace_version": TRACE_VERSION,
        "workload": workload,
        "n_nodes": int(n_nodes),
        "seed": int(seed),
        "total_budget": int(total_budget),
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def default_trace_dir() -> Optional[str]:
    """The arena directory from the environment, or ``None``."""
    return os.environ.get(TRACE_DIR_ENV) or None


# ------------------------------------------------------------------ packing

def _pack_streams(streams: Sequence[Sequence[Instruction]]):
    """Pack per-process instruction lists into struct-of-arrays.

    Raises :class:`ArenaWriteError` when an instruction falls outside
    the format's envelope (more than 3 dependences, a distance beyond
    u16, or a latency beyond u8) -- callers then simply skip the arena.
    """
    ops = bytearray()
    metas = bytearray()
    lats = bytearray()
    pcs = array("Q")
    addrs = array("Q")
    extras = array("Q")
    counts: List[int] = []
    for stream in streams:
        counts.append(len(stream))
        for ins in stream:
            if ins.op == OP_BRANCH:
                meta = (ins.branch_kind & 3) | (4 if ins.taken else 0)
                extra = ins.target
            else:
                deps = tuple(ins.deps)
                if len(deps) > 3:
                    raise ArenaWriteError(
                        f"instruction has {len(deps)} dependences "
                        f"(format holds 3)")
                extra = 0
                for i, d in enumerate(deps):
                    if not 0 <= d <= 0xFFFF:
                        raise ArenaWriteError(
                            f"dependence distance {d} beyond u16")
                    extra |= d << (16 * i)
                meta = len(deps) << 3
            if not 0 <= ins.latency <= 0xFF:
                raise ArenaWriteError(
                    f"latency {ins.latency} beyond u8")
            ops.append(ins.op)
            metas.append(meta)
            lats.append(ins.latency)
            pcs.append(ins.pc)
            addrs.append(ins.addr)
            extras.append(extra)
    total = len(ops)
    pad = (-3 * total) % 8
    body = b"".join((bytes(ops), bytes(metas), bytes(lats), b"\x00" * pad,
                     pcs.tobytes(), addrs.tobytes(), extras.tobytes()))
    return counts, body


def write_arena(path: Union[str, Path],
                streams: Sequence[Sequence[Instruction]],
                meta: Dict[str, object]) -> bool:
    """Atomically persist packed ``streams`` plus header ``meta``.

    Best-effort like the result cache: storage faults degrade to a
    :class:`RuntimeWarning` and ``False`` -- the sweep continues on the
    generator path.
    """
    path = Path(path)
    try:
        counts, body = _pack_streams(streams)
    except ArenaWriteError as exc:
        warnings.warn(f"arena not materialized: {exc}", RuntimeWarning,
                      stacklevel=2)
        return False
    header = dict(meta)
    header["format"] = _FORMAT
    header["trace_version"] = TRACE_VERSION
    header["counts"] = counts
    header["checksum"] = hashlib.sha256(body).hexdigest()
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    blob = b"".join((MAGIC, len(header_bytes).to_bytes(4, "little"),
                     header_bytes, body))
    # Deferred import: importing repro.run.atomicio loads the whole
    # repro.run package, which the trace layer needs only here.
    from repro.run import atomicio
    atomicio.sweep_orphans(path.parent)
    if not atomicio.atomic_write_bytes(path, blob, category="arena"):
        warnings.warn(
            f"arena write failed for {path.name}; continuing without it",
            RuntimeWarning, stacklevel=2)
        return False
    return True


# ------------------------------------------------------------------- replay

class TraceArena:
    """A loaded arena: zero-copy views over a read-only file mapping.

    Duck-types :class:`~repro.core.workloads.Workload` (``name`` +
    ``generators``), so ``run_simulation`` replays it unchanged.  The
    per-process iterators reconstitute :class:`Instruction` objects
    lazily from the mapped arrays; running one dry raises
    :class:`ArenaExhausted`, which callers turn into a generator-path
    re-run.
    """

    def __init__(self, path: Path, header: Dict[str, object],
                 buffer, mapping=None):
        self.path = path
        self.header = header
        self.name: str = header["workload_name"]
        self.n_nodes: int = int(header["n_nodes"])
        self.seed: int = int(header["seed"])
        self.counts: List[int] = [int(n) for n in header["counts"]]
        self._mapping = mapping          # keeps the mmap alive
        total = sum(self.counts)
        view = memoryview(buffer)
        pad = (-3 * total) % 8
        off = 0
        self._op = view[off:off + total]
        off += total
        self._meta = view[off:off + total]
        off += total
        self._lat = view[off:off + total]
        off += total + pad
        self._pc = view[off:off + 8 * total].cast("Q")
        off += 8 * total
        self._addr = view[off:off + 8 * total].cast("Q")
        off += 8 * total
        self._extra = view[off:off + 8 * total].cast("Q")
        starts = []
        pos = 0
        for n in self.counts:
            starts.append(pos)
            pos += n
        self._starts = starts

    # -- Workload protocol -------------------------------------------------

    def generators(self, n_cpus: int, seed: int = 0) -> List[Iterator]:
        """Replay iterators for every process, validated against the
        arena's recorded machine shape."""
        if n_cpus != self.n_nodes or seed != self.seed:
            raise ArenaMismatch(
                f"arena {self.path.name} was materialized for "
                f"n_nodes={self.n_nodes} seed={self.seed}, requested "
                f"n_nodes={n_cpus} seed={seed}")
        return [self.replay(pid) for pid in range(len(self.counts))]

    def replay(self, pid: int) -> Iterator[Instruction]:
        """Lazy instruction stream of one process."""
        start = self._starts[pid]
        n = self.counts[pid]
        op = self._op
        meta = self._meta
        lat = self._lat
        pc = self._pc
        addr = self._addr
        extra = self._extra
        path = self.path

        def _iter():
            i = start
            end = start + n
            while i < end:
                o = op[i]
                if o == OP_BRANCH:
                    m = meta[i]
                    yield Instruction(o, pc[i], addr=addr[i],
                                      latency=lat[i], taken=bool(m & 4),
                                      target=extra[i], branch_kind=m & 3)
                else:
                    nd = meta[i] >> 3
                    if nd:
                        e = extra[i]
                        if nd == 1:
                            deps = (e & 0xFFFF,)
                        elif nd == 2:
                            deps = (e & 0xFFFF, (e >> 16) & 0xFFFF)
                        else:
                            deps = (e & 0xFFFF, (e >> 16) & 0xFFFF,
                                    (e >> 32) & 0xFFFF)
                    else:
                        deps = ()
                    yield Instruction(o, pc[i], addr=addr[i], deps=deps,
                                      latency=lat[i])
                i += 1
            raise ArenaExhausted(
                f"process {pid} consumed all {n} materialized "
                f"instructions of {path.name}; re-running on the "
                f"generator path")

        return _iter()

    @property
    def total_instructions(self) -> int:
        return sum(self.counts)

    def close(self) -> None:
        for view in (self._pc, self._addr, self._extra, self._op,
                     self._meta, self._lat):
            view.release()
        if self._mapping is not None:
            self._mapping.close()
            self._mapping = None


# ------------------------------------------------------------------ loading

def _read_arena(path: Path) -> TraceArena:
    """Open, validate and map one arena file (raises on any defect)."""
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise CorruptArena(f"bad magic {magic!r}")
        raw_len = fh.read(4)
        if len(raw_len) != 4:
            raise CorruptArena("truncated header length")
        header_len = int.from_bytes(raw_len, "little")
        if header_len <= 0 or header_len > 1 << 24:
            raise CorruptArena(f"implausible header length {header_len}")
        header_bytes = fh.read(header_len)
        if len(header_bytes) != header_len:
            raise CorruptArena("truncated header")
        try:
            header = json.loads(header_bytes)
        except ValueError as exc:
            raise CorruptArena(f"unparseable header: {exc}") from exc
        if header.get("format") != _FORMAT or \
                header.get("trace_version") != TRACE_VERSION:
            raise CorruptArena(
                f"format/trace-version mismatch "
                f"(format={header.get('format')}, "
                f"trace_version={header.get('trace_version')})")
        body_offset = len(MAGIC) + 4 + header_len
        try:
            total = sum(int(n) for n in header["counts"])
            expected = 3 * total + ((-3 * total) % 8) + 24 * total
        except (KeyError, TypeError, ValueError) as exc:
            raise CorruptArena(f"malformed header: {exc}") from exc
        size = os.fstat(fh.fileno()).st_size
        if size - body_offset != expected:
            raise CorruptArena(
                f"body is {size - body_offset} bytes, expected {expected}")
        try:
            mapping = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        except (OSError, ValueError):
            mapping = None
        if mapping is not None:
            body = memoryview(mapping)[body_offset:]
        else:                                        # pragma: no cover
            fh.seek(body_offset)
            body = fh.read()
        digest = hashlib.sha256(body).hexdigest()
        if digest != header.get("checksum"):
            if mapping is not None:
                if isinstance(body, memoryview):
                    body.release()
                mapping.close()
            raise CorruptArena(
                f"checksum mismatch (stored "
                f"{str(header.get('checksum'))[:12]}..., computed "
                f"{digest[:12]}...)")
        return TraceArena(path, header, body, mapping=mapping)


#: Process-wide registry of loaded arenas, keyed by absolute path.
#: Fork-server workers inherit loaded arenas; spawn workers (and arenas
#: materialized after the pool started) map the file on first use --
#: the page cache still shares the bytes across processes.
_REGISTRY: Dict[str, TraceArena] = {}


def load_cached(path: Union[str, Path],
                quarantine: bool = True) -> Optional[TraceArena]:
    """The arena at ``path``, memoized per process; ``None`` on any
    defect.  With ``quarantine`` (the parent side), a corrupt file is
    moved to ``quarantine/`` beside the arenas -- never silently
    overwritten -- so the sweep regenerates a clean one; workers pass
    ``quarantine=False`` and just fall back to the generator path.
    """
    path = Path(path)
    key = str(path.resolve()) if path.exists() else str(path)
    cached = _REGISTRY.get(key)
    if cached is not None:
        return cached
    try:
        arena = _read_arena(path)
    except OSError:
        return None
    except CorruptArena as exc:
        if quarantine:
            _quarantine(path, str(exc))
        return None
    _REGISTRY[key] = arena
    return arena


def _quarantine(path: Path, reason: str) -> None:
    from repro.run import atomicio
    atomicio.quarantine(path, reason, label="arena",
                        quarantine_dir=path.parent / QUARANTINE_DIR,
                        stacklevel=4)


def forget(path: Union[str, Path]) -> None:
    """Drop a registry entry (tests and regeneration paths)."""
    path = Path(path)
    for key in (str(path), str(path.resolve()) if path.exists()
                else str(path)):
        arena = _REGISTRY.pop(key, None)
        if arena is not None:
            arena.close()


def registry_size() -> int:
    return len(_REGISTRY)


# ---------------------------------------------------------------- recording

class _RecordingWorkload:
    """Drop-in workload whose streams are teed into per-process lists."""

    def __init__(self, workload, recorder: "ArenaRecorder"):
        self._workload = workload
        self._recorder = recorder
        self.name = workload.name
        self.processes_per_cpu = workload.processes_per_cpu

    def generators(self, n_cpus: int, seed: int = 0) -> List[Iterator]:
        sources = [iter(g)
                   for g in self._workload.generators(n_cpus, seed=seed)]
        records: List[List[Instruction]] = [[] for _ in sources]
        self._recorder._captured(sources, records)
        return [self._tee(src, rec.append)
                for src, rec in zip(sources, records)]

    @staticmethod
    def _tee(source: Iterator, sink) -> Iterator[Instruction]:
        for ins in source:
            sink(ins)
            yield ins


class ArenaRecorder:
    """Materialize an arena from the first job of a sweep group.

    ``workload()`` hands out a fresh recording wrapper per attempt (so
    retries restart from identically-seeded generators); after the
    attempt succeeds, :meth:`write` extends every recorded stream by a
    safety margin -- sibling configurations consume slightly different
    per-process prefixes -- and persists the arena.
    """

    #: Extra stream depth beyond the recorded consumption: half again
    #: plus a flat floor, absorbing scheduling drift between the
    #: recording configuration and its sweep siblings.
    MARGIN_FLOOR = 512

    def __init__(self, workload, n_nodes: int, seed: int,
                 workload_dict: Dict[str, object], total_budget: int):
        self._workload = workload
        self.n_nodes = int(n_nodes)
        self.seed = int(seed)
        self.workload_dict = workload_dict
        self.total_budget = int(total_budget)
        self._sources: Optional[List[Iterator]] = None
        self._records: Optional[List[List[Instruction]]] = None

    def workload(self) -> _RecordingWorkload:
        return _RecordingWorkload(self._workload, self)

    def _captured(self, sources, records) -> None:
        self._sources = sources
        self._records = records

    def key(self) -> str:
        return arena_key(self.workload_dict, self.n_nodes, self.seed,
                         self.total_budget)

    def write(self, path: Union[str, Path]) -> bool:
        """Extend the recorded streams by the margin and persist them."""
        if not self._records or self._sources is None:
            return False
        for source, record in zip(self._sources, self._records):
            margin = max(self.MARGIN_FLOOR, len(record) // 2)
            for _ in range(margin):
                record.append(next(source))
        meta = {
            "key": self.key(),
            "workload": self.workload_dict,
            "workload_name": self._workload.name,
            "n_nodes": self.n_nodes,
            "processes_per_cpu": self._workload.processes_per_cpu,
            "seed": self.seed,
            "total_budget": self.total_budget,
        }
        ok = write_arena(path, self._records, meta)
        self._sources = None
        self._records = None
        return ok
