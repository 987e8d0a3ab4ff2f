"""Deterministic host-side fault injection for the experiment runner.

The resilience layer (retries, timeouts, cache quarantine) is only
trustworthy if every recovery path can be demonstrated on demand.  This
module injects *host-side* faults -- worker crashes at job start,
hangs past the job timeout, corrupted cache writes, and storage failures on every
durable artifact write (torn writes, short writes, ENOSPC, EIO, crash
between temp file and rename, dropped fsync) -- without ever
touching simulated state: a fault delays or re-runs a job, but the
simulation itself is deterministic, so the surviving results are
byte-identical to a fault-free run.

Activation is via the ``REPRO_FAULTS`` environment variable::

    REPRO_FAULTS=crash:0.2,hang:0.1,corrupt:0.1,seed:7

Recognised keys:

``crash:P``     probability a job attempt raises :class:`InjectedCrash`
``hang:P``      probability a job attempt sleeps ``hang_s`` seconds
                before running (long enough to trip ``--job-timeout``)
``corrupt:P``   probability a cache write is truncated or bit-flipped
``torn:P``      per-durable-write probability the stored bytes are
                truncated at a hash-derived offset while the rename
                still completes (a torn write the next read must
                detect, quarantine, and recompute around)
``shortwrite:P`` per-durable-write probability only a prefix reaches
                the temp file before the writer fails with EIO
``enospc:P``    per-durable-write probability the write fails up front
                with ENOSPC (disk full)
``eio:P``       per-durable-write probability the final rename fails
                with EIO
``renamecrash:P`` per-durable-write probability the writer "dies"
                between writing the temp file and renaming it,
                leaving an orphaned ``*.tmp`` behind (raises
                :class:`InjectedWriterDeath`)
``fsyncdrop:P`` per-durable-write probability the fsync is silently
                skipped (the content is intact; models a lying disk
                cache)
``seed:N``      integer folded into every fault decision (default 0)
``hang_s:S``    injected hang duration in seconds (default 30)

Every decision is a pure function of ``(seed, kind, fingerprint,
attempt)`` hashed through sha256 -- no global RNG state, no wall clock
-- so a sweep re-run with the same plan injects exactly the same faults,
and a retried attempt of the same job rolls independently (which is what
lets retries eventually succeed).  Each pool chunk carries the
parent's plan string, so pool workers and the in-process runner inject
identically.

Disk faults roll per ``(artifact category, op, sequence number)``
instead of per job: :mod:`repro.run.atomicio` keys every durable write
through :meth:`FaultPlan.disk_fault`, so the schedule of injected disk
faults is a pure function of the plan string and the order of writes --
replay the same sweep serially and the same writes fail the same way.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

#: Environment variable holding the fault plan.
FAULTS_ENV = "REPRO_FAULTS"

#: Default injected hang duration (seconds).  Long enough to exceed any
#: sensible ``--job-timeout`` yet bounded, so abandoned workers drain.
DEFAULT_HANG_SECONDS = 30.0

#: Disk-fault kinds, in the fixed order :meth:`FaultPlan.disk_fault`
#: rolls them (first firing kind wins for a given write).
DISK_FAULT_KINDS: Tuple[str, ...] = (
    "torn", "shortwrite", "enospc", "eio", "renamecrash", "fsyncdrop")

_PROB_KEYS = ("crash", "hang", "corrupt") + DISK_FAULT_KINDS


class InjectedCrash(Exception):
    """Raised by a worker attempt selected for a crash fault.

    Deliberately a direct :class:`Exception` subclass -- not an
    ``OSError`` or ``RuntimeError`` -- so it exercises the executor's
    *arbitrary* per-job exception isolation, not a lucky catch tuple.
    """


class InjectedWriterDeath(InjectedCrash):
    """Raised by a durable write selected for a ``renamecrash`` fault:
    the writing process dies between temp file and rename.

    Unlike a job attempt's :class:`InjectedCrash`, which the runner
    isolates per attempt, a writer death is not absorbed as a failed
    attempt: :func:`repro.run.forkserver.run_entry` re-raises it, so it
    ends an in-process sweep wherever the write was (a cache put or a
    triage bundle).  In a pool worker it fails the attempt it hit and
    ends the worker's chunk there; the jobs the chunk never reached
    are requeued uncharged.
    """


class InjectedDiskFault(OSError):
    """An injected storage failure (ENOSPC, EIO, short write).

    Deliberately an :class:`OSError` subclass -- carrying a real
    ``errno`` -- so it flows through exactly the ``except OSError``
    degradation paths a genuine full or dying disk would take.
    """


@dataclass(frozen=True)
class FaultPlan:
    """Parsed fault-injection configuration."""

    crash: float = 0.0
    hang: float = 0.0
    corrupt: float = 0.0
    torn: float = 0.0
    shortwrite: float = 0.0
    enospc: float = 0.0
    eio: float = 0.0
    renamecrash: float = 0.0
    fsyncdrop: float = 0.0
    seed: int = 0
    hang_seconds: float = DEFAULT_HANG_SECONDS

    # ------------------------------------------------------------- parsing

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse a ``crash:0.2,hang:0.1,corrupt:0.1,seed:7`` string."""
        values: dict = {}
        for item in text.split(","):
            item = item.strip()
            if not item:
                continue
            key, sep, raw = item.partition(":")
            key = key.strip().lower()
            if not sep:
                raise ValueError(
                    f"malformed {FAULTS_ENV} entry {item!r}: expected "
                    f"key:value")
            if key in _PROB_KEYS:
                prob = float(raw)
                if not 0.0 <= prob <= 1.0:
                    raise ValueError(
                        f"{FAULTS_ENV} probability {key}:{raw} outside "
                        f"[0, 1]")
                values[key] = prob
            elif key == "seed":
                values["seed"] = int(raw)
            elif key == "hang_s":
                values["hang_seconds"] = float(raw)
            else:
                raise ValueError(
                    f"unknown {FAULTS_ENV} key {key!r}; expected one of "
                    f"{sorted(_PROB_KEYS + ('seed', 'hang_s'))}")
        return cls(**values)

    @property
    def active(self) -> bool:
        return any(getattr(self, kind) for kind in _PROB_KEYS)

    # ------------------------------------------------------------- rolling

    def _unit(self, kind: str, fingerprint: str, attempt: int) -> float:
        """Deterministic value in [0, 1) for one fault decision."""
        token = f"{self.seed}:{kind}:{fingerprint}:{attempt}"
        digest = hashlib.sha256(token.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big") / float(1 << 64)

    def roll(self, kind: str, fingerprint: str, attempt: int = 0) -> bool:
        """Should fault ``kind`` fire for this (job, attempt)?"""
        probability = getattr(self, kind)
        return probability > 0.0 and \
            self._unit(kind, fingerprint, attempt) < probability

    # ---------------------------------------------------------- injection

    def maybe_crash(self, fingerprint: str, attempt: int = 0) -> None:
        """Raise :class:`InjectedCrash` if this attempt was selected."""
        if self.roll("crash", fingerprint, attempt):
            raise InjectedCrash(
                f"injected crash (job {fingerprint[:12]}, "
                f"attempt {attempt})")

    def maybe_hang(self, fingerprint: str, attempt: int = 0) -> bool:
        """Sleep ``hang_seconds`` if selected; returns whether it fired."""
        if not self.roll("hang", fingerprint, attempt):
            return False
        import time
        time.sleep(self.hang_seconds)
        return True

    def _corruption(self, size: int,
                    fingerprint: str) -> Optional[Tuple[str, int]]:
        """How a cache payload of ``size`` characters is corrupted:
        ``("truncate", keep)`` or ``("flip", position)``, or ``None``
        when it is not selected."""
        if not self.roll("corrupt", fingerprint) or not size:
            return None
        selector = self._unit("corrupt-mode", fingerprint, 0)
        if selector < 0.5:
            return "truncate", max(1, size // 2)
        return "flip", int(self._unit("corrupt-pos", fingerprint, 0)
                           * size) % size

    def corrupt_text(self, text: str, fingerprint: str) -> str:
        """Corrupt a cache payload if selected (else return unchanged).

        Alternates deterministically between truncation (half the
        payload vanishes, as if the writer was SIGKILLed) and a single
        flipped character (silent bit rot).  Either way the stored
        checksum no longer matches, which is exactly what the cache's
        quarantine path must catch.
        """
        edit = self._corruption(len(text), fingerprint)
        if edit is None:
            return text
        mode, at = edit
        if mode == "truncate":
            return text[:at]
        return text[:at] + chr(ord(text[at]) ^ 0x01) + text[at + 1:]

    def corrupt_chunks(self, chunks: List[bytes],
                       fingerprint: str) -> List[bytes]:
        """:meth:`corrupt_text` for an ASCII payload held as byte chunks
        written back to back: one byte per character, so the same
        payloads are cut at the same offsets or flipped at the same
        character.  Only the chunk that changes is copied."""
        edit = self._corruption(sum(map(len, chunks)), fingerprint)
        if edit is None:
            return chunks
        mode, at = edit
        if mode == "truncate":
            return prefix_chunks(chunks, at)
        out = list(chunks)
        for index, chunk in enumerate(out):
            if at < len(chunk):
                flipped = bytearray(chunk)
                flipped[at] ^= 0x01
                out[index] = bytes(flipped)
                break
            at -= len(chunk)
        return out

    # ------------------------------------------------------------ disk ops

    @property
    def disk_active(self) -> bool:
        """Whether any disk-fault kind has a non-zero probability."""
        return any(getattr(self, kind) for kind in DISK_FAULT_KINDS)

    def disk_fault(self, category: str, op: str,
                   seq: int) -> Optional[str]:
        """Which disk fault (if any) fires for one durable write.

        ``category`` is the artifact category (``cache`` /
        ``manifest`` / ``triage``), ``op`` the operation name, and
        ``seq`` the category-local operation sequence number.  Kinds
        roll in :data:`DISK_FAULT_KINDS` order and the first hit
        wins, so a given (plan, write) pair always resolves to the same
        single fault -- the whole schedule replays exactly.
        """
        fingerprint = f"{category}:{op}"
        for kind in DISK_FAULT_KINDS:
            if self.roll(kind, fingerprint, seq):
                return kind
        return None

    def torn_offset(self, size: int, category: str, seq: int) -> int:
        """Hash-derived truncation point in ``[0, size)`` for a torn or
        short write -- strictly less than ``size`` so the stored bytes
        really are damaged."""
        if size <= 1:
            return 0
        unit = self._unit("torn-offset", category, seq)
        return min(size - 1, int(unit * size))


def prefix_chunks(chunks: Sequence[bytes], size: int) -> List[bytes]:
    """The first ``size`` bytes of ``chunks`` written back to back, as
    chunks (a torn or corrupted write keeps only a prefix)."""
    out = []
    for chunk in chunks:
        if size <= 0:
            break
        out.append(chunk[:size])
        size -= len(chunk)
    return out


def plan_from_env(env: Optional[str] = None) -> Optional[FaultPlan]:
    """The active :class:`FaultPlan`, or ``None`` when none is set.

    ``env`` overrides the environment lookup (for tests).  An unset or
    empty variable disables injection entirely; a plan whose
    probabilities are all zero is likewise reported as inactive.
    """
    text = env if env is not None else os.environ.get(FAULTS_ENV, "")
    if not text.strip():
        return None
    plan = FaultPlan.parse(text)
    return plan if plan.active else None
