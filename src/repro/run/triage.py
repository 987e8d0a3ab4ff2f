"""Self-contained crash-triage bundles for failed experiment jobs.

When a job attempt dies -- an injected fault, a forward-progress
watchdog trip (:class:`~repro.system.machine.WedgeError`), or a genuine
modelling bug -- the bare manifest line ("failed after N attempts")
forces whoever investigates to reconstruct the run by hand.  A triage
bundle instead captures everything needed to reproduce and classify the
failure offline, under ``<cache>/triage/<fingerprint[:12]>-a<attempt>/``:

``job.json``
    The full job description (``JobSpec.to_dict()``, its sanitizer and
    watchdog settings included), fingerprint, model version, attempt
    number, the error type/message, the structured wedge
    classification when the watchdog tripped, and the retired count
    and cycle the machine had reached.
``stream-tail.json``
    The tail of each process's buffered instruction stream at the time
    of death -- the instructions in flight (unretired or buffered ahead
    of fetch), decoded to mnemonics.

``repro replay <bundle>`` rebuilds the job from ``job.json``, its
tools included, and re-runs it; because the simulator is deterministic,
the failure either reproduces exactly (a simulated wedge or modelling
bug) or the run completes (the original failure was host-side).
:func:`run_attempt` is the one job-attempt path of the runner, in
process and pooled alike (both reach it through
:func:`repro.run.forkserver.run_entry`), and writes the bundle when an
attempt fails.

Bundle writes go through :mod:`repro.run.atomicio` (atomic,
fault-injected) and are best-effort: an unwritable cache degrades to a
warning, never masks the original failure.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Union

from repro.run import atomicio
from repro.run.faults import FaultPlan
from repro.run.jobs import MODEL_VERSION, JobSpec

if TYPE_CHECKING:
    from repro.core.experiment import SimulationResult
    from repro.system.machine import Machine

#: Subdirectory of the result cache holding triage bundles.
TRIAGE_DIR = "triage"

#: ``job.json`` schema version.  2: the job carries its tools, and the
#: separate ``"watchdog"`` block is gone.  A format-1 bundle is refused:
#: replayed without its watchdog, a recorded wedge would hang.
BUNDLE_FORMAT = 2

#: Buffered instructions kept per process in ``stream-tail.json``.
STREAM_TAIL = 32


def bundle_dir(cache_dir: Union[str, Path], fingerprint: str,
               attempt: int) -> Path:
    return Path(cache_dir) / TRIAGE_DIR / f"{fingerprint[:12]}-a{attempt}"


def bundle_dirs(cache_dir: Union[str, Path]) -> List[Path]:
    """Every triage bundle directory under ``cache_dir``, sorted.

    Bundle names are ``<fp12>-a<attempt>`` (see :func:`bundle_dir`);
    ``repro gc`` matches the fingerprint prefix against the sweep
    manifest to pin bundles of jobs still in flight.
    """
    root = Path(cache_dir) / TRIAGE_DIR
    if not root.is_dir():
        return []
    return sorted(entry for entry in root.iterdir()
                  if entry.is_dir() and "-a" in entry.name)


def _stream_tails(machine: Machine) -> List[Dict[str, Any]]:
    """Per-process tails of the in-flight instruction window."""
    from repro.trace.instr import I_ADDR, I_OP, I_PC, OP_NAMES
    tails = []
    for process in machine.processes:
        buf = list(process.trace._buf)[-STREAM_TAIL:]
        tails.append({
            "pid": process.pid,
            "cpu": process.cpu,
            "consumed": process.trace.consumed,
            "resume_seq": process.resume_seq,
            "tail": [{"op": OP_NAMES.get(rec[I_OP], str(rec[I_OP])),
                      "pc": f"{rec[I_PC]:#x}",
                      "addr": f"{rec[I_ADDR]:#x}"} for rec in buf],
        })
    return tails


def write_bundle(cache_dir: Union[str, Path], *, spec: JobSpec,
                 fingerprint: str, attempt: int, error: BaseException,
                 machine: Optional[Machine] = None) -> Optional[Path]:
    """Write one triage bundle; returns its directory or ``None``.

    ``machine`` may be ``None`` when the failure predates machine
    construction (the bundle then holds the job description and error
    only).
    """
    from repro.system.machine import WedgeError
    directory = bundle_dir(cache_dir, fingerprint, attempt)
    payload: Dict[str, Any] = {
        "format": BUNDLE_FORMAT,
        "model_version": MODEL_VERSION,
        "fingerprint": fingerprint,
        "attempt": attempt,
        "job": spec.to_dict(),
        "error": {"type": type(error).__name__, "message": str(error)},
        "wedge": error.to_dict() if isinstance(error, WedgeError)
        else None,
        "retired": machine.total_retired() if machine is not None
        else None,
        "cycle": machine.now if machine is not None else None,
    }
    try:
        directory.mkdir(parents=True, exist_ok=True)
        atomicio.sweep_orphans(directory)
        ok = True
        if machine is not None:
            ok &= atomicio.atomic_write_json(
                directory / "stream-tail.json", _stream_tails(machine),
                category="triage", sort_keys=False)
        ok &= atomicio.atomic_write_json(directory / "job.json", payload,
                                         category="triage")
        if not ok:
            raise OSError("bundle artifact write failed")
    except OSError as exc:
        warnings.warn(
            f"triage bundle write failed for {fingerprint[:12]} "
            f"({type(exc).__name__}: {exc})", RuntimeWarning,
            stacklevel=2)
        return None
    return directory


def run_attempt(spec: JobSpec, attempt: int = 0, *,
                faults: Optional[FaultPlan] = None,
                cache_dir: Optional[Union[str, Path]] = None
                ) -> SimulationResult:
    """One attempt of ``spec``: injected host faults, then
    :meth:`JobSpec.run`.

    Faults fire before the simulation starts, so they never perturb
    simulated state.  When the attempt fails and a ``cache_dir`` is
    given, a bundle is written beneath it -- with the failed machine's
    retired count, cycle and stream tails when the failure came from
    inside the simulation -- and its path is attached to the exception
    as ``__triage_bundle__``.
    """
    try:
        if faults is not None:
            fingerprint = spec.fingerprint()
            faults.maybe_crash(fingerprint, attempt)
            faults.maybe_hang(fingerprint, attempt)
        return spec.run()
    except Exception as exc:
        if cache_dir is not None:
            bundle = write_bundle(
                cache_dir, spec=spec, fingerprint=spec.fingerprint(),
                attempt=attempt, error=exc,
                machine=getattr(exc, "__machine__", None))
            if bundle is not None:
                exc.__triage_bundle__ = str(bundle)
        raise


def load_bundle(path: Union[str, Path]) -> Dict[str, Any]:
    """Parse and minimally validate a bundle's ``job.json``.

    ``path`` may be the bundle directory or the ``job.json`` itself.
    Raises ``ValueError`` on a malformed bundle and ``OSError`` when
    unreadable.
    """
    path = Path(path)
    if path.is_dir():
        path = path / "job.json"
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or data.get("format") != BUNDLE_FORMAT:
        raise ValueError(
            f"{path} is not a format-{BUNDLE_FORMAT} triage bundle")
    for key in ("job", "fingerprint", "attempt", "error"):
        if key not in data:
            raise ValueError(f"{path} is missing {key!r}")
    data["__dir__"] = str(path.parent)
    return data


def format_bundle(data: Dict[str, Any]) -> str:
    """One-screen human summary of a loaded bundle."""
    error = data["error"]
    lines = [
        f"job          {data['fingerprint'][:12]} "
        f"(attempt {data['attempt']})",
        f"workload     {data['job']['workload']['kind']} "
        f"i={data['job']['instructions']} w={data['job']['warmup']} "
        f"seed={data['job']['seed']}",
        f"error        {error['type']}: {error['message']}",
    ]
    wedge = data.get("wedge")
    if wedge:
        where = "machine-wide" if wedge.get("node") is None \
            else f"node {wedge['node']}"
        lines.append(f"wedge        {wedge['kind']} ({where}) at cycle "
                     f"{wedge['cycle']}, {wedge['retired']} retired")
        if wedge.get("detail"):
            lines.append(f"             {wedge['detail']}")
    return "\n".join(lines)
