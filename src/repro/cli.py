"""Command-line interface: regenerate the paper's experiments.

Usage::

    python -m repro characterize [--quick]      # in-text tables
    python -m repro figure 2a|2b|2c|3a|3b|3c|4|5|6|7a|7b [oltp|dss] [--quick]
    python -m repro report [--quick]            # everything, in order
    python -m repro sweep-status                # manifest progress, no sims
    python -m repro validate                    # internal consistency checks
    python -m repro check [--skip-mutations]    # litmus + sanitizer suite
    python -m repro lint [paths...]             # determinism linter
    python -m repro replay BUNDLE               # re-run a crash-triage bundle
    python -m repro sweep [oltp|dss|tpcc]       # seed sweep
    python -m repro gc [--dry-run]              # evict what no reader can use

``figure`` and ``report`` are lookups in ``repro.core.figures.FIGURES``
(figures 5 and 6 take a workload, default OLTP).  ``--quick`` runs its
small ``SIZES["quick"]`` simulations (~seconds each) for smoke testing;
the defaults match the benchmark harness.  ``validate``, ``check`` and
``lint`` exit nonzero on any failure, so they gate CI directly.

Runner options (accepted before or after the subcommand):

``--jobs N``
    Fan independent simulations out over ``N`` worker processes
    (default: the ``REPRO_JOBS`` environment variable, else 1).
``--no-cache``
    Disable the persistent result cache.  By default completed runs are
    memoized under ``.repro-cache/`` (override with ``REPRO_CACHE_DIR``)
    keyed by a content hash of the full configuration, so repeating a
    report is near-instant; ``repro report`` prints a cache-stats line.
``--cache-dir DIR``
    Put the result cache at ``DIR`` instead of the default location
    (equivalent to ``REPRO_CACHE_DIR``, but per-invocation).

Resilience options (accepted before or after the subcommand):

``--retries N``
    Retry each failing job up to ``N`` extra times with deterministic
    exponential backoff before recording it as failed (default 2).
    Jobs that exhaust their retries render as explicit gaps; the sweep
    keeps going.
``--job-timeout SECONDS``
    Abandon and retry any single attempt running longer than this
    (default: unlimited).  On the process pool the attempt is cancelled
    outright; serially it is discarded after the fact.
``--resume``
    Continue an interrupted sweep: keep the completed entries of the
    sweep manifest (written next to the cache) and execute only the
    incomplete remainder.  ``repro sweep-status`` prints the manifest
    without running anything.

A failed attempt reruns from the start, and leaves a replayable triage
bundle under ``triage/`` beside the result cache; ``repro replay
<bundle>`` re-runs it deterministically.

Deterministic fault injection for exercising all of the above is
enabled with ``REPRO_FAULTS=crash:0.2,hang:0.1,corrupt:0.1,seed:7``
(see ``repro.run.faults``); injected faults are host-side only and
never change simulated cycle counts.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

import repro.run as run
from repro.core import figures as F
from repro.stats.render import render_figure

#: Kept for perfbench only; removed with ROADMAP item 6.
_QUICK_SIZES = F.SIZES["quick"]


def _sizes(workload: str, quick: bool):
    return F.SIZES["quick" if quick else "full"][workload]


def _print_figure(fig) -> None:
    print(fig.format_table())
    rows = [(row.label, row.normalized,
             row.result.breakdown.summary_row()) for row in fig.rows]
    print(render_figure(rows))
    print()
    for name, dist in fig.extras.items():
        row = " ".join(f">={n}:{v:.2f}" for n, v in dist.items())
        print(f"  {name}: {row}")


def _show(key: str, quick: bool) -> None:
    """Run ``FIGURES[key]`` at its workload's sizes and print it."""
    _print_figure(F.run_figure(key, *_sizes(F.FIGURES[key].workload,
                                            quick)))


def cmd_characterize(quick: bool) -> None:
    instr, warm = _sizes(F.FIGURES["characterize"].workload, quick)
    table = F.characterization_table(instructions=instr, warmup=warm)
    print("== In-text characterization ==")
    for name, row in table.items():
        print(f"  {name.upper()}:")
        if row is None:
            print("    FAILED (job exhausted retries; see sweep-status)")
            continue
        for key, value in row.items():
            print(f"    {key:<36s} {value:.3f}")


def cmd_figure(which: str, workload: Optional[str], quick: bool) -> None:
    """Show ``FIGURES[which]``, or ``FIGURES["which workload"]``; a
    figure of one fixed workload rejects the other."""
    entry = F.FIGURES.get(which)
    if entry is None:
        key = f"{which} {workload or 'oltp'}"
        if key not in F.FIGURES:
            raise SystemExit(f"unknown figure {which!r}")
        which = key
    elif workload and workload != entry.workload:
        twin = next((k for k, e in F.FIGURES.items()
                     if e.workload == workload and e.title == entry.title),
                    None)
        where = (f"{workload.upper()} is figure {twin}" if twin
                 else f"there is no {workload.upper()} figure {which}")
        raise SystemExit(f"figure {which} is {entry.workload.upper()}; "
                         f"{where}")
    _show(which, quick)


def cmd_report(quick: bool) -> None:
    from repro.run import profile as run_profile
    manifest = run.shared_manifest()
    if manifest is not None and run.runner_state().resume \
            and len(manifest):
        print(f"resuming: {manifest.format_summary()}")
    run_profile.reset_phase_log()
    with run_profile.phase("characterize"):
        cmd_characterize(quick)
    print()
    for key in F.REPORT:
        with run_profile.phase(f"figure {key}"):
            _show(key, quick)
    cache = run.shared_cache()
    if cache is not None:
        print(cache.format_stats())
    if manifest is not None:
        print(manifest.format_summary())
    print(run_profile.format_phase_log())


def cmd_sweep_status() -> int:
    """Print manifest progress without running any simulation.

    Exits nonzero when the manifest records failed jobs, so scripted
    sweeps (CI, Makefiles) cannot mistake a sweep with gaps for a clean
    one.
    """
    manifest = run.shared_manifest()
    if manifest is None:
        print("sweep-status: result cache disabled, no manifest")
        return 1
    print(f"manifest: {manifest.path}")
    print(manifest.format_status())
    cache = run.shared_cache()
    if cache is not None:
        print(cache.format_stats())
    failed = manifest.counts().get("failed", 0)
    if failed:
        print(f"FAILED: {failed} job(s) exhausted retries")
        return 1
    return 0


def cmd_sweep(args, quick: bool) -> int:
    """Run a seed sweep on the local runner.

    One job per seed for the chosen workload; with ``--jobs N`` the
    sweep fans out over the process pool (and degrades to serial
    execution if the pool is unavailable).  Exits nonzero when any job
    exhausted its retries.
    """
    from repro.params import default_system
    from repro.run.jobs import JobSpec, WorkloadSpec
    sizes_key = "dss" if args.workload == "dss" else "oltp"
    instr, warm = _sizes(sizes_key, quick)
    instructions = args.instructions if args.instructions is not None \
        else instr
    warmup = args.warmup if args.warmup is not None else warm
    specs = [JobSpec(default_system(), WorkloadSpec(args.workload),
                     instructions=instructions, warmup=warmup, seed=seed)
             for seed in range(max(1, args.seeds))]
    report = run.run_many(specs)
    print(report.format_summary())
    if report.fell_back_to_serial:
        print("sweep: degraded to serial execution "
              "(process pool unavailable)")
    manifest = run.shared_manifest()
    if manifest is not None:
        print(manifest.format_summary())
    for outcome in report.failures:
        print(f"FAILED {outcome.spec.describe()}: {outcome.error}")
    return 1 if report.failures else 0


def cmd_gc(args) -> int:
    """Plan (and, without ``--dry-run``, apply) cache garbage collection."""
    from repro.run import gc as run_gc
    cache = run.shared_cache()
    cache_dir = cache.path if cache is not None \
        else run.default_cache_dir()
    plan = run_gc.plan_gc(cache_dir)
    print(f"gc: {cache_dir}")
    print(plan.format_plan(verbose=args.verbose))
    if args.dry_run:
        print("gc: dry run, nothing deleted")
        return 0
    removed, freed = plan.apply()
    print(f"gc: removed {removed} item(s), freed {freed} bytes")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    # Shared options use default=None / SUPPRESS so a flag given before
    # the subcommand is not clobbered by the subparser's defaults.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--quick", action="store_true",
                        default=argparse.SUPPRESS,
                        help="small simulations for smoke testing")
    common.add_argument("--jobs", type=int, default=argparse.SUPPRESS,
                        metavar="N",
                        help="worker processes for independent runs "
                             "(default: $REPRO_JOBS or 1)")
    common.add_argument("--no-cache", action="store_true",
                        default=argparse.SUPPRESS,
                        help="disable the persistent result cache")
    common.add_argument("--cache-dir", default=argparse.SUPPRESS,
                        metavar="DIR",
                        help="result cache location (default: "
                             "$REPRO_CACHE_DIR or .repro-cache/)")
    common.add_argument("--retries", type=int, default=argparse.SUPPRESS,
                        metavar="N",
                        help="extra attempts per failed job before "
                             "recording it as a gap (default 2)")
    common.add_argument("--job-timeout", type=float,
                        default=argparse.SUPPRESS, metavar="SECONDS",
                        help="abandon and retry any attempt running "
                             "longer than this (default: unlimited)")
    common.add_argument("--resume", action="store_true",
                        default=argparse.SUPPRESS,
                        help="continue an interrupted sweep from its "
                             "manifest; only the incomplete remainder "
                             "executes")
    parser = argparse.ArgumentParser(prog="repro", description=__doc__,
                                     parents=[common])
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("characterize", parents=[common])
    fig = sub.add_parser("figure", parents=[common])
    fig.add_argument("which")
    fig.add_argument("workload", nargs="?", choices=["oltp", "dss"])
    sub.add_parser("report", parents=[common])
    sub.add_parser(
        "sweep-status", parents=[common],
        help="print sweep-manifest progress without simulating")
    sub.add_parser("validate", parents=[common])
    check = sub.add_parser(
        "check", parents=[common],
        help="litmus matrix, sanitizer smoke runs and mutation self-test")
    check.add_argument("--skip-mutations", action="store_true",
                       help="skip the mutation self-test (faster)")
    check.add_argument("--durability", action="store_true",
                       help="also audit the durable state under the "
                            "result cache (see `repro audit-state`)")
    lint = sub.add_parser(
        "lint", parents=[common],
        help="AST determinism linter over the simulator sources")
    lint.add_argument("paths", nargs="*",
                      help="files or directories (default: the installed "
                           "repro package)")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the rule catalog and exit")
    replay = sub.add_parser(
        "replay", parents=[common],
        help="re-run a crash-triage bundle deterministically")
    replay.add_argument("bundle",
                        help="bundle directory (or its job.json) written "
                             "under triage/ beside the result cache")
    sweep = sub.add_parser(
        "sweep", parents=[common],
        help="run a seed sweep on the local runner (process pool "
             "with --jobs N, else serial)")
    sweep.add_argument("workload", nargs="?", default="oltp",
                       choices=["oltp", "dss", "tpcc"])
    sweep.add_argument("--seeds", type=int, default=8, metavar="N",
                       help="number of seeds to sweep (default 8)")
    sweep.add_argument("--instructions", type=int, default=None,
                       metavar="N",
                       help="measured instructions per job (default: "
                            "the workload's benchmark size; --quick "
                            "shrinks it)")
    sweep.add_argument("--warmup", type=int, default=None, metavar="N")
    gc = sub.add_parser(
        "gc", parents=[common],
        help="delete what no current reader can use beside the result "
             "cache: entries of another model version, quarantined "
             "entries, bundles of done jobs, stale temp files")
    gc.add_argument("--dry-run", action="store_true",
                    help="print the eviction plan without deleting")
    gc.add_argument("--verbose", action="store_true",
                    help="list every planned eviction and pin")
    audit = sub.add_parser(
        "audit-state", parents=[common],
        help="walk every artifact beside the result cache (entries, "
             "manifest, quarantine, triage, temp files), verify checksums "
             "and assert the durability contract")
    audit.add_argument("audit_dir", nargs="?", default=None,
                       metavar="CACHE_DIR",
                       help="directory to audit (default: the active "
                            "result cache)")
    audit.add_argument("--sweep", action="store_true",
                       help="remove stale orphaned *.tmp files while "
                            "auditing (young ones are never touched)")
    audit.add_argument("--verbose", action="store_true",
                       help="also list informational notes")
    return parser


def cmd_audit_state(args) -> int:
    """Audit the durable tree; exit 0 iff the contract holds."""
    from repro.run.audit import audit_state
    cache = run.shared_cache()
    target = args.audit_dir if args.audit_dir is not None else (
        cache.path if cache is not None else run.default_cache_dir())
    report = audit_state(target, sweep=args.sweep)
    print(report.format_report(verbose=args.verbose))
    return 0 if report.ok else 1


def cmd_replay(args) -> int:
    """Re-run the job captured in a triage bundle, with the sanitizer
    and watchdogs it recorded.

    The simulator is deterministic, so the failure either reproduces
    exactly (a simulated wedge or modelling bug -- exit 1, with the
    classification printed) or the run completes cleanly (the original
    failure was host-side: an injected fault, OOM, a kill -- exit 0).
    Fault injection (``REPRO_FAULTS``) is deliberately not consulted.
    """
    from repro.run import triage
    from repro.run.jobs import JobSpec
    from repro.system.machine import WedgeError
    try:
        data = triage.load_bundle(args.bundle)
    except (OSError, ValueError) as exc:
        print(f"replay: cannot load bundle: {exc}")
        return 2
    print(triage.format_bundle(data))
    try:
        result = JobSpec.from_dict(data["job"]).run()
    except WedgeError as exc:
        print(f"replay: wedge reproduced: {exc}")
        return 1
    except Exception as exc:  # noqa: BLE001 -- report, don't traceback
        print(f"replay: failure reproduced: "
              f"{type(exc).__name__}: {exc}")
        return 1
    print(f"replay: completed cleanly: {result.cycles} cycles, "
          f"IPC {result.ipc:.3f} -- the recorded failure was host-side")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    quick = getattr(args, "quick", False)
    no_cache = getattr(args, "no_cache", False)
    run.configure(jobs=getattr(args, "jobs", None) or run.default_jobs(),
                  use_cache=not no_cache,
                  cache_dir=(None if no_cache
                             else getattr(args, "cache_dir", None)),
                  retries=getattr(args, "retries", None),
                  job_timeout=getattr(args, "job_timeout", None),
                  resume=getattr(args, "resume", None))

    if args.command == "lint":
        from repro.check.lint import RULES, run_lint
        if args.list_rules:
            for code, description in sorted(RULES.items()):
                print(f"{code}  {description}")
            return 0
        try:
            count = run_lint(args.paths or None)
        except FileNotFoundError as exc:
            print(f"repro lint: {exc.filename}: no such file or directory",
                  file=sys.stderr)
            return 2
        return 1 if count else 0
    if args.command == "check":
        from repro.check import run_check_suite
        ok = run_check_suite(verbose=True,
                             self_test=not args.skip_mutations,
                             durability=getattr(args, "durability",
                                                False))
        return 0 if ok else 1
    if args.command == "replay":
        return cmd_replay(args)
    if args.command == "sweep-status":
        return cmd_sweep_status()
    if args.command == "sweep":
        return cmd_sweep(args, quick)
    if args.command == "gc":
        return cmd_gc(args)
    if args.command == "audit-state":
        return cmd_audit_state(args)
    if args.command == "characterize":
        cmd_characterize(quick)
    elif args.command == "figure":
        cmd_figure(args.which, args.workload, quick)
    elif args.command == "report":
        cmd_report(quick)
    elif args.command == "validate":
        from repro.core.validation import run_all
        results = run_all(verbose=True)
        return 0 if all(r.passed for r in results) else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
