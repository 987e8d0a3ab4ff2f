"""Repository benchmark: one command, three workloads, every metric.

Run from the root of a checkout (it imports the simulator from
``src/``)::

    python3 perfbench/run.py --workload oltp-cell --seed 0 --trace 0
    python3 perfbench/run.py --workload report-quick --seed 0 --trace 1

``--trace 0`` times untraced passes for about ``--seconds`` seconds
and reports the end-to-end metrics of ``BENCHMARK.json``.  ``--trace 1``
runs one untraced and one traced pass and reports the per-layer
metrics.  ``--smoke`` shrinks every run length (the self-test uses it);
``--record`` runs one pass and stores its digest in ``digests.json``.
The last line of standard output is the result object; the line before
it is the run's record (stamp, digest, passes, and the layer table of a
traced run).  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

import harness

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DIGESTS = BENCH / "digests.json"


def _source_digest() -> str:
    """sha256 over the simulator sources (names and bytes)."""
    h = hashlib.sha256()
    src = ROOT / "src" / "repro"
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def stamp(seed: int) -> dict:
    from repro.run.jobs import MODEL_VERSION
    return {
        "python": platform.python_version(),
        "affinity_cores": len(os.sched_getaffinity(0)),
        "nproc": os.cpu_count(),
        "model_version": MODEL_VERSION,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
    }


def _recorded_digest(workload: str, seed: int):
    from repro.run.jobs import MODEL_VERSION
    table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    return table.get(str(MODEL_VERSION), {}).get(workload, {}).get(
        str(seed))


def _record_digest(workload: str, seed: int, digest: str) -> None:
    from repro.run.jobs import MODEL_VERSION
    table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    table.setdefault(str(MODEL_VERSION), {}).setdefault(
        workload, {})[str(seed)] = digest
    for per_version in table.values():
        for per_workload in per_version.values():
            ordered = sorted(per_workload.items(), key=lambda kv: int(kv[0]))
            per_workload.clear()
            per_workload.update(ordered)
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def measure(args, work: Path) -> dict:
    workload = harness.WORKLOADS[args.workload]
    sizes = harness.SMOKE if args.smoke else harness.Sizes()
    jobs = workload.jobs
    warm_reps = workload.warm_reps if sizes.warm_reps is None \
        else sizes.warm_reps
    bench = harness.Bench(work)

    def one_pass(n_jobs=jobs, reps=warm_reps):
        return harness.run_pass(bench, workload, args.seed, sizes,
                                n_jobs, reps)

    record = {"workload": args.workload, "trace": args.trace,
              "smoke": args.smoke, **stamp(args.seed)}
    problems = []
    if args.trace:
        untraced = one_pass()
        serial_wall = untraced.wall_s
        passes = [untraced]
        if jobs > 1:
            serial = one_pass(n_jobs=1, reps=0)
            serial_wall = serial.wall_s
            passes.append(serial)
        traced, tracer, traced_wall = harness.traced_pass(
            bench, workload, args.seed, sizes)
        passes.append(traced)
        metrics, problems = harness.layer_metrics(
            traced, tracer, traced_wall, untraced, serial_wall)
        record["layers"] = {
            layer: {"spans": tracer.count[layer],
                    "self_s": tracer.self_s[layer]}
            for layer in tracer.self_s}
        record["unspanned_s"] = traced_wall - tracer.root_s
        record["simulator_counters"] = tracer.simulator_counters()
        record["span_tallies"] = dict(tracer.tally)
    else:
        count = 1 if args.record else max(
            workload.min_passes, round(args.seconds / workload.pass_s))
        # Set-up launches are spread over the run, a few before each
        # pass, so their median does not hang on one moment's host speed.
        launches = -(-sizes.setup_reps // count)
        setup, passes = [], []
        for _ in range(count):
            setup += harness.measure_setup(
                ROOT, workload.setup_kind, args.seed, workload.setup_module,
                launches)
            passes.append(one_pass())
            passes[-1].reports = []   # keep no results between passes
        metrics = harness.end_to_end_metrics(passes, setup)
        record["setup_s"] = setup
    problems += [text for p in passes for text in p.problems]
    digests = {d for p in passes for d in [p.digest, *p.warm_digests]}
    digest = passes[0].digest
    recorded = None if args.smoke else _recorded_digest(args.workload,
                                                        args.seed)
    attempted = sum(p.jobs for p in passes)
    failed = sum(p.failed for p in passes)
    if len(digests) > 1:
        problems.append(f"passes disagree: digests {sorted(digests)}")
        failed += sum(p.jobs for p in passes if not p.consistent
                      or p.digest != digest)
    if recorded is not None and recorded != digest:
        problems.append(f"digest {digest} != recorded {recorded}")
        failed = attempted
    if args.record and not problems:
        _record_digest(args.workload, args.seed, digest)
    record.update({
        "digest": digest,
        "digest_recorded": ("match" if recorded == digest else
                            "unrecorded" if recorded is None else
                            "MISMATCH"),
        "passes": [{"wall_s": p.wall_s, "warm_s": p.warm_s,
                    "jobs": p.jobs, "workers": p.workers,
                    "sim_instructions": p.sim_instructions,
                    "peak_rss_mb": p.peak_rss_mb} for p in passes],
        "problems": problems,
    })
    return {"record": record, "metrics": metrics, "attempted": attempted,
            "failed": failed, "correct": not problems and failed == 0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed (0 is the development seed)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="how long the timed passes run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: one traced run, per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="short run lengths (self-test)")
    parser.add_argument("--record", action="store_true",
                        help="one pass only; store its digest in "
                             "digests.json")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: {ROOT / 'src' / 'repro'} is missing; run from "
              f"the root of a full checkout", file=sys.stderr)
        return 2
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text())
    # The simulator reads REPRO_* settings (faults, jobs, cache, ...) at
    # import; a benchmark run must not inherit any of them.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, str(ROOT / "src"))

    work = ROOT / ".bench_build" / f"perfbench-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        outcome = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for entry in wanted:
        name = entry["name"]
        if name not in outcome["metrics"]:
            outcome["record"]["problems"].append(f"metric {name} missing")
            outcome["correct"] = False
            continue
        metrics[name] = {"value": outcome["metrics"][name],
                         "unit": entry["unit"]}
    print(json.dumps(outcome["record"], sort_keys=True))
    print(json.dumps({"correct": outcome["correct"],
                      "attempted": outcome["attempted"],
                      "failed": outcome["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
