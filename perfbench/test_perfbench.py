"""Self-test of the repository benchmark.

Run from the root of a checkout::

    python3 -m pytest perfbench -q

The smoke runs use ``--smoke`` (short run lengths), so the whole file
takes about a minute.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(BENCH))


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=str(cwd), capture_output=True, text=True, timeout=600)


def _smoke(workload: str, trace: int):
    out = _run(ROOT, "--workload", workload, "--seed", "0", "--seconds",
               "1", "--trace", str(trace), "--smoke")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def test_benchmark_json_follows_its_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[group]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n)
               for n in names)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert 2 <= len(WORKLOADS) <= 8


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_emits_every_metric_and_repeats_its_digest(workload):
    record, result = _smoke(workload, 0)
    traced_record, traced = _smoke(workload, 1)
    for res, rec, group in ((result, record, "end_to_end"),
                            (traced, traced_record, "per_layer")):
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"], rec["problems"]
        assert res["failed"] == 0 and res["attempted"] >= 1
        assert {name: m["unit"] for name, m in res["metrics"].items()} == \
            {m["name"]: m["unit"] for m in SPEC[group]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    # Tracing changes no result, and a second process repeats the first.
    assert record["digest"] == traced_record["digest"]
    layers = traced_record["layers"]
    assert all(layer["self_s"] >= 0 for layer in layers.values())


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(tmp_path, "--workload", WORKLOADS[0], "--seed", "0",
               "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_self_times_add_up_to_the_traced_wall_time():
    from layers import Tracer

    tracer = Tracer()

    def leaf():
        time.sleep(0.002)

    mem = tracer.span("mem", leaf)

    def tick():
        mem()
        mem()
        time.sleep(0.001)

    cpu = tracer.span("cpu", tick)
    system = tracer.span("system", lambda: [cpu() for _ in range(3)])
    started = time.perf_counter()
    system()
    wall = time.perf_counter() - started
    assert tracer.count == {**tracer.count, "system": 1, "cpu": 3,
                            "mem": 6}
    assert tracer.open_spans == 0
    assert tracer.self_s["mem"] >= 6 * 0.002
    assert tracer.self_s["cpu"] >= 3 * 0.001
    assert sum(tracer.self_s.values()) == pytest.approx(tracer.root_s)
    assert tracer.root_s <= wall
