"""Shape and arithmetic of ``BENCH_perfbench.json``, the committed
perfbench trajectory.

Each performance change appends one record per batch of alternating
parent/change pairs of ``perfbench/run.py`` it ran.  A record names
the commits (or, for a change not yet committed when it was measured,
the sha256 of its simulator sources that perfbench stamps on every
run), the seed, the workload and the pair count, and gives the median
and quartiles of each side for every end-to-end metric of
``BENCHMARK.json``, with how many pairs the change won on it, and the
raw runs those summaries are recomputed from.
"""

import json
import re
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY = ROOT / "BENCH_perfbench.json"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [metric["name"] for metric in BENCHMARK["end_to_end"]]
BETTER = {metric["name"]: metric["better"]
          for metric in BENCHMARK["end_to_end"]}
WORKLOADS = {workload["name"] for workload in BENCHMARK["workloads"]}

COMMIT = re.compile(r"[0-9a-f]{40}")
SHA256 = re.compile(r"[0-9a-f]{64}")


def records():
    return json.loads(TRAJECTORY.read_text())["records"]


def test_trajectory_has_records():
    assert records()


@pytest.mark.parametrize("index", range(len(records())))
def test_record_fields(index):
    record = records()[index]
    assert isinstance(record["pr"], int) and record["pr"] > 0
    assert isinstance(record["seed"], int)
    assert record["workload"] in WORKLOADS
    pairs = record["pairs"]
    assert isinstance(pairs, int) and pairs >= 2
    for side in ("parent", "change"):
        stamp = record[side]
        commit = stamp["commit"]
        assert commit is None or COMMIT.fullmatch(commit), commit
        assert SHA256.fullmatch(stamp["source_sha256"])
    assert COMMIT.fullmatch(record["parent"]["commit"])
    assert record["parent"]["source_sha256"] != \
        record["change"]["source_sha256"]
    assert record["failed"] == 0 and record["correct"] is True
    assert set(record["metrics"]) == set(END_TO_END)
    for name in END_TO_END:
        metric = record["metrics"][name]
        parent_runs, change_runs = metric["parent_runs"], metric["change_runs"]
        assert len(parent_runs) == len(change_runs) == pairs, name
        for side, runs in (("parent", parent_runs), ("change", change_runs)):
            stats = metric[side]
            assert stats == summary(runs), (name, side)
        lower = BETTER[name] == "lower"
        wins = sum((change < parent) if lower else (change > parent)
                   for parent, change in zip(parent_runs, change_runs))
        assert metric["change_wins"] == wins, name


def summary(runs):
    """Median and quartiles as recorded: inclusive quartiles of the runs
    (which are stored rounded, hence the tolerance)."""
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    tolerance = 1e-3
    return {"median": pytest.approx(statistics.median(runs), abs=tolerance),
            "q1": pytest.approx(q1, abs=tolerance),
            "q3": pytest.approx(q3, abs=tolerance)}


def test_records_are_appended_in_pr_order():
    prs = [record["pr"] for record in records()]
    assert prs == sorted(prs)
