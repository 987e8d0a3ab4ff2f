"""Tests for the simulation runner and the figure framework (quick runs)."""

import dataclasses

import pytest

from repro.core.experiment import SimulationResult, run_simulation
from repro.core.figures import (
    FIGURES,
    FigureResult,
    FigureRow,
    characterization_table,
    run_figure,
)
from repro.core.optimizations import migratory_hints, profile_migratory_pcs
from repro.core.workloads import dss_workload, oltp_workload
from repro.params import ConsistencyImpl, ConsistencyModel, default_system

QUICK = dict(instructions=6000, warmup=6000)


@pytest.fixture(scope="module")
def oltp_result():
    return run_simulation(default_system(), oltp_workload(), **QUICK)


class TestRunSimulation:
    def test_result_fields(self, oltp_result):
        r = oltp_result
        assert r.cycles > 0
        assert r.instructions == QUICK["instructions"]
        assert r.workload == "oltp"
        assert set(r.miss_rates) == {"l1i", "l1d", "l2"}
        assert 0 < r.ipc < 4

    def test_breakdown_covers_measured_cycles(self, oltp_result):
        r = oltp_result
        accounted = sum(r.breakdown.cycles)
        assert accounted == pytest.approx(
            r.cycles * r.params.n_nodes, rel=0.05)

    def test_warmup_excluded(self):
        r1 = run_simulation(default_system(), oltp_workload(),
                            instructions=5000, warmup=0)
        r2 = run_simulation(default_system(), oltp_workload(),
                            instructions=5000, warmup=10000)
        # Warmed caches: fewer cycles for the same work.
        assert r2.cycles < r1.cycles

    def test_deterministic(self):
        a = run_simulation(default_system(), oltp_workload(), **QUICK)
        b = run_simulation(default_system(), oltp_workload(), **QUICK)
        assert a.cycles == b.cycles

    def test_seed_changes_interleaving(self):
        a = run_simulation(default_system(), oltp_workload(),
                           seed=0, **QUICK)
        b = run_simulation(default_system(), oltp_workload(),
                           seed=1, **QUICK)
        assert a.cycles != b.cycles

    def test_normalized_to(self, oltp_result):
        assert oltp_result.normalized_to(oltp_result) == 1.0

    def test_dss_runs(self):
        r = run_simulation(default_system(), dss_workload(), **QUICK)
        assert r.workload == "dss"
        assert r.ipc > 0.3


class TestFigureFramework:
    def test_figure_result_lookup(self, oltp_result):
        fig = FigureResult("F", "t", [FigureRow("a", oltp_result, 1.0)])
        assert fig.normalized("a") == 1.0
        with pytest.raises(KeyError):
            fig.row("missing")

    def test_format_table(self, oltp_result):
        fig = FigureResult("F", "t", [FigureRow("a", oltp_result, 1.0)])
        text = fig.format_table()
        assert "F" in text and "a" in text

    def test_issue_width_sweep_quick(self, monkeypatch):
        entry = FIGURES["2a"]
        bars = tuple(bar for bar in entry.bars
                     if bar.label in ("inorder-1w", "inorder-4w",
                                      "ooo-1w", "ooo-4w"))
        monkeypatch.setitem(FIGURES, "2a", dataclasses.replace(
            entry, bars=bars))
        fig = run_figure("2a", instructions=4000, warmup=4000)
        assert fig.normalized("inorder-1w") == 1.0
        assert fig.normalized("ooo-4w") < 1.0

    def test_figure5_quick(self):
        fig = run_figure("5 oltp", instructions=6000, warmup=6000)
        assert {r.label for r in fig.rows} == {"uniprocessor",
                                               "multiprocessor"}

    def test_figure7b_quick(self):
        fig = run_figure("7b", instructions=6000, warmup=6000)
        labels = {r.label for r in fig.rows}
        assert "flush" in labels and "flush+prefetch" in labels

    def test_characterization_quick(self):
        table = characterization_table(instructions=5000, warmup=5000)
        assert set(table) == {"oltp", "dss"}
        assert table["dss"]["ipc"] > table["oltp"]["ipc"]


class TestOptimizations:
    def test_profile_returns_pcs(self):
        pcs = profile_migratory_pcs(default_system(), oltp_workload(),
                                    instructions=8000, warmup=8000)
        assert pcs
        assert all(isinstance(pc, int) for pc in pcs)

    def test_hints_builder(self):
        hints = migratory_hints(prefetch=True, flush=False,
                                pc_filter={1, 2})
        assert hints.prefetch and not hints.flush
        assert hints.applies_to([1, 99])
        assert not hints.applies_to([99])
