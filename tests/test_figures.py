"""Structural tests of the design-point table and its runner.

Most checks read :func:`plan` and simulate nothing; the few that need
results run a subset of an entry's bars at tiny sizes.
"""

import dataclasses

import pytest

from repro.core import figures as F
from repro.core.figures import FIGURES, SIZES, plan, run_figure
from repro.params import ConsistencyModel, default_system

TINY = dict(instructions=4000, warmup=4000)


def _subset(monkeypatch, key, labels):
    """Register an entry holding only ``labels`` of ``FIGURES[key]``."""
    entry = FIGURES[key]
    bars = tuple(bar for bar in entry.bars if bar.label in labels)
    monkeypatch.setitem(FIGURES, "subset",
                        dataclasses.replace(entry, bars=bars))
    return "subset"


def _params(key):
    return {bar.label: spec.params
            for bar, spec in zip(FIGURES[key].bars, plan(key, **TINY))}


class TestFigureBuilders:
    def test_run_sizes_defined_for_both_workloads(self):
        assert set(SIZES) == {"full", "quick"}
        for table in SIZES.values():
            assert set(table) == {"oltp", "dss"}
            for instr, warm in table.values():
                assert instr > 0 and warm > 0

    def test_every_entry_plans_with_unique_labels(self):
        for key, entry in FIGURES.items():
            specs = plan(key, **TINY)
            labels = [bar.label for bar in entry.bars]
            assert len(specs) == len(labels) > 0, key
            assert len(set(labels)) == len(labels), key

    def test_unknown_parameter_name_raises(self):
        base = default_system()
        for name in ("processor.issue_widht", "l1d.mshrs.x", "nodes"):
            with pytest.raises(ValueError, match="unknown parameter"):
                F.with_delta(base, {name: 1})

    def test_issue_width_bars(self):
        params = _params("3a")
        assert list(params) == [f"{kind}-{w}w" for kind in ("inorder", "ooo")
                                for w in (1, 2, 4, 8)]
        assert not params["inorder-2w"].processor.out_of_order
        assert params["ooo-8w"].processor.issue_width == 8

    def test_window_sweep_configures_processor(self):
        params = _params("3b")
        assert params["win-16"].processor.window_size == 16
        assert params["win-64"].processor.window_size == 64

    def test_mshr_sweep_sets_both_levels(self):
        params = _params("2c")
        assert params["mshr-2"].l1d.mshrs == params["mshr-2"].l2.mshrs == 2
        assert list(params)[-1] == "mshr-8"

    def test_figure4_bars(self):
        params = _params("4")
        assert set(params) == {"base", "infinite-fu", "perfect-bpred",
                               "perfect-icache", "128win-all-perfect"}
        perfect = params["128win-all-perfect"]
        assert perfect.perfect_icache
        assert perfect.bpred.perfect
        assert perfect.processor.infinite_functional_units
        assert perfect.processor.window_size == 128
        assert perfect.itlb.perfect and perfect.dtlb.perfect

    def test_figure6_covers_nine_configurations(self):
        specs = plan("6 dss", **TINY)
        assert len(specs) == 9
        first = specs[0].params
        assert FIGURES["6 dss"].bars[0].label == "SC-straight"
        assert first.consistency is ConsistencyModel.SC
        # The three RC rows are one machine to the model.
        assert len({spec.fingerprint() for spec in specs}) == 7

    def test_figure7a_configs(self):
        params = _params("7a")
        assert params["streambuf-4"].stream_buffer_entries == 4
        assert params["perfect-icache"].perfect_icache
        assert all(p.n_nodes == 1 for p in _params("7a up").values())

    def test_figure5_scales_sizes_per_bar(self):
        up, mp = plan("5 oltp", instructions=12_000, warmup=20_000)
        assert (up.instructions, up.warmup) == (3000, 25_000)
        assert (mp.instructions, mp.warmup) == (12_000, 100_000)
        assert up.params.n_nodes == 1 and mp.params.n_nodes == 4
        small, _ = plan("5 dss", instructions=600, warmup=400)
        assert (small.instructions, small.warmup) == (2000, 2000)

    def test_characterization_runs_dss_at_oltp_sizes(self):
        oltp, dss = plan("characterize", instructions=600, warmup=400)
        assert (oltp.workload.kind, dss.workload.kind) == ("oltp", "dss")
        assert (dss.instructions, dss.warmup) == (600, 400)
        assert plan("characterize")[1].instructions == \
            SIZES["full"]["oltp"][0]

    def test_migratory_hints_reach_the_workload(self):
        specs = dict(zip((bar.label for bar in FIGURES["7b"].bars),
                         plan("7b", **TINY)))
        assert specs["flush"].workload.hints_flush
        assert not specs["flush"].workload.hints_prefetch
        assert specs["flush+prefetch"].workload.hints_prefetch
        assert all(s.params.stream_buffer_entries == 4
                   for s in specs.values())

    def test_issue_width_labels(self, monkeypatch):
        key = _subset(monkeypatch, "3a",
                      {"inorder-1w", "inorder-4w", "ooo-1w", "ooo-4w"})
        fig = run_figure(key, **TINY)
        labels = [row.label for row in fig.rows]
        assert labels == ["inorder-1w", "inorder-4w", "ooo-1w", "ooo-4w"]
        assert fig.rows[0].normalized == 1.0

    def test_mshr_sweep_has_occupancy_extras(self, monkeypatch):
        fig = run_figure(_subset(monkeypatch, "3c", {"mshr-2", "mshr-8"}),
                         **TINY)
        assert "l1d_occupancy_all" in fig.extras
        assert "l2_occupancy_reads" in fig.extras
        dist = fig.extras["l1d_occupancy_all"]
        assert dist[1] == pytest.approx(1.0)

    def test_normalization_relative_to_first(self, monkeypatch):
        fig = run_figure(_subset(monkeypatch, "3b", {"win-16", "win-128"}),
                         **TINY)
        base = fig.row("win-16").result.execution_time
        other = fig.row("win-128").result.execution_time
        assert fig.normalized("win-128") == pytest.approx(other / base)
