"""Reproductions of every table and figure in the paper's evaluation.

:data:`FIGURES` declares every bar the evaluation shows, as plain data:
importing this module builds no machine.  :func:`plan` turns an entry
into its :class:`JobSpec` list without simulating; :func:`run_figure`
runs it and returns a :class:`FigureResult` whose rows mirror the
paper's bars (normalized execution time with the breakdown components).
``repro report`` runs ``"characterize"`` and then :data:`REPORT`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.core.experiment import SimulationResult
from repro.run import JobSpec, WorkloadSpec, run_many
from repro.params import ConsistencyImpl, ConsistencyModel, default_system
from repro.stats.sharing import sharing_characterization

#: (instructions, warmup) per workload: ``"full"`` is the benchmark-sized
#: default, ``"quick"`` the ``--quick`` smoke size.
SIZES = {
    "full": {"oltp": (100_000, 250_000), "dss": (50_000, 200_000)},
    "quick": {"oltp": (12_000, 20_000), "dss": (10_000, 16_000)},
}


@dataclass
class FigureRow:
    """One bar of a normalized-execution-time figure."""

    label: str
    result: SimulationResult
    normalized: float


@dataclass
class FigureResult:
    """All bars of one figure (or one part of a multi-part figure).

    Configurations whose job exhausted its retries are *gaps*: they get
    no :class:`FigureRow` but are listed (label -> error text) in
    :attr:`failed` and rendered as explicit ``FAILED`` lines, so a
    partially-failed sweep still produces every bar it can.
    """

    figure_id: str
    title: str
    rows: List[FigureRow] = field(default_factory=list)
    extras: Dict[str, object] = field(default_factory=dict)
    failed: Dict[str, str] = field(default_factory=dict)

    def row(self, label: str) -> FigureRow:
        for row in self.rows:
            if row.label == label:
                return row
        raise KeyError(label)

    def normalized(self, label: str) -> float:
        return self.row(label).normalized

    def format_table(self) -> str:
        lines = [f"== {self.figure_id}: {self.title} =="]
        for row in self.rows:
            lines.append(row.result.breakdown.format_bar(
                row.label, scale=row.normalized))
        for label, error in self.failed.items():
            lines.append(f"{label:<24s} FAILED: {error}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# The design-point table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Bar:
    """One design point of a figure.

    ``delta`` maps dotted :class:`SystemParams` field names to values
    over the entry's base machine.  ``hints`` are :class:`WorkloadSpec`
    hint fields (``hints_flush``, ``hints_prefetch``); ``workload``
    overrides the entry's workload for this bar; ``size`` scales the
    entry's (instructions, warmup), each floored at 2000.
    """

    label: str
    delta: Mapping[str, object] = field(default_factory=dict)
    hints: Mapping[str, bool] = field(default_factory=dict)
    workload: Optional[str] = None
    size: Optional[Tuple[float, float]] = None


@dataclass(frozen=True)
class Figure:
    """One table entry: a figure (part) and the bars it shows.

    Run sizes come from ``SIZES[mode][workload]``.  With ``normalize``
    each bar's height is its execution time over the first surviving
    bar's; without it every height is 1.0.  ``extras`` computes extra
    named series from the last bar's result, when that bar survived.
    """

    figure_id: str
    title: str
    workload: str
    bars: Tuple[Bar, ...]
    base: Mapping[str, object] = field(default_factory=dict)
    normalize: bool = True
    extras: Optional[Callable[[SimulationResult], Dict[str, object]]] = None


def with_delta(params, delta: Mapping[str, object]):
    """``params`` with the dotted-name changes of ``delta`` applied.

    All changes to one nested dataclass are applied in one replace, so
    validation sees only the final machine.  An unknown name raises
    :class:`ValueError`.
    """
    flat: Dict[str, object] = {}
    nested: Dict[str, Dict[str, object]] = {}
    names = {f.name for f in dataclasses.fields(params)}
    for name, value in delta.items():
        head, _, rest = name.partition(".")
        if head not in names or (rest and not dataclasses.is_dataclass(
                getattr(params, head))):
            raise ValueError(f"unknown parameter {name!r} for "
                             f"{type(params).__name__}")
        if rest:
            nested.setdefault(head, {})[rest] = value
        else:
            flat[head] = value
    for head, changes in nested.items():
        flat[head] = with_delta(getattr(params, head), changes)
    return dataclasses.replace(params, **flat)


def _mshr_occupancy(rich: SimulationResult) -> Dict[str, object]:
    """Figures 2/3 (d)-(g): MSHR occupancy of the 8-MSHR run."""
    return {
        "l1d_occupancy_all": rich.l1d_mshr.distribution(),
        "l1d_occupancy_reads": rich.l1d_mshr.distribution(reads_only=True),
        "l2_occupancy_all": rich.l2_mshr.distribution(),
        "l2_occupancy_reads": rich.l2_mshr.distribution(reads_only=True),
    }


_ISSUE_WIDTH = tuple(
    Bar(f"{kind}-{width}w", {"processor.out_of_order": ooo,
                             "processor.issue_width": width})
    for kind, ooo in (("inorder", False), ("ooo", True))
    for width in (1, 2, 4, 8))
_WINDOW = tuple(Bar(f"win-{size}", {"processor.window_size": size})
                for size in (16, 32, 64, 128))
_MSHRS = tuple(Bar(f"mshr-{n}", {"l1d.mshrs": n, "l2.mshrs": n})
               for n in (1, 2, 4, 8))
_PERFECT_ICACHE = {"perfect_icache": True}
_ALL_PERFECT = {
    **_PERFECT_ICACHE, "bpred.perfect": True, "itlb.perfect": True,
    "dtlb.perfect": True, "processor.infinite_functional_units": True,
    "processor.window_size": 128}
_UNIPROCESSOR = {"n_nodes": 1, "mesh_width": 1}
# Equal per-CPU work on both machines, with 5x warmup so the (shared)
# code and SGA footprints are cache-steady in both: the paper compares
# steady-state component shares, and the instruction-share claim only
# emerges once the code is fully L2-resident on every node.
_UP_VS_MP = (Bar("uniprocessor", _UNIPROCESSOR, size=(0.25, 1.25)),
             Bar("multiprocessor", size=(1.0, 5.0)))
_CONSISTENCY = tuple(
    Bar(f"{model.name}-{impl.name.lower()[:8]}",
        {"consistency": model, "consistency_impl": impl})
    for impl in ConsistencyImpl
    for model in (ConsistencyModel.SC, ConsistencyModel.PC,
                  ConsistencyModel.RC))
_STREAM_BUFFER = (
    Bar("base"),
    *(Bar(f"streambuf-{n}", {"stream_buffer_entries": n})
      for n in (2, 4, 8)),
    Bar("perfect-icache", _PERFECT_ICACHE),
    Bar("perfect-icache+itlb", {**_PERFECT_ICACHE, "itlb.perfect": True}))


def _ilp(number: str, workload: str) -> Dict[str, Figure]:
    """Figure 2 (OLTP) or 3 (DSS): the three ILP sweeps."""
    return {
        f"{number}a": Figure(f"Figure {number}(a)",
                             "issue width, in-order vs OOO", workload,
                             _ISSUE_WIDTH),
        f"{number}b": Figure(f"Figure {number}(b)",
                             "instruction window size", workload, _WINDOW),
        f"{number}c": Figure(f"Figure {number}(c-g)",
                             "outstanding misses (MSHRs)", workload,
                             _MSHRS, extras=_mshr_occupancy),
    }


#: Every figure of the evaluation, by the key ``repro figure`` takes.
FIGURES: Dict[str, Figure] = {
    # Section 3.1/3.2/4.2 text statistics.  Both workloads run at the
    # OLTP sizes (the entry's workload); each bar names its own.
    "characterize": Figure(
        "Characterization", "in-text statistics, both workloads at "
        "OLTP sizes", "oltp",
        (Bar("oltp", workload="oltp"), Bar("dss", workload="dss")),
        normalize=False),
    **_ilp("2", "oltp"),
    **_ilp("3", "dss"),
    "4": Figure("Figure 4", "factors limiting performance", "oltp", (
        Bar("base"),
        Bar("infinite-fu", {"processor.infinite_functional_units": True}),
        Bar("perfect-bpred", {"bpred.perfect": True}),
        Bar("perfect-icache", _PERFECT_ICACHE),
        Bar("128win-all-perfect", _ALL_PERFECT))),
    **{f"5 {workload}": Figure(
        "Figure 5", "uniprocessor vs multiprocessor component shares",
        workload, _UP_VS_MP, normalize=False)
       for workload in ("oltp", "dss")},
    **{f"6 {workload}": Figure("Figure 6", "consistency implementations",
                               workload, _CONSISTENCY)
       for workload in ("oltp", "dss")},
    "7a": Figure("Figure 7(a)", "instruction stream buffer", "oltp",
                 _STREAM_BUFFER),
    "7a up": Figure("Figure 7(a)",
                    "instruction stream buffer (uniprocessor)", "oltp",
                    _STREAM_BUFFER, base=_UNIPROCESSOR),
    # All bars with a 4-entry stream buffer, as in the paper; the bound
    # serves migratory dirty reads 40% faster.
    "7b": Figure("Figure 7(b)", "migratory flush / prefetch hints", "oltp", (
        Bar("base+sb4"),
        Bar("flush", hints={"hints_flush": True}),
        Bar("bound-40pct", {"migratory_read_speedup": 0.4}),
        Bar("flush+prefetch",
            hints={"hints_prefetch": True, "hints_flush": True})),
        base={"stream_buffer_entries": 4}),
}

#: The figures ``repro report`` prints after the characterization, in order.
REPORT = ("2a", "2b", "2c", "3a", "3b", "3c", "4", "5 oltp", "5 dss",
          "6 oltp", "6 dss", "7a", "7b")


def plan(key: str, instructions: Optional[int] = None,
         warmup: Optional[int] = None, seed: int = 0) -> List[JobSpec]:
    """The jobs behind ``FIGURES[key]``, one per bar, without simulating.
    Sizes default to ``SIZES["full"]`` of the entry's workload."""
    entry = FIGURES[key]
    default_i, default_w = SIZES["full"][entry.workload]
    instructions, warmup = instructions or default_i, warmup or default_w
    base = with_delta(default_system(), entry.base)
    specs = []
    for bar in entry.bars:
        n_instr, n_warm = instructions, warmup
        if bar.size is not None:
            n_instr = max(2000, int(instructions * bar.size[0]))
            n_warm = max(2000, int(warmup * bar.size[1]))
        specs.append(JobSpec(
            with_delta(base, bar.delta),
            WorkloadSpec(bar.workload or entry.workload, **bar.hints),
            instructions=n_instr, warmup=n_warm, seed=seed))
    return specs


def run_figure(key: str, instructions: Optional[int] = None,
               warmup: Optional[int] = None, seed: int = 0
               ) -> FigureResult:
    """Run ``FIGURES[key]`` and build its :class:`FigureResult`.

    The jobs go through this module's ``run_many`` global, so they fan
    out and hit the result cache as ``repro.run.configure`` set up, and
    a caller that swaps ``figures.run_many`` sees every report.
    """
    entry = FIGURES[key]
    report = run_many(plan(key, instructions, warmup, seed))
    out = FigureResult(entry.figure_id,
                       f"{entry.workload.upper()}: {entry.title}")
    base_time = None
    for bar, outcome in zip(entry.bars, report.outcomes):
        if outcome.failed:
            # Explicit gap: the sweep survived this job's failure, and
            # the figure says so instead of silently renumbering bars.
            out.failed[bar.label] = outcome.error
            continue
        result = outcome.result
        if base_time is None:
            base_time = result.execution_time
        out.rows.append(FigureRow(
            bar.label, result,
            result.execution_time / base_time if entry.normalize else 1.0))
    if entry.extras is not None and entry.bars[-1].label not in out.failed:
        out.extras.update(entry.extras(out.rows[-1].result))
    return out


# Kept for perfbench only; removed with ROADMAP item 6.
def figure_ilp_issue_width(workload, instructions=None, warmup=None, seed=0):
    return run_figure({"oltp": "2a", "dss": "3a"}[workload], instructions,
                      warmup, seed)


def figure6(workload, instructions=None, warmup=None, seed=0):
    return run_figure(f"6 {workload}", instructions, warmup, seed)


def figure7b(instructions=None, warmup=None, seed=0):
    return run_figure("7b", instructions, warmup, seed)


def characterization_table(instructions: int = None, warmup: int = None,
                           seed: int = 0
                           ) -> Dict[str, Optional[Dict[str, float]]]:
    """The paper's in-text characterization: miss rates, IPC, branch
    misprediction, and migratory sharing statistics for both workloads.

    A workload whose job exhausted its retries maps to ``None`` (an
    explicit gap) instead of aborting the other workload's row.
    """
    fig = run_figure("characterize", instructions, warmup, seed)
    results = {row.label: row.result for row in fig.rows}
    out = {}
    for bar in FIGURES["characterize"].bars:
        result = results.get(bar.label)
        if result is None:
            out[bar.label] = None
            continue
        sharing = sharing_characterization(result.coherence)
        out[bar.label] = {
            "ipc": result.ipc,
            "l1i_miss_rate": result.miss_rates["l1i"],
            "l1d_miss_rate": result.miss_rates["l1d"],
            "l2_miss_rate": result.miss_rates["l2"],
            "branch_misprediction": result.misprediction_rate,
            "idle_fraction": result.idle_fraction,
            "migratory_dirty_read_fraction":
                sharing.migratory_dirty_read_fraction,
            "migratory_shared_write_fraction":
                sharing.migratory_shared_write_fraction,
            "dirty_fraction_of_l2_misses": (
                result.coherence.reads_dirty / max(
                    1, result.coherence.reads_dirty
                    + result.coherence.reads_local
                    + result.coherence.reads_remote)),
        }
    return out
