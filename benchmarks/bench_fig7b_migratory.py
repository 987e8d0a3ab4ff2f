"""Figure 7(b): addressing OLTP data communication misses with software
prefetch and flush (WriteThrough) hints for migratory data.

All configurations include a 4-entry instruction stream buffer (as in the
paper).  Bars: base, +flush at critical-section exits, the ~40%-faster
migratory-read bound, and flush+prefetch.

Paper shapes: flush alone cuts execution time ~7.5%, close to the ~9%
bound from servicing migratory reads at memory; adding prefetch at
critical-section entry reaches ~12% total.
"""

from conftest import run_once

from repro.core.figures import run_figure
from repro.stats.breakdown import READ_DIRTY


def test_figure7b_migratory_hints(benchmark, oltp_sizes):
    instr, warm = oltp_sizes
    fig = run_once(benchmark, lambda: run_figure(
        "7b", instructions=instr, warmup=warm))
    print("\n" + fig.format_table())

    base = fig.normalized("base+sb4")
    flush = fig.normalized("flush")
    bound = fig.normalized("bound-40pct")
    both = fig.normalized("flush+prefetch")

    print(f"  flush gain:          {1 - flush:.1%} (paper: 7.5%)")
    print(f"  bound (-40% lat):    {1 - bound:.1%} (paper: ~9%)")
    print(f"  flush+prefetch gain: {1 - both:.1%} (paper: 12%)")

    # Flush converts dirty misses to memory-serviced misses.
    assert flush < base
    base_dirty = fig.row("base+sb4").result.breakdown.cycles[READ_DIRTY]
    flush_dirty = fig.row("flush").result.breakdown.cycles[READ_DIRTY]
    print(f"  dirty stall cycles: base={base_dirty:.0f} "
          f"flush={flush_dirty:.0f}")
    assert flush_dirty < base_dirty

    # Prefetch adds on top of flush.
    assert both <= flush + 0.02

    # Flushes were actually issued and converted misses.
    flush_stats = fig.row("flush").result.coherence
    assert flush_stats.flushes > 0
