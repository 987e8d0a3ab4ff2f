"""Figure 4: factors limiting OLTP performance.

Bars: base OOO system, infinite functional units, perfect branch
prediction, perfect I-cache, and a 128-entry window with everything
perfect.  Paper shapes: functional units are NOT a bottleneck; perfect
branch prediction gives only a small gain (~6%); the perfect I-cache gives
the largest single gain; the all-perfect system leaves dirty misses as
the dominant component.
"""

from conftest import run_once

from repro.core.figures import run_figure


def test_figure4_limits(benchmark, oltp_sizes):
    instr, warm = oltp_sizes
    fig = run_once(benchmark, lambda: run_figure(
        "4", instructions=instr, warmup=warm))
    print("\n" + fig.format_table())

    base = fig.normalized("base")
    fu = fig.normalized("infinite-fu")
    bpred = fig.normalized("perfect-bpred")
    icache = fig.normalized("perfect-icache")
    best = fig.normalized("128win-all-perfect")

    print(f"  infinite FU gain:   {1 - fu / base:6.1%} (paper: ~0%)")
    print(f"  perfect bpred gain: {1 - bpred / base:6.1%} (paper: ~6%)")
    print(f"  perfect icache gain:{1 - icache / base:6.1%} "
          f"(paper: largest single gain)")
    print(f"  all-perfect gain:   {1 - best / base:6.1%}")

    # Functional units are not a bottleneck for OLTP.
    assert abs(fu - base) < 0.05
    # Perfect I-cache is the largest single-factor gain.
    assert icache < fu and icache < bpred
    # The combined ideal system is the best configuration.
    assert best <= icache + 0.02

    # In the all-perfect system, dirty misses dominate the remaining
    # read stall time (paper: "leaving dirty miss latencies as the
    # dominant component").
    bd = fig.row("128win-all-perfect").result.breakdown
    from repro.stats.breakdown import READ_DIRTY
    dirty = bd.cycles[READ_DIRTY]
    others = [c for i, c in enumerate(bd.cycles)
              if i != READ_DIRTY and i != 0]  # exclude busy
    print(f"  all-perfect: dirty stall share = {dirty / bd.total:.2f}")
    assert dirty == max(others + [dirty])
