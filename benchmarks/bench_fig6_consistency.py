"""Figure 6: performance benefits from ILP-enabled consistency
optimizations, for OLTP and DSS.

Nine bars per workload: {SC, PC, RC} x {straightforward, +hardware
prefetch, +speculative loads}, normalized to straightforward SC.

Paper shapes: straightforward RC is far faster than straightforward SC
(28% OLTP / 46% DSS reductions); prefetching helps the strict models;
adding speculative loads brings SC within 10-15% of RC; RC barely changes
across implementations.
"""

import pytest
from conftest import run_once

from repro.core.figures import run_figure


@pytest.mark.parametrize("workload", ["oltp", "dss"])
def test_figure6(benchmark, workload, oltp_sizes, dss_sizes):
    instr, warm = oltp_sizes if workload == "oltp" else dss_sizes
    fig = run_once(benchmark, lambda: run_figure(
        f"6 {workload}", instructions=instr, warmup=warm))
    print("\n" + fig.format_table())

    sc_plain = fig.normalized("SC-straight")
    pc_plain = fig.normalized("PC-straight")
    rc_plain = fig.normalized("RC-straight")
    sc_spec = fig.normalized("SC-speculat")
    pc_spec = fig.normalized("PC-speculat")
    rc_spec = fig.normalized("RC-speculat")

    rc_gain = 1 - rc_plain / sc_plain
    sc_gain = 1 - sc_spec / sc_plain
    gap = sc_spec / rc_spec - 1
    print(f"  straightforward RC vs SC: {rc_gain:.1%} faster "
          f"(paper: {'28%' if workload == 'oltp' else '46%'})")
    print(f"  SC improvement from optimizations: {sc_gain:.1%} "
          f"(paper: {'26%' if workload == 'oltp' else '37%'})")
    print(f"  optimized SC vs optimized RC gap: {gap:.1%} "
          f"(paper: within 10-15%)")

    # Strictness ordering for straightforward implementations.
    assert rc_plain < pc_plain < sc_plain
    # Optimizations help the strict models substantially...
    assert sc_spec < sc_plain * 0.92
    assert pc_spec <= pc_plain
    # ...and bring SC near RC (paper: within 10-15%; allow slack).
    assert gap < 0.30
    # RC is essentially unaffected by the optimizations.
    assert abs(rc_spec - rc_plain) < 0.08
    # Speculation is competitive with prefetch-only for SC; on the scaled
    # system the two optimized implementations land within a few percent
    # (the paper reports speculation strictly ahead).
    assert sc_spec <= fig.normalized("SC-prefetch") + 0.06
