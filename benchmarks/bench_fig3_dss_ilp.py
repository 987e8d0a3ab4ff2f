"""Figure 3: impact of ILP features on DSS performance.

Same sweeps as Figure 2 on the DSS workload.  Paper shapes: DSS gains far
more from ILP than OLTP (~2.6x vs ~1.5x); window gains level off beyond
32; DSS exploits more outstanding misses (4) than OLTP (2), mostly from
write overlap under the relaxed model.
"""

from conftest import run_once

from repro.core.figures import run_figure


def test_figure3a_issue_width(benchmark, dss_sizes):
    instr, warm = dss_sizes
    fig = run_once(benchmark, lambda: run_figure(
        "3a", instructions=instr, warmup=warm))
    print("\n" + fig.format_table())

    speedup = fig.normalized("inorder-1w") / fig.normalized("ooo-4w")
    print(f"  OOO-4w speedup over in-order-1w: {speedup:.2f}x "
          f"(paper: ~2.6x)")
    assert speedup > 1.6
    # Multiple issue reduces in-order DSS time substantially (paper: 32%
    # from 1- to 8-way in-order).
    multi_issue_gain = 1.0 - (fig.normalized("inorder-8w")
                              / fig.normalized("inorder-1w"))
    print(f"  in-order 1w->8w gain: {multi_issue_gain:.2f} (paper: 0.32)")
    assert multi_issue_gain > 0.1


def test_figure3b_window_size(benchmark, dss_sizes):
    instr, warm = dss_sizes
    fig = run_once(benchmark, lambda: run_figure(
        "3b", instructions=instr, warmup=warm))
    print("\n" + fig.format_table())
    gain_16_32 = fig.normalized("win-16") - fig.normalized("win-32")
    gain_32_128 = fig.normalized("win-32") - fig.normalized("win-128")
    print(f"  gain 16->32: {gain_16_32:.3f}, 32->128: {gain_32_128:.3f}")
    print("  (paper: levels off beyond 32; our scaled DSS rows span "
          "~240 instructions, so window growth keeps hiding part of the "
          "scan-miss latency a little longer -- see EXPERIMENTS.md)")
    # Robust shape: bigger windows never hurt, and the total spread is
    # moderate (DSS is compute-bound, not window-starved).
    assert fig.normalized("win-64") < fig.normalized("win-16")
    assert fig.normalized("win-128") <= fig.normalized("win-64") + 0.03
    assert fig.normalized("win-128") > 0.7


def test_figure3cdefg_mshrs(benchmark, dss_sizes):
    instr, warm = dss_sizes
    fig = run_once(benchmark, lambda: run_figure(
        "3c", instructions=instr, warmup=warm))
    print("\n" + fig.format_table())

    # DSS exploits more outstanding misses than OLTP (4 vs 2).
    gain_2_4 = fig.normalized("mshr-2") - fig.normalized("mshr-4")
    print(f"  gain 2->4 MSHRs: {gain_2_4:.3f} (paper: DSS exploits 4)")
    assert fig.normalized("mshr-4") <= fig.normalized("mshr-2")

    for key in ("l1d_occupancy_all", "l1d_occupancy_reads"):
        dist = fig.extras[key]
        row = " ".join(f">={n}:{frac:.2f}" for n, frac in dist.items())
        print(f"  {key}: {row}")
    # Write misses contribute to (never subtract from) the occupancy
    # beyond reads (paper Figure 3(d)-(g)); allow numerical jitter when
    # the scaled DSS's write misses are rare.
    alls = fig.extras["l1d_occupancy_all"]
    reads = fig.extras["l1d_occupancy_reads"]
    assert alls[2] >= reads[2] - 0.02
