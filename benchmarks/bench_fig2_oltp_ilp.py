"""Figure 2: impact of ILP features on OLTP performance.

(a) in-order vs out-of-order across issue widths,
(b) instruction window size,
(c) number of MSHRs (outstanding misses),
(d)-(g) MSHR occupancy distributions.

Paper shapes checked: OOO 4-way beats in-order 1-way by well over 1.2x
(paper: ~1.5x); window gains level off past 64; two MSHRs capture most of
the OLTP benefit; read-miss overlap is low (dependent loads).
"""

from conftest import run_once

from repro.core.figures import run_figure


def test_figure2a_issue_width(benchmark, oltp_sizes):
    instr, warm = oltp_sizes
    fig = run_once(benchmark, lambda: run_figure(
        "2a", instructions=instr, warmup=warm))
    print("\n" + fig.format_table())

    speedup = fig.normalized("inorder-1w") / fig.normalized("ooo-4w")
    print(f"  OOO-4w speedup over in-order-1w: {speedup:.2f}x "
          f"(paper: ~1.5x)")
    assert speedup > 1.2
    # OOO beats in-order at equal width.
    for width in (1, 2, 4):
        assert fig.normalized(f"ooo-{width}w") < \
            fig.normalized(f"inorder-{width}w")
    # Multiple issue helps in-order too, but less.
    assert fig.normalized("inorder-8w") < fig.normalized("inorder-1w")


def test_figure2b_window_size(benchmark, oltp_sizes):
    instr, warm = oltp_sizes
    fig = run_once(benchmark, lambda: run_figure(
        "2b", instructions=instr, warmup=warm))
    print("\n" + fig.format_table())

    # Right-hand side of Figure 2(b): read-stall magnification.
    from repro.stats.breakdown import CATEGORY_NAMES, READ_CATEGORIES
    print("  read-stall decomposition (fraction of that bar's time):")
    for row in fig.rows:
        bd = row.result.breakdown
        parts = " ".join(
            f"{CATEGORY_NAMES[c].replace('read_', '')}={bd.cycles[c] / bd.total:.3f}"
            for c in READ_CATEGORIES)
        print(f"    {row.label:<8s} {parts}")

    # Bigger windows help, but gains level off beyond 64 (paper 3.1.1).
    assert fig.normalized("win-64") < fig.normalized("win-16")
    gain_16_64 = fig.normalized("win-16") - fig.normalized("win-64")
    gain_64_128 = fig.normalized("win-64") - fig.normalized("win-128")
    print(f"  gain 16->64: {gain_16_64:.3f}, 64->128: {gain_64_128:.3f}")
    assert gain_64_128 < gain_16_64
    # A large fraction of the window-size improvement comes from the L2
    # component (paper: the read-stall magnification of Figure 2(b)).
    from repro.stats.breakdown import READ_L2
    l2_16 = fig.row("win-16").result.breakdown.cycles[READ_L2]
    l2_128 = fig.row("win-128").result.breakdown.cycles[READ_L2]
    assert l2_128 < l2_16


def test_figure2cdefg_mshrs(benchmark, oltp_sizes):
    instr, warm = oltp_sizes
    fig = run_once(benchmark, lambda: run_figure(
        "2c", instructions=instr, warmup=warm))
    print("\n" + fig.format_table())

    # Two outstanding misses achieve most of the OLTP benefit.
    gain_1_2 = fig.normalized("mshr-1") - fig.normalized("mshr-2")
    gain_2_8 = fig.normalized("mshr-2") - fig.normalized("mshr-8")
    print(f"  gain 1->2 MSHRs: {gain_1_2:.3f}, 2->8: {gain_2_8:.3f} "
          f"(paper: 2 MSHRs suffice)")
    assert fig.normalized("mshr-2") <= fig.normalized("mshr-1") + 0.02
    assert gain_1_2 >= gain_2_8 - 0.02

    for key in ("l1d_occupancy_all", "l1d_occupancy_reads",
                "l2_occupancy_all", "l2_occupancy_reads"):
        dist = fig.extras[key]
        row = " ".join(f">={n}:{frac:.2f}" for n, frac in dist.items())
        print(f"  {key}: {row}")
    # Read misses overlap little (dependent loads, paper Figure 2(f)-(g));
    # write misses supply the overlap.
    reads = fig.extras["l1d_occupancy_reads"]
    alls = fig.extras["l1d_occupancy_all"]
    assert reads[2] <= alls[2] + 0.05
    assert reads[4] < 0.35
