"""Section 3.1 / 3.2 in-text characterization table.

Paper values (base 4-way OOO system):

  OLTP: L1I 7.6%, L1D 14.1%, L2 7.4% local miss rates; IPC 0.5;
        cumulative branch misprediction 11%; idle < 10%.
  DSS:  L1I 0.0%, L1D 0.9%, L2 23.1%; IPC 2.2; little locking.

Absolute parity is not expected on the scaled substrate; the orderings
(OLTP misses everywhere, DSS compute-bound with an L2-missing scan) are
what the assertions check, and the printed table records the measured
values next to the paper's.
"""

from conftest import BENCH_SIZES, run_once

from repro.core.figures import FIGURES, characterization_table

PAPER = {
    "oltp": {"l1i_miss_rate": 0.076, "l1d_miss_rate": 0.141,
             "l2_miss_rate": 0.074, "ipc": 0.5,
             "branch_misprediction": 0.11},
    "dss": {"l1i_miss_rate": 0.000, "l1d_miss_rate": 0.009,
            "l2_miss_rate": 0.231, "ipc": 2.2,
            "branch_misprediction": float("nan")},
}


def test_characterization_table(benchmark):
    # Both workloads run at the characterization entry's (OLTP) sizes.
    instr, warm = BENCH_SIZES[FIGURES["characterize"].workload]
    table = run_once(benchmark, lambda: characterization_table(
        instructions=instr, warmup=warm))

    print("\n== In-text characterization (measured vs paper) ==")
    for name in ("oltp", "dss"):
        row = table[name]
        paper = PAPER[name]
        print(f"  {name.upper()}:")
        for key in ("l1i_miss_rate", "l1d_miss_rate", "l2_miss_rate",
                    "ipc", "branch_misprediction"):
            ref = paper.get(key)
            ref_s = f"{ref:.3f}" if ref == ref else "n/a"
            print(f"    {key:<24s} {row[key]:.3f}   (paper: {ref_s})")
        print(f"    {'idle_fraction':<24s} {row['idle_fraction']:.3f}   "
              f"(paper: < 0.10)")

    oltp, dss = table["oltp"], table["dss"]
    # OLTP has the large instruction footprint; DSS code fits L1I.
    assert oltp["l1i_miss_rate"] > 0.015
    assert dss["l1i_miss_rate"] < 0.002
    # OLTP misses L1D much more than DSS.
    assert oltp["l1d_miss_rate"] > 5 * dss["l1d_miss_rate"]
    # DSS's scan misses in L2 at a higher *rate* than OLTP.
    assert dss["l2_miss_rate"] > oltp["l2_miss_rate"]
    # DSS is compute-bound; OLTP is stall-bound (paper: 2.2 vs 0.5).
    assert dss["ipc"] > 3 * oltp["ipc"]
    assert 0.1 < oltp["ipc"] < 1.0
    assert dss["ipc"] > 1.0
    # OLTP mispredicts ~11%; idle was factored out and is small.
    assert 0.05 < oltp["branch_misprediction"] < 0.25
    assert oltp["idle_fraction"] < 0.10
    assert dss["idle_fraction"] < 0.10
