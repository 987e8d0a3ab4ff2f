"""Figure 5: relative importance of components in uniprocessor vs
multiprocessor systems, for OLTP and DSS.

Paper shapes: uniprocessors have no data communication (dirty) misses, so
the instruction stall is a relatively larger share; multiprocessors show
larger read components.
"""

import pytest
from conftest import run_once

from repro.core.figures import run_figure
from repro.stats.breakdown import INSTR, READ_DIRTY


@pytest.mark.parametrize("workload", ["oltp", "dss"])
def test_figure5(benchmark, workload, oltp_sizes, dss_sizes):
    instr, warm = oltp_sizes if workload == "oltp" else dss_sizes
    fig = run_once(benchmark, lambda: run_figure(
        f"5 {workload}", instructions=instr, warmup=warm))
    print("\n" + fig.format_table())

    up = fig.row("uniprocessor").result.breakdown
    mp = fig.row("multiprocessor").result.breakdown

    up_dirty = up.cycles[READ_DIRTY] / up.total
    mp_dirty = mp.cycles[READ_DIRTY] / mp.total
    up_read = up.read / up.total
    mp_read = mp.read / mp.total
    print(f"  {workload}: dirty share UP={up_dirty:.3f} MP={mp_dirty:.3f}; "
          f"read share UP={up_read:.3f} MP={mp_read:.3f}")

    # No communication misses on a uniprocessor.
    assert up_dirty < 0.01
    # Multiprocessors bring larger read components.
    assert mp_read > up_read

    if workload == "oltp":
        up_instr = up.cycles[INSTR] / up.total
        mp_instr = mp.cycles[INSTR] / mp.total
        print(f"  oltp: instruction share UP={up_instr:.3f} "
              f"MP={mp_instr:.3f} (paper: larger share in UP)")
        assert up_instr > mp_instr
