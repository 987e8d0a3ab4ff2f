"""Memory footprint of a simulated machine.

The machine is built per job, so its size bounds how large a cache a run
can model (the paper's L1s are 128KB and its L2s 8MB: ``scale=1``).  The
compact layouts keep it small: one tag dict per cache with a per-set LRU
list made at the set's first fill, sharer bitmasks in the directory,
typed predictor tables, and one routine table per code image.

The budgets are traced-heap bounds (``tracemalloc``), which are
deterministic for one Python build.  Each is the measured footprint
with about 25% headroom; the ``OrderedDict``-per-set layout needed
45 MiB and 4.4 MiB for the two machines below.
"""

import gc
import tracemalloc

from repro.core.workloads import oltp_workload
from repro.params import default_system
from repro.system.machine import Machine
from repro.trace.codewalk import code_image

MIB = 1 << 20

#: A built scale-1 OLTP machine: 2.40 MiB measured.
SCALE1_BUILD_BUDGET = 3.0 * MIB

#: A scale-16 OLTP machine after a 1k-instruction warmup and a
#: 4k-instruction run: 0.87 MiB measured.
SCALE16_RUN_BUDGET = 1.1 * MIB


def oltp_machine(scale):
    params = default_system(scale=scale)
    generators = oltp_workload(scale=scale).generators(params.n_nodes, seed=0)
    return Machine(params, generators)


def traced_growth(action):
    """Bytes of traced heap that ``action()`` leaves allocated, with the
    routine-table cache emptied first so the table counts too."""
    code_image.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = action()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    del kept
    return grown


def test_scale1_machine_builds_within_budget():
    grown = traced_growth(lambda: oltp_machine(1))
    assert grown < SCALE1_BUILD_BUDGET, \
        f"scale-1 OLTP machine holds {grown / MIB:.2f} MiB"


def test_scale16_run_stays_within_budget():
    def run():
        m = oltp_machine(16)
        m.run(1000)
        m.reset_stats()
        m.run(4000)
        return m
    grown = traced_growth(run)
    assert grown < SCALE16_RUN_BUDGET, \
        f"scale-16 OLTP machine holds {grown / MIB:.2f} MiB after the run"


def test_walkers_share_one_routine_table():
    m = oltp_machine(16)
    walkers = [p.generator._walker for p in m.processes]
    assert len(walkers) == 24
    assert len({id(w._routines) for w in walkers}) == 1
    assert len({id(w._starts) for w in walkers}) == 1
