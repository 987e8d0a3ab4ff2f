"""Golden pins: trace streams and main-loop results of fixed runs.

Plain-vs-sanitized identity (``tests/test_fastpath.py``) cannot see a
change to a trace generator or to the grid ``Machine.run`` walks: both
modes consume the same instruction stream and visit the same grid
points, so a generator or scheduler-wake change shifts them equally.
These tests pin both layers to sha256 digests recorded under
``MODEL_VERSION`` 2:

* every field of every ``Instruction`` in a fixed-length prefix of each
  process's stream, over OLTP, DSS, TPC-C, OLTP with prefetch and flush
  hints, TPC-C with a hint PC filter and OLTP at ``scale=4``, each at
  seeds 0 and 7;
* ``SimulationResult.to_dict()`` of short runs of OLTP, OLTP on 2-way
  SMT, OLTP with one process per CPU (every commit idles the CPU until
  the scheduler wake seats the process again) and a chunked DSS run.

A change that moves a digest changes simulated results: it needs a
``MODEL_VERSION`` bump and re-recorded pins, never a quiet update.
"""

import dataclasses
import functools
import hashlib
import json
from itertools import islice

import pytest

from repro.core.experiment import assemble_result
from repro.core.workloads import dss_workload, oltp_workload, \
    tpcc_workload
from repro.params import default_system
from repro.run.jobs import WorkloadSpec
from repro.system.machine import Machine
from repro.trace.database import MigratoryHints

#: PCs of critical-section routines 0-5 (of 12): a hint filter that
#: instruments some critical sections and leaves the rest alone.
_HINT_PCS = tuple(0x0100_0000 + 4 * i for i in range(6 * 16))

#: name -> (workload factory, CPUs, instructions hashed per process).
#: DSS runs one CPU's four processes past the end of their first row
#: batch (~11k instructions), so the generator's blocking database
#: checkpoint I/O between batches is covered too.
TRACE_CASES = {
    "oltp": (oltp_workload, 2, 2000),
    "dss": (dss_workload, 1, 12000),
    "tpcc": (tpcc_workload, 2, 2000),
    "oltp-hints": (functools.partial(
        oltp_workload,
        hints=MigratoryHints(prefetch=True, flush=True)), 2, 2000),
    "tpcc-hints-pcs": (WorkloadSpec(
        "tpcc", hints_prefetch=True, hints_flush=True,
        hints_pcs=_HINT_PCS).build, 2, 2000),
    "oltp-scale4": (functools.partial(oltp_workload, scale=4), 2, 2000),
}

TRACE_DIGESTS = {
    "dss@0":
        "de9ea40a1532690ffe98eb92ecd1d0664d620ad8dec2a39e0079e4a73bf3968e",
    "dss@7":
        "b065b3e80f0d6fc7c91aff5bebcc561732058f23343ba168a2b8b341d3645a29",
    "oltp@0":
        "cd749a433c216e9f2ced656fd7a1b53d782920e28a1a88ea9b6e606d7be73c8c",
    "oltp@7":
        "21775d407b4dfa14007d49a49f620f841995e48cccaac42341af03e5d82beb03",
    "oltp-hints@0":
        "1ed3482157eb0e15cabd2ec50b3dfb09234059b06f27511a243e2ad118b30a37",
    "oltp-hints@7":
        "d525c6c5c8a53f32331490668b4377c5d0895239486cc3cf898af479042124ce",
    "oltp-scale4@0":
        "86dc913b8c2ff0364807bfe9c188f0a13b6c1424a1a929ff82e77c6afe84e438",
    "oltp-scale4@7":
        "cbdb3cdcdcc13337245f8aa1a03992d0bdab4dcaa728ee01a412266bd8289510",
    "tpcc@0":
        "43b52669b997e4edb6668861f46d69895ae09f4842d887cae8d297115ddc3a45",
    "tpcc@7":
        "d19a0bc5a4765a5017081d49776a3712b2bbaeb6a7d9d554153e559b2d48e3bf",
    "tpcc-hints-pcs@0":
        "0908b2d40e0cc03aaffcced1f4ad70e85e2a8598433cb0eafa1ccf4a3a24a2ac",
    "tpcc-hints-pcs@7":
        "9712e4f15e76e101f487396326349cf0a18ac24fcd9f43b3fbb8f0b468892061",
}


def stream_digest(workload, n_cpus, per_process, seed):
    """sha256 over every field of the first ``per_process`` instructions
    of each process's stream, processes in pid order."""
    h = hashlib.sha256()
    for gen in workload.generators(n_cpus, seed=seed):
        for ins in islice(gen, per_process):
            h.update(repr((ins.op, ins.pc, ins.addr, ins.deps, ins.latency,
                           ins.taken, ins.target, ins.branch_kind,
                           ins.bp_outcome)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("name", sorted(TRACE_CASES))
def test_trace_stream_pinned(name, seed):
    factory, n_cpus, per_process = TRACE_CASES[name]
    digest = stream_digest(factory(), n_cpus, per_process, seed)
    assert digest == TRACE_DIGESTS[f"{name}@{seed}"]


# ------------------------------------------------------------ main loop

BASE = default_system()
_SMT2 = BASE.replace(processor=dataclasses.replace(
    BASE.processor, smt_contexts=2))

#: name -> (params, workload factory, instructions, warmup, chunks).
RESULT_CASES = {
    "oltp": (BASE, oltp_workload, 2500, 1000, None),
    "oltp-smt2": (_SMT2, oltp_workload, 2500, 1000, None),
    "oltp-idle": (BASE, functools.partial(oltp_workload,
                                          processes_per_cpu=1),
                  6000, 1000, None),
    "dss-chunked": (BASE, dss_workload, 3000, 1000, [900, 2000, 3000]),
}

RESULT_DIGESTS = {
    "dss-chunked":
        "cfdd115f2d333b8ffe5e7a24286c13634f7bc51de56a87760173fe108589e4bf",
    "oltp":
        "4d7e58958114aead6b3159a49dee1898a407a989f14343f0bb0f5827271a075d",
    "oltp-idle":
        "b38b364620b76ccfb7a233d10193f0370c0d3cf51a2e7d96d1efc17fa69c061d",
    "oltp-smt2":
        "65d76f066e70ca2144bf791ab239a6077fc01f928bc03ee7db9f96cc7e6e98cb",
}


def result_digest(params, workload, instructions, warmup, chunks):
    m = Machine(params, workload.generators(params.n_nodes, seed=0))
    m.run(warmup)
    m.reset_stats()
    if chunks:
        cycles = 0
        base = m.total_retired()
        for stop in chunks:
            cycles += m.run(base + stop - m.total_retired())
    else:
        cycles = m.run(instructions)
    result = assemble_result(m, workload.name, cycles, instructions)
    payload = json.dumps(result.to_dict(), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(RESULT_CASES))
def test_result_pinned(name):
    params, factory, instructions, warmup, chunks = RESULT_CASES[name]
    digest = result_digest(params, factory(), instructions, warmup, chunks)
    assert digest == RESULT_DIGESTS[name]
