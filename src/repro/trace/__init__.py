"""Synthetic workload trace generation.

The paper drives its simulator with ATOM-captured traces of Oracle 7.3.2
server processes running TPC-B (OLTP) and TPC-D Query 6 (DSS).  Oracle and
the traces are proprietary, so this package regenerates statistically
equivalent per-process instruction streams:

* :mod:`repro.trace.instr` -- the instruction record format.
* :mod:`repro.trace.database` -- the shared address-space layout (SGA block
  buffer, metadata/locks, code, logs, per-process private regions).
* :mod:`repro.trace.codewalk` -- instruction-fetch behaviour (streaming
  I-references, branch structure).
* :mod:`repro.trace.oltp` -- TPC-B-like transaction streams.
* :mod:`repro.trace.dss` -- TPC-D-Q6-like parallel scan streams.
"""
