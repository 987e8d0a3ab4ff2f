"""Correctness tooling for the simulator (the ``repro check`` layer).

Three cooperating pieces, all opt-in and all zero-cost when disabled:

* :mod:`repro.check.invariants` -- a runtime sanitizer
  (:class:`~repro.check.invariants.InvariantChecker`) that wraps a
  machine's coherence directory, caches, store buffers and cores and
  validates protocol/ordering/accounting invariants on every transition.
  Enabled via ``Tools.check``.  A sanitized run takes the same
  main loop and the same ``ProcessorCore.tick`` with tick skipping
  off, stepping every core at every grid point, so the sanitizer
  checks the code plain runs execute and the sanitized run is the
  oracle skipping must match byte for byte (``tests/test_fastpath.py``,
  and ``run_litmus_suite`` with and without ``check``).
* :mod:`repro.check.litmus` -- hand-written consistency litmus traces
  (message passing, Dekker/store buffering, migratory handoff) replayed
  on small machines, asserting each consistency model forbids or allows
  the right outcomes.
* :mod:`repro.check.lint` -- ``repro lint``: five AST rules over the
  simulator sources that keep runs deterministic (R001-R004) and
  durable writes atomic (R013).

:mod:`repro.check.mutations` seeds deliberate protocol bugs and proves
the sanitizer and litmus harness detect every one of them, and seeds
a source violation that R013 must flag (the "has teeth" self-test run
by ``repro check``).
"""

from __future__ import annotations

from typing import List


def run_check_suite(verbose: bool = True, self_test: bool = True,
                    durability: bool = False) -> bool:
    """Full correctness suite: litmus matrix, sanitizer-enabled smoke
    runs, and (optionally) the mutation self-test.  Returns overall
    pass/fail; ``repro check`` turns that into the exit status.

    With ``durability=True`` (``repro check --durability``) the
    durable-state recovery audit (:func:`repro.run.audit.audit_state`)
    also runs against the default cache directory; any durability-
    contract violation fails the suite.
    """
    from repro.check.litmus import run_litmus_suite
    from repro.check.mutations import run_mutation_self_test
    from repro.core.validation import check_sanitizer_neutrality

    ok = True

    if durability:
        from repro.run.audit import audit_state
        from repro.run.cache import default_cache_dir
        report = audit_state(default_cache_dir())
        ok &= report.ok
        if verbose:
            print("== durability audit ==")
            print(report.format_report())

    if verbose:
        print("== litmus suite ==")
    results = run_litmus_suite(check=True)
    for r in results:
        ok &= r.passed
        if verbose:
            print(f"  {r}")

    if verbose:
        print("== sanitizer smoke (checker on == checker off) ==")
    smoke: List = [check_sanitizer_neutrality(workload)
                   for workload in ("oltp", "dss")]
    for result in smoke:
        ok &= result.passed
        if verbose:
            print(f"  {result}")

    if self_test:
        if verbose:
            print("== mutation self-test ==")
        mutations = run_mutation_self_test()
        for m in mutations:
            ok &= m.detected
            if verbose:
                print(f"  {m}")

    if verbose:
        print("check suite:", "PASS" if ok else "FAIL")
    return ok
