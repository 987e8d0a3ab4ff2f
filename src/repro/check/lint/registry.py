"""Rule catalog: codes, one-line summaries, and long explanations.

``RULES`` (code -> summary) is the stable public surface consumed by
``repro lint --list-rules`` and by the pragma parser (``disable=all``
expands to it).  ``RULE_INFO`` carries the per-rule metadata shown by
``repro lint --explain RXXX``: the scope of the pass (single-file AST
walk vs whole-program symbol table), the contract the rule guards, and
the escape hatches available when a finding is a documented exception.
"""

from __future__ import annotations

import textwrap
from dataclasses import dataclass
from typing import Dict


@dataclass
class LintViolation:
    path: str
    line: int
    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.code} {self.message}"


#: Diagnostic code emitted for files the linter cannot parse.  It is
#: deliberately *not* in ``RULES``: no pragma (not even ``disable=all``)
#: can hide a syntax error, and the rule catalog stays the set of
#: suppressible rules.
SYNTAX_ERROR_CODE = "E001"


@dataclass(frozen=True)
class Rule:
    """One lint rule: identity, scope and the long-form rationale."""

    code: str
    summary: str
    scope: str          # "file": single-file AST pass; "program": contract
                        # pass over the whole-program symbol table
    explanation: str


def _explain(text: str) -> str:
    return textwrap.dedent(text).strip()


RULE_TABLE = (
    Rule(
        "R001",
        "unseeded randomness (global random module state)",
        "file",
        _explain("""
        Module-level ``random.*`` calls and ``random.Random()`` without a
        seed draw from global, process-dependent state, so two runs of
        the same configuration can diverge.  Use a ``random.Random(seed)``
        instance threaded through the component that needs it.
        """)),
    Rule(
        "R002",
        "wall-clock read in simulation code",
        "file",
        _explain("""
        ``time.time``, ``perf_counter``, ``monotonic``, ``datetime.now``
        and friends read the host clock; simulated time is the only
        clock the simulator may observe.  Host-side timing (benchmarks,
        the profiler) lives outside ``src/repro``'s simulation modules
        or carries an explicit pragma.
        """)),
    Rule(
        "R003",
        "iteration over a bare set (order leaks into behaviour)",
        "file",
        _explain("""
        Set iteration order depends on insertion history and hash
        randomization.  Iterating a bare ``set``/``frozenset`` (for-loop,
        comprehension, ``list(s)``, ``str.join``) lets that order leak
        into simulated behaviour.  Wrap the iterable in ``sorted(...)``;
        membership tests and order-insensitive reductions (``len``,
        ``min``, ``sum``, ``any``...) are fine.
        """)),
    Rule(
        "R004",
        "float division assigned to a cycle-carrying name",
        "file",
        _explain("""
        Cycle arithmetic must stay integer-exact: true division feeding
        a cycle-carrying name (``now``, ``done``, ``latency``,
        ``next_free``...) introduces floats whose rounding varies with
        magnitude.  Use ``//`` or wrap the expression in ``int()`` /
        ``round()``.
        """)),
    Rule(
        "R005",
        "unpicklable field type on JobSpec/WorkloadSpec",
        "file",
        _explain("""
        ``JobSpec``/``WorkloadSpec`` cross process boundaries (worker
        pools) and enter the result cache, so every field must keep a
        picklable, JSON-able type.  A field holding a live simulator
        object would silently break fingerprinting and the fork-server
        pool.
        """)),
    Rule(
        "R006",
        "object allocation inside a tick-path loop (hot modules)",
        "file",
        _explain("""
        List/dict/set literals and comprehensions inside loops of the
        hot modules (``cpu/core.py``, ``mem/cache.py``) or anywhere in a
        ``tick()`` body churn the allocator millions of times per
        simulated second.  Hoist the structure or reuse a scratch one;
        rare branches may carry a pragma.
        """)),
    Rule(
        "R007",
        "unhoisted lookup inside the main cycle loop",
        "file",
        _explain("""
        The main loop (``Machine.run`` in ``system/machine.py``) runs
        once per simulated event; membership tests and attribute-chain
        lookups inside it repeat dictionary probes on every grid step.
        Bind lookups to locals before the loop.
        """)),
    Rule(
        "R011",
        "ephemeral SystemParams field read outside its gate list",
        "program",
        _explain("""
        Contract: fingerprint-stable result caching.  ``SystemParams``
        fields are either part of the simulated configuration (and enter
        serialized configs and cache fingerprints) or on the explicit
        ephemeral registry (``check``, ``watchdog_cycles``,
        ``watchdog_node_cycles``) -- tooling knobs that must never
        change simulated results.  The pass cross-checks the
        registry against ``repro.params.EPHEMERAL_FIELDS`` and the
        fingerprint exclusion set in ``repro.params_io``, and flags any
        read of an ephemeral field outside the approved gate list
        (machine construction, watchdog arming in the main loop,
        triage bundle capture).  A read anywhere
        else is exactly how ``check`` or a watchdog knob would leak into
        cycle math.

        Escape hatches: extend
        ``repro.check.lint.contracts.EPHEMERAL_READ_GATES`` (with
        review) for a new legitimate gate; pragmas and ``--baseline``
        as usual.
        """)),
    Rule(
        "R013",
        "durable write bypassing repro.run.atomicio",
        "file",
        _explain("""
        Every durable artifact the runner persists (cache entries, the
        sweep manifest, triage bundles, the gc journal) must be
        published through :mod:`repro.run.atomicio` -- the audited
        tmp + fsync + rename primitive that also hosts deterministic
        disk-fault injection.
        A bare ``open(..., "w")``, ``os.replace``/``os.rename`` or
        ``Path.write_text``/``write_bytes`` inside ``repro/run/`` or
        ``repro/trace/`` creates a durable file the crash-consistency
        harness cannot tear, fault, or audit: a writer dying mid-call
        leaves a torn artifact no recovery path knows about.
        ``run/atomicio.py`` itself is the only exempt module.  Host-
        side scratch that genuinely is not a durable artifact may carry
        a ``# repro-lint: disable=R013`` pragma with a justification.
        """)),
)

RULES: Dict[str, str] = {rule.code: rule.summary for rule in RULE_TABLE}
RULE_INFO: Dict[str, Rule] = {rule.code: rule for rule in RULE_TABLE}


def explain_rule(code: str) -> str:
    """Long-form description for ``repro lint --explain CODE``."""
    rule = RULE_INFO.get(code.upper())
    if rule is None:
        known = ", ".join(sorted(RULES))
        return f"unknown rule {code!r} (known: {known})"
    scope = ("single-file AST pass" if rule.scope == "file"
             else "whole-program contract pass")
    return (f"{rule.code}: {rule.summary}\n"
            f"scope: {scope}\n\n{rule.explanation}")
