"""AST-based determinism and contract auditor for the simulator.

The simulator's claims rest on bit-exact reproducibility: identical
configurations must produce identical cycle counts on any host, any
Python build, any process.  The single-file rules catch the ways Python
lets nondeterminism creep in; the contract rules audit the conventions
the result cache and the durable-state layer rely on:

======  ==================================================================
code    rule
======  ==================================================================
R001    no unseeded randomness: module-level ``random.*`` calls and
        ``random.Random()`` without a seed draw from global, process-
        dependent state
R002    no wall-clock reads (``time.time``, ``perf_counter``,
        ``datetime.now``, ...) -- simulated time is the only clock
R003    no iteration over bare ``set``/``frozenset`` values where order
        can leak into behaviour (wrap in ``sorted(...)``; membership
        tests and order-insensitive reductions are fine)
R004    integer-only cycle arithmetic: true division assigned to a
        cycle-carrying name loses exactness (use ``//`` or wrap in
        ``int()``/``round()``)
R005    ``JobSpec``/``WorkloadSpec`` fields must keep picklable,
        JSON-able types -- worker processes and the result cache both
        serialize them
R006    no per-instruction object allocation on the tick hot path:
        list/dict/set literals and comprehensions inside loops of the
        hot modules (``cpu/core.py``, ``mem/cache.py``) or anywhere in
        a ``tick()`` body churn the allocator millions of times per
        simulated second -- hoist them or reuse scratch structures
R007    no membership tests (``x in d``) or attribute-chain lookups
        (``a.b.c``) inside the main cycle loop (``Machine.run`` in
        ``system/machine.py``): the loop runs once per simulated
        event, so every repeated lookup must be bound to a local
        before the loop
R011    ephemeral-parameter purity: ``SystemParams`` fields are either
        fingerprinted configuration or on the explicit ephemeral
        registry, and ephemeral fields are only read at approved gates
R013    durable writes go through :mod:`repro.run.atomicio`: no bare
        ``open(..., "w")``, ``os.replace``/``os.rename`` or
        ``Path.write_text``/``write_bytes`` inside ``repro/run/`` or
        ``repro/trace/`` -- raw writes dodge the atomic tmp + rename
        dance, disk-fault injection and the recovery audit
======  ==================================================================

Files that fail to parse are reported as ``E001`` diagnostics (path,
line, message) rather than a traceback; E001 cannot be suppressed.

Suppressions::

    x = a / b          # repro-lint: disable=R004
    # repro-lint: disable-file=R002   (anywhere in the file)

``repro lint`` runs this over ``src/repro`` and exits nonzero on any
finding; CI enforces a clean run plus the static teeth test
(``repro.check.lint.selftest``), which seeds one violation per contract
pass and asserts it is detected.  ``repro lint --explain R011`` prints
a rule's long-form contract; ``--format json|sarif``, ``--baseline``
and ``--write-baseline`` support tooling integration.
"""

from __future__ import annotations

import ast
import os
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.check.lint.registry import LintViolation, RULES, RULE_INFO, \
    SYNTAX_ERROR_CODE, explain_rule
from repro.check.lint.rules_file import _FileLinter
from repro.check.lint.symbols import ProgramIndex
from repro.check.lint.contracts import EPHEMERAL_REGISTRY, run_contracts
from repro.check.lint import output as _output

__all__ = [
    "RULES", "RULE_INFO", "SYNTAX_ERROR_CODE", "LintViolation",
    "explain_rule", "lint_file", "iter_python_files", "lint_paths",
    "default_lint_root", "run_lint",
]


def iter_python_files(paths: Sequence[str]) -> Iterable[str]:
    for path in paths:
        if os.path.isfile(path):
            yield path
            continue
        for root, dirs, files in os.walk(path):
            dirs[:] = sorted(d for d in dirs
                             if d not in ("__pycache__",)
                             and not d.endswith(".egg-info"))
            for name in sorted(files):
                if name.endswith(".py"):
                    yield os.path.join(root, name)


def _lint_one(path: str, source: str,
              index: ProgramIndex) -> List[LintViolation]:
    """Per-file pass: parse once, run file rules, feed the symbol
    table.  Unparseable files yield an E001 diagnostic instead of a
    traceback (and never reach the contract passes)."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [LintViolation(
            path, exc.lineno or 0, SYNTAX_ERROR_CODE,
            f"syntax error: {exc.msg}")]
    index.add_file(path, source, tree)
    return _FileLinter(path, source).run(tree)


def lint_paths(paths: Sequence[str],
               overrides: Optional[Dict[str, str]] = None
               ) -> Tuple[List[LintViolation], int]:
    """Lint every Python file under ``paths``: per-file rules plus the
    whole-program contract passes over the same file set.  Returns
    (violations, files_checked).

    ``overrides`` maps absolute paths to replacement source text; the
    static teeth test uses it to lint seeded mutations without touching
    the working tree.
    """
    violations: List[LintViolation] = []
    index = ProgramIndex(set(EPHEMERAL_REGISTRY))
    checked = 0
    for path in iter_python_files(paths):
        checked += 1
        if overrides and path in overrides:
            source = overrides[path]
        else:
            with open(path, encoding="utf-8") as handle:
                source = handle.read()
        violations.extend(_lint_one(path, source, index))
    violations.extend(run_contracts(index))
    return violations, checked


def lint_file(path: str) -> List[LintViolation]:
    """Single-file entry point (file rules only -- contract passes need
    the whole program and run via :func:`lint_paths`)."""
    with open(path, encoding="utf-8") as handle:
        source = handle.read()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [LintViolation(
            path, exc.lineno or 0, SYNTAX_ERROR_CODE,
            f"syntax error: {exc.msg}")]
    return _FileLinter(path, source).run(tree)


def default_lint_root() -> str:
    """The simulator package directory (``src/repro``) of this checkout."""
    return os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))


def run_lint(paths: Optional[Sequence[str]] = None,
             verbose: bool = True,
             fmt: str = "text",
             output: Optional[str] = None,
             baseline: Optional[str] = None,
             write_baseline: Optional[str] = None) -> int:
    """CLI entry: lint ``paths`` (default: the repro package); returns
    the number of violations (after baseline filtering).

    ``fmt`` selects the report format (``text``/``json``/``sarif``);
    with ``output`` the report is written there and stdout keeps the
    text diagnostics, without it the document replaces stdout text.
    ``baseline`` filters findings recorded by a prior
    ``write_baseline`` run so only new findings count.
    """
    targets = list(paths) if paths else [default_lint_root()]
    violations, checked = lint_paths(targets)
    root = default_lint_root()
    if baseline:
        violations = _output.apply_baseline(
            violations, root, _output.load_baseline(baseline))
    if write_baseline:
        with open(write_baseline, "w", encoding="utf-8") as handle:
            handle.write(_output.render_baseline(violations, root))
        if verbose:
            print(f"repro lint: baseline with {len(violations)} "
                  f"finding(s) written to {write_baseline}")
        return 0
    if fmt == "json":
        document = _output.render_json(violations, checked, root)
    elif fmt == "sarif":
        document = _output.render_sarif(violations, checked, root)
    else:
        document = None
    if document is not None and output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(document)
    if document is None or output:
        for violation in violations:
            print(violation)
        if verbose:
            status = "clean" if not violations else \
                f"{len(violations)} violation(s)"
            print(f"repro lint: {checked} file(s) checked, {status}")
            if document is not None and output:
                print(f"repro lint: {fmt} report written to {output}")
    else:
        print(document, end="")
    return len(violations)
