"""Static-analysis teeth test: seeded contract violations.

Runtime mutation self-tests (``repro.check.mutations``) prove the
*dynamic* checkers catch injected bugs.  This module does the same for
the contract passes: each entry rewrites one real source file in
memory (never on disk), lints the whole tree with that override, and
asserts the expected rule fires on the mutated file.  A pass that stays
silent on its own seeded violation has no teeth and must not gate CI.
"""

from __future__ import annotations

import os
import re
from typing import Callable, Dict, List, Optional, Tuple


class StaticMutationResult:
    __slots__ = ("name", "description", "detected", "detail")

    def __init__(self, name: str, description: str, detected: bool,
                 detail: str):
        self.name = name
        self.description = description
        self.detected = detected
        self.detail = detail

    def __str__(self) -> str:
        status = "DETECTED" if self.detected else "MISSED"
        suffix = f" ({self.detail})" if self.detail else ""
        return f"[{status}] {self.name}: {self.description}{suffix}"


def _drop_snapshot_field(source: str) -> str:
    """Remove the ``"retired"`` entry from ProcessorCore.snapshot()."""
    pattern = re.compile(r'^\s*"retired": self\.retired,\s*\n',
                         re.MULTILINE)
    mutated, count = pattern.subn("", source, count=1)
    if count != 1:
        raise AssertionError(
            "mutation anchor '\"retired\": self.retired,' not found in "
            "cpu/core.py -- update the static teeth test")
    return mutated


def _ephemeral_read_in_tick(source: str) -> str:
    """Insert a ``params.check`` read into ProcessorCore.tick()."""
    pattern = re.compile(r"^(    def tick\(self\b[^\n]*\n)",
                         re.MULTILINE)
    mutated, count = pattern.subn(
        r"\1        _ephemeral_probe = self.params.check\n",
        source, count=1)
    if count != 1:
        raise AssertionError(
            "mutation anchor 'def tick(self' not found in cpu/core.py "
            "-- update the static teeth test")
    return mutated


def _raw_durable_write(source: str) -> str:
    """Append a helper that publishes a cache file with bare open()."""
    return source + (
        "\n\ndef _r013_probe(path, text):\n"
        "    with open(path, \"w\") as fh:\n"
        "        fh.write(text)\n")


def _fast_only_write(source: str) -> str:
    """Insert a fast-path-only attribute write into tick_fast()."""
    pattern = re.compile(r"^(    def tick_fast\(self\b[^\n]*\n)",
                         re.MULTILINE)
    mutated, count = pattern.subn(
        r"\1        self._fast_scratch = 0\n", source, count=1)
    if count != 1:
        raise AssertionError(
            "mutation anchor 'def tick_fast(self' not found in "
            "cpu/core.py -- update the static teeth test")
    return mutated


#: name -> (description, target path relative to the lint root,
#:          source transformer, rule code expected to fire)
STATIC_MUTATIONS: Dict[str, Tuple[str, str, Callable[[str], str], str]] = {
    "snapshot-field-dropped": (
        "drop 'retired' from ProcessorCore.snapshot() -- checkpoint "
        "resume would lose the retirement count",
        os.path.join("cpu", "core.py"),
        _drop_snapshot_field,
        "R010"),
    "ephemeral-read-in-tick": (
        "read params.check inside ProcessorCore.tick() -- an ephemeral "
        "knob leaking into per-cycle behaviour",
        os.path.join("cpu", "core.py"),
        _ephemeral_read_in_tick,
        "R011"),
    "fast-only-write": (
        "write self._fast_scratch only in tick_fast() -- a tick "
        "write-surface divergence",
        os.path.join("cpu", "core.py"),
        _fast_only_write,
        "R012"),
    "raw-durable-write": (
        "publish a cache file with bare open(..., 'w') in run/cache.py "
        "-- a durable write dodging atomicio's tmp + rename dance",
        os.path.join("run", "cache.py"),
        _raw_durable_write,
        "R013"),
}


def run_static_mutation(name: str) -> str:
    """Apply one seeded violation and lint the tree.

    Returns a non-empty detail string when the expected rule fired on
    the mutated file (detected) and ``""`` when the pass missed it --
    the same convention the runtime mutation detectors use.
    """
    from repro.check.lint import default_lint_root, lint_paths

    description, rel_target, mutate, expected_code = \
        STATIC_MUTATIONS[name]
    root = default_lint_root()
    target = os.path.join(root, rel_target)
    with open(target, "r", encoding="utf-8") as fh:
        original = fh.read()
    mutated = mutate(original)
    violations, _ = lint_paths([root], overrides={target: mutated})
    hits = [v for v in violations
            if v.code == expected_code and
            os.path.abspath(v.path) == os.path.abspath(target)]
    if not hits:
        return ""
    return f"{expected_code} fired: {hits[0].message}"


def run_static_teeth_test(
        names: Optional[List[str]] = None) -> List[StaticMutationResult]:
    """Run every seeded contract violation; all must be detected."""
    results: List[StaticMutationResult] = []
    for name in (names if names is not None
                 else sorted(STATIC_MUTATIONS)):
        description = STATIC_MUTATIONS[name][0]
        detail = run_static_mutation(name)
        results.append(StaticMutationResult(
            name, description, bool(detail), detail))
    return results
