"""Whole-program contract pass: R011.

**R011** audits a convention the repo's headline claims rest on:
fingerprint-stable caching requires ephemeral ``SystemParams`` fields
to stay out of simulation behaviour.

The deliberate exceptions are declared here, next to the pass, each
with its justification: an auditor reading this module sees the whole
trust surface in one place.
"""

from __future__ import annotations

import ast
import os
from typing import Dict, FrozenSet, List, Optional, Set

from repro.check.lint.registry import LintViolation
from repro.check.lint.symbols import ModuleInfo, ProgramIndex

#: The ephemeral registry (R011): SystemParams fields that configure
#: tooling rather than the simulated machine.  Must match
#: ``repro.params.EPHEMERAL_FIELDS`` exactly -- the pass cross-checks.
EPHEMERAL_REGISTRY: FrozenSet[str] = frozenset({
    "check", "watchdog_cycles", "watchdog_node_cycles"})

#: Approved readers of ephemeral fields (path suffix -> function names).
#: Everything here is a *gate*: code that dispatches on the knob before
#: simulation starts (checker attachment, watchdog arming) or
#: that records it in host-side artifacts (triage bundles).  A read
#: anywhere else is how an ephemeral would leak into cycle math.
EPHEMERAL_READ_GATES: Dict[str, FrozenSet[str]] = {
    "params.py": frozenset({"__post_init__"}),      # value validation
    "system/machine.py": frozenset({
        "__init__",        # attaches the sanitizer when check=True
        "run",             # watchdog arming
    }),
    "run/triage.py": frozenset({"write_bundle"}),   # bundles re-arm the
                                                    # watchdog on replay
}

def _norm(path: str) -> str:
    return path.replace(os.sep, "/")


# --------------------------------------------------------------------- R011

def _literal_str_set(node: ast.AST) -> Optional[Set[str]]:
    """String constants inside a set/frozenset literal or call, or None
    if the value is not a visible literal collection."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id in ("set", "frozenset"):
        if not node.args:
            return set()
        node = node.args[0]
    if isinstance(node, (ast.Set, ast.Tuple, ast.List)):
        out: Set[str] = set()
        for element in node.elts:
            if isinstance(element, ast.Constant) and \
                    isinstance(element.value, str):
                out.add(element.value)
            else:
                return None
        return out
    return None


def _module_assignment(module: ModuleInfo,
                       name: str) -> Optional[ast.Assign]:
    for stmt in module.tree.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name) and target.id == name:
                    return stmt
    return None


def _imports_from_params(module: ModuleInfo, symbol: str) -> bool:
    for stmt in ast.walk(module.tree):
        if isinstance(stmt, ast.ImportFrom) and \
                stmt.module == "repro.params" and \
                any(alias.name == symbol for alias in stmt.names):
            return True
    return False


def _check_ephemeral_registry(module: ModuleInfo
                              ) -> List[LintViolation]:
    """Cross-check the declared registries against EPHEMERAL_REGISTRY."""
    violations: List[LintViolation] = []
    path = _norm(module.path)

    system_params = module.classes.get("SystemParams")
    if system_params is not None and path.endswith("params.py"):
        fields = {stmt.target.id for stmt in system_params.body
                  if isinstance(stmt, ast.AnnAssign) and
                  isinstance(stmt.target, ast.Name)}
        stray = EPHEMERAL_REGISTRY - fields
        if stray:
            violations.append(LintViolation(
                module.path, system_params.lineno, "R011",
                f"ephemeral registry names non-existent SystemParams "
                f"field(s) {sorted(stray)}"))
        declared = _module_assignment(module, "EPHEMERAL_FIELDS")
        if declared is None:
            violations.append(LintViolation(
                module.path, system_params.lineno, "R011",
                "params.py must declare EPHEMERAL_FIELDS (the explicit "
                "ephemeral registry) next to SystemParams"))
        else:
            values = _literal_str_set(declared.value)
            if values is None or values != set(EPHEMERAL_REGISTRY):
                violations.append(LintViolation(
                    module.path, declared.lineno, "R011",
                    f"EPHEMERAL_FIELDS must be the literal registry "
                    f"{sorted(EPHEMERAL_REGISTRY)} (the lint pass, "
                    f"serialization and fingerprinting all key off it)"))

    if path.endswith("params_io.py") and \
            any(isinstance(stmt, ast.FunctionDef) and
                stmt.name == "params_to_dict"
                for stmt in module.tree.body):
        declared = _module_assignment(module, "_EPHEMERAL")
        if declared is not None:
            values = _literal_str_set(declared.value)
            if values is not None:
                if values != set(EPHEMERAL_REGISTRY):
                    violations.append(LintViolation(
                        module.path, declared.lineno, "R011",
                        f"fingerprint exclusion set _EPHEMERAL "
                        f"{sorted(values)} diverges from the ephemeral "
                        f"registry {sorted(EPHEMERAL_REGISTRY)}"))
            elif not _imports_from_params(module, "EPHEMERAL_FIELDS"):
                violations.append(LintViolation(
                    module.path, declared.lineno, "R011",
                    "_EPHEMERAL must alias repro.params.EPHEMERAL_FIELDS "
                    "(or restate it literally) so fingerprints and the "
                    "registry cannot drift apart"))
    return violations


def _check_ephemeral_reads(index: ProgramIndex,
                           module: ModuleInfo) -> List[LintViolation]:
    violations: List[LintViolation] = []
    path = _norm(module.path)
    for read in module.ephemeral_reads:
        gated = any(path.endswith(suffix) and read.function in functions
                    for suffix, functions in
                    EPHEMERAL_READ_GATES.items())
        if gated:
            continue
        if index.suppressed(module.path, read.node, "R011"):
            continue
        where = read.function or "<module>"
        if read.class_name and read.function:
            where = f"{read.class_name}.{read.function}"
        violations.append(LintViolation(
            module.path, getattr(read.node, "lineno", 0), "R011",
            f"read of ephemeral SystemParams field '{read.field}' in "
            f"{where}, outside the approved gate list -- ephemeral "
            f"fields are excluded from fingerprints and must never "
            f"influence simulated behaviour"))
    return violations


# ------------------------------------------------------------------ driver

def run_contracts(index: ProgramIndex) -> List[LintViolation]:
    """All whole-program passes over one :class:`ProgramIndex`."""
    violations: List[LintViolation] = []
    for module in index.files.values():
        violations.extend(_check_ephemeral_registry(module))
        violations.extend(_check_ephemeral_reads(index, module))
    violations.sort(key=lambda v: (v.path, v.line, v.code, v.message))
    return violations
