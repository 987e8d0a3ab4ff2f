"""AST rules that keep a run deterministic and its results cacheable.

The paper's figures rest on exact cycle counts: one configuration must
give the same cycles on any host, Python build and process, and a
cached result must be the one a fresh run would give.  Each rule guards
a defect class that tests miss, because a test sees only the runs it
makes, on one host, in one process:

======  ==================================================================
code    rule -- and the defect it guards
======  ==================================================================
R001    no unseeded randomness: module-level ``random.*`` calls and
        ``random.Random()`` without a seed draw from global, process-
        dependent state -- results that differ between worker
        processes while every single-process test passes
R002    no wall-clock reads (``time.time``, ``perf_counter``,
        ``datetime.now``, ...): simulated time is the only clock --
        cycle counts that follow host speed or load
R003    no iteration over a bare ``set``/``frozenset`` where order can
        leak into behaviour (wrap it in ``sorted(...)``; membership
        tests and order-insensitive reductions are fine) -- results
        that change with hash seeds or insertion history
R004    integer-only cycle arithmetic: no true division assigned to a
        cycle-carrying name (use ``//`` or wrap in ``int()``/
        ``round()``) -- float cycles whose rounding drifts with
        magnitude, so digests move with run length
R013    durable writes go through :mod:`repro.run.atomicio`: no bare
        ``open(..., "w")``, ``os.replace``/``os.rename`` or
        ``Path.write_text``/``write_bytes`` in ``repro/run/`` or
        ``repro/trace/`` (``run/atomicio.py`` itself is exempt) -- a
        torn artifact a crash leaves that no fault injection, recovery
        path or audit knows about
======  ==================================================================

Files that fail to parse are reported as ``E001`` diagnostics (path,
line, message) rather than a traceback; E001 cannot be suppressed.

Suppressions, on any line the flagged node spans or anywhere in the
file (codes comma-separated; ``all`` names every rule)::

    x = a / b          # repro-lint: disable=CODE[,CODE]
    # repro-lint: disable-file=CODE[,CODE]

``repro lint`` runs this over ``src/repro`` and exits nonzero on any
finding; ``repro check`` proves R013 has teeth with a seeded source
mutation (``repro.check.mutations.STATIC_MUTATIONS``).
"""

from __future__ import annotations

import ast
import errno
import os
import re
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

RULES: Dict[str, str] = {
    "R001": "unseeded randomness (global random module state)",
    "R002": "wall-clock read in simulation code",
    "R003": "iteration over a bare set (order leaks into behaviour)",
    "R004": "float division assigned to a cycle-carrying name",
    "R013": "durable write bypassing repro.run.atomicio",
}

#: Diagnostic code emitted for files the linter cannot parse.  It is
#: deliberately *not* in ``RULES``: no pragma (not even ``disable=all``)
#: can hide a syntax error.
SYNTAX_ERROR_CODE = "E001"

#: Path fragments marking the durable-artifact tree (R013): everything
#: under the runner and trace packages persists through
#: :mod:`repro.run.atomicio` or not at all.
_DURABLE_FRAGMENTS = ("repro/run/", "repro/trace/")

#: The one module allowed to touch raw write primitives (R013): the
#: atomic-I/O implementation itself.
_DURABLE_EXEMPT_SUFFIXES = ("run/atomicio.py",)

#: ``os`` functions that publish or clobber a path in place (R013).
_RAW_REPLACE = {"replace", "rename"}

#: ``pathlib`` write helpers that bypass the tmp + rename dance (R013).
_RAW_PATH_WRITE = {"write_text", "write_bytes"}

_PRAGMA = re.compile(
    r"#\s*repro-lint:\s*(disable|disable-file)=([A-Za-z0-9_,\s]+)")

# Names whose values carry simulated time; R004 guards their exactness.
_CYCLE_NAME = re.compile(
    r"(^|_)(now|cycles?|done|ready|retry|start|deadline|latency|wake|"
    r"next_free|inject|issue)(_|$)")

# Wall-clock callables per module (R002).
_WALL_CLOCK = {
    "time": {"time", "time_ns", "perf_counter", "perf_counter_ns",
             "monotonic", "monotonic_ns", "clock"},
    "datetime": {"now", "today", "utcnow"},
}

# Order-sensitive consumers that trigger R003 when fed a bare set.
_ORDER_SENSITIVE = {"list", "tuple", "enumerate", "iter", "zip"}


@dataclass
class LintViolation:
    path: str
    line: int
    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.code} {self.message}"


def parse_pragmas(lines: Sequence[str]
                  ) -> Tuple[Set[str], Dict[int, Set[str]]]:
    """``(file_disabled, line -> disabled codes)`` for one source file."""
    file_disabled: Set[str] = set()
    line_disabled: Dict[int, Set[str]] = {}
    for lineno, text in enumerate(lines, start=1):
        match = _PRAGMA.search(text)
        if not match:
            continue
        kind, codes = match.groups()
        parsed = {code.strip().upper()
                  for code in codes.split(",") if code.strip()}
        if "ALL" in parsed:
            parsed = set(RULES)
        if kind == "disable-file":
            file_disabled |= parsed
        else:
            line_disabled.setdefault(lineno, set()).update(parsed)
    return file_disabled, line_disabled


class _FileLinter(ast.NodeVisitor):
    def __init__(self, path: str, source: str):
        self.path = path
        self.source = source
        self.violations: List[LintViolation] = []
        self.file_disabled, self.line_disabled = \
            parse_pragmas(source.splitlines())
        self._random_aliases: Set[str] = set()     # modules aliased to random
        self._random_funcs: Set[str] = set()       # from random import X
        self._time_aliases: Dict[str, str] = {}    # alias -> module
        self._wall_funcs: Dict[str, str] = {}      # from-imported name -> mod
        self._set_names: Set[str] = set()
        self._set_attrs: Set[str] = set()
        normalized = path.replace(os.sep, "/")
        self._durable_file = any(fragment in normalized
                                 for fragment in _DURABLE_FRAGMENTS) \
            and not any(normalized.endswith(suffix)
                        for suffix in _DURABLE_EXEMPT_SUFFIXES)

    # -- pragmas -------------------------------------------------------------

    def _suppressed(self, node: ast.AST, code: str) -> bool:
        """A code is suppressed when disabled file-wide or on any line
        the reported node spans."""
        if code in self.file_disabled:
            return True
        first = getattr(node, "lineno", 0)
        last = getattr(node, "end_lineno", first) or first
        return any(code in self.line_disabled.get(line, ())
                   for line in range(first, last + 1))

    def _report(self, node: ast.AST, code: str, message: str) -> None:
        if not self._suppressed(node, code):
            self.violations.append(LintViolation(
                self.path, getattr(node, "lineno", 0), code, message))

    # -- entry ---------------------------------------------------------------

    def run(self, tree: Optional[ast.AST] = None) -> List[LintViolation]:
        if tree is None:
            tree = ast.parse(self.source, filename=self.path)
        self._collect_set_symbols(tree)
        self.visit(tree)
        return self.violations

    # -- imports -------------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            name = alias.asname or alias.name
            if alias.name == "random":
                self._random_aliases.add(name)
            if alias.name in _WALL_CLOCK:
                self._time_aliases[name] = alias.name
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        for alias in node.names:
            bound = alias.asname or alias.name
            if node.module == "random":
                self._random_funcs.add(bound)
            if node.module in _WALL_CLOCK and \
                    alias.name in _WALL_CLOCK[node.module]:
                self._wall_funcs[bound] = node.module
            if node.module == "datetime" and alias.name == "datetime":
                self._time_aliases[bound] = "datetime"
        self.generic_visit(node)

    # -- R001 / R002: calls ----------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and \
                isinstance(func.value, ast.Name):
            owner, attr = func.value.id, func.attr
            if owner in self._random_aliases:
                if attr == "Random":
                    if not node.args and not node.keywords:
                        self._report(node, "R001",
                                     "random.Random() without a seed")
                elif attr != "seed":
                    self._report(
                        node, "R001",
                        f"call to module-level random.{attr} (uses global "
                        f"process-dependent state; use a seeded "
                        f"random.Random instance)")
            module = self._time_aliases.get(owner)
            if module and attr in _WALL_CLOCK[module]:
                self._report(node, "R002",
                             f"wall-clock call {owner}.{attr}() "
                             f"(simulated time is the only clock)")
        elif isinstance(func, ast.Name):
            if func.id in self._random_funcs:
                self._report(node, "R001",
                             f"call to random-module function "
                             f"{func.id}() imported at module level")
            if func.id in self._wall_funcs:
                self._report(node, "R002",
                             f"wall-clock call {func.id}() imported from "
                             f"{self._wall_funcs[func.id]}")
            if func.id in _ORDER_SENSITIVE and node.args and \
                    self._is_setish(node.args[0]):
                self._report(node, "R003",
                             f"{func.id}() over a bare set -- wrap the "
                             f"set in sorted(...)")
        if isinstance(func, ast.Attribute) and func.attr == "join" and \
                node.args and self._is_setish(node.args[0]):
            self._report(node, "R003",
                         "str.join over a bare set -- wrap in sorted(...)")
        if self._durable_file:
            self._check_raw_durable_write(node)
        self.generic_visit(node)

    # -- R013: durable writes must go through atomicio -------------------------

    def _check_raw_durable_write(self, node: ast.Call) -> None:
        """R013: raw write primitive in the durable-artifact tree."""
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            mode = self._open_mode(node)
            if mode is not None and any(c in mode for c in "wax+"):
                self._report(
                    node, "R013",
                    f"open(..., {mode!r}) in the durable tree -- publish "
                    f"through repro.run.atomicio so the write is atomic, "
                    f"fault-covered and auditable")
            return
        if not isinstance(func, ast.Attribute):
            return
        if func.attr in _RAW_REPLACE and \
                isinstance(func.value, ast.Name) and \
                func.value.id == "os":
            self._report(
                node, "R013",
                f"os.{func.attr}(...) in the durable tree -- publish "
                f"through repro.run.atomicio (or quarantine via "
                f"atomicio.quarantine)")
        elif func.attr in _RAW_PATH_WRITE:
            self._report(
                node, "R013",
                f".{func.attr}(...) in the durable tree -- publish "
                f"through repro.run.atomicio so the write is atomic, "
                f"fault-covered and auditable")

    @staticmethod
    def _open_mode(node: ast.Call) -> Optional[str]:
        """The literal mode string of an ``open`` call, if present."""
        mode: Optional[ast.AST] = None
        if len(node.args) >= 2:
            mode = node.args[1]
        for kw in node.keywords:
            if kw.arg == "mode":
                mode = kw.value
        if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
            return mode.value
        return None

    # -- R003: iteration -------------------------------------------------------

    def visit_For(self, node: ast.For) -> None:
        if self._is_setish(node.iter):
            self._report(node, "R003",
                         "for-loop over a bare set -- wrap the iterable "
                         "in sorted(...)")
        self.generic_visit(node)

    visit_AsyncFor = visit_For

    def _check_comprehension(self, node) -> None:
        for gen in node.generators:
            if self._is_setish(gen.iter):
                self._report(node, "R003",
                             "comprehension over a bare set -- wrap the "
                             "iterable in sorted(...)")
        self.generic_visit(node)

    visit_ListComp = _check_comprehension
    visit_SetComp = _check_comprehension
    visit_DictComp = _check_comprehension
    visit_GeneratorExp = _check_comprehension

    # -- R004: cycle arithmetic ------------------------------------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_cycle_division(target, node.value, node)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._check_cycle_division(node.target, node.value, node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        name = self._target_name(node.target)
        if name and _CYCLE_NAME.search(name):
            if isinstance(node.op, ast.Div) or \
                    self._has_unguarded_div(node.value):
                self._report(node, "R004",
                             f"float division feeding cycle variable "
                             f"{name!r} (use // or int(...))")
        self.generic_visit(node)

    @staticmethod
    def _target_name(target: ast.AST) -> Optional[str]:
        if isinstance(target, ast.Name):
            return target.id
        if isinstance(target, ast.Attribute):
            return target.attr
        return None

    def _check_cycle_division(self, target: ast.AST, value: ast.AST,
                              node: ast.AST) -> None:
        name = self._target_name(target)
        if name and _CYCLE_NAME.search(name) and \
                self._has_unguarded_div(value):
            self._report(node, "R004",
                         f"float division feeding cycle variable "
                         f"{name!r} (use // or int(...))")

    def _has_unguarded_div(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Call):
            func = node.func
            guard = (func.id if isinstance(func, ast.Name)
                     else func.attr if isinstance(func, ast.Attribute)
                     else "")
            if guard in ("int", "round", "floor", "ceil"):
                return False
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            return True
        return any(self._has_unguarded_div(child)
                   for child in ast.iter_child_nodes(node))

    # -- set-symbol inference (R003) -------------------------------------------

    def _collect_set_symbols(self, tree: ast.AST) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                if self._is_setish_literal(node.value):
                    for target in node.targets:
                        self._record_set_target(target)
            elif isinstance(node, ast.AnnAssign):
                if self._annotation_is_set(node.annotation) or (
                        node.value is not None
                        and self._is_setish_literal(node.value)):
                    self._record_set_target(node.target)

    def _record_set_target(self, target: ast.AST) -> None:
        if isinstance(target, ast.Name):
            self._set_names.add(target.id)
        elif isinstance(target, ast.Attribute):
            self._set_attrs.add(target.attr)

    @staticmethod
    def _annotation_is_set(annotation: ast.AST) -> bool:
        for sub in ast.walk(annotation):
            if isinstance(sub, ast.Name) and \
                    sub.id in ("Set", "set", "FrozenSet", "frozenset"):
                return True
        return False

    def _is_setish_literal(self, node: ast.AST) -> bool:
        """Syntactically a set value (no symbol lookup)."""
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in ("set", "frozenset"):
                return True
            # dataclasses.field(default_factory=set)
            if node.func.id == "field":
                for kw in node.keywords:
                    if kw.arg == "default_factory" and \
                            isinstance(kw.value, ast.Name) and \
                            kw.value.id in ("set", "frozenset"):
                        return True
        return False

    def _is_setish(self, node: ast.AST) -> bool:
        """Is this expression (recursively) a bare set value?"""
        if self._is_setish_literal(node):
            return True
        if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
            return self._is_setish(node.left) or \
                self._is_setish(node.right)
        if isinstance(node, ast.Name):
            return node.id in self._set_names
        if isinstance(node, ast.Attribute):
            return node.attr in self._set_attrs
        return False


# ------------------------------------------------------------------ driver

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


def _lint_one(path: str, source: str) -> List[LintViolation]:
    """Parse once and run every rule; an unparseable file yields an
    E001 diagnostic instead of a traceback."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [LintViolation(
            path, exc.lineno or 0, SYNTAX_ERROR_CODE,
            f"syntax error: {exc.msg}")]
    return _FileLinter(path, source).run(tree)


def lint_paths(paths: Sequence[str],
               overrides: Optional[Dict[str, str]] = None
               ) -> Tuple[List[LintViolation], int]:
    """Lint every Python file under ``paths``; returns
    ``(violations, files_checked)``.  A path that does not exist raises
    :class:`FileNotFoundError`, so a typo never lints nothing.

    ``overrides`` maps paths to replacement source text; the static
    mutations use it to lint a seeded violation without touching the
    working tree.
    """
    for path in paths:
        if not os.path.exists(path):
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT),
                                    path)
    violations: List[LintViolation] = []
    checked = 0
    for path in iter_python_files(paths):
        checked += 1
        if overrides and path in overrides:
            source = overrides[path]
        else:
            with open(path, encoding="utf-8") as handle:
                source = handle.read()
        violations.extend(_lint_one(path, source))
    return violations, checked


def default_lint_root() -> str:
    """The simulator package directory (``src/repro``) of this checkout."""
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_lint(paths: Optional[Sequence[str]] = None,
             verbose: bool = True) -> int:
    """CLI entry: lint ``paths`` (default: the repro package), print the
    findings, and return how many there are."""
    targets = list(paths) if paths else [default_lint_root()]
    violations, checked = lint_paths(targets)
    for violation in violations:
        print(violation)
    if verbose:
        status = "clean" if not violations else \
            f"{len(violations)} violation(s)"
        print(f"repro lint: {checked} file(s) checked, {status}")
    return len(violations)
