"""Single-file AST rules (R001-R007, R013) and the pragma grammar.

``_FileLinter`` walks one module's AST and reports the per-file
determinism rules; the whole-program contract passes live in
:mod:`repro.check.lint.contracts`.  The pragma grammar is shared by
both layers through :func:`parse_pragmas` / :func:`suppressed`.
"""

from __future__ import annotations

import ast
import os
import re
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.check.lint.registry import RULES, LintViolation

#: Files holding the simulator's main loop (R007) and the function
#: names the rule applies to inside them.
_LOOP_SUFFIXES = ("system/machine.py",)
_LOOP_FUNCS = ("run",)

#: Modules whose loops are the simulator's per-instruction hot path
#: (R006).  Matched by normalized path suffix.
_HOT_SUFFIXES = ("cpu/core.py", "mem/cache.py")

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

#: Functions in hot modules that are allowed to allocate: setup,
#: teardown and reporting run once per simulation, not per instruction.
_COLD_FUNC = re.compile(
    r"^(__\w+__|reset\w*|format\w*|describe\w*|dump\w*|summary\w*|"
    r"to_dict|from_dict|stats\w*|report\w*)$")

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

# Order-insensitive consumers a bare set may flow into (R003 exemption).
_ORDER_FREE = {"sorted", "len", "min", "max", "sum", "any", "all",
               "set", "frozenset"}

# Order-sensitive consumers that trigger R003 when fed a bare set.
_ORDER_SENSITIVE = {"list", "tuple", "enumerate", "iter", "zip"}

# Picklable / JSON-friendly annotation vocabulary for spec dataclasses
# (R005).  Everything a worker process or the result cache must encode.
_SPEC_TYPES = {
    "int", "float", "str", "bool", "bytes", "None",
    "Optional", "Union", "Tuple", "tuple", "List", "list",
    "Dict", "dict", "Mapping", "Any", "ClassVar",
    "SystemParams", "WorkloadSpec", "MigratoryHints",
}
_SPEC_CLASSES = {"JobSpec", "WorkloadSpec"}


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


def suppressed(node: ast.AST, code: str, file_disabled: Set[str],
               line_disabled: Dict[int, Set[str]]) -> bool:
    """Pragma check shared by the file rules and the contract passes:
    a code is suppressed when disabled file-wide or on any line the
    reported node spans."""
    if code in file_disabled:
        return True
    first = getattr(node, "lineno", 0)
    last = getattr(node, "end_lineno", first) or first
    return any(code in line_disabled.get(line, ())
               for line in range(first, last + 1))


class _FileLinter(ast.NodeVisitor):
    def __init__(self, path: str, source: str):
        self.path = path
        self.source = source
        self.lines = source.splitlines()
        self.violations: List[LintViolation] = []
        self.file_disabled, self.line_disabled = parse_pragmas(self.lines)
        self._random_aliases: Set[str] = set()     # modules aliased to random
        self._random_funcs: Set[str] = set()       # from random import X
        self._time_aliases: Dict[str, str] = {}    # alias -> module
        self._wall_funcs: Dict[str, str] = {}      # from-imported name -> mod
        self._set_names: Set[str] = set()
        self._set_attrs: Set[str] = set()
        normalized = path.replace(os.sep, "/")
        self._hot_file = any(normalized.endswith(suffix)
                             for suffix in _HOT_SUFFIXES)
        self._loop_file = any(normalized.endswith(suffix)
                              for suffix in _LOOP_SUFFIXES)
        self._durable_file = any(fragment in normalized
                                 for fragment in _DURABLE_FRAGMENTS) \
            and not any(normalized.endswith(suffix)
                        for suffix in _DURABLE_EXEMPT_SUFFIXES)
        self._func_stack: List[str] = []
        self._loop_depth = 0

    # -- pragmas -------------------------------------------------------------

    def _suppressed(self, node: ast.AST, code: str) -> bool:
        return suppressed(node, code, self.file_disabled,
                          self.line_disabled)

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
        # target/iter evaluate once per loop entry, the body (and, for
        # an async generator, nothing else) once per iteration -- only
        # the body counts toward R006 loop depth.
        self.visit(node.target)
        self.visit(node.iter)
        self._loop_depth += 1
        for stmt in node.body:
            self.visit(stmt)
        self._loop_depth -= 1
        for stmt in node.orelse:
            self.visit(stmt)

    visit_AsyncFor = visit_For

    def visit_While(self, node: ast.While) -> None:
        self._loop_depth += 1
        self.visit(node.test)
        for stmt in node.body:
            self.visit(stmt)
        self._loop_depth -= 1
        for stmt in node.orelse:
            self.visit(stmt)

    def _check_comprehension(self, node) -> None:
        for gen in node.generators:
            if self._is_setish(gen.iter):
                self._report(node, "R003",
                             "comprehension over a bare set -- wrap the "
                             "iterable in sorted(...)")
        if not isinstance(node, ast.GeneratorExp):
            self._check_hot_allocation(node, "comprehension")
        self.generic_visit(node)

    visit_ListComp = _check_comprehension
    visit_SetComp = _check_comprehension
    visit_DictComp = _check_comprehension
    visit_GeneratorExp = _check_comprehension

    # -- R006: hot-path allocation ---------------------------------------------

    def _visit_function(self, node) -> None:
        self._func_stack.append(node.name)
        saved, self._loop_depth = self._loop_depth, 0
        self.generic_visit(node)
        self._loop_depth = saved
        self._func_stack.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def _check_hot_allocation(self, node: ast.AST, what: str) -> None:
        """R006: literal allocation inside a hot-module tick loop."""
        if not self._hot_file:
            return
        ctx = getattr(node, "ctx", None)
        if ctx is not None and not isinstance(ctx, ast.Load):
            return
        in_tick = any(name in ("tick", "_tick")
                      for name in self._func_stack)
        if self._loop_depth == 0 and not in_tick:
            return
        current = self._func_stack[-1] if self._func_stack else ""
        if _COLD_FUNC.match(current):
            return
        self._report(node, "R006",
                     f"{what} allocated on the tick hot path -- hoist "
                     f"it, reuse a scratch structure, or suppress with "
                     f"a pragma if this branch is rare")

    # -- R007: main-loop lookups ----------------------------------------------

    def _in_main_loop(self) -> bool:
        return self._loop_file and self._loop_depth > 0 and \
            any(name in _LOOP_FUNCS for name in self._func_stack)

    def visit_Compare(self, node: ast.Compare) -> None:
        if self._in_main_loop() and \
                any(isinstance(op, (ast.In, ast.NotIn))
                    for op in node.ops):
            self._report(node, "R007",
                         "membership test inside the main cycle loop "
                         "-- the loop runs once per simulated event; "
                         "use a flat array or hoist the lookup")
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if self._in_main_loop() and \
                isinstance(node.value, ast.Attribute):
            self._report(node, "R007",
                         f"attribute-chain lookup ...{node.value.attr}."
                         f"{node.attr} inside the main cycle loop -- "
                         f"bind intermediates to locals before the loop")
        self.generic_visit(node)

    def visit_List(self, node: ast.List) -> None:
        self._check_hot_allocation(node, "list literal")
        self.generic_visit(node)

    def visit_Set(self, node: ast.Set) -> None:
        self._check_hot_allocation(node, "set literal")
        self.generic_visit(node)

    def visit_Dict(self, node: ast.Dict) -> None:
        self._check_hot_allocation(node, "dict literal")
        self.generic_visit(node)

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

    # -- R005: spec dataclass fields -------------------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if node.name in _SPEC_CLASSES:
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and \
                        isinstance(item.target, ast.Name):
                    bad = self._foreign_types(item.annotation)
                    if bad:
                        self._report(
                            item, "R005",
                            f"field {item.target.id!r} uses "
                            f"non-serializable type(s) {sorted(bad)}")
        self.generic_visit(node)

    def _foreign_types(self, annotation: ast.AST) -> Set[str]:
        bad: Set[str] = set()
        for sub in ast.walk(annotation):
            if isinstance(sub, ast.Name) and sub.id not in _SPEC_TYPES:
                bad.add(sub.id)
            elif isinstance(sub, ast.Attribute) and \
                    sub.attr not in _SPEC_TYPES:
                bad.add(sub.attr)
        return bad

    # -- set-symbol inference --------------------------------------------------

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
