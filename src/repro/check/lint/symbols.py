"""Whole-program symbol table feeding the contract passes (R011, R012).

The :class:`ProgramIndex` holds one :class:`ModuleInfo` per linted file;
each records, per class and per method, the facts the contracts reason
about:

* ``dotted_writes`` -- plain attribute-assignment targets as dotted
  paths (``self.X`` -> ``X``, ``self.X.Y`` -> ``X.Y``), with local
  aliases resolved (``sb = self.storebuf; sb.flag = ...`` ->
  ``storebuf.flag``); subscript stores are deliberately excluded, so
  both tick paths' in-place container updates don't create noise;
* ``calls`` -- intra-class ``self.m(...)`` edges (contract passes close
  write sets over them).

Ephemeral-parameter reads (R011) are collected module-wide: every
``<something>.params.<field>`` / ``params.<field>`` load of a field on
the ephemeral registry, tagged with its enclosing function and class.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Set

from repro.check.lint.rules_file import parse_pragmas, suppressed


def _self_chain(node: ast.AST) -> Optional[List[str]]:
    """``self.a.b`` -> ``["a", "b"]``; anything else -> None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id == "self" and parts:
        return list(reversed(parts))
    return None


class MethodInfo:
    """Facts about one method body (nested defs included: anything a
    method does at runtime belongs to its write surface)."""

    def __init__(self, name: str, node: ast.AST):
        self.name = name
        self.node = node
        self.dotted_writes: Dict[str, ast.AST] = {}
        self.calls: Set[str] = set()

    def merge(self, other: "MethodInfo") -> None:
        """Property getter/setter pairs share a name; union their facts."""
        self.dotted_writes.update(other.dotted_writes)
        self.calls |= other.calls


class _MethodVisitor(ast.NodeVisitor):
    def __init__(self, info: MethodInfo):
        self.info = info
        self.aliases: Dict[str, List[str]] = {}

    # -- assignment targets --------------------------------------------------

    def _record_target(self, target: ast.AST, node: ast.AST) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._record_target(element, node)
            return
        if isinstance(target, ast.Starred):
            self._record_target(target.value, node)
            return
        if isinstance(target, ast.Attribute):
            chain = self._target_chain(target)
            if chain is not None:
                self.info.dotted_writes.setdefault(".".join(chain), node)

    def _target_chain(self, target: ast.AST) -> Optional[List[str]]:
        """Dotted path of an attribute target, aliases resolved."""
        parts: List[str] = []
        node = target
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        if node.id == "self":
            return list(reversed(parts))
        alias = self.aliases.get(node.id)
        if alias is not None:
            return alias + list(reversed(parts))
        return None

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._record_target(target, node)
        if len(node.targets) == 1 and \
                isinstance(node.targets[0], ast.Name):
            name = node.targets[0].id
            chain = _self_chain(node.value)
            if chain is not None:
                self.aliases[name] = chain
            else:
                self.aliases.pop(name, None)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._record_target(node.target, node)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._record_target(node.target, node)
        self.generic_visit(node)

    # -- calls ---------------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and \
                isinstance(func.value, ast.Name) and \
                func.value.id == "self":
            self.info.calls.add(func.attr)
        self.generic_visit(node)


class ClassInfo:
    def __init__(self, name: str, path: str, node: ast.ClassDef):
        self.name = name
        self.path = path
        self.node = node
        self.methods: Dict[str, MethodInfo] = {}

    def closure(self, roots: Sequence[str]) -> Set[str]:
        """Method names reachable from ``roots`` over ``self.m()`` edges."""
        seen: Set[str] = set()
        frontier = [name for name in roots if name in self.methods]
        while frontier:
            name = frontier.pop()
            if name in seen:
                continue
            seen.add(name)
            frontier.extend(
                callee for callee in sorted(self.methods[name].calls)
                if callee in self.methods and callee not in seen)
        return seen


class EphemeralRead:
    __slots__ = ("node", "field", "function", "class_name")

    def __init__(self, node: ast.AST, field: str,
                 function: Optional[str], class_name: Optional[str]):
        self.node = node
        self.field = field
        self.function = function
        self.class_name = class_name


class _ModuleVisitor(ast.NodeVisitor):
    """Collects classes/methods and ephemeral-field reads in one walk."""

    def __init__(self, module: "ModuleInfo", ephemeral_fields: Set[str]):
        self.module = module
        self.ephemeral_fields = ephemeral_fields
        self._class_stack: List[ClassInfo] = []
        self._func_stack: List[str] = []

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        info = ClassInfo(node.name, self.module.path, node)
        self.module.classes[node.name] = info
        self._class_stack.append(info)
        self.generic_visit(node)
        self._class_stack.pop()

    def _visit_function(self, node) -> None:
        if self._class_stack and len(self._func_stack) == 0:
            # A direct method of the innermost class: analyze its whole
            # body (nested defs included) with the method visitor.
            owner = self._class_stack[-1]
            info = MethodInfo(node.name, node)
            _MethodVisitor(info).visit(node)
            if node.name in owner.methods:
                owner.methods[node.name].merge(info)
            else:
                owner.methods[node.name] = info
        self._func_stack.append(node.name)
        self.generic_visit(node)
        self._func_stack.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.ctx, ast.Load) and \
                node.attr in self.ephemeral_fields:
            receiver = node.value
            hit = False
            if isinstance(receiver, ast.Name) and receiver.id == "params":
                hit = True
            elif isinstance(receiver, ast.Attribute) and \
                    receiver.attr == "params":
                hit = True
            elif isinstance(receiver, ast.Name) and \
                    receiver.id == "self" and self._class_stack and \
                    self._class_stack[-1].name == "SystemParams":
                hit = True
            if hit:
                self.module.ephemeral_reads.append(EphemeralRead(
                    node, node.attr,
                    self._func_stack[-1] if self._func_stack else None,
                    self._class_stack[-1].name
                    if self._class_stack else None))
        self.generic_visit(node)


class ModuleInfo:
    def __init__(self, path: str, source: str, tree: ast.AST):
        self.path = path
        self.tree = tree
        self.classes: Dict[str, ClassInfo] = {}
        self.ephemeral_reads: List[EphemeralRead] = []
        self.file_disabled, self.line_disabled = \
            parse_pragmas(source.splitlines())


class ProgramIndex:
    """Symbol table over every file of one lint invocation."""

    def __init__(self, ephemeral_fields: Set[str]):
        self.ephemeral_fields = ephemeral_fields
        self.files: Dict[str, ModuleInfo] = {}

    def add_file(self, path: str, source: str, tree: ast.AST) -> None:
        module = ModuleInfo(path, source, tree)
        _ModuleVisitor(module, self.ephemeral_fields).visit(tree)
        self.files[path] = module

    def iter_classes(self) -> List[ClassInfo]:
        return [cls for module in self.files.values()
                for cls in module.classes.values()]

    def suppressed(self, path: str, node: ast.AST, code: str) -> bool:
        module = self.files.get(path)
        if module is None:
            return False
        return suppressed(node, code, module.file_disabled,
                          module.line_disabled)
