"""Whole-program symbol table feeding the contract pass (R011).

The :class:`ProgramIndex` holds one :class:`ModuleInfo` per linted file,
recording its classes and every ephemeral-parameter read: each
``<something>.params.<field>`` / ``params.<field>`` load of a field on
the ephemeral registry, tagged with its enclosing function and class.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set

from repro.check.lint.rules_file import parse_pragmas, suppressed


class EphemeralRead:
    __slots__ = ("node", "field", "function", "class_name")

    def __init__(self, node: ast.AST, field: str,
                 function: Optional[str], class_name: Optional[str]):
        self.node = node
        self.field = field
        self.function = function
        self.class_name = class_name


class _ModuleVisitor(ast.NodeVisitor):
    """Collects classes and ephemeral-field reads in one walk."""

    def __init__(self, module: "ModuleInfo", ephemeral_fields: Set[str]):
        self.module = module
        self.ephemeral_fields = ephemeral_fields
        self._class_stack: List[str] = []
        self._func_stack: List[str] = []

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.module.classes[node.name] = node
        self._class_stack.append(node.name)
        self.generic_visit(node)
        self._class_stack.pop()

    def _visit_function(self, node) -> None:
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
                    self._class_stack[-1] == "SystemParams":
                hit = True
            if hit:
                self.module.ephemeral_reads.append(EphemeralRead(
                    node, node.attr,
                    self._func_stack[-1] if self._func_stack else None,
                    self._class_stack[-1]
                    if self._class_stack else None))
        self.generic_visit(node)


class ModuleInfo:
    def __init__(self, path: str, source: str, tree: ast.AST):
        self.path = path
        self.tree = tree
        self.classes: Dict[str, ast.ClassDef] = {}
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

    def suppressed(self, path: str, node: ast.AST, code: str) -> bool:
        module = self.files.get(path)
        if module is None:
            return False
        return suppressed(node, code, module.file_disabled,
                          module.line_disabled)
