"""R006 — batch kernel contract.

The batch dispatch rule (:func:`repro.kernels.dispatch_batch`) drives a
predictor through a two-phase protocol: ``predict_batch`` plans the whole
stream, ``update_batch`` commits the planned end state, and the class
attribute ``supports_batch`` advertises the pair to the dispatcher.  The
three are one contract — a class with only ``predict_batch`` crashes at
commit time, and one without ``supports_batch`` silently never takes the
fast path (the worst failure mode: everything still *works*, just at
scalar speed, and no test notices).

This rule requires any class defining one side of the contract to define
all of it: ``predict_batch`` and ``update_batch`` together, plus a
``supports_batch`` declaration in the same class body — a class
attribute, or a ``@property`` when support depends on the instance.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from ..core import Finding, ModuleInfo, Rule, register

PREDICT_NAME = "predict_batch"
UPDATE_NAME = "update_batch"
FLAG_NAME = "supports_batch"


def _method(body: list, name: str) -> Optional[ast.AST]:
    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if stmt.name == name:
                return stmt
    return None


def _declares_flag(body: list) -> bool:
    for stmt in body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name == FLAG_NAME:
            # A property computing the flag per instance (a wrapper that
            # supports batches only in some configurations).
            if any(
                isinstance(d, ast.Name) and d.id == "property"
                for d in stmt.decorator_list
            ):
                return True
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name) and target.id == FLAG_NAME:
                    return True
        elif isinstance(stmt, ast.AnnAssign):
            if (
                isinstance(stmt.target, ast.Name)
                and stmt.target.id == FLAG_NAME
            ):
                return True
    return False


@register
class BatchContractRule(Rule):
    id = "R006"
    title = "batch-contract"
    rationale = (
        "predict_batch, update_batch and supports_batch form one"
        " dispatch contract; a class defining only part of it either"
        " crashes mid-batch or silently never leaves the scalar path."
    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            predict = _method(node.body, PREDICT_NAME)
            update = _method(node.body, UPDATE_NAME)
            if predict is None and update is None:
                continue
            if predict is not None and update is None:
                yield self.finding(
                    module,
                    predict,
                    f"{node.name} defines {PREDICT_NAME} without"
                    f" {UPDATE_NAME}; the dispatcher commits every"
                    f" planned batch, so the pair must ship together",
                    symbol=node.name,
                )
            if update is not None and predict is None:
                yield self.finding(
                    module,
                    update,
                    f"{node.name} defines {UPDATE_NAME} without"
                    f" {PREDICT_NAME}; there is nothing to commit"
                    f" and the kernels never run",
                    symbol=node.name,
                )
            if not _declares_flag(node.body):
                yield self.finding(
                    module,
                    predict or update,
                    f"{node.name} defines batch kernels but never"
                    f" declares {FLAG_NAME}; the dispatcher checks the"
                    f" flag, so the fast path silently never runs",
                    symbol=node.name,
                )
