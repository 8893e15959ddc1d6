"""R005 — stream/columns parity.

The evaluation layer keeps two semantically-identical predictor drivers:
``run_on_stream`` (the reference tuple-stream loop) and
``run_on_columns`` (the columnar fast path the figure suite actually
runs).  PR 3's three-way differential oracle checks their *outputs*
agree dynamically; this rule checks their *inputs* agree statically — a
predictor attribute or config field consulted by one loop but not the
other is either dead weight or, far worse, a behaviour only one path
has (the figure suite would then silently diverge from the reference
semantics without any crash).

For every module (or class) defining **both** functions, the rule
compares the sets of attribute chains read off the first parameter
(``predictor.predict``, ``predictor.config.gap``, ...) and reports any
asymmetry against the function that lacks the access.  A loop factored
into a helper of the same scope still counts: the reads of a helper
called with the parameter as its first argument join the caller's.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..astutil import attr_chain
from ..core import Finding, ModuleInfo, Rule, register

STREAM_NAME = "run_on_stream"
COLUMNS_NAME = "run_on_columns"


def _first_param(function: ast.FunctionDef) -> Optional[str]:
    args = function.args
    ordered = list(args.posonlyargs) + list(args.args)
    if ordered and ordered[0].arg == "self":
        ordered = ordered[1:]
    if not ordered:
        return None
    return ordered[0].arg


def _param_reads(function: ast.FunctionDef, param: str) -> Set[str]:
    """Dotted attribute chains read from ``param`` inside ``function``."""
    reads: Set[str] = set()
    for node in ast.walk(function):
        if not isinstance(node, ast.Attribute):
            continue
        chain = attr_chain(node)
        if chain is None or chain[0] != param or len(chain) < 2:
            continue
        reads.add(".".join(chain[1:]))
    # Keep only the longest chains (reading `p.config.gap` also visits
    # the `p.config` attribute node; reporting both would be noise).
    return {
        read
        for read in reads
        if not any(other != read and other.startswith(read + ".") for other in reads)
    }


def _reads_through(
    function: ast.FunctionDef,
    param: str,
    scope: Dict[str, ast.FunctionDef],
    seen: Optional[Set[str]] = None,
) -> Set[str]:
    """:func:`_param_reads`, plus those of same-scope helpers handed ``param``."""
    seen = (seen or set()) | {function.name}
    reads = _param_reads(function, param)
    for node in ast.walk(function):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in scope
            and node.func.id not in seen
            and node.args
            and isinstance(node.args[0], ast.Name)
            and node.args[0].id == param
        ):
            continue
        helper = scope[node.func.id]
        helper_param = _first_param(helper)
        if helper_param is not None:
            reads |= _reads_through(helper, helper_param, scope, seen)
    return reads


def _collect_pairs(
    module: ModuleInfo,
) -> Iterator[
    Tuple[str, ast.FunctionDef, ast.FunctionDef, Dict[str, ast.FunctionDef]]
]:
    """(scope label, stream fn, columns fn, scope functions) per scope."""
    scopes: List[Tuple[str, List[ast.stmt]]] = [("module", module.tree.body)]
    for node in ast.walk(module.tree):
        if isinstance(node, ast.ClassDef):
            scopes.append((node.name, node.body))
    for label, body in scopes:
        functions: Dict[str, ast.FunctionDef] = {
            stmt.name: stmt
            for stmt in body
            if isinstance(stmt, ast.FunctionDef)
        }
        if STREAM_NAME in functions and COLUMNS_NAME in functions:
            yield (
                label, functions[STREAM_NAME], functions[COLUMNS_NAME],
                functions,
            )


@register
class StreamColumnsParityRule(Rule):
    id = "R005"
    title = "stream-columns-parity"
    rationale = (
        "run_on_stream and run_on_columns must consult the same"
        " predictor surface; an attribute read by only one path is a"
        " semantic fork the differential oracle may not cover."
    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for _, stream_fn, columns_fn, scope in _collect_pairs(module):
            stream_param = _first_param(stream_fn)
            columns_param = _first_param(columns_fn)
            if stream_param is None or columns_param is None:
                continue
            stream_reads = _reads_through(stream_fn, stream_param, scope)
            columns_reads = _reads_through(columns_fn, columns_param, scope)
            for missing in sorted(stream_reads - columns_reads):
                yield self.finding(
                    module,
                    columns_fn,
                    f"{COLUMNS_NAME} never reads"
                    f" '{columns_param}.{missing}' but {STREAM_NAME}"
                    f" does; the fast path is missing behaviour",
                    symbol=COLUMNS_NAME,
                )
            for missing in sorted(columns_reads - stream_reads):
                yield self.finding(
                    module,
                    stream_fn,
                    f"{STREAM_NAME} never reads"
                    f" '{stream_param}.{missing}' but {COLUMNS_NAME}"
                    f" does; the reference path is missing behaviour",
                    symbol=STREAM_NAME,
                )
