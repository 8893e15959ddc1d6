"""Layer order: simulator core <- eval/verify <- serve/obs.

The serving layer wraps the evaluation loops, never the other way round.
An AST scan of ``src/repro`` fails when a module outside ``serve/`` and
``obs/`` imports ``repro.serve`` — at module level or nested inside a
function.  The one sanctioned edge is the CLI's ``serve`` subcommand,
which starts the server.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
SERVING_PACKAGES = ("repro.serve", "repro.obs")
#: (module, enclosing function) pairs allowed to import repro.serve.
ALLOWED = {("repro.eval.cli", "_cmd_serve")}


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _imported(node: ast.AST, module: str, is_package: bool) -> list:
    """Absolute module names an import statement brings in."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if not isinstance(node, ast.ImportFrom):
        return []
    base = node.module or ""
    if node.level:
        package = module.split(".")
        if not is_package:
            package.pop()
        package = package[: len(package) - (node.level - 1)]
        base = ".".join(package + ([base] if base else []))
    return [base] + [f"{base}.{alias.name}" for alias in node.names]


def serve_imports(source: str, module: str, is_package: bool = False) -> list:
    """``(line, enclosing function)`` of each import of ``repro.serve``."""
    found = []

    def visit(node: ast.AST, function: str) -> None:
        for child in ast.iter_child_nodes(node):
            name = function
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = child.name
            names = _imported(child, module, is_package)
            if any(n == "repro.serve" or n.startswith("repro.serve.")
                   for n in names):
                found.append((child.lineno, function))
            visit(child, name)

    visit(ast.parse(source), "")
    return found


def test_scan_sees_relative_and_nested_imports():
    source = (
        "from ..serve.session import PredictorSession\n"
        "def f():\n"
        "    from .. import serve\n"
        "    import repro.serve.protocol\n"
        "from ..kernels import dispatch_batch\n"
    )
    assert serve_imports(source, "repro.eval.engine") == [
        (1, ""), (3, "f"), (4, "f"),
    ]
    assert serve_imports("from .serve import session\n", "repro", True) == [
        (1, ""),
    ]


def test_only_serving_layers_import_serve():
    offenders = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        module = _module_name(path)
        if module.startswith(SERVING_PACKAGES):
            continue
        source = path.read_text(encoding="utf-8")
        for line, function in serve_imports(
            source, module, path.name == "__init__.py"
        ):
            if (module, function) not in ALLOWED:
                offenders.append(f"{path.relative_to(SRC)}:{line}")
    assert offenders == [], "repro.serve imported from: " + ", ".join(offenders)
