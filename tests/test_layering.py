"""Layer order: simulator core <- eval/verify <- serve/obs.

An AST scan of ``src/repro`` checks three rules, for imports at module
level and nested inside functions alike:

* The serving layer wraps the evaluation loops, never the other way
  round: a module outside ``serve/`` and ``obs/`` may not import
  ``repro.serve``.  The one sanctioned edge is the CLI's ``serve``
  subcommand, which starts the server.
* ``repro.obs`` is the one observability package: nothing imports the
  retired ``repro.telemetry``.
* Observability observes the simulator without depending on it: an
  ``obs/`` module may not import ``repro.predictors``,
  ``repro.pipeline``, ``repro.kernels`` or ``repro.serve``.  The one
  sanctioned edge is the admin endpoint's use of the wire framing,
  ``repro.serve.protocol``, itself a module that imports nothing from
  ``repro``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
SERVING_PACKAGES = ("repro.serve", "repro.obs")
#: (module, enclosing function) pairs allowed to import repro.serve.
ALLOWED = {("repro.eval.cli", "_cmd_serve")}
#: Packages an obs/ module may not import.
OBS_FORBIDDEN = ("repro.predictors", "repro.pipeline", "repro.kernels",
                 "repro.serve")
#: The wire framing the admin endpoint speaks.
PROTOCOL = "repro.serve.protocol"


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


def _within(name: str, packages) -> bool:
    return any(name == p or name.startswith(p + ".") for p in packages)


def imports_of(
    source: str, module: str, packages, is_package: bool = False,
    exempt: str = "",
) -> list:
    """``(line, enclosing function)`` of each import from ``packages``.

    An import whose names all lie within ``exempt`` or on the path to it
    (its parent packages, as ``from repro.serve import protocol`` brings
    in) is not reported.
    """
    parts = exempt.split(".")
    parents = {".".join(parts[:i]) for i in range(1, len(parts))}

    def exempted(name: str) -> bool:
        return name in parents or _within(name, (exempt,))

    found = []

    def visit(node: ast.AST, function: str) -> None:
        for child in ast.iter_child_nodes(node):
            name = function
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = child.name
            names = _imported(child, module, is_package)
            hits = [n for n in names if _within(n, packages)]
            if hits and not (exempt and all(map(exempted, names))):
                found.append((child.lineno, function))
            visit(child, name)

    visit(ast.parse(source), "")
    return found


def _scan(packages, select, exempt: str = "", allowed=()) -> list:
    offenders = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        module = _module_name(path)
        if not select(module):
            continue
        source = path.read_text(encoding="utf-8")
        for line, function in imports_of(
            source, module, packages, path.name == "__init__.py", exempt,
        ):
            if (module, function) not in allowed:
                offenders.append(f"{path.relative_to(SRC)}:{line}")
    return offenders


def test_scan_sees_relative_and_nested_imports():
    source = (
        "from ..serve.session import PredictorSession\n"
        "def f():\n"
        "    from .. import serve\n"
        "    import repro.serve.protocol\n"
        "from ..kernels import dispatch_batch\n"
    )
    serve = ("repro.serve",)
    assert imports_of(source, "repro.eval.engine", serve) == [
        (1, ""), (3, "f"), (4, "f"),
    ]
    assert imports_of("from .serve import session\n", "repro", serve, True) == [
        (1, ""),
    ]


def test_scan_exempts_only_the_protocol_module():
    source = (
        "def f():\n"
        "    from ..serve import protocol\n"
        "    from ..serve.protocol import FrameReader\n"
        "    from ..serve import session\n"
        "    from ..serve import protocol, session\n"
        "from ..kernels import dispatch_batch\n"
    )
    assert imports_of(
        source, "repro.obs.admin", OBS_FORBIDDEN, exempt=PROTOCOL,
    ) == [(4, "f"), (5, "f"), (6, "")]


def test_only_serving_layers_import_serve():
    offenders = _scan(
        ("repro.serve",),
        lambda module: not module.startswith(SERVING_PACKAGES),
        allowed=ALLOWED,
    )
    assert offenders == [], "repro.serve imported from: " + ", ".join(offenders)


def test_nothing_imports_the_retired_telemetry_package():
    assert not (SRC / "repro" / "telemetry").exists()
    offenders = _scan(("repro.telemetry",), lambda module: True)
    assert offenders == [], (
        "repro.telemetry imported from: " + ", ".join(offenders)
    )


def test_obs_imports_no_simulator_or_serving_layer():
    offenders = _scan(
        OBS_FORBIDDEN,
        lambda module: module.startswith("repro.obs"),
        exempt=PROTOCOL,
    )
    assert offenders == [], (
        "obs/ imports a simulator or serving module: " + ", ".join(offenders)
    )


def test_protocol_module_imports_nothing_from_repro():
    path = SRC / "repro" / "serve" / "protocol.py"
    source = path.read_text(encoding="utf-8")
    assert imports_of(source, PROTOCOL, ("repro",)) == []
