"""Source hygiene: every module-level private name in the package is used, and
the package imports nothing outside the standard library."""

import ast
import re
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "faircheck"


def _private_definitions(path: Path):
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from (n for n in names if n.startswith("_") and not n.startswith("__"))


def test_every_private_helper_is_used():
    # a private helper named only at its definition is dead code, typically
    # left behind when two helpers are merged
    paths = sorted(SRC.glob("*.py"))
    source = "\n".join(p.read_text() for p in paths)
    unused = [
        f"{path.name}: {name}"
        for path in paths
        for name in _private_definitions(path)
        if len(re.findall(rf"\b{re.escape(name)}\b", source)) < 2
    ]
    assert unused == []


def test_package_imports_only_the_standard_library():
    # the package runs on a bare interpreter: no third-party import anywhere
    allowed = set(sys.stdlib_module_names) | {"__future__", "faircheck"}
    foreign = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # relative imports stay inside the package
            foreign += [
                f"{path.name}: {name}" for name in names if name.split(".")[0] not in allowed
            ]
    assert foreign == []
