"""Source hygiene: every module-level private name in the package is used."""

import ast
import re
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
