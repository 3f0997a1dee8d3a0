"""Source hygiene: every module-level private name in the package is used,
every exported name is bound and declared once, next to its definition, an
exported name the package never reads is named in a code span of README's
"Library use", and the package imports nothing outside the standard library."""

import ast
import re
import sys
from pathlib import Path

import faircheck

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


def test_every_exported_name_is_bound_and_listed_once():
    # a deleted function must not linger in the export list
    names = faircheck.__all__
    assert [n for n in names if not hasattr(faircheck, n)] == []
    assert len(names) == len(set(names))


MODULES = ("automata", "pltl", "relprops", "abstraction", "synthesis", "formats")


def _top_level_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names |= {t.id for t in node.targets if isinstance(t, ast.Name)}
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def test_each_public_name_is_declared_next_to_its_definition():
    # a module's __all__ names only what the module itself defines, and the
    # package exports exactly the six lists
    exported = []
    for module in MODULES:
        tree = ast.parse((SRC / f"{module}.py").read_text())
        listed = getattr(faircheck, module).__all__
        assert sorted(set(listed) - _top_level_names(tree)) == [], module
        exported += listed
    assert sorted(faircheck.__all__) == sorted(exported)


def test_only_the_automata_kernel_shares_private_names():
    # a private helper that another layer needs belongs in the kernel
    borrowed = [
        f"{path.name}: {node.module}.{alias.name}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").startswith("faircheck."))
        and (node.module or "").rpartition(".")[2] != "automata"
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert borrowed == []


def _unread_and_unnamed(sources: list[str], public: list[str], library_use: str) -> list[str]:
    # the public names that no source reads and the README section does not name
    read = set()
    for text in sources:
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    # a name counts as named only in a code span, `name` or `name(...)`, not in prose
    return [n for n in public if n not in read and not re.search(rf"`{n}[`(]", library_use)]


def test_each_public_name_no_module_reads_is_named_in_library_use():
    # a public function the package never calls is public for its own sake,
    # and README's "Library use" says why; one nothing reads or names is dead
    sources = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    readme = (SRC.parent.parent / "README.md").read_text()
    library_use = readme.split("## Library use", 1)[1].split("\n## ", 1)[0]
    assert _unread_and_unnamed(sources, faircheck.__all__, library_use) == []
    planted = "def planted_public(x):\n    return x\n"
    public = faircheck.__all__ + ["planted_public"]
    assert _unread_and_unnamed(sources + [planted], public, library_use) == ["planted_public"]
    prose = library_use + "\nThe word planted_public here is prose, not a code span.\n"
    assert _unread_and_unnamed(sources + [planted], public, prose) == ["planted_public"]
