"""Pytest plugin: list the ``src/faircheck`` lines a test run never executes.

Usage (from the repository root):

    PYTHONPATH=src:tests python -m pytest -q -p line_probe

Tracing starts when this module is imported, which ``-p`` does before any
test module or conftest imports ``faircheck``, so lines run at import time
count as run.  At the end of the session every line that the compiled
modules can execute (a line of some code object's line table) but that no
traced frame reached is printed as ``path:line: source``.  Only the pytest
process is traced: code run by a test's subprocess counts as never run.  The
probe is built on ``sys.settrace`` alone and writes nothing but its report.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "faircheck"

_hits: dict[str, set[int]] = {}  # real path of a package file -> lines run
_real: dict[str, str | None] = {}  # co_filename -> real path if in the package


def _package_path(filename: str) -> str | None:
    if filename not in _real:
        path = os.path.realpath(filename)
        _real[filename] = path if Path(path).parent == PACKAGE else None
    return _real[filename]


def _trace(frame, event, arg):
    # global hook, called on every new frame: trace lines only in the package
    path = _package_path(frame.f_code.co_filename)
    if path is None:
        return None
    lines = _hits.setdefault(path, set())
    lines.add(frame.f_lineno)

    def local(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return local

    return local


def _executable_lines(source: str, path: Path) -> set[int]:
    lines: set[int] = set()
    codes = [compile(source, str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def never_run() -> list[tuple[Path, int, str]]:
    """(file, line, source) of each executable package line not reached so far."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        text = source.splitlines()
        missed = _executable_lines(source, path) - _hits.get(str(path), set())
        out.extend((path, n, text[n - 1].strip()) for n in sorted(missed))
    return out


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    missed = never_run()
    terminalreporter.section(f"src/faircheck lines never run: {len(missed)}")
    for path, n, source in missed:
        terminalreporter.write_line(f"{path.relative_to(ROOT)}:{n}: {source}")


sys.settrace(_trace)
