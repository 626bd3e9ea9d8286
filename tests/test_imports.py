"""No bmcut module imports a name it never uses, and the package exports
no name that its callers never read.

No lint tool runs in this suite, so these tests stand in for one.  The only
names exempt are those the benchmark patches on a module (its per-layer
spans, from bench.trace_targets): they are imported there to be patched.
The package's __init__ is checked the other way: its imports are the public
API, and each must be read at the top level by a caller (the CLI, the
benchmark, a test or the README).
"""

import ast
import re
import sys
from pathlib import Path

import bmcut

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import bench  # noqa: E402

SRC = Path(bmcut.__file__).resolve().parent


def unused_imports(source: str) -> set[str]:
    """Names bound by an import statement and never read as a name."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_checker_finds_unused_names():
    source = ("from __future__ import annotations\nimport os\n"
              "import scipy.linalg\nfrom .bcm import SolveTrace, drive\n"
              "drive(scipy.linalg)\n")
    assert unused_imports(source) == {"os", "SolveTrace"}


def test_no_unused_imports():
    patched = {(module.__name__, attr)
               for module, attr, _span, _info in bench.trace_targets(bmcut)}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        module = f"bmcut.{path.stem}"
        unused = sorted(name for name in unused_imports(path.read_text())
                        if (module, name) not in patched)
        assert not unused, f"{module} imports {unused} and never uses them"


def unread_exports(init_source: str, callers: list[str], readme: str) -> set[str]:
    """Names the package's __init__ imports that no caller reads from bmcut:
    as bmcut.<name> or by `from bmcut import` in Python, as bmcut.<name> in
    the README."""
    exported = {a.asname or a.name for node in ast.walk(ast.parse(init_source))
                if isinstance(node, ast.ImportFrom) for a in node.names}
    read = set(re.findall(r"\bbmcut\.(\w+)", readme))
    for source in callers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and node.module == "bmcut":
                read |= {a.name for a in node.names}
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name) and node.value.id == "bmcut"):
                read.add(node.attr)
    return exported - read


def test_checker_finds_unread_exports():
    init = "from .bcm import run, drive\nfrom .errors import ParseError\n"
    callers = ["import bmcut\nbmcut.run()\n", "from bmcut import bcm, errors\n"]
    assert unread_exports(init, callers, "call bmcut.ParseError") == {"drive"}
    assert unread_exports(init, callers, "") == {"drive", "ParseError"}


def test_every_export_is_read():
    callers = [SRC / "cli.py", *sorted((ROOT / "perfbench").rglob("*.py")),
               *sorted((ROOT / "tests").glob("*.py"))]
    unread = unread_exports((SRC / "__init__.py").read_text(),
                            [path.read_text() for path in callers],
                            (ROOT / "README.md").read_text(encoding="utf-8"))
    assert not unread, f"bmcut exports {sorted(unread)} and no caller reads them"
