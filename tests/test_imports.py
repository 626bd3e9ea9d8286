"""No bmcut module imports a name it never uses.

No lint tool runs in this suite, so this test stands in for one.  The only
names exempt are those the benchmark patches on a module (its per-layer
spans, from bench.trace_targets): they are imported there to be patched.
The package's __init__ is skipped, because its imports are the public API.
"""

import ast
import sys
from pathlib import Path

import bmcut

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

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
