"""The benchmark's per-layer spans patch bmcut module attributes by name.

perfbench/tests is not part of this suite, so this test keeps a rename or a
deletion of a patched function from passing here and failing only when the
benchmark runs.
"""

import sys
from pathlib import Path

import bmcut

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import bench  # noqa: E402


def test_trace_targets_resolve_to_callables():
    targets = bench.trace_targets(bmcut)
    assert targets
    for module, attr, span, _info in targets:
        assert callable(getattr(module, attr, None)), \
            f"{module.__name__}.{attr} (span {span}) is gone"
