"""The benchmark's tracer wraps library attributes by name; each must exist.

``perfbench/spans.py`` patches ``(owner, attr)`` pairs to record per-layer
spans.  A renamed or deleted attribute would otherwise only show up as a
missing metric in a traced run, so this test fails on it instead.  The
module is loaded from its file without writing bytecode next to it.
"""

import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_every_traced_entry_point_resolves_to_a_callable():
    spans = load_spans()
    hooks = [(owner, attr) for owner, attr, _, _ in spans.ENTRY_POINTS]
    hooks += [(owner, attr) for owner, attr, _, _ in spans.LEAVES]
    assert len(hooks) == len(spans.ENTRY_POINTS) + len(spans.LEAVES) > 0
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr in hooks
               if not callable(getattr(owner, attr, None))]
    assert missing == []
