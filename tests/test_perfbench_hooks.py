"""The benchmark's tracer wraps library attributes by name; each must exist.

``perfbench/spans.py`` patches ``(owner, attr)`` pairs to record per-layer
spans.  A renamed or deleted attribute would otherwise only show up as a
missing metric in a traced run, so this test fails on it instead.  The
module is loaded from its file without writing bytecode next to it.  The
benchmark's determinism script runs here too, in a child process.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

from admshell import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPANS = PERFBENCH / "spans.py"


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


def test_span_attribute_functions_read_the_gl3_pipeline(gl3_case):
    # the attribute functions read library attributes by name too: a renamed
    # order.roots, order.capped or poset.full_elements fails here
    spans = load_spans()
    poset, order, lp = gl3_case
    args = (poset.datum, poset.mu, poset.K)
    assert spans._poset_counts(args, poset) == {
        "elements": 5, "full_elements": 7, "covers": 7}
    assert spans._order_counts((poset,), order) == {
        "relevant_roots": 21, "capped": 18}
    assert spans._dual_el_counts((lp,), lp.verify_dual_el()) == {
        "intervals_checked": 12}


def test_traced_check_full_records_the_gateway_spans(capsys):
    # cli.cmd_verify imports compute_sigma and top_two_layer_report when it
    # runs; a module-level import in cli would bind the functions the tracer
    # has not wrapped, and these spans would silently go missing
    spans = load_spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        code = cli.main(["verify", "--datum", "GL3", "--mu", "1,0,0",
                         "--K", "a1", "--check", "full"])
    finally:
        tracer.uninstall()
    assert code == 0 and '"top_two"' in capsys.readouterr().out
    names = {span[0] for span in tracer.spans}
    assert {"admissible.compute_sigma",
            "admissible.top_two_layer_report"} <= names


def test_determinism_script_passes():
    # CLI output must not depend on PYTHONHASHSEED, and the 24 matrix-sweep
    # jobs it runs must match their goldens
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, str(PERFBENCH / "determinism.py")],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "determinism: PASS" in proc.stdout
