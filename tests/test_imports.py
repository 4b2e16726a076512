"""No unused imports in the library, checked on its syntax trees.

Every name that an ``admshell`` module binds by ``import`` must be read
somewhere in that module or be listed in its ``__all__`` (the package
re-exports its API that way).  Imports sit at module level, but for one
inside ``cli.cmd_verify`` whose comment gives its reason.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "admshell"


def unused_imports(source):
    """Names bound by an import statement of ``source`` and never used."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used and name not in exported)


def test_the_check_finds_an_unused_import():
    source = ("from .affine import affine_word, reflection_root\n"
              "import json, sys as system\n"
              "__all__ = ['system']\n"
              "print(affine_word)\n")
    assert unused_imports(source) == [(1, "reflection_root"), (2, "json")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def function_imports(source):
    """(function, line) of each import statement inside a function."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found += [(fn.name, node.lineno) for node in ast.walk(fn)
                      if isinstance(node, (ast.Import, ast.ImportFrom))]
    return found


def test_the_check_finds_an_import_in_a_function():
    source = ("import json\n"
              "def f():\n"
              "    from .weyl import WeylGroup\n"
              "    return WeylGroup\n")
    assert function_imports(source) == [("f", 3)]


def test_imports_sit_at_module_level():
    found = {path.name: [fn for fn, _ in function_imports(path.read_text())]
             for path in SRC.glob("*.py")}
    assert {name: fns for name, fns in found.items() if fns} == {
        "cli.py": ["cmd_verify"]}


PUBLIC_API = [
    "AcutePresentation", "AdmissiblePoset", "AffineElement", "AffineRoot",
    "InputError", "LabelOrder", "LabeledPoset", "PropertyViolation",
    "QuantumBruhatGraph", "RootDatum", "WeylElement", "WeylGroup",
    "acute_presentation_K", "acute_presentations", "adm_membership",
    "affine_reflection", "affine_word", "bruhat_leq", "bruhat_leq_via_wt",
    "build_admissible", "build_label_order", "build_root_datum",
    "compute_sigma", "covers_down", "coxeter_subset", "inversions",
    "label_edges", "length_zero_rep", "make_classifier", "repair_step",
    "simple_reflection", "subsystem_positive", "top_two_layer_report",
]


def test_the_public_api_is_pinned():
    import admshell

    assert admshell.__all__ == PUBLIC_API
    for name in admshell.__all__:
        assert getattr(admshell, name, None) is not None, name
