"""Where the package may build Fractions.

Root quantities are integers read from the datum's root table; a Fraction is
built only where a value is truly rational.
"""

import ast
import pathlib

import admshell

PACKAGE = pathlib.Path(admshell.__file__).parent
# module -> the one function in it that may name Fraction
FRACTION_HOMES = {"exact.py": "solve_linear"}


def imports_fractions(node):
    if isinstance(node, ast.ImportFrom):
        return node.module == "fractions"
    return isinstance(node, ast.Import) and any(
        a.name == "fractions" for a in node.names)


def names_fraction(node):
    return (isinstance(node, ast.Name) and node.id == "Fraction"
            or isinstance(node, ast.Attribute) and node.attr == "Fraction")


def test_fraction_only_in_its_homes():
    modules = sorted(PACKAGE.glob("*.py"))
    assert {p.name for p in modules} >= set(FRACTION_HOMES)
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        home = FRACTION_HOMES.get(path.name)
        if home is None:
            assert not any(imports_fractions(n) for n in ast.walk(tree)), \
                f"{path.name} imports fractions"
            continue
        inside = {id(n) for f in ast.walk(tree)
                  if isinstance(f, ast.FunctionDef) and f.name == home
                  for n in ast.walk(f)}
        uses = [n for n in ast.walk(tree) if names_fraction(n)]
        assert uses, f"{path.name} no longer names Fraction; update the homes"
        stray = [n.lineno for n in uses if id(n) not in inside]
        assert not stray, f"{path.name} names Fraction outside {home}: {stray}"
