import itertools
import re
from fractions import Fraction

import pytest

from admshell import (InputError, acute_presentations, adm_membership,
                      build_root_datum)
from admshell.affine import AffineElement
from admshell.exact import solve_linear
from admshell.rootdata import AffineRoot
from conftest import MATRIX, datum


CLASSICAL_COUNTS = {
    "A1": 1, "A2": 3, "A3": 6, "A4": 10,
    "B2": 4, "B3": 9, "C2": 4, "C3": 9,
    "D4": 12, "G2": 6, "GL2": 1, "GL3": 3, "GL4": 6,
    "A1xA1": 2, "A1xA2": 4,
}


@pytest.mark.parametrize("name,count", sorted(CLASSICAL_COUNTS.items()))
def test_positive_root_counts(name, count):
    assert datum(name).num_positive == count


@pytest.mark.parametrize("name", sorted(CLASSICAL_COUNTS))
def test_datum_invariants(name):
    d = datum(name)
    for i in range(d.nsimple):
        assert d.cartan[i][i] == 2
    # positive roots are nonnegative integer combinations of the simples
    for a in d.positive_roots:
        assert all(c >= 0 for c in d.simple_coords(a))
        assert not d.is_root(tuple(2 * x for x in a))
        assert d.root_sign(tuple(-x for x in a)) == -1
    assert d.two_rho == tuple(sum(a[i] for a in d.positive_roots)
                              for i in range(d.rank))
    for av in d.simple_coroots:
        assert d.pairing(av, d.two_rho) == 2
    for comp, theta, _ in d.components:
        for a in d.positive_roots:
            if d.root_support(a) <= set(comp):
                diff = tuple(x - y for x, y in zip(theta, a))
                coords = d.simple_coords(theta)
                assert all(
                    p - q >= 0 for p, q in zip(coords, d.simple_coords(a)))


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "B2", "B3", "C3", "G2"])
def test_reflection_closure(name):
    d = datum(name)
    W = d.weyl_group()
    for i, alpha in enumerate(d.simple_roots):
        others = set(d.positive_roots) - {alpha}
        image = {W.simple(i).apply_weight(a) for a in others}
        assert image == others


def test_a1_simply_connected():
    d = datum("A1")
    assert d.positive_roots == ((2,),)
    assert d.two_rho == (2,)
    assert d.components[0][1] == (2,)


def test_gl3_roots_match_standard_coordinates():
    d = datum("GL3")
    assert set(d.positive_roots) == {(1, -1, 0), (1, 0, -1), (0, 1, -1)}
    assert d.simple_roots == ((1, -1, 0), (0, 1, -1))


def test_a2_pairings():
    d = datum("A2")
    assert d.num_positive == 3
    # 2rho = 2a1 + 2a2 and theta^vee = a1^vee + a2^vee, so the pairing is 4
    theta_coroot = d.components[0][2]
    manual = tuple(x + y for x, y in zip(*d.simple_coroots))
    assert theta_coroot == manual
    assert d.pairing(theta_coroot, d.two_rho) == 4
    assert d.pairing(d.simple_coroots[0], d.simple_roots[1]) == -1


def test_gl3_pairing_examples():
    d = datum("GL3")
    a1 = d.simple_roots[0]
    assert d.pairing((1, 0, 0), a1) == 1
    assert d.pairing((0, 1, 0), a1) == -1
    with pytest.raises(InputError):
        d.pairing((1, 0), a1)


def test_simple_affine_roots():
    d1 = datum("A1")
    a = d1.simple_roots[0]
    assert d1.simple_affine_roots() == (AffineRoot(a, 0),
                                        AffineRoot(tuple(-x for x in a), 1))
    d3 = datum("GL3")
    assert d3.simple_affine_roots()[2] == AffineRoot((-1, 0, -1 + 2), 1) \
        or d3.simple_affine_roots()[2] == AffineRoot((-1, 0, 1), 1)
    assert d3.simple_affine_roots()[2].root == (-1, 0, 1)
    assert len(datum("A1xA1").simple_affine_roots()) == 4


def test_affine_positivity_predicate():
    d = datum("A2")
    a1 = d.simple_roots[0]
    na1 = tuple(-x for x in a1)
    assert d.is_positive_affine(AffineRoot(a1, 0))
    assert not d.is_positive_affine(AffineRoot(a1, -1))
    assert d.is_positive_affine(AffineRoot(na1, 1))
    assert not d.is_positive_affine(AffineRoot(na1, 0))


def test_bad_data_rejected():
    with pytest.raises(InputError):
        build_root_datum({"simple_roots": [[1, 0]], "simple_coroots": [[1, 0]]})
    with pytest.raises(InputError):
        build_root_datum("E9")
    with pytest.raises(InputError):
        build_root_datum({"simple_roots": [[2]], "simple_coroots": [[1], [1]]})


def test_finite_type_check_rank_two():
    # every rank-2 Cartan matrix with off-diagonal entries -a, -b in -4..0;
    # exhaustive, so a wrong check fails here instead of hanging the suite
    for a in range(5):
        for b in range(5):
            spec = {"simple_roots": [[2, -a], [-b, 2]],
                    "simple_coroots": [[1, 0], [0, 1]]}
            if a * b <= 3 and (a == 0) == (b == 0):
                assert build_root_datum(spec).nsimple == 2
            else:
                with pytest.raises(InputError, match="not of finite type"):
                    build_root_datum(spec)


def test_explicit_datum_roundtrip():
    d = build_root_datum({"simple_roots": [[2]], "simple_coroots": [[1]],
                          "name": "A1-explicit"})
    assert d.num_positive == 1


def test_adjoint_variant():
    d = build_root_datum("B2-adjoint")
    assert d.num_positive == 4
    for av in d.simple_coroots:
        assert d.pairing(av, d.two_rho) == 2


def neg(v):
    return tuple(-x for x in v)


@pytest.mark.parametrize("name", sorted(MATRIX) + ["B3", "C3", "D4-adjoint",
                                                   "A4", "GL4"])
def test_root_coords_rebuild_the_roots(name):
    # the integer coordinates carried through root generation are the
    # coordinates in the simple roots; positive roots have no negative one
    d = datum(name)
    assert len(d.root_coords) == len(d.roots) == 2 * d.num_positive
    for i, (root, coords) in enumerate(zip(d.roots, d.root_coords)):
        assert all(type(c) is int for c in coords)
        assert tuple(sum(c * a[k] for c, a in zip(coords, d.simple_roots))
                     for k in range(d.rank)) == root
        assert (min(coords) >= 0) == (i < d.num_positive)


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "GL3", "A1xA1", "B3", "D4"])
def test_pair_table_rows_follow_the_root_list(name):
    # rows name gamma by its index in the root list, in increasing order,
    # and satisfy sn*r1 + tn*r2 == den*gamma with positive sn, tn, den
    d = datum(name)
    for i1, i2 in itertools.product(range(len(d.roots)), repeat=2):
        r1, r2 = d.roots[i1], d.roots[i2]
        if r1 in (r2, neg(r2)):
            continue
        rows = d.root_pair_table(i1, i2)
        idx = [g for g, _, _, _ in rows]
        assert idx == sorted(set(idx))
        for g, sn, tn, den in rows:
            assert min(sn, tn, den) > 0
            assert tuple(sn * a + tn * b for a, b in zip(r1, r2)) == \
                tuple(den * c for c in d.roots[g])


# The coweight routes before RootDatum.coroot_coords used the inverse Cartan
# matrix: one exact solve in the simple coroots, then an integrality (and, for
# the cone, a sign) test.
def reference_integer_coords(cols, target):
    x = solve_linear(cols, target)
    if x is None or any(v.denominator != 1 for v in x):
        return None
    return tuple(int(v) for v in x)


def reference_nonneg_integer_coords(cols, target):
    x = reference_integer_coords(cols, target)
    return None if x is None or any(v < 0 for v in x) else x


def reference_format_coweight(d, vec):
    coords = solve_linear(d.simple_coroots, vec)
    if coords is None or any(c.denominator != 1 for c in coords):
        return "(" + ",".join(str(c) for c in vec) + ")"
    parts = []
    for i, c in enumerate(coords):
        if c == 0:
            continue
        mag = f"a{i + 1}^" if abs(c) == 1 else f"{abs(c)}a{i + 1}^"
        parts.append(("-" if c < 0 else ("+" if parts else "")) + mag)
    return "".join(parts) if parts else "0"


# Vectors in [-3, 3]^rank that lie in the span of the simple coroots but off
# their lattice, and vectors off the span (the GL centre directions).
OFF_LATTICE_OFF_SPAN = {"GL3": (0, 306), "D4-adjoint": (1764, 0)}


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "GL3", "A1xA1", "B3",
                                  "D4-adjoint"])
def test_coroot_coords_match_the_solve_route(name):
    d = build_root_datum(name)
    off_lattice = off_span = 0
    for vec in itertools.product(range(-3, 4), repeat=d.rank):
        coords = d.coroot_coords(vec)
        assert coords == reference_integer_coords(d.simple_coroots, vec)
        x = solve_linear(d.simple_coroots, vec)
        off_span += x is None
        off_lattice += x is not None and coords is None
        if coords is not None:
            assert all(type(c) is int for c in coords)
            assert tuple(sum(c * av[k] for c, av in zip(coords,
                                                        d.simple_coroots))
                         for k in range(d.rank)) == vec
        in_cone = reference_nonneg_integer_coords(d.simple_coroots, vec)
        # the second query is answered by the memo
        assert d.in_coroot_cone(vec) == d.in_coroot_cone(vec) == \
            (in_cone is not None)
        assert d.format_coweight(vec) == reference_format_coweight(d, vec)
    assert (off_lattice, off_span) == OFF_LATTICE_OFF_SPAN.get(name, (0, 0))


def test_wrong_length_coweights_are_input_errors():
    gl3 = datum("GL3")
    for vec in [(1,), (1, 0, 0, 0)]:
        with pytest.raises(InputError, match="3 coordinates"):
            gl3.coroot_coords(vec)
        with pytest.raises(InputError, match="3 coordinates"):
            gl3.in_coroot_cone(vec)
    pres = acute_presentations(AffineElement.translation_of(gl3, (1, 0, 0)))[0]
    assert adm_membership(pres, (1, 0, 0))
    with pytest.raises(InputError):
        adm_membership(pres, (2,))
    with pytest.raises(InputError, match="2 coordinates"):
        datum("A2").format_coweight((1,))


@pytest.mark.parametrize("level", [0.5, Fraction(1, 2), "0", 0.0, Fraction(0)])
def test_non_integer_affine_root_level_is_an_input_error(level):
    # 0.5 used to be truncated, so AffineRoot(a, 0.5) == AffineRoot(a, 0)
    a = datum("A2").simple_roots[0]
    assert AffineRoot(a, 0).level == 0
    with pytest.raises(InputError, match="level must be an integer"):
        AffineRoot(a, level)


@pytest.mark.parametrize("name", sorted(MATRIX) + ["A4", "D4-adjoint", "B3",
                                                   "A1xA1xA1", "A1xGL2"])
def test_affine_tokens_round_trip(name):
    d = build_root_datum(name)
    simples = d.simple_affine_roots()
    tokens = [d.affine_token(ar) for ar in simples]
    assert len(set(tokens)) == len(simples)
    for ar, tok in zip(simples, tokens):
        assert d.parse_affine_token(tok) == ar
        assert d.parse_affine_token(f" {tok} ") == ar
    if len(d.components) == 1:
        assert tokens[-1] == "a0"
    else:
        assert tokens[d.nsimple:] == [f"a0.{c + 1}"
                                      for c in range(len(d.components))]


@pytest.mark.parametrize("name, token", [
    # accepted by the former integer-reading parser, now not printed forms
    ("A2", "a0.1"), ("A2", "a+1"), ("A2", "a 1"), ("A2", "a01"),
    ("A2", "a0.01"), ("A1xA1", "a0.01"), ("A1xA1", "a0.+1"),
    # never accepted
    ("A2", "a3"), ("A2", "a-1"), ("A2", "b1"), ("A2", ""), ("A1xA1", "a0.3"),
    ("A1xA1", "a0.0"),
])
def test_affine_tokens_outside_the_printed_set_are_rejected(name, token):
    d = build_root_datum(name)
    with pytest.raises(InputError, match=re.escape(
            f"bad affine-root token {token.strip()!r}")):
        d.parse_affine_token(token)


def test_a0_is_ambiguous_for_products():
    d = build_root_datum("A1xA1")
    with pytest.raises(InputError, match="a0 is ambiguous for products"):
        d.parse_affine_token(" a0 ")


@pytest.mark.parametrize("spec", ["x", "A1x", "xA1", "A1xx", "A1xFoo",
                                  " A1xx "])
def test_bad_product_factor_names_the_whole_spec(spec):
    with pytest.raises(InputError, match=re.escape(f"unknown preset {spec!r}")):
        build_root_datum(spec)
