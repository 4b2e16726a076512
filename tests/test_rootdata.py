import pytest

from admshell import InputError, build_root_datum
from admshell.rootdata import AffineRoot
from conftest import datum


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


def test_affine_root_arith_examples():
    d = datum("A2")
    a1, a2 = d.simple_roots
    theta = d.components[0][1]
    got = d.affine_root_arith(AffineRoot(a1, 0), 1, AffineRoot(a2, 0), 1)
    assert got == AffineRoot(theta, 0)
    neg = lambda v: tuple(-x for x in v)
    got = d.affine_root_arith(AffineRoot(a1, 0), 1, AffineRoot(neg(theta), 1), 1)
    assert got == AffineRoot(neg(a2), 1)
    d1 = datum("A1")
    a = d1.simple_roots[0]
    assert d1.affine_root_arith(AffineRoot(a, 0), 1,
                                AffineRoot(neg(a), 1), 1) is None


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "A3"])
def test_affine_root_arith_commutes_and_closes(name):
    d = datum(name)
    roots = [AffineRoot(a, k) for a in d._sign for k in range(4)
             if d.is_positive_affine(AffineRoot(a, k))]
    for x in roots:
        for y in roots:
            one = d.affine_root_arith(x, 1, y, 2)
            two = d.affine_root_arith(y, 2, x, 1)
            assert one == two
            if one is not None:
                assert d.is_positive_affine(one)


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
