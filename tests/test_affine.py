import re

import pytest

import admshell.affine
from admshell import (AffineElement, InputError, PropertyViolation,
                      acute_presentations, acute_presentation_K, affine_word,
                      bruhat_leq, bruhat_leq_via_wt, covers_down, inversions,
                      length_zero_rep, simple_reflection)
from admshell.affine import AcutePresentation, affine_reflection
from admshell.admissible import build_admissible
from admshell.cli import _parse_K, _parse_mu
from admshell.rootdata import AffineRoot, build_root_datum
from conftest import (MATRIX, affine_ball, datum, dominant_mus,
                      spherical_subsets)


def neg(v):
    return tuple(-x for x in v)


def aff(d, vec, *word):
    W = d.weyl_group()
    w = W.identity
    for i in word:
        w = w * W.simple(i)
    return AffineElement(d, vec, w)


def test_action_examples():
    d = datum("A1")
    a = d.simple_roots[0]
    t = AffineElement.translation_of(d, d.simple_coroots[0])
    assert t.act(AffineRoot(a, 0)) == AffineRoot(a, -2)
    ident = AffineElement.identity(d)
    for k in range(-2, 3):
        assert ident.act(AffineRoot(a, k)) == AffineRoot(a, k)


def test_gl3_length_zero_element_preserves_positives():
    d = datum("GL3")
    tau = length_zero_rep(AffineElement.translation_of(d, (1, 0, 0)))
    assert tau.length == 0
    assert tau == aff(d, (1, 0, 0), 0, 1)
    for ar in d.simple_affine_roots():
        assert d.is_positive_affine(tau.act(ar))


def test_lengths():
    d = datum("GL3")
    assert AffineElement.translation_of(d, (0, 1, 0)).length == 2
    assert AffineElement.identity(d).length == 0
    d1 = datum("A1")
    assert AffineElement.translation_of(d1, d1.simple_coroots[0]).length == 2


def test_length_equals_inversion_count():
    elems, _ = affine_ball("A2", 5)
    for w in elems:
        assert len(inversions(w)) == w.length


def test_simple_reflections():
    d = datum("GL3")
    s0 = simple_reflection(d, AffineRoot((-1, 0, 1), 1))
    manual = aff(d, (1, 0, -1), 0, 1, 0)
    assert s0 == manual and s0.length == 1
    d1 = datum("A1")
    a = d1.simple_roots[0]
    s = simple_reflection(d1, AffineRoot(a, 0))
    assert s.translation == (0,) and s.finite == d1.weyl_group().simple(0)
    s_neg = simple_reflection(d1, AffineRoot(neg(a), 1))
    expect = AffineElement.translation_of(d1, d1.simple_coroots[0]) * \
        AffineElement.from_finite(d1.weyl_group().simple(0))
    assert s_neg == expect and s_neg.length == 1
    assert (s_neg * s_neg).length == 0
    with pytest.raises(InputError):
        simple_reflection(d1, AffineRoot(a, 1))


def reference_reflection_root(datum, w):
    """The positive affine root whose reflection is w, or None."""
    d = datum
    z = w.finite
    W = d.weyl_group()
    for r, a in enumerate(d.positive_roots):
        if z.perm[r] >= d.num_positive and z == W.reflection(a):
            coroot = d.coroot(a)
            ks = {-w.translation[i] // coroot[i]
                  for i in range(d.rank) if coroot[i] != 0}
            if len(ks) != 1:
                return None
            k = ks.pop()
            if tuple(-k * c for c in coroot) != w.translation:
                return None
            ar = AffineRoot(a, k)
            return ar if d.is_positive_affine(ar) else -ar
    return None


def test_reflection_root_recovers_label():
    d = datum("A2")
    for ar in [AffineRoot(d.simple_roots[0], 0),
               AffineRoot(neg(d.components[0][1]), 2)]:
        assert reference_reflection_root(d, affine_reflection(d, ar)) == ar


def test_covers_down_gl3_figure():
    d = datum("GL3")
    t010 = AffineElement.translation_of(d, (0, 1, 0))
    got = {(u.name(), d.format_affine(ar)) for u, ar in covers_down(t010)}
    assert got == {("t[1,0,0] s1", "(-a1,1)"), ("t[0,1,0] s2", "(a2,0)")}
    tau = length_zero_rep(t010)
    assert covers_down(tau) == []


def reference_covers_down(w):
    """covers_down by the affine product w * s_ar, as before the lookups."""
    lw = w.length
    out = [(w * affine_reflection(w.datum, ar), ar) for ar in inversions(w)]
    out = [(u, ar) for u, ar in out if u.length == lw - 1]
    out.sort(key=lambda p: (p[0].translation, p[0].finite.word))
    return out


@pytest.mark.parametrize("name, mu, basis", [
    ("GL4", "2,1,0,0", "ambient"), ("D4-adjoint", "1,0,0,0", "fw"),
    ("G2", "1,1", "fw"), ("A1xA1", "1,1", "coroot"),
    ("A3-adjoint", "1,1,1", "fw")])
def test_covers_down_matches_the_affine_product(name, mu, basis):
    d = build_root_datum(name)
    poset = build_admissible(d, _parse_mu(d, mu, basis), ())
    pooled = [[] for _ in poset.elements]
    for up, lo, ar in poset.covers:
        if up != poset.top:
            pooled[up].append((poset.elements[lo], ar))
    covers = 0
    for w, from_poset in zip(poset.elements, pooled):
        got = covers_down(w)
        want = reference_covers_down(AffineElement(d, w.translation, w.finite))
        assert got == want and from_poset == want
        covers += len(got)
    assert covers > len(poset.elements)


def test_pooled_descent_measures_each_element_once(monkeypatch):
    d = build_root_datum("A3-adjoint")
    mu = _parse_mu(d, "1,1,1", "fw")
    measured = []
    length = AffineElement.length.fget

    def counted(w):
        if w._len is None:
            measured.append(w)
        return length(w)

    monkeypatch.setattr(AffineElement, "length", property(counted))
    poset = build_admissible(d, mu, ())
    assert len(measured) == len(poset.full_elements) == 473
    pool = {(w.translation, w.finite): w for w in poset.full_elements}
    for w in poset.full_elements:
        assert hash(w) == hash((w.translation, w.finite))
        for u, _ in covers_down(w, pool):
            assert u is pool[u.translation, u.finite]
    # every candidate lies below its element, so the pool never grows
    assert len(pool) == 473 and len(measured) == 473


def test_covers_down_a1_against_bruteforce():
    d = datum("A1")
    a = d.simple_roots[0]
    t_neg = AffineElement.translation_of(d, neg(d.simple_coroots[0]))
    # oracle: try every positive affine root of level <= 2
    expected = set()
    for vec in (a, neg(a)):
        for k in range(0, 3):
            ar = AffineRoot(vec, k)
            if not d.is_positive_affine(ar):
                continue
            u = t_neg * affine_reflection(d, ar)
            if u.length == t_neg.length - 1:
                expected.add((u, ar))
    assert set((u, ar) for u, ar in covers_down(t_neg)) == expected
    s0 = simple_reflection(d, AffineRoot(neg(a), 1))
    s1 = AffineElement.from_finite(d.weyl_group().simple(0))
    assert {u for u, _ in expected} == {s0, s1}
    assert dict((u, ar) for u, ar in expected)[s0] == AffineRoot(neg(a), 2)


def test_bruhat_leq_examples():
    d = datum("GL3")
    tau = length_zero_rep(AffineElement.translation_of(d, (1, 0, 0)))
    s2 = AffineElement.from_finite(d.weyl_group().simple(1))
    t010 = AffineElement.translation_of(d, (0, 1, 0))
    t001 = AffineElement.translation_of(d, (0, 0, 1))
    assert bruhat_leq(tau * s2, tau * s2)
    assert bruhat_leq(tau * s2, t010)
    assert not bruhat_leq(tau * s2, t001)
    d1 = datum("A1")
    s0 = simple_reflection(d1, AffineRoot(neg(d1.simple_roots[0]), 1))
    t = AffineElement.translation_of(d1, d1.simple_coroots[0])
    assert bruhat_leq(s0, t)


def test_ascent_descent_rule():
    # length changes by one under a simple reflection, up iff the root stays positive
    for name, radius in [("A1", 6), ("A2", 5)]:
        d = datum(name)
        elems, _ = affine_ball(name, radius)
        for w in elems:
            for ar in d.simple_affine_roots():
                up = d.is_positive_affine(w.act(ar))
                t = w * affine_reflection(d, ar)
                assert t.length == w.length + (1 if up else -1)


def test_min_rep_examples():
    d = datum("GL3")
    K = (AffineRoot(d.simple_roots[0], 0),)
    t100 = AffineElement.translation_of(d, (1, 0, 0))
    t010 = AffineElement.translation_of(d, (0, 1, 0))
    assert not t100.is_min_rep(K)
    assert t010.is_min_rep(K)
    assert t100.is_min_rep(())
    d1 = datum("A1")
    W1 = d1.weyl_group()
    K1 = (AffineRoot(d1.simple_roots[0], 0),)
    s1 = AffineElement.from_finite(W1.simple(0))
    s0 = simple_reflection(d1, AffineRoot(neg(d1.simple_roots[0]), 1))
    assert not s1.is_min_rep(K1)
    assert s0.is_min_rep(K1)


def test_length_zero_rep():
    d = datum("GL3")
    tau = length_zero_rep(AffineElement.translation_of(d, (1, 0, 0)))
    assert tau == aff(d, (1, 0, 0), 0, 1)
    d2 = datum("A2")
    t = AffineElement.translation_of(d2, d2.simple_coroots[0])
    assert length_zero_rep(t) == AffineElement.identity(d2)
    dg = datum("GL2")
    shift = length_zero_rep(AffineElement.translation_of(dg, (1, 0)))
    assert shift.length == 0
    assert shift == AffineElement(dg, (1, 0), dg.weyl_group().simple(0))
    assert (shift * shift).translation == (1, 1)


def test_affine_word_reconstructs():
    d = datum("A2")
    elems, _ = affine_ball("A2", 4)
    refls = [simple_reflection(d, ar) for ar in d.simple_affine_roots()]
    for w in elems:
        tau, letters = affine_word(w)
        rebuilt = tau
        for i in letters:
            rebuilt = rebuilt * refls[i]
        assert rebuilt == w and len(letters) == w.length


def test_acute_presentation_counts_for_translations():
    # presentations of t^{z(lam)} are indexed by the stabilizer of lam
    d = datum("GL3")
    pres = acute_presentations(AffineElement.translation_of(d, (0, 1, 0)))
    assert len(pres) == 2
    assert {p.y for p in pres} == {p.x.inverse() for p in pres}
    d2 = datum("A2")
    theta_v = d2.components[0][2]
    # theta-vee is regular in A2, so its translation has a unique presentation
    pres2 = acute_presentations(AffineElement.translation_of(d2, theta_v))
    assert len(pres2) == 1
    # a coweight with one wall-stabilizer gives |W_J| = 2, for every orbit point
    lam = tuple(2 * x + y for x, y in zip(*d2.simple_coroots))
    assert d2.pairing(lam, d2.simple_roots[1]) == 0
    W2 = d2.weyl_group()
    for z in W2:
        t = AffineElement.translation_of(d2, z.apply_coweight(lam))
        assert len(acute_presentations(t)) == 2


def test_dominant_translation_standard_presentation():
    d = datum("A2")
    mu = tuple(x + y for x, y in zip(*d.simple_coroots))
    W = d.weyl_group()
    p = AcutePresentation(W.identity, mu, W.identity)
    assert p.is_acute()


def factorizations(w):
    """Oracle: every factorization w = x t^lam y, one per y in W_0, sorted by
    (length, word) of y.

    w y^-1 = t^{w.translation} x with x = w.finite y^-1, and
    t^nu x = x t^{x^-1 nu}, so lam = x^-1 (w.translation).
    """
    out = []
    for y in w.datum.weyl_group():
        x = w.finite * y.inverse()
        lam = x.inverse().apply_coweight(w.translation)
        out.append(AcutePresentation(x, lam, y))
    out.sort(key=lambda p: (p.y.length, p.y.word))
    return out


def test_length_formula_tight_iff_acute():
    elems, _ = affine_ball("A2", 4)
    for w in elems:
        for p in factorizations(w):
            assert w.length >= p.length_value()
            assert (w.length == p.length_value()) == p.is_acute()
            assert p.element() == w


def test_acute_presentation_K():
    d = datum("GL3")
    K = (AffineRoot(d.simple_roots[0], 0),)
    tau = length_zero_rep(AffineElement.translation_of(d, (1, 0, 0)))
    p = acute_presentation_K(tau, K)
    assert d.root_sign(p.y.apply_weight(d.simple_roots[0])) < 0
    # and then the reflected translation is again a minimal representative
    t = AffineElement.translation_of(d, p.y.inverse().apply_coweight(p.lam))
    assert t.is_min_rep(K)
    d1 = datum("A1")
    K1 = (AffineRoot(d1.simple_roots[0], 0),)
    s0 = simple_reflection(d1, AffineRoot(neg(d1.simple_roots[0]), 1))
    p1 = acute_presentation_K(s0, K1)
    assert p1.y == d1.weyl_group().simple(0)
    s1 = AffineElement.from_finite(d1.weyl_group().simple(0))
    with pytest.raises(InputError):
        acute_presentation_K(s1, K1)


def test_wt_criterion_matches_cover_order():
    elems, leq = affine_ball("A2", 5)
    for w2 in elems:
        for w1 in elems:
            if w1.length > w2.length:
                continue
            pres = acute_presentations(w1)[0]
            assert bruhat_leq_via_wt(pres, w2) == leq(w1, w2)


def as_triple(p):
    return p.x, p.lam, p.y


def oracle_acute(w):
    """The acute factorizations, told by the tight length formula."""
    return [p for p in factorizations(w) if p.length_value() == w.length]


def check_scan_against_the_oracle(poset):
    d, K = poset.datum, poset.K
    for w in poset.elements:
        acute = oracle_acute(w)
        assert list(map(as_triple, acute_presentations(w))) == \
            list(map(as_triple, acute))
        compatible = [p for p in acute
                      if all(d.root_sign(p.y.apply_weight(ar.root)) < 0
                             for ar in K)]
        assert as_triple(acute_presentation_K(w, K)) == as_triple(compatible[0])


@pytest.mark.parametrize("name", ["GL3", "B2", "G2"])
def test_acute_scan_matches_the_oracle_on_the_matrix(name):
    d = datum(name)
    for mu in dominant_mus(name, *MATRIX[name]):
        for K in spherical_subsets(d):
            check_scan_against_the_oracle(build_admissible(d, mu, K))


@pytest.mark.parametrize("name, mu, basis, K", [
    ("A4", "1,1,1,1", "coroot", "a1,a2,a3,a4"),
    ("D4-adjoint", "1,0,0,0", "fw", "a1,a3,a4")])
def test_acute_scan_matches_the_oracle_on_parahoric_rows(name, mu, basis, K):
    d = build_root_datum(name)
    poset = build_admissible(d, _parse_mu(d, mu, basis), _parse_K(d, K))
    assert len(poset.K) == len(K.split(","))
    check_scan_against_the_oracle(poset)


def test_acute_presentation_K_builds_one_presentation(monkeypatch):
    d = build_root_datum("D4-adjoint")
    poset = build_admissible(d, _parse_mu(d, "1,0,0,0", "fw"),
                             _parse_K(d, "a1,a3,a4"))
    built = []

    class Counted(AcutePresentation):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(admshell.affine, "AcutePresentation", Counted)
    for w in poset.elements:
        before = len(built)
        acute_presentation_K(w, poset.K)
        assert len(built) == before + 1
    assert len(built) == len(poset.elements)


def test_acute_presentation_K_failure_names_the_element(monkeypatch):
    d = datum("GL3")
    K = (AffineRoot(d.simple_roots[0], 0),)
    tau = length_zero_rep(AffineElement.translation_of(d, (1, 0, 0)))
    monkeypatch.setattr(admshell.affine, "_acute_pairs",
                        lambda w, cols=(): iter(()))
    with pytest.raises(PropertyViolation, match=re.escape(tau.name())):
        acute_presentation_K(tau, K)
