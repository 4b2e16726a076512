import itertools

import pytest

from admshell import InputError, build_root_datum, weyl
from admshell.cli import main
from admshell.weyl import group_order
from admshell.rootdata import RootDatum
from conftest import EXPLICIT_DATA, datum
from weyl_reference import MatrixWeylGroup


ORDERS = {"A1": 2, "A2": 6, "A3": 24, "B2": 8, "G2": 12, "GL3": 6, "A1xA1": 4}


@pytest.mark.parametrize("name,order", sorted(ORDERS.items()))
def test_group_orders(name, order):
    assert len(datum(name).weyl_group()) == order


# every datum whose Weyl group the tests build
TESTED_DATA = ["A1", "A2", "A3", "A4", "B2", "B3", "C2", "C3", "D4", "G2",
               "GL2", "GL3", "GL4", "A1xA1", "A3-adjoint", "B2-adjoint",
               "B3-adjoint", "C3-adjoint", "D4-adjoint", "B4-adjoint", "F4",
               "E6"]


@pytest.mark.parametrize("name", TESTED_DATA)
def test_group_order_formula_matches_the_generated_group(name):
    d = datum(name)
    assert group_order(d) == len(d.weyl_group())


def _simply_laced(n, edges):
    """Explicit datum with simple roots e_i and a symmetric Cartan matrix."""
    cartan = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in edges:
        cartan[i][j] = cartan[j][i] = -1
    units = [[int(i == j) for j in range(n)] for i in range(n)]
    return build_root_datum({"simple_roots": units, "simple_coroots": cartan})


# Bourbaki labels less one: the chain 1-3-4-5-6-7(-8) with 2 attached to 4
E7_EDGES = [(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 3)]


def test_group_order_of_groups_above_the_bound():
    # orders only: none of these groups is generated
    orders = {"A8": 362_880, "A9": 3_628_800, "A10": 39_916_800}
    for name, order in orders.items():
        assert group_order(build_root_datum(name)) == order
    assert group_order(_simply_laced(7, E7_EDGES)) == 2_903_040
    assert group_order(_simply_laced(8, E7_EDGES + [(6, 7)])) == 696_729_600
    assert orders["A8"] <= weyl.MAX_ORDER < orders["A9"]


def test_group_above_the_bound_is_an_input_error(monkeypatch, capsys):
    monkeypatch.setattr(weyl, "MAX_ORDER", 5)
    d = build_root_datum("A2")
    with pytest.raises(InputError, match="A2 has order 6, above the limit "
                                         "of 5"):
        d.weyl_group()
    assert main(["qbg", "--datum", "A2"]) == 2
    assert capsys.readouterr().err == ("error: the Weyl group of A2 has order "
                                       "6, above the limit of 5\n")


def test_rank_above_the_bound_is_rejected_before_the_roots(monkeypatch,
                                                           capsys):
    # |W| >= 2^rank, so A30 is refused with no root generated; the largest
    # groups under the bound still get their data built
    built = []
    real = RootDatum._build_roots

    def counted(self):
        built.append(self.name)
        real(self)

    monkeypatch.setattr(RootDatum, "_build_roots", counted)
    assert main(["qbg", "--datum", "A30"]) == 2
    assert capsys.readouterr().err == ("error: the Weyl group of A30 has "
                                       "order at least 2^30, above the limit "
                                       "of 1000000\n")
    assert built == []
    n = len(EXPLICIT_DATA["E6"])
    units = [[int(i == j) for j in range(n)] for i in range(n)]
    build_root_datum("A8")
    build_root_datum({"simple_roots": units,
                      "simple_coroots": EXPLICIT_DATA["E6"], "name": "E6"})
    assert built == ["A8", "E6"]


def test_multiply_invert_apply():
    d = datum("A2")
    W = d.weyl_group()
    s1, s2 = W.simple(0), W.simple(1)
    assert (s1 * s1).is_identity
    theta = d.components[0][1]
    assert s1.apply_weight(d.simple_roots[1]) == theta
    assert (s1 * s2).inverse() == s2.inverse() * s1.inverse() == s2 * s1
    with pytest.raises(InputError):
        s1 * datum("A1").weyl_group().simple(0)


def test_gl3_apply_permutes_coordinates():
    W = datum("GL3").weyl_group()
    assert W.simple(0).apply_coweight((1, 0, 0)) == (0, 1, 0)


def test_length_matches_inversion_count():
    for name in ["A2", "B2", "G2"]:
        d = datum(name)
        W = d.weyl_group()
        for w in W:
            assert w.length == len(W.inversions(w))
            assert w.length == len(w.word)


def _reduced_words(W, w):
    if w.is_identity:
        yield ()
        return
    d = W.datum
    winv = w.inverse()
    for i in range(d.nsimple):
        if d.root_sign(winv.apply_weight(d.simple_roots[i])) < 0:
            for rest in _reduced_words(W, W.simple(i) * w):
                yield (i,) + rest


def _is_subword(small, big):
    it = iter(big)
    return all(ch in it for ch in small)


@pytest.mark.parametrize("name", ["A2", "B2", "A3"])
def test_bruhat_matches_subword_oracle(name):
    # subword property: u <= v iff some reduced word of u is a subword of one
    # (equivalently any) fixed reduced word of v
    W = datum(name).weyl_group()
    words = {w: list(_reduced_words(W, w)) for w in W}
    for u in W:
        for v in W:
            oracle = any(_is_subword(bu, v.word) for bu in words[u])
            assert W.bruhat_leq(u, v) == oracle


def test_bruhat_examples():
    W = datum("A2").weyl_group()
    s1, s2 = W.simple(0), W.simple(1)
    for w in W:
        assert W.bruhat_leq(W.identity, w)
    assert W.bruhat_leq(s1, s2 * s1)
    assert not W.bruhat_leq(s1 * s2, s2 * s1)
    # weak-order containment of inversion sets implies Bruhat order
    for u in W:
        for v in W:
            if set(W.inversions(u)) <= set(W.inversions(v)):
                assert W.bruhat_leq(u, v)


def test_canonical_word_is_lex_least_reduced_word():
    for name in ["A2", "B2"]:
        W = datum(name).weyl_group()
        for w in W:
            assert w.word == min(_reduced_words(W, w))


def test_length_parity():
    for name in ["A2", "B2", "A3"]:
        W = datum(name).weyl_group()
        for u, v in itertools.product(W, repeat=2):
            assert ((u * v).length - u.length - v.length) % 2 == 0


def test_longest_elements():
    W = datum("A2").weyl_group()
    s1, s2 = W.simple(0), W.simple(1)
    w0 = W.longest_element()
    assert w0 == s1 * s2 * s1 and w0.length == 3
    assert W.longest_element([0]) == s1
    assert datum("B2").weyl_group().longest_element().length == 4
    d = datum("A2")
    for sub in [(0,), (0, 1)]:
        wl = W.longest_element(sub)
        assert wl * wl == W.identity
        for i in sub:
            assert d.root_sign(wl.apply_weight(d.simple_roots[i])) < 0


def test_min_coset_reps():
    d = datum("GL3")
    W = d.weyl_group()
    s1, s2 = W.simple(0), W.simple(1)
    assert W.min_coset_reps([1]) == [W.identity, s1, s2 * s1]
    assert W.min_coset_reps([]) == sorted(W.elements,
                                          key=lambda w: (w.length, w.word))
    assert W.min_coset_reps([0, 1]) == [W.identity]
    for name in ["A2", "B2", "A3"]:
        dd = datum(name)
        WW = dd.weyl_group()
        for r in range(dd.nsimple + 1):
            for J in itertools.combinations(range(dd.nsimple), r):
                reps = WW.min_coset_reps(J)
                subgroup = WW.subgroup([WW.simple(j) for j in J])
                assert len(reps) * len(subgroup) == len(WW)
                for w in reps:
                    for u in subgroup:
                        assert (w * u).length == w.length + u.length


def by_length_and_word(elems):
    return sorted(elems, key=lambda w: (w.length, w.word))


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "GL3", "A1xA1", "A3", "D4"])
def test_cosets_and_subgroups_match_sorted_bruteforce(name):
    d = datum(name)
    W = d.weyl_group()
    assert list(W.elements) == by_length_and_word(W.elements)
    for r in range(d.nsimple + 1):
        for J in itertools.combinations(range(d.nsimple), r):
            # w is minimal in w W_J iff w s_j is longer for every j in J
            assert W.min_coset_reps(J) == by_length_and_word(
                w for w in W
                if all((w * W.simple(j)).length > w.length for j in J))
            # a parabolic subgroup: the reduced words of its elements use J
            assert W.subgroup([W.simple(j) for j in J]) == by_length_and_word(
                w for w in W if set(w.word) <= set(J))
    # subgroups generated by two reflections, closed by brute force
    for gens in itertools.combinations(W.reflections, 2):
        closed, grown = set(), {W.identity}
        while grown != closed:
            closed, grown = grown, grown | {u * g for u in grown for g in gens}
        assert W.subgroup(list(gens)) == by_length_and_word(closed)


ORACLE_DATA = ["A3", "B3", "C3", "G2", "D4", "GL3", "A1xA1"]
# cut to the rank, neither a root nor a coroot of any datum above
OFF_LATTICE_POINT = (7, -5, 11, 4)


@pytest.mark.parametrize("name", ORACLE_DATA)
def test_permutation_group_matches_matrix_reference(name):
    # weyl_reference keeps the matrix representation as an oracle: products,
    # inverses, lengths, words and both lattice actions must agree element
    # by element, and the element list must come out in the same order
    d = datum(name)
    W = d.weyl_group()
    R = MatrixWeylGroup(d)
    assert len(W) == len(R.elements)
    x = OFF_LATTICE_POINT[:d.rank]
    assert not d.is_root(x) and x not in d.coroots
    units = [tuple(int(i == j) for j in range(d.rank)) for i in range(d.rank)]
    pairs = list(zip(W.elements, R.elements))
    for w, r in pairs:
        # the images of the unit coweights are the columns of r.cm
        for e in units:
            assert w.apply_coweight(e) == r.apply_coweight(e)
        assert W.index[w.inverse()] == R.index[r.inverse()]
        assert w.length == r.length
        assert w.word == r.word
        for a in d.roots:
            assert w.apply_weight(a) == r.apply_weight(a)
        # a weight off the root list is acted on along the word
        assert w.apply_weight(x) == r.apply_weight(x)
        for lam in d.simple_coroots + (x,):
            assert w.apply_coweight(lam) == r.apply_coweight(lam)
    for u, ru in pairs:
        for v, rv in pairs:
            assert W.index[u * v] == R.index[ru * rv]


@pytest.mark.parametrize("name", ORACLE_DATA)
def test_bruhat_matches_cover_closure_oracle(name):
    # the reference closes the reflection covers into a table, from its own
    # matrices and lengths; the lifting walk must agree on every pair
    d = datum(name)
    W = d.weyl_group()
    R = MatrixWeylGroup(d)
    pairs = list(zip(W.elements, R.elements))
    for u, ru in pairs:
        for v, rv in pairs:
            assert W.bruhat_leq(u, v) == R.bruhat_leq(ru, rv), (u, v)


def test_reflection_lookup_and_longest_element():
    for name in ORACLE_DATA:
        d = datum(name)
        W = d.weyl_group()
        R = MatrixWeylGroup(d)
        for a in d.roots:
            s = W.reflection(a)
            assert s * s == W.identity
            assert s.apply_weight(a) == tuple(-c for c in a)
            assert s is W.reflection(tuple(-c for c in a))
        w0 = W.longest_element()
        assert w0.length == d.num_positive
        assert w0.length == max(r.length for r in R.elements)
        assert not any(w0.apply_weight(a) in d.positive_roots
                       for a in d.positive_roots)
