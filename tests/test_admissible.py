import random
from fractions import Fraction

import pytest

from admshell import (AffineElement, InputError, PropertyViolation,
                      adm_membership, admissible, build_admissible,
                      build_label_order, compute_sigma, coxeter_subset,
                      label_edges, length_zero_rep, top_two_layer_report)
from admshell.admissible import (_gateways, _unique_min, canonical_K,
                                 double_coset_reps, is_spherical)
from admshell.affine import (acute_presentation_K, acute_presentations,
                             affine_reflection, bruhat_leq, covers_down,
                             simple_reflection)
from admshell import cli
from admshell.cli import _parse_mu
from admshell.exact import vec_sub
from admshell.rootdata import AffineRoot
from conftest import (affine_ball, datum, dominant_mus, matrix_entries,
                      pipeline)
from test_affine import reference_reflection_root


def neg(v):
    return tuple(-x for x in v)


def test_gl3_poset_matches_figure(gl3_case):
    poset, _, _ = gl3_case
    d = poset.datum
    assert [w.name() for w in poset.elements] == [
        "t[1,0,0] s1 s2", "t[0,1,0] s2", "t[1,0,0] s1", "t[0,0,1]", "t[0,1,0]"]
    assert [a.word_str() for a in poset.WJK] == ["s1", "s2 s1"]
    names = poset.element_names()
    # an interior edge carries its affine root, a top edge its maximum's
    # element of W^{J,K}, the a with t^{a(mu)} at the lower end
    got = {(names[up], names[lo],
            d.format_affine(lbl) if up != poset.top else lbl.word_str())
           for up, lo, lbl in poset.covers}
    assert got == {
        ("t[0,1,0] s2", "t[1,0,0] s1 s2", "(-a1-a2,1)"),
        ("t[1,0,0] s1", "t[1,0,0] s1 s2", "(a2,0)"),
        ("t[0,0,1]", "t[0,1,0] s2", "(-a2,1)"),
        ("t[0,1,0]", "t[0,1,0] s2", "(a2,0)"),
        ("t[0,1,0]", "t[1,0,0] s1", "(-a1,1)"),
        ("1^", "t[0,0,1]", "s2 s1"),
        ("1^", "t[0,1,0]", "s1"),
    }
    tops = [lbl for up, _, lbl in poset.covers if up == poset.top]
    assert sorted(tops, key=poset.WJK.index) == poset.WJK
    assert all(poset.elements[lo] == poset.translation_of(lbl)
               for up, lo, lbl in poset.covers if up == poset.top)
    assert poset.J == (1,)


def test_zero_coweight_poset():
    d = datum("A2")
    poset = build_admissible(d, (0,) * d.rank, ())
    assert len(poset.elements) == 1
    assert poset.elements[0].length == 0
    assert len(poset.covers) == 1  # just the top edge


def test_a1_chain_poset():
    d = datum("A1")
    poset = build_admissible(d, d.simple_coroots[0], ["a1"])
    # brute force: admissible elements below the two extreme translations,
    # filtered by the minimal-representative condition
    elems, leq = affine_ball("A1", 2)
    K = canonical_K(d, ["a1"])
    tops = [AffineElement.translation_of(d, d.simple_coroots[0]),
            AffineElement.translation_of(d, neg(d.simple_coroots[0]))]
    expected = sorted((w for w in elems
                       if any(leq(w, t) for t in tops) and w.is_min_rep(K)),
                      key=lambda w: w.key())
    assert poset.elements == expected
    assert len(poset.elements) == 3
    lengths = [w.length for w in poset.elements]
    assert lengths == [0, 1, 2]


def test_shape_invariants_across_small_matrix():
    for name, mu, K in [("A2", None, ()), ("B2", None, ())]:
        d = datum(name)
        mu = dominant_mus(name, 4)[-1]
        poset, order, lp = pipeline(name, mu, K)
        height = d.pairing(mu, d.two_rho)
        # purity: every maximal chain of the augmented poset has full length
        chains = lp.all_maximal_chains(poset.tau_id, lp.top)
        assert chains and all(len(c) == height + 1 for c in chains)
        # the extreme elements match the minimal-representative description
        W = d.weyl_group()
        expect = [a for a in W.min_coset_reps(poset.J)
                  if all(d.pairing(a.apply_coweight(mu), ar.root) <= 0
                         for ar in poset.K)]
        assert set(poset.WJK) == set(expect)
        assert len(poset.maximal_ids) == len(expect)


# The extreme-translation bookkeeping of AdmissiblePoset before it read
# K-minimality off the translations: W^{J,K} by the pairing criterion
# <a(mu), alpha> <= 0 for every alpha in K, each translation rebuilt from
# AffineElement.translation_of, and the descent as a frontier loop.
def reference_extremes(poset):
    d, mu = poset.datum, poset.mu
    WJK = [a for a in poset.WJ
           if all(d.pairing(a.apply_coweight(mu), ar.root) <= 0
                  for ar in poset.K)]
    maximal_ids = [poset.index[AffineElement.translation_of(
        d, a.apply_coweight(mu))] for a in WJK]
    return WJK, maximal_ids


def reference_full_elements(poset):
    d, mu = poset.datum, poset.mu
    frontier = list(dict.fromkeys(AffineElement.translation_of(
        d, a.apply_coweight(mu)) for a in poset.WJ))
    seen = set(frontier)
    while frontier:
        new = []
        for w in frontier:
            for u, _ in covers_down(w):
                if u not in seen:
                    seen.add(u)
                    new.append(u)
        frontier = new
    return sorted(seen, key=lambda w: w.key())


def parahoric_full_posets():
    """The two rows of the parahoric-full benchmark workload, built fresh."""
    posets = []
    for name, mu, basis, K in [("A4", "1,1,1,1", "coroot", "a1,a2,a3,a4"),
                               ("D4-adjoint", "1,0,0,0", "fw", "a1,a3,a4")]:
        d = datum(name)
        posets.append(build_admissible(d, _parse_mu(d, mu, basis),
                                       K.split(",")))
    return posets


def test_extremes_match_the_pairing_criterion():
    posets = [pipeline(name, mu, K)[0] for name, mu, K in matrix_entries()]
    posets += parahoric_full_posets()
    full = {}
    for poset in posets:
        assert (poset.WJK, poset.maximal_ids) == reference_extremes(poset)
        key = (poset.datum.name, poset.mu)
        if key not in full:
            full[key] = reference_full_elements(poset)
        assert poset.full_elements == full[key]
    assert len(posets) == 398 and len(full) == 60


def test_leq_ids_matches_the_labeled_poset_order():
    # a fresh poset builds its own down-sets; the pipeline's one reads lp's
    cases = [(build_admissible(datum(name), mu, K), pipeline(name, mu, K)[2])
             for name, mu, K in matrix_entries()]
    for poset, fresh in zip(parahoric_full_posets(), parahoric_full_posets()):
        cases.append((fresh, label_edges(poset, build_label_order(poset))))
    for poset, lp in cases:
        ids = range(poset.top + 1)
        assert all(poset.leq_ids(i, j) == lp.leq(i, j)
                   for i in ids for j in ids)
    assert len(cases) == 398


def test_fast_pipeline_leaves_the_admissible_closure_unbuilt(monkeypatch):
    # label_edges gives the poset its labeled poset's down-sets, so only a
    # poset that is never labeled (cox) builds its own
    built = []
    closure_bits = admissible.closure_bits
    monkeypatch.setattr(admissible, "closure_bits",
                        lambda *a: built.append(a) or closure_bits(*a))
    posets = parahoric_full_posets()
    posets.append(build_admissible(datum("GL3"), (1, 0, 0), ["a1"]))
    for poset in posets:
        lp = label_edges(poset, build_label_order(poset))
        assert lp.verify_dual_el()["status"] == "PASS"
        assert lp.ncm_check() and lp.recursive_coatom_check()[0]
        assert poset.leq_ids(poset.tau_id, poset.top)
        assert poset.leq_ids(poset.maximal_ids[0], poset.top)
        assert not built
    for poset in parahoric_full_posets():
        assert poset.leq_ids(poset.tau_id, poset.top)
        assert poset.leq_ids(poset.maximal_ids[0], poset.top)
        assert len(built) == 1
        built.clear()


def test_spherical_check():
    d = datum("A1")
    assert is_spherical(d, canonical_K(d, ["a1"]))
    assert not is_spherical(d, canonical_K(d, ["a1", "a0"]))
    with pytest.raises(InputError):
        build_admissible(d, d.simple_coroots[0], ["a1", "a0"])
    with pytest.raises(InputError):
        build_admissible(d, neg(d.simple_coroots[0]), ())


@pytest.mark.parametrize("mu", [(1.5, 0, 0), (Fraction(3, 2), 0, 0),
                                ("1", 0, 0), (1.0, 0, 0), (Fraction(1), 0, 0)])
def test_non_integer_mu_is_an_input_error(mu):
    # each used to be truncated by int() to the 7-element poset of (1, 0, 0)
    d = datum("GL3")
    assert len(build_admissible(d, (1, 0, 0), ()).elements) == 7
    with pytest.raises(InputError, match="integer coordinates"):
        build_admissible(d, mu, ())


def test_adm_membership_examples(gl3_case):
    poset, _, _ = gl3_case
    d = poset.datum
    mu = (1, 0, 0)
    W = d.weyl_group()
    from admshell.affine import AcutePresentation
    assert adm_membership(AcutePresentation(W.identity, mu, W.identity), mu)
    tau_s2 = poset.elements[2]
    assert adm_membership(acute_presentations(tau_s2)[0], mu)
    bad = AcutePresentation(W.identity, mu, W.longest_element())
    assert not bad.is_acute()
    with pytest.raises(InputError):
        adm_membership(bad, mu)


def test_adm_membership_matches_bruteforce():
    name = "A2"
    d = datum(name)
    elems, leq = affine_ball(name, 4)
    for mu in dominant_mus(name, 4):
        W = d.weyl_group()
        tops = [AffineElement.translation_of(d, z.apply_coweight(mu))
                for z in W.min_coset_reps(
                    [i for i, a in enumerate(d.simple_roots)
                     if d.pairing(mu, a) == 0])]
        for w in elems:
            pres = acute_presentations(w)[0]
            oracle = any(leq(w, t) for t in tops)
            assert adm_membership(pres, mu) == oracle


def test_sigma_data_gl3(gl3_case):
    poset, _, _ = gl3_case
    sd = compute_sigma(poset, poset.tau())
    assert [z.word_str() for z in sd.sigma_w_JK] == ["s1", "s2 s1"]
    assert sd.a_min_K.word_str() == "s1"
    tau_s2 = poset.elements[2]
    assert compute_sigma(poset, tau_s2).a_min_K.word_str() == "s1"
    # a maximal element is its own gateway
    for a, mid in zip(poset.WJK, poset.maximal_ids):
        sd = compute_sigma(poset, poset.elements[mid])
        assert sd.a_min_K == a
    # z_min really is the unique minimum of Sigma_w
    W = poset.datum.weyl_group()
    for w in poset.elements:
        sd = compute_sigma(poset, w)
        assert all(W.bruhat_leq(sd.z_min, z) for z in sd.sigma_w)


def test_unique_min_least_element_and_failures():
    d = datum("A2")
    W = d.weyl_group()
    s1, s2 = W.simple(0), W.simple(1)
    w0 = W.longest_element()
    w = AffineElement.from_finite(s1 * s2)
    assert _unique_min(W, [s1, s1 * s2, s2 * s1], "S", w) is s1
    # a least element whose set is not an up-set: the search climbs past
    # the missing length-two elements
    assert _unique_min(W, [w0, s2], "S", w) is s2
    assert _unique_min(W, [s1], "S", w) is s1
    # an empty set, two minimal elements of one length (alone, or with a
    # common upper bound) and of two lengths each name the poset element
    W3 = datum("A3").weyl_group()
    t1, t2, t3 = W3.simples
    for group, elems in [(W, []), (W, [s1, s2]), (W, [s1, w0, s2]),
                         (W3, [t2 * t3, t1])]:
        with pytest.raises(PropertyViolation) as err:
            _unique_min(group, elems, "S", w)
        assert str(err.value) == f"{w.name()}: S " + (
            "has no least element" if elems else "is empty")


def _least_by_walks(W, elems):
    """The member below every member by lifting walks, or None."""
    return next((z for z in elems
                 if all(W.bruhat_leq(z, x) for x in elems)), None)


def _check_unique_min(W, elems, w):
    least = _least_by_walks(W, elems)
    if least is None:
        with pytest.raises(PropertyViolation):
            _unique_min(W, elems, "S", w)
    else:
        assert _unique_min(W, elems, "S", w) is least


def test_unique_min_matches_the_lifting_walks():
    # the upward search against one lifting walk per pair: on every reach
    # set and every Sigma_w^{J,K} of the theorem matrix and both parahoric
    # rows, then on seeded subsets of W(A3) and W(B3) of every shape
    posets = [pipeline(name, mu, K)[0] for name, mu, K in matrix_entries()]
    posets += parahoric_full_posets()
    for poset in posets:
        d = poset.datum
        W, g = d.weyl_group(), d.qbg()
        for w in poset.elements:
            pres = acute_presentation_K(w, poset.K)
            gap = vec_sub(poset.mu, pres.lam)
            reach = [z for z in W
                     if d.in_coroot_cone(vec_sub(gap, g.wt(pres.x, z)))]
            for elems in (reach, _gateways(poset, w)):
                assert _least_by_walks(W, elems) is not None
                _check_unique_min(W, elems, w)
    rng = random.Random(7)
    for name in ("A3", "B3"):
        W = datum(name).weyl_group()
        w = AffineElement.identity(datum(name))
        for size in range(1, 9):
            for _ in range(40):
                _check_unique_min(W, rng.sample(W.elements, size), w)


def _top_two(poset, order):
    sigma = [compute_sigma(poset, w) for w in poset.elements]
    return top_two_layer_report(poset, order, sigma)


def test_top_two_gl3(gl3_case):
    poset, order, _ = gl3_case
    report = _top_two(poset, order)
    assert {r["element"] for r in report} == {"t[0,1,0] s2", "t[1,0,0] s1"}
    for r in report:
        assert len(r["covering_translations"]) == 2
        assert r["gateway"] == "s1"


def test_top_two_a1_regular():
    d = datum("A1")
    mu = d.simple_coroots[0]
    poset = build_admissible(d, mu, ())
    report = _top_two(poset, build_label_order(poset))
    assert len(report) == 2  # both length-one elements sit below the top layer
    for entry in report:
        assert set(entry["covering_translations"]) == {"t[1]", "t[-1]"}


@pytest.mark.parametrize("name, basis, mu, K", [
    ("GL3", "ambient", (1, 0, 0), ["a1"]),
    ("A4", "coroot", (1, 1, 1, 1), ["a1", "a2", "a3", "a4"]),
])
def test_top_two_covering_translations_match_bruhat_leq(name, basis, mu, K):
    # the report finds the translations above a next-to-top element among
    # the upper covers; the frontier descent of bruhat_leq is the oracle
    d = datum(name)
    if basis == "coroot":
        mu = tuple(sum(c * av[i] for c, av in zip(mu, d.simple_coroots))
                   for i in range(d.rank))
    poset = build_admissible(d, mu, K)
    report = _top_two(poset, build_label_order(poset))
    height = d.pairing(mu, d.two_rho)
    by_name = {w.name(): w for w in poset.elements}
    translations = [poset.translation_of(a) for a in poset.WJ]
    assert len(report) == sum(1 for w in poset.elements
                              if w.length == height - 1) > 0
    for row in report:
        w = by_name[row["element"]]
        assert row["covering_translations"] == sorted(
            t.name() for t in translations if bruhat_leq(w, t))


def test_gateway_labels_match_the_reference_reflection_root():
    # the report reads each label off the poset's cover t_min -> w; the
    # reflection w^-1 t_min, decoded by the reference formula, is the oracle
    posets = [pipeline(name, mu, K)[:2] for name, mu, K in matrix_entries()]
    posets += [(poset, build_label_order(poset))
               for poset in parahoric_full_posets()]
    rows = 0
    for poset, order in posets:
        d = poset.datum
        by_name = {w.name(): w for w in poset.elements}
        by_word = {a.word_str(): a for a in poset.WJK}
        for row in _top_two(poset, order):
            w = by_name[row["element"]]
            t_min = poset.translation_of(by_word[row["gateway"]])
            ar = reference_reflection_root(d, w.inverse() * t_min)
            assert ar is not None and w * affine_reflection(d, ar) == t_min
            assert row["gateway_label"] == d.format_affine(ar)
            rows += 1
    assert len(posets) == 398 and rows == 1024


def _gl3_poset():
    # a fresh poset, since the tampering tests edit it
    return build_admissible(datum("GL3"), (1, 0, 0), ["a1"])


def _add_length_gap(poset):
    # a maximum (length 2) covering the length-0 minimum
    poset.covers.append((poset.maximal_ids[0], poset.tau_id, poset.covers[0][2]))


def _drop_covers_of_the_minimum(poset):
    poset.covers = [c for c in poset.covers if c[1] != poset.tau_id]


def _drop_a_maximum(poset):
    poset.maximal_ids.pop()


def _double_mu(poset):
    poset.mu = tuple(2 * c for c in poset.mu)


@pytest.mark.parametrize("tamper, message", [
    (_add_length_gap, "cover with a length gap"),
    (_drop_covers_of_the_minimum, "expected a unique length-zero minimum"),
    (_drop_a_maximum, "non-extreme element with no upper cover"),
    (_double_mu, "extreme translation of wrong length"),
])
def test_verify_shape_names_each_broken_invariant(tamper, message):
    poset = _gl3_poset()
    poset._verify_shape()
    tamper(poset)
    with pytest.raises(PropertyViolation) as err:
        poset._verify_shape()
    assert str(err.value) == message


def test_broken_shape_exits_1(capsys, monkeypatch):
    real = cli.build_admissible

    def tampered(datum, mu, K):
        poset = real(datum, mu, K)
        _double_mu(poset)
        poset._verify_shape()
        return poset

    monkeypatch.setattr(cli, "build_admissible", tampered)
    code = cli.main(["verify", "--datum", "GL3", "--mu", "1,0,0", "--K", "a1"])
    assert code == 1
    assert capsys.readouterr().err == ("property violation: extreme "
                                       "translation of wrong length\n")


def test_label_edges_rejects_a_non_positive_cover_label():
    poset = _gl3_poset()
    order = build_label_order(poset)
    up, lo, ar = poset.covers[0]
    poset.covers[0] = (up, lo, -ar)
    with pytest.raises(InputError) as err:
        label_edges(poset, order)
    assert str(err.value) == "cover carries a non-positive affine root"


def test_double_coset_reps_match_the_full_product_set():
    # the W^J elements of W_K z W_J from |W_K| coset minima, against every
    # product p z u with u in W_J; z runs over all of W, so over every z_min
    posets = [pipeline(name, mu, K)[0] for name, mu, K in matrix_entries()
              if name in ("GL3", "B2", "G2")]
    posets += parahoric_full_posets()
    seen = set()
    for poset in posets:
        key = (poset.datum.name, poset.J, poset.K)
        if key in seen:
            continue
        seen.add(key)
        W = poset.datum.weyl_group()
        WJ_group = W.subgroup([W.simples[j] for j in poset.J])
        WJ = set(poset.WJ)
        for z in W:
            full = {p * z * u for p in poset.wk_image() for u in WJ_group}
            assert double_coset_reps(poset, z) == full & WJ, (key, z)
    assert len(seen) == 65


def test_coxeter_subset_membership_oracle():
    # brute force on reduced words: every reduced word must pass the
    # distinct-orbit test, and the verdict is word independent
    name = "A2"
    d = datum(name)
    theta_v = d.components[0][2]
    poset = pipeline(name, theta_v, ())[0]
    sub = coxeter_subset(poset)
    got = set(sub["element_ids"])
    from admshell.affine import affine_word, AffineElement

    refls = [simple_reflection(d, ar) for ar in d.simple_affine_roots()]

    def all_reduced_words(w):
        if w.length == 0:
            yield ()
            return
        winv = w.inverse()
        for i, ar in enumerate(d.simple_affine_roots()):
            if not d.is_positive_affine(winv.act(ar)):
                for rest in all_reduced_words(refls[i] * w):
                    yield (i,) + rest

    nsimp = len(d.simple_affine_roots())
    for idx, w in enumerate(poset.elements):
        tau, _ = affine_word(w)
        u = tau.inverse() * w
        # identity orbit map here: tau is trivial for this datum
        assert tau == AffineElement.identity(d)
        verdicts = set()
        for word in all_reduced_words(u):
            distinct = len(set(word)) == len(word)
            spherical = len(set(word)) < nsimp
            verdicts.add(distinct and spherical)
        assert len(verdicts) == 1
        assert (idx in got) == verdicts.pop()


def test_coxeter_subset_sigma_validation():
    poset = pipeline("A2", datum("A2").components[0][2], ())[0]
    with pytest.raises(InputError):
        coxeter_subset(poset, [1, 0, 2, 3])
    with pytest.raises(InputError):
        coxeter_subset(poset, [0, 1])
    # the rotation of the affine A2 diagram is a valid automorphism
    rotated = coxeter_subset(poset, [1, 2, 0])
    assert rotated["element_ids"]


def test_json_shape(gl3_case):
    poset, _, _ = gl3_case
    data = poset.to_json_dict()
    assert data["mu"] == [1, 0, 0]
    assert data["maximal"] == ["s1", "s2 s1"]
    assert {c["label"] for c in data["covers"]} == {
        "(-a1-a2,1)", "(a2,0)", "(-a2,1)", "(-a1,1)", "eta(s1)", "eta(s2 s1)"}
