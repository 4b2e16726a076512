import gc
import hashlib
import itertools
import json
import random
import weakref
from fractions import Fraction
from functools import lru_cache

import pytest

from admshell import (InputError, LabelOrder, PropertyViolation,
                      build_admissible, build_label_order, build_root_datum,
                      label_edges, labeling, make_classifier, repair_step,
                      subsystem_positive)
from admshell.admissible import canonical_K
from admshell.cli import _parse_K, _parse_mu
from admshell.exact import dot, solve_linear
from admshell.labeling import (_group_codes, _order_keys, _separating_vector,
                               defect, finite_subsystem_indices,
                               format_label, relevant_closure)
from admshell.affine import (AffineElement, affine_reflection,
                             simple_reflection)
from admshell.rootdata import AffineRoot
from conftest import (MATRIX, datum, matrix_entries, pipeline,
                      spherical_subsets)


def neg(v):
    return tuple(-x for x in v)


def test_classify_gl3_examples():
    d = datum("GL3")
    K = canonical_K(d, ["a1"])
    classify = make_classifier(d, K)
    a1, a2 = d.simple_roots
    theta = d.components[0][1]
    assert classify(AffineRoot(neg(a2), 1)) == 1
    assert classify(AffineRoot(neg(theta), 1)) == 1
    assert classify(AffineRoot(neg(a1), 1)) == 2
    assert classify(AffineRoot(a2, 0)) == 2
    assert classify(AffineRoot(a1, 0)) == 1  # the K-root itself
    with pytest.raises(InputError):
        classify(AffineRoot(neg(a1), 0))


def test_classify_empty_K():
    d = datum("A2")
    classify = make_classifier(d, ())
    for a in d.positive_roots:
        assert classify(AffineRoot(a, 0)) == 2
        assert classify(AffineRoot(neg(a), 1)) == 1
        assert classify(AffineRoot(a, 1)) == 2


def test_subsystem_closure_a2():
    d = datum("A2")
    K = canonical_K(d, ["a1", "a0"])
    a1, a2 = d.simple_roots
    theta = d.components[0][1]
    assert subsystem_positive(d, K) == frozenset({
        AffineRoot(a1, 0), AffineRoot(neg(theta), 1), AffineRoot(neg(a2), 1)})
    classify = make_classifier(d, K)
    for ar in subsystem_positive(d, K):
        assert classify(ar) == 1


def reference_subsystem_positive(d, K):
    """Oracle for subsystem_positive: enumerate the group that K generates,
    by products of affine elements, and keep the positive roots of the
    orbit of K."""
    refls = [simple_reflection(d, ar) for ar in K]
    ident = AffineElement.identity(d)
    group, frontier = {ident}, [ident]
    while frontier:
        new = []
        for w in frontier:
            for s in refls:
                t = w * s
                if t not in group:
                    group.add(t)
                    new.append(t)
        frontier = new
    orbit = {w.act(ar) for w in group for ar in K}
    return frozenset(ar for ar in orbit if d.is_positive_affine(ar))


@pytest.mark.parametrize("name", sorted(MATRIX) + ["D4-adjoint", "A4"])
def test_subsystem_closure_matches_group_oracle(name):
    d = datum(name)
    for K in spherical_subsets(d):
        assert subsystem_positive(d, K) == \
            reference_subsystem_positive(d, K), K


def test_constructed_order_gl3(gl3_case):
    poset, order, _ = gl3_case
    d = poset.datum
    assert order.violations() == []
    # the six labels of the worked example sit in the constructed order in
    # exactly the printed arrangement
    a1, a2 = d.simple_roots
    theta = d.components[0][1]
    printed = [AffineRoot(neg(a2), 1), AffineRoot(neg(theta), 1),
               poset.WJK[0], poset.WJK[1],
               AffineRoot(neg(a1), 1), AffineRoot(a2, 0)]
    ranks = [order.rank(lbl) for lbl in printed]
    assert ranks == sorted(ranks)


def test_printed_gl3_order_passes_checker(gl3_case):
    poset, _, _ = gl3_case
    d = poset.datum
    a1, a2 = d.simple_roots
    theta = d.components[0][1]
    printed = [AffineRoot(neg(a2), 1), AffineRoot(neg(theta), 1),
               poset.WJK[0], poset.WJK[1],
               AffineRoot(neg(a1), 1), AffineRoot(a2, 0)]
    order = LabelOrder(d, poset.K, printed)
    assert order.violations() == []
    order.check()


def gl3_scrambled(poset):
    d = poset.datum
    a1, a2 = d.simple_roots
    theta = d.components[0][1]
    scrambled = [poset.WJK[0], AffineRoot(neg(theta), 1),
                 AffineRoot(neg(a2), 1), poset.WJK[1],
                 AffineRoot(neg(a1), 1), AffineRoot(a2, 0)]
    return LabelOrder(d, poset.K, scrambled)


def gl3_swapped(poset):
    d = poset.datum
    a1, a2 = d.simple_roots
    theta = d.components[0][1]
    eta0, eta1 = poset.WJK
    swapped = [AffineRoot(neg(a2), 1), eta1, AffineRoot(neg(theta), 1), eta0,
               AffineRoot(neg(a1), 1), AffineRoot(a2, 0)]
    return LabelOrder(d, poset.K, swapped)


def test_scrambled_order_fails_checker(gl3_case):
    poset, _, _ = gl3_case
    d = poset.datum
    theta = d.components[0][1]
    order = gl3_scrambled(poset)
    assert order.violations()
    with pytest.raises(PropertyViolation):
        order.check()
    # one eta moved in front of a class-1 root, and the etas swapped: the
    # messages name both labels and both etas
    eta1 = poset.WJK[1]
    late = AffineRoot(neg(theta), 1)
    bad = gl3_swapped(poset).violations()
    sandwich = [m for m in bad if m.startswith("sandwich")]
    assert sandwich == [f"sandwich: class-1 root {format_label(d, late)} "
                        f"after top-edge label {format_label(d, eta1)}"]
    bruhat = [m for m in bad if m.startswith("eta order")]
    assert len(bruhat) == 1
    assert poset.WJK[0].word_str() in bruhat[0]
    assert poset.WJK[1].word_str() in bruhat[0]


def test_a1_unlevelled_order():
    # with empty K the level-one negatives come first, then the symbols,
    # then the level-zero roots
    d = datum("A1")
    poset = build_admissible(d, d.simple_coroots[0], ())
    order = build_label_order(poset)
    a = d.simple_roots[0]
    r_neg1 = order.rank(AffineRoot(neg(a), 1))
    r_zero = order.rank(AffineRoot(a, 0))
    etas = [order.rank(x) for x in poset.WJK]
    assert r_neg1 < min(etas) <= max(etas) < r_zero


def test_single_root_order_is_trivial():
    d = datum("A1")
    order = LabelOrder(d, (), [AffineRoot(d.simple_roots[0], 0)])
    assert order.violations() == []
    assert len(order.serialize()) == 1


def test_label_order_rejects_stray_labels(gl3_case):
    poset, order, _ = gl3_case
    d = poset.datum
    seq = list(order.sequence)
    # only affine roots and elements of this datum's Weyl group are labels
    with pytest.raises(InputError):
        LabelOrder(d, poset.K, seq + ["eta(s1)"])
    other = build_root_datum("GL3")
    assert other is not d
    with pytest.raises(InputError):
        LabelOrder(d, poset.K, seq[:-1] + [other.weyl_group().simple(0)])
    with pytest.raises(InputError):
        LabelOrder(d, poset.K, seq + [seq[0]])
    with pytest.raises(InputError):
        LabelOrder(d, poset.K, seq + [poset.WJK[0]])


def test_repair_step_a1():
    d = datum("A1")
    K = canonical_K(d, ["a1"])
    a = d.simple_roots[0]
    seed = [AffineRoot(neg(a), 1), AffineRoot(a, 0), AffineRoot(a, 1)]
    phi_K = subsystem_positive(d, K)
    assert defect(seed, phi_K) == {AffineRoot(a, 0)}
    repaired = repair_step(d, K, seed, AffineRoot(a, 0))
    assert repaired[0] == AffineRoot(a, 0)
    assert defect(repaired, phi_K) == set()
    with pytest.raises(InputError):
        repair_step(d, K, repaired, AffineRoot(neg(a), 1))


def test_repair_shrinks_defect_instrumented():
    # drive the repair loop by hand on a case with a non-trivial subsystem
    d = datum("B2")
    K = canonical_K(d, ["a2", "a0"])
    poset = build_admissible(d, dominant_one(d), K)
    order = build_label_order(poset)
    assert order.violations() == []


def dominant_one(d):
    return tuple(sum(av[i] for av in d.simple_coroots) for i in range(d.rank))


def test_label_edges_gl3(gl3_case):
    poset, order, lp = gl3_case
    labels = sorted(label for _, _, _, label in lp.covers)
    assert labels == sorted(["(-a1-a2,1)", "(a2,0)", "(-a2,1)", "(a2,0)",
                             "(-a1,1)", "eta(s1)", "eta(s2 s1)"])


def test_label_edges_a1_chain():
    d = datum("A1")
    poset = build_admissible(d, d.simple_coroots[0], ["a1"])
    order = build_label_order(poset)
    lp = label_edges(poset, order)
    got = {(lp.names[up], lp.names[lo], label) for up, lo, _, label in lp.covers}
    assert got == {
        ("t[1] s1", "t[0]", "(-a1,1)"),
        ("t[-1]", "t[1] s1", "(-a1,2)"),
        ("1^", "t[-1]", "eta(s1)"),
    }


def test_zero_coweight_single_eta():
    d = datum("A2")
    poset = build_admissible(d, (0,) * d.rank, ())
    order = build_label_order(poset)
    lp = label_edges(poset, order)
    assert [label for _, _, _, label in lp.covers] == ["eta(e)"]


def test_eta_order_refines_bruhat():
    for name, mu, K in [("GL3", (1, 0, 0), ("a1",)),
                        ("A2", None, ()), ("B2", None, ())]:
        d = datum(name)
        if mu is None:
            mu = dominant_one(d)
        poset = build_admissible(d, mu, canonical_K(d, K))
        W = d.weyl_group()
        etas = build_label_order(poset).etas
        for i, a in enumerate(etas):
            for b in etas[i + 1:]:
                assert not (W.bruhat_leq(b, a) and a != b)


def test_capped_combinations_are_logged():
    poset, order, _ = pipeline("A1", (1,), ())
    assert all(isinstance(x, AffineRoot) for x in order.capped)
    for name in ("A1", "A2", "B2"):
        d = datum(name)
        poset, order, _ = pipeline(name, dominant_one(d), ())
        assert order.capped
        # each capped-out root once, and never one that made it into the order
        assert len(set(order.capped)) == len(order.capped)
        assert set(order.capped).isdisjoint(order.roots)


# sha256 over every theorem-matrix entry: the admissible poset, the serialized
# label order and the distinct capped-out roots.  Recorded while the pair
# combinations were still solved over Fraction; any later change to the label
# order's arithmetic must leave it as it is.
MATRIX_SHA256 = ("8292c4363d4f1d5d38895cef65a12676"
                 "e636861f240c583ed382f69f40c927a2")


def test_theorem_matrix_orders_are_byte_identical():
    h = hashlib.sha256()
    for name, mu, K in matrix_entries():
        poset, order, _ = pipeline(name, mu, K)
        d = poset.datum
        capped = sorted({d.format_affine(c) for c in order.capped})
        h.update(json.dumps([poset.to_json_dict(), order.serialize(), capped],
                            sort_keys=True).encode())
        h.update(b"\n")
    assert h.hexdigest() == MATRIX_SHA256


def reference_pair_combinations(datum, a1, a2, cap):
    """Oracle for _pair_combinations: an exact Fraction solve per root.

    For distinct, non-opposite finite parts it solves gamma = s*r1 + t*r2 on
    the first non-zero 2x2 minor, for every root gamma in turn, and keeps the
    positive affine roots with s, t > 0 and an integral level.
    """
    combos, overflow = [], []

    def push(ar):
        if not datum.is_root(ar.root) or not datum.is_positive_affine(ar):
            return
        (combos if ar.level <= cap else overflow).append(ar)

    if a1.root == a2.root:
        lo, hi = sorted((a1.level, a2.level))
        for m in range(lo + 1, hi):
            push(AffineRoot(a1.root, m))
    elif a1.root == neg(a2.root):
        for base in (a1, a2):
            for m in range(base.level + 1, cap + 1):
                push(AffineRoot(base.root, m))
        overflow.append(AffineRoot(a1.root, cap + 1))
    else:
        r1, r2 = a1.root, a2.root
        n = len(r1)
        i, j = next((i, j) for i in range(n) for j in range(i + 1, n)
                    if r1[i] * r2[j] - r1[j] * r2[i] != 0)
        det = r1[i] * r2[j] - r1[j] * r2[i]
        for gamma in datum.roots:
            s = Fraction(gamma[i] * r2[j] - gamma[j] * r2[i], det)
            t = Fraction(r1[i] * gamma[j] - r1[j] * gamma[i], det)
            if s <= 0 or t <= 0:
                continue
            if any(s * r1[k] + t * r2[k] != gamma[k] for k in range(n)):
                continue
            m = s * a1.level + t * a2.level
            if m.denominator == 1:
                push(AffineRoot(gamma, int(m)))
    return combos, overflow


@pytest.mark.parametrize("name", ["A2", "B2", "C2", "G2", "GL3", "A1xA1",
                                  "B3", "C3", "D4"])
def test_pair_table_matches_fraction_oracle(name):
    # the group kernel on one-level groups, decoded and split at the cap,
    # against the Fraction solve
    d = build_root_datum(name)
    roots = list(d.positive_roots) + [neg(r) for r in d.positive_roots]
    affine = [AffineRoot(r, m) for r in roots for m in range(4)]
    affine = [ar for ar in affine if d.is_positive_affine(ar)]
    for a1, a2 in itertools.product(affine, repeat=2):
        c2 = (d.root_index[a2.root], a2.level)
        for cap in (1, 3, 7):
            codes = _group_codes(d, d.root_index[a1.root], [a1.level], c2,
                                 cap)
            assert all(k == 0 for k, _, _ in codes)
            got = tuple([AffineRoot(d.roots[g], m) for _, g, m in codes
                         if (m <= cap) == below]
                        for below in (True, False))
            assert got == reference_pair_combinations(d, a1, a2, cap), \
                (a1, a2, cap)


@pytest.mark.parametrize("name", ["B2", "G2", "A1xA1", "B3"])
def test_group_kernel_is_the_pair_kernel_per_level(name):
    # a group of several levels gives, level by level, what each level gives
    # alone, in the same order
    d = build_root_datum(name)
    codes = [(i, m) for i in range(len(d.roots)) for m in range(4)
             if m >= (i >= d.num_positive)]
    for (j, _), c in itertools.product(codes, repeat=2):
        levels = [m for i, m in codes if i == j][::-1]
        got = _group_codes(d, j, levels, c, 5)
        for k, ly in enumerate(levels):
            assert [t[1:] for t in got if t[0] == k] == \
                [t[1:] for t in _group_codes(d, j, [ly], c, 5)]


# The label order's pair arithmetic on AffineRoot objects, as it was before
# the code kernel: the references for relevant_closure and for the convexity
# loop of LabelOrder.violations.  Only the pair table's index keys are new.

def reference_table_pair_combinations(d, a1, a2, cap):
    combos, overflow = [], []

    def push(ar):
        if d.is_positive_affine(ar):
            (combos if ar.level <= cap else overflow).append(ar)

    if a1.root == a2.root:
        lo, hi = sorted((a1.level, a2.level))
        for m in range(lo + 1, hi):
            push(AffineRoot(a1.root, m))
    elif a1.root == neg(a2.root):
        for base in (a1, a2):
            for m in range(base.level + 1, cap + 1):
                push(AffineRoot(base.root, m))
        overflow.append(AffineRoot(a1.root, cap + 1))
    else:
        l1, l2 = a1.level, a2.level
        for g, sn, tn, den in d.root_pair_table(d.root_index[a1.root],
                                                d.root_index[a2.root]):
            m, rem = divmod(sn * l1 + tn * l2, den)
            if rem == 0:
                push(AffineRoot(d.roots[g], m))
    return combos, overflow


def reference_relevant_closure(d, K, seeds, phi_K):
    refls = [affine_reflection(d, ar) for ar in K]
    base = sorted(set(seeds) | set(phi_K), key=lambda ar: (ar.level, ar.root))
    cap = 2 * max([1] + [ar.level for ar in base]) + 1
    S = set(base)
    capped = {}
    queue = list(base)

    def visit(ar):
        if ar in S:
            return
        if ar.level <= cap:
            S.add(ar)
            queue.append(ar)
        else:
            capped[ar] = None

    for k, x in enumerate(queue):
        for w in refls:
            img = w.act(x)
            visit(img if d.is_positive_affine(img) else -img)
        for y in queue[:k]:
            combos, over = reference_table_pair_combinations(d, y, x, cap)
            for c in combos + over:
                visit(c)
    return S, cap, list(capped)


def reference_convexity(order):
    d = order.datum
    out = []
    pos = {ar: i for i, ar in enumerate(order.roots)}
    cap = max([0] + [ar.level for ar in order.roots])
    for i, x in enumerate(order.roots):
        for y in order.roots[i + 1:]:
            combos, _ = reference_table_pair_combinations(d, x, y, cap)
            lo, hi = pos[x], pos[y]
            for c in combos:
                p = pos.get(c)
                if p is not None and not lo < p < hi:
                    out.append(f"convexity: {d.format_affine(c)} not "
                               f"between {d.format_affine(x)} and "
                               f"{d.format_affine(y)}")
    return out


def assert_closure_matches_reference(poset):
    d, K = poset.datum, poset.K
    seeds = {ar for up, _, ar in poset.covers if up != poset.top}
    assert_closure_matches(d, K, seeds, subsystem_positive(d, K))


def assert_closure_matches(d, K, seeds, phi_K):
    S, cap, capped = relevant_closure(d, K, seeds, phi_K)
    ref_S, ref_cap, ref_capped = reference_relevant_closure(d, K, seeds, phi_K)
    assert (S, cap) == (ref_S, ref_cap)
    # capped comes sorted by code; the reference logs in its visit order
    assert len(capped) == len(set(capped)) == len(ref_capped)
    assert capped == sorted(ref_capped, key=lambda ar: (d.root_index[ar.root],
                                                        ar.level))


def test_closure_matches_reference_on_theorem_matrix():
    for name, mu, K in matrix_entries():
        assert_closure_matches_reference(pipeline(name, mu, K)[0])


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2"])
def test_closure_matches_reference_on_one_sided_seeds(name):
    # seeds on positive finite roots only: their combinations stay positive,
    # so no opposite pair fills in the levels between two of one root, and
    # the same-root groups have to
    d = build_root_datum(name)
    rng = random.Random(name)
    for _ in range(20):
        seeds = {AffineRoot(rng.choice(d.positive_roots), rng.randrange(6))
                 for _ in range(rng.randint(2, 4))}
        assert_closure_matches(d, (), seeds, frozenset())


def test_violations_match_reference_on_scrambled_orders(gl3_case):
    orders = [gl3_scrambled(gl3_case[0]), gl3_swapped(gl3_case[0])]
    # the seed of test_repair_step_a1: (a1,0) after the outsider (-a1,1)
    d = datum("A1")
    a, = d.simple_roots
    orders.append(LabelOrder(d, canonical_K(d, ["a1"]), [
        AffineRoot(neg(a), 1), AffineRoot(a, 0), AffineRoot(a, 1)]))
    for name, mu, K in [("A2", (1, 1), ()), ("B2", (1, 1), ()),
                        ("A2", (2, 1), ("a1",)), ("B2", (1, 1), ("a2",))]:
        d = datum(name)
        poset, order, _ = pipeline(name, mu, canonical_K(d, K))
        seq = list(order.sequence)
        for seed in (1, 2, 3):
            rng = random.Random(seed)
            orders.append(LabelOrder(d, poset.K, rng.sample(seq, len(seq))))
            swapped = list(seq)
            for _ in range(3):
                i, j = rng.sample(range(len(seq)), 2)
                swapped[i], swapped[j] = swapped[j], swapped[i]
            orders.append(LabelOrder(d, poset.K, swapped))
    fired = 0
    kinds = set()
    for order in orders:
        got = order.violations()
        convex = reference_convexity(order)
        assert got == convex + [m for m in got
                                if not m.startswith("convexity")]
        fired += bool(convex)
        prefix = [m for m in got
                  if m.startswith(("separation", "K-compatibility"))]
        assert prefix == reference_prefix_messages(order)
        kinds.update(m.split(":")[0] for m in prefix)
    assert fired >= len(orders) // 2
    assert kinds == {"separation", "K-compatibility"}


# The separation and K-compatibility scans of LabelOrder.violations before
# they read their roots off defect(): one pass over the roots each.
def reference_prefix_messages(order):
    d, cls = order.datum, order.root_class
    out = []
    seen2 = False
    for ar in order.roots:
        if cls[ar] == 2:
            seen2 = True
        elif seen2:
            out.append(f"separation: class-1 root {d.format_affine(ar)} "
                       "after a class-2 root")
    seen_out = False
    for ar in order.roots:
        if ar not in order.phi_K:
            seen_out = True
        elif seen_out:
            out.append(f"K-compatibility: {d.format_affine(ar)} after a root "
                       "outside the K-subsystem")
    return out


def repair_case():
    # A3 with K = {a1, a2}: the sorted relevant roots put all three roots
    # of the K-subsystem after an outsider, so the repair loop has to run
    d = datum("A3")
    poset = build_admissible(d, (1, 1, 1), canonical_K(d, ["a1", "a2"]))
    phi_K = subsystem_positive(d, poset.K)
    assert len(phi_K) == 3
    return poset, phi_K


def test_repair_loop_stops_when_a_step_does_not_shrink(monkeypatch):
    poset, phi_K = repair_case()
    calls = []

    def unchanged(datum, K, order_list, s_root):
        calls.append(len(defect(order_list, phi_K)))
        return list(order_list)

    monkeypatch.setattr(labeling, "repair_step", unchanged)
    with pytest.raises(PropertyViolation, match="did not shrink the defect"):
        build_label_order(poset)
    assert calls == [3]


def test_repair_loop_needs_a_simple_K_root_in_the_defect(monkeypatch):
    poset, phi_K = repair_case()
    late, = [ar for ar in phi_K if ar not in poset.K]
    calls = []

    def sink_the_sum(datum, K, order_list, s_root):
        # the simple K-roots first, the K-root a1 + a2 after every outsider
        calls.append(len(defect(order_list, phi_K)))
        inside = [ar for ar in order_list if ar in phi_K and ar != late]
        return inside + [ar for ar in order_list if ar not in phi_K] + [late]

    monkeypatch.setattr(labeling, "repair_step", sink_the_sum)
    with pytest.raises(PropertyViolation,
                       match="defect set contains no simple K-root"):
        build_label_order(poset)
    assert calls == [3]


def test_separating_functional_must_match_the_classes(monkeypatch, gl3_case):
    # the last root of the order gets the key of its negative, so the sign of
    # its leading entry no longer says its class
    order_keys = labeling._order_keys

    def flip_one(datum, S, P, D):
        key = order_keys(datum, S, P, D)
        last = max(S, key=key.__getitem__)
        key[last] = tuple(-c for c in key[last])
        return key

    monkeypatch.setattr(labeling, "_order_keys", flip_one)
    with pytest.raises(PropertyViolation,
                       match="separating functional misclassifies"):
        build_label_order(gl3_case[0])


def test_one_label_order_classifies_each_root_once(monkeypatch, gl3_case):
    make = labeling.make_classifier
    calls = []

    def counting(datum, K, phi_K=None):
        classify = make(datum, K, phi_K)

        def counted(ar):
            calls.append(ar)
            return classify(ar)

        return counted

    monkeypatch.setattr(labeling, "make_classifier", counting)
    order = build_label_order(gl3_case[0])
    assert len(calls) == len(order.roots)
    assert set(calls) == set(order.roots)


def test_violations_through_same_root_pairs_only():
    # (a,0) < (a,3) < (a,2) < (a,1): the levels between two levels of one
    # root fall outside them, and no other pair kind exists
    d = build_root_datum("A1")
    a, = d.simple_roots
    order = LabelOrder(d, (), [AffineRoot(a, m) for m in (0, 3, 2, 1)])
    got = order.violations()
    assert got == reference_convexity(order)
    assert got == ["convexity: (a1,1) not between (a1,0) and (a1,3)",
                   "convexity: (a1,2) not between (a1,0) and (a1,3)",
                   "convexity: (a1,1) not between (a1,0) and (a1,2)"]


def test_violations_through_opposite_root_pairs_only():
    # the levels of one root are in order, so only the opposite pairs,
    # whose combinations reach every level above theirs, fire; their
    # messages come in pair order, not in the order the groups meet them
    d = build_root_datum("A1")
    a, = d.simple_roots
    order = LabelOrder(d, (), [AffineRoot(neg(a), m) for m in (1, 2)]
                       + [AffineRoot(a, m) for m in (0, 1, 2)])
    got = order.violations()
    assert got == reference_convexity(order)
    assert len(got) == 6
    assert got[:3] == ["convexity: (a1,1) not between (-a1,1) and (a1,0)",
                       "convexity: (a1,2) not between (-a1,1) and (a1,0)",
                       "convexity: (a1,2) not between (-a1,1) and (a1,1)"]


def test_violations_through_independent_pairs_only():
    # A2: a1 and a2 have the one table row a1 + a2 = a1 + a2; every pair
    # with a1 + a2 has an empty row, and no root comes twice at two levels
    # with a level between them
    d = build_root_datum("A2")
    a1, a2 = d.simple_roots
    a12 = tuple(x + y for x, y in zip(a1, a2))
    assert d.root_pair_table(d.root_index[a1], d.root_index[a2])
    assert not d.root_pair_table(d.root_index[a12], d.root_index[a1])
    assert not d.root_pair_table(d.root_index[a12], d.root_index[a2])
    seq = [AffineRoot(a12, 0), AffineRoot(a1, 0), AffineRoot(a2, 0),
           AffineRoot(a2, 1), AffineRoot(a12, 1)]
    order = LabelOrder(d, (), seq)
    got = order.violations()
    assert got == reference_convexity(order)
    assert got == ["convexity: (a1+a2,0) not between (a1,0) and (a2,0)",
                   "convexity: (a1+a2,1) not between (a1,0) and (a2,1)"]


def test_datum_is_freed_after_cone_queries():
    d = build_root_datum("A2")
    assert d.in_coroot_cone(d.simple_coroots[0])
    assert not d.in_coroot_cone(neg(d.simple_coroots[0]))
    ref = weakref.ref(d)
    del d
    gc.collect()
    assert ref() is None


def reference_sorted_relevant(d, Jp, cap, S):
    """The relevant set sorted by the Fraction key of the label order before
    its integer key, and whether two neighbours tie."""
    cols = [tuple(a[i] for a in d.simple_roots) for i in range(d.rank)]
    lam = solve_linear(cols, tuple(0 if j in Jp else 1
                                   for j in range(d.nsimple)))
    rho_p = [0] * d.rank
    for a, av in zip(d.positive_roots, d.positive_coroots):
        if d.root_support(a) <= Jp:
            rho_p = [x + y for x, y in zip(rho_p, av)]
    R = max([1] + [abs(dot(rho_p, a)) for a in d.roots])
    v = tuple(Fraction(cap + 1) * l - Fraction(1, 2 * (R + 1)) * r
              for l, r in zip(lam, rho_p))
    scale = 1 + max(dot(d.two_rho_coroot, a) for a in d.positive_roots)

    def key(ar):
        L = Fraction(dot(d.two_rho_coroot, ar.root), scale) + ar.level
        return tuple(Fraction(g, 1) / L
                     for g in (dot(v, ar.root) + ar.level, ar.level) + ar.root)

    ordered = sorted(S, key=key)
    return ordered, any(key(x) == key(y) for x, y in zip(ordered, ordered[1:]))


# the ladder and parahoric rows of the benchmark, outside the theorem matrix
BENCH_ROWS = [("A3-adjoint", "1,1,1", "fw", ""),
              ("C3-adjoint", "1,0,1", "fw", ""),
              ("B3-adjoint", "1,0,1", "fw", ""),
              ("A4", "1,1,1,1", "coroot", "a1,a2,a3,a4"),
              ("D4-adjoint", "1,0,0,0", "fw", "a1,a3,a4")]


@lru_cache(maxsize=None)
def bench_poset(name, mu, basis, K):
    d = build_root_datum(name)
    return build_admissible(d, _parse_mu(d, mu, basis), _parse_K(d, K))


@pytest.mark.parametrize("name,mu,basis,K", BENCH_ROWS)
def test_closure_matches_reference_on_bench_rows(name, mu, basis, K):
    assert_closure_matches_reference(bench_poset(name, mu, basis, K))


@pytest.mark.parametrize("name,mu,basis,K", BENCH_ROWS)
def test_integer_order_key_matches_fraction_key(name, mu, basis, K):
    poset = bench_poset(name, mu, basis, K)
    d, K = poset.datum, poset.K
    seeds = {ar for up, _, ar in poset.covers if up != poset.top}
    S, cap, _ = relevant_closure(d, K, seeds, subsystem_positive(d, K))
    Jp = finite_subsystem_indices(d, K)
    key = _order_keys(d, S, *_separating_vector(d, Jp, cap))
    ordered = sorted(S, key=key.__getitem__)
    ties = any(key[x] == key[y] for x, y in zip(ordered, ordered[1:]))
    assert (ordered, ties) == reference_sorted_relevant(d, Jp, cap, S)
