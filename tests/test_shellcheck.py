import collections
import hashlib
import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from admshell import (InputError, LabelOrder, PropertyViolation,
                      build_admissible, build_label_order, build_root_datum,
                      compute_sigma, label_edges, shellcheck)
from admshell.admissible import canonical_K
from admshell.cli import _parse_K, _parse_mu
from admshell.rootdata import AffineRoot
from admshell.shellcheck import LabeledPoset, closure_bits, up_set
from conftest import datum, matrix_entries, pipeline


def neg(v):
    return tuple(-x for x in v)


# the diamond 0 < 1, 2 < 3 passes the four shape checks; each case breaks one
DIAMOND = [(3, 1, 0, "a"), (3, 2, 1, "b"), (1, 0, 2, "c"), (2, 0, 3, "d")]


@pytest.mark.parametrize("covers, message", [
    (DIAMOND[:1] + [(3, 2, 0, "a")] + DIAMOND[2:],
     "two covers of one element share a label"),
    (DIAMOND + [(3, 0, 4, "e")], "cover with a length gap"),
    (DIAMOND[:3], "poset needs a unique minimal element"),
    (DIAMOND[:1] + DIAMOND[2:], "element neither covered nor the top"),
], ids=["shared-label", "length-gap", "two-minima", "orphan"])
def test_bad_cover_tables_are_input_errors(covers, message):
    assert LabeledPoset(4, 3, 0, [0, 1, 1, 2], DIAMOND).leq(0, 3)
    with pytest.raises(InputError, match=message):
        LabeledPoset(4, 3, 0, [0, 1, 1, 2], covers)


def test_two_element_chain_passes():
    lp = LabeledPoset(2, 1, 0, [0, 1], [(1, 0, 0, "x")], ["bot", "top"])
    rep = lp.verify_dual_el()
    assert rep["status"] == "PASS" and rep["intervals_checked"] == 1


@st.composite
def graded_covers(draw):
    """Random graded poset: ids shuffled over levels, covers between
    consecutive levels only.  Returns (ids in level order, lower covers)."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=5))
    ids = draw(st.permutations(range(sum(sizes))))
    levels = []
    for size in sizes:
        levels.append(ids[:size])
        ids = ids[size:]
    lower = [[] for _ in range(sum(sizes))]
    for below, above in zip(levels, levels[1:]):
        for i in above:
            lower[i] = draw(st.lists(st.sampled_from(below), unique=True))
    return [i for level in levels for i in level], lower


@settings(deadline=None)
@given(graded_covers())
def test_closure_bits_is_reachability(case):
    order, lower = case
    down = closure_bits(order, lower)
    n = len(lower)
    upper = [[] for _ in range(n)]
    for i in range(n):
        for j in lower[i]:
            upper[j].append(i)
    for i in range(n):
        for edges, want in ((lower, down[i]), (upper, up_set(down, i))):
            reached, stack = {i}, [i]
            while stack:
                for j in edges[stack.pop()]:
                    if j not in reached:
                        reached.add(j)
                        stack.append(j)
            assert want == sum(1 << j for j in reached)


def _ranks(chain):
    return [e[2] for e in chain]


def _increasing(chain):
    return _ranks(chain) == sorted(_ranks(chain))


def oracle_report(lp):
    """verify_dual_el by brute force: an interval passes iff exactly one
    maximal chain is weakly increasing and it is the least by rank sequence."""
    checked, violations = 0, []
    for u in range(lp.n):
        for v in range(lp.n):
            if u == lp.top or v == u or not lp.leq(u, v):
                continue
            checked += 1
            chains = lp.all_maximal_chains(u, v)
            inc = [ch for ch in chains if _increasing(ch)]
            if len(inc) != 1:
                bad = f"{len(inc)} label-increasing maximal chains"
            elif inc[0] != min(chains, key=_ranks):
                bad = "the increasing chain is not lexicographically least"
            else:
                continue
            violations.append({
                "w": lp.names[u], "w_prime": lp.names[v], "reason": bad,
                "chains": [[e[3] for e in ch] for ch in chains[:24]]})
    violations.sort(key=lambda x: (x["w"], x["w_prime"]))
    return {"status": "PASS" if not violations else "FAIL",
            "intervals_checked": checked, "violations": violations}


def reference_verify_dual_el(lp):
    """verify_dual_el as one pass per bottom u over the up-set of u: each
    down-edge gets its count of increasing chains from _chain_counts, and the
    greedy chain of [u, v] follows the minimum-rank edge into the up-set.
    The up-set of u is a search up the covers, not read off lp.down."""
    upper = [[] for _ in range(lp.n)]
    for up, lo, _, _ in lp.covers:
        upper[lo].append(up)
    checked = 0
    violations = []
    for u in range(lp.n):
        if u == lp.top:
            continue
        above, stack = 1 << u, [u]
        while stack:
            for v in upper[stack.pop()]:
                if not above >> v & 1:
                    above |= 1 << v
                    stack.append(v)
        table = lp._chain_counts(u, above)
        greedy = {}
        for v, edges in table.items():
            lo, rank = edges[0][:2]
            greedy[v] = lo == u or (greedy[lo]
                                    and rank <= table[lo][0][1])
        for v in sorted(table):
            checked += 1
            c = sum(e[3] for e in table[v])
            if c != 1:
                bad = f"{c} label-increasing maximal chains"
            elif not greedy[v]:
                bad = "the increasing chain is not lexicographically least"
            else:
                continue
            chains = lp.all_maximal_chains(u, v, cap=24)
            violations.append({
                "w": lp.names[u],
                "w_prime": lp.names[v],
                "reason": bad,
                "chains": [[e[3] for e in ch] for ch in chains],
            })
    violations.sort(key=lambda v: (v["w"], v["w_prime"]))
    return {"status": "PASS" if not violations else "FAIL",
            "intervals_checked": checked,
            "violations": violations}


@st.composite
def labeled_graded_covers(draw):
    """(n, lengths, covers) of a random labeled graded poset with bottom 0
    and top n-1, the covers in random order.  The covers of one element get
    distinct ranks from 0..5, so equal ranks on consecutive edges of a chain
    occur."""
    sizes = [1] + draw(st.lists(st.integers(1, 3), max_size=4)) + [1]
    levels, n = [], 0
    for size in sizes:
        levels.append(range(n, n + size))
        n += size
    lengths = [k for k, level in enumerate(levels) for _ in level]
    covers = []
    for below, above in zip(levels, levels[1:]):
        lower = {i: set(draw(st.lists(st.sampled_from(below), min_size=1,
                                      unique=True)))
                 for i in above}
        for j in below:
            if not any(j in lows for lows in lower.values()):
                lower[draw(st.sampled_from(above))].add(j)
        for i in above:
            ranks = draw(st.lists(st.integers(0, 5), unique=True,
                                  min_size=len(lower[i]),
                                  max_size=len(lower[i])))
            covers += [(i, j, r, f"r{r}")
                       for j, r in zip(sorted(lower[i]), ranks)]
    return n, lengths, draw(st.permutations(covers))


def labeled_graded_posets():
    return labeled_graded_covers().map(
        lambda case: LabeledPoset(case[0], case[0] - 1, 0, *case[1:]))


@settings(deadline=None, max_examples=300)
@given(labeled_graded_posets())
def test_verify_dual_el_matches_chain_oracle(lp):
    assert lp.verify_dual_el() == oracle_report(lp)


@settings(deadline=None, max_examples=300)
@given(labeled_graded_covers())
def test_verify_dual_el_matches_reference(case):
    n, lengths, covers = case
    lp = LabeledPoset(n, n - 1, 0, lengths, covers)
    assert lp.verify_dual_el() == reference_verify_dual_el(lp)
    # down_adj is the one cover table: covers is read off it, and the input
    # may come in any order, or as a generator
    assert lp.covers == sorted(covers, key=lambda c: (c[0], c[1]))
    assert LabeledPoset(n, n - 1, 0, lengths, (c for c in covers)) == lp
    assert "covers" not in vars(lp)


def ncm_oracle(lp):
    """ncm_check by brute force on induced sub-posets: purity from the lengths
    of every maximal chain, then every order of the maxima, with no memo."""
    def lt(x, y):
        return x != y and lp.leq(x, y)

    def pure_length(S):
        # the common length of the maximal chains of S, or None
        lengths = set()

        def climb(x, k):
            above = [y for y in S if lt(x, y)]
            covers = [y for y in above
                      if not any(lt(z, y) for z in above)]
            for y in covers:
                climb(y, k + 1)
            if not covers:
                lengths.add(k)

        for x in S:
            if not any(lt(y, x) for y in S):
                climb(x, 0)
        return lengths.pop() if len(lengths) == 1 else None

    def ncm(S, N):
        if not S or pure_length(S) != N:
            return False
        tops = [x for x in S if not any(lt(x, y) for y in S)]

        def below(x):
            return {z for z in S if lp.leq(z, x)}

        return any(
            all(ncm(below(seq[j]) & set().union(*map(below, seq[:j])), N - 1)
                for j in range(1, len(seq)))
            for seq in itertools.permutations(tops))

    rest = {x for x in range(lp.n) if x != lp.top}
    return ncm(rest, lp.lengths[lp.top] - lp.lengths[lp.zero] - 1)


@settings(deadline=None, max_examples=300)
@given(labeled_graded_posets())
def test_ncm_check_matches_oracle(lp):
    assert lp.ncm_check() == ncm_oracle(lp)


def reversed_ids(lp):
    """lp with id i renamed n-1-i, so that the ids run against the order."""
    def r(i):
        return lp.n - 1 - i
    return LabeledPoset(lp.n, r(lp.top), r(lp.zero), lp.lengths[::-1],
                        [(r(up), r(lo), rank, label)
                         for up, lo, rank, label in lp.covers],
                        lp.names[::-1])


def ids_extend_the_order(lp):
    return all(d >> i == 1 for i, d in enumerate(lp.down))


@settings(deadline=None, max_examples=300)
@given(labeled_graded_posets())
def test_ncm_check_agrees_on_both_id_layouts(lp):
    # the verdict must not depend on whether the ids extend the order (lp)
    # or run against it (the reversed ids)
    rev = reversed_ids(lp)
    assert ids_extend_the_order(lp) and not ids_extend_the_order(rev)
    assert lp.ncm_check() == rev.ncm_check() == ncm_oracle(lp)


@settings(deadline=None, max_examples=300)
@given(labeled_graded_posets())
def test_recursive_coatom_pass_implies_ncm(lp):
    # at every level the coatom check tries the label order of F first, on
    # the same ideals as the N-CM recursion
    if lp.recursive_coatom_check()[0]:
        assert lp.ncm_check()


def test_label_order_alone_certifies_the_theorem_matrix(monkeypatch):
    class NoSearch:
        @staticmethod
        def permutations(seq):
            raise AssertionError("the label order failed on some ideal")

    monkeypatch.setattr(shellcheck, "itertools", NoSearch)
    checked = 0
    for name, mu, K in matrix_entries():
        lp = pipeline(name, mu, K)[2]
        coatoms = [lo for lo, _, _ in lp.down_adj[lp.top]]
        for k in range(1, len(coatoms) + 1):
            assert lp.ideal_restriction(coatoms[:k]).ncm_check()
            checked += 1
    assert checked == 691


def test_ncm_check_fails_on_two_chains_and_a_point():
    # 0 < a < c and 0 < b < d under one top: the ideals of c and d meet in
    # {0}, which has rank 0, not 1
    lp = LabeledPoset(6, 5, 0, [0, 1, 1, 2, 2, 3],
                      [(1, 0, 0, "a"), (2, 0, 1, "b"), (3, 1, 0, "c"),
                       (4, 2, 0, "d"), (5, 3, 0, "t1"), (5, 4, 1, "t2")],
                      ["0", "a", "b", "c", "d", "top"])
    assert lp.ncm_check() is False
    assert ncm_oracle(lp) is False
    point = LabeledPoset(1, 0, 0, [0], [])
    assert point.ncm_check() is False
    assert ncm_oracle(point) is False


def test_gl3_verify_passes(gl3_case):
    _, _, lp = gl3_case
    rep = lp.verify_dual_el()
    assert rep["status"] == "PASS"
    assert rep["intervals_checked"] == 12
    assert rep["violations"] == []


def gl3_scrambled(gl3_case):
    poset, _, _ = gl3_case
    d = poset.datum
    a1, a2 = d.simple_roots
    theta = d.components[0][1]
    scrambled = [poset.WJK[0], AffineRoot(neg(theta), 1),
                 AffineRoot(neg(a2), 1), poset.WJK[1],
                 AffineRoot(neg(a1), 1), AffineRoot(a2, 0)]
    order = LabelOrder(d, poset.K, scrambled)
    return label_edges(poset, order)


def test_gl3_scrambled_order_fails(gl3_case):
    lp = gl3_scrambled(gl3_case)
    rep = lp.verify_dual_el()
    assert rep["status"] == "FAIL"
    assert rep["violations"]
    first = rep["violations"][0]
    assert first["chains"]


# theorem-matrix posets whose label orders are shuffled by a seeded random
SCRAMBLED = [("A2", (1, 1), ()), ("B2", (1, 1), ()), ("A2", (2, 1), ("a1",))]


def scrambled_posets(gl3_case):
    out = [gl3_scrambled(gl3_case)]
    for name, mu, K in SCRAMBLED:
        d = datum(name)
        poset, order, _ = pipeline(name, mu, canonical_K(d, K))
        for seed in (1, 2):
            seq = random.Random(seed).sample(order.sequence,
                                             len(order.sequence))
            out.append(label_edges(poset, LabelOrder(d, poset.K, seq)))
    return out


def test_verify_dual_el_matches_reference_on_scrambled_orders(gl3_case):
    reasons = set()
    for lp in scrambled_posets(gl3_case):
        rep = lp.verify_dual_el()
        assert rep == reference_verify_dual_el(lp)
        reasons |= {v["reason"] for v in rep["violations"]}
    # both failure reasons, with counts of 0 and of at least 2
    assert {"0 label-increasing maximal chains",
            "2 label-increasing maximal chains",
            "3 label-increasing maximal chains",
            "the increasing chain is not lexicographically least"} <= reasons


def test_verify_dual_el_matches_reference_on_small_and_restricted(gl3_case):
    posets = [LabeledPoset(1, 0, 0, [0], []),
              LabeledPoset(2, 1, 0, [0, 1], [(1, 0, 0, "x")], ["bot", "top"])]
    for lp in [gl3_case[2]] + scrambled_posets(gl3_case):
        coatoms = [lo for lo, _, _ in lp.down_adj[lp.top]]
        posets += [lp.ideal_restriction(coatoms[:k])
                   for k in range(1, len(coatoms) + 1)]
    reports = [lp.verify_dual_el() for lp in posets]
    assert reports == [reference_verify_dual_el(lp) for lp in posets]
    assert reports[0]["intervals_checked"] == 0
    assert any(rep["status"] == "FAIL" for rep in reports)


def test_distinguished_chain_gl3(gl3_case):
    poset, order, lp = gl3_case
    sd = compute_sigma(poset, poset.tau())
    gateway = poset.maximal_ids[poset.WJK.index(sd.a_min_K)]
    chain = lp.distinguished_chain(poset.tau_id, gateway)
    assert [e[3] for e in chain] == ["eta(s1)", "(-a1,1)", "(a2,0)"]
    tau_s0 = next(i for i, w in enumerate(poset.elements)
                  if w.name() == "t[0,1,0] s2")
    sd0 = compute_sigma(poset, poset.elements[tau_s0])
    gid = poset.maximal_ids[poset.WJK.index(sd0.a_min_K)]
    chain0 = lp.distinguished_chain(tau_s0, gid)
    assert [e[3] for e in chain0] == ["eta(s1)", "(a2,0)"]


def test_distinguished_chain_is_the_increasing_chain():
    for name, mu, K in [("GL3", (1, 0, 0), ("a1",)), ("A1", (1,), ("a1",)),
                        ("A2", None, ())]:
        d = datum(name)
        if mu is None:
            mu = tuple(sum(av[i] for av in d.simple_coroots)
                       for i in range(d.rank))
        poset, order, lp = pipeline(name, mu, canonical_K(d, K))
        for w_id in range(len(poset.elements)):
            sd = compute_sigma(poset, poset.elements[w_id])
            gid = poset.maximal_ids[poset.WJK.index(sd.a_min_K)]
            chain = lp.distinguished_chain(w_id, gid)
            chains = lp.all_maximal_chains(w_id, lp.top)
            assert [ch for ch in chains if _increasing(ch)] == [chain]
            assert chain == min(chains, key=_ranks)


def test_distinguished_chain_maximal_is_single_edge(gl3_case):
    poset, _, lp = gl3_case
    for a, mid in zip(poset.WJK, poset.maximal_ids):
        chain = lp.distinguished_chain(mid, mid)
        assert len(chain) == 1
        assert chain[0][3] == f"eta({a.word_str()})"


def test_covers_in_sets_positions_in_label_order(gl3_case):
    # bit k of F stands for down_adj[x][k]: the union of the down-sets of
    # the covers at the positions in a mask gives back that mask, pure
    _, _, lp = gl3_case
    seen = 0
    for x in range(lp.n):
        covers = [lo for lo, _, _ in lp.down_adj[x]]
        for F in range(1 << len(covers)):
            ideal = 0
            for k, lo in enumerate(covers):
                if F >> k & 1:
                    ideal |= lp.down[lo]
            assert lp._covers_in(x, ideal) == (F, True)
            seen += F.bit_count() > 1
        # an element two lengths down, alone, is no cover and not pure
        for lo in covers:
            for z, _, _ in lp.down_adj[lo]:
                assert lp._covers_in(x, lp.down[z]) == (0, False)
    assert seen  # some mask names two covers


def test_recursive_coatom_chain_and_gl3(gl3_case):
    lp_chain = LabeledPoset(3, 2, 0, [0, 1, 2],
                            [(2, 1, 0, "b"), (1, 0, 1, "a")])
    ok, ordering = lp_chain.recursive_coatom_check()
    assert ok and len(ordering) == 1
    _, _, lp = gl3_case
    ok, ordering = lp.recursive_coatom_check()
    assert ok
    assert ordering == ["t[0,1,0]", "t[0,0,1]"]


def reference_recursive_coatom_check(lp):
    """recursive_coatom_check with the lower covers that meet the earlier
    siblings kept as frozensets, as before the bitmask."""
    down, down_adj = lp.down, lp.down_adj
    memo = {}

    def attempt(top_el, first):
        key = (top_el, first)
        got = memo.get(key)
        if got is not None:
            return got
        memo[key] = True
        if lp.lengths[top_el] - lp.lengths[lp.zero] <= 1:
            return True
        ordering = sorted(down_adj[top_el],
                          key=lambda t: (t[0] not in first, t[1], t[0]))
        ok = coatom_conditions([c for c, _, _ in ordering])
        memo[key] = ok
        return ok

    def coatom_conditions(ids):
        prev = 0
        for xj in ids:
            fj = frozenset(z for z, _, _ in down_adj[xj] if prev >> z & 1)
            if not attempt(xj, fj):
                return False
            reachable = 0
            for z in fj:
                reachable |= down[z]
            if prev & down[xj] & ~(1 << xj) & ~reachable:
                return False
            prev |= down[xj]
        return True

    ok = attempt(lp.top, frozenset())
    return ok, [lp.names[lo] for lo, _, _ in down_adj[lp.top]]


@settings(deadline=None, max_examples=300)
@given(labeled_graded_posets())
def test_recursive_coatom_check_matches_reference(lp):
    assert lp.recursive_coatom_check() == reference_recursive_coatom_check(lp)


def test_recursive_coatom_check_matches_reference_on_scrambled(gl3_case):
    verdicts = set()
    for lp in [gl3_case[2]] + scrambled_posets(gl3_case):
        got = lp.recursive_coatom_check()
        assert got == reference_recursive_coatom_check(lp)
        verdicts.add(got[0])
    assert verdicts == {True, False}


def test_recursive_coatom_boolean_lattice():
    # subsets of {1,2} ordered by inclusion; labels by the inserted element
    lp = LabeledPoset(4, 3, 0, [0, 1, 1, 2],
                      [(3, 1, 1, "2"), (3, 2, 0, "1"),
                       (1, 0, 0, "1"), (2, 0, 1, "2")],
                      ["{}", "{1}", "{2}", "{1,2}"])
    ok, _ = lp.recursive_coatom_check()
    assert ok


def test_ncm_examples(gl3_case):
    _, _, lp = gl3_case
    assert lp.ncm_check()
    chain = LabeledPoset(3, 2, 0, [0, 1, 2], [(2, 1, 0, "b"), (1, 0, 1, "a")])
    assert chain.ncm_check()


def dual_el_rows():
    """Labeled posets at the regular coweight of A2 and B2, several K."""
    out = []
    for name, K in [("A2", ()), ("A2", ("a1",)), ("B2", ("a2",))]:
        d = datum(name)
        mu = tuple(sum(av[i] for av in d.simple_coroots)
                   for i in range(d.rank))
        out.append(pipeline(name, mu, canonical_K(d, K))[2])
    return out


def test_dual_el_implies_coatom_and_ncm():
    for lp in dual_el_rows():
        assert lp.verify_dual_el()["status"] == "PASS"
        ok, _ = lp.recursive_coatom_check()
        assert ok
        assert lp.ncm_check()


def coatom_states(lp, monkeypatch):
    """(verdict, the ids list of each _in_order call) of one coatom check."""
    calls = []
    real = LabeledPoset._in_order

    def spy(self, ids, step):
        calls.append(tuple(ids))
        return real(self, ids, step)

    with monkeypatch.context() as m:
        m.setattr(LabeledPoset, "_in_order", spy)
        return lp.recursive_coatom_check(), calls


def label_lists(lp):
    """How many elements have each tuple of lower covers in label order."""
    return collections.Counter(tuple(lo for lo, _, _ in adj)
                               for adj in lp.down_adj)


def test_coatom_check_one_state_per_element_on_pass_rows(gl3_case,
                                                         monkeypatch):
    # a prefix first orders the covers as first = 0 does and shares its
    # state, so on a PASS row each element is ordered at most once, and in
    # label order
    for lp in [gl3_case[2]] + dual_el_rows():
        (ok, _), calls = coatom_states(lp, monkeypatch)
        assert ok
        expected = label_lists(lp)
        seen = collections.Counter(calls)
        assert all(seen[ids] <= expected[ids] for ids in seen)
        assert len(calls) <= lp.n


def test_coatom_check_non_prefix_first_keeps_its_state(gl3_case,
                                                       monkeypatch):
    # covers met by earlier siblings out of label order come first, an
    # ordering of their own
    scrambled = 0
    for lp in scrambled_posets(gl3_case):
        got, calls = coatom_states(lp, monkeypatch)
        assert got == reference_recursive_coatom_check(lp)
        expected = label_lists(lp)
        scrambled += sum(ids not in expected for ids in calls)
    assert scrambled


def test_ideal_restriction_gl3(gl3_case):
    poset, order, lp = gl3_case
    # the ideal of the first maximal element contains four poset elements
    first = poset.maximal_ids[0]
    sub = lp.ideal_restriction([first])
    assert sorted(sub.names) == sorted(
        ["t[1,0,0] s1 s2", "t[0,1,0] s2", "t[1,0,0] s1", "t[0,1,0]", "1^"])
    assert sub.verify_dual_el()["status"] == "PASS"
    assert sub.ncm_check()
    # the whole set of coatoms gives back the full poset
    full = lp.ideal_restriction(poset.maximal_ids)
    assert full.n == lp.n
    assert full.verify_dual_el()["status"] == "PASS"
    with pytest.raises(InputError):
        lp.ideal_restriction([])
    with pytest.raises(InputError):
        lp.ideal_restriction([poset.maximal_ids[1]])  # not downward closed


def test_json_roundtrip(gl3_case):
    _, _, lp = gl3_case
    again = LabeledPoset.from_json_dict(lp.to_json_dict())
    assert again == lp
    assert again.to_json() == lp.to_json()


def test_dot_output(gl3_case):
    _, _, lp = gl3_case
    text = lp.to_dot()
    assert text.startswith("digraph poset")
    assert '"t[1,0,0] s1 s2" -> "t[0,1,0] s2"' in text


# the ladder rows of the benchmark, outside the theorem matrix
LADDER_ROWS = [("A3-adjoint", "1,1,1", "fw", ""),
               ("C3-adjoint", "1,0,1", "fw", ""),
               ("B3-adjoint", "1,0,1", "fw", "")]


def ladder_poset(name, mu, basis, K):
    d = build_root_datum(name)
    poset = build_admissible(d, _parse_mu(d, mu, basis), _parse_K(d, K))
    return label_edges(poset, build_label_order(poset))


# sha256 over the dual-EL report of every theorem-matrix labeled poset, then
# of the three ladder posets.  Recorded while the check still made one pass
# per bottom; a faster check must leave every report byte-identical.
DUAL_EL_SHA256 = ("b2c99f424401d6b883924a54e1e899f4"
                  "5284556d93e57094cdb529d22e52009f")


def test_dual_el_reports_are_byte_identical():
    h = hashlib.sha256()
    posets = [pipeline(name, mu, K)[2] for name, mu, K in matrix_entries()]
    posets += [ladder_poset(*row) for row in LADDER_ROWS]
    for lp in posets:
        h.update(json.dumps(lp.verify_dual_el(), sort_keys=True).encode())
        h.update(b"\n")
    assert len(posets) == 399
    assert h.hexdigest() == DUAL_EL_SHA256
