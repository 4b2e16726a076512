import copy
import hashlib
import itertools

import pytest

from admshell import PropertyViolation
from admshell.exact import vec_add, vec_sub
from conftest import (all_shortest_paths, check_longer_walks_weigh_more,
                      datum, path_weight, reverse_search)


def wgroup(name):
    return datum(name).weyl_group()


def test_a1_edges():
    d = datum("A1")
    g = d.qbg()
    W = d.weyl_group()
    out_id = g.out[W.index[W.identity]]
    out_s = g.out[W.index[W.simple(0)]]
    assert [(e.quantum, tuple(e.weight)) for e in out_id] == [(False, (0,))]
    assert [(e.quantum, tuple(e.weight)) for e in out_s] == \
        [(True, tuple(d.simple_coroots[0]))]


def test_a2_quantum_edges_from_longest():
    d = datum("A2")
    g = d.qbg()
    W = d.weyl_group()
    w0 = W.longest_element()
    s1, s2 = W.simple(0), W.simple(1)
    quantum = {(W.elements[e.dst], tuple(e.weight))
               for e in g.out[W.index[w0]] if e.quantum}
    a1v, a2v = d.simple_coroots
    theta_v = d.components[0][2]
    assert (s1 * s2, a1v) in quantum
    assert (s2 * s1, a2v) in quantum
    # the theta-edge drops straight to the identity
    assert (W.identity, theta_v) in quantum
    assert d.pairing(theta_v, d.two_rho) == 4
    theta = d.components[0][1]
    assert (w0 * W.reflection(theta)).length == 0


def test_distance_and_weight_examples():
    d = datum("A2")
    g = d.qbg()
    W = d.weyl_group()
    for u in W:
        assert g.distance_and_weight(u, u) == (0, (0,) * d.rank)
    w0 = W.longest_element()
    dist, wt = g.distance_and_weight(w0, W.identity)
    assert dist == 1 and wt == d.components[0][2]


def test_wt_zero_iff_bruhat_leq():
    for name in ["A2", "B2"]:
        d = datum(name)
        g = d.qbg()
        W = d.weyl_group()
        zero = (0,) * d.rank
        for u in W:
            for v in W:
                assert (g.wt(u, v) == zero) == W.bruhat_leq(u, v)


def test_up_edges_are_the_bruhat_covers():
    # the lifting walks of bruhat_leq decide each cover
    for name in ["A3", "B3", "G2"]:
        g = datum(name).qbg()
        W = g.group
        for i, u in enumerate(W):
            covers = [j for j, v in enumerate(W)
                      if v.length == u.length + 1 and W.bruhat_leq(u, v)]
            assert sorted(g.up[i]) == covers


def test_all_shortest_paths():
    d = datum("A2")
    g = d.qbg()
    W = d.weyl_group()
    assert all_shortest_paths(g, W.identity, W.identity) == [[]]
    w0 = W.longest_element()
    down = all_shortest_paths(g, w0, W.identity)
    assert any(len(p) == 1 for p in down)
    # shortest paths up to the longest element are the maximal Bruhat chains;
    # their count comes from an independent cover-walk oracle
    covers_up = {w: [w * t for t in W.reflections
                     if (w * t).length == w.length + 1] for w in W}

    def chains(w):
        if w == w0:
            return 1
        return sum(chains(x) for x in covers_up[w])

    up = all_shortest_paths(g, W.identity, w0)
    assert len(up) == chains(W.identity) == 4
    for p in up:
        assert all(not e.quantum for e in p)


def test_weight_coherence_and_monotonicity():
    for name in ["A2", "B2"]:
        d = datum(name)
        g = d.qbg()
        W = d.weyl_group()
        for u in W:
            for v in W:
                dist, wt = g.distance_and_weight(u, v)
                paths = all_shortest_paths(g, u, v)
                assert all(len(p) == dist for p in paths)
                assert {path_weight(g, p) for p in paths} == {wt}
        # every walk of d+2 edges weighs more, checked against enumeration
        check_longer_walks_weigh_more(g)


def test_triangle_inequality():
    for name in ["A2", "B2"]:
        d = datum(name)
        g = d.qbg()
        W = list(d.weyl_group())
        for u, v, w in itertools.product(W, repeat=3):
            lhs = g.wt(u, w)
            rhs = vec_add(g.wt(u, v), g.wt(v, w))
            assert d.in_coroot_cone(vec_sub(rhs, lhs))


def test_downup_and_updown_shapes():
    for name in ["A2", "B2"]:
        d = datum(name)
        g = d.qbg()
        W = d.weyl_group()
        for u in W:
            for v in W:
                if u == v:
                    assert g.downup_path(u, v) == []
                    continue
                dist, wt = g.distance_and_weight(u, v)
                for path, pred in [(g.downup_path(u, v), g.is_downup),
                                   (g.updown_path(u, v), g.is_updown)]:
                    assert len(path) == dist
                    assert path_weight(g, path) == wt
                    assert pred(path)
                    assert W.elements[path[0].src] == u
                    assert W.elements[path[-1].dst] == v
                    assert all(a.dst == b.src for a, b in zip(path, path[1:]))


def test_downup_all_quantum_path_kept():
    d = datum("A2")
    g = d.qbg()
    W = d.weyl_group()
    w0 = W.longest_element()
    path = g.downup_path(w0, W.identity)
    assert all(e.quantum for e in path)


def test_downup_matches_oracle_enumeration():
    d = datum("A2")
    g = d.qbg()
    W = d.weyl_group()
    s1, s2 = W.simple(0), W.simple(1)
    path = g.downup_path(s1, s2)
    oracle = [p for p in all_shortest_paths(g, s1, s2) if g.is_downup(p)]
    assert oracle and path in oracle


def test_dot_export():
    text = datum("A2").qbg().to_dot()
    assert text.startswith("digraph qbg")
    assert "style=dashed" in text and "style=solid" in text


# sha256 of the sorted lines of `to_dot()` (`qbg --out dot`), recorded when
# each length layer of W was still sorted by its weight matrix.  The element
# order sets only the line order: the rank-2 types keep their bytes, A3 and
# B3 list their lines in another order.
DOT_SORTED_SHA256 = {
    "A2": "f37561b23ba87a6648391b494f06a33bb0e32e9477ec729f477e735315d325e5",
    "B2": "9db7612489c9ffc786d34fca0a1b3d3cfa8d9c7e4eb8f81bfb4ba2e49cc2377c",
    "G2": "a889a4f45a7dd1520031675d2c00b0235c442bb308fc88dfef297e883c67da58",
    "GL3": "f37561b23ba87a6648391b494f06a33bb0e32e9477ec729f477e735315d325e5",
    "A1xA1": "07ec637b5fdcba31a2992928c128289c86fc428865a8e98bcee405ab5770fe1c",
    "A3": "510b98ae3996be297971459a288c34c35a68da9a861bef149ce70993e9643022",
    "B3": "3ec28043c7a609ddc2cf7c4140c0b672c25525ca57f54c50055a0fdddc9f573c",
}


@pytest.mark.parametrize("name", sorted(DOT_SORTED_SHA256))
def test_dot_lines_are_pinned_up_to_order(name):
    lines = sorted(datum(name).qbg().to_dot().splitlines())
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == DOT_SORTED_SHA256[name]


def tampered(name, edit):
    """A copy of the graph of `name`, with `edit` applied to its edge lists."""
    g = copy.copy(datum(name).qbg())
    g.out = [list(es) for es in g.out]
    g._dist = [None] * len(g.out)
    g._wt = [None] * len(g.out)
    edit(g)
    g.into = [[] for _ in g.out]
    for es in g.out:
        for e in es:
            g.into[e.dst].append(e)
    return g


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "GL3", "B3", "C3", "D4"])
def test_reverse_search_matches_the_forward_tables(name):
    d = datum(name)
    g = d.qbg()
    W = d.weyl_group()
    for v in W:
        dist, wt = reverse_search(g, v)
        assert g.weights(v, into=True) == wt
        assert [(dz, wz) for dz, wz in zip(dist, wt)] == \
            [g.distance_and_weight(z, v) for z in W]
    for u in W:
        assert g.weights(u) == [g.wt(u, z) for z in W]


@pytest.mark.parametrize("name", [
    "A1", "A2", "A3", "A4", "B2", "B3", "C2", "C3", "D4", "G2", "GL2", "GL3",
    "GL4", "A1xA1", "A1xA2", "A3-adjoint", "B3-adjoint", "C3-adjoint",
    "D4-adjoint", "B4-adjoint", "F4"])
def test_left_multiplication_by_w0_reverses_every_edge(name):
    # the ground for reading wt(z, v) off the search from w0*v
    d = datum(name)
    g = d.qbg()
    W = d.weyl_group()
    w0 = W.longest_element()
    m = [W.index[w0 * w] for w in W]
    edges = {(e.src, e.dst, e.root_idx, e.quantum, tuple(e.weight))
             for es in g.out for e in es}
    assert {(m[b], m[a], r, q, wt) for a, b, r, q, wt in edges} == edges


def test_bfs_rejects_incoherent_shortest_path_weights():
    # the longest element of A2 is reached from the identity along two
    # length-3 upward paths; a weight on one of their last edges splits them
    W = wgroup("A2")
    top = W.index[W.longest_element()]

    def corrupt(g):
        a = next(a for a, es in enumerate(g.out)
                 if any(e.dst == top and not e.quantum for e in es))
        k = next(k for k, e in enumerate(g.out[a]) if e.dst == top)
        g.out[a][k] = g.out[a][k]._replace(weight=(1, 0))

    # the search from the identity, which also serves the weights into the top
    for query in (lambda g: g.distance_and_weight(W.identity, top),
                  lambda g: g.weights(top, into=True)):
        with pytest.raises(PropertyViolation,
                           match="shortest paths with different weights"):
            query(tampered("A2", corrupt))


def test_bfs_rejects_a_disconnected_graph():
    # the quantum edge s -> e is the only way back to the identity in A1
    W = wgroup("A1")
    s = W.index[W.simple(0)]

    def drop(g):
        g.out[s] = [e for e in g.out[s] if e.dst != W.index[W.identity]]

    # nothing leads on from s; the weights into the identity are read off the
    # search from s as well
    for query in (lambda g: g.distance_and_weight(s, s),
                  lambda g: g.weights(W.identity, into=True)):
        with pytest.raises(PropertyViolation, match="not connected"):
            query(tampered("A1", drop))


@pytest.mark.parametrize("src, dst, u, v, d, broken", [
    # without the upward edge e -> s1, every shortest path from e to s1
    # climbs before its one quantum edge
    ("e", "s1", "e", "s1", 3, "down-up"),
    # without the quantum edge s1 s2 -> s1, the one shortest path from s2
    # to s1 descends to e before it climbs
    ("s1 s2", "s1", "s2", "s1", 2, "up-down"),
])
def test_paths_on_a_graph_without_one_edge(src, dst, u, v, d, broken):
    W = wgroup("A2")
    word = {w.word_str(): W.index[w] for w in W}
    src, dst, u, v = (word[x] for x in (src, dst, u, v))

    def drop(g):
        g.out[src] = [x for x in g.out[src] if x.dst != dst]

    g = tampered("A2", drop)
    assert g.distance_and_weight(u, v)[0] == d
    shapes = {"down-up": g.downup_path, "up-down": g.updown_path}
    with pytest.raises(PropertyViolation, match=broken):
        shapes.pop(broken)(u, v)
    (find,) = shapes.values()
    path = find(u, v)
    assert len(path) == d and all(x in g.out[x.src] for x in path)
    assert [x.src for x in path] == [u] + [x.dst for x in path[:-1]]
    assert path[-1].dst == v
