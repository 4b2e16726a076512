import copy
import itertools

import pytest

from admshell import PropertyViolation
from admshell.exact import vec_add, vec_sub
from conftest import datum


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


def test_all_shortest_paths():
    d = datum("A2")
    g = d.qbg()
    W = d.weyl_group()
    assert g.all_shortest_paths(W.identity, W.identity) == [[]]
    w0 = W.longest_element()
    down = g.all_shortest_paths(w0, W.identity)
    assert any(len(p) == 1 for p in down)
    # shortest paths up to the longest element are the maximal Bruhat chains;
    # their count comes from an independent cover-walk oracle
    covers_up = {w: [w * t for t in W.reflections
                     if (w * t).length == w.length + 1] for w in W}

    def chains(w):
        if w == w0:
            return 1
        return sum(chains(x) for x in covers_up[w])

    up = g.all_shortest_paths(W.identity, w0)
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
                paths = g.all_shortest_paths(u, v)
                assert all(len(p) == dist for p in paths)
                assert {g.path_weight(p) for p in paths} == {wt}
                longer = g.paths_of_length(u, v, dist + 2, cap=4000)
                for p in longer:
                    pw = g.path_weight(p)
                    assert pw != wt
                    assert d.in_coroot_cone(vec_sub(pw, wt))


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
                    assert g.path_weight(path) == wt
                    assert pred(path)
                    assert W.elements[path[0].src] == u
                    assert W.elements[path[-1].dst] == v


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
    oracle = [p for p in g.all_shortest_paths(s1, s2) if g.is_downup(p)]
    assert oracle and path in oracle


def test_dot_export():
    text = datum("A2").qbg().to_dot()
    assert text.startswith("digraph qbg")
    assert "style=dashed" in text and "style=solid" in text


def tampered(name, edit):
    """A copy of the graph of `name`, with `edit` applied to its edge lists."""
    g = copy.copy(datum(name).qbg())
    g.out = [list(es) for es in g.out]
    g._dist = [None] * len(g.out)
    g._wt = [None] * len(g.out)
    edit(g)
    return g


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

    with pytest.raises(PropertyViolation,
                       match="shortest paths with different weights"):
        tampered("A2", corrupt).distance_and_weight(W.identity, top)


def test_bfs_rejects_a_disconnected_graph():
    # the quantum edge s -> e is the only way back to the identity in A1
    W = wgroup("A1")
    s = W.index[W.simple(0)]

    def drop(g):
        g.out[s] = [e for e in g.out[s] if e.dst != W.index[W.identity]]

    with pytest.raises(PropertyViolation, match="not connected"):
        tampered("A1", drop).distance_and_weight(s, s)
