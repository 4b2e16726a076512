import itertools
from functools import lru_cache

import pytest

import admshell as ash
from admshell.admissible import canonical_K, is_spherical
from admshell.affine import AffineElement, covers_down, simple_reflection
from admshell.exact import vec_add, vec_sub


# exceptional types as explicit data, by their simple coroots: the simple
# roots are the unit vectors and simple coroot i is column i of the Bourbaki
# Cartan matrix
EXPLICIT_DATA = {
    "F4": [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -2, 2, -1], [0, 0, -1, 2]],
    "E6": [[2, 0, -1, 0, 0, 0], [0, 2, 0, -1, 0, 0], [-1, 0, 2, -1, 0, 0],
           [0, -1, -1, 2, -1, 0], [0, 0, 0, -1, 2, -1], [0, 0, 0, 0, -1, 2]],
}


@lru_cache(maxsize=None)
def datum(name):
    coroots = EXPLICIT_DATA.get(name)
    if coroots is None:
        return ash.build_root_datum(name)
    n = len(coroots)
    units = [[int(i == j) for j in range(n)] for i in range(n)]
    return ash.build_root_datum({"simple_roots": units,
                                 "simple_coroots": coroots, "name": name})


@lru_cache(maxsize=None)
def affine_ball(name, radius):
    """All elements of W_aff with length <= radius, plus a Bruhat-order oracle.

    Grown from the identity by simple affine reflections, so this is the right
    ball for the simply-connected presets (where the extended group has no
    extra length-zero part).
    """
    d = datum(name)
    simples = [simple_reflection(d, ar) for ar in d.simple_affine_roots()]
    seen = {AffineElement.identity(d)}
    frontier = list(seen)
    while frontier:
        new = []
        for w in frontier:
            if w.length >= radius:
                continue
            for s in simples:
                t = w * s
                if t.length == w.length + 1 and t not in seen:
                    seen.add(t)
                    new.append(t)
        frontier = new
    elems = sorted(seen, key=lambda w: w.key())
    idx = {w: i for i, w in enumerate(elems)}
    down = [1 << i for i in range(len(elems))]
    for i in sorted(range(len(elems)), key=lambda i: elems[i].length):
        for u, _ in covers_down(elems[i]):
            j = idx.get(u)
            if j is not None:
                down[i] |= down[j]

    def leq(w1, w2):
        return bool(down[idx[w2]] >> idx[w1] & 1)

    return elems, leq


def _vertex(g, w):
    return w if isinstance(w, int) else g.group.index[w]


def all_shortest_paths(g, u, v):
    """Every path of length d(u, v) in a QBG, as a list of edge lists."""
    j = _vertex(g, v)
    out = []

    def extend(a, path):
        if a == j:
            out.append(list(path))
            return
        da = g.distance_and_weight(a, j)[0]
        for e in g.out[a]:
            if g.distance_and_weight(e.dst, j)[0] == da - 1:
                path.append(e)
                extend(e.dst, path)
                path.pop()

    extend(_vertex(g, u), [])
    return out


def reverse_search(g, v):
    """d(z, v) and wt(z, v) for every z, by a breadth-first search back from
    v over the in-edges ``g.into``; every shortest path must agree on wt."""
    j = _vertex(g, v)
    n = len(g.group)
    dist, wt = [None] * n, [None] * n
    dist[j], wt[j] = 0, (0,) * g.datum.rank
    frontier = [j]
    while frontier:
        new = []
        for b in frontier:
            for e in g.into[b]:
                a, wa = e.src, vec_add(wt[b], e.weight)
                if dist[a] is None:
                    dist[a], wt[a] = dist[b] + 1, wa
                    new.append(a)
                elif dist[a] == dist[b] + 1:
                    assert wt[a] == wa, (a, j)
        frontier = new
    assert None not in dist
    return dist, wt


def paths_of_length(g, u, v, length):
    """All u -> v paths of the given length in a QBG."""
    j = _vertex(g, v)
    out = []

    def extend(a, path):
        rest = length - len(path)
        if rest == 0:
            if a == j:
                out.append(list(path))
            return
        if g.distance_and_weight(a, j)[0] > rest:
            return
        for e in g.out[a]:
            path.append(e)
            extend(e.dst, path)
            path.pop()

    extend(_vertex(g, u), [])
    return out


def path_weight(g, path):
    w = (0,) * g.datum.rank
    for e in path:
        w = vec_add(w, e.weight)
    return w


def walk_weights_two_past_distance(g, u):
    """{v: weights of the u -> v walks with d(u, v) + 2 edges} in a QBG.

    The weight sets are carried forward one edge at a time over ``g.out``,
    so no walk is enumerated and none is cut off; a v with no such walk is
    absent.
    """
    dist = g._bfs(u)[0]
    layer = {u: {(0,) * g.datum.rank}}
    found = {}
    for step in range(1, max(dist) + 3):
        nxt = {}
        for a, weights in layer.items():
            for e in g.out[a]:
                s = nxt.setdefault(e.dst, set())
                s.update({vec_add(w, e.weight) for w in weights}
                         if e.quantum else weights)
        layer = nxt
        for v, weights in layer.items():
            if dist[v] + 2 == step:
                found[v] = weights
    return found


def check_longer_walks_weigh_more(g, oracle_max=24):
    """QBG property (b): a walk of d(u, v) + 2 edges weighs more than wt(u, v).

    Every such weight differs from wt(u, v) by a nonzero element of the
    coroot cone.  On groups of at most ``oracle_max`` elements the weight
    sets are also checked against full enumeration by ``paths_of_length``.
    """
    d, n = g.datum, len(g.group)
    for u in range(n):
        found = walk_weights_two_past_distance(g, u)
        for v in range(n):
            dist, wt = g.distance_and_weight(u, v)
            for w in found.get(v, ()):
                assert w != wt, (u, v)
                assert d.in_coroot_cone(vec_sub(w, wt)), (u, v)
            if n <= oracle_max:
                paths = paths_of_length(g, u, v, dist + 2)
                assert {path_weight(g, p) for p in paths} == \
                    found.get(v, set()), (u, v)


def spherical_subsets(d):
    out = []
    n = len(d.simple_affine_roots())
    for r in range(n + 1):
        for K in itertools.combinations(range(n), r):
            Kc = canonical_K(d, K)
            if is_spherical(d, Kc):
                out.append(Kc)
    return out


def dominant_mus(name, bound, regular_bound=None):
    """Dominant coweights with <mu, 2rho> <= bound, one per central orbit."""
    d = datum(name)
    out = []
    if name.startswith("GL"):
        n = d.rank
        for mu in itertools.product(range(bound + 1), repeat=n):
            if any(mu[i] < mu[i + 1] for i in range(n - 1)) or mu[-1] != 0:
                continue
            h = d.pairing(mu, d.two_rho)
            regular = all(mu[i] > mu[i + 1] for i in range(n - 1))
            cut = regular_bound if (regular and regular_bound) else bound
            if h <= cut:
                out.append(mu)
    else:
        for coeffs in itertools.product(range(bound + 1), repeat=d.nsimple):
            mu = tuple(sum(c * av[i] for c, av in zip(coeffs, d.simple_coroots))
                       for i in range(d.rank))
            if d.pairing(mu, d.two_rho) <= bound and d.is_dominant(mu):
                out.append(mu)
    return sorted(set(out))


@lru_cache(maxsize=None)
def pipeline(name, mu, K):
    """(poset, label order, labeled poset) for one matrix entry."""
    d = datum(name)
    poset = ash.build_admissible(d, mu, K)
    order = ash.build_label_order(poset)
    lp = ash.label_edges(poset, order)
    return poset, order, lp


# the theorem matrix: datum -> (height bound, bound for regular GL coweights)
MATRIX = {
    "A1": (8, None),
    "A2": (8, None),
    "A3": (6, None),
    "B2": (8, None),
    "C2": (8, None),
    "G2": (8, None),
    "GL2": (8, None),
    "GL3": (8, 6),
    "A1xA1": (8, None),
}


def matrix_entries():
    for name, (bound, rb) in MATRIX.items():
        d = datum(name)
        for mu in dominant_mus(name, bound, rb):
            for K in spherical_subsets(d):
                yield name, mu, K


@pytest.fixture(scope="session")
def gl3_case():
    d = datum("GL3")
    return pipeline("GL3", (1, 0, 0), canonical_K(d, ["a1"]))
