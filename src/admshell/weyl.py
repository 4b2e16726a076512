"""Finite Weyl group: elements as permutations of the roots, Bruhat order,
quotients.

An element is stored as the permutation it induces on the datum's root list
(``RootDatum.roots``: the positive roots, then their negatives), so a product
is a tuple composition plus a pool lookup, the length is the number of
positive roots sent to negative ones, and the action on a root is an index
lookup.  Any other weight, and every coweight, is acted on by the simple
reflections of the element's word.  ``WeylGroup.elements`` is the one order
of the group: by length, then by each element's lexicographically least
reduced word, and both are set while the group is generated.  The Bruhat
order is decided by the lifting property along the word, with no table.
"""

from collections import Counter
from math import prod
from operator import itemgetter

from .errors import InputError

# the largest group order generated; E6 (51,840) and A8 (362,880) fit
MAX_ORDER = 10 ** 6


def group_order(datum):
    """|W| = prod(m_i + 1) over the exponents, with no element built: the
    number of exponents >= k is the number of positive roots of height k."""
    h = Counter(sum(c) for c in datum.root_coords[:datum.num_positive])
    return prod((k + 1) ** (h[k] - h[k + 1]) for k in h)


def _reflect_along(word, v, pair, shift):
    """s_{i_1} ... s_{i_k} v for word (i_1, ..., i_k), where s_i v =
    v - <pair[i], v> shift[i]."""
    v = tuple(v)
    for i in reversed(word):
        k = sum(x * y for x, y in zip(pair[i], v))
        if k:
            v = tuple(x - k * y for x, y in zip(v, shift[i]))
    return v


class WeylElement:
    """Group element stored as its permutation of the root indices.

    perm[i] is the index of w(roots[i]); word is the lexicographically least
    reduced word, as simple indices, and length its length.  Elements are
    interned per group, so equality is identity.
    """

    __slots__ = ("group", "perm", "_hash", "length", "word", "_inv")

    def __init__(self, group, perm):
        self.group = group
        self.perm = perm
        self._hash = hash(perm)
        self._inv = None

    def __hash__(self):
        return self._hash

    def __mul__(self, other):
        if self.group is not other.group:
            raise InputError("cannot multiply elements over different data")
        # (uv)(i) = u(v(i)); there are at least two roots, so this is a tuple
        return self.group._pool[itemgetter(*other.perm)(self.perm)]

    def inverse(self):
        if self._inv is None:
            inv = [0] * len(self.perm)
            for i, j in enumerate(self.perm):
                inv[j] = i
            self._inv = self.group._pool[tuple(inv)]
            self._inv._inv = self
        return self._inv

    def apply_weight(self, x):
        d = self.group.datum
        i = d.root_index.get(tuple(x))
        if i is not None:
            return d.roots[self.perm[i]]
        # s_i x = x - <alpha_i^vee, x> alpha_i
        return _reflect_along(self.word, x, d.simple_coroots, d.simple_roots)

    def apply_coweight(self, lam):
        # s_i lam = lam - <lam, alpha_i> alpha_i^vee
        d = self.group.datum
        return _reflect_along(self.word, lam, d.simple_roots, d.simple_coroots)

    @property
    def is_identity(self):
        return self is self.group.identity

    def word_str(self):
        return " ".join(f"s{i + 1}" for i in self.word) if self.word else "e"

    def __repr__(self):
        return f"<{self.word_str()}>"


class WeylGroup:
    def __init__(self, datum):
        order = group_order(datum)
        if order > MAX_ORDER:
            raise InputError(f"the Weyl group of {datum.name} has order "
                             f"{order}, above the limit of {MAX_ORDER}")
        self.datum = datum
        self.simple_idx = tuple(datum.root_index[a]
                                for a in datum.simple_roots)
        self._pool = {}
        self.identity = self._intern(tuple(range(len(datum.roots))))
        self.simples = [self._intern(self._reflection_perm(r))
                        for r in self.simple_idx]
        self.elements = self._generate()
        self.index = {w: i for i, w in enumerate(self.elements)}
        # one reflection per positive root, in the order of the root list
        self.reflections = tuple(self._pool[self._reflection_perm(r)]
                                 for r in range(datum.num_positive))

    def _intern(self, perm):
        el = self._pool[perm] = WeylElement(self, perm)
        return el

    def _reflection_perm(self, r):
        """s_a(b) = b - <a^vee, b> a on the root indices, for a = roots[r]."""
        d = self.datum
        a, av = d.roots[r], d.coroots[r]
        perm = []
        for beta in d.roots:
            k = sum(x * y for x, y in zip(av, beta))
            perm.append(d.root_index[tuple(b - k * c for b, c in zip(beta, a))])
        return tuple(perm)

    def simple(self, i):
        return self.simples[i]

    def reflection(self, root_vec):
        """The reflection in a root (of either sign)."""
        i = self.datum.root_index[tuple(root_vec)]
        return self.reflections[i % self.datum.num_positive]

    def _generate(self):
        """All elements in (length, word) order, word the lexicographically
        least reduced word.

        Layer k+1 comes from layer k by left multiplication: for each simple
        s_i in index order and each w of layer k in order, t = s_i w is kept
        when w^-1 alpha_i > 0 and t is new.  The first i to reach t is then
        its least left descent, so word(t) = (i,) + word(w), and the layer
        comes out in word order with no sort.
        """
        npos = self.datum.num_positive
        ident = self.identity
        ident.length, ident.word = 0, ()
        placed = {ident.perm}
        order = [ident]
        frontier = [ident]
        depth = 0
        while frontier:
            depth += 1
            new = []
            for i, (s, r) in enumerate(zip(self.simples, self.simple_idx)):
                for w in frontier:
                    wp = w.perm
                    if wp.index(r) >= npos:      # s_i w is shorter, and placed
                        continue
                    perm = itemgetter(*wp)(s.perm)
                    if perm in placed:
                        continue
                    placed.add(perm)
                    t = self._pool.get(perm)     # the simples are interned
                    if t is None:
                        t = self._intern(perm)
                    t.length, t.word = depth, (i,) + w.word
                    new.append(t)
            frontier = new
            order.extend(frontier)
        return tuple(order)

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def longest_element(self, subset=None):
        if subset is None:
            # the unique element of maximal length closes the length order
            return self.elements[-1]
        npos = self.datum.num_positive
        w = self.identity
        while True:
            i = next((i for i in subset
                      if w.perm[self.simple_idx[i]] < npos), None)
            if i is None:
                return w
            w = w * self.simples[i]

    def subgroup(self, generators):
        seen = {self.identity}
        frontier = [self.identity]
        while frontier:
            new = []
            for w in frontier:
                for g in generators:
                    t = w * g
                    if t not in seen:
                        seen.add(t)
                        new.append(t)
            frontier = new
        return [w for w in self.elements if w in seen]

    def min_coset_reps(self, J):
        """Minimal-length representatives of W / W_J."""
        npos = self.datum.num_positive
        cols = [self.simple_idx[j] for j in J]
        return [w for w in self.elements if all(w.perm[r] < npos for r in cols)]

    def min_coset_rep(self, w, J):
        """The minimal-length element of w * W_J."""
        npos = self.datum.num_positive
        while True:
            j = next((j for j in J if w.perm[self.simple_idx[j]] >= npos),
                     None)
            if j is None:
                return w
            w = w * self.simples[j]

    def bruhat_leq(self, u, v):
        """u <= v by the lifting property along v's word.

        Each letter i of v's word is a left descent of what is left of v.
        If it is one of u as well, then u <= v iff s_i u <= s_i v, and
        otherwise u <= v iff u <= s_i v (Deodhar; Bjorner-Brenti, GTM 231,
        Prop. 2.2.7).  Once the word is used up, v is the identity.
        """
        npos = self.datum.num_positive
        rest = v.length
        for i in v.word:
            if not u.length:                # the identity is below every v
                return True
            if u.length > rest:
                return False
            if u.inverse().perm[self.simple_idx[i]] >= npos:  # u^-1 a_i < 0
                u = self.simples[i] * u
            rest -= 1
        return u is self.identity

    def inversions(self, w):
        d = self.datum
        npos = d.num_positive
        return [d.roots[i] for i in range(npos) if w.perm[i] >= npos]
