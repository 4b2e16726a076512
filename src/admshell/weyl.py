"""Finite Weyl group: elements as permutations of the roots, Bruhat order,
quotients.

An element is stored as the permutation it induces on the datum's root list
(``RootDatum.roots``: the positive roots, then their negatives), so a product
is a tuple composition plus a pool lookup, the length is the number of
positive roots sent to negative ones, and the action on a root is an index
lookup.  The coweight matrix ``cm`` is kept only to act on translations.
``WeylGroup.elements`` is the one order of the group: by length, then by
each element's lexicographically least reduced word, and both are set while
the group is generated.
"""

from operator import itemgetter

from .errors import InputError
from .shellcheck import closure_bits


def _matvec(M, v):
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in M)


class WeylElement:
    """Group element stored as its permutation of the root indices.

    perm[i] is the index of w(roots[i]); cm is the matrix of w on coweights
    (X_*); word is the lexicographically least reduced word, as simple
    indices, and length its length.  Elements are interned per group, so
    equality is identity.
    """

    __slots__ = ("group", "perm", "cm", "_hash", "length", "word", "_inv")

    def __init__(self, group, perm, cm):
        self.group = group
        self.perm = perm
        self.cm = cm
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
        # <w lam, w x> = <lam, x>: w acts on weights by the transpose of cm(w^-1)
        cinv = self.inverse().cm
        return tuple(sum(cinv[j][i] * x[j] for j in range(len(x)))
                     for i in range(len(x)))

    def apply_coweight(self, lam):
        return _matvec(self.cm, lam)

    @property
    def is_identity(self):
        return self is self.group.identity

    def word_str(self):
        return " ".join(f"s{i + 1}" for i in self.word) if self.word else "e"

    def __repr__(self):
        return f"<{self.word_str()}>"


class WeylGroup:
    def __init__(self, datum):
        self.datum = datum
        n = datum.rank
        idx = datum.root_index
        self.simple_idx = tuple(idx[a] for a in datum.simple_roots)
        self._pool = {}
        ident = tuple(tuple(1 if i == j else 0 for j in range(n))
                      for i in range(n))
        self.identity = self._intern(tuple(range(len(datum.roots))), ident)
        self.simples = [self._reflection_element(r) for r in self.simple_idx]
        self.elements = self._generate()
        self.index = {w: i for i, w in enumerate(self.elements)}
        # one reflection per positive root, in the order of the root list
        self.reflections = tuple(self._pool[self._reflection_perm(r)]
                                 for r in range(datum.num_positive))
        self._bruhat_bits = None

    def _intern(self, perm, cm):
        el = self._pool[perm] = WeylElement(self, perm, cm)
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

    def _reflection_element(self, r):
        d = self.datum
        a, av = d.roots[r], d.coroots[r]
        n = d.rank
        cm = tuple(tuple((1 if i == j else 0) - av[i] * a[j]
                         for j in range(n)) for i in range(n))
        return self._intern(self._reflection_perm(r), cm)

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
        comes out in word order with no sort.  cm(s_i w) = cm(w) -
        alpha_i^vee (x) w^-1 alpha_i, and w^-1 alpha_i is a lookup.
        """
        d = self.datum
        n, npos = d.rank, d.num_positive
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
                av = d.coroots[r]
                for w in frontier:
                    wp = w.perm
                    j = wp.index(r)              # w(roots[j]) = alpha_i
                    if j >= npos:                # s_i w is shorter, and placed
                        continue
                    perm = itemgetter(*wp)(s.perm)
                    if perm in placed:
                        continue
                    placed.add(perm)
                    beta, wcm = d.roots[j], w.cm
                    t = self._pool.get(perm)     # the simples are interned
                    if t is None:
                        t = self._intern(perm, tuple(
                            tuple(wcm[k][m] - av[k] * beta[m] for m in range(n))
                            for k in range(n)))
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

    def _bits(self):
        # bruhat_bits[v] has bit u set iff u <= v
        if self._bruhat_bits is None:
            lower = [[] for _ in self.elements]
            for i, w in enumerate(self.elements):
                for t in self.reflections:
                    u = w * t
                    if u.length == w.length - 1:
                        lower[i].append(self.index[u])
            # _generate lists the elements in increasing length
            self._bruhat_bits, _ = closure_bits(range(len(lower)), lower)
        return self._bruhat_bits

    def bruhat_leq(self, u, v):
        bits = self._bits()
        return bool(bits[self.index[v]] >> self.index[u] & 1)

    def inversions(self, w):
        d = self.datum
        npos = d.num_positive
        return [d.roots[i] for i in range(npos) if w.perm[i] >= npos]
