"""Reference Weyl group: elements as integer matrices on both lattices.

This is the representation the library used before elements became
permutations of the roots.  Products are matrix products, the length counts
positive roots sent to negative ones by the weight matrix, the word is read
off left descents of the weight matrix, and each length layer is sorted by
that word.  The Bruhat order is a table: the closure of the covers u = v t
with t a reflection and l(u) = l(v) - 1.  It is kept as an independent
oracle for ``admshell.weyl``; nothing in the library imports it.
"""


def _matvec(M, v):
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in M)


def _matmul(A, B):
    return tuple(tuple(sum(A[i][t] * B[t][j] for t in range(len(B)))
                       for j in range(len(B[0]))) for i in range(len(A)))


def _transpose(M):
    return tuple(tuple(row[j] for row in M) for j in range(len(M[0])))


class MatrixElement:
    """wm acts on weights (X^*), cm on coweights (X_*); wm alone fixes the
    element, and the inverse swaps the transposes."""

    __slots__ = ("group", "wm", "cm", "_word")

    def __init__(self, group, wm, cm):
        self.group = group
        self.wm = wm
        self.cm = cm
        self._word = None

    def __eq__(self, other):
        return isinstance(other, MatrixElement) and self.wm == other.wm

    def __hash__(self):
        return hash(self.wm)

    def __mul__(self, other):
        return self.group.intern(_matmul(self.wm, other.wm),
                                 _matmul(self.cm, other.cm))

    def inverse(self):
        return self.group.intern(_transpose(self.cm), _transpose(self.wm))

    def apply_weight(self, x):
        return _matvec(self.wm, x)

    def apply_coweight(self, lam):
        return _matvec(self.cm, lam)

    @property
    def is_identity(self):
        return self == self.group.identity

    @property
    def length(self):
        d = self.group.datum
        return sum(1 for a in d.positive_roots
                   if d.root_sign(self.apply_weight(a)) < 0)

    @property
    def word(self):
        """Lexicographically least reduced word, by left descents."""
        if self._word is None:
            d = self.group.datum
            w, letters = self, []
            while not w.is_identity:
                winv = w.inverse()
                i = next(i for i, a in enumerate(d.simple_roots)
                         if d.root_sign(winv.apply_weight(a)) < 0)
                letters.append(i)
                w = self.group.simples[i] * w
            self._word = tuple(letters)
        return self._word


class MatrixWeylGroup:
    def __init__(self, datum):
        self.datum = datum
        n = datum.rank
        eye = tuple(tuple(1 if i == j else 0 for j in range(n))
                    for i in range(n))
        self.pool = {}
        self.identity = self.intern(eye, eye)
        self.simples = [self.reflection(a, av) for a, av in
                        zip(datum.simple_roots, datum.simple_coroots)]
        order, seen, frontier = [self.identity], {self.identity}, \
            [self.identity]
        while frontier:
            new = []
            for w in frontier:
                for s in self.simples:
                    t = w * s
                    if t not in seen:
                        seen.add(t)
                        new.append(t)
            new.sort(key=lambda w: w.word)
            order.extend(new)
            frontier = new
        self.elements = tuple(order)
        self.index = {w: i for i, w in enumerate(self.elements)}
        self._down = None

    def reflection(self, a, av):
        """s_a: x -> x - <a^vee, x> a on weights, lam -> lam - <lam, a> a^vee
        on coweights."""
        n = self.datum.rank
        wm = tuple(tuple((1 if i == j else 0) - a[i] * av[j]
                         for j in range(n)) for i in range(n))
        cm = tuple(tuple((1 if i == j else 0) - av[i] * a[j]
                         for j in range(n)) for i in range(n))
        return self.intern(wm, cm)

    def bruhat_leq(self, u, v):
        if self._down is None:
            d = self.datum
            refl = [self.reflection(a, av) for a, av in
                    zip(d.positive_roots, d.positive_coroots)]
            length = [w.length for w in self.elements]
            # down[i] has bit j set iff elements[j] <= elements[i]; the
            # elements come in increasing length, so covers come first
            down = []
            for i, w in enumerate(self.elements):
                bits = 1 << i
                for t in refl:
                    j = self.index[w * t]
                    if length[j] == length[i] - 1:
                        bits |= down[j]
                down.append(bits)
            self._down = down
        return bool(self._down[self.index[v]] >> self.index[u] & 1)

    def intern(self, wm, cm):
        el = self.pool.get(wm)
        if el is None:
            el = self.pool[wm] = MatrixElement(self, wm, cm)
        return el
