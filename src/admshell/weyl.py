"""Finite Weyl group: elements as lattice actions, Bruhat order, quotients."""

from .errors import InputError
from .shellcheck import closure_bits


def _matvec(M, v):
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in M)


def _matmul(A, B):
    n = len(A)
    m = len(B[0])
    k = len(B)
    return tuple(tuple(sum(A[i][t] * B[t][j] for t in range(k))
                       for j in range(m)) for i in range(n))


def _transpose(M):
    return tuple(tuple(row[j] for row in M) for j in range(len(M[0])))


def _identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


class WeylElement:
    """Group element stored as its matrix action on both lattices.

    wm acts on weights (X^*), cm on coweights (X_*).  Identity of the pair is
    determined by wm alone; cm is kept so that no matrix inversion is ever
    needed (inverse = transpose swap).
    """

    __slots__ = ("group", "wm", "cm", "_len", "_word", "_inv")

    def __init__(self, group, wm, cm):
        self.group = group
        self.wm = wm
        self.cm = cm
        self._len = None
        self._word = None
        self._inv = None

    def __eq__(self, other):
        return isinstance(other, WeylElement) and self.wm == other.wm \
            and self.group is other.group

    def __hash__(self):
        return hash(self.wm)

    def __mul__(self, other):
        if self.group is not other.group:
            raise InputError("cannot multiply elements over different data")
        return self.group._intern(_matmul(self.wm, other.wm),
                                  _matmul(self.cm, other.cm))

    def inverse(self):
        if self._inv is None:
            inv = self.group._intern(_transpose(self.cm), _transpose(self.wm))
            self._inv = inv
            inv._inv = self
        return self._inv

    def apply_weight(self, x):
        return _matvec(self.wm, x)

    def apply_coweight(self, lam):
        return _matvec(self.cm, lam)

    @property
    def is_identity(self):
        return self.wm == self.group._id_mat

    @property
    def length(self):
        if self._len is None:
            d = self.group.datum
            self._len = sum(1 for a in d.positive_roots
                            if d.root_sign(self.apply_weight(a)) < 0)
        return self._len

    @property
    def word(self):
        """Lexicographically least reduced word, as simple indices."""
        if self._word is None:
            d = self.group.datum
            w = self
            letters = []
            while not w.is_identity:
                winv = w.inverse()
                for i, a in enumerate(d.simple_roots):
                    if d.root_sign(winv.apply_weight(a)) < 0:
                        letters.append(i)
                        w = self.group.simple(i) * w
                        break
                else:
                    raise AssertionError("no left descent on a non-identity element")
            self._word = tuple(letters)
        return self._word

    def word_str(self):
        return " ".join(f"s{i + 1}" for i in self.word) if self.word else "e"

    def __repr__(self):
        return f"<{self.word_str()}>"


class WeylGroup:
    def __init__(self, datum):
        self.datum = datum
        n = datum.rank
        self._id_mat = _identity(n)
        self._pool = {}
        self.identity = self._intern(self._id_mat, self._id_mat)
        self.simples = []
        for a, av in zip(datum.simple_roots, datum.simple_coroots):
            self.simples.append(self.reflection_for(a, av))
        self.elements = self._generate()
        self.index = {w: i for i, w in enumerate(self.elements)}
        self._bruhat_bits = None
        self._refl = None

    def _intern(self, wm, cm):
        el = self._pool.get(wm)
        if el is None:
            el = WeylElement(self, wm, cm)
            self._pool[wm] = el
        return el

    def simple(self, i):
        return self.simples[i]

    def reflection_for(self, root, coroot):
        n = self.datum.rank
        wm = tuple(tuple((1 if i == j else 0) - root[i] * coroot[j]
                         for j in range(n)) for i in range(n))
        cm = tuple(tuple((1 if i == j else 0) - coroot[i] * root[j]
                         for j in range(n)) for i in range(n))
        return self._intern(wm, cm)

    def reflection(self, root_vec):
        return self.reflection_for(tuple(root_vec), self.datum.coroot(root_vec))

    def _generate(self):
        order = [self.identity]
        self.identity._len = 0
        seen = {self.identity}
        frontier = [self.identity]
        depth = 0
        while frontier:
            depth += 1
            new = []
            for w in frontier:
                for s in self.simples:
                    t = w * s
                    if t not in seen:
                        t._len = depth
                        seen.add(t)
                        new.append(t)
            new.sort(key=lambda w: w.wm)
            order.extend(new)
            frontier = new
        return tuple(order)

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    @property
    def reflections(self):
        if self._refl is None:
            self._refl = tuple(self.reflection(a) for a in self.datum.positive_roots)
        return self._refl

    def longest_element(self, subset=None):
        if subset is None:
            subset = range(self.datum.nsimple)
        gens = [self.simples[i] for i in subset]
        w = self.identity
        changed = True
        while changed:
            changed = False
            for s in gens:
                if (w * s).length > w.length:
                    w = w * s
                    changed = True
        return w

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
        return sorted(seen, key=lambda w: (w.length, w.word))

    def min_coset_reps(self, J):
        """Minimal-length representatives of W / W_J."""
        d = self.datum
        reps = [w for w in self.elements
                if all(d.root_sign(w.apply_weight(d.simple_roots[j])) > 0
                       for j in J)]
        reps.sort(key=lambda w: (w.length, w.word))
        return reps

    def min_coset_rep(self, w, J):
        """The minimal-length element of w * W_J."""
        d = self.datum
        changed = True
        while changed:
            changed = False
            for j in J:
                if d.root_sign(w.apply_weight(d.simple_roots[j])) < 0:
                    w = w * self.simples[j]
                    changed = True
        return w

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
        return [a for a in d.positive_roots if d.root_sign(w.apply_weight(a)) < 0]

    def max_deodhar_lift(self, base, P, bound):
        """Unique maximal element of W_P * base that is <= bound."""
        if not self.bruhat_leq(base, bound):
            raise InputError("max_deodhar_lift requires base <= bound")
        coset = {p * base for p in self.subgroup([self.simples[i] for i in P])}
        cands = [w for w in coset if self.bruhat_leq(w, bound)]
        maximal = [w for w in cands
                   if not any(x != w and self.bruhat_leq(w, x) for x in cands)]
        if len(maximal) != 1:
            raise AssertionError("Deodhar lift is not unique")
        return maximal[0]
