"""Extended affine Weyl group X_* x| W_0, stored as pairs t^lambda * z.

Covers, Bruhat order, minimal coset representatives for a spherical subset of
the simple affine roots, length-zero representatives, acute presentations, and
the weight-function Bruhat criterion.
"""

from .errors import InputError, PropertyViolation
from .exact import vec_add, vec_neg, vec_sub
from .rootdata import AffineRoot


class AffineElement:
    """t^translation * finite, acting on affine roots."""

    __slots__ = ("datum", "translation", "finite", "_len", "_hash")

    def __init__(self, datum, translation, finite):
        self.datum = datum
        self.translation = tuple(translation)
        self.finite = finite
        self._len = None
        self._hash = hash((self.translation, finite))

    @classmethod
    def identity(cls, datum):
        return cls(datum, (0,) * datum.rank, datum.weyl_group().identity)

    @classmethod
    def translation_of(cls, datum, lam):
        return cls(datum, lam, datum.weyl_group().identity)

    @classmethod
    def from_finite(cls, finite):
        return cls(finite.group.datum, (0,) * finite.group.datum.rank, finite)

    def __eq__(self, other):
        return (isinstance(other, AffineElement)
                and self.translation == other.translation
                and self.finite == other.finite)

    def __hash__(self):
        return self._hash

    def __mul__(self, other):
        if self.datum is not other.datum:
            raise InputError("cannot multiply elements over different data")
        return AffineElement(
            self.datum,
            vec_add(self.translation, self.finite.apply_coweight(other.translation)),
            self.finite * other.finite)

    def inverse(self):
        zinv = self.finite.inverse()
        return AffineElement(self.datum,
                             vec_neg(zinv.apply_coweight(self.translation)), zinv)

    def act(self, ar):
        d = self.datum
        j = self.finite.perm[d.root_index[ar.root]]
        return AffineRoot(d.roots[j],
                          ar.level - d.pairing_row(self.translation)[j])

    @property
    def length(self):
        """Sum over positive roots a of |<lam, a> - [z^-1 a < 0]|."""
        if self._len is None:
            npos = self.datum.num_positive
            row = self.datum.pairing_row(self.translation)
            zinv = self.finite.inverse().perm
            self._len = sum(abs(row[i] - (zinv[i] >= npos))
                            for i in range(npos))
        return self._len

    def is_min_rep(self, K):
        """Is this the minimal-length element of its coset modulo W_K?"""
        return all(self.datum.is_positive_affine(self.act(ar)) for ar in K)

    def key(self):
        return (self.length, self.translation, self.finite.word)

    def describe(self):
        return {"translation": list(self.translation),
                "word": self.finite.word_str(),
                "length": self.length}

    def name(self):
        w = self.finite.word_str()
        t = ",".join(str(c) for c in self.translation)
        return f"t[{t}]" + ("" if w == "e" else f" {w}")

    def __repr__(self):
        return f"Affine({self.name()})"


def affine_reflection(datum, ar):
    """The reflection s_(alpha,k) = s_alpha t^{k alpha^vee}."""
    if not datum.is_positive_affine(ar):
        raise InputError("reflection wants a positive affine root")
    W = datum.weyl_group()
    s = W.reflection(ar.root)
    coroot = datum.coroot(ar.root)
    trans = tuple(-ar.level * c for c in coroot)
    return AffineElement(datum, trans, s)


def simple_reflection(datum, ar):
    if ar not in datum.simple_affine_roots():
        raise InputError(f"{ar} is not a simple affine root")
    return affine_reflection(datum, ar)


def _inversion_ranges(w):
    """(i, k_min, k_max) per nonempty level range: the inversions of w are
    the (roots[i], k), k_min <= k <= k_max, in that order."""
    d = w.datum
    npos = d.num_positive
    perm = w.finite.perm
    row = d.pairing_row(w.translation)
    count = 0
    for i in range(len(d.roots)):
        j = perm[i]
        k_min = int(i >= npos)
        k_max = row[j] - (j < npos)
        if k_min <= k_max:
            count += k_max - k_min + 1
            yield i, k_min, k_max
    if count != w.length:
        raise AssertionError("inversion count disagrees with the length formula")


def inversions(w):
    """Positive affine roots sent to negative ones; size == length."""
    roots = w.datum.roots
    return [AffineRoot(roots[i], k) for i, k_min, k_max in _inversion_ranges(w)
            for k in range(k_min, k_max + 1)]


def covers_down(w, pool=None):
    """All pairs (w*s_ar, ar) one Bruhat step below w.

    For w = t^lam z and ar = (a, k), s_ar = t^{-k a^vee} s_a, so
    w*s_ar = t^{lam - k z(a^vee)} (z s_a): both factors are table lookups.
    Every candidate lies below w.  pool maps (translation, finite) to the
    elements built so far; one pool over a descent measures each one once.
    """
    d = w.datum
    if pool is None:
        pool = {}
    reflections, npos = d.weyl_group().reflections, d.num_positive
    lam, z = w.translation, w.finite
    lw = w.length
    out = []
    for i, k_min, k_max in _inversion_ranges(w):
        zav = d.coroots[z.perm[i]]
        zs = z * reflections[i % npos]
        for k in range(k_min, k_max + 1):
            key = (tuple(x - k * c for x, c in zip(lam, zav)), zs)
            u = pool.get(key)
            if u is None:
                u = pool[key] = AffineElement(d, *key)
            if u.length == lw - 1:
                out.append((u, AffineRoot(d.roots[i], k)))
    out.sort(key=lambda p: (p[0].translation, p[0].finite.word))
    return out


def _descend(w):
    """(tau, letters): w = s_i1 ... s_ik tau, least left descent first."""
    d = w.datum
    simples = d.simple_affine_roots()
    refls = [simple_reflection(d, ar) for ar in simples]
    letters = []
    while w.length > 0:
        winv = w.inverse()
        i = next((i for i, ar in enumerate(simples)
                  if not d.is_positive_affine(winv.act(ar))), None)
        if i is None:
            raise AssertionError("positive-length element with no left descent")
        letters.append(i)
        w = refls[i] * w
    return w, tuple(letters)


def length_zero_rep(w):
    """The length-zero element of W_aff * w, by greedy left descent."""
    return _descend(w)[0]


def affine_word(w):
    """(tau, letters): w = tau * s_i1 ... s_ik with tau of length zero.

    The letter sequence is the lexicographically least reduced word of the
    W_aff-part.
    """
    tau = length_zero_rep(w)
    u = tau.inverse() * w
    if u.length != w.length:
        raise AssertionError("length-zero factor did not preserve length")
    return tau, _descend(u)[1]


def bruhat_leq(w1, w2):
    """Bruhat order on the extended group; False across W_aff-cosets."""
    if w1.datum is not w2.datum:
        raise InputError("elements live over different data")
    if w1.length > w2.length:
        return False
    if w1.length == w2.length:
        return w1 == w2
    if length_zero_rep(w1) != length_zero_rep(w2):
        return False
    frontier = {w2}
    depth = w2.length
    pool = {}
    while depth > w1.length:
        depth -= 1
        frontier = {u for w in frontier for u, _ in covers_down(w, pool)}
    return w1 in frontier


class AcutePresentation:
    """Factorisation w = x t^lam y with the separating-hyperplane count tight."""

    __slots__ = ("datum", "x", "lam", "y")

    def __init__(self, x, lam, y):
        self.datum = x.group.datum
        self.x = x
        self.lam = tuple(lam)
        self.y = y

    def element(self):
        x_aff = AffineElement.from_finite(self.x)
        y_aff = AffineElement.from_finite(self.y)
        return x_aff * AffineElement.translation_of(self.datum, self.lam) * y_aff

    def is_acute(self):
        """Slack [x a_i < 0] + <lam, a_i> - [y^-1 a_i < 0] >= 0 for a_i > 0."""
        npos, row = self.datum.num_positive, self.datum.pairing_row(self.lam)
        xp, yp = self.x.perm, self.y.inverse().perm
        return all((xp[i] >= npos) + row[i] >= (yp[i] >= npos) for i in range(npos))

    def length_value(self):
        return (self.x.length + self.datum.pairing(self.lam, self.datum.two_rho)
                - self.y.length)

    def __repr__(self):
        return (f"AcutePresentation({self.x.word_str()}, {list(self.lam)}, "
                f"{self.y.word_str()})")


def _acute_pairs(w, cols=()):
    """(x, y) with w = x t^lam y acute and y(roots[i]) < 0 for i in cols,
    y over W_0 in (length, word) order.

    For w = t^nu z, x = z y^-1 and lam = x^-1 nu, so <lam, a_i> = <nu, x a_i>
    is a lookup in nu's pairing row, and no lam is formed for a rejected y.
    The columns of y in cols are read before x is formed.
    """
    npos = w.datum.num_positive
    row = w.datum.pairing_row(w.translation)
    for y in w.datum.weyl_group():
        if any(y.perm[i] < npos for i in cols):
            continue
        yinv = y.inverse()
        x = w.finite * yinv
        xp, yp = x.perm, yinv.perm
        if all((xp[i] >= npos) + row[xp[i]] >= (yp[i] >= npos)
               for i in range(npos)):
            yield x, y


def _presentation(w, x, y):
    return AcutePresentation(x, x.inverse().apply_coweight(w.translation), y)


def acute_presentations(w):
    res = [_presentation(w, x, y) for x, y in _acute_pairs(w)]
    if not res:
        raise AssertionError("every element admits an acute presentation")
    return res


def acute_presentation_K(w, K):
    """The first acute presentation with y(alpha) < 0 for all (alpha, k) in K."""
    d = w.datum
    if not w.is_min_rep(K):
        raise InputError("element is not a minimal coset representative for K")
    cols = [d.root_index[ar.root] for ar in K]
    pair = next(_acute_pairs(w, cols), None)
    if pair is None:
        raise PropertyViolation(
            f"no K-compatible acute presentation of {w.name()}")
    return _presentation(w, *pair)


def bruhat_leq_via_wt(pres, w2):
    """Bruhat comparison through quantum-Bruhat-graph weights.

    pres: a fixed acute presentation of the smaller candidate; w2: the other
    element.  True iff some factorization w2 = x' t^{lam'} y' satisfies
    wt(x, x') + wt(y'^{-1}, y^{-1}) <= lam' - lam in the coroot cone.
    """
    d = pres.datum
    if w2.datum is not d:
        raise InputError("elements live over different data")
    qbg = d.qbg()
    yinv = pres.y.inverse()
    for xp in d.weyl_group():
        rest = AffineElement.from_finite(xp.inverse()) * w2
        lamp = rest.translation
        yp = rest.finite
        _, wt1 = qbg.distance_and_weight(pres.x, xp)
        _, wt2 = qbg.distance_and_weight(yp.inverse(), yinv)
        gap = vec_sub(vec_sub(lamp, pres.lam), vec_add(wt1, wt2))
        if d.in_coroot_cone(gap):
            return True
    return False
