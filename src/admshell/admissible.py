"""Admissible sets: enumeration, quotient poset, gateway data, Coxeter subsets.

The poset holds the minimal coset representatives below the extreme
translations, together with a formal top element.  It is found by descending
through the full (unquotiented) admissible set, whose elements are kept in
``full_elements``; their covers are not kept.
"""

from collections import namedtuple

from .errors import InputError, PropertyViolation
from .exact import vec_sub
from .affine import (AffineElement, acute_presentation_K, affine_word,
                     covers_down)
from .labeling import format_label, make_classifier
from .shellcheck import closure_bits


def is_spherical(datum, K):
    """K generates a finite group iff it misses a node in every affine component."""
    simples = datum.simple_affine_roots()
    kset = set(K)
    for c, (comp, theta, _) in enumerate(datum.components):
        nodes = {simples[i] for i in comp} | {simples[datum.nsimple + c]}
        if nodes <= kset:
            return False
    return True


def canonical_K(datum, K):
    """Normalize K given as affine roots, indices, or CLI tokens."""
    simples = datum.simple_affine_roots()
    out = []
    for item in K:
        if isinstance(item, str):
            out.append(datum.parse_affine_token(item))
        elif isinstance(item, int):
            if not 0 <= item < len(simples):
                raise InputError(f"simple affine index {item} out of range")
            out.append(simples[item])
        else:
            if item not in simples:
                raise InputError(f"{item} is not a simple affine root")
            out.append(item)
    out = sorted(set(out), key=simples.index)
    return tuple(out)


class AdmissiblePoset:
    """Augmented poset of K-minimal elements below the mu-translations.

    elements[i] are sorted by (length, translation, word); the formal top
    element is index len(elements).  covers are (upper, lower, label): an
    interior edge carries its positive affine root, and the edge from the top
    to a maximum carries that maximum's element of W^{J,K}.
    """

    def __init__(self, datum, mu, K):
        mu = tuple(mu)
        if not all(type(c) is int for c in mu):
            raise InputError(f"mu must have integer coordinates, not {mu!r}")
        if not datum.is_dominant(mu):
            raise InputError(f"{mu} is not dominant")
        K = canonical_K(datum, K)
        if not is_spherical(datum, K):
            raise InputError("K is not spherical")
        self.datum = datum
        self.mu = mu
        self.K = K
        W = datum.weyl_group()
        self.J = tuple(i for i, a in enumerate(datum.simple_roots)
                       if datum.pairing(mu, a) == 0)
        self.WJ = W.min_coset_reps(self.J)
        extreme = [(a, self.translation_of(a)) for a in self.WJ]
        gates = [(a, t) for a, t in extreme if t.is_min_rep(K)]
        self.WJK = [a for a, _ in gates]

        # downward closure of the extreme translations = the full admissible set
        full_covers = dict.fromkeys(t for _, t in extreme)
        queue = list(full_covers)
        for w in queue:
            full_covers[w] = covers_down(w)
            for u, _ in full_covers[w]:
                if u not in full_covers:
                    full_covers[u] = None
                    queue.append(u)
        self.full_elements = sorted(full_covers, key=lambda w: w.key())

        members = [w for w in self.full_elements if w.is_min_rep(K)]
        self.elements = members
        self.index = {w: i for i, w in enumerate(members)}
        self.top = len(members)
        self.covers = []
        for w in members:
            i = self.index[w]
            for u, ar in full_covers[w]:
                j = self.index.get(u)
                if j is not None:
                    self.covers.append((i, j, ar))
        self.maximal_ids = [self.index[t] for _, t in gates]
        for m, a in zip(self.maximal_ids, self.WJK):
            self.covers.append((self.top, m, a))
        self.covers.sort(key=lambda c: (c[0], c[1]))
        self._verify_shape()
        lower = [[] for _ in range(self.top + 1)]
        for up, lo, _ in self.covers:
            lower[up].append(lo)
        # members are sorted by length and the formal top comes last
        self._down, _ = closure_bits(range(self.top + 1), lower)
        self._wk_image = None

    def _verify_shape(self):
        n = len(self.elements)
        height = self.datum.pairing(self.mu, self.datum.two_rho)
        has_lower = [False] * n
        has_upper = [False] * n
        for up, lo, _ in self.covers:
            if up != self.top:
                has_lower[up] = True
                has_upper[lo] = True
                if self.elements[up].length != self.elements[lo].length + 1:
                    raise PropertyViolation("cover with a length gap")
        minimal = [i for i in range(n) if not has_lower[i]]
        if len(minimal) != 1 or self.elements[minimal[0]].length != 0:
            raise PropertyViolation("expected a unique length-zero minimum")
        self.tau_id = minimal[0]
        top_covered = set(self.maximal_ids)
        for i in range(n):
            if not has_upper[i] and i not in top_covered:
                raise PropertyViolation("non-extreme element with no upper cover")
        for m in self.maximal_ids:
            if self.elements[m].length != height:
                raise PropertyViolation("extreme translation of wrong length")

    # -- order queries -------------------------------------------------------

    def leq_ids(self, i, j):
        return bool(self._down[j] >> i & 1)

    def tau(self):
        return self.elements[self.tau_id]

    def wk_image(self):
        """The image of W_K in W_0, as an element list, built once."""
        if self._wk_image is None:
            W = self.datum.weyl_group()
            self._wk_image = W.subgroup([W.reflection(ar.root)
                                         for ar in self.K])
        return self._wk_image

    def translation_of(self, a):
        return AffineElement.translation_of(self.datum,
                                            a.apply_coweight(self.mu))

    def element_names(self):
        return [w.name() for w in self.elements] + ["1^"]

    def to_json_dict(self):
        d = self.datum
        return {
            "datum": d.name,
            "mu": list(self.mu),
            "K": [d.simple_affine_roots().index(ar) for ar in self.K],
            "elements": [dict(id=i, **w.describe())
                         for i, w in enumerate(self.elements)],
            "top": self.top,
            "covers": [{"upper": up, "lower": lo,
                        "label": format_label(d, label)}
                       for up, lo, label in self.covers],
            "maximal": [a.word_str() for a in self.WJK],
        }


def build_admissible(datum, mu, K):
    return AdmissiblePoset(datum, mu, K)


def adm_membership(pres, mu):
    """Membership in the mu-admissible set from one acute presentation."""
    if not pres.is_acute():
        raise InputError("adm_membership needs an acute presentation")
    d = pres.datum
    _, w = d.qbg().distance_and_weight(pres.x, pres.y.inverse())
    return d.in_coroot_cone(vec_sub(vec_sub(mu, pres.lam), w))


SigmaData = namedtuple("SigmaData",
                       "w presentation sigma_w z_min sigma_w_JK a_min_K")


def _require(ok, w, what):
    """Raise a PropertyViolation that names the poset element w unless ok."""
    if not ok:
        raise PropertyViolation(f"{w.name()}: {what}")


def _unique_min(W, elems, what, w):
    """The least element of elems, which must have one.

    A finite poset has one minimal element iff it has a least element, and
    in the length order of W.elements only the first member can be it.
    """
    _require(elems, w, f"{what} is empty")
    z = min(elems, key=W.index.__getitem__)
    _require(all(W.bruhat_leq(z, x) for x in elems), w,
             f"{what} has no least element")
    return z


def _gateways(poset, w):
    """The a in W^{J,K} with w <= t^{a(mu)}, read off the down-sets."""
    i = poset.index[w]
    return [a for a, m in zip(poset.WJK, poset.maximal_ids)
            if poset.leq_ids(i, m)]


def double_coset_reps(poset, z):
    """The elements of W^J in W_K z W_J, one per left coset p z W_J."""
    W = poset.datum.weyl_group()
    return {W.min_coset_rep(p * z, poset.J) for p in poset.wk_image()}


def compute_sigma(poset, w):
    """Gateway data for one poset element: Sigma_w, z_min, a_min^K."""
    d = poset.datum
    W = d.weyl_group()
    qbg = d.qbg()
    pres = acute_presentation_K(w, poset.K)
    gap = vec_sub(poset.mu, pres.lam)

    sigma_w, reach = [], []
    for z, w1, w2 in zip(W.elements, qbg.weights(pres.x),
                         qbg.weights(pres.y.inverse(), into=True)):
        rest = vec_sub(gap, w1)
        if d.in_coroot_cone(rest):
            reach.append(z)
        if d.in_coroot_cone(vec_sub(rest, w2)):
            sigma_w.append(z)
    z_min = _unique_min(W, reach, "{z : wt(x,z) <= mu - lam}", w)
    _require(z_min == _unique_min(W, sigma_w, "Sigma_w", w), w,
             "minimum of Sigma_w differs from z_min")

    sigma_w_JK = _gateways(poset, w)
    _require(sigma_w_JK, w, "poset element below no extreme translation")

    # iterative gateway search: walk K-descents of the candidate translation
    a = W.min_coset_rep(z_min, poset.J)
    for _ in range(len(W) + 1):
        t = poset.translation_of(a)
        bad = next((ar for ar in poset.K
                    if not d.is_positive_affine(t.act(ar))), None)
        if bad is None:
            break
        a = W.min_coset_rep(W.reflection(bad.root) * a, poset.J)
    _require(bad is None, w, "gateway search failed to terminate")
    a_min_K = a

    brute = _unique_min(W, sigma_w_JK, "Sigma_w^{J,K}", w)
    _require(brute == a_min_K, w, "gateway loop disagrees with the brute minimum")
    hit = [b for b in double_coset_reps(poset, z_min) if b in poset.WJK]
    _require(hit == [a_min_K], w, "double-coset characterization failed")
    return SigmaData(w=w, presentation=pres, sigma_w=sigma_w, z_min=z_min,
                     sigma_w_JK=sigma_w_JK, a_min_K=a_min_K)


def top_two_layer_report(poset):
    """Check the description of the next-to-top layer; report per element.

    The label on each minimal-gateway cover must be a class-2 root; any failed
    claim raises PropertyViolation.
    """
    classify = make_classifier(poset.datum, poset.K)
    d = poset.datum
    W = d.weyl_group()
    qbg = d.qbg()
    height = d.pairing(poset.mu, d.two_rho)
    report = []
    below = {}
    for a in poset.WJ:
        t = poset.translation_of(a)
        below[t] = {u for u, _ in covers_down(t)}
    gate_id = dict(zip(poset.WJK, poset.maximal_ids))
    label = {(up, lo): ar for up, lo, ar in poset.covers if up != poset.top}
    for w in poset.elements:
        if w.length != height - 1:
            continue
        pres = acute_presentation_K(w, poset.K)
        z1 = pres.x
        z2 = pres.y.inverse()
        dist, wt = qbg.distance_and_weight(z1, z2)
        _require(dist == 1, w, "next-to-top element without a graph edge")
        _require(tuple(pres.lam) == vec_sub(poset.mu, wt), w,
                 "translation part off by the edge weight")
        if any(wt):
            beta = next((b for b, bv in zip(d.positive_roots, d.positive_coroots)
                         if bv == wt), None)
            _require(beta is not None, w, "edge weight is not a coroot")
            _require(not d.root_support(beta) <= set(poset.J), w,
                     "edge weight lies in the J-span")
        # w and t differ in length by one, so w <= t iff t covers w
        above = [t for t, us in below.items() if w in us]
        expect = {poset.translation_of(z1), poset.translation_of(z2)}
        _require(set(above) == expect and len(expect) == 2, w,
                 "covering translations are not the expected two")
        a_min = _unique_min(W, _gateways(poset, w), "gateway set", w)
        # w <= t_min and their lengths differ by one: the poset has the cover
        ar = label.get((gate_id[a_min], poset.index[w]))
        _require(ar is not None, w, "no cover down from the minimal gateway's "
                 "translation")
        _require(classify(ar) == 2, w,
                 "minimal-gateway label failed its class check")
        report.append({
            "element": w.name(),
            "z1": z1.word_str(), "z2": z2.word_str(),
            "edge_quantum": bool(any(wt)),
            "covering_translations": sorted(t.name() for t in above),
            "gateway": a_min.word_str(),
            "gateway_label": d.format_affine(ar),
        })
    return report


def _ad_tau_permutation(datum, tau):
    simples = datum.simple_affine_roots()
    perm = []
    for ar in simples:
        img = tau.act(ar)
        if img not in simples:
            raise PropertyViolation("length-zero conjugation left the simples")
        perm.append(simples.index(img))
    return perm


def _validate_sigma_perm(datum, sigma):
    simples = datum.simple_affine_roots()
    n = len(simples)
    if sorted(sigma) != list(range(n)):
        raise InputError("sigma is not a permutation of the simple affine roots")

    def pair(i, j):
        a, b = simples[i], simples[j]
        return (datum.pairing(datum.coroot(a.root), b.root),
                datum.pairing(datum.coroot(b.root), a.root))

    for i in range(n):
        for j in range(n):
            if pair(i, j) != pair(sigma[i], sigma[j]):
                raise InputError("sigma does not preserve the Coxeter matrix")


def coxeter_subset(poset, sigma=None):
    """Elements whose reduced-word letters sit in distinct orbit classes.

    sigma: permutation (list of indices) of the simple affine roots; identity
    by default.  Orbits are those of sigma composed with conjugation by the
    length-zero part; at least one orbit must stay unused.
    """
    d = poset.datum
    nsimp = len(d.simple_affine_roots())
    if sigma is None:
        sigma = list(range(nsimp))
    _validate_sigma_perm(d, sigma)
    members = []
    for w in poset.elements:
        tau, letters = affine_word(w)
        ad = _ad_tau_permutation(d, tau)
        comp = [sigma[ad[i]] for i in range(nsimp)]
        orbit_of = _orbit_classes(comp)
        used = [orbit_of[i] for i in letters]
        if len(set(used)) == len(used) and len(set(used)) < len(set(orbit_of)):
            members.append(w)
    member_ids = [poset.index[w] for w in members]
    cov = []
    for j in member_ids:
        for i in member_ids:
            if i != j and poset.leq_ids(i, j):
                if not any(poset.leq_ids(i, k) and poset.leq_ids(k, j)
                           for k in member_ids if k not in (i, j)):
                    cov.append((j, i))
    return {"element_ids": member_ids,
            "elements": members,
            "covers": sorted(cov)}


def _orbit_classes(perm):
    n = len(perm)
    cls = [None] * n
    c = 0
    for i in range(n):
        if cls[i] is not None:
            continue
        j = i
        while cls[j] is None:
            cls[j] = c
            j = perm[j]
        c += 1
    return cls
