"""Edge labels and the total order on them.

A label is a value: an interior edge carries its positive affine root
(``AffineRoot``) and an edge to the formal top element carries its maximum's
element of W^{J,K} (a ``WeylElement``).  A ``LabelOrder`` is one sequence of
such values, and ``format_label`` prints either kind.  The root part of the
constructed order is built in three steps:

1. collect a finite "relevant" set: every edge label, the K-subsystem, closed
   under the K-reflections and under positive rational pair combinations (with
   a level cap; each root past it is recorded once in ``LabelOrder.capped``).
   The closure is a worklist that visits each root once and pairs it with the
   roots visited before it.  It runs on integer codes ``(i, level)``, ``i``
   an index into ``datum.roots`` (positives first, then their negatives), so
   negation is ``i +- num_positive`` and positivity is
   ``level >= (i >= num_positive)``; a K-reflection acts through its
   permutation of the roots and one pairing row.  The earlier roots are
   grouped by root index, and one kernel, ``_group_codes``, pairs a root with
   a whole group, for the closure and for the convexity check of
   ``LabelOrder.violations``.  For a group independent of the root it reads
   the datum's table ``RootDatum.root_pair_table`` once, keyed by root
   indices: ``s*r1 + t*r2 = gamma`` as ``(g, sn, tn, den)`` with ``g`` the
   index of gamma, ``s = sn/den`` and ``t = tn/den``, so the level
   ``s*l1 + t*l2`` is one integer division per level of the group, no
   ``Fraction`` is built, and a group with an empty row costs one lookup.
   The closure pairs a group of the same or the opposite root through its
   extreme levels only, since the combinations of one pair are all the
   levels between the two, or every level above them.  Codes become
   ``AffineRoot`` objects only in the returned set, the capped list and the
   violation messages;
2. sort it by a lexicographic sequence of linear-functional ratios.  Ratios of
   linear forms turn positive combinations into convex combinations of key
   vectors, so any such sort respects betweenness; the leading functional is
   chosen to put all class-1 roots first.  Every ratio has the integer height
   ``H = <2rho^vee, root> + scale*level`` as its denominator, which is positive
   on positive affine roots; with ``M`` the lcm of the heights, the key of a
   root is its numerators times ``M // H``, an integer tuple that compares as
   the ratios do;
3. repair the order so the K-subsystem forms a prefix, by the front-insertion
   move that re-sorts the displaced prefix through the reflection.

The elements of W^{J,K} go between the class-1 and the class-2 roots, and
the result is verified invariant-by-invariant; failure is a hard error.
"""

from math import lcm

from .errors import InputError, PropertyViolation
from .exact import dot, solve_linear
from .rootdata import AffineRoot
from .affine import affine_reflection, simple_reflection
from .weyl import WeylElement


def format_label(datum, label):
    if isinstance(label, AffineRoot):
        return datum.format_affine(label)
    return f"eta({label.word_str()})"


def subsystem_positive(datum, K):
    """Positive affine roots of the subsystem spanned by K.

    The subsystem is the orbit of K under the group its reflections
    generate, so a worklist closes K under those reflections, acting on
    affine roots, and keeps the positive roots.
    """
    refls = [simple_reflection(datum, ar) for ar in K]
    orbit = set(K)
    queue = list(K)
    for ar in queue:
        for s in refls:
            img = s.act(ar)
            if img not in orbit:
                orbit.add(img)
                queue.append(img)
    return frozenset(ar for ar in orbit if datum.is_positive_affine(ar))


def finite_subsystem_indices(datum, K):
    """Indices of the simple finite roots appearing in K."""
    simples = datum.simple_affine_roots()
    return frozenset(i for i in range(datum.nsimple) if simples[i] in set(K))


def make_classifier(datum, K, phi_K=None):
    """classify(ar) -> 1 or 2; class-1 roots precede everything else."""
    if phi_K is None:
        phi_K = subsystem_positive(datum, K)
    Jp = finite_subsystem_indices(datum, K)

    def classify(ar):
        if not datum.is_positive_affine(ar):
            raise InputError("classification wants a positive affine root")
        if ar in phi_K:
            return 1
        if ar.level >= 1 and datum.root_sign(ar.root) < 0 \
                and not datum.root_support(ar.root) <= Jp:
            return 1
        return 2

    return classify


def _group_codes(datum, j, levels, c, cap):
    """Pair combinations of every code (j, ly), ly in ``levels``, with c.

    Works on codes: (i, level) stands for the affine root
    (datum.roots[i], level).  Positives come first in ``roots``, so the
    negative of root i is i +- num_positive and a code is positive iff
    level >= (i >= num_positive).  c and every (j, ly) must be positive.
    Returns triples (k, g, m): (g, m) is a positive affine root
    s*(j, levels[k]) + t*c with s, t > 0 rational.  Levels past ``cap``
    are included for the caller to log; of an opposite pair, whose
    combinations reach every level, only (j, cap + 1) is.  For one k the
    triples come in the order of the pair: ascending levels for one root,
    the levels of j before those of c for opposite roots, table rows for
    independent ones.
    """
    i, l = c
    npos = datum.num_positive
    out = []
    # a level above that of a positive code keeps the root positive
    if i == j:
        for k, ly in enumerate(levels):
            lo, hi = (ly, l) if ly <= l else (l, ly)
            out += [(k, i, m) for m in range(lo + 1, hi)]
        return out
    if i - j in (npos, -npos):
        above_c = range(l + 1, cap + 1)
        for k, ly in enumerate(levels):
            out += [(k, j, m) for m in range(ly + 1, cap + 1)]
            out += [(k, i, m) for m in above_c]
            out.append((k, j, cap + 1))
        return out
    # distinct non-opposite roots are independent: the finite parts fix
    # (s, t), which then fixes the level; one table row serves the group
    for g, sn, tn, den in datum.root_pair_table(j, i):
        least, tl = g >= npos, tn * l
        for k, ly in enumerate(levels):
            m, rem = divmod(sn * ly + tl, den)
            if rem == 0 and m >= least:
                out.append((k, g, m))
    return out


def _encode(datum, ar):
    return datum.root_index[ar.root], ar.level


def _decode(datum, code):
    return AffineRoot(datum.roots[code[0]], code[1])


def relevant_closure(datum, K, seeds, phi_K):
    """Close the seed labels under K-reflections and pair combinations.

    A worklist: each root, when its turn comes, gets the K-reflections and is
    paired with every root taken before it, one root index at a time (see
    ``_group_codes``).  The rules are monotone, so the closure does not
    depend on the visiting order.  The base has levels at most cap, so every
    root past the cap is logged, once, in ``capped``, which is sorted by
    code.  A K-reflection t^lam * z sends (i, level) to
    (perm[i], level - <lam, roots[perm[i]]>).
    """
    npos = datum.num_positive
    refls = []
    for ar in K:
        w = affine_reflection(datum, ar)
        refls.append((w.finite.perm, datum.pairing_row(w.translation)))
    base = sorted(set(seeds) | set(phi_K), key=lambda ar: (ar.level, ar.root))
    cap = 2 * max([1] + [ar.level for ar in base]) + 1
    queue = [_encode(datum, ar) for ar in base]
    S = set(queue)
    capped = set()
    groups = {}         # root index -> levels of the roots taken so far

    def visit(c):
        if c in S:
            return
        if c[1] <= cap:
            S.add(c)
            queue.append(c)
        else:
            capped.add(c)

    for x in queue:
        i, level = x
        for perm, row in refls:
            j = perm[i]
            m = level - row[j]
            if m < (j >= npos):
                j, m = (j - npos if j >= npos else j + npos), -m
            visit((j, m))
        for j, levels in groups.items():
            # the levels strictly between two of one root lie between the
            # group's extremes and x; an opposite root reaches every level
            # above the group's least one
            if j == i:
                levels = (min(levels), max(levels))
            elif j - i in (npos, -npos):
                levels = (min(levels),)
            for _, g, m in _group_codes(datum, j, levels, x, cap):
                visit((g, m))
        groups.setdefault(i, []).append(level)
    return ({_decode(datum, c) for c in S}, cap,
            [_decode(datum, c) for c in sorted(capped)])


class LabelOrder:
    """Total order on the edge labels, given as one sequence of them.

    A label is a positive affine root (an interior edge) or an element of
    the datum's Weyl group (a top edge, its element of W^{J,K}).  ``roots``
    and ``etas`` are the two kinds in their order; the constructed order has
    the class-1 roots first, then the etas (by length and word, a linear
    extension of Bruhat order), then the class-2 roots, and ``violations``
    checks any other sequence, e.g. a hand-written one, against the same
    invariants.
    """

    def __init__(self, datum, K, sequence, capped=()):
        self.datum = datum
        self.K = tuple(K)
        self.sequence = tuple(sequence)
        W = datum.weyl_group()
        for lbl in self.sequence:
            if not (isinstance(lbl, AffineRoot) or
                    isinstance(lbl, WeylElement) and lbl.group is W):
                raise InputError(f"{lbl!r} is neither an affine root nor "
                                 "an element of the datum's Weyl group")
        self.roots = tuple(lbl for lbl in self.sequence
                           if isinstance(lbl, AffineRoot))
        self.etas = tuple(lbl for lbl in self.sequence
                          if not isinstance(lbl, AffineRoot))
        self.phi_K = subsystem_positive(datum, K)
        classify = make_classifier(datum, K, self.phi_K)
        self.root_class = {ar: classify(ar) for ar in self.roots}
        self.capped = tuple(capped)
        self._pos = {lbl: i for i, lbl in enumerate(self.sequence)}
        if len(self._pos) != len(self.sequence):
            raise InputError("duplicate label in the order")

    def rank(self, label):
        return self._pos[label]

    def serialize(self):
        return [format_label(self.datum, lbl) for lbl in self.sequence]

    # -- invariants ----------------------------------------------------------

    def violations(self):
        """All violated order invariants, as human-readable strings."""
        d = self.datum
        codes = [_encode(d, ar) for ar in self.roots]
        pos = {c: p for p, c in enumerate(codes)}
        cls = self.root_class
        cap = max([0] + [level for _, level in codes])
        # each root against the roots before it, one root index at a time;
        # the (a, b, code) found are reported in the order of the pairs
        bad = []
        groups = {}     # root index -> (levels, positions) of the roots so far
        for b, y in enumerate(codes):
            for j, (levels, at) in groups.items():
                for k, g, m in _group_codes(d, j, levels, y, cap):
                    p = pos.get((g, m))
                    if p is not None and not at[k] < p < b:
                        bad.append((at[k], b, (g, m)))
            levels, at = groups.setdefault(y[0], ([], []))
            levels.append(y[1])
            at.append(b)
        bad.sort(key=lambda t: t[:2])
        out = [f"convexity: {d.format_affine(_decode(d, c))} "
               f"not between {d.format_affine(self.roots[a])} "
               f"and {d.format_affine(self.roots[b])}" for a, b, c in bad]
        late = defect(self.roots, {ar for ar in self.roots if cls[ar] == 1})
        out += [f"separation: class-1 root {d.format_affine(ar)} "
                "after a class-2 root" for ar in self.roots if ar in late]
        late = defect(self.roots, self.phi_K)
        out += [f"K-compatibility: {d.format_affine(ar)} after a root "
                "outside the K-subsystem" for ar in self.roots if ar in late]
        for ar in self.phi_K:
            if ar in cls and cls[ar] != 1:
                out.append(f"classification: {d.format_affine(ar)} in the "
                           "K-subsystem but not class 1")
        for i, lbl in enumerate(self.sequence):
            if isinstance(lbl, AffineRoot):
                continue
            eta = format_label(d, lbl)
            for other in self.sequence[i + 1:]:
                if cls.get(other) == 1:
                    out.append(f"sandwich: class-1 root {format_label(d, other)} "
                               f"after top-edge label {eta}")
            for other in self.sequence[:i]:
                if cls.get(other) == 2:
                    out.append(f"sandwich: class-2 root {format_label(d, other)} "
                               f"before top-edge label {eta}")
        W = d.weyl_group()
        for i, a in enumerate(self.etas):
            for b in self.etas[i + 1:]:
                if W.bruhat_leq(b, a) and b != a:
                    out.append(f"eta order does not refine Bruhat order: "
                               f"{b.word_str()} is below {a.word_str()} "
                               "but comes after it")
        return out

    def check(self):
        bad = self.violations()
        if bad:
            raise PropertyViolation("; ".join(bad[:10]))
        return True


def defect(order_list, phi_K):
    """Members of phi_K (the K-subsystem, or any set) after an outsider."""
    out = set()
    seen_outsider = False
    for ar in order_list:
        if ar in phi_K:
            if seen_outsider:
                out.add(ar)
        else:
            seen_outsider = True
    return out


def repair_step(datum, K, order_list, s_root):
    """Move s_root to the front, re-sorting the displaced prefix through s.

    s_root must be a member of K whose root is in the defect set.  The block
    that preceded it is reordered by the old positions of its reflections;
    everything after keeps its order.
    """
    if s_root not in set(K):
        raise InputError("repair step wants a simple reflection from K")
    pos = {ar: i for i, ar in enumerate(order_list)}
    if s_root not in pos:
        raise InputError("reflection root missing from the order")
    s = affine_reflection(datum, s_root)
    cut = pos[s_root]
    before, after = order_list[:cut], order_list[cut + 1:]

    def image_pos(ar):
        img = s.act(ar)
        if not datum.is_positive_affine(img):
            img = -img
        p = pos.get(img)
        if p is None:
            raise PropertyViolation("reflection image escaped the relevant set")
        return p

    reordered = sorted(before, key=image_pos)
    return [s_root] + reordered + list(after)


def _separating_vector(datum, Jp, cap):
    """Integers (P, D), D > 0, with v = P/D and <v,.> + level negative
    exactly on the class-1 roots."""
    ns = datum.nsimple
    cols = [tuple(a[i] for a in datum.simple_roots) for i in range(datum.rank)]
    target = tuple(0 if j in Jp else 1 for j in range(ns))
    lam = solve_linear(cols, target)
    if lam is None:
        raise PropertyViolation("no coweight separates the K-directions")
    den = lcm(*(x.denominator for x in lam))
    rho_p = [0] * datum.rank
    for a, av in zip(datum.positive_roots, datum.positive_coroots):
        if datum.root_support(a) <= Jp:
            rho_p = [x + y for x, y in zip(rho_p, av)]
    R = max([1] + [abs(dot(rho_p, a)) for a in datum.roots])
    # v = (cap + 1) * lam - rho_p / (2 * (R + 1))
    big = (cap + 1) * 2 * (R + 1)
    P = tuple(big * x.numerator * (den // x.denominator) - den * r
              for x, r in zip(lam, rho_p))
    return P, 2 * (R + 1) * den


def _order_keys(datum, S, P, D):
    """Integer sort key of each root in S; see step 2 of the module notes."""
    scale = 1 + max(dot(datum.two_rho_coroot, a) for a in datum.positive_roots)
    height = {ar: dot(datum.two_rho_coroot, ar.root) + scale * ar.level
              for ar in S}
    M = lcm(*height.values())
    return {ar: tuple(c * (M // height[ar]) for c in
                      (dot(P, ar.root) + D * ar.level, ar.level) + ar.root)
            for ar in S}


def build_label_order(poset):
    """Construct and verify the label order for an admissible poset."""
    datum = poset.datum
    K = poset.K
    phi_K = subsystem_positive(datum, K)
    seeds = {ar for up, _, ar in poset.covers if up != poset.top}
    S, cap, capped = relevant_closure(datum, K, seeds, phi_K)
    classify = make_classifier(datum, K, phi_K)
    cls = {ar: classify(ar) for ar in S}
    Jp = finite_subsystem_indices(datum, K)
    P, D = _separating_vector(datum, Jp, cap)
    key = _order_keys(datum, S, P, D)
    for ar in S:
        # M // H > 0, so the leading entry has the sign of <v, root> + level
        if (key[ar][0] < 0) != (cls[ar] == 1):
            raise PropertyViolation(
                f"separating functional misclassifies {datum.format_affine(ar)}")

    ordered = sorted(S, key=key.__getitem__)
    for x, y in zip(ordered, ordered[1:]):
        if key[x] == key[y]:
            raise PropertyViolation("tied sort keys in the label order")

    # each step must shrink the defect set, so the loop ends
    bad = defect(ordered, phi_K)
    while bad:
        s_root = next((ar for ar in K if ar in bad), None)
        if s_root is None:
            raise PropertyViolation("defect set contains no simple K-root")
        ordered = repair_step(datum, K, ordered, s_root)
        bad, before = defect(ordered, phi_K), bad
        if len(bad) >= len(before):
            raise PropertyViolation("defect repair did not shrink the defect")

    n1 = sum(1 for ar in ordered if cls[ar] == 1)
    order = LabelOrder(datum, K, ordered[:n1] + poset.WJK + ordered[n1:],
                       capped=capped)
    order.check()
    return order


def label_edges(poset, order):
    """Attach ranks and display strings to every cover; build the checkable poset."""
    from .shellcheck import LabeledPoset
    datum = poset.datum
    covers = []
    for up, lo, label in poset.covers:
        if isinstance(label, AffineRoot) and not datum.is_positive_affine(label):
            raise InputError("cover carries a non-positive affine root")
        covers.append((up, lo, order.rank(label), format_label(datum, label)))
    lengths = [w.length for w in poset.elements]
    lengths.append(max(lengths) + 1 if lengths else 1)
    names = poset.element_names()
    return LabeledPoset(len(poset.elements) + 1, poset.top, poset.tau_id,
                        lengths, covers, names)
