"""Graded labeled posets: chain machinery and shellability verification.

Works on plain integer ids so it can host both the admissible posets and
hand-built fixtures.  The dual-EL check makes one pass over the elements in
increasing length that covers every bottom u at once: bit u of a Python int
stands for u, as in the down-set bitsets.  Each down-edge of v gets
the bottoms u with at least one and with at least two weakly increasing
maximal chains of [u, v] through it, and v gets the bottoms whose greedy
(lexicographically least) chain of [u, v] is increasing.
"""

import itertools
import json
from bisect import bisect_left

from .errors import InputError, PropertyViolation


class LabeledPoset:
    """Covers carry an integer rank (position in the label order) and a display
    string.  Element 'top' is the formal maximum, 'zero' the minimum.  One
    pass over the covers, any iterable of (up, lo, rank, label), fills the
    one cover table down_adj: the (lo, rank, label) below each id by rank."""

    def __init__(self, n, top, zero, lengths, covers, names=None):
        self.n = n
        self.top = top
        self.zero = zero
        self.lengths = list(lengths)
        self.names = list(names) if names else [str(i) for i in range(n)]
        self.down_adj = [[] for _ in range(n)]
        covered = bytearray(n)
        for up, lo, rank, label in covers:
            if self.lengths[up] != self.lengths[lo] + 1:
                raise InputError("cover with a length gap")
            self.down_adj[up].append((lo, rank, label))
            covered[lo] = 1
        for adj in self.down_adj:
            adj.sort(key=lambda t: t[1])
            if any(a[1] == b[1] for a, b in zip(adj, adj[1:])):
                raise InputError("two covers of one element share a label")
        minimal = [i for i, adj in enumerate(self.down_adj)
                   if not adj and i != top]
        if n > 1 and minimal != [zero]:
            raise InputError("poset needs a unique minimal element")
        if any(not c and i != top for i, c in enumerate(covered)):
            raise InputError("element neither covered nor the top")
        self.down = closure_bits(
            sorted(range(n), key=lambda i: self.lengths[i]),
            [[lo for lo, _, _ in adj] for adj in self.down_adj])

    @property
    def covers(self):
        """Every cover (up, lo, rank, label), sorted by (up, lo)."""
        return [(up, lo, rank, label) for up, adj in enumerate(self.down_adj)
                for lo, rank, label in sorted(adj)]

    def __eq__(self, other):
        return (isinstance(other, LabeledPoset) and self.n == other.n
                and self.top == other.top and self.zero == other.zero
                and self.lengths == other.lengths and self.names == other.names
                and self.down_adj == other.down_adj)

    def leq(self, i, j):
        return bool(self.down[j] >> i & 1)

    # -- chains --------------------------------------------------------------

    def all_maximal_chains(self, u, v, cap=None):
        """Every maximal chain of [u, v], as edge lists top-down."""
        out = []

        def extend(z, acc):
            if cap is not None and len(out) >= cap:
                return
            if z == u:
                out.append(list(acc))
                return
            for lo, rank, label in self.down_adj[z]:
                if self.leq(u, lo):
                    acc.append((z, lo, rank, label))
                    extend(lo, acc)
                    acc.pop()

        extend(v, [])
        return out

    def _chain_counts(self, u, mask):
        """{v: edges} for v != u in mask (a set of v >= u) in increasing
        length; edges are v's down-edges (lo, rank, label, n) into mask, and n
        counts the weakly increasing maximal chains of [u, v] through it.

        One bottom at a time: it serves distinguished_chain and the detail of
        the intervals that verify_dual_el finds failing."""
        table = {}
        for v in sorted(_bits_iter(mask & ~(1 << u)),
                        key=self.lengths.__getitem__):
            edges = []
            for lo, rank, label in self.down_adj[v]:
                if mask >> lo & 1:
                    n = 1 if lo == u else sum(m for _, r, _, m in table[lo]
                                              if r >= rank)
                    edges.append((lo, rank, label, n))
            table[v] = edges
        return table

    def verify_dual_el(self):
        """Every interval [u, v] must have one weakly increasing maximal chain,
        and it must be the least.  The covers of one element have distinct
        ranks, so the least chain takes the minimum-rank edge at every step.

        One pass in increasing length covers every bottom at once.  For each
        v, with down-edges (lo_i, rank_i) in rank order, it keeps suffix
        tables over those edges: suf1[k] and suf2[k] hold the bottoms with at
        least one and at least two increasing chains through edges k.., and
        pre[k] is the union of down[lo_i] for i < k.  An edge (lo, rank) of v
        carries [u == lo] plus the saturating sum of lo's edges of rank >=
        rank (a suffix of lo's tables); sums saturated at 2 decide "count ==
        1" exactly.  The greedy chain of [u, v] steps into the first lo_i
        above u, and stays increasing iff u == lo_i, or lo_i's greedy chain
        is increasing and no edge of lo_i of smaller rank lies above u.
        Lower covers lie one length down, so only the layer below is kept.
        Each failing bottom goes back through _chain_counts for its exact
        counts and reasons."""
        down = self.down
        layers = {}
        for v in range(self.n):
            layers.setdefault(self.lengths[v], []).append(v)
        below = {}
        checked = 0
        failing = {}
        for length in sorted(layers):
            table = {}
            for v in layers[length]:
                adj = self.down_adj[v]
                ones, twos = [], []
                pre = [0]
                greedy = 0
                for lo, rank, _ in adj:
                    ranks, suf1, suf2, lo_pre, lo_greedy = below[lo]
                    k = bisect_left(ranks, rank)
                    ones.append((1 << lo) | suf1[k])
                    twos.append(suf2[k])
                    greedy |= down[lo] & ~pre[-1] & (
                        (1 << lo) | (lo_greedy & ~lo_pre[k]))
                    pre.append(pre[-1] | down[lo])
                s1 = s2 = 0
                suf1, suf2 = [0], [0]
                for a1, a2 in zip(reversed(ones), reversed(twos)):
                    s2 |= a2 | (s1 & a1)
                    s1 |= a1
                    suf1.append(s1)
                    suf2.append(s2)
                suf1.reverse()
                suf2.reverse()
                table[v] = ([r for _, r, _ in adj], suf1, suf2, pre, greedy)
                strict = down[v] & ~(1 << v)
                checked += strict.bit_count()
                fails = strict & ~(s1 & ~s2 & greedy)
                for u in _bits_iter(fails):
                    failing.setdefault(u, []).append(v)
            below = table
        violations = []
        for u in sorted(failing):
            table = self._chain_counts(u, up_set(down, u))
            for v in sorted(failing[u]):
                c = sum(e[3] for e in table[v])
                if c != 1:
                    bad = f"{c} label-increasing maximal chains"
                else:
                    bad = "the increasing chain is not lexicographically least"
                chains = self.all_maximal_chains(u, v, cap=24)
                violations.append({
                    "w": self.names[u],
                    "w_prime": self.names[v],
                    "reason": bad,
                    "chains": [[e[3] for e in ch] for ch in chains],
                })
        violations.sort(key=lambda v: (v["w"], v["w_prime"]))
        return {"status": "PASS" if not violations else "FAIL",
                "intervals_checked": checked,
                "violations": violations}

    def distinguished_chain(self, w, gateway):
        """The increasing chain of [w, gateway] with the top edge prepended.

        gateway must be a coatom; the interval chain must be unique.
        """
        top_edge = next(((self.top, lo, rank, label)
                         for lo, rank, label in self.down_adj[self.top]
                         if lo == gateway), None)
        if top_edge is None:
            raise InputError("gateway is not covered by the top element")
        if gateway == w:
            return [top_edge]
        if not self.leq(w, gateway):
            raise InputError("element does not sit below the gateway")
        table = self._chain_counts(w, up_set(self.down, w) & self.down[gateway])
        c = sum(e[3] for e in table[gateway])
        if c != 1:
            raise PropertyViolation(
                f"interval below the gateway has {c} increasing chains")
        chain = [top_edge]
        z, r = gateway, -1
        while z != w:
            lo, rank, label, _ = next(e for e in table[z]
                                      if e[1] >= r and e[3] > 0)
            chain.append((z, lo, rank, label))
            z, r = lo, rank
        return chain

    # -- recursive coatom orderings -------------------------------------------

    def _covers_in(self, x, ideal):
        """(F, pure) for an order ideal without x: bit k of F is set iff
        down_adj[x][k], the k-th lower cover in label order, is in it; pure
        says whether ideal & down(x) has only covers of x as maxima."""
        down = self.down
        F = reach = 0
        for k, (z, _, _) in enumerate(self.down_adj[x]):
            if ideal >> z & 1:
                F |= 1 << k
                reach |= down[z]
        return F, ideal & down[x] == reach

    def _in_order(self, ids, step):
        """Each x of ids (one length) meets the earlier ones in a pure ideal,
        with maxima F (positions in down_adj[x]), and step(x, F) holds."""
        covers_in, down = self._covers_in, self.down
        prev = 0
        for x in ids:
            F, pure = covers_in(x, prev)
            if not pure or not step(x, F):
                return False
            prev |= down[x]
        return True

    def recursive_coatom_check(self):
        """(ok, coatom names): whether the label order, with the covers that
        meet earlier siblings put first, is a recursive coatom ordering.

        A state (x, first) orders the lower covers of x as those at the
        positions in first (bits of positions in down_adj[x]), then the
        rest, each part in label order; it passes iff each cover meets the
        earlier ones in a pure ideal and its own state passes.  A prefix
        first (positions 0..k-1) gives the label order itself, as first = 0
        does, so it is keyed as 0 and x gets one state wherever the label
        order serves it.  The memo's provisional True is safe: a state
        recurses only to covers strictly below x, and a poset has no cycles,
        so no state meets itself before its verdict is stored.
        """
        down_adj = self.down_adj
        memo = {}

        def attempt(top_el, first):
            if not first & (first + 1):  # a prefix orders as the label order
                first = 0
            key = (top_el, first)
            got = memo.get(key)
            if got is not None:
                return got
            memo[key] = True  # provisional, cycles impossible in a poset
            if self.lengths[top_el] - self.lengths[self.zero] <= 1:
                return True
            # the covers at the positions in first, then the rest
            ids = [c for c, _, _ in down_adj[top_el]]
            ordering = ([c for k, c in enumerate(ids) if first >> k & 1]
                        + [c for k, c in enumerate(ids) if not first >> k & 1])
            ok = memo[key] = self._in_order(ordering, attempt)
            return ok

        ok = attempt(self.top, 0)
        return ok, [self.names[lo] for lo, _, _ in down_adj[self.top]]

    # -- N-Cohen-Macaulay ------------------------------------------------------

    def ncm_check(self):
        """N-Cohen-Macaulayness of the poset without its formal top element.

        An order ideal I of rank N passes iff every maximum of I has rank N
        and the maxima have an order x1, x2, ... in which each
        (down(x1) | ... | down(x_{j-1})) & down(x_j) passes at rank N - 1.
        Each ideal visited is the union of the down-sets of a set F of lower
        covers of some x, so it is pure with maxima F: the check recurses on
        (x, F) from (top, coatoms), F a set of positions in down_adj[x].
        F is taken in that label order, and each later z recurses on its
        covers in the earlier down-sets (_in_order).  Where that order fails
        on at most 6 maxima, every order is tried, so a False is exact; above
        6 it says only that the label order fails, and then
        recursive_coatom_check fails too, since it tries that order first at
        every level.  The one-element poset fails.
        """
        if self.top == self.zero:
            return False
        memo = {}

        def passes(x, F):
            if not F & (F - 1):  # at most one maximum
                return True
            got = memo.get((x, F))
            if got is None:
                seq = [lo for k, (lo, _, _) in enumerate(self.down_adj[x])
                       if F >> k & 1]
                got = memo[x, F] = self._in_order(seq, passes) or (
                    len(seq) <= 6 and any(self._in_order(p, passes)
                                          for p in itertools.permutations(seq)))
            return got

        return passes(self.top, (1 << len(self.down_adj[self.top])) - 1)

    # -- ideal restriction ------------------------------------------------------

    def ideal_restriction(self, gateway_ids):
        """Sub-poset below a rank-downward-closed set of coatoms, plus the top."""
        chosen = list(dict.fromkeys(gateway_ids))
        if not chosen:
            raise InputError("the restriction needs at least one coatom")
        top_rank = {lo: rank for lo, rank, _ in self.down_adj[self.top]}
        for c in chosen:
            if c not in top_rank:
                raise InputError("restriction member is not a coatom")
        cut = max(top_rank[c] for c in chosen)
        if any(lo not in chosen
               for lo, rank in top_rank.items() if rank <= cut):
            raise InputError("restriction set is not downward closed "
                             "in the label order")
        keep = 0
        for c in chosen:
            keep |= self.down[c]
        keep_ids = sorted(_bits_iter(keep)) + [self.top]
        remap = {old: i for i, old in enumerate(keep_ids)}
        covers = ((remap[up], remap[lo], rank, label)
                  for up, adj in enumerate(self.down_adj) if up in remap
                  for lo, rank, label in adj
                  if lo in remap and (up != self.top or lo in chosen))
        return LabeledPoset(len(keep_ids), remap[self.top], remap[self.zero],
                            [self.lengths[i] for i in keep_ids], covers,
                            [self.names[i] for i in keep_ids])

    # -- serialization ------------------------------------------------------------

    def to_json_dict(self):
        return {"n": self.n, "top": self.top, "zero": self.zero,
                "lengths": self.lengths,
                "covers": [list(c) for c in self.covers],
                "names": self.names}

    @classmethod
    def from_json_dict(cls, data):
        covers = [tuple(c) for c in data["covers"]]
        return cls(data["n"], data["top"], data["zero"], data["lengths"],
                   covers, data["names"])

    def to_json(self):
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2)

    def to_dot(self):
        lines = ["digraph poset {", '  rankdir="BT";']
        for i in range(self.n):
            lines.append(f'  "{self.names[i]}";')
        for up, lo, _, label in self.covers:
            lines.append(f'  "{self.names[lo]}" -> "{self.names[up]}" '
                         f'[label="{label}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def closure_bits(order, lower):
    """Down-set bitsets of a graded poset, from its covers.

    order lists every id in increasing length; lower[i] lists the lower covers
    of i.  Bit j of down[i] is set iff j <= i.
    """
    down = [1 << i for i in range(len(lower))]
    for i in order:
        for j in lower[i]:
            down[i] |= down[j]
    return down


def up_set(down, u):
    """Bitset of the v >= u, read off the down-sets: bit u of down[v]."""
    return sum(1 << v for v, d in enumerate(down) if d >> u & 1)


def _bits_iter(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low

