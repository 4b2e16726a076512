"""Quantum Bruhat graph of the finite Weyl group.

Vertices are the group elements; each (w, alpha) with alpha positive gives an
upward edge w -> w*s_alpha when the length goes up by one (weight 0) and a
downward edge when it drops by <alpha^vee, 2rho> - 1 (weight alpha^vee).
Shortest-path weights are well defined, and one cached search gives them from a
source; left multiplication by w0 turns every edge around and keeps its root
and weight, so the same tables give them into a target.  A greedy walk finds a
down-up or an up-down path.
"""

from collections import namedtuple
from functools import cached_property

from .errors import PropertyViolation
from .exact import vec_add

Edge = namedtuple("Edge", "src dst root_idx quantum weight")


def _first_down(steps):
    """The downward edge of least root index, else the upward one."""
    return min(steps, key=lambda e: (not e.quantum, e.root_idx))


class QuantumBruhatGraph:
    def __init__(self, datum):
        self.datum = datum
        self.group = datum.weyl_group()
        n = len(self.group)
        zero = (0,) * datum.rank
        self.out = [[] for _ in range(n)]
        for i, w in enumerate(self.group.elements):
            lw = w.length
            for r, (a, av) in enumerate(zip(datum.positive_roots,
                                            datum.positive_coroots)):
                t = w * self.group.reflections[r]
                j = self.group.index[t]
                if t.length == lw + 1:
                    e = Edge(i, j, r, False, zero)
                elif t.length == lw + 1 - datum.pairing(av, datum.two_rho):
                    e = Edge(i, j, r, True, av)
                else:
                    continue
                self.out[i].append(e)
        for i in range(n):
            self.out[i].sort(key=lambda e: (e.quantum, e.root_idx))
        self.into = [[] for _ in range(n)]
        for es in self.out:
            for e in es:
                self.into[e.dst].append(e)
        self._dist, self._wt = [None] * n, [None] * n
        w0 = self.group.longest_element()
        self._mirror = [self.group.index[w0 * w] for w in self.group.elements]

    @cached_property
    def up(self):
        """The targets of each vertex's upward edges, its Bruhat covers."""
        return [tuple(e.dst for e in es if not e.quantum) for es in self.out]

    def _idx(self, w):
        return w if isinstance(w, int) else self.group.index[w]

    def _bfs(self, i):
        """d and wt from vertex i to every vertex, by one cached search."""
        if self._dist[i] is not None:
            return self._dist[i], self._wt[i]
        n = len(self.group)
        zero = (0,) * self.datum.rank
        dist, wt = [None] * n, [None] * n
        dist[i], wt[i] = 0, zero
        frontier = [i]
        while frontier:
            new = []
            for a in frontier:
                da, wa = dist[a] + 1, wt[a]
                for e in self.out[a]:
                    b = e[1]
                    if dist[b] is None or dist[b] == da:
                        # Bruhat edges carry the zero weight: only quantum
                        # edges build a new tuple
                        wb = wa if e.weight == zero else vec_add(wa, e.weight)
                        if dist[b] is None:
                            dist[b] = da
                            wt[b] = wb
                            new.append(b)
                        # every shortest-path DAG edge must agree on it
                        elif wb != wt[b]:
                            raise PropertyViolation(
                                "shortest paths with different weights")
            frontier = new
        if any(d is None for d in dist):
            raise PropertyViolation("quantum Bruhat graph is not connected")
        self._dist[i], self._wt[i] = dist, wt
        return dist, wt

    def distance_and_weight(self, u, v):
        dist, wt = self._bfs(self._idx(u))
        j = self._idx(v)
        return dist[j], wt[j]

    def wt(self, u, v):
        return self.distance_and_weight(u, v)[1]

    def weights(self, v, into=False):
        """wt(v, z) for every z in group order; wt(z, v) with into=True.

        The edge w -> w*s_alpha becomes w0*w*s_alpha -> w0*w under w -> w0*w,
        with the same root and weight, so wt(z, v) = wt(w0*v, w0*z).
        """
        j = self._idx(v)
        if not into:
            return self._bfs(j)[1]
        wt = self._bfs(self._mirror[j])[1]
        return [wt[k] for k in self._mirror]

    @staticmethod
    def is_downup(path):
        return not any(not a.quantum and b.quantum
                       for a, b in zip(path, path[1:]))

    @staticmethod
    def is_updown(path):
        return not any(a.quantum and not b.quantum
                       for a, b in zip(path, path[1:]))

    def downup_path(self, u, v):
        """A shortest path where no upward edge precedes a downward one.

        A greedy walk from u: at each vertex a, take the downward edge of
        least root index that stays on a shortest path to v, else the upward
        one.  It rests on the fact that a shortest down-up path joins any
        two elements.  If no downward edge out of a stays on a shortest
        path, the shortest down-up path from a is all upward, so
        d(a, v) = l(v) - l(a).  An upward edge adds 1 to the length and a
        downward one takes off <alpha^vee, 2rho> - 1 >= 1, so every shortest
        path onward is upward as well.
        """
        j = self._idx(v)
        path = []
        a = self._idx(u)
        while a != j:
            d = self._bfs(a)[0][j] - 1
            step = _first_down([e for e in self.out[a]
                                if self._bfs(e.dst)[0][j] == d])
            path.append(step)
            a = step.dst
        if not self.is_downup(path):
            raise PropertyViolation("greedy walk did not produce a down-up path")
        return path

    def updown_path(self, u, v):
        """A shortest path where no downward edge precedes an upward one.

        The mirror image of `downup_path`: a greedy walk back from v over
        the in-edges, taking at each vertex b the downward edge of least
        root index into b whose source is one step closer to u, else the
        upward one.  If no downward edge into b qualifies, the shortest
        up-down path from u to b is all upward, so d(u, b) = l(b) - l(u) and
        every shortest path from u to b is upward.
        """
        i = self._idx(u)
        dist = self._bfs(i)[0]
        path = []
        b = self._idx(v)
        while b != i:
            step = _first_down([e for e in self.into[b]
                                if dist[e.src] == dist[b] - 1])
            path.append(step)
            b = step.src
        path.reverse()
        if not self.is_updown(path):
            raise PropertyViolation("greedy walk did not produce an up-down path")
        return path

    def to_dot(self):
        lines = ["digraph qbg {", '  rankdir="BT";']
        for w in self.group.elements:
            lines.append(f'  "{w.word_str()}";')
        for i in range(len(self.group)):
            for e in self.out[i]:
                s = self.group.elements[e.src].word_str()
                t = self.group.elements[e.dst].word_str()
                root = self.datum.format_root(self.datum.positive_roots[e.root_idx])
                if e.quantum:
                    wt = self.datum.format_coweight(tuple(e.weight))
                    lines.append(f'  "{s}" -> "{t}" [style=dashed, '
                                 f'label="{root}; wt={wt}"];')
                else:
                    lines.append(f'  "{s}" -> "{t}" [style=solid, label="{root}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"
