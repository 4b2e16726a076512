"""Quantum Bruhat graph of the finite Weyl group.

Vertices are the group elements; each (w, alpha) with alpha positive gives an
upward edge w -> w*s_alpha when the length goes up by one (weight 0) and a
downward edge when it drops by <alpha^vee, 2rho> - 1 (weight alpha^vee).
Shortest-path weights are well defined; down-up and up-down shortest paths are
produced by local rewriting.
"""

from collections import namedtuple

from .errors import PropertyViolation
from .exact import vec_add

Edge = namedtuple("Edge", "src dst root_idx quantum weight")


class QuantumBruhatGraph:
    def __init__(self, datum):
        self.datum = datum
        self.group = datum.weyl_group()
        self.w0 = self.group.longest_element()
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
        self._dist = [None] * n
        self._wt = [None] * n

    def _idx(self, w):
        return w if isinstance(w, int) else self.group.index[w]

    def _bfs(self, i):
        if self._dist[i] is None:
            n = len(self.group)
            zero = (0,) * self.datum.rank
            dist = [None] * n
            wt = [None] * n
            dist[i], wt[i] = 0, zero
            frontier = [i]
            while frontier:
                new = []
                for a in frontier:
                    da, wa = dist[a] + 1, wt[a]
                    for e in self.out[a]:
                        b = e.dst
                        if dist[b] is None or dist[b] == da:
                            # Bruhat edges carry the zero weight: only
                            # quantum edges build a new tuple
                            wb = wa if e.weight == zero else vec_add(
                                wa, e.weight)
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
            self._dist[i] = dist
            self._wt[i] = wt
        return self._dist[i], self._wt[i]

    def distance_and_weight(self, u, v):
        dist, wt = self._bfs(self._idx(u))
        j = self._idx(v)
        return dist[j], wt[j]

    def wt(self, u, v):
        return self.distance_and_weight(u, v)[1]

    def all_shortest_paths(self, u, v):
        """Every path of length d(u, v), as a list of edge lists."""
        i, j = self._idx(u), self._idx(v)
        dist_u, _ = self._bfs(i)
        dist_j = None
        out = []

        def extend(a, path):
            if a == j and len(path) == dist_u[j]:
                out.append(list(path))
                return
            for e in self.out[a]:
                if dist_u[e.dst] == dist_u[a] + 1 \
                        and dist_u[a] + 1 + self._bfs(e.dst)[0][j] == dist_u[j]:
                    path.append(e)
                    extend(e.dst, path)
                    path.pop()

        extend(i, [])
        return out

    def paths_of_length(self, u, v, length, cap=None):
        """All u -> v paths of the given length (up to cap, if set)."""
        i, j = self._idx(u), self._idx(v)
        out = []

        def extend(a, path):
            if cap is not None and len(out) >= cap:
                return
            rest = length - len(path)
            if rest == 0:
                if a == j:
                    out.append(list(path))
                return
            da = self._bfs(a)[0][j]
            if da > rest:
                return
            for e in self.out[a]:
                path.append(e)
                extend(e.dst, path)
                path.pop()

        extend(i, [])
        return out

    def path_weight(self, path):
        w = (0,) * self.datum.rank
        for e in path:
            w = vec_add(w, e.weight)
        return w

    @staticmethod
    def is_downup(path):
        return not any(not a.quantum and b.quantum
                       for a, b in zip(path, path[1:]))

    @staticmethod
    def is_updown(path):
        return not any(a.quantum and not b.quantum
                       for a, b in zip(path, path[1:]))

    def _some_shortest_path(self, i, j):
        dist_i, _ = self._bfs(i)
        path = []
        a = i
        while a != j:
            step = min((e for e in self.out[a]
                        if dist_i[e.dst] == dist_i[a] + 1
                        and dist_i[a] + 1 + self._bfs(e.dst)[0][j] == dist_i[j]),
                       key=lambda e: (e.root_idx, e.quantum))
            path.append(step)
            a = step.dst
        return path

    def downup_path(self, u, v):
        """A shortest path where no upward edge precedes a downward one."""
        i, j = self._idx(u), self._idx(v)
        if i == j:
            return []
        path = self._some_shortest_path(i, j)
        d = len(path)
        budget = d * self.datum.num_positive
        steps = 0
        while True:
            spot = next((k for k in range(d - 1)
                         if not path[k].quantum and path[k + 1].quantum), None)
            if spot is None:
                break
            steps += 1
            if steps > budget:
                raise PropertyViolation("down-up rewriting exceeded its bound")
            p, r = path[spot].src, path[spot + 1].dst
            repl = None
            cands = sorted(self.out[p], key=lambda e: (e.root_idx, e.quantum))
            for e1 in cands:
                for e2 in sorted(self.out[e1.dst],
                                 key=lambda e: (e.root_idx, e.quantum)):
                    if e2.dst == r and not (not e1.quantum and e2.quantum):
                        repl = [e1, e2]
                        break
                if repl:
                    break
            if repl is None:
                raise PropertyViolation(
                    "no down-up replacement for a 2-step segment")
            path[spot:spot + 2] = repl
        if not self.is_downup(path) or len(path) != d:
            raise PropertyViolation("rewriting did not produce a down-up path")
        return path

    def _dual_edge(self, e):
        d = self.datum
        w0 = self.w0
        src = self.group.elements[e.src]
        dst = self.group.elements[e.dst]
        # w0 sends every positive root to a negative one: -w0(a) is positive
        r2 = w0.perm[e.root_idx] - d.num_positive
        i2 = self.group.index[dst * w0]
        j2 = self.group.index[src * w0]
        # -w0(a^vee) is the coroot of -w0(a)
        weight = d.positive_coroots[r2] if e.quantum else (0,) * d.rank
        return Edge(i2, j2, r2, e.quantum, weight)

    def updown_path(self, u, v):
        """A shortest path where no downward edge precedes an upward one."""
        w0 = self.w0
        uu = (u if not isinstance(u, int) else self.group.elements[u])
        vv = (v if not isinstance(v, int) else self.group.elements[v])
        dual = self.downup_path(vv * w0, uu * w0)
        path = [self._dual_edge(e) for e in reversed(dual)]
        if not self.is_updown(path):
            raise PropertyViolation("dual transform did not produce up-down")
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
