"""Based root data in ambient lattice coordinates, plus affine roots.

A datum holds dual lattices X^* and X_* realised as Z^n with the standard dot
pairing.  Roots live in X^*, coroots in X_*.  Presets cover the classical
series in simply-connected or adjoint lattices, GL_n, and their products;
explicit simple roots/coroots are accepted too.

The root system is one indexed table: ``roots`` (positive roots, then their
negatives), with ``coroots`` and the integer simple-root coordinates
``root_coords`` aligned with it and ``root_index`` mapping a root to its index.
"""

from math import lcm

from .errors import InputError
from .exact import dot, solve_linear, vec_neg, vec_sub
from . import weyl
from .weyl import WeylGroup
from .qbg import QuantumBruhatGraph


class AffineRoot:
    """Pair (finite root, integer level), compared structurally."""

    __slots__ = ("root", "level", "_hash")

    def __init__(self, root, level):
        if type(level) is not int:
            raise InputError(f"affine root level must be an integer, "
                             f"not {level!r}")
        self.root = tuple(root)
        self.level = level
        self._hash = hash((self.root, self.level))

    def __eq__(self, other):
        return (isinstance(other, AffineRoot)
                and self.root == other.root and self.level == other.level)

    def __hash__(self):
        return self._hash

    def __neg__(self):
        return AffineRoot(vec_neg(self.root), -self.level)

    def __repr__(self):
        return f"AffineRoot({self.root}, {self.level})"


def _cartan_matrix(series, n):
    # C[i][j] = <alpha_i^vee, alpha_j>
    C = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def link(i, j, cij=-1, cji=-1):
        C[i][j] = cij
        C[j][i] = cji

    if series == "A":
        for i in range(n - 1):
            link(i, i + 1)
    elif series == "B":
        if n < 2:
            raise InputError("B_n needs n >= 2")
        for i in range(n - 2):
            link(i, i + 1)
        link(n - 2, n - 1, -1, -2)  # alpha_n short
    elif series == "C":
        if n < 2:
            raise InputError("C_n needs n >= 2")
        for i in range(n - 2):
            link(i, i + 1)
        link(n - 2, n - 1, -2, -1)  # alpha_n long
    elif series == "D":
        if n < 3:
            raise InputError("D_n needs n >= 3")
        for i in range(n - 3):
            link(i, i + 1)
        link(n - 3, n - 2)
        link(n - 3, n - 1)
    elif series == "G":
        if n != 2:
            raise InputError("G_n only exists for n = 2")
        link(0, 1, -3, -1)  # alpha_1 short, alpha_2 long
    else:
        raise InputError(f"unknown series {series!r}")
    return C


def _is_finite_type(cartan):
    """Whether a Cartan matrix A with diagonal 2 is of finite type.

    Off-diagonal entries must be < 0 in symmetric pairs or 0, so A is a
    Z-matrix; it is then of finite type iff it is a nonsingular M-matrix
    (Kac, Thm 4.3), i.e. iff every leading principal minor is positive
    (Fiedler-Ptak).  Integer Bareiss elimination has the k-th leading minor
    as its k-th pivot, and each of its divisions is exact.  Root generation
    terminates only for such data.
    """
    n = len(cartan)
    for i in range(n):
        for j in range(n):
            if j != i and (cartan[i][j] > 0
                           or (cartan[i][j] == 0) != (cartan[j][i] == 0)):
                return False
    A = [list(row) for row in cartan]
    prev = 1
    for k in range(n):
        if A[k][k] <= 0:
            return False
        for r in range(k + 1, n):
            for c in range(k + 1, n):
                A[r][c] = (A[r][c] * A[k][k] - A[r][k] * A[k][c]) // prev
        prev = A[k][k]
    return True


def _check_rows(key, rows):
    if not (isinstance(rows, (list, tuple)) and rows and all(
            isinstance(row, (list, tuple))
            and all(type(c) is int for c in row) for row in rows)):
        raise InputError(f"{key} must be a non-empty list of lists "
                         f"of integers, not {rows!r}")


class RootDatum:
    def __init__(self, simple_roots, simple_coroots, name="custom"):
        _check_rows("simple_roots", simple_roots)
        _check_rows("simple_coroots", simple_coroots)
        simple_roots = [tuple(v) for v in simple_roots]
        simple_coroots = [tuple(v) for v in simple_coroots]
        if len(simple_roots) != len(simple_coroots):
            raise InputError("need as many simple coroots as simple roots")
        ranks = {len(v) for v in simple_roots} | {len(v) for v in simple_coroots}
        if len(ranks) != 1:
            raise InputError("mismatched vector lengths in lattice data")
        self.rank = ranks.pop()
        self.name = name
        self.simple_roots = tuple(simple_roots)
        self.simple_coroots = tuple(simple_coroots)
        self.nsimple = len(simple_roots)
        self.cartan = tuple(
            tuple(dot(cv, a) for a in simple_roots) for cv in simple_coroots)
        for i in range(self.nsimple):
            if self.cartan[i][i] != 2:
                raise InputError("<alpha_i^vee, alpha_i> must equal 2")
        if not _is_finite_type(self.cartan):
            raise InputError(f"Cartan matrix {[list(r) for r in self.cartan]} "
                             "is not of finite type")
        # every exponent is at least 1, so |W| >= 2^nsimple: a group too
        # large to generate is rejected before its roots are
        if 2 ** self.nsimple > weyl.MAX_ORDER:
            raise InputError(f"the Weyl group of {name} has order at least "
                             f"2^{self.nsimple}, above the limit of "
                             f"{weyl.MAX_ORDER}")
        self._build_roots()
        self._build_components()
        self._coords = {}
        self._pair_table = {}
        self._pairing_rows = {}
        self.two_rho = tuple(
            sum(a[i] for a in self.positive_roots) for i in range(self.rank))
        for i in range(self.nsimple):
            if dot(self.simple_coroots[i], self.two_rho) != 2:
                raise InputError("lattice data is not a valid based root datum "
                                 "(<alpha_i^vee, 2rho> != 2)")
        self.two_rho_coroot = tuple(
            sum(cv[i] for cv in self.positive_coroots) for i in range(self.rank))

    # -- construction ------------------------------------------------------

    def _build_roots(self):
        # Reflection by s_j subtracts <alpha_j^vee, root> from coordinate j,
        # so each root carries its simple-root coordinates as integers.  The
        # simple roots are independent (the Cartan matrix is nonsingular), so
        # the coordinates of a root do not depend on how it was reached.
        n = self.nsimple
        simple = list(zip(self.simple_roots, self.simple_coroots))
        seen = {a: (av, tuple(int(i == j) for i in range(n)))
                for j, (a, av) in enumerate(simple)}
        frontier = list(seen)
        while frontier:
            new = []
            for root in frontier:
                coroot, coords = seen[root]
                for j, (a, av) in enumerate(simple):
                    k = dot(av, root)
                    r2 = vec_sub(root, tuple(k * c for c in a))
                    c2 = vec_sub(coroot, tuple(dot(coroot, a) * c for c in av))
                    if r2 not in seen:
                        x2 = coords[:j] + (coords[j] - k,) + coords[j + 1:]
                        seen[r2] = (c2, x2)
                        new.append(r2)
                    elif seen[r2][0] != c2:
                        raise InputError("inconsistent root/coroot data")
            frontier = new
        pos = []
        for root, (coroot, coords) in seen.items():
            if min(coords) >= 0:
                pos.append((root, coroot, coords))
            elif max(coords) > 0:
                raise InputError("root with mixed-sign coordinates; "
                                 "not a valid based root datum")
        for root, _, _ in pos:
            if tuple(2 * c for c in root) in seen:
                raise InputError("non-reduced root system")
            if vec_neg(root) not in seen:
                raise InputError("root system not closed under negation")
        pos.sort(key=lambda t: (sum(t[2]), t[2]))
        self.positive_roots = tuple(p[0] for p in pos)
        self.positive_coroots = tuple(p[1] for p in pos)
        self.num_positive = len(pos)
        # index i < num_positive: a positive root; i + num_positive: its negative
        self.roots = self.positive_roots + tuple(
            vec_neg(a) for a in self.positive_roots)
        self.coroots = self.positive_coroots + tuple(
            vec_neg(av) for av in self.positive_coroots)
        half = tuple(p[2] for p in pos)
        self.root_coords = half + tuple(vec_neg(x) for x in half)
        self.root_index = {a: i for i, a in enumerate(self.roots)}

    def _build_components(self):
        n = self.nsimple
        comp_of = [None] * n
        comps = []
        for i in range(n):
            if comp_of[i] is not None:
                continue
            stack, comp = [i], []
            comp_of[i] = len(comps)
            while stack:
                a = stack.pop()
                comp.append(a)
                for b in range(n):
                    if comp_of[b] is None and self.cartan[a][b] != 0:
                        comp_of[b] = len(comps)
                        stack.append(b)
            comps.append(tuple(sorted(comp)))
        components = []
        for comp in comps:
            member = [i for i in range(self.num_positive)
                      if all(c == 0 or j in comp
                             for j, c in enumerate(self.root_coords[i]))]
            top = max(member, key=lambda i: sum(self.root_coords[i]))
            for i in member:
                if min(vec_sub(self.root_coords[top], self.root_coords[i])) < 0:
                    raise InputError("highest root is not highest; "
                                     "component data inconsistent")
            components.append((comp, self.roots[top], self.coroots[top]))
        self.components = tuple(components)

    # -- basic queries -----------------------------------------------------

    def pairing(self, coweight, weight):
        if len(coweight) != self.rank or len(weight) != self.rank:
            raise InputError("vector length does not match the lattice rank")
        return dot(coweight, weight)

    def is_root(self, vec):
        return tuple(vec) in self.root_index

    def root_sign(self, vec):
        return 1 if self.root_index[tuple(vec)] < self.num_positive else -1

    def coroot(self, vec):
        return self.coroots[self.root_index[tuple(vec)]]

    def simple_coords(self, vec):
        return self.root_coords[self.root_index[tuple(vec)]]

    def root_support(self, vec):
        return frozenset(i for i, c in enumerate(self.simple_coords(vec))
                         if c != 0)

    def is_dominant(self, mu):
        return all(dot(mu, a) >= 0 for a in self.simple_roots)

    # -- affine roots ------------------------------------------------------

    def simple_affine_roots(self):
        out = [AffineRoot(a, 0) for a in self.simple_roots]
        out.extend(AffineRoot(vec_neg(theta), 1) for _, theta, _ in self.components)
        return tuple(out)

    def is_positive_affine(self, ar):
        i = self.root_index.get(ar.root)
        if i is None:
            raise InputError(f"{ar.root} is not a root")
        return ar.level >= (0 if i < self.num_positive else 1)

    def coroot_coords(self, vec):
        """Integer coordinates of vec in the simple coroots, or None: (A^T)^-1
        of the pairings <vec, alpha_i>, if they add up to vec (off-span not).
        Each vector is solved once."""
        vec = tuple(vec)
        if vec in self._coords:
            return self._coords[vec]
        if len(vec) != self.rank:
            raise InputError(f"coweight {vec} does not have "
                             f"{self.rank} coordinates")
        if not hasattr(self, "_coroot_inverse"):
            # column k of (A^T)^-1 solves A^T x = e_k, alpha_k's own coords
            cols = [solve_linear(self.cartan, self.simple_coords(a))
                    for a in self.simple_roots]
            den = lcm(*(x.denominator for col in cols for x in col))
            self._coroot_inverse = den, [[int(den * x) for x in row]
                                         for row in zip(*cols)]
        den, inv = self._coroot_inverse
        pairs = [dot(vec, a) for a in self.simple_roots]
        sums = [dot(row, pairs) for row in inv]
        coords = None
        if not any(x % den for x in sums):
            coords = tuple(x // den for x in sums)
            if any(dot(coords, col) != v
                   for col, v in zip(zip(*self.simple_coroots), vec)):
                coords = None
        self._coords[vec] = coords
        return coords

    def in_coroot_cone(self, vec):
        """Is vec a nonnegative integer combination of simple coroots?"""
        c = self.coroot_coords(vec)
        return c is not None and min(c) >= 0

    def pairing_row(self, lam):
        """The integers <lam, a> for a over ``roots``, one cached row per lam."""
        row = self._pairing_rows.get(lam)
        if row is None:
            half = tuple(dot(lam, a) for a in self.positive_roots)
            row = self._pairing_rows[lam] = half + tuple(-c for c in half)
        return row

    def root_pair_table(self, i1, i2):
        """Roots gamma = s*r1 + t*r2 with rational s, t > 0, as integer rows.

        i1 and i2 index ``roots``: r1 = roots[i1] and r2 = roots[i2] are
        distinct, non-opposite roots, hence linearly independent.  Each row
        (g, sn, tn, den) has g the index of gamma in ``roots``, den > 0,
        sn > 0, tn > 0 and sn*r1 + tn*r2 == den*gamma, so s = sn/den and
        t = tn/den.  den is |det| of the first non-zero 2x2 minor of
        (r1, r2); rows follow the order of ``roots``.  Filled one pair at a
        time, on first use.
        """
        key = i1 * len(self.roots) + i2
        rows = self._pair_table.get(key)
        if rows is not None:
            return rows
        r1, r2 = self.roots[i1], self.roots[i2]
        n = len(r1)
        ij = next(((i, j) for i in range(n) for j in range(i + 1, n)
                   if r1[i] * r2[j] - r1[j] * r2[i] != 0), None)
        rows = []
        if ij is not None:
            i, j = ij
            det = r1[i] * r2[j] - r1[j] * r2[i]
            sign = 1 if det > 0 else -1
            den = sign * det
            for g, gamma in enumerate(self.roots):
                sn = sign * (gamma[i] * r2[j] - gamma[j] * r2[i])
                tn = sign * (r1[i] * gamma[j] - r1[j] * gamma[i])
                if sn <= 0 or tn <= 0:
                    continue
                if all(sn * a + tn * b == den * c
                       for a, b, c in zip(r1, r2, gamma)):
                    rows.append((g, sn, tn, den))
        rows = self._pair_table[key] = tuple(rows)
        return rows

    # -- groups (lazily built, cached) --------------------------------------

    def weyl_group(self):
        if not hasattr(self, "_weyl"):
            self._weyl = WeylGroup(self)
        return self._weyl

    def qbg(self):
        if not hasattr(self, "_qbg"):
            self._qbg = QuantumBruhatGraph(self)
        return self._qbg

    # -- rendering ----------------------------------------------------------

    def format_root(self, vec):
        return _format_coords(self.simple_coords(vec), "")

    def format_affine(self, ar):
        return f"({self.format_root(ar.root)},{ar.level})"

    def format_coweight(self, vec):
        coords = self.coroot_coords(vec)
        if coords is None:
            return "(" + ",".join(str(c) for c in vec) + ")"
        return _format_coords(coords, "^")

    def _affine_token(self, idx):
        if idx < self.nsimple:
            return f"a{idx + 1}"
        c = idx - self.nsimple
        return "a0" if len(self.components) == 1 else f"a0.{c + 1}"

    def affine_token(self, ar):
        """CLI token of a simple affine root: a1..an, a0 (a0.c for products)."""
        return self._affine_token(self.simple_affine_roots().index(ar))

    def parse_affine_token(self, token):
        """The simple affine root whose ``affine_token`` is the stripped token."""
        token = token.strip()
        if token == "a0" and len(self.components) != 1:
            raise InputError("a0 is ambiguous for products; use a0.<k>")
        for idx, ar in enumerate(self.simple_affine_roots()):
            if self._affine_token(idx) == token:
                return ar
        raise InputError(f"bad affine-root token {token!r}")

    def __repr__(self):
        return f"RootDatum({self.name!r}, rank={self.rank})"


def _format_coords(coords, mark):
    """Coordinates in the simple (co)roots as text: a1-2a2, or a1^ with mark "^"."""
    parts = []
    for i, c in enumerate(coords):
        if c == 0:
            continue
        mag = ("" if abs(c) == 1 else str(abs(c))) + f"a{i + 1}{mark}"
        parts.append(("-" if c < 0 else ("+" if parts else "")) + mag)
    return "".join(parts) if parts else "0"


def _semisimple(series, n, adjoint=False):
    C = _cartan_matrix(series, n)
    if adjoint:
        roots = [tuple(1 if i == j else 0 for j in range(n)) for i in range(n)]
        coroots = [tuple(C[i]) for i in range(n)]
    else:
        roots = [tuple(C[i][j] for i in range(n)) for j in range(n)]
        coroots = [tuple(1 if i == j else 0 for j in range(n)) for i in range(n)]
    return roots, coroots


def _gl(n):
    roots = []
    for i in range(n - 1):
        v = [0] * n
        v[i], v[i + 1] = 1, -1
        roots.append(tuple(v))
    return roots, list(roots)


def build_root_datum(spec):
    """Build a datum from a preset name, a product "AxB", or explicit data."""
    if isinstance(spec, RootDatum):
        return spec
    if isinstance(spec, dict):
        missing = [k for k in ("simple_roots", "simple_coroots")
                   if k not in spec]
        if missing:
            raise InputError(f"explicit root data lack {', '.join(missing)}")
        name = spec.get("name", "custom")
        if not isinstance(name, str):
            raise InputError(f"explicit root data key 'name' must be a "
                             f"string, not {name!r}")
        return RootDatum(spec["simple_roots"], spec["simple_coroots"],
                         name=name)
    if not isinstance(spec, str):
        raise InputError(f"cannot build a root datum from {spec!r}")
    name = spec.strip()
    roots, coroots, rank = [], [], 0
    for part in name.split("x"):
        r, c = _preset(part.strip(), spec)
        _check_rows("simple_roots", r)
        pad = (0,) * len(r[0])
        roots = [v + pad for v in roots] + [(0,) * rank + v for v in r]
        coroots = [v + pad for v in coroots] + [(0,) * rank + v for v in c]
        rank += len(pad)
    return RootDatum(roots, coroots, name=name)


def _preset(name, spec):
    """A factor's simple roots and coroots; errors name the whole spec."""
    base, _, variant = name.partition("-")
    adjoint = variant == "adjoint"
    if variant not in ("", "adjoint"):
        raise InputError(f"unknown lattice variant {variant!r}")
    base = base.upper()
    if base.startswith("GL"):
        try:
            n = int(base[2:])
        except ValueError:
            raise InputError(f"unknown preset {spec!r}") from None
        if n < 2:
            raise InputError("GL_n needs n >= 2")
        if adjoint:
            raise InputError("GL_n has no adjoint variant here")
        return _gl(n)
    series, num = base[:1], base[1:]
    try:
        n = int(num)
    except ValueError:
        raise InputError(f"unknown preset {spec!r}") from None
    return _semisimple(series, n, adjoint=adjoint)
