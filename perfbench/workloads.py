"""Seeded inputs, jobs and golden checks for the four benchmark workloads.

A workload is a list of jobs built from a seed.  Running a job returns its raw
output; ``check`` compares that output with the golden recorded from the
reference commit and returns an error string, or None when it matches.  Inputs
are generated here and handed to the library only through its public entry
points (the ``admshell`` CLI and the ``QuantumBruhatGraph`` API).
"""

import contextlib
import hashlib
import io
import itertools
import json
import random
import sys
from pathlib import Path
from time import perf_counter

import admshell
from admshell import cli, rootdata
from admshell.admissible import canonical_K, is_spherical

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"

# ROADMAP ladder rows with K empty: dual-EL and N-CM dominate, poset grows
# from 473 to 1029 elements.
LADDER = [("A3-adjoint", "1,1,1", "fw", ""),
          ("C3-adjoint", "1,0,1", "fw", ""),
          ("B3-adjoint", "1,0,1", "fw", "")]
# Large parahoric K: tiny checked posets, so gateway data (compute_sigma), the
# QBG and the label order dominate and shellcheck does almost nothing.
PARAHORIC = [("A4", "1,1,1,1", "coroot", "a1,a2,a3,a4"),
             ("D4-adjoint", "1,0,0,0", "fw", "a1,a3,a4")]
# The theorem matrix: datum -> (height bound, bound for regular GL coweights).
MATRIX = {"A1": (8, None), "A2": (8, None), "A3": (6, None), "B2": (8, None),
          "C2": (8, None), "G2": (8, None), "GL2": (8, None), "GL3": (8, 6),
          "A1xA1": (8, None)}
# One matrix entry is drawn from each run of this many entries of similar
# reference cost, so every seed gets a sample of the same total cost.
MATRIX_STRATUM = 3
# QBG pairs per type; B3 and C3 have 48 elements, D4 has 192.
QBG_PAIRS = {"B3": 430, "C3": 430, "D4": 440}
# Symbols for the compact QBG golden tables: one for the distance, one for
# the index of the weight in the type's weight list.
SYMBOLS = ("0123456789abcdefghijklmnopqrstuvwxyz"
           "ABCDEFGHIJKLMNOPQRSTUVWXYZ")


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def load_goldens(name):
    with open(GOLDEN_DIR / f"{name}.json") as fh:
        return json.load(fh)


# -- CLI jobs ----------------------------------------------------------------

def verify_argv(datum, mu, basis, K, check="fast"):
    argv = ["verify", "--datum", datum, "--mu", mu, "--mu-basis", basis]
    if K:
        argv += ["--K", K]
    if check != "fast":
        argv += ["--check", check]
    return argv + ["--out", "json"]


def clear_library_caches():
    """Empty every ``functools`` cache in the library, as in a new process.

    The caches are found by walking the modules rather than named, so the
    benchmark keeps working when a cache is added, renamed or removed.
    """
    for name, module in list(sys.modules.items()):
        if name != "admshell" and not name.startswith("admshell."):
            continue
        for obj in vars(module).values():
            members = vars(obj).values() if isinstance(obj, type) else (obj,)
            for member in members:
                if hasattr(member, "cache_clear"):
                    member.cache_clear()


def run_cli(argv):
    """One cold in-process CLI call: (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue()


def check_cli(golden, argv, output):
    rc, stdout = output
    want = golden.get(" ".join(argv))
    if want is None:
        return "no golden for this input"
    if rc != want["rc"] or _sha(stdout) != want["sha256"]:
        return f"exit {rc} / stdout sha256 {_sha(stdout)[:12]} differs"
    return None


def dominant_mus(d, bound, regular_bound=None):
    """Dominant coweights with <mu, 2rho> <= bound, one per central orbit."""
    out = []
    if d.name.startswith("GL"):
        n = d.rank
        for mu in itertools.product(range(bound + 1), repeat=n):
            if any(mu[i] < mu[i + 1] for i in range(n - 1)) or mu[-1] != 0:
                continue
            regular = all(mu[i] > mu[i + 1] for i in range(n - 1))
            cut = regular_bound if (regular and regular_bound) else bound
            if d.pairing(mu, d.two_rho) <= cut:
                out.append(mu)
    else:
        for coeffs in itertools.product(range(bound + 1), repeat=d.nsimple):
            mu = tuple(sum(c * av[i] for c, av in zip(coeffs, d.simple_coroots))
                       for i in range(d.rank))
            if d.pairing(mu, d.two_rho) <= bound and d.is_dominant(mu):
                out.append(mu)
    return sorted(set(out))


def spherical_subsets(d):
    n = len(d.simple_affine_roots())
    out = []
    for r in range(n + 1):
        for K in itertools.combinations(range(n), r):
            Kc = canonical_K(d, K)
            if is_spherical(d, Kc):
                out.append(Kc)
    return out


def matrix_argvs():
    """Every theorem-matrix entry as a verify command line (396 in all)."""
    out = []
    for name, (bound, rb) in MATRIX.items():
        d = admshell.build_root_datum(name)
        for mu in dominant_mus(d, bound, rb):
            for K in spherical_subsets(d):
                tokens = ",".join(d.affine_token(ar) for ar in K)
                out.append(verify_argv(name, ",".join(map(str, mu)),
                                       "ambient", tokens))
    return out


class CliWorkload:
    """Cold CLI calls: library caches are emptied before each job."""

    kind = "cli"

    def __init__(self, golden, argvs):
        self.golden = golden
        self.jobs = argvs

    def prepare(self):
        return None

    def before_job(self, state):
        clear_library_caches()

    def run(self, state, argv):
        return run_cli(argv)

    def check(self, argv, output):
        return check_cli(self.golden, argv, output)


# The ladder and parahoric inputs are fixed and run in the order listed: the
# order changes the peak RSS by several percent, so shuffling it by seed would
# make peak_rss_mb vary between seeds.
def ladder_big(seed):
    jobs = [verify_argv(*row) for row in LADDER]
    return CliWorkload(load_goldens("ladder-big"), jobs)


def parahoric_full(seed):
    jobs = [verify_argv(*row, check="full") for row in PARAHORIC]
    return CliWorkload(load_goldens("parahoric-full"), jobs)


def matrix_sweep(seed):
    rng = random.Random(seed)
    golden = load_goldens("matrix-sweep")
    by_cost = sorted(matrix_argvs(),
                     key=lambda a: (golden[" ".join(a)]["cost_s"], a))
    jobs = [rng.choice(by_cost[i:i + MATRIX_STRATUM])
            for i in range(0, len(by_cost), MATRIX_STRATUM)]
    rng.shuffle(jobs)
    return CliWorkload(golden, jobs)


# -- QBG jobs ----------------------------------------------------------------

def canonical_elements(W):
    """Group elements in breadth-first order from the identity, by simple
    reflections in index order, each with the first word that reaches it.

    The order is defined here, not by the library's element list, so that
    goldens and samples stay valid when the group's representation changes.
    """
    words = {W.identity: ()}
    frontier = [W.identity]
    while frontier:
        new = []
        for w in frontier:
            for i in range(len(W.simples)):
                t = w * W.simple(i)
                if t not in words:
                    words[t] = words[w] + (i,)
                    new.append(t)
        frontier = new
    elems = list(words)
    names = [" ".join(f"s{i + 1}" for i in words[w]) or "e" for w in elems]
    return elems, names


class QbgWorkload:
    """Seeded (u, v) pairs; each job asks for d, wt and both path shapes."""

    kind = "qbg"

    def __init__(self, seed):
        rng = random.Random(seed)
        self.golden = load_goldens("qbg-paths")
        sizes = {t: len(g["words"]) for t, g in self.golden.items()}
        self.jobs = [(t, rng.randrange(sizes[t]), rng.randrange(sizes[t]))
                     for t, count in QBG_PAIRS.items() for _ in range(count)]
        rng.shuffle(self.jobs)

    def prepare(self):
        """Fresh data, Weyl groups and graphs, so BFS caches start cold."""
        state = {}
        for t in QBG_PAIRS:
            datum = rootdata.build_root_datum(t)
            W = datum.weyl_group()
            graph = datum.qbg()
            elems, names = canonical_elements(W)
            if names != self.golden[t]["words"]:
                raise RuntimeError(f"{t}: element enumeration differs "
                                   "from the goldens")
            state[t] = (graph, elems)
        return state

    def before_job(self, state):
        pass

    def run(self, state, job):
        t, i, j = job
        graph, elems = state[t]
        u, v = elems[i], elems[j]
        d, wt = graph.distance_and_weight(u, v)
        return (graph.group.index[u], graph.group.index[v], d, tuple(wt),
                graph.downup_path(u, v), graph.updown_path(u, v))

    def check(self, job, output):
        t, i, j = job
        g = self.golden[t]
        row = g["table"][i]
        want_d = SYMBOLS.index(row[2 * j])
        want_wt = tuple(g["weights"][SYMBOLS.index(row[2 * j + 1])])
        src, dst, d, wt, downup, updown = output
        if (d, wt) != (want_d, want_wt):
            return f"(d, wt) = ({d}, {wt}), expected ({want_d}, {want_wt})"
        for shape, path in (("down-up", downup), ("up-down", updown)):
            bad = _path_error(path, src, dst, d, wt, shape)
            if bad:
                return f"{shape} path: {bad}"
        return None


def _path_error(path, src, dst, d, wt, shape):
    if len(path) != d:
        return f"length {len(path)} != {d}"
    at = src
    total = (0,) * len(wt)
    for e in path:
        if e.src != at:
            return "edges do not chain"
        at = e.dst
        total = tuple(a + b for a, b in zip(total, e.weight))
    if at != dst:
        return "does not end at v"
    if total != wt:
        return f"weight {total} != {wt}"
    kinds = [e.quantum for e in path]
    # down-up: quantum (down) edges first; up-down: Bruhat (up) edges first
    want = sorted(kinds, reverse=shape == "down-up")
    if kinds != want:
        return "wrong shape"
    return None


WORKLOADS = {
    "ladder-big": ladder_big,
    "parahoric-full": parahoric_full,
    "matrix-sweep": matrix_sweep,
    "qbg-paths": QbgWorkload,
}


# -- golden recording ----------------------------------------------------------

def record_goldens():
    """Write every workload's goldens from the code under test.

    Refuses to run when any golden file already exists.
    """
    paths = [GOLDEN_DIR / f"{name}.json" for name in WORKLOADS]
    existing = [p.name for p in paths if p.exists()]
    if existing:
        raise FileExistsError("goldens already exist: " + ", ".join(existing)
                              + "; delete them first to re-record")
    out = {}
    for name, rows in (("ladder-big", [verify_argv(*r) for r in LADDER]),
                       ("parahoric-full", [verify_argv(*r, check="full")
                                           for r in PARAHORIC]),
                       ("matrix-sweep", matrix_argvs())):
        table = {}
        for argv in rows:
            clear_library_caches()
            t0 = perf_counter()
            rc, stdout = run_cli(argv)
            table[" ".join(argv)] = {"rc": rc, "sha256": _sha(stdout),
                                     "cost_s": round(perf_counter() - t0, 4)}
        if name != "matrix-sweep":
            for entry in table.values():
                del entry["cost_s"]
        out[name] = table
        print(f"recorded {len(table)} {name} goldens")
    qbg = {}
    for t in QBG_PAIRS:
        datum = admshell.build_root_datum(t)
        graph = datum.qbg()
        elems, names = canonical_elements(datum.weyl_group())
        weights, table = [], []
        for u in elems:
            row = []
            for v in elems:
                d, wt = graph.distance_and_weight(u, v)
                wt = list(wt)
                if wt not in weights:
                    weights.append(wt)
                row.append(SYMBOLS[d] + SYMBOLS[weights.index(wt)])
            table.append("".join(row))
        qbg[t] = {"words": names, "weights": weights, "table": table}
        print(f"recorded {len(elems) ** 2} {t} QBG pairs")
    out["qbg-paths"] = qbg
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, data in out.items():
        with open(GOLDEN_DIR / f"{name}.json", "x") as fh:
            json.dump(data, fh, indent=0, sort_keys=True)
            fh.write("\n")
