"""Span recorder for the traced run.

``Tracer.install`` wraps the library's public entry points from outside and
``uninstall`` puts the originals back; nothing in ``admshell`` is edited.
Each call records a span (name, start, end, parent, attributes) in memory.
Leaf entry points that can run hundreds of thousands of times per pass
(``weyl_group``, ``bruhat_leq``, ``covers_down``, ``distance_and_weight``)
are folded into one (name, parent, in leaf, calls, seconds, nested seconds)
record per parent span instead, where "in leaf" marks calls made inside
another leaf call (``covers_down`` calls ``weyl_group``); no leaf calls itself
or a span entry point.  Since calls nest without overlapping, a span's or leaf
call's self time is its duration minus that of the calls directly inside it,
so each call is counted once; a layer's self time is the sum over its spans
and leaf calls.  Times here are raw wall-clock seconds, not scaled.
"""

import json
from collections import defaultdict
from time import perf_counter

from admshell import admissible, cli, labeling, rootdata, shellcheck
from admshell import qbg as qbg_mod
from admshell import weyl

LAYERS = ("rootdata", "weyl", "affine", "qbg", "admissible", "labeling",
          "shellcheck", "cli", "exact")


def _poset_counts(args, poset):
    return {"elements": len(poset.elements),
            "full_elements": len(poset.full_elements),
            "covers": len(poset.covers)}


def _order_counts(args, order):
    return {"relevant_roots": len(order.roots), "capped": len(order.capped)}


def _dual_el_counts(args, report):
    return {"intervals_checked": report["intervals_checked"]}


def _graph(args, graph):
    return {"graph": graph}


def _argv(args, result):
    return {"argv": args[0]}


def _source(args, result):
    return (args[0], args[1])


# (owner, attribute, span name, attribute function); the layer is the part of
# the span name before the dot.
ENTRY_POINTS = [
    (cli, "main", "cli.main", _argv),
    (cli, "build_root_datum", "rootdata.build_root_datum", None),
    (rootdata, "build_root_datum", "rootdata.build_root_datum", None),
    (cli, "build_admissible", "admissible.build_admissible", _poset_counts),
    (cli, "coxeter_subset", "admissible.coxeter_subset", None),
    (cli, "build_label_order", "labeling.build_label_order", _order_counts),
    (cli, "label_edges", "labeling.label_edges", None),
    (cli, "solve_linear", "exact.solve_linear", None),
    (shellcheck.LabeledPoset, "verify_dual_el", "shellcheck.verify_dual_el",
     _dual_el_counts),
    (shellcheck.LabeledPoset, "ncm_check", "shellcheck.ncm_check", None),
    (shellcheck.LabeledPoset, "recursive_coatom_check",
     "shellcheck.recursive_coatom_check", None),
    (rootdata.RootDatum, "qbg", "qbg.build", _graph),
    (qbg_mod.QuantumBruhatGraph, "downup_path", "qbg.downup_path", None),
    (qbg_mod.QuantumBruhatGraph, "updown_path", "qbg.updown_path", None),
    (admissible, "compute_sigma", "admissible.compute_sigma", None),
    (admissible, "top_two_layer_report", "admissible.top_two_layer_report",
     None),
    (labeling.LabelOrder, "violations", "labeling.violations", None),
]
# Leaf entry points: (owner, attribute, name, key function for distinct calls)
LEAVES = [
    (rootdata.RootDatum, "weyl_group", "weyl.weyl_group", None),
    (weyl.WeylGroup, "bruhat_leq", "weyl.bruhat_leq", None),
    (admissible, "covers_down", "affine.covers_down", None),
    (qbg_mod.QuantumBruhatGraph, "distance_and_weight",
     "qbg.distance_and_weight", _source),
]


class Tracer:
    def __init__(self):
        self.spans = []             # [name, start, end, parent, attrs]
        # (name, parent, in leaf) -> [calls, seconds, nested seconds]
        self.leaves = defaultdict(lambda: [0, 0.0, 0.0])
        self.distinct = defaultdict(set)             # name -> distinct keys
        self._stack = []
        self._frames = []           # [nested seconds] per active leaf call
        self._saved = []

    # -- installation --------------------------------------------------------

    def install(self):
        for owner, attr, name, attrs in ENTRY_POINTS:
            self._patch(owner, attr, self._span_wrapper(
                getattr(owner, attr), name, attrs))
        for owner, attr, name, key in LEAVES:
            self._patch(owner, attr, self._leaf_wrapper(
                getattr(owner, attr), name, key))

    def uninstall(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _span_wrapper(self, fn, name, attrs):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, perf_counter(), None, stack[-1] if stack else None,
                    None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if attrs is not None:
                span[4] = attrs(args, result)
            return result
        return traced

    def _leaf_wrapper(self, fn, name, key):
        leaves, stack, frames = self.leaves, self._stack, self._frames
        distinct = self.distinct

        def traced(*args, **kwargs):
            outer = frames[-1] if frames else None
            frame = [0.0]
            frames.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                secs = perf_counter() - t0
                frames.pop()
                if outer is not None:
                    outer[0] += secs
                rec = leaves[name, stack[-1] if stack else None,
                             outer is not None]
                rec[0] += 1
                rec[1] += secs
                rec[2] += frame[0]
                if key is not None:
                    distinct[name].add(key(args, None))
        return traced

    # -- analysis ------------------------------------------------------------

    def per_layer(self, passes, out_bytes):
        """Per-layer metrics, each summed over the traced passes and divided
        by their number."""
        spans = self.spans
        # a span's children: the spans and leaf calls directly inside it
        child = [0.0] * len(spans)
        for name, t0, t1, parent, _ in spans:
            if parent is not None:
                child[parent] += t1 - t0
        for (_, parent, in_leaf), (_, secs, _) in self.leaves.items():
            if parent is not None and not in_leaf:
                child[parent] += secs

        def layer(name):
            return name.split(".", 1)[0]

        self_s = dict.fromkeys(LAYERS, 0.0)
        inclusive = defaultdict(float)
        calls = defaultdict(int)
        counts = defaultdict(int)
        graphs = {}
        for i, (name, t0, t1, parent, attrs) in enumerate(spans):
            self_s[layer(name)] += t1 - t0 - child[i]
            # a call nested in a call of the same entry point (recursion) is
            # already inside the outer one
            p = parent
            while p is not None and spans[p][0] != name:
                p = spans[p][3]
            if p is None:
                inclusive[name] += t1 - t0
                calls[name] += 1
            for k, v in (attrs or {}).items():
                if k == "graph":
                    graphs[id(v)] = sum(len(out) for out in v.out)
                elif k != "argv":
                    counts[k] += v
        for (name, _, _), (n, secs, nested) in self.leaves.items():
            self_s[layer(name)] += secs - nested
            inclusive[name] += secs
            calls[name] += n

        dual_el = inclusive["shellcheck.verify_dual_el"]
        m = {
            "rootdata.build_s": inclusive["rootdata.build_root_datum"],
            "weyl.group_s": inclusive["weyl.weyl_group"],
            "weyl.bruhat_leq_calls": calls["weyl.bruhat_leq"],
            "weyl.bruhat_leq_s": inclusive["weyl.bruhat_leq"],
            "affine.covers_down_calls": calls["affine.covers_down"],
            "affine.covers_down_s": inclusive["affine.covers_down"],
            "admissible.build_s": inclusive["admissible.build_admissible"],
            "admissible.elements": counts["elements"],
            "admissible.full_elements": counts["full_elements"],
            "admissible.covers": counts["covers"],
            "admissible.sigma_s": inclusive["admissible.compute_sigma"],
            "admissible.sigma_calls": calls["admissible.compute_sigma"],
            "admissible.top_two_s":
                inclusive["admissible.top_two_layer_report"],
            "qbg.build_s": inclusive["qbg.build"],
            "qbg.edges": sum(graphs.values()),
            "qbg.wt_calls": calls["qbg.distance_and_weight"],
            "qbg.wt_sources": len(self.distinct["qbg.distance_and_weight"]),
            "qbg.wt_s": inclusive["qbg.distance_and_weight"],
            "qbg.downup_s": inclusive["qbg.downup_path"],
            "qbg.updown_s": inclusive["qbg.updown_path"],
            "labeling.order_s": inclusive["labeling.build_label_order"],
            "labeling.relevant_roots": counts["relevant_roots"],
            "labeling.capped": counts["capped"],
            "labeling.edges_s": inclusive["labeling.label_edges"],
            "labeling.violations_s": inclusive["labeling.violations"],
            "shellcheck.dual_el_s": dual_el,
            "shellcheck.intervals_checked": counts["intervals_checked"],
            "shellcheck.intervals_per_s":
                counts["intervals_checked"] / dual_el if dual_el else 0.0,
            "shellcheck.ncm_s": inclusive["shellcheck.ncm_check"],
            "shellcheck.coatom_s":
                inclusive["shellcheck.recursive_coatom_check"],
            "cli.out_bytes": out_bytes,
        }
        for name, secs in self_s.items():
            m[f"{name}.self_s"] = secs
        return {k: (v if k.endswith("_per_s") else v / passes)
                for k, v in m.items()}

    def largest_entry_points(self, n=5):
        """The n entry points with the most inclusive time, the job's own
        ``cli.main`` excluded."""
        total = defaultdict(float)
        for name, t0, t1, _, _ in self.spans:
            total[name] += t1 - t0
        for (name, _, _), (_, secs, _) in self.leaves.items():
            total[name] += secs
        total.pop("cli.main", None)
        return sorted(((s, name) for name, s in total.items()),
                      reverse=True)[:n]

    def stage_rows(self):
        """ROADMAP stage-table rows, one per traced CLI job."""
        spans = self.spans
        root = [None] * len(spans)
        rows = {}
        for i, (name, t0, t1, parent, attrs) in enumerate(spans):
            root[i] = i if parent is None else root[parent]
            if parent is None and name == "cli.main":
                rows[i] = {"argv": attrs["argv"], "sigma": None}
        columns = {"admissible.build_admissible": "adm",
                   "labeling.build_label_order": "order",
                   "shellcheck.verify_dual_el": "dual_el",
                   "shellcheck.ncm_check": "ncm",
                   "admissible.compute_sigma": "sigma"}
        for i, (name, t0, t1, parent, attrs) in enumerate(spans):
            row = rows.get(root[i])
            if row is None:
                continue
            col = columns.get(name)
            if col is not None:
                row[col] = (row.get(col) or 0.0) + (t1 - t0)
            for k, v in (attrs or {}).items():
                if k in ("elements", "full_elements", "intervals_checked"):
                    row[k] = v
        return list(rows.values())

    def dump(self, path, env):
        with open(path, "w") as fh:
            json.dump({
                "env": env,
                "spans": [[name, t0, t1, parent,
                           {k: v for k, v in (attrs or {}).items()
                            if k != "graph"}]
                          for name, t0, t1, parent, attrs in self.spans],
                "leaves": [[*key, n, secs, nested]
                           for key, (n, secs, nested) in self.leaves.items()],
            }, fh)
