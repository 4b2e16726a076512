"""Command-line front end: build, label, verify, and export.

Subcommands: adm, verify, qbg, cox, shell-order.  Exit codes:

  0  success, or the verification passed
  1  a verification failed (including a PropertyViolation)
  2  bad input: an InputError, or an argparse usage error
  3  internal error: any other exception, reported on one stderr line

Weyl group words (--ideal, qbg --wt/--downup/--updown) are "e" or
space-separated simple reflections s1..sn; the empty word is also e.
"""

import argparse
import json
import sys

from .errors import InputError, PropertyViolation
from .rootdata import build_root_datum
from .admissible import build_admissible, coxeter_subset
from .affine import AffineElement, affine_word
from .labeling import build_label_order, label_edges
from .exact import solve_linear


def _parse_mu(datum, text, basis):
    try:
        coords = [int(c) for c in text.split(",")] if text else []
    except ValueError:
        raise InputError(f"bad coweight {text!r}") from None
    if basis == "ambient":
        if len(coords) != datum.rank:
            raise InputError(f"mu needs {datum.rank} ambient coordinates")
        return tuple(coords)
    if len(coords) != datum.nsimple:
        raise InputError(f"mu needs {datum.nsimple} coordinates in basis {basis}")
    if basis == "coroot":
        mu = [0] * datum.rank
        for c, av in zip(coords, datum.simple_coroots):
            mu = [m + c * a for m, a in zip(mu, av)]
        return tuple(mu)
    if basis == "fw":
        cols = [tuple(a[i] for a in datum.simple_roots)
                for i in range(datum.rank)]
        sol = solve_linear(cols, tuple(coords))
        if sol is None or any(c.denominator != 1 for c in sol):
            raise InputError("those fundamental-coweight coordinates do not "
                             "give a lattice point")
        return tuple(int(c) for c in sol)
    raise InputError(f"unknown mu basis {basis!r}")


def _parse_K(datum, text):
    return tuple(datum.parse_affine_token(tok)
                 for tok in text.split(",") if tok.strip())


def _parse_word(W, text):
    if text.strip() == "e":
        return W.identity
    simples = {f"s{i + 1}": s for i, s in enumerate(W.simples)}
    w = W.identity
    for tok in text.split():
        if tok not in simples:
            raise InputError(f"bad word token {tok!r}: expected e or "
                             f"space-separated s1..s{len(simples)}")
        w = w * simples[tok]
    return w


def _parse_sigma(text):
    if not text:
        return None
    try:
        perm = [int(c) for c in text.split(",")]
    except ValueError:
        raise InputError(f"bad sigma {text!r}") from None
    return perm


def _emit(args, text):
    if args.out_file and args.out_file != "-":
        try:
            with open(args.out_file, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write --out-file {args.out_file!r}: "
                             f"{exc.strerror}") from None
    else:
        sys.stdout.write(text)


def _build(args):
    datum = build_root_datum(args.datum)
    mu = _parse_mu(datum, args.mu, args.mu_basis)
    K = _parse_K(datum, args.K)
    return datum, build_admissible(datum, mu, K)


def cmd_adm(args):
    datum, poset = _build(args)
    order = build_label_order(poset)
    lp = label_edges(poset, order)
    if args.out == "dot":
        _emit(args, lp.to_dot())
    elif args.out == "json":
        data = poset.to_json_dict()
        data["label_order"] = order.serialize()
        _emit(args, json.dumps(data, sort_keys=True, indent=2) + "\n")
    else:
        lines = [f"admissible poset over {datum.name}: "
                 f"{len(poset.elements)} elements + top"]
        for i, w in enumerate(poset.elements):
            lines.append(f"  [{i}] {w.name()}  (length {w.length})")
        lines.append("  top: 1^")
        for up, lo, rank, label in lp.covers:
            lines.append(f"  {lp.names[up]} > {lp.names[lo]}  [{label}]")
        lines.append("label order: " + " < ".join(order.serialize()))
        _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_verify(args):
    if args.ideal and args.check == "full":
        raise InputError("--check full sweeps the whole poset; it cannot be "
                         "combined with --ideal")
    datum, poset = _build(args)
    order = build_label_order(poset)
    lp = label_edges(poset, order)
    if args.ideal:
        W = datum.weyl_group()
        chosen = []
        for wtext in args.ideal.split("/"):
            a = _parse_word(W, wtext)
            if a not in poset.WJK:
                raise InputError(f"{wtext!r} does not index a maximal element")
            chosen.append(poset.maximal_ids[poset.WJK.index(a)])
        cut = max(rank for lo, rank, _ in lp.down_adj[lp.top] if lo in chosen)
        prefix = [lo for lo, rank, _ in lp.down_adj[lp.top] if rank <= cut]
        lp = lp.ideal_restriction(prefix)
    report = lp.verify_dual_el()
    ncm_ok = lp.ncm_check()
    coatom_ok, ordering = lp.recursive_coatom_check()
    out = {"dual_el": report,
           "ncm": ncm_ok,
           "recursive_coatom": {"ok": coatom_ok, "ordering": ordering}}
    if args.check == "full":
        # heavyweight property sweep: gateway data and the top-layer claims.
        # Imported here, at call time, on purpose: the benchmark's tracer
        # (perfbench/spans.py) wraps these two functions as attributes of
        # admissible, and a module-level import would bind the unwrapped ones
        from .admissible import compute_sigma, top_two_layer_report
        sigma = [compute_sigma(poset, w) for w in poset.elements]
        out["top_two"] = top_two_layer_report(poset, order, sigma)
        # build_label_order has run order.check(), which raises on any
        # violation, so none is left to list
        out["label_order_violations"] = []
    _emit(args, json.dumps(out, sort_keys=True, indent=2) + "\n")
    return 0 if report["status"] == "PASS" and ncm_ok and coatom_ok else 1


def cmd_qbg(args):
    datum = build_root_datum(args.datum)
    graph = datum.qbg()
    W = datum.weyl_group()
    if args.wt:
        u, v = (_parse_word(W, t) for t in args.wt)
        d, wt = graph.distance_and_weight(u, v)
        _emit(args, json.dumps({"d": d, "wt": list(wt),
                                "wt_coroots": datum.format_coweight(wt)},
                               sort_keys=True) + "\n")
        return 0
    for words, find_path in ((args.downup, graph.downup_path),
                             (args.updown, graph.updown_path)):
        if words:
            u, v = (_parse_word(W, t) for t in words)
            steps = [{"to": W.elements[e.dst].word_str(),
                      "root": datum.format_root(
                          datum.positive_roots[e.root_idx]),
                      "kind": "quantum" if e.quantum else "bruhat"}
                     for e in find_path(u, v)]
            _emit(args, json.dumps(steps, sort_keys=True) + "\n")
            return 0
    _emit(args, graph.to_dot())
    return 0


def cmd_cox(args):
    _, poset = _build(args)
    sigma = _parse_sigma(args.sigma)
    sub = coxeter_subset(poset, sigma)
    names = {i: _cox_name(w)
             for i, w in zip(sub["element_ids"], sub["elements"])}
    if args.out == "dot":
        lines = ["digraph cox {", '  rankdir="BT";']
        for i in sub["element_ids"]:
            lines.append(f'  "{names[i]}";')
        for upper, lower in sub["covers"]:
            lines.append(f'  "{names[lower]}" -> "{names[upper]}";')
        lines.append("}")
        _emit(args, "\n".join(lines) + "\n")
    else:
        data = {"elements": [names[i] for i in sub["element_ids"]],
                "covers": [[names[u], names[l]] for u, l in sub["covers"]]}
        _emit(args, json.dumps(data, sort_keys=True, indent=2) + "\n")
    return 0


def _cox_name(w):
    # simple finite roots print as s1..sn, the extra node(s) as s0 (s0.k
    # for products): the affine-root token with its "a" turned into "s"
    d = w.datum
    tau, letters = affine_word(w)
    simples = d.simple_affine_roots()
    word = " ".join("s" + d.affine_token(simples[i])[1:] for i in letters)
    if tau == AffineElement.identity(d):
        return word or "e"
    return (tau.name() + " " + word).strip()


def cmd_shell_order(args):
    _, poset = _build(args)
    _emit(args, "\n".join(a.word_str() for a in poset.WJK) + "\n")
    return 0


def _common(sp, outs=None, mu=True):
    sp.add_argument("--datum", required=True,
                    help="preset name (A2, GL3, B2-adjoint, A1xA1) or JSON")
    if mu:
        sp.add_argument("--mu", required=True,
                        help="dominant coweight, comma separated")
        sp.add_argument("--mu-basis", default="ambient",
                        choices=["ambient", "coroot", "fw"])
        sp.add_argument("--K", default="",
                        help="comma separated simple affine roots, "
                             "e.g. a1,a0")
    if outs:
        sp.add_argument("--out", default=outs[0], choices=outs)
    sp.add_argument("--out-file", default="-")


def _adm_args(sp):
    _common(sp, ["text", "json", "dot"])


def _verify_args(sp):
    _common(sp, ["json"])
    sp.add_argument("--check", default="fast", choices=["fast", "full"])
    sp.add_argument("--ideal", default="",
                    help="restrict to the order ideal of these maximal "
                         "elements, words joined by '/'")


def _qbg_args(sp):
    _common(sp, mu=False)
    # one query, or the graph: --out is the graph's only output format
    query = sp.add_mutually_exclusive_group()
    query.add_argument("--out", choices=["dot"])
    query.add_argument("--wt", nargs=2, metavar=("U", "V"))
    query.add_argument("--downup", nargs=2, metavar=("U", "V"))
    query.add_argument("--updown", nargs=2, metavar=("U", "V"))


def _cox_args(sp):
    _common(sp, ["json", "dot"])
    sp.add_argument("--sigma", default="",
                    help="permutation of the simple affine roots, "
                         "comma separated images")


def _shell_order_args(sp):
    _common(sp, ["text"])


# name -> (help, handler, function adding the subcommand's arguments)
SUBCOMMANDS = {
    "adm": ("build and print the labeled poset", cmd_adm, _adm_args),
    "verify": ("run the full verification pipeline", cmd_verify,
               _verify_args),
    "qbg": ("quantum Bruhat graph as dot; --wt, --downup and --updown "
            "print JSON", cmd_qbg, _qbg_args),
    "cox": ("the Coxeter-element sub-poset", cmd_cox, _cox_args),
    "shell-order": ("component order of the maximal elements",
                    cmd_shell_order, _shell_order_args),
}


def make_parser(command=None):
    """The argument parser: only a named ``command`` is registered, as
    argparse reads no other (the metavar keeps the usage line), else all."""
    p = argparse.ArgumentParser(
        prog="admshell",
        description="admissible sets, quantum Bruhat graphs, and shellability "
                    "verification")
    named = command in SUBCOMMANDS
    sub = p.add_subparsers(dest="command", required=True, metavar=(
        "{" + ",".join(SUBCOMMANDS) + "}" if named else None))
    for name in [command] if named else SUBCOMMANDS:
        help_text, _, add_args = SUBCOMMANDS[name]
        add_args(sub.add_parser(name, help=help_text))
    return p


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    args = make_parser(argv[0] if argv else None).parse_args(argv)
    try:
        if args.datum.strip().startswith("{"):
            try:
                args.datum = json.loads(args.datum)
            except json.JSONDecodeError as exc:
                raise InputError(f"--datum is not valid JSON: {exc}") from None
        return SUBCOMMANDS[args.command][1](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PropertyViolation as exc:
        print(f"property violation: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
