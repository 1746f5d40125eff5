"""Command-line front end: computation and verification subcommands.

Exit codes: 0 on success, 1 on an identity failure, 2 on invalid input (the
arguments and the input objects built from them), 3 on an internal error,
141 (128 + SIGPIPE) when the reader of stdout goes away.
All randomness is seeded and the seed is printed in the report header.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from . import affine_hl, finite_hl, graphs
from .cones import verify_weighted_brion
from .ring import EVALUATED, SYMBOLIC_Z


GUARDS = {"finite_def_n": 4, "affine_n": 3, "qmax": 8, "graph_vertices": 10,
          "tmultinomial_n": 5}

# every option of a `verify` check, with its default
VERIFY_OPTIONS = {
    "--n": {"type": int, "default": 2},
    "--a": {"default": "1,0"},
    "--qmax": {"type": int, "default": 3},
    "--z": {"default": "symbolic"},
    "--trials": {"type": int, "default": 3},
    "--seed": {"type": int, "default": 0},
    "--count": {"type": int, "default": 5},
    "--max-vertices": {"type": int, "default": 6},
    "--graph": {"help": "graph JSON file"},
    "--b": {"default": "1,0", "help": "top values"},
    "--unsafe-limits": {"action": "store_true"},
}

# the options each check's branch of `cmd_verify` reads; argparse refuses
# any other
VERIFY_CHECKS = {
    "wbrion": "--count --trials --seed",
    "zero": "--graph --b --trials --seed --unsafe-limits",
    "gensingular": "--count --trials --seed",
    "graphsum": "--max-vertices --seed --unsafe-limits",
    "tmultinomial": "--n --a --seed --unsafe-limits",
    "contribfin": "--n --a --trials --seed",
    "main": "--n --a --qmax --z --trials --seed --unsafe-limits",
    "contrib": "--n --a --qmax --trials --seed --unsafe-limits",
}


class UsageError(ValueError):
    pass


def _parse_ints(text):
    try:
        return [int(x) for x in text.split(",") if x != ""]
    except ValueError:
        raise UsageError(f"not a comma-separated integer list: {text!r}")


def _zmode(text):
    if text == "symbolic":
        return SYMBOLIC_Z, None
    if text.startswith("rand:"):
        try:
            return EVALUATED, int(text.split(":", 1)[1])
        except ValueError:
            raise UsageError(f"bad z mode {text!r}")
    raise UsageError(f"bad z mode {text!r} (want symbolic or rand:SEED)")


def _build(make, *args):
    """make(*args) for an input object; its failure is invalid input."""
    try:
        return make(*args)
    except (OSError, TypeError, ValueError) as exc:
        raise UsageError(str(exc)) from exc


def _read_graph(path):
    with open(path) as fh:
        return graphs.OrdinaryGraph.from_json(fh.read())


def _guard(cond, message, unsafe):
    if not cond and not unsafe:
        raise UsageError(message + " (override with --unsafe-limits)")


def cmd_finite(args):
    weight = _build(finite_hl.FiniteWeight, args.n, _parse_ints(args.a))
    results = {}
    if args.method in ("gt", "both"):
        results["gt"] = finite_hl.hl_gt(weight)
    if args.method in ("def", "both"):
        _guard(args.n <= GUARDS["finite_def_n"],
               f"n={args.n} beyond the symmetrization guard", args.unsafe_limits)
        results["def"] = finite_hl.hl_def(weight)
    for name, poly in results.items():
        if args.format == "json":
            print(json.dumps({"method": name, "poly": json.loads(poly.to_json())},
                             sort_keys=True))
        else:
            print(f"{name}: {poly.to_text()}")
    if args.method == "both":
        equal = results["gt"] == results["def"]
        print("verdict:", "EQUAL" if equal else "DIFFERENT")
        return 0 if equal else 1
    return 0


def cmd_affine(args):
    if args.qmax < 0:
        raise UsageError("qmax must be nonnegative")
    _guard(args.n <= GUARDS["affine_n"], f"n={args.n} beyond the affine guard",
           args.unsafe_limits)
    _guard(args.qmax <= GUARDS["qmax"], f"qmax={args.qmax} beyond the guard",
           args.unsafe_limits)
    weight = _build(affine_hl.AffineWeight, args.n, _parse_ints(args.a))
    domain, seed = _zmode(args.z)
    if domain == SYMBOLIC_Z:
        rows = []
        for qd, zvec, tp in sorted(affine_hl.rhs_table(weight, args.qmax),
                                   key=lambda r: (r[0], r[1])):
            rows.append({"q": qd, "z": list(zvec), "t_poly": tp.to_list()})
        if args.format == "json":
            print(json.dumps({"qmax": args.qmax, "coeffs": rows}, sort_keys=True))
        else:
            for row in rows:
                print(f"q^{row['q']} z={row['z']} t_poly={row['t_poly']}")
    else:
        zpoint = affine_hl.random_zpoint(args.n, random.Random(seed))
        print(f"# z evaluated with seed {seed}: "
              + ", ".join(f"{k}={v}" for k, v in sorted(zpoint.items())))
        series = affine_hl.rhs_series(weight, args.qmax, EVALUATED, zpoint)
        rows = []
        for qd in sorted(series.coeffs):
            c = series.coeffs[qd]
            rows.append({"q": qd,
                         "value_num": c.num.to_text(),
                         "value_den": c.den.to_text()})
        if args.format == "json":
            print(json.dumps({"qmax": args.qmax, "coeffs": rows}, sort_keys=True))
        else:
            for row in rows:
                print(f"q^{row['q']} = [{row['value_num']}] / [{row['value_den']}]")
    return 0


def _report(name, seed, lines, ok):
    print(f"[{name}] seed={seed}")
    for line in lines:
        print(" ", line)
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def cmd_verify(args):
    which = args.which
    for name, least in (("qmax", 0), ("trials", 1), ("count", 1)):
        if getattr(args, name, least) < least:
            raise UsageError(f"{name} must be at least {least}")
    if which == "tmultinomial":
        _guard(args.n <= GUARDS["tmultinomial_n"],
               f"n={args.n} beyond the tmultinomial guard", args.unsafe_limits)
        weight = _build(finite_hl.FiniteWeight, args.n, _parse_ints(args.a))
        value = graphs.t_multinomial(args.n, weight.type_multiplicities())
        ok = graphs.verify_face_euler_sum(args.n, list(weight.lam))
        return _report("tmultinomial", args.seed, [f"value {value}"], ok)
    if which == "main":
        _guard(args.n <= GUARDS["affine_n"], "affine guard", args.unsafe_limits)
        _guard(args.qmax <= GUARDS["qmax"], "qmax guard", args.unsafe_limits)
        weight = _build(affine_hl.AffineWeight, args.n, _parse_ints(args.a))
        domain, zseed = _zmode(args.z)
        ok = affine_hl.verify_main(weight, args.qmax, domain,
                                   trials=args.trials,
                                   seed=zseed if zseed is not None else args.seed)
        return _report("main", args.seed,
                       [f"n={args.n} a={weight.a} qmax={args.qmax} domain={domain}"],
                       ok)
    if which == "contrib":
        _guard(args.n <= GUARDS["affine_n"], "affine guard", args.unsafe_limits)
        weight = _build(affine_hl.AffineWeight, args.n, _parse_ints(args.a))
        rep = affine_hl.verify_contrib(weight, args.qmax, trials=args.trials,
                                       seed=args.seed)
        return _report("contrib", args.seed, rep["checks"] + rep["failures"],
                       rep["ok"])
    if which == "contribfin":
        weight = _build(finite_hl.FiniteWeight, args.n, _parse_ints(args.a))
        rep = finite_hl.verify_contribfin(weight, trials=args.trials,
                                          seed=args.seed)
        lines = [f"vertices {rep['n_vertices']} relevant {rep['n_relevant']} "
                 f"orbit {rep['orbit_size']}"] + rep["failures"]
        return _report("contribfin", args.seed, lines, rep["ok"])
    if which == "zero":
        if not args.graph:
            raise UsageError("`zero` needs --graph FILE")
        G = _build(_read_graph, args.graph)
        _guard(len(G.vertices) <= GUARDS["graph_vertices"],
               "graph size guard", args.unsafe_limits)
        if not G.violates_row_monotonicity():
            raise UsageError("graph does not violate row monotonicity")
        b = _build(graphs.BSeq, _parse_ints(args.b))
        if len(b) != G.l:
            raise UsageError("b length must match the top row")
        ok = graphs.psi_is_zero(G, b, trials=args.trials, seed=args.seed)
        return _report("zero", args.seed,
                       [f"graph {sorted(G.vertices)} b={list(b)}"], ok)
    if which == "wbrion":
        lines = []
        ok = True
        for G, b in graphs.random_bounded_instances(args.count, args.seed):
            P, phi, verts = graphs.weighted_brion_instance(G, b)
            good = verify_weighted_brion(P, phi, trials=args.trials,
                                         seed=args.seed, vertices=verts,
                                         assume_bounded=True)
            lines.append(f"dim {P.dim} vertices {len(verts)}: "
                         + ("ok" if good else "MISMATCH"))
            ok = ok and good
        return _report("wbrion", args.seed, lines, ok)
    if which == "gensingular":
        rng = random.Random(args.seed)
        pool = [g for g in graphs.enumerate_ordinary_graphs(7) if g.l >= 2]
        lines = []
        ok = True
        for _ in range(args.count):
            G = rng.choice(pool)
            base = rng.randint(0, 2)
            b = graphs.BSeq(sorted((base + G.l - i for i in range(G.l)),
                                   reverse=True))
            vals = sorted((rng.randint(0, 1) + base for _ in range(G.l)),
                          reverse=True)
            b2 = graphs.BSeq(vals)
            good = graphs.verify_gensingular(G, b, b2, trials=args.trials,
                                             seed=rng.randint(0, 10 ** 6))
            lines.append(f"{len(G.vertices)}-vertex graph b2={list(b2)}: "
                         + ("ok" if good else "MISMATCH"))
            ok = ok and good
        return _report("gensingular", args.seed, lines, ok)
    if which == "graphsum":
        if args.max_vertices < 1:
            raise UsageError("max-vertices must be positive")
        _guard(args.max_vertices <= GUARDS["graph_vertices"],
               "graph size guard", args.unsafe_limits)
        lines = []
        ok = True
        count = 0
        for G in graphs.enumerate_ordinary_graphs(args.max_vertices):
            if G.l < 2:
                continue
            b = graphs.BSeq(list(range(G.l - 1, -1, -1)))
            for pos in range(G.l - 1):
                vals = list(b)
                vals[pos + 1] = vals[pos]
                good = graphs.verify_graphsum(G, b, graphs.BSeq(sorted(
                    vals, reverse=True)))
                ok = ok and good
                count += 1
                if not good:
                    lines.append(f"MISMATCH on {sorted(G.vertices)} pos={pos}")
        lines.append(f"{count} degenerations checked")
        return _report("graphsum", args.seed, lines, ok)
    raise UsageError(f"unknown verification {which!r}")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="hlbrion",
        description="Deformed characters of finite and affine type A by "
                    "several independent routes, in exact arithmetic.")
    sub = ap.add_subparsers(dest="command", required=True)

    fin = sub.add_parser("finite", help="finite-type polynomial")
    fin.add_argument("--n", type=int, required=True)
    fin.add_argument("--a", required=True, help="a_1,...,a_{n-1}")
    fin.add_argument("--method", choices=["gt", "def", "both"], default="gt")
    fin.add_argument("--format", choices=["text", "json"], default="text")
    fin.add_argument("--unsafe-limits", action="store_true")
    fin.set_defaults(func=cmd_finite)

    aff = sub.add_parser("affine", help="affine truncated series")
    aff.add_argument("--n", type=int, required=True)
    aff.add_argument("--a", required=True, help="a_0,...,a_{n-1}")
    aff.add_argument("--qmax", type=int, required=True)
    aff.add_argument("--z", default="symbolic", help="symbolic or rand:SEED")
    aff.add_argument("--format", choices=["text", "json"], default="text")
    aff.add_argument("--unsafe-limits", action="store_true")
    aff.set_defaults(func=cmd_affine)

    ver = sub.add_parser("verify", help="run a verification suite")
    checks = ver.add_subparsers(dest="which", required=True)
    for which, options in VERIFY_CHECKS.items():
        check = checks.add_parser(which)
        for option in options.split():
            check.add_argument(option, **VERIFY_OPTIONS[option])
        check.set_defaults(func=cmd_verify)
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout (`hlbrion ... | head`): send what is still
        # buffered to devnull, so the flush at exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (UsageError, finite_hl.TooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
