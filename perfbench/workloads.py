"""The benchmark's workloads: seeded inputs, one case per identity check.

A workload builds its inputs from the seed in `setup` and hands out its case
list one round at a time, and a run always ends on a round boundary.  Where a
workload has a fixed set of inputs, a round checks each of them once, in an
order the seed shuffles, so two seeds give the program the same work; the seed
also draws the evaluation points.  Where the seed draws the inputs
themselves, every round has the same composition: so many cases of each size
class, dealt from a shuffled deck, so that every member of the class comes up
once before any comes up twice.

A case calls the program's public entry points only.  It returns its verdict
and, where the result is deterministic, the exact output as text; the text is
digested and compared with `references.json`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import os
import random

from hlbrion import affine_hl, cli, cones, finite_hl, graphs, ring

HERE = os.path.dirname(os.path.abspath(__file__))
ZERO_GRAPH = os.path.join(HERE, "data", "zero_graph.json")


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Case:
    """One identity check: `run()` returns (verdict, exact output or None).

    `ref` names the reference digest of the exact output; None when the
    output depends on seeded evaluation points and only the verdict counts.
    """

    __slots__ = ("label", "run", "ref")

    def __init__(self, label, run, ref=None):
        self.label = label
        self.run = run
        self.ref = ref


def _deck(rng, items):
    items = list(items)
    rng.shuffle(items)
    return items


def _deal(deck, r, per_round, k):
    return deck[(r * per_round + k) % len(deck)]


def _round_rng(seed, r):
    return random.Random(f"{seed}:{r}")


def _weights(n, max_level):
    return [a for a in itertools.product(range(max_level + 1), repeat=n)
            if 0 < sum(a) <= max_level]


class VertexZero:
    """Criterion 5: the transform of a row-growing graph vanishes.

    One round checks every row-growing graph with at most 7 vertices once,
    each with fresh seeded top values and evaluation points.
    """

    name = "vertex-zero"
    round_s = 2.4
    cli = [
        ["verify", "zero", "--graph", ZERO_GRAPH, "--b", "3", "--seed", "1"],
        ["verify", "zero", "--graph", ZERO_GRAPH, "--b", "2", "--seed", "4",
         "--trials", "2"],
        ["verify", "gensingular", "--count", "3", "--seed", "2"],
        ["verify", "graphsum", "--max-vertices", "5"],
    ]

    def setup(self, seed):
        pool = [g for g in graphs.enumerate_ordinary_graphs(7)
                if g.violates_row_monotonicity()]
        return seed, _deck(random.Random(seed), pool)

    def round(self, state, r):
        seed, pool = state
        rng = _round_rng(seed, r)
        cases = []
        for G in pool:
            b = graphs.BSeq(sorted((rng.randint(0, 3) for _ in range(G.l)),
                                   reverse=True))
            s = rng.randrange(2 ** 31)
            cases.append(Case(
                f"psi_is_zero {sorted(G.vertices)} b={list(b)} seed={s}",
                lambda G=G, b=b, s=s: (graphs.psi_is_zero(G, b, trials=5,
                                                          seed=s), None)))
        return cases


# Top rows of the 4-row interlacing polytope (dimension 6) with values <= 2,
# in three classes of like cost: 16 vertices (large, ~1.5 s per check), 6
# vertices (~0.5 s) and 4 vertices (~0.35 s).  Left out: (2, 1, 1, 0) with
# 14 vertices, and (2, 1, 1, 1) and (2, 2, 2, 1), with 4 vertices but other
# costs, which would make the percentiles depend on which inputs a seed deals;
# and (3, 2, 1, 0), with 40 vertices and 8 s per check.
TRIANGLE4_16 = [(2, 1, 0, 0), (2, 2, 1, 0)]
TRIANGLE4_6 = [(2, 2, 0, 0), (2, 2, 1, 1), (1, 1, 0, 0)]
TRIANGLE4_4 = [(1, 0, 0, 0), (2, 0, 0, 0), (1, 1, 1, 0), (2, 2, 2, 0)]
# Instances of dimension <= 3 by vertex count: segments (2 vertices, ~1.5 ms
# per check), simplices (3-4, ~10 ms) and larger (~45 ms).
SMALL_CAPS = (2, 4, None)
SMALL_POOL = 90
# Cases per round of each class: one 16-vertex polytope, every 6-vertex and
# every 4-vertex one, then one small instance of each size.  A 15 s run is
# four rounds, 44 cases, in which every 16-vertex polytope comes up twice: the
# median falls in the middle of the sixteen 4-vertex cases and the tail
# percentile, with ten cases beyond it, in the middle of the twelve 6-vertex
# ones, whatever the seed.  The seed draws the small instances and the order.
PER_ROUND = (1, 3, 4, 1, 1, 1)


class BrionPolytopes:
    """Criterion 4: weighted lattice sums equal weighted vertex-cone sums.

    `graphs.random_bounded_instances` draws polytopes of every size
    independently, so the work, the median and the tail of a short sample
    change with the seed.  Each round therefore fixes the mix: 4-row
    interlacing polytopes of three sizes, and instances of dimension at most 3
    from `random_bounded_instances`, dealt by size.
    """

    name = "brion-polytopes"
    round_s = 4.0
    cli = [
        ["verify", "wbrion", "--count", "4", "--seed", "5"],
        ["verify", "wbrion", "--count", "4", "--seed", "10", "--trials", "2"],
    ]

    def setup(self, seed):
        rng = random.Random(seed)
        pool = graphs.random_bounded_instances(
            SMALL_POOL, rng.randrange(2 ** 31), max_dim=3)
        small = [[] for _ in SMALL_CAPS]
        for G, b in pool:
            nverts = len(graphs.weighted_brion_instance(G, b)[2])
            k = next(i for i, cap in enumerate(SMALL_CAPS)
                     if cap is None or nverts <= cap)
            small[k].append((G, b))
        tri = graphs.triangle_graph(4)
        polytopes = [[(tri, graphs.BSeq(b)) for b in _deck(rng, tops)]
                     for tops in (TRIANGLE4_16, TRIANGLE4_6, TRIANGLE4_4)]
        return seed, polytopes + small

    def round(self, state, r):
        seed, decks = state
        rng = _round_rng(seed, r)
        cases = []
        for deck, per_round in zip(decks, PER_ROUND):
            for k in range(per_round):
                G, b = _deal(deck, r, per_round, k)
                s = rng.randrange(2 ** 31)
                cases.append(Case(
                    f"wbrion {sorted(G.vertices)} b={list(b)} seed={s}",
                    lambda G=G, b=b, s=s: (_check_brion(G, b, s), None)))
        return cases


def _check_brion(G, b, seed):
    P, phi, verts = graphs.weighted_brion_instance(G, b)
    return cones.verify_weighted_brion(P, phi, trials=3, seed=seed,
                                       vertices=verts, assume_bounded=True)


SYMBOLIC_QMAX = 5
EVALUATED_QMAX = 2
CONTRIB_QMAX = 1
AFFINE_SYMBOLIC = _weights(2, 3)                 # 9 weights of level <= 3
AFFINE_EVALUATED = _weights(3, 2)                # 9 weights of level <= 2
# two regular weights of like cost (~0.6 s per check), one per round: a 15 s
# run is four rounds, so each comes up twice, and the tail percentile, with
# ten cases beyond it, falls among the dearest symbolic weights, (2, 1) and
# (0, 3), whatever the seed
AFFINE_CONTRIB = [(1, 1), (1, 2)]


class AffineSeries:
    """Criteria 7-8: the affine identity and the vertex contributions.

    Each round checks every symbolic n = 2 weight (`verify_main`, plus the
    exact basis-sum table), every n = 3 weight at a seeded z-point and one
    regular n = 2 weight through `verify_contrib`.  The benchmark draws the
    z-points itself, off the poles: `verify_main` draws its own and can land
    on one (z_1 = 1, z_2 = 1 or z_1 = z_2), where the division raises
    NonInvertibleLeadingCoefficient.
    """

    name = "affine-series"
    round_s = 3.5
    cli = [
        ["affine", "--n", "2", "--a", "1,0", "--qmax", "8"],
        ["affine", "--n", "2", "--a", "1,1", "--qmax", "4", "--format", "json"],
        ["affine", "--n", "3", "--a", "1,0,0", "--qmax", "2", "--z", "rand:7"],
        ["verify", "main", "--n", "2", "--a", "1,0", "--qmax", "4"],
        ["verify", "main", "--n", "3", "--a", "1,0,0", "--qmax", "2",
         "--z", "rand:1", "--trials", "1"],
        ["verify", "contrib", "--n", "2", "--a", "1,1", "--qmax", "1"],
        ["affine", "--n", "2", "--a", "1,0", "--qmax", "-1"],
    ]

    def setup(self, seed):
        rng = random.Random(seed)
        return (seed, _deck(rng, AFFINE_SYMBOLIC), _deck(rng, AFFINE_EVALUATED),
                _deck(rng, AFFINE_CONTRIB))

    def round(self, state, r):
        seed, sym, ev, contrib = state
        rng = _round_rng(seed, r)
        cases = []
        for a in sym:
            cases.append(Case(f"verify_main n=2 a={a} qmax={SYMBOLIC_QMAX}",
                              lambda a=a: _check_main_symbolic(a),
                              ref=affine_ref("main", a, SYMBOLIC_QMAX)))
        for a in ev:
            z = _zpoint(rng)
            cases.append(Case(
                f"lhs == rhs n=3 a={a} qmax={EVALUATED_QMAX} z={z}",
                lambda a=a, z=z: (_check_main_evaluated(a, z), None)))
        a = _deal(contrib, r, 1, 0)
        cases.append(Case(f"verify_contrib n=2 a={a} qmax={CONTRIB_QMAX}",
                          lambda a=a: _check_contrib(a),
                          ref=affine_ref("contrib", a, CONTRIB_QMAX)))
        return cases


def affine_ref(kind, a, qmax):
    return f"affine-{kind}:{','.join(map(str, a))}:q{qmax}"


def _check_main_symbolic(a):
    w = affine_hl.AffineWeight(2, a)
    ok = affine_hl.verify_main(w, SYMBOLIC_QMAX)
    rows = sorted((qd, tuple(z), tuple(tp.to_list()))
                  for qd, z, tp in affine_hl.rhs_table(w, SYMBOLIC_QMAX))
    return ok, repr(rows)


# z-monomials of the positive finite roots for n = 3: the series the Weyl
# side divides by has constant term prod (1 - m(z)), so z must avoid m = 1.
_ROOT_MONOMIALS = [affine_hl.zq_of_shift(
    tuple((x == j) - (x == i) for x in range(3)), 0)
    for i, j in affine_hl.finite_roots(3) if i < j]


def _zpoint(rng):
    return ring.random_point([affine_hl.zvar(r) for r in (1, 2)], rng,
                             _ROOT_MONOMIALS)


def _check_main_evaluated(a, zpoint):
    """verify_main's evaluated branch at a point the benchmark drew."""
    w = affine_hl.AffineWeight(3, a)
    lhs = affine_hl.lhs_series(w, EVALUATED_QMAX, ring.EVALUATED, zpoint)
    rhs = affine_hl.rhs_series(w, EVALUATED_QMAX, ring.EVALUATED, zpoint)
    return lhs.equals(rhs.scale(w.wlambda()), up_to=EVALUATED_QMAX)


def _check_contrib(a):
    rep = affine_hl.verify_contrib(affine_hl.AffineWeight(2, a), CONTRIB_QMAX)
    return rep["ok"], "\n".join(rep["checks"] + rep["failures"])


FINITE_N = 4
FINITE_MAX_LEVEL = 4


class FiniteRoutes:
    """Criteria 1-2: interlacing-pattern sum equals Weyl symmetrization, and
    the t = 0 and t = 1 specializations equal their classical oracles.

    All weights have n = 4; one round checks every weight of level 1-4.
    """

    name = "finite-routes"
    round_s = 2.5
    cli = [
        ["finite", "--n", "4", "--a", "1,1,1", "--method", "both"],
        ["finite", "--n", "3", "--a", "1,1", "--format", "json"],
        ["verify", "tmultinomial", "--n", "3", "--a", "1,0"],
        ["verify", "contribfin", "--n", "3", "--a", "1,1"],
        ["finite", "--n", "6", "--a", "1,0,0,0,0", "--method", "def"],
    ]

    def setup(self, seed):
        return _deck(random.Random(seed),
                     _weights(FINITE_N - 1, FINITE_MAX_LEVEL))

    def round(self, state, r):
        return [Case(f"finite routes n={FINITE_N} a={a}",
                     lambda a=a: _check_finite(a), ref=finite_ref(a))
                for a in state]


def finite_ref(a):
    return f"finite:{','.join(map(str, a))}"


def _check_finite(a):
    w = finite_hl.FiniteWeight(FINITE_N, a)
    gt = finite_hl.hl_gt(w)
    d = finite_hl.hl_def(w)
    ok = (gt == d
          and finite_hl.subs_t(gt, 0) == finite_hl.schur_bialternant(w)
          and finite_hl.subs_t(gt, 1) == finite_hl.orbit_sum(w))
    return ok, d.to_text()


WORKLOADS = {w.name: w for w in (VertexZero(), BrionPolytopes(),
                                 AffineSeries(), FiniteRoutes())}


def cli_output(argv):
    """Exit code, stdout and stderr of one in-process CLI invocation."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return f"exit {code}\n{out.getvalue()}--stderr--\n{err.getvalue()}"


def cli_key(argv):
    """Reference key of a CLI command: the data path is written relative."""
    return " ".join(os.path.relpath(x, os.path.dirname(HERE))
                    if x == ZERO_GRAPH else x for x in argv)


def reference_inputs():
    """Every deterministic case of every workload, keyed as in the cases."""
    out = {}
    for a in AFFINE_SYMBOLIC:
        out[affine_ref("main", a, SYMBOLIC_QMAX)] = lambda a=a: _check_main_symbolic(a)
    for a in AFFINE_CONTRIB:
        out[affine_ref("contrib", a, CONTRIB_QMAX)] = lambda a=a: _check_contrib(a)
    for a in _weights(FINITE_N - 1, FINITE_MAX_LEVEL):
        out[finite_ref(a)] = lambda a=a: _check_finite(a)
    return out
