"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdicts.
"""

import itertools
import pathlib
import random
import time

import pytest

from hlbrion import affine_hl, finite_hl, graphs, ring
from hlbrion.cones import verify_weighted_brion
from hlbrion.graphs import BSeq, FaceSubgraph, _DSU, triangle_graph
from hlbrion.ring import LaurentPoly, Monomial, SYMBOLIC_Z, TPoly, random_point


def _verdict(num, label, ok, started):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num} ({label}): {status} [{time.time() - started:.1f}s]")
    assert ok, f"criterion {num} failed"


def _weights(n, topmax=3):
    out = []
    for a in itertools.product(range(topmax + 1), repeat=n - 1):
        if 0 < sum(a) <= topmax:
            out.append(finite_hl.FiniteWeight(n, a))
    return out


ALL_FINITE = {n: _weights(n) for n in (2, 3, 4)}


def test_criterion_1_finite_equivalence():
    started = time.time()
    ok = True
    count = 0
    for n in (2, 3, 4):
        for w in ALL_FINITE[n]:
            if finite_hl.hl_gt(w) != finite_hl.hl_def(w):
                ok = False
                print("  mismatch at", w)
            count += 1
    print(f"  {count} weights compared")
    _verdict(1, "combinatorial route equals symmetrization route", ok, started)


def test_criterion_2_specializations():
    started = time.time()
    ok = True
    for n in (2, 3, 4):
        for w in ALL_FINITE[n]:
            hl = finite_hl.hl_gt(w)
            if finite_hl.subs_t(hl, 0) != finite_hl.schur_bialternant(w):
                ok = False
                print("  t=0 mismatch at", w)
            if finite_hl.subs_t(hl, 1) != finite_hl.orbit_sum(w):
                ok = False
                print("  t=1 mismatch at", w)
    _verdict(2, "t=0 alternant and t=1 orbit specializations", ok, started)


def test_criterion_3_face_euler_sums():
    started = time.time()
    ok = True
    count = 0
    for n in (2, 3, 4):
        picked = [[n - i for i in range(1, n)]]   # regular: [n]_t! case
        for top in itertools.count(1):
            for a in itertools.product(range(top + 1), repeat=n - 1):
                if sum(a) == top:
                    lam = [sum(a[i:]) for i in range(n - 1)]
                    if lam not in picked:
                        picked.append(lam)
                if len(picked) == 10:
                    break
            if len(picked) == 10:
                break
        assert any(len(set(lam + [0])) == n for lam in picked), "need a regular case"
        for lam in picked:
            if not graphs.verify_face_euler_sum(n, lam):
                ok = False
                print("  mismatch at n =", n, "lam =", lam)
            count += 1
    print(f"  {count} weights checked")
    _verdict(3, "signed face sums give t-multinomials", ok, started)


def test_criterion_4_weighted_brion():
    started = time.time()
    ok = True
    instances = graphs.random_bounded_instances(20, seed=11)
    dims = []
    for G, b in instances:
        P, phi, verts = graphs.weighted_brion_instance(G, b)
        assert P.dim <= 8
        dims.append(P.dim)
        good = verify_weighted_brion(P, phi, trials=3, seed=13,
                                     vertices=verts, assume_bounded=True)
        if not good:
            ok = False
            print("  mismatch on", sorted(G.vertices), list(b))
    print(f"  20 polytopes, dims {sorted(dims)}")
    _verdict(4, "brute-force weighted sums equal vertex-cone sums", ok, started)


def test_criterion_5_zero_transforms():
    started = time.time()
    rng = random.Random(17)
    violating = [g for g in graphs.enumerate_ordinary_graphs(9)
                 if g.violates_row_monotonicity()]
    ok = True
    for G in violating:
        for _ in range(2):
            vals = sorted((rng.randint(0, 3) for _ in range(G.l)), reverse=True)
            if not graphs.psi_is_zero(G, BSeq(vals), trials=5, rng=rng):
                ok = False
                print("  nonzero transform:", sorted(G.vertices), vals)
    print(f"  {len(violating)} violating graphs, 2 value choices each")
    _verdict(5, "row-growing graphs have vanishing transforms", ok, started)


def test_criterion_6_degeneration_lemmas():
    started = time.time()
    ok = True
    count = 0
    for G in graphs.enumerate_ordinary_graphs(8):
        if G.l < 2:
            continue
        b = BSeq(list(range(G.l - 1, -1, -1)))
        for pos in range(G.l - 1):
            vals = sorted(
                (v if i != pos + 1 else list(b)[pos]
                 for i, v in enumerate(b)), reverse=True)
            if not graphs.verify_graphsum(G, b, BSeq(vals)):
                ok = False
                print("  graphsum mismatch:", sorted(G.vertices), pos)
            count += 1
    print(f"  {count} exact face-sum degenerations")
    rng = random.Random(19)
    pool = [g for g in graphs.enumerate_ordinary_graphs(7) if g.l >= 2]
    for i in range(10):
        G = rng.choice(pool)
        base = rng.randint(0, 2)
        b = BSeq(sorted((base + G.l - i for i in range(G.l)), reverse=True))
        vals = sorted((rng.randint(0, 1) + base for _ in range(G.l)),
                      reverse=True)
        if not graphs.verify_gensingular(G, b, BSeq(vals), trials=3,
                                         seed=rng.randint(0, 10 ** 6)):
            ok = False
            print("  gensingular mismatch:", sorted(G.vertices), vals)
    print("  10 sampled transform degenerations")
    _verdict(6, "degeneration lemmas", ok, started)


def test_criterion_7_affine_main_theorem():
    started = time.time()
    ok = True
    for a in ([1, 0], [1, 1], [2, 0]):
        w = affine_hl.AffineWeight(2, a)
        if not affine_hl.verify_main(w, 6):
            ok = False
            print("  symbolic mismatch at a =", a)
    for a, qmax in (([1, 0, 0], 3), ([1, 1, 1], 2)):
        w = affine_hl.AffineWeight(3, a)
        if not affine_hl.verify_main(w, qmax, domain=SYMBOLIC_Z):
            ok = False
            print("  symbolic mismatch at a =", a)
    w3 = affine_hl.AffineWeight(3, [1, 0, 0])
    if not affine_hl.verify_main(w3, 3, trials=3, seed=23):
        ok = False
        print("  evaluated mismatch at n = 3")
    _verdict(7, "affine basis sum equals Weyl sum", ok, started)


def test_criterion_8_vertex_contributions():
    started = time.time()
    ok = True
    rep = affine_hl.verify_contrib(affine_hl.AffineWeight(2, [1, 1]), 3)
    if not rep["ok"]:
        ok = False
        print("  regular:", rep["failures"])
    rep = affine_hl.verify_contrib(affine_hl.AffineWeight(2, [1, 0]), 3)
    if not rep["ok"]:
        ok = False
        print("  singular:", rep["failures"])
    _verdict(8, "vertex transforms match closed contributions", ok, started)


def test_criterion_9_bridges():
    started = time.time()
    ok = True
    count = 0
    for n in (2, 3, 4):
        G = triangle_graph(n)
        for w in ALL_FINITE[n]:
            for pat in finite_hl.enumerate_gt(w):
                coords = {}
                for i, row in enumerate(pat):
                    for k, val in enumerate(row):
                        coords[(i, k + 1)] = val
                dsu = _DSU(G.vertices)
                for hi, lo in G.edges:
                    if coords[hi] == coords[lo]:
                        dsu.union(hi, lo)
                face = FaceSubgraph(G, dsu.blocks())
                if face.phi() != finite_hl.p_of(pat):
                    ok = False
                    print("  pattern weight mismatch at", w, pat)
                count += 1
    print(f"  {count} patterns bridged to face weights")
    for a, qmax in ([1, 0], 6), ([1, 1], 6), ([2, 0], 6):
        w = affine_hl.AffineWeight(2, a)
        for A in affine_hl.enumerate_pi(w, qmax):
            if affine_hl.p_weight_via_delta(w, A) != affine_hl.p_weight(A):
                ok = False
                print("  sequence weight mismatch at", a, A)
    print("  affine weights invariant under the tight-pattern route")
    _verdict(9, "pattern weights equal face weights", ok, started)


def _affine_weights(n, level):
    return [affine_hl.AffineWeight(n, a)
            for a in itertools.product(range(level + 1), repeat=n)
            if 0 < sum(a) <= level]


def _finite_monomial(lam, zmono):
    """The finite monomial of a basis-side term z^u: mu = lam + (-sum u,
    u_1, ..., u_{n-1}), lam = finite_part(), as x_1^mu_0 ... x_{n-1}^mu_{n-2},
    x_n = 1 as in `hl_gt`."""
    u = [zmono.exp_of(affine_hl.zvar(r)) for r in range(1, len(lam))]
    mu = [x + d for x, d in zip(lam, [-sum(u)] + u)]
    return Monomial({graphs.xvar(i + 1): mu[i] for i in range(len(lam) - 1)})


def _q0_mismatches(weights):
    """The weights whose basis side at q^0, symbolic and mapped by
    `_finite_monomial`, differs from `hl_gt` of the finite part (from 1
    where the finite part is 0)."""
    bad = []
    for w in weights:
        c = affine_hl.rhs_series(w, 0).coeff(0)
        lam = w.finite_part()
        got = LaurentPoly({_finite_monomial(lam, m): tp
                           for m, tp in c.num.terms.items()})
        want = (finite_hl.hl_gt(finite_hl.FiniteWeight(w.n, w.a[1:]))
                if any(w.a[1:]) else LaurentPoly.one())
        if c.den != LaurentPoly.one() or got != want:
            bad.append(w)
    return bad


CRITERION_13 = [w for n, level in ((2, 5), (3, 4), (4, 3), (5, 2), (6, 2))
                for w in _affine_weights(n, level)]


def test_criterion_13_basis_side_at_q0_is_the_finite_polynomial():
    # at q^0 the affine basis side is the finite Hall-Littlewood polynomial
    # of the finite part, with no W_lam(t) ratio, also where a_0 = 0
    started = time.time()
    assert len(CRITERION_13) == 135
    bad = _q0_mismatches(CRITERION_13)
    for w in bad:
        print("  q^0 mismatch at", w)
    print(f"  {len(CRITERION_13)} weights compared with hl_gt")
    _verdict(13, "basis side at q^0 equals the finite polynomial", not bad,
             started)


def test_finite_monomial_table():
    # z^u stands for mu = lam + (-sum u, u_1, ..., u_{n-1}); x_n is 1
    z = affine_hl.zvar
    table = [((1, 0), {}, {"x1": 1}),
             ((1, 0), {z(1): 1}, {}),
             ((1, 0), {z(1): -1}, {"x1": 2}),
             ((2, 1, 0), {z(1): 1}, {"x1": 1, "x2": 2}),
             ((1, 1, 0), {z(2): 1}, {"x1": 0, "x2": 1}),
             ((0, 0, 0), {z(1): 2, z(2): -1}, {"x1": -1, "x2": 2}),
             ((3, 1, 0, 0), {z(3): 1}, {"x1": 2, "x2": 1})]
    for lam, zexps, xexps in table:
        assert _finite_monomial(lam, Monomial(zexps)) == Monomial(xexps), \
            (lam, zexps)


def test_criterion_13_fails_with_an_extra_l1_count(monkeypatch):
    # one more value that occurs once in its row and not in the row above,
    # on every basis element, breaks the identity on all 37 weights of n = 2
    # at level <= 3, n = 3 and 4 at level <= 2 and n = 5 at level 1
    original = affine_hl._profile_weight

    def mutated(profile):
        counts = dict(profile)
        counts[1] = counts.get(1, 0) + 1
        return original(sorted(counts.items()))

    weights = [w for n, level in ((2, 3), (3, 2), (4, 2), (5, 1))
               for w in _affine_weights(n, level)]
    assert len(weights) == 37 and not _q0_mismatches(weights)
    monkeypatch.setattr(affine_hl, "_profile_weight", mutated)
    assert _q0_mismatches(weights) == weights


# one weight each of n = 3, 4 and 5 whose finite part is not 0
CRITERION_13_GUARD = [affine_hl.AffineWeight(3, (1, 1, 0)),
                      affine_hl.AffineWeight(4, (0, 1, 0, 1)),
                      affine_hl.AffineWeight(5, (1, 0, 1, 0, 0))]


def _criterion_13_shared(src_calls):
    """The functions outside ring.py that both sides of criterion 13 call,
    the basis side at qmax 0 and `hl_gt`, on the guard's weights."""
    shared = set()
    for w in CRITERION_13_GUARD:
        basis = src_calls(affine_hl.rhs_series, w, 0)
        finite = src_calls(finite_hl.hl_gt,
                           finite_hl.FiniteWeight(w.n, w.a[1:]))
        assert affine_hl.enumerate_pi.__code__ in basis
        assert finite_hl.enumerate_gt.__code__ in finite
        shared |= {f"{pathlib.Path(c.co_filename).stem}.{c.co_qualname}"
                   for c in basis & finite if c.co_filename != ring.__file__}
    return shared


def test_criterion_13_sides_call_no_common_function(src_calls):
    # the basis side and the pattern sum share only the ring kernels
    assert not _criterion_13_shared(src_calls)


def test_criterion_13_guard_sees_a_shared_weight_builder(monkeypatch, src_calls):
    # basis weights built by the finite route's own builder keep every
    # value, so the identity still holds; only the guard sees the route
    # through the code it checks
    def through_finite(profile):
        return finite_hl._ls_weight([l for l, d in profile for _ in range(d)])

    monkeypatch.setattr(affine_hl, "_profile_weight", through_finite)
    assert not _q0_mismatches(CRITERION_13_GUARD)
    assert _criterion_13_shared(src_calls) == {"finite_hl._ls_weight"}
