import itertools
import pathlib
import random
import sys
from collections import Counter

import pytest

from hlbrion import finite_hl, ring
from hlbrion.finite_hl import (
    FiniteWeight, TooLarge, _root_factors, _weyl_term, enumerate_gt,
    hl_branching, hl_def, hl_gt, mu_exponent, orbit_sum, p_of,
    schur_bialternant, subs_t, verify_contribfin, wlambda_poincare,
)
from hlbrion.graphs import (
    BSeq, enumerate_faces, product_value, psi_terms, triangle_graph, xvar,
)
from hlbrion.ring import (
    LaurentPoly, Monomial, TPoly, exact_div_binomials, random_point,
)


def tp(*coeffs):
    return TPoly.from_list(list(coeffs))


def x(i, e=1):
    return LaurentPoly.var(f"x{i}", e)


def test_weight_coordinates():
    w = FiniteWeight(3, [1, 2])
    assert w.lam == (3, 2)
    assert w.parts == (3, 2, 0)
    with pytest.raises(ValueError):
        FiniteWeight(2, [0])


@pytest.mark.parametrize("n, a", [
    (3, [1.5, 0.2]), (3.5, [1, 1]), (3, ["1", 1]), (3, [True, 1]),
    (3, [1, False]), ("3", [1, 0]), (3.0, [1, 0])])
def test_weight_refuses_non_integer_input(n, a):
    # int() would truncate 1.5 to 1, 3.5 to 3 and read "1" and True as 1
    with pytest.raises(ValueError):
        FiniteWeight(n, a)


def test_enumerate_gt_counts():
    assert len(enumerate_gt(FiniteWeight(2, [2]))) == 3
    assert len(enumerate_gt(FiniteWeight(3, [1, 0]))) == 3
    # dimension of the adjoint of sl3: lam = (2,1,0) -> 8
    assert len(enumerate_gt(FiniteWeight(3, [1, 1]))) == 8
    with pytest.raises(TooLarge):
        enumerate_gt(FiniteWeight(7, [1] * 6))


def test_mu_exponent():
    w = FiniteWeight(2, [2])
    pats = {a[1][0]: a for a in enumerate_gt(w)}
    assert mu_exponent(pats[1]) == Monomial({"x1": 1})
    # highest pattern of the fundamental weight has unit monomial
    pat = ((1, 0, 0), (1, 0), (1,))
    assert mu_exponent(pat) == Monomial.unit()
    # telescoping: total x-degree sums to rowsum_0 - rowsum_{n-1}
    for a in enumerate_gt(FiniteWeight(3, [1, 1])):
        deg = sum(mu_exponent(a).exps().values())
        assert deg == sum(a[0]) - sum(a[-1])


def test_p_of_examples():
    pats = {a[1][0]: a for a in enumerate_gt(FiniteWeight(2, [2]))}
    assert p_of(pats[1]) == tp(1, -1)
    assert p_of(pats[2]) == TPoly.one()
    assert p_of(((2, 1, 0), (1, 1), (1,))) == TPoly.one() - TPoly.t(2)


def test_hl_gt_small():
    assert hl_gt(FiniteWeight(2, [2])) == \
        x(1, 2) + x(1) * tp(1, -1) + LaurentPoly.one()
    assert hl_gt(FiniteWeight(2, [1])) == x(1) + LaurentPoly.one()
    assert hl_gt(FiniteWeight(3, [1, 0])) == LaurentPoly.one() + x(1) + x(2)


def p_of_reference(pattern):
    """prod (1 - t^l) over the values occurring l times in a row and l-1
    times in the row above, counted with Counters."""
    out = TPoly.one()
    for above, here in zip(pattern, pattern[1:]):
        counts = Counter(above)
        for value, l in Counter(here).items():
            if counts[value] == l - 1:
                out = out * (TPoly.one() - TPoly.t(l))
    return out


# every weight with n <= 5 and level <= 3
LEVEL3_N5 = [(n, a) for n in range(2, 6)
             for a in itertools.product(range(4), repeat=n - 1) if 0 < sum(a) <= 3]


def test_hl_gt_is_the_pattern_sum():
    # hl_gt groups the patterns by weight monomial and statistic; the plain
    # sum of p_of(A) e^{mu_A}, and p_of against its Counter definition
    assert len(LEVEL3_N5) == 65
    for n, a in LEVEL3_N5:
        w = FiniteWeight(n, a)
        total = LaurentPoly.zero()
        for pat in enumerate_gt(w):
            p = p_of(pat)
            assert p == p_of_reference(pat), pat
            total = total + LaurentPoly.from_monomial(mu_exponent(pat), p)
        assert hl_gt(w) == total, (n, a)


def test_finite_routes_share_no_kernel(monkeypatch):
    # the pattern sum divides nothing and applies no Demazure step; the t = 0
    # oracle applies no Demazure step and enumerates no pattern
    def refused(*args):
        raise AssertionError("route independence")
    w = FiniteWeight(4, (1, 0, 2))
    gt, schur = hl_gt(w), schur_bialternant(w)
    for module, name in [(ring, "exact_div_binomials"),
                         (finite_hl, "exact_div_binomials"), (finite_hl, "_pi_step")]:
        monkeypatch.setattr(module, name, refused)
    assert hl_gt(w) == gt
    monkeypatch.undo()
    for name in ("_pi_step", "enumerate_gt"):
        monkeypatch.setattr(finite_hl, name, refused)
    assert schur_bialternant(w) == schur == subs_t(gt, 0)


def test_hl_gt_builds_one_monomial_per_distinct_mu(monkeypatch):
    # patterns are counted per tuple of row sums, so hl_gt constructs no
    # more monomials than there are distinct weights mu
    made = []

    def counting(*args):
        made.append(args)
        return Monomial(*args)

    for n, a in [(3, (2, 1)), (4, (1, 0, 2)), (4, (2, 1, 1))]:
        w = FiniteWeight(n, a)
        mus = {mu_exponent(p) for p in enumerate_gt(w)}
        want = hl_gt(w)
        made.clear()
        monkeypatch.setattr(finite_hl, "Monomial", counting)
        assert hl_gt(w) == want
        monkeypatch.undo()
        assert 0 < len(made) <= len(mus) < len(enumerate_gt(w)), (n, a)


def test_hl_def_matches_gt():
    for n, a in [(2, [1]), (2, [2]), (2, [3]), (3, [1, 0]), (3, [0, 1]),
                 (3, [1, 1]), (3, [2, 1]), (4, [1, 0, 0]), (4, [0, 1, 0]),
                 (4, [1, 0, 1])]:
        w = FiniteWeight(n, a)
        assert hl_gt(w) == hl_def(w), (n, a)


def hl_def_reference(weight):
    """The n!-term Weyl sum: every group element's term over the common
    denominator, divided by each root binomial, by W_lam(t), then x_n
    pinned to 1."""
    n = weight.n
    factors = _root_factors(n)
    total = LaurentPoly.zero()
    for w in itertools.permutations(range(n)):
        total = total + _weyl_term(weight, w, factors)
    quotient = exact_div_binomials(total, [y for _, y, _, _ in factors])
    wl = wlambda_poincare(weight)
    divided = LaurentPoly({m: c.exact_div(wl) for m, c in quotient.terms.items()})
    return divided.subs_monomials({xvar(n): Monomial.unit()})


# every n = 4 weight of level 1 to 4, the weights of the finite benchmark
LEVEL4_N4 = [a for a in itertools.product(range(5), repeat=3) if 0 < sum(a) <= 4]


def test_hl_def_matches_weyl_sum_reference():
    assert len(LEVEL4_N4) == 34
    for n, a in [(4, a) for a in LEVEL4_N4] + [(5, (1, 0, 1, 0)),
                                                (5, (1, 1, 0, 1))]:
        w = FiniteWeight(n, a)
        assert hl_def(w) == hl_def_reference(w), (n, a)


def test_hl_def_applies_one_pi_step_per_reduced_word_letter(monkeypatch):
    # pi_{w0} along s_1; s_2 s_1; s_3 s_2 s_1: n(n-1)/2 = 6 termwise steps,
    # one per simple root; no binomial is divided and no Weyl term is built
    steps = []

    def spied(g, i, width, f=finite_hl._pi_step):
        steps.append(i)
        return f(g, i, width)

    def refused(*args):
        raise AssertionError("hl_def divides by no binomial and sums no Weyl terms")
    monkeypatch.setattr(finite_hl, "_pi_step", spied)
    for module, name in [(ring, "exact_div_binomials"),
                         (finite_hl, "exact_div_binomials"), (finite_hl, "_weyl_term")]:
        monkeypatch.setattr(module, name, refused)
    w = FiniteWeight(4, (2, 1, 1))
    d = hl_def(w)
    assert steps == [1, 2, 1, 3, 2, 1]
    assert d == hl_gt(w)


# the packed form of hl_def: fields of WIDTH bits hold b + OFFSET, so the
# exponents here lie in [-8, 23]; values are t-polynomials at t = 2^BITS
WIDTH, OFFSET, BITS = 5, 8, 16


def pack(g):
    """{exponent tuple: TPoly} as a packed dict of `hl_def`."""
    return {sum((e + OFFSET) << WIDTH * k for k, e in enumerate(b)):
            sum(v << BITS * e for e, v in c.c.items()) for b, c in g.items()}


def as_laurent(packed, nvars):
    """A packed dict of `hl_def` as a Laurent polynomial in x1, x2, ..."""
    mask = (1 << WIDTH) - 1
    return LaurentPoly.sum_terms(
        (Monomial({xvar(k + 1): (b >> WIDTH * k & mask) - OFFSET
                   for k in range(nvars)}), TPoly.unpack(c, BITS))
        for b, c in packed.items())


def pi_by_division(p, i):
    """(p - y s_i p) / (1 - y), y = x_i^{-1} x_{i+1}, by exact division."""
    xi, xj = xvar(i), xvar(i + 1)
    y = Monomial({xi: -1, xj: 1})
    swapped = p.subs_monomials({xi: Monomial.var(xj), xj: Monomial.var(xi)})
    return exact_div_binomials(p - swapped * y, [y])


def test_pi_step_is_the_defining_quotient():
    # single monomials, d = b_i - b_{i+1} from -4 to 4, at both positions
    for i in (1, 2):
        for d in range(-4, 5):
            b = [2, -1, 3]
            b[i - 1] = b[i] + d
            for c in (tp(2, -1, 3), tp(0, 0, -5)):
                g = pack({tuple(b): c})
                got = finite_hl._pi_step(g, i, WIDTH)
                assert as_laurent(got, 3) == \
                    pi_by_division(as_laurent(g, 3), i), (i, d)
                assert (got == {}) == (d == -1), (i, d)
    # one seeded random sum of 12 terms in four variables, every position
    rng = random.Random(2020)
    g = {tuple(rng.randint(-3, 3) for _ in range(4)):
         tp(*(rng.randint(-4, 4) for _ in range(3))) for _ in range(12)}
    g = pack({b: c for b, c in g.items() if not c.is_zero()})
    assert len(g) >= 10
    for i in (1, 2, 3):
        assert as_laurent(finite_hl._pi_step(g, i, WIDTH), 4) == \
            pi_by_division(as_laurent(g, 4), i), i


def test_hl_def_raises_when_w_lambda_does_not_divide(monkeypatch):
    # (1,1) at n = 3 has a trivial stabilizer; 1 + t divides no coefficient
    # of the packed numerator, as its constant coefficient 1 already shows
    w = FiniteWeight(3, (1, 1))
    monkeypatch.setattr(finite_hl, "wlambda_poincare", lambda weight: tp(1, 1))
    with pytest.raises(ring.NotDivisible):
        hl_def(w)


def test_hl_def_matches_gt_on_the_widest_fields():
    # dmax = lam_1 - lam_n + 2(n-1) reaches 16, a 5-bit field, at every n
    # from 4 to 6, and 32 and 1002 at n = 3 and 2; about 0.4 s CPU in all
    # (2-core x86-64 host), most of it hl_def at n = 6
    for n, a in [(2, (1000,)), (3, (28, 0)), (4, (10, 0, 0)), (4, (5, 0, 5)),
                 (5, (8, 0, 0, 0)), (5, (4, 0, 0, 4)), (6, (6, 0, 0, 0, 0)),
                 (6, (3, 0, 0, 0, 3))]:
        w = FiniteWeight(n, a)
        assert (w.parts[0] + 2 * (n - 1)).bit_length() >= 5
        assert hl_def(w) == hl_gt(w), (n, a)


def src_calls(fn, *args):
    """The code objects of the package functions that fn(*args) calls,
    recorded by a profile hook on this process alone."""
    src = pathlib.Path(finite_hl.__file__).parent
    seen = set()

    def hook(frame, event, arg):
        code = frame.f_code
        if event == "call" and pathlib.Path(code.co_filename).parent == src:
            seen.add(code)
    sys.setprofile(hook)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return seen


def test_finite_routes_call_no_common_function():
    # criteria 1 and 2: the pattern sum, the Demazure route and the t = 0
    # oracle share no function but the ring kernels and the variable names
    w = FiniteWeight(4, (1, 0, 2))
    calls = {f.__name__: src_calls(f, w)
             for f in (hl_gt, hl_def, schur_bialternant)}
    assert finite_hl._pi_step.__code__ in calls["hl_def"]
    assert finite_hl.enumerate_gt.__code__ in calls["hl_gt"]
    assert ring.exact_div_binomials.__code__ in calls["schur_bialternant"]
    for (a, ca), (b, cb) in itertools.combinations(calls.items(), 2):
        shared = sorted(f"{pathlib.Path(c.co_filename).stem}:{c.co_firstlineno}"
                        f" {c.co_name}" for c in ca & cb
                        if c.co_filename != ring.__file__
                        and c is not xvar.__code__)
        assert not shared, (a, b, shared)


# every n = 5 weight of level 1 or 2
LEVEL2_N5 = [a for a in itertools.product(range(3), repeat=4) if 0 < sum(a) <= 2]


def test_hl_def_matches_gt_on_n5_level2():
    assert len(LEVEL2_N5) == 14
    for a in LEVEL2_N5:
        w = FiniteWeight(5, a)
        assert hl_def(w) == hl_gt(w), a


def test_hl_def_guard_is_six():
    w = FiniteWeight(6, (1, 0, 0, 0, 0))
    assert hl_def(w) == hl_gt(w)
    with pytest.raises(TooLarge):
        hl_def(FiniteWeight(7, [1] * 6))


def test_hl_def_branching_oracle():
    # independent classical-recursion fixture for small rank
    for n, a in [(2, [1]), (2, [2]), (2, [3]), (3, [1, 0]), (3, [1, 1]),
                 (3, [2, 1]), (3, [0, 2])]:
        w = FiniteWeight(n, a)
        br = hl_branching(w.parts, n).subs_monomials(
            {f"x{n}": Monomial.unit()})
        assert br == hl_gt(w), (n, a)


def test_schur_specialization():
    for n, a in [(2, [2]), (3, [1, 1]), (3, [2, 0]), (4, [1, 1, 0])]:
        w = FiniteWeight(n, a)
        assert subs_t(hl_gt(w), 0) == schur_bialternant(w), (n, a)


def test_orbit_specialization():
    for n, a in [(2, [2]), (3, [1, 1]), (3, [1, 0]), (4, [1, 0, 1])]:
        w = FiniteWeight(n, a)
        assert subs_t(hl_gt(w), 1) == orbit_sum(w), (n, a)


def test_wlambda():
    assert wlambda_poincare(FiniteWeight(2, [2])) == TPoly.one()
    assert wlambda_poincare(FiniteWeight(3, [1, 0])) == tp(1, 1)
    # all parts distinct: trivial stabilizer
    assert wlambda_poincare(FiniteWeight(3, [1, 1])) == TPoly.one()
    # lam = (2,2,2) would need a=0 entries: (0,0) invalid; use n=4 (2,2,0):
    assert wlambda_poincare(FiniteWeight(4, [0, 2, 0])) == tp(1, 1) * tp(1, 1)


def test_singular_division_is_exact():
    # the symmetrized sum must be divisible by W_lam(t) in Z[t]
    w = FiniteWeight(4, [0, 1, 0])
    p = hl_def(w)
    assert p == hl_gt(w)


def test_p_matches_face_weight():
    # bridge: p_of(A) equals the weight of the minimal face containing A
    for n, a in [(2, [2]), (3, [1, 1]), (3, [2, 0])]:
        w = FiniteWeight(n, a)
        G = triangle_graph(n)
        faces = enumerate_faces(G, BSeq(w.parts))
        by_edges = {f.edge_set(): f for f in faces}
        for pat in enumerate_gt(w):
            coords = {}
            for i, row in enumerate(pat):
                for k, val in enumerate(row):
                    coords[(i, k + 1)] = val
            es = frozenset((hi, lo) for hi, lo in G.edges
                           if coords[hi] == coords[lo])
            face = by_edges[es]
            assert face.phi() == p_of(pat), (n, a, pat)


def test_contribfin():
    r = verify_contribfin(FiniteWeight(2, [2]), trials=2, seed=1)
    assert r["ok"] and r["n_relevant"] == 2
    r = verify_contribfin(FiniteWeight(3, [1, 1]), trials=2, seed=2)
    assert r["ok"] and r["n_relevant"] == 6
    r = verify_contribfin(FiniteWeight(3, [1, 0]), trials=2, seed=3)
    assert r["ok"] and r["n_relevant"] == 3
    # n = 4, regular: one group element per orbit weight
    r = verify_contribfin(FiniteWeight(4, [1, 1, 1]), trials=1, seed=4)
    assert r["ok"] and r["n_relevant"] == r["orbit_size"] == 24
    # n = 4, singular: two group elements per orbit weight
    r = verify_contribfin(FiniteWeight(4, [1, 0, 1]), trials=1, seed=5)
    assert r["ok"] and r["n_relevant"] == r["orbit_size"] == 12


def test_verify_contribfin_draws_the_points_random_point_draws(
        completed_points):
    # seed 13 draws x1 = 1, where the root factor 1 - 1/x1 is 0 (and a cut
    # factor with it): the point is drawn again
    n, weight = 3, FiniteWeight(3, [1, 1])
    pin = {xvar(0): Monomial.unit(), xvar(n): Monomial.unit()}
    dens = [y.subs({xvar(n): Monomial.unit()})
            for _, y, _, _ in _root_factors(n)]
    dens += [m for _, cones in psi_terms(triangle_graph(n), BSeq(weight.parts))
             for ct in cones for m in ct.subs_monomials(pin).cut_monomials()]
    rng = random.Random(13)
    expect = [random_point([xvar(1), xvar(2)], rng, dens) for _ in range(3)]
    done, poles = completed_points(finite_hl)
    assert verify_contribfin(weight, trials=3, seed=13)["ok"]
    assert done == expect and len(poles) == 1


def test_verify_contribfin_redraws_where_a_root_factor_vanishes(
        completed_points, monkeypatch):
    # with the cone side blind to its poles, only the root check stands
    # between a draw where some 1 - y is 0 and a failure: seeds 13 and 17
    # each draw x2 = 1 once, and each fails without the check
    def blind(cones, point):
        try:
            return product_value(cones, point)
        except ring.Pole:
            return TPoly.zero()
    monkeypatch.setattr(finite_hl, "product_value", blind)
    for seed in (13, 17):
        done, poles = completed_points(finite_hl)
        assert verify_contribfin(FiniteWeight(3, [1, 1]), trials=3,
                                 seed=seed)["ok"]
        assert len(done) == 3 and len(poles) == 1
        p = poles[0]
        assert 1 in (p[xvar(1)], p[xvar(2)]) or p[xvar(1)] == p[xvar(2)]
