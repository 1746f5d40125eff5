import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, seed, settings, strategies as st

from hlbrion.ring import (
    RANDOM_POINT_TRIES, Coeff, DomainMismatch, LaurentPoly, MissingVariable,
    Monomial, NonInvertibleLeadingCoefficient, NotDivisible, Pole,
    PrecisionExceeded, SearchExhausted, TPoly, TruncatedSeries, UnitFactor,
    at_random_points, exact_div_binomials, mul_binomials, random_point,
)


def x(name, e=1):
    return LaurentPoly.var(name, e)


def mono(**exps):
    return Monomial(exps)


def test_tpoly_basics():
    p = TPoly.from_list([1, -1])          # 1 - t
    q = TPoly.from_list([1, 1])           # 1 + t
    assert p * q == TPoly.from_list([1, 0, -1])
    assert (p - p).is_zero()
    assert p ** 2 == TPoly.from_list([1, -2, 1])
    assert TPoly.from_list([1, 0, -1]).exact_div(p) == q
    with pytest.raises(NotDivisible):
        TPoly.from_list([1, 1, 1]).exact_div(p)


def test_poly_mul_difference_of_squares():
    one = LaurentPoly.one()
    assert (one + x("x")) * (one - x("x")) == one - x("x", 2)


def test_poly_add_identity():
    p = x("x") + x("y", -2) * TPoly.t()
    assert p + LaurentPoly.zero() == p


def test_poly_mul_with_t():
    one = LaurentPoly.one()
    tx = x("x") * TPoly.t()
    assert (one - tx) * (one + tx) == one - x("x", 2) * TPoly.t(2)


def test_exact_div_binomials_trivial():
    one = LaurentPoly.one()
    p = one - x("x", 2)
    assert exact_div_binomials(p, [mono(x=1)]) == one + x("x")
    pq = (one - x("x")) * (one - x("y"))
    assert exact_div_binomials(pq, [mono(x=1), mono(y=1)]) == one


def test_exact_div_binomials_multiply_back():
    one = LaurentPoly.one()
    p = (one - x("x", 3)) * (one - x("x", 2))
    q = exact_div_binomials(p, [mono(x=1)])
    assert q == (one + x("x") + x("x", 2)) * (one - x("x", 2))
    assert q * (one - x("x")) == p


def test_exact_div_binomials_not_divisible():
    with pytest.raises(NotDivisible):
        exact_div_binomials(LaurentPoly.one() + x("x"), [mono(x=1)])


def test_exact_div_negative_direction():
    # divisor monomial with negative exponents
    one = LaurentPoly.one()
    p = one - x("x", -2)
    q = exact_div_binomials(p, [mono(x=-1)])
    assert q * (one - x("x", -1)) == p


NAMES = ("x", "y", "z")
tpolys = st.lists(st.integers(-4, 4), min_size=1, max_size=3).map(TPoly.from_list)


@st.composite
def division_cases(draw):
    names = NAMES[:draw(st.integers(1, 3))]

    def monomial(bound):
        return Monomial({v: draw(st.integers(-bound, bound)) for v in names})

    p = LaurentPoly.zero()
    for _ in range(draw(st.integers(1, 5))):
        p = p + LaurentPoly.from_monomial(monomial(3), draw(tpolys))
    dens = []
    for _ in range(draw(st.integers(1, 2))):
        m = monomial(2)
        assume(not m.is_unit())
        dens.extend([m] * draw(st.integers(1, 3)))
    c = draw(tpolys.filter(lambda c: not c.is_zero()))
    return p, dens, LaurentPoly.from_monomial(monomial(3), c)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(division_cases())
def test_exact_div_random_roundtrip(case):
    p, dens, term = case
    prod = mul_binomials(p, dens)
    ref = p
    for m in dens:
        ref = ref - ref * m
    assert prod == ref
    assert exact_div_binomials(prod, dens) == p
    # division order among the factors is irrelevant
    assert exact_div_binomials(prod, list(reversed(dens))) == p
    # one more term leaves a chain with a nonzero sum
    with pytest.raises(NotDivisible):
        exact_div_binomials(mul_binomials(p, dens[:1]) + term, dens[:1])


def exact_div_binomial_reference(p, den):
    """Division by (1 - den) along den-chains, each chain base rebuilt as
    u * den^-k and each quotient run walked from base * den^k."""
    if den.is_unit():
        raise UnitFactor("binomial factor (1 - 1) is zero")
    v, e = den.e[0]
    chains = {}
    for u, c in p.terms.items():
        k = u.exp_of(v) // e
        chains.setdefault(u * den ** -k, []).append((k, c))
    quo = {}
    for base, run in chains.items():
        run.sort(key=lambda kc: kc[0])
        total = TPoly.zero()
        for (k, c), (k_next, _) in zip(run, run[1:]):
            total = total + c
            if not total.is_zero():
                m = base * den ** k
                for _ in range(k, k_next):
                    quo[m] = total
                    m = m * den
        if not (total + run[-1][1]).is_zero():
            raise NotDivisible(f"no exact quotient by (1 - {den})")
    return LaurentPoly(quo)


def test_exact_div_binomial_matches_reference():
    # 200 seeded products prod (1 - m) * p; each divisor has two or three
    # variables and a first exponent of -3, -2, 2 or 3
    rng = random.Random(2019)
    for trial in range(200):
        p = LaurentPoly.sum_terms(
            (Monomial({v: rng.randint(-3, 3) for v in NAMES}),
             TPoly.from_list([rng.randint(-4, 4) for _ in range(3)]))
            for _ in range(rng.randint(1, 6)))
        dens = []
        for _ in range(rng.randint(1, 3)):
            exps = {"x": rng.choice((-3, -2, 2, 3))}
            for v in rng.choice((("y",), ("z",), ("y", "z"))):
                exps[v] = rng.choice((-2, -1, 1, 2))
            dens.append(Monomial(exps))
        q = mul_binomials(p, dens)
        for den in reversed(dens):
            got = exact_div_binomials(q, [den])
            assert got == exact_div_binomial_reference(q, den), trial
            q = got
        assert q == p, trial
        # one more term leaves a chain with a nonzero sum
        term = LaurentPoly.from_monomial(
            Monomial({v: rng.randint(-3, 3) for v in NAMES}),
            TPoly.from_list([rng.randint(1, 4)]))
        perturbed = mul_binomials(p, dens[:1]) + term
        with pytest.raises(NotDivisible):
            exact_div_binomials(perturbed, dens[:1])
        with pytest.raises(NotDivisible):
            exact_div_binomial_reference(perturbed, dens[0])


def divide_by_reference(p, dens):
    for den in dens:
        p = exact_div_binomial_reference(p, den)
    return p


frac_tpolys = st.lists(st.fractions(-4, 4, max_denominator=6), min_size=1,
                       max_size=3).map(TPoly.from_list)


@st.composite
def shared_factor_cases(draw):
    # p with int or Fraction t-coefficients, and two to four factors, each
    # in two or three of x, y, z, so consecutive factors share variables
    coeffs = draw(st.sampled_from((tpolys, frac_tpolys)))

    def monomial(names, bound):
        return Monomial({v: draw(st.integers(-bound, bound)) for v in names})

    p = LaurentPoly.sum_terms(
        (monomial(NAMES, 3), draw(coeffs)) for _ in range(draw(st.integers(1, 6))))
    dens = []
    for _ in range(draw(st.integers(2, 4))):
        names = draw(st.sampled_from((("x", "y"), ("y", "z"), ("x", "z"), NAMES)))
        m = monomial(names, 2)
        assume(not m.is_unit())
        dens.append(m)
    return p, dens, LaurentPoly.from_monomial(
        monomial(NAMES, 3), draw(coeffs.filter(lambda c: not c.is_zero())))


# 200 examples from seed 2021: the dense division of several factors at once
# equals the per-factor reference, and both refuse the same perturbation
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@seed(2021)
@given(shared_factor_cases())
def test_exact_div_binomials_several_factors_property(case):
    p, dens, term = case
    prod = mul_binomials(p, dens)
    assert exact_div_binomials(prod, dens) == divide_by_reference(prod, dens) == p
    # a sub-list of the factors, taken in another order
    assert exact_div_binomials(prod, dens[::-1][:2]) == \
        divide_by_reference(prod, dens[::-1][:2])
    # (1 - d0) divides, (1 - d1) leaves the term's chain with a nonzero sum:
    # both refuse at d1
    perturbed = mul_binomials(mul_binomials(p, dens[1:]) + term, dens[:1])
    for divide in (exact_div_binomials, divide_by_reference):
        with pytest.raises(NotDivisible) as exc:
            divide(perturbed, dens)
        assert str(exc.value) == f"no exact quotient by (1 - {dens[1]})"


@st.composite
def laurent_polys(draw, names=("x", "y"), max_terms=4):
    p = LaurentPoly.zero()
    for _ in range(draw(st.integers(0, max_terms))):
        m = Monomial({v: draw(st.integers(-2, 2)) for v in names})
        p = p + LaurentPoly.from_monomial(m, draw(tpolys))
    return p


# ring laws of Z[t][x^+-1, y^+-1]: 300 examples from seed 2015
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@seed(2015)
@given(laurent_polys(), laurent_polys(), laurent_polys())
def test_ring_axioms_random(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c


def mul_reference(a, b):
    """Exponent dict of a product, added name by name in a dict."""
    out = dict(a)
    for v, x in b.items():
        out[v] = out.get(v, 0) + x
    return {v: x for v, x in out.items() if x}


def subs_reference(m, varmap):
    """Exponent dict of m with each variable replaced, one factor at a time."""
    out = {}
    for v, x in m.e:
        image = varmap[v].e if v in varmap else ((v, 1),)
        out = mul_reference(out, {u: y * x for u, y in image})
    return out


def subs_poly_reference(p, varmap):
    out = LaurentPoly.zero()
    for m, c in p.terms.items():
        out = out + LaurentPoly.from_monomial(Monomial(subs_reference(m, varmap)), c)
    return out


KERNEL_NAMES = ("x1", "x2", "x3", "x4", "x5", "x6")
monomials = st.dictionaries(st.sampled_from(KERNEL_NAMES), st.integers(-3, 3),
                            max_size=6).map(Monomial)


@st.composite
def substitutions(draw, names=NAMES):
    """A permutation of the names, some of them pinned to 1 or sent to a
    monomial in the names."""
    perm = draw(st.permutations(names))
    varmap = {v: Monomial.var(u) for v, u in zip(names, perm) if v != u}
    for v in names:
        kind = draw(st.sampled_from(("keep", "pin", "monomial")))
        if kind == "pin":
            varmap[v] = Monomial.unit()
        elif kind == "monomial":
            varmap[v] = Monomial({u: draw(st.integers(-2, 2)) for u in names})
    return varmap


# the merged product and the one-dict substitution against dict references:
# 300 examples from seed 2017
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@seed(2017)
@given(monomials, monomials, substitutions(KERNEL_NAMES[:3]))
def test_monomial_kernel_property(a, b, varmap):
    p = a * b
    ref = mul_reference(dict(a.e), dict(b.e))
    assert p == Monomial(ref) and hash(p) == hash(Monomial(ref))
    names = [v for v, _ in p.e]
    assert names == sorted(set(names))
    assert all(x for _, x in p.e)
    assert p.subs(varmap) == Monomial(subs_reference(p, varmap))


# a substitution of a Laurent polynomial, term by term: 300 examples from
# seed 2018
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@seed(2018)
@given(laurent_polys(NAMES), substitutions(), st.permutations(NAMES))
def test_subs_monomials_property(p, varmap, perm):
    assert p.subs_monomials(varmap) == subs_poly_reference(p, varmap)
    # the pin x_n -> 1 merges the terms that differ only in z
    pin = {"z": Monomial.unit()}
    assert p.subs_monomials(pin) == subs_poly_reference(p, pin)
    # p - s(p) for the swap s of x and y: folding x onto y sends each term
    # and its swapped partner to one monomial, where they cancel
    swap = {"x": Monomial.var("y"), "y": Monomial.var("x")}
    q = p - p.subs_monomials(swap)
    assert q == subs_poly_reference(p, {}) - subs_poly_reference(p, swap)
    assert q.subs_monomials({"x": Monomial.var("y")}).is_zero()
    # a permutation of the variables is a bijection on terms
    sigma = {v: Monomial.var(u) for v, u in zip(NAMES, perm)}
    assert len(p.subs_monomials(sigma).terms) == len(p.terms)


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def test_monomial_pickle_rehashes(tmp_path):
    # a monomial's cached hash is one of strings, which differs between
    # interpreters: pickle under one hash seed, load under another
    path = str(tmp_path / "m.pickle")
    setup = "import pickle, sys; from hlbrion.ring import Monomial; "
    dump = setup + ("pickle.dump(Monomial({'z1': 1, 'q': 2}), "
                    "open(sys.argv[1], 'wb'))")
    load = setup + ("m = pickle.load(open(sys.argv[1], 'rb')); "
                    "fresh = Monomial({'z1': 1, 'q': 2}); "
                    "print(hash(m) == hash(fresh), {fresh: 'hit'}.get(m))")
    outs = []
    for code, seed in ((dump, "1"), (load, "2")):
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=seed)
        proc = subprocess.run([sys.executable, "-c", code, path], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout.strip())
    assert outs[1] == "True hit"


def test_eval_at():
    p = x("x") + x("x", -1)
    assert p.eval_at({"x": Fraction(2)}) == TPoly({0: Fraction(5, 2)})
    q = LaurentPoly.one() - x("x") * TPoly.t()
    assert q.eval_at({"x": Fraction(1)}) == TPoly.from_list([1, -1])
    # hl polynomial for n=2, lambda_1=2 at x=1: x^2+(1-t)x+1 -> 3 - t
    hl = x("x", 2) + x("x") * TPoly.from_list([1, -1]) + LaurentPoly.one()
    assert hl.eval_at({"x": Fraction(1)}) == TPoly({0: Fraction(3), 1: Fraction(-1)})
    # integer and rational coefficients of equal value are one polynomial
    assert TPoly({0: 2}) == TPoly({0: Fraction(2)})
    assert hash(TPoly({0: 2})) == hash(TPoly({0: Fraction(2)}))


def test_eval_missing_variable():
    from hlbrion.ring import MissingVariable
    with pytest.raises(MissingVariable):
        (x("x") + x("y")).eval_at({"x": Fraction(1)})


def test_serialization_roundtrip_and_stability():
    rng = random.Random(11)
    for _ in range(15):
        p = LaurentPoly.zero()
        for _ in range(rng.randint(0, 5)):
            m = Monomial({v: rng.randint(-3, 3) for v in ("x1", "x2")})
            p = p + LaurentPoly.from_monomial(m, TPoly.from_list(
                [rng.randint(-5, 5) for _ in range(rng.randint(1, 4))]))
        blob = p.to_json()
        q = LaurentPoly.from_json(blob)
        assert q == p
        assert q.to_json() == blob


def test_tpoly_exact_div_rational():
    F = Fraction
    num = TPoly.from_list([F(1), F(2), F(1)])            # (1+t)^2
    assert num.exact_div(TPoly.from_list([1, 1])) == TPoly.from_list([F(1), F(1)])
    with pytest.raises(NotDivisible):
        TPoly.from_list([F(1), F(1), F(1)]).exact_div(TPoly.from_list([1, 1]))
    # the quotient is taken in Q[t]: halves appear where the integers stop
    half = TPoly.from_list([F(1, 2), F(1, 2)])
    assert (num * F(1, 2)).exact_div(TPoly.from_list([1, 1])) == half
    assert TPoly.from_list([1, 1]).exact_div(TPoly.const(2)) == half


@pytest.mark.parametrize("bits", [2, 5, 30, 64])
def test_tpoly_unpack_inverts_packing(bits):
    top = (1 << (bits - 1)) - 1         # the largest digit either sign
    for coeffs in ([0], [-1], [0, -1], [1, -1, 0, -1], [top], [-top],
                   [top, -top, top], [-top, 0, 0, top], [-top - 1, top]):
        p = TPoly.from_list(coeffs)
        packed = sum(v << bits * e for e, v in enumerate(coeffs))
        assert TPoly.unpack(packed, bits) == p, coeffs
    # a digit of 2^(bits-1) is out of range: it reads as -2^(bits-1) + t
    assert TPoly.unpack(top + 1, bits) == TPoly.from_list([-top - 1, 1])
    assert TPoly.unpack(0, bits).is_zero()


# --- truncated series ---------------------------------------------------------

def q_mono(order, e, c=1):
    return TruncatedSeries(order, {e: Coeff(LaurentPoly.const(c))})


def test_series_mul_basic():
    a = TruncatedSeries.one(2) + q_mono(2, 1)       # 1 + q
    b = TruncatedSeries.one(2) - q_mono(2, 1)       # 1 - q
    prod = a * b
    assert prod.equals(TruncatedSeries.one(2) - q_mono(2, 2))


def test_series_mul_identity():
    a = TruncatedSeries(3, {0: Coeff.one(), 2: Coeff(TPoly.t())})
    assert (a * TruncatedSeries.one(3)).equals(a)


def test_series_mul_telescoping():
    n = 4
    geo = TruncatedSeries(n, {m: Coeff.one() for m in range(n + 1)})
    one_minus_q = TruncatedSeries.one(n) - q_mono(n, 1)
    assert (geo * one_minus_q).equals(TruncatedSeries.one(n))


def test_series_domain_mismatch():
    a = TruncatedSeries.one(2)
    b = TruncatedSeries.one(2, zpoint={"z1": Fraction(2)})
    with pytest.raises(DomainMismatch):
        a * b


def test_truncate_above_the_order_exceeds_precision():
    with pytest.raises(PrecisionExceeded) as info:
        TruncatedSeries.one(2).truncate(3)
    assert not isinstance(info.value, DomainMismatch)


def test_coefficient_beyond_the_order_exceeds_precision():
    assert TruncatedSeries.one(2).coeff(2).is_zero()
    with pytest.raises(PrecisionExceeded) as info:
        TruncatedSeries.one(2).coeff(3)
    assert not isinstance(info.value, DomainMismatch)


def test_comparison_beyond_the_exact_order_exceeds_precision():
    a, b = TruncatedSeries.one(2), TruncatedSeries.one(3)
    assert a.equals(b, up_to=2)
    with pytest.raises(PrecisionExceeded) as info:
        a.equals(b, up_to=3)
    assert not isinstance(info.value, DomainMismatch)


def test_series_invert_geometric():
    n = 3
    s = TruncatedSeries.one(n) - q_mono(n, 1)
    inv = s.invert()
    assert inv.equals(TruncatedSeries(n, {m: Coeff.one() for m in range(n + 1)}))
    assert TruncatedSeries.one(2).invert().equals(TruncatedSeries.one(2))


def test_series_invert_t_geometric():
    n = 2
    s = TruncatedSeries(n, {0: Coeff.one(), 1: Coeff(-TPoly.t())})
    inv = s.invert()
    expect = TruncatedSeries(n, {0: Coeff.one(), 1: Coeff(TPoly.t()),
                                 2: Coeff(TPoly.t(2))})
    assert inv.equals(expect)


@st.composite
def z2_coeffs(draw):
    """Series coefficients of the n = 2 symbolic domain: fractions over
    Z[t][z1^+-1, z2^+-1], with a denominator (1 - m) or a t-polynomial
    sometimes."""
    num = draw(laurent_polys(("z1", "z2"), max_terms=2))
    den = draw(st.sampled_from(["one", "binomial", "tpoly"]))
    if den == "binomial":
        m = Monomial({"z1": draw(st.integers(-1, 1)),
                      "z2": draw(st.integers(-1, 1))})
        assume(not m.is_unit())
        return Coeff(num, LaurentPoly.one() - LaurentPoly.from_monomial(m))
    if den == "tpoly":
        return Coeff(num, draw(tpolys.filter(lambda c: not c.is_zero())))
    return Coeff(num)


def test_series_invert_roundtrip_random():
    rng = random.Random(5)
    for _ in range(10):
        n = 4
        coeffs = {0: Coeff(TPoly.const(rng.choice([1, -1, 2])))}
        for e in range(1, n + 1):
            if rng.random() < 0.7:
                coeffs[e] = Coeff(LaurentPoly.from_monomial(
                    Monomial({"z": rng.randint(-1, 1)}),
                    TPoly.from_list([rng.randint(-2, 2), rng.randint(-2, 2)])))
        s = TruncatedSeries(n, coeffs)
        if s.coeffs.get(0, Coeff.zero()).is_zero():
            continue
        prod = s * s.invert()
        assert prod.equals(TruncatedSeries.one(prod.order))


# s * s^-1 == 1 to the precision of the product, up to relative precision 4
# as in the seeded loop above: 300 examples from seed 2016
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@seed(2016)
@given(st.integers(-1, 1), st.integers(0, 4), z2_coeffs(),
       st.lists(z2_coeffs(), min_size=4, max_size=4))
def test_series_invert_roundtrip_property(d, length, lead, tail):
    # the leading coefficient is a nonzero fraction, so it is invertible
    assume(not lead.is_zero())
    coeffs = {d: lead}
    coeffs.update((d + 1 + i, c) for i, c in enumerate(tail[:length]))
    s = TruncatedSeries(d + length, coeffs)
    prod = s * s.invert()
    assert prod.order == s.order - d
    assert prod.equals(TruncatedSeries.one(prod.order))


def test_series_invert_negative_min_degree():
    # q^{-1}(1 - q): inverse must be q(1 + q + q^2 + ...)
    n = 4
    s = TruncatedSeries(n, {-1: Coeff.one(), 0: -Coeff.one()})
    inv = s.invert()
    assert inv.coeff(1) == Coeff.one()
    assert inv.coeff(2) == Coeff.one()
    assert (s * inv).equals(TruncatedSeries.one((s * inv).order))


def test_series_invert_zero_raises():
    with pytest.raises(NonInvertibleLeadingCoefficient):
        TruncatedSeries.zero(3).invert()


def test_unit_factor_detected():
    with pytest.raises(UnitFactor):
        exact_div_binomials(x("x"), [Monomial.unit()])


def test_coeff_fraction_field():
    z = LaurentPoly.var("z")
    a = Coeff(LaurentPoly.one(), LaurentPoly.one() - z)
    b = Coeff(LaurentPoly.one() - z)
    assert (a * b) == Coeff.one()
    assert (a - a).is_zero()
    assert a.inv() == b
    s = a + b
    # 1/(1-z) + (1-z) = (1 + (1-z)^2)/(1-z)
    expect = Coeff(LaurentPoly.one() + (LaurentPoly.one() - z) * (LaurentPoly.one() - z),
                   LaurentPoly.one() - z)
    assert s == expect


def test_random_point_avoids_poles():
    rng = random.Random(1)
    pt = random_point(["x"], rng, dens=[mono(x=1)])
    assert pt["x"] != 1


def test_random_point_without_a_pole_free_draw_raises_search_exhausted():
    # the unit monomial as a factor makes every draw a pole
    with pytest.raises(SearchExhausted) as exc:
        random_point(["x"], random.Random(1), dens=[mono(x=1), Monomial.unit()])
    assert isinstance(exc.value, RuntimeError)


def test_random_point_raises_on_a_factor_in_a_variable_it_does_not_draw():
    # a missing variable is a wrong factor list, not a pole: no redraw
    with pytest.raises(MissingVariable):
        random_point(["x"], random.Random(1), dens=[Monomial.var("y")])


def test_at_random_points_redraws_a_pole_until_its_tries_run_out():
    draws = []

    def always_a_pole(point):
        draws.append(point)
        raise Pole("every draw")
    with pytest.raises(SearchExhausted):
        at_random_points(["x", "y"], random.Random(2), 3, always_a_pole)
    assert len(draws) == RANDOM_POINT_TRIES


def test_at_random_points_lets_any_other_zero_division_through():
    draws = []

    def divides_by_zero(point):
        draws.append(point)
        return 1 / 0
    with pytest.raises(ZeroDivisionError) as exc:
        at_random_points(["x"], random.Random(2), 3, divides_by_zero)
    assert not isinstance(exc.value, Pole)
    assert len(draws) == 1


def test_at_random_points_stops_at_the_first_failing_point():
    # the check holds at the first point, raises Pole at the second draw
    # and fails at the third: the stream has made exactly those three draws
    draws = []

    def check(point):
        draws.append(point)
        if len(draws) == 2:
            raise Pole("a redraw")
        return len(draws) < 3
    rng = random.Random(3)
    assert not at_random_points(["x", "y"], rng, 5, check)
    replay = random.Random(3)
    assert draws == [random_point(["x", "y"], replay) for _ in range(3)]
    assert rng.random() == replay.random()
    assert at_random_points(["x"], random.Random(3), 4, lambda p: True)


@pytest.mark.parametrize("trials", [0, -2])
def test_at_random_points_refuses_to_check_no_point(trials):
    # no trial would make a check that never holds pass
    with pytest.raises(ValueError, match="trials"):
        at_random_points(["x"], random.Random(3), trials, lambda p: False)
