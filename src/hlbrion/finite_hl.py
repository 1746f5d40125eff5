"""Finite type A deformed characters by independent routes.

Three ways to the same Laurent polynomial: the sum over interlacing integer
triangles with their t-weights, the symmetrized ratio over the symmetric
group, and the vertex decomposition of the associated polytope.  Weights are
given by the fundamental-coordinate vector a = (a_1, ..., a_{n-1}); the
polynomial lives in x_1, ..., x_{n-1} (the last variable is pinned to 1).

The symmetrized ratio is computed without its n! terms: the Weyl
symmetrizer of g / prod_{alpha>0} (1 - e^{-alpha}) is the Demazure operator
pi_{w0} of g, a product of n(n-1)/2 isobaric divided differences (Demazure
1974; Macdonald, Symmetric Functions and Hall Polynomials, ch. III).  On a
monomial each is a finite geometric sum, so the steps rewrite exponent
vectors term by term and divide nothing.  The per-element Weyl terms stay
for the vertex-contribution check, which compares them orbit weight by orbit
weight.
"""

from __future__ import annotations

import itertools
import random as _random
from collections import Counter

from .graphs import (
    BSeq, product_value, psi_terms, t_factorials, triangle_graph, xvar,
)
from .ring import (
    LaurentPoly, Monomial, NotDivisible, Pole, TPoly, T_ONE,
    at_random_points, exact_div_binomials,
)


class TooLarge(ValueError):
    pass


GT_MAX_N = 6            # largest n enumerate_gt accepts
HL_DEF_MAX_N = 6        # largest n hl_def accepts
CONTRIBFIN_MAX_N = 4    # largest n verify_contribfin accepts


class FiniteWeight:
    """Dominant integral weight of the special linear algebra of rank n-1."""

    def __init__(self, n, a):
        self.n = n
        self.a = tuple(a)
        if not all(type(x) is int for x in (n, *self.a)):
            raise ValueError("n and the coordinates must be integers")
        if self.n < 2 or len(self.a) != self.n - 1:
            raise ValueError("need n >= 2 and n-1 fundamental coordinates")
        if any(x < 0 for x in self.a) or not any(self.a):
            raise ValueError("coordinates must be nonnegative and not all zero")
        self.lam = tuple(sum(self.a[i:]) for i in range(self.n - 1))
        self.parts = self.lam + (0,)

    def is_regular(self):
        return all(x > 0 for x in self.a)

    def type_multiplicities(self):
        """Run lengths of the distinct values of (lam_1, ..., lam_{n-1}, 0)."""
        return [len(list(g)) for _, g in itertools.groupby(self.parts)]

    def __repr__(self):
        return f"FiniteWeight(n={self.n}, a={self.a})"


def enumerate_gt(weight):
    """All interlacing triangles with the given top row."""
    if weight.n > GT_MAX_N:
        raise TooLarge(f"n={weight.n} exceeds the guard {GT_MAX_N}")
    rows = [weight.parts]
    patterns = []

    def extend(partial):
        prev = partial[-1]
        if len(prev) == 1:
            patterns.append(tuple(partial))
            return
        choices = []
        for j in range(len(prev) - 1):
            choices.append(range(prev[j + 1], prev[j] + 1))
        for row in itertools.product(*choices):
            if all(row[j] >= row[j + 1] for j in range(len(row) - 1)):
                extend(partial + [tuple(row)])

    extend([weight.parts])
    return patterns


def mu_exponent(pattern):
    """Weight monomial of a pattern: the x_i exponent is the difference of
    the row sums above and at row i (boundary variables pinned to 1)."""
    sums = tuple(map(sum, pattern))
    return Monomial({xvar(i): sums[i - 1] - sums[i] for i in range(1, len(sums))})


def pattern_ls(pattern):
    """The sorted l's of p_of: one per value occurring l times in a row and
    l-1 times in the row above.

    Rows are weakly decreasing and interlace, above[j] >= here[j] >=
    above[j+1], so a value's l entries in a row are one run, at columns
    j0..j0 + l - 1, and the row above holds it at j0 + 1..j0 + l - 1, at j0
    iff above[j0] equals it, at j0 + l iff above[j0 + l] does, and nowhere
    else.
    """
    ls = []
    for above, here in zip(pattern, pattern[1:]):
        j, width = 0, len(here)
        while j < width:
            value, l = here[j], 1
            while j + l < width and here[j + l] == value:
                l += 1
            if above[j] != value and above[j + l] != value:
                ls.append(l)
            j += l
    ls.sort()
    return tuple(ls)


def _ls_weight(ls):
    """prod (1 - t^l) over the l's."""
    out = T_ONE
    for l in ls:
        out = out * (T_ONE - TPoly.t(l))
    return out


def p_of(pattern):
    """prod (1 - t^l)^{d_l}: d_l counts values occurring l times in a row and
    l-1 times in the row above."""
    return _ls_weight(pattern_ls(pattern))


def hl_gt(weight):
    """The combinatorial route: sum of p_A e^{mu_A} over patterns.

    Patterns are counted per tuple of row sums, which fixes the weight
    monomial, and statistic `pattern_ls`; each distinct p = prod (1 - t^l)
    is built once per call, each row-sum tuple sums count * p as integer
    coefficients, and its monomial and t-polynomial are built once.
    """
    counts = {}
    for a in enumerate_gt(weight):
        key = (tuple(map(sum, a)), pattern_ls(a))
        counts[key] = counts.get(key, 0) + 1
    weights = {ls: _ls_weight(ls).c for ls in {ls for _, ls in counts}}
    coeffs = {}
    for (sums, ls), c in counts.items():
        acc = coeffs.setdefault(sums, {})
        for e, v in weights[ls].items():
            acc[e] = acc.get(e, 0) + c * v
    # x_i has exponent sums[i-1] - sums[i]; the names sort as their indices
    names = [xvar(i) for i in range(1, weight.n)]
    return LaurentPoly({Monomial(tuple((v, s - s1) for v, s, s1
                                       in zip(names, sums, sums[1:]) if s != s1)):
                        TPoly(acc) for sums, acc in coeffs.items()})


def wlambda_poincare(weight):
    """Poincare series of the stabilizer: product of t-factorials of the
    part multiplicities."""
    return t_factorials(weight.type_multiplicities())


def _root_factors(n):
    """One entry per root i < j, with y = x_i^{-1} x_j: the pair (i, j), y,
    and the polynomials (1 - t y) and (t - y)."""
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            y = Monomial({xvar(i + 1): -1, xvar(j + 1): 1})
            out.append(((i, j), y,
                        LaurentPoly.one() - LaurentPoly.from_monomial(y, TPoly.t()),
                        LaurentPoly.const(TPoly.t()) - LaurentPoly.from_monomial(y)))
    return out


def _orbit_monomial(weight, w):
    """e^{w lam} for the permutation w, a tuple of images."""
    n = weight.n
    return Monomial({xvar(w[i] + 1): weight.parts[i]
                     for i in range(n) if weight.parts[i]})


def _weyl_term(weight, w, factors):
    """Numerator of the term of w over the common denominator: e^{w lam}
    times (t - y) over the roots w flips and (1 - t y) over the others."""
    inv = [0] * weight.n
    for pos, val in enumerate(w):
        inv[val] = pos
    term = LaurentPoly.from_monomial(_orbit_monomial(weight, w))
    for (i, j), _, one_minus_ty, t_minus_y in factors:
        term = term * (t_minus_y if inv[i] > inv[j] else one_minus_ty)
    return term


def _pi_step(g, i, width):
    """pi_i, by its closed form, on the packed dict g of `hl_def`."""
    lo, mask = width * (i - 1), (1 << width) - 1
    delta = (1 << (lo + width)) - (1 << lo)    # x_i^{-1} x_{i+1}
    out = {}
    get = out.get
    for b, c in g.items():
        d = (b >> lo & mask) - (b >> lo + width & mask)
        end = b + (d + 1) * delta
        if d < 0:
            b, end, c = end, b, -c
        for key in range(b, end, delta):
            out[key] = get(key, 0) + c
    return {b: c for b, c in out.items() if c}


def hl_def(weight):
    """The symmetrization route, by Demazure operators.

    The Weyl symmetrization sum_w w(g / prod_{i<j} (1 - x_i^{-1} x_j)) of
    g = e^lam prod_{i<j} (1 - t x_i^{-1} x_j) equals pi_{w0}(g), with
    pi_i g = (g - y_i s_i g) / (1 - y_i), y_i = x_i^{-1} x_{i+1} and s_i
    swapping x_i and x_{i+1} (Demazure 1974; Macdonald, Symmetric Functions
    and Hall Polynomials, ch. III).  pi_i is linear, and s_i x^b = x^b y_i^d
    with d = b_i - b_{i+1}, so pi_i x^b = x^b (1 - y_i^{d+1}) / (1 - y_i):
    x^b (1 + y_i + ... + y_i^d) for d >= 0, zero for d = -1 and
    -x^b (y_i^{d+1} + ... + y_i^{-1}) for d <= -2.  g is rewritten term by
    term along the reduced word s_1; s_2 s_1; s_3 s_2 s_1; ... of w0, r =
    n(n-1)/2 steps, then divided by W_lam(t) with x_n pinned.

    g maps one int to one int: the key packs b - lam_n + n - 1 into n
    fields of `width` bits, b_1 lowest, and the value is the t-polynomial at
    t = 2^bits.  Keys stay in the hull of the W-orbit of those of the root
    product, whose entries lie in [lam_n - n + 1, lam_1 + n - 1], so no field
    leaves [0, dmax], dmax = lam_1 - lam_n + 2(n-1), or carries.  The root
    product has l1 norm at most 2^r and each step multiplies it by at most
    dmax + 1, so the quotient's coefficients are at most 2^r (dmax + 1)^r
    C_W, C_W = max |coefficient of 1/W_lam(t)| up to t^r; bits, two wider,
    makes each a signed digit.  A remainder of the division by W_lam(2^bits)
    raises NotDivisible.
    """
    n = weight.n
    if n > HL_DEF_MAX_N:
        raise TooLarge(f"n={n} exceeds the guard {HL_DEF_MAX_N}")
    r, off = n * (n - 1) // 2, weight.parts[-1] - n + 1
    dmax = weight.parts[0] - off + n - 1
    width, mask = dmax.bit_length(), (1 << dmax.bit_length()) - 1
    wl = wlambda_poincare(weight)
    inv = [1]       # 1/W_lam(t) up to t^r; W_lam(0) = 1
    for k in range(1, r + 1):
        inv.append(-sum(wl.c.get(j, 0) * inv[k - j] for j in range(1, k + 1)))
    bits = (2 ** r * (dmax + 1) ** r * max(map(abs, inv))).bit_length() + 2
    g = {sum((p - off) << width * k for k, p in enumerate(weight.parts)): 1}
    for i, j in itertools.combinations(range(n), 2):
        # g * (1 - t x_i^{-1} x_j); nothing cancels, as t^k carries (-1)^k
        step = (1 << width * j) - (1 << width * i)
        for b, c in list(g.items()):
            g[b + step] = g.get(b + step, 0) - (c << bits)
    for k in range(1, n):
        for i in range(k, 0, -1):
            g = _pi_step(g, i, width)
    wv = sum(v << bits * e for e, v in wl.c.items())
    quo = {b: divmod(c, wv) for b, c in g.items()}
    if any(rem for _, rem in quo.values()):
        raise NotDivisible(f"a coefficient is not divisible by {wl}")
    names = [xvar(i) for i in range(1, n)]     # n <= 6: sorted as indices
    return LaurentPoly({Monomial(tuple((v, x) for k, v in enumerate(names)
                                       if (x := (b >> width * k & mask) + off))):
                        TPoly.unpack(q, bits) for b, (q, _) in quo.items()})


def schur_bialternant(weight):
    """Independent t=0 oracle: ratio of alternants, with x_n set to 1.

    det(x_i^{n-j}) = prod_{i<j} (x_i - x_j)
    = (-1)^{n(n-1)/2} prod_j x_j^{j-1} prod_{i<j} (1 - x_i x_j^{-1}),
    so the alternant is shifted by prod_j x_j^{1-j}, signed and pinned in
    one pass (the sign (-1)^{n(n-1)/2} sgn(w) is -1 to the number of pairs
    w keeps in order) and then divided by the pinned binomials; the quotient
    is unique, so pinning before the division gives the pinned ratio.
    """
    n = weight.n
    mus = [weight.parts[j] + n - 1 - j for j in range(n)]
    pairs = list(itertools.combinations(range(n), 2))
    names = [xvar(i + 1) for i in range(n - 1)]   # sorted as indices, n <= 10
    num = LaurentPoly.sum_terms(
        (Monomial(tuple((v, mus[w[i]] - i) for i, v in enumerate(names)
                        if mus[w[i]] != i)),
         TPoly.const((-1) ** sum(w[i] < w[j] for i, j in pairs)))
        for w in itertools.permutations(range(n)))
    dens = [Monomial({xvar(i + 1): 1, xvar(j + 1): -1} if j < n - 1
                     else {xvar(i + 1): 1})
            for i in range(n) for j in range(i + 1, n)]
    return exact_div_binomials(num, dens)


def orbit_sum(weight):
    """Sum of e^mu over the distinct permutations of the parts, x_n = 1."""
    return LaurentPoly.sum_terms(
        (Monomial({xvar(i + 1): perm[i] for i in range(weight.n - 1) if perm[i]}),
         T_ONE)
        for perm in set(itertools.permutations(weight.parts)))


def subs_t(p, value):
    """Specialize the deformation parameter to an integer."""
    return LaurentPoly({m: TPoly.const(sum(coeff * value ** e
                                           for e, coeff in c.c.items()))
                        for m, c in p.terms.items()})


def hl_branching(parts, nvars, _memo=None):
    """Classical branching-rule oracle for the deformed symmetric function.

    Recursion over horizontal strips: P_lam(x_1..x_m) = sum over mu of
    psi_{lam/mu} P_mu(x_1..x_{m-1}) x_m^{|lam|-|mu|}, with
    psi = prod (1 - t^{m_j(mu)}) over part sizes j whose multiplicity grows
    by one from lam to mu.  Positive parts only; meant as a test fixture for
    small rank.
    """
    if _memo is None:
        _memo = {}
    parts = tuple(sorted((p for p in parts if p > 0), reverse=True))
    key = (parts, nvars)
    if key in _memo:
        return _memo[key]
    if len(parts) > nvars:
        _memo[key] = LaurentPoly.zero()
        return _memo[key]
    if nvars == 0:
        return LaurentPoly.one()
    total = LaurentPoly.zero()
    for mu in _horizontal_strips(parts):
        mult_mu = Counter(p for p in mu if p > 0)
        mult_lam = Counter(parts)
        psi = T_ONE
        for j, m in mult_mu.items():
            if mult_lam.get(j, 0) == m - 1:
                psi = psi * (T_ONE - TPoly.t(m))
        sub = hl_branching(mu, nvars - 1, _memo)
        deg = sum(parts) - sum(mu)
        term = sub * psi
        if deg:
            term = term * Monomial.var(xvar(nvars), deg)
        total = total + term
    _memo[key] = total
    return _memo[key]


def _horizontal_strips(parts):
    """All partitions interlacing the given one from below."""
    if not parts:
        yield ()
        return
    bounds = []
    for j in range(len(parts)):
        lo = parts[j + 1] if j + 1 < len(parts) else 0
        bounds.append(range(lo, parts[j] + 1))
    for mu in itertools.product(*bounds):
        if all(mu[j] >= mu[j + 1] for j in range(len(mu) - 1)):
            yield tuple(p for p in mu if p > 0)


# ---------------------------------------------------------------------------
# the vertex-contribution theorem
# ---------------------------------------------------------------------------

def face_is_relevant(face):
    """No component gains vertices from one row to the next one down."""
    for blk in face.blocks:
        counts = Counter(i for i, _ in blk)
        top = min(counts)
        for i in counts:
            if i > top and counts[i] > counts.get(i - 1, 0):
                return False
    return True


def vertex_monomial(face, b, n):
    """x-monomial of the specialized vertex exponential, boundaries pinned."""
    coords = face.vertex_coordinates(BSeq(b))
    exps = {}
    for i in range(1, n):
        d = sum(v for (r, _), v in coords.items() if r == i - 1) - \
            sum(v for (r, _), v in coords.items() if r == i)
        if d:
            exps[xvar(i)] = d
    return Monomial(exps)


def verify_contribfin(weight, trials=3, seed=0):
    """Check the classification and values of the polytope vertex
    contributions against the per-orbit-element symmetrization sums.

    Returns a report dict; report["ok"] is the verdict.
    """
    if weight.n > CONTRIBFIN_MAX_N:
        raise TooLarge(f"n={weight.n} exceeds the guard {CONTRIBFIN_MAX_N}")
    rng = _random.Random(seed)
    n = weight.n
    G = triangle_graph(n)
    b = BSeq(weight.parts)
    pin = {xvar(0): Monomial.unit(), xvar(n): Monomial.unit()}
    contribs = [(face, tuple(ct.subs_monomials(pin) for ct in cones))
                for face, cones in psi_terms(G, b)]
    relevant = [face_is_relevant(f) for f, _ in contribs]
    orbit = set(itertools.permutations(weight.parts))
    report = {
        "n_vertices": len(contribs),
        "n_relevant": sum(relevant),
        "orbit_size": len(orbit),
        "ok": True,
        "failures": [],
    }
    if report["n_relevant"] != len(orbit):
        report["ok"] = False
        report["failures"].append("relevant vertex count != orbit size")
    by_mu = {}      # orbit weight -> indices of its relevant vertices
    for k, (f, _) in enumerate(contribs):
        if relevant[k]:
            by_mu.setdefault(vertex_monomial(f, weight.parts, n), []).append(k)
    if any(len(v) != 1 for v in by_mu.values()):
        report["ok"] = False
        report["failures"].append("orbit weight hit by several relevant vertices")
    # the Weyl side, grouped by orbit weight once: the pinned numerators of
    # the group elements that send lam to each weight
    pin_n = {xvar(n): Monomial.unit()}
    factors = _root_factors(n)
    weyl_by_mu = {}
    for w in itertools.permutations(range(n)):
        mu = _orbit_monomial(weight, w).subs(pin_n)
        term = _weyl_term(weight, w, factors).subs_monomials(pin_n)
        weyl_by_mu[mu] = weyl_by_mu.get(mu, LaurentPoly.zero()) + term
    roots = [y.subs(pin_n) for _, y, _, _ in factors]
    wl = wlambda_poincare(weight)

    def holds(point):
        den_val = T_ONE
        for y in roots:
            val = y.eval(point)
            if val == 1:
                raise Pole(f"root factor (1 - {y}) vanishes at point")
            den_val = den_val * (1 - val)
        values = [product_value(cones, point) for _, cones in contribs]
        # (a) irrelevant vertices contribute zero
        for (f, _), rel, val in zip(contribs, relevant, values):
            if not rel and not val.is_zero():
                report["ok"] = False
                report["failures"].append(f"nonzero irrelevant vertex {f}")
        # (b) each relevant vertex matches its orbit-element sum, up to the
        # stabilizer factor (the orbit-grouped sum overcounts by W_lam(t))
        for mu, ks in by_mu.items():
            lhs = values[ks[0]] * den_val * wl
            rhs = weyl_by_mu.get(mu, LaurentPoly.zero()).eval_at(point)
            if lhs != rhs:
                report["ok"] = False
                report["failures"].append(f"orbit weight {mu} mismatch")
        return report["ok"]

    at_random_points([xvar(i) for i in range(1, n)], rng, trials, holds)
    return report
