"""Exact arithmetic kernel: t-polynomials, sparse Laurent polynomials,
factored rational functions and truncated q-series.

Everything is exact.  Coefficients of Laurent polynomials are integer
polynomials in the deformation parameter t (`TPoly`); evaluation at rational
points keeps t symbolic and gives a `TPoly` with rational coefficients.
Rational functions are stored with their denominators in factored binomial
form (1 - m) and are never expanded unless an exact division is requested.
Truncated series live in the ring of Laurent series in q with finitely many
negative powers.  Their coefficients (`Coeff`) are fractions of Laurent
polynomials, either symbolic in the z-variables or with the z-variables
already evaluated at rationals.  A `Coeff` has no normal form: numerator and
denominator are kept as the arithmetic made them, two of them are equal when
their cross products are, and none is hashed or printed symbolically.
"""

from __future__ import annotations

import json
from fractions import Fraction


class NotDivisible(ArithmeticError):
    """Requested exact division has no polynomial result."""


class MissingVariable(KeyError):
    """Evaluation point does not assign every variable."""


class DomainMismatch(ValueError):
    """Series operands have different z-points, or a domain names the other
    kind of z-point."""


class PrecisionExceeded(ArithmeticError):
    """A truncated series is asked for more precision than its order holds."""


class NonInvertibleLeadingCoefficient(ArithmeticError):
    """Series has no inverse because its lowest coefficient has none."""


class UnitFactor(ValueError):
    """A binomial factor (1 - y) degenerated to zero: y mapped to 1."""


class CollapseError(ValueError):
    """A monomial specialization sent a denominator factor to 1."""


class Pole(ZeroDivisionError):
    """A denominator factor (1 - m) vanishes at an evaluation point."""


class SearchExhausted(RuntimeError):
    """A seeded search for a generic choice (a pole-free point, generic
    heights or a generic point of a cone) ran out of tries."""


class InvariantError(ArithmeticError):
    """A mathematical invariant the computation relies on does not hold.

    Raised in place of `assert`, which `python -O` removes; it signals a
    defect in the program, never bad input.
    """


# ---------------------------------------------------------------------------
# t-polynomials
# ---------------------------------------------------------------------------

class TPoly:
    """Polynomial in t with int or Fraction coefficients, stored sparsely.

    Integer coefficients are the coefficient ring of Laurent polynomials;
    rational ones are the values of exact evaluation at rational points, where
    the x-variables become rationals and t stays symbolic.  Immutable by
    convention: no method mutates self.  Zero coefficients are never stored,
    so equal polynomials have equal dicts (2 and Fraction(2) compare and hash
    alike).
    """

    __slots__ = ("c",)

    def __init__(self, coeffs=None):
        if coeffs is None:
            self.c = {}
        else:
            self.c = {e: v for e, v in coeffs.items() if v != 0}

    @staticmethod
    def const(v):
        return TPoly({0: v})

    @staticmethod
    def zero():
        return TPoly()

    @staticmethod
    def one():
        return TPoly({0: 1})

    @staticmethod
    def t(power=1):
        return TPoly({power: 1})

    @staticmethod
    def from_list(coeffs):
        """Build from [c0, c1, ...] meaning c0 + c1*t + ..."""
        return TPoly({e: v for e, v in enumerate(coeffs)})

    @staticmethod
    def unpack(num, bits):
        """The integer polynomial whose value at t = 2^bits is num, with
        coefficients in [-2^(bits-1), 2^(bits-1)): its signed base-2^bits
        digits, which undo a packing (Kronecker substitution)."""
        mask, half = (1 << bits) - 1, 1 << (bits - 1)
        r, e = TPoly(), 0
        while num:
            c = ((num + half) & mask) - half
            if c:
                r.c[e] = c
            num, e = (num - c) >> bits, e + 1
        return r

    def to_list(self):
        if not self.c:
            return [0]
        d = max(self.c)
        return [self.c.get(e, 0) for e in range(d + 1)]

    def is_zero(self):
        return not self.c

    def is_one(self):
        return self.c == {0: 1}

    def degree(self):
        return max(self.c) if self.c else -1

    def __add__(self, other):
        out = dict(self.c)
        for e, v in other.c.items():
            w = out.get(e, 0) + v
            if w:
                out[e] = w
            else:
                out.pop(e, None)
        r = TPoly.__new__(TPoly)
        r.c = out
        return r

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        r = TPoly.__new__(TPoly)
        r.c = {e: -v for e, v in self.c.items()}
        return r

    def __mul__(self, other):
        if not isinstance(other, TPoly):
            # an int or Fraction scalar (Fraction's ABC check is slow on the
            # hot polynomial path, so test for TPoly first)
            if other == 0:
                return TPoly()
            r = TPoly.__new__(TPoly)
            r.c = {e: v * other for e, v in self.c.items()}
            return r
        out = {}
        for e1, v1 in self.c.items():
            for e2, v2 in other.c.items():
                e = e1 + e2
                w = out.get(e, 0) + v1 * v2
                if w:
                    out[e] = w
                else:
                    del out[e]
        r = TPoly.__new__(TPoly)
        r.c = out
        return r

    __rmul__ = __mul__

    def __pow__(self, k):
        result = TPoly.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other):
        return isinstance(other, TPoly) and self.c == other.c

    def __hash__(self):
        return hash(frozenset(self.c.items()))

    def exact_div(self, other):
        """Exact division in Q[t]; raises NotDivisible on a nonzero remainder.

        Quotient coefficients stay integers where the division is exact in
        the integers, so a monic divisor keeps an integer polynomial integral.
        """
        if other.is_zero():
            raise ZeroDivisionError("division of TPoly by zero")
        rem = dict(self.c)
        quo = {}
        dlead = max(other.c)
        clead = other.c[dlead]
        while rem:
            e = max(rem)
            if e < dlead:
                raise NotDivisible(f"{self} not divisible by {other}")
            q, r = divmod(rem[e], clead)
            if r:
                q = Fraction(rem[e], clead)
            quo[e - dlead] = q
            for eo, vo in other.c.items():
                ee = eo + e - dlead
                w = rem.get(ee, 0) - q * vo
                if w:
                    rem[ee] = w
                else:
                    rem.pop(ee, None)
        return TPoly(quo)

    def eval(self, tval):
        """Evaluate at a rational t-value."""
        return sum((Fraction(v) * Fraction(tval) ** e for e, v in self.c.items()),
                   Fraction(0))

    def __str__(self):
        if not self.c:
            return "(0)"
        parts = []
        for e in sorted(self.c):
            v = self.c[e]
            if e == 0:
                parts.append(f"{v}")
            elif e == 1:
                parts.append(f"{v}*t" if v != 1 else "t")
            else:
                parts.append(f"{v}*t^{e}" if v != 1 else f"t^{e}")
        return "(" + " + ".join(parts).replace("+ -", "- ") + ")"

    __repr__ = __str__


T_ZERO = TPoly.zero()
T_ONE = TPoly.one()


# ---------------------------------------------------------------------------
# Monomials and Laurent polynomials
# ---------------------------------------------------------------------------

class Monomial:
    """Laurent monomial: map from variable name to nonzero integer exponent.

    Stored as a sorted tuple of (var, exp) pairs; the empty tuple is the unit.
    """

    __slots__ = ("e", "_hash")

    def __init__(self, exps=None):
        if exps is None:
            self.e = ()
        elif isinstance(exps, tuple):
            self.e = exps
        else:
            self.e = tuple(sorted((v, x) for v, x in exps.items() if x != 0))
        self._hash = hash(self.e)

    @staticmethod
    def unit():
        return _M_UNIT

    @staticmethod
    def var(name, exp=1):
        if exp == 0:
            return _M_UNIT
        return Monomial(((name, exp),))

    def is_unit(self):
        return not self.e

    def exps(self):
        return dict(self.e)

    def exp_of(self, name):
        for v, x in self.e:
            if v == name:
                return x
        return 0

    def __mul__(self, other):
        # merge the two sorted exponent tuples; equal names add, and a zero
        # sum drops out, so the result is sorted without a dict or a sort
        a = self.e
        b = other.e
        if not a:
            return other
        if not b:
            return self
        out = []
        i = j = 0
        na, nb = len(a), len(b)
        while i < na and j < nb:
            va = a[i][0]
            vb = b[j][0]
            if va < vb:
                out.append(a[i])
                i += 1
            elif vb < va:
                out.append(b[j])
                j += 1
            else:
                x = a[i][1] + b[j][1]
                if x:
                    out.append((va, x))
                i += 1
                j += 1
        r = Monomial.__new__(Monomial)
        r.e = e = tuple(out) + a[i:] + b[j:]
        r._hash = hash(e)
        return r

    def __pow__(self, k):
        if k == 0 or not self.e:
            return _M_UNIT
        return Monomial(tuple((v, x * k) for v, x in self.e))

    def inv(self):
        return Monomial(tuple((v, -x) for v, x in self.e))

    def degree(self):
        return sum(x for _, x in self.e)

    def eval(self, point):
        """Evaluate at {var: Fraction}; raises MissingVariable."""
        return Fraction(*self.ratio(point))

    def ratio(self, point):
        """Value at {var: int or Fraction} as integers (p, q), q != 0: the
        value is p/q, not reduced.  Raises MissingVariable, and
        ZeroDivisionError where a negative exponent meets a zero value."""
        p = q = 1
        for v, x in self.e:
            if v not in point:
                raise MissingVariable(v)
            r = point[v]
            if x > 0:
                p *= r.numerator ** x
                q *= r.denominator ** x
            else:
                p *= r.denominator ** -x
                q *= r.numerator ** -x
        if not q:
            raise ZeroDivisionError(f"{self} has a pole at the point")
        return p, q

    def subs(self, varmap):
        """Substitute variables by monomials: var -> Monomial."""
        out = {}
        for v, x in self.e:
            m = varmap.get(v)
            if m is None:
                out[v] = out.get(v, 0) + x
            else:
                for u, y in m.e:
                    out[u] = out.get(u, 0) + x * y
        return Monomial(out)

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.e == other.e

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # rebuild from the exponents: the cached hash is one of variable-name
        # strings, which differs between interpreters (PYTHONHASHSEED)
        return Monomial, (self.e,)

    def sort_key(self):
        # graded lexicographic on sorted variable names
        return (self.degree(), self.e)

    def __str__(self):
        if not self.e:
            return "1"
        return "*".join(f"{v}^{x}" if x != 1 else v for v, x in self.e)

    __repr__ = __str__


_M_UNIT = Monomial()


class LaurentPoly:
    """Sparse multivariate Laurent polynomial with TPoly coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        if terms is None:
            self.terms = {}
        else:
            self.terms = {m: c for m, c in terms.items() if not c.is_zero()}

    @staticmethod
    def zero():
        return LaurentPoly()

    @staticmethod
    def const(c):
        if isinstance(c, int):
            c = TPoly.const(c)
        return LaurentPoly({_M_UNIT: c})

    @staticmethod
    def one():
        return LaurentPoly.const(1)

    @staticmethod
    def from_monomial(m, coeff=None):
        return LaurentPoly({m: coeff if coeff is not None else T_ONE})

    @staticmethod
    def var(name, exp=1):
        return LaurentPoly.from_monomial(Monomial.var(name, exp))

    @staticmethod
    def sum_terms(pairs):
        """Sum of c * m over the (m, c) pairs, accumulated in one dict:
        linear in the number of pairs, where a chain of `+` copies the
        partial sum once per term."""
        out = {}
        for m, c in pairs:
            w = out.get(m)
            out[m] = c if w is None else w + c
        return LaurentPoly(out)

    def is_zero(self):
        return not self.terms

    def is_one(self):
        return len(self.terms) == 1 and self.terms.get(_M_UNIT, T_ZERO).is_one()

    def __add__(self, other):
        out = dict(self.terms)
        for m, c in other.terms.items():
            w = out.get(m)
            if w is None:
                out[m] = c
            else:
                w = w + c
                if w.is_zero():
                    del out[m]
                else:
                    out[m] = w
        r = LaurentPoly.__new__(LaurentPoly)
        r.terms = out
        return r

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        r = LaurentPoly.__new__(LaurentPoly)
        r.terms = {m: -c for m, c in self.terms.items()}
        return r

    def __mul__(self, other):
        if isinstance(other, TPoly):
            if other.is_zero():
                return LaurentPoly()
            r = LaurentPoly.__new__(LaurentPoly)
            r.terms = {m: c * other for m, c in self.terms.items()}
            return r
        if isinstance(other, int):
            return self * TPoly.const(other)
        if isinstance(other, Monomial):
            r = LaurentPoly.__new__(LaurentPoly)
            r.terms = {m * other: c for m, c in self.terms.items()}
            return r
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = m1 * m2
                c = c1 * c2
                w = out.get(m)
                if w is None:
                    if not c.is_zero():
                        out[m] = c
                else:
                    w = w + c
                    if w.is_zero():
                        del out[m]
                    else:
                        out[m] = w
        r = LaurentPoly.__new__(LaurentPoly)
        r.terms = out
        return r

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, LaurentPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset((m, frozenset(c.c.items())) for m, c in self.terms.items()))

    def coeff(self, m):
        return self.terms.get(m, T_ZERO)

    def subs_monomials(self, varmap):
        """Apply a monomial substitution var -> Monomial to every term."""
        return LaurentPoly.sum_terms((m.subs(varmap), c)
                                     for m, c in self.terms.items())

    def eval_at(self, point):
        """Exact evaluation at {var: Fraction}; t stays symbolic -> TPoly."""
        out = {}
        for m, c in self.terms.items():
            s = m.eval(point)
            for e, v in c.c.items():
                w = out.get(e, 0) + v * s
                if w:
                    out[e] = w
                else:
                    del out[e]
        return TPoly(out)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda mc: mc[0].sort_key())

    def to_text(self):
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.sorted_terms():
            parts.append(f"{c}" if m.is_unit() else f"{c}*{m}")
        return " + ".join(parts)

    def to_json(self):
        return json.dumps(
            {"terms": [{"coeff": c.to_list(), "exps": dict(m.e)}
                       for m, c in self.sorted_terms()]},
            separators=(",", ":"), sort_keys=True)

    @staticmethod
    def from_json(text):
        data = json.loads(text)
        terms = {}
        for entry in data["terms"]:
            m = Monomial({v: int(x) for v, x in entry["exps"].items()})
            terms[m] = TPoly.from_list(entry["coeff"])
        return LaurentPoly(terms)

    def __str__(self):
        return self.to_text()

    __repr__ = __str__


def exact_div_binomials(p, dens):
    """Divide p exactly by prod (1 - m) over m in dens, one factor at a time
    in list order.

    p is converted once into a dict from dense integer keys to scalar
    coefficients: the exponent vector over the sorted union of the variables
    of p and dens, then the t-degree.  For each factor den the support falls
    into den-chains {b * den^k}.  With v the first variable of den, of
    exponent e, the chain position of u is k = floor(u_v / e) and its base is
    u * den^-k.  On one chain the division is a division by (1 - x) in one
    variable: the quotient coefficient at position k is the sum of the
    chain's coefficients up to k, and the quotient exists iff every chain
    sums to zero.  Bases and quotient runs change only the coordinates in
    den's support, and a run of equal sums is walked from its first term.
    The quotient becomes a LaurentPoly once, at the end.

    Raises UnitFactor when a factor is the unit monomial and NotDivisible at
    the first factor that leaves a chain with a nonzero sum.
    """
    names = sorted({v for m in p.terms for v, _ in m.e}
                   | {v for m in dens for v, _ in m.e})
    pos = {v: i for i, v in enumerate(names)}
    g = {}
    for m, c in p.terms.items():
        vec = [0] * len(names)
        for v, x in m.e:
            vec[pos[v]] = x
        for e, val in c.c.items():
            g[tuple(vec) + (e,)] = val
    for den in dens:
        if den.is_unit():
            raise UnitFactor("binomial factor (1 - 1) is zero")
        support = [(pos[v], x) for v, x in den.e]
        j, e = support[0]
        chains = {}
        for u, c in g.items():
            k = u[j] // e
            base = list(u)
            for i, x in support:
                base[i] -= k * x
            chains.setdefault(tuple(base), []).append((k, c, u))
        g = {}
        for run in chains.values():
            run.sort()
            total = 0
            for (k, c, u), (k_next, _, _) in zip(run, run[1:]):
                total += c
                if total:
                    key = list(u)
                    g[u] = total
                    for _ in range(k + 1, k_next):
                        for i, x in support:
                            key[i] += x
                        g[tuple(key)] = total
            if total + run[-1][1]:
                raise NotDivisible(f"no exact quotient by (1 - {den})")
    coeffs = {}
    for key, val in g.items():
        coeffs.setdefault(key[:-1], {})[key[-1]] = val
    return LaurentPoly({Monomial(tuple((v, x) for v, x in zip(names, vec) if x)):
                        TPoly(c) for vec, c in coeffs.items()})


def mul_binomials(p, dens):
    """p * prod (1 - m) over m in dens, one factor at a time in list order:
    the inverse of `exact_div_binomials`."""
    for m in dens:
        p = p - p * m
    return p


def _missing_factors(want, have):
    """Factors of the factored denominator `want` that `have` lacks, each
    listed with its missing multiplicity."""
    return [m for m, k in want.items() for _ in range(k - min(k, have.get(m, 0)))]


# ---------------------------------------------------------------------------
# Rational functions with factored binomial denominators
# ---------------------------------------------------------------------------

class RationalFn:
    """numerator / prod over (m, k) of (1 - m)^k.

    Denominators are kept factored; equality goes through cross-multiplication
    or random evaluation, never through normal forms.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if isinstance(num, (int, TPoly)):
            num = LaurentPoly.const(num)
        self.num = num
        dd = {}
        for item in (den or []):
            if isinstance(item, tuple):
                m, k = item
            else:
                m, k = item, 1
            if m.is_unit():
                raise UnitFactor("denominator binomial (1 - 1)")
            if k:
                dd[m] = dd.get(m, 0) + k
        self.den = {m: k for m, k in dd.items() if k != 0}

    @staticmethod
    def zero():
        return RationalFn(LaurentPoly.zero())

    def den_items(self):
        return sorted(self.den.items(), key=lambda mk: mk[0].sort_key())

    def den_list(self):
        out = []
        for m, k in self.den_items():
            out.extend([m] * k)
        return out

    def __mul__(self, other):
        if isinstance(other, RationalFn):
            den = dict(self.den)
            for m, k in other.den.items():
                den[m] = den.get(m, 0) + k
            return RationalFn(self.num * other.num, list(den.items()))
        return RationalFn(self.num * other, list(self.den.items()))

    __rmul__ = __mul__

    def __neg__(self):
        return RationalFn(-self.num, list(self.den.items()))

    def __add__(self, other):
        if not isinstance(other, RationalFn):
            other = RationalFn(other)
        den = {}
        for m in set(self.den) | set(other.den):
            den[m] = max(self.den.get(m, 0), other.den.get(m, 0))
        a = mul_binomials(self.num, _missing_factors(den, self.den))
        b = mul_binomials(other.num, _missing_factors(den, other.den))
        return RationalFn(a + b, list(den.items()))

    def __sub__(self, other):
        return self + (-other)

    def eval(self, point):
        """Exact evaluation -> TPoly; the point must avoid denominator zeros."""
        val = self.num.eval_at(point)
        scale = Fraction(1)
        for m, k in self.den.items():
            d = 1 - m.eval(point)
            if d == 0:
                raise Pole(f"denominator factor vanishes at point: {m}")
            scale /= d ** k
        return val * scale

    def to_laurent(self):
        """Exact division of the numerator by the denominator product."""
        return exact_div_binomials(self.num, self.den_list())

    def cross_mul_equal(self, other):
        """Exact equality by clearing denominators (small instances only)."""
        a = mul_binomials(self.num, _missing_factors(other.den, self.den))
        b = mul_binomials(other.num, _missing_factors(self.den, other.den))
        return a == b

    def __str__(self):
        if not self.den:
            return self.num.to_text()
        den = " * ".join(f"(1 - {m})^{k}" if k > 1 else f"(1 - {m})"
                         for m, k in self.den_items())
        return f"[{self.num.to_text()}] / [{den}]"

    __repr__ = __str__


RANDOM_POINT_TRIES = 500        # draws per evaluation point before giving up


def random_point(variables, rng, dens=()):
    """Seeded random rational point avoiding the poles of the given factors.

    Numerators and denominators are drawn from [2, 97] per the design of the
    randomized identity tests.  A factor in a variable that is not drawn
    raises MissingVariable.
    """
    variables = sorted(variables)
    for _ in range(RANDOM_POINT_TRIES):
        point = {v: Fraction(rng.randint(2, 97), rng.randint(2, 97)) for v in variables}
        if all(p != q for p, q in (m.ratio(point) for m in dens)):
            return point
    raise SearchExhausted("could not find a pole-free evaluation point")


def at_random_points(variables, rng, trials, check):
    """Whether check(point) holds at `trials` seeded random points.

    Each point is drawn by random_point; a draw where check raises Pole is
    drawn again, up to RANDOM_POINT_TRIES draws per point.  Returns False at
    the first point where check is false, and draws nothing more.
    """
    for _ in range(trials):
        for _ in range(RANDOM_POINT_TRIES):
            point = random_point(variables, rng)
            try:
                ok = check(point)
            except Pole:
                continue
            if not ok:
                return False
            break
        else:
            raise SearchExhausted("could not find a pole-free evaluation point")
    return True


# ---------------------------------------------------------------------------
# Fraction-field coefficients and truncated q-series
# ---------------------------------------------------------------------------

# names of the two kinds of series: z symbolic (z-point None) or evaluated
SYMBOLIC_Z = "SYMBOLIC_Z"
EVALUATED = "EVALUATED"


class Coeff:
    """Element of the fraction field of Z[t][z^(+-1)] used as series coefficient.

    An unnormalised fraction num/den of Laurent polynomials: no common factor,
    not even a monomial, is cancelled, so `num` and `den` are what the
    arithmetic built.  Equality is by cross-multiplication; a Coeff is never
    hashed, and no command prints a symbolic one.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if isinstance(num, (int, TPoly)):
            num = LaurentPoly.const(num)
        if den is None:
            den = LaurentPoly.one()
        elif isinstance(den, (int, TPoly)):
            den = LaurentPoly.const(den)
        if den.is_zero():
            raise ZeroDivisionError("Coeff with zero denominator")
        if num.is_zero():
            den = LaurentPoly.one()
        self.num = num
        self.den = den

    @staticmethod
    def zero():
        return Coeff(LaurentPoly.zero())

    @staticmethod
    def one():
        return Coeff(LaurentPoly.one())

    def is_zero(self):
        return self.num.is_zero()

    def __add__(self, other):
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.den == other.den:
            return Coeff(self.num + other.num, self.den)
        return Coeff(self.num * other.den + other.num * self.den,
                     self.den * other.den)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Coeff(-self.num, self.den)

    def __mul__(self, other):
        if isinstance(other, (int, TPoly, Monomial, LaurentPoly)):
            return Coeff(self.num * other, self.den)
        if self.is_zero() or other.is_zero():
            return Coeff.zero()
        return Coeff(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def inv(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero Coeff")
        return Coeff(self.den, self.num)

    def __truediv__(self, other):
        return self * other.inv()

    def __eq__(self, other):
        if not isinstance(other, Coeff):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __hash__(self):
        raise TypeError("Coeff is unhashable")

    def __str__(self):
        if self.den.is_one():
            return self.num.to_text()
        return f"[{self.num.to_text()}] / [{self.den.to_text()}]"

    __repr__ = __str__


class TruncatedSeries:
    """Laurent series in q truncated at a fixed order.

    coeffs maps q-exponents (possibly negative, finitely many) to Coeff.
    `order` is the largest exponent whose coefficient is exact; arithmetic
    tracks how much precision survives each operation.  `zpoint` is the
    {z-variable: Fraction} point the coefficients were evaluated at, None
    when z is symbolic; operands must share it.
    """

    __slots__ = ("order", "coeffs", "zpoint")

    def __init__(self, order, coeffs=None, zpoint=None):
        self.order = order
        self.zpoint = zpoint
        cc = {}
        for e, c in (coeffs or {}).items():
            if e <= order and not c.is_zero():
                cc[e] = c
        self.coeffs = cc

    @staticmethod
    def one(order, zpoint=None):
        return TruncatedSeries(order, {0: Coeff.one()}, zpoint)

    @staticmethod
    def zero(order, zpoint=None):
        return TruncatedSeries(order, {}, zpoint)

    @staticmethod
    def monomial(order, qexp, coeff):
        if isinstance(coeff, (int, TPoly, LaurentPoly)):
            coeff = Coeff(coeff)
        return TruncatedSeries(order, {qexp: coeff})

    def min_deg(self):
        """First exponent that can carry a nonzero coefficient."""
        if not self.coeffs:
            return self.order + 1
        return min(self.coeffs)

    def is_zero(self):
        return not self.coeffs

    def _check(self, other):
        a, b = self.zpoint, other.zpoint
        if a is not b and a != b:
            raise DomainMismatch(f"z-point {a} vs {b}")

    def __add__(self, other):
        self._check(other)
        order = min(self.order, other.order)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            w = out.get(e)
            out[e] = c if w is None else w + c
        return TruncatedSeries(order, out, self.zpoint)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return TruncatedSeries(self.order, {e: -c for e, c in self.coeffs.items()},
                               self.zpoint)

    def scale(self, c):
        if isinstance(c, (int, TPoly, LaurentPoly)):
            c = Coeff(c)
        return TruncatedSeries(self.order,
                               {e: c * v for e, v in self.coeffs.items()}, self.zpoint)

    def shift(self, d):
        """Multiply by q^d."""
        return TruncatedSeries(self.order + d,
                               {e + d: c for e, c in self.coeffs.items()}, self.zpoint)

    def __mul__(self, other):
        self._check(other)
        ma, mb = self.min_deg(), other.min_deg()
        order = min(self.order + mb, other.order + ma)
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                if e > order:
                    continue
                c = c1 * c2
                w = out.get(e)
                out[e] = c if w is None else w + c
        return TruncatedSeries(order, out, self.zpoint)

    def invert(self):
        """Multiplicative inverse; requires an invertible lowest coefficient."""
        if self.is_zero():
            raise NonInvertibleLeadingCoefficient("series is zero to its order")
        d = self.min_deg()
        lead = self.coeffs[d]
        if lead.is_zero():
            raise NonInvertibleLeadingCoefficient("zero leading coefficient")
        n = self.order - d          # exact relative precision of the unit part
        order = n - d               # absolute precision of the inverse
        lead_inv = lead.inv()
        out = {-d: lead_inv}
        # u = q^d(lead + tail); invert the unit part by recursion on exponents
        for m in range(1, n + 1):
            acc = Coeff.zero()
            for e, c in self.coeffs.items():
                j = e - d
                if 1 <= j <= m:
                    prev = out.get(m - j - d)
                    if prev is not None:
                        acc = acc + c * prev
            if not acc.is_zero():
                out[m - d] = -(lead_inv * acc)
        return TruncatedSeries(order, out, self.zpoint)

    def truncate(self, order):
        if order > self.order:
            raise PrecisionExceeded("cannot raise order of a truncated series")
        return TruncatedSeries(order, self.coeffs, self.zpoint)

    def coeff(self, e):
        if e > self.order:
            raise PrecisionExceeded(f"coefficient q^{e} beyond order {self.order}")
        return self.coeffs.get(e, Coeff.zero())

    def equals(self, other, up_to=None):
        self._check(other)
        order = min(self.order, other.order)
        if up_to is not None:
            if up_to > order:
                raise PrecisionExceeded("comparison beyond exact order")
            order = up_to
        exps = {e for e in self.coeffs if e <= order} | \
               {e for e in other.coeffs if e <= order}
        return all(self.coeff(e) == other.coeff(e) for e in exps)

    def __str__(self):
        if not self.coeffs:
            return f"O(q^{self.order + 1})"
        parts = [f"[{self.coeffs[e]}]*q^{e}" for e in sorted(self.coeffs)]
        return " + ".join(parts) + f" + O(q^{self.order + 1})"

    __repr__ = __str__


def zq_coeff(m, zpoint=None):
    """Split a Monomial over the z-variables and q into (Coeff, q-exponent):
    the z-part as a symbolic Coeff, or evaluated at the rational zpoint."""
    q = m.exp_of("q")
    z = Monomial({v: x for v, x in m.e if v != "q"})
    if zpoint is None:
        return Coeff(LaurentPoly.from_monomial(z)), q
    val = z.eval(zpoint)
    return Coeff(LaurentPoly.const(val.numerator),
                 LaurentPoly.const(val.denominator)), q
