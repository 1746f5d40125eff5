"""Affine type A pipeline.

The basis-indexing objects are two-sided integer sequences with periodic
left tail, zero right tail and bounded window sums.  Their weights live in
the variables z_1, ..., z_{n-1} and q; position i of a sequence carries the
monomial z_{r(i)} q^{Q(i)} where r(i) in [1, n-1] is the representative of
i mod (n-1) and Q(i) is the matching quotient, Q(i) = floor((i-1)/(n-1)).

It computes the basis sum side (enumeration, plane-pattern row statistics,
weights), the Weyl-sum side (one coset representative per translation, then
the finite Hecke symmetrizer) and the vertex decomposition (tangent-cone
sections, their truncated transforms and closed contribution formulas).
"""

from __future__ import annotations

import functools
import itertools
import math
import random as _random
from fractions import Fraction
from operator import sub

from .graphs import (CACHE_LIMIT, ConeTransform, OrdinaryGraph, svar,
                     t_factorials)
from .ring import (
    Coeff, DomainMismatch, EVALUATED, InvariantError,
    LaurentPoly, Monomial, SYMBOLIC_Z, TPoly, TruncatedSeries, T_ONE,
    random_point, zq_coeff,
)


def zvar(r):
    return f"z{r}"


def _check_domain(domain, zpoint):
    """Raise DomainMismatch unless `domain` is None or names zpoint's kind."""
    if domain not in (None, SYMBOLIC_Z if zpoint is None else EVALUATED):
        raise DomainMismatch(f"{domain} with z-point {zpoint}")


def residue(i, n):
    """Representative of i mod (n-1) in [1, n-1]."""
    return (i - 1) % (n - 1) + 1


def qshift(i, n):
    """q-exponent of position i: the quotient paired with the residue."""
    return (i - 1 - ((i - 1) % (n - 1))) // (n - 1)


class AffineWeight:
    """Dominant integral weight of the affine algebra, by fundamental
    coordinates (a_0, ..., a_{n-1}); the level is their sum."""

    def __init__(self, n, a):
        self.n = n
        self.a = tuple(a)
        if not all(type(x) is int for x in (n, *self.a)):
            raise ValueError("n and the coordinates must be integers")
        if self.n < 2 or len(self.a) != self.n:
            raise ValueError("need n coordinates a_0..a_{n-1}")
        if any(x < 0 for x in self.a) or not any(self.a):
            raise ValueError("coordinates must be nonnegative, not all zero")
        self.k = sum(self.a)
        self.a_sums = tuple(itertools.accumulate(self.a[1:], initial=0))

    def finite_part(self):
        """epsilon-coordinates (lam_1, ..., lam_{n-1}, 0) of the classical part."""
        lam = [sum(self.a[i:]) for i in range(1, self.n)]
        return tuple(lam) + (0,)

    def cycle_paths(self):
        """Sizes of the path components of the cycle subgraph with edges
        {i, i+1} present when a_{i+1} = 0, in decreasing order: a path runs
        from each nonzero a_i up to the next one, cyclically."""
        cuts = [i for i, x in enumerate(self.a) if x]
        gaps = (j - i for i, j in zip(cuts, cuts[1:] + cuts[:1]))
        return sorted((g % self.n or self.n for g in gaps), reverse=True)

    def m_count(self):
        return len(self.cycle_paths())

    def wlambda(self):
        return t_factorials(self.cycle_paths())

    def is_regular(self):
        return all(x > 0 for x in self.a)

    def __repr__(self):
        return f"AffineWeight(n={self.n}, a={self.a})"


class PiSequence:
    """Two-sided sequence with periodic left tail and zero right tail,
    stored by a finite window and the partial sums over it."""

    __slots__ = ("weight", "start", "values", "sums", "shift", "profile")

    def __init__(self, weight, start, values):
        self.weight = weight
        a, n = weight.a, weight.n
        vals = tuple(values)
        # the window runs from the first entry off the periodic tail to the
        # last nonzero entry after it
        first, last = 0, len(vals)
        while first < last and vals[first] == a[(start + first) % n]:
            first += 1
        while last > first and vals[last - 1] == 0:
            last -= 1
        lo = start + first
        vals = vals[first:last]
        if not vals:
            # pure tail-cut sequences: move the cut to the lowest equivalent
            # position so equal functions get equal keys
            while a[(lo - 1) % n] == 0:
                lo -= 1
        self.start = lo
        self.values = vals
        # sums[p] = S_A(start - 1 + p) for 0 <= p <= len(values)
        self.sums = tuple(itertools.accumulate(
            vals, initial=_periodic_sum(weight, lo - 1)))

    @classmethod
    def searched(cls, weight, start, sums, shift, profile):
        """A stripped sequence by its sums, with `mu_exponent()` as `shift`
        and `d_stats` as sorted pairs `profile`, as `enumerate_pi` finds it."""
        A = cls.__new__(cls)
        A.weight, A.start, A.sums, A.shift, A.profile = (
            weight, start, sums, shift, profile)
        A.values = tuple(map(sub, sums[1:], sums))
        return A

    def get(self, i):
        if i < self.start:
            return self.weight.a[i % self.weight.n]
        if i >= self.start + len(self.values):
            return 0
        return self.values[i - self.start]

    def window(self):
        return self.start, self.start + len(self.values) - 1

    def partial_sum(self, x):
        """S_A(x), the sum of the entries up to position x normalised like
        S_a, with which it agrees below the window."""
        if x < self.start:
            return _periodic_sum(self.weight, x)
        return self.sums[min(x - self.start + 1, len(self.values))]

    def chi(self, i):
        """Sum of the n consecutive terms ending at position i."""
        return self.partial_sum(i) - self.partial_sum(i - self.weight.n)

    def is_valid(self):
        lo = self.start
        hi = self.start + len(self.values)
        if any(v < 0 for v in self.values):
            return False
        for i in range(lo, hi + self.weight.n):
            if self.chi(i) > self.weight.k:
                return False
        return True

    def mu_exponent(self):
        """(z-exponent vector of length n-1, q-degree) of the weight shift,
        the sum of d_i z_{r(i)} q^{Q(i)} over the differences d_i against
        the base.  They vanish outside [min(start, 1), max(end, 1)), end the
        first position past the window: A is the tail below start, as the
        base is at and below 0, and 0 from end on, as the base is above 0."""
        a, n = self.weight.a, self.weight.n
        start, vals = self.start, self.values
        end = start + len(vals)
        zvec = [0] * (n - 1)
        qdeg = 0
        for i in range(min(start, 1), max(end, 1)):
            if i < start:
                d = a[i % n] if i > 0 else 0
            elif i < end:
                d = vals[i - start] - (a[i % n] if i <= 0 else 0)
            else:
                d = -a[i % n] if i <= 0 else 0
            if d:
                q, r = divmod(i - 1, n - 1)
                zvec[r] += d
                qdeg += q * d
        return tuple(zvec), qdeg

    def zq_monomial(self):
        zvec, qdeg = self.mu_exponent()
        return zq_of_shift((0,) + zvec, qdeg)

    def is_vertex(self):
        """Every position is at zero or at a saturated window sum."""
        lo, hi = self.start, self.start + len(self.values)
        for i in range(lo - self.weight.n, hi + self.weight.n + 1):
            if self.get(i) != 0 and self.chi(i) != self.weight.k:
                return False
        return True

    def key(self):
        return (self.start, self.values)

    def __eq__(self, other):
        if not isinstance(other, PiSequence):
            return NotImplemented
        return self.weight.a == other.weight.a and self.key() == other.key()

    def __hash__(self):
        return hash((self.weight.a, self.key()))

    def __repr__(self):
        if not self.values:
            # a pure tail cut: the periodic tail below start, zeros from it
            return f"PiSequence(<tail cut at {self.start}>)"
        lo, hi = self.window()
        return f"PiSequence({lo}..{hi}: {list(self.values)})"


def t0_sequence(weight, m=0):
    """The sequence with zeros above position m*n and the periodic pattern
    at and below it."""
    return PiSequence(weight, m * weight.n + 1, ())


def _periodic_sum(weight, x):
    """Partial sum S_a(x) of the periodic pattern a_(l mod n), fixed by
    S_a(0) = 0 and S_a(x) - S_a(x - 1) = a_(x mod n); weight.a_sums[r] is
    a_1 + ... + a_r."""
    q, r = divmod(x, weight.n)
    return q * weight.k + weight.a_sums[r]


def s_ij(A, i, j):
    """Plane-pattern entry: partial sums of the sequence against the shifted
    base, S_A(i n + j (n-1)) - S_a((i + j) n), where S_a((i + j) n) is
    (i + j) k."""
    n = A.weight.n
    return A.partial_sum(i * n + j * (n - 1)) - (i + j) * A.weight.k


def _q_window(n, qmax):
    """(L, H) = (-n(n-1)(qmax+1), (n-1)(qmax+1)), the window outside which
    every sequence of weight q-degree at most qmax equals the base."""
    return -n * (n - 1) * (qmax + 1), (n - 1) * (qmax + 1)


@functools.lru_cache(maxsize=CACHE_LIMIT)
def _pi_table(a, qmax):
    """(lo, size, W, kids, free): `enumerate_pi`'s window and dynamic
    program for the weight of coordinates a, built once per a and qmax."""
    n, k = len(a), sum(a)
    lo, hi = _q_window(n, qmax)
    size = hi - lo + 1
    # z-exponents (offset by half) and counts d_l packed W bits a digit
    W = (k * size).bit_length() + 1
    # per state (last n-1 entries): (v, next state, profile increment of the
    # run ending at v, -1 where it needs the steps back)
    moves = {st: [(v, st[1:] + (v,), 0 if not v or s + v == k and st[0]
                   else 1 << W if s + v < k else -1)
                  for v in range(k - s + 1)]
             for st in itertools.product(range(k + 1), repeat=n - 1)
             if (s := sum(st)) <= k}
    # per (position, state): the children (least q-degree of a completion
    # through them, v, q inc, next state, z and profile incs), sorted; past H
    # or once acc > free[idx] (v > 0 at i >= 1 adds qshift(i) v) zeros follow
    kids = [None] * size
    free = [qmax - qshift(i, n) if i > 0 else math.inf
            for i in range(lo, hi + 1)] + [-1]
    min_rem = dict.fromkeys(moves, 0)
    for idx in range(size - 1, -1, -1):
        i = lo + idx
        (qc, r), b = divmod(i - 1, n - 1), (a[i % n] if i <= 0 else 0)
        kids[idx] = level = {
            st: sorted((qc * (v - b) + min_rem[nxt], v, qc * (v - b), nxt,
                        (v - b) << W * r, run) for v, nxt, run in mv)
            for st, mv in moves.items()}
        min_rem = {st: children[0][0] for st, children in level.items()}
    return lo, size, W, kids, free


def enumerate_pi(weight, qmax):
    """All sequences with weight q-degree at most qmax, sorted by
    (q-degree, key()).

    Each one deviates from the base t0 only inside the window [L, H],
    L = -n(n-1)(qmax+1), H = (n-1)(qmax+1).  Write D = A - t0 and
    S(x) = sum_{i <= x} D_i.
    - For x <= 0 every window sum of A is at most k, which is the base's
      window sum, so S(x) <= S(x - n) <= ... <= 0.
    - Abel summation gives qdeg(A) = sum_{i >= 1} qshift(i) A_i
      - sum_{x <= 0, (n-1) | x} S(x).  Both parts are >= 0.
    - So A_i = 0 for every i > H, where qshift(i) > qmax.
    - If p <= 0 is the leftmost deviation, then S <= -1 at p, p + n,
      p + 2n, ... up to 0.  As n = 1 mod (n-1), one in every n-1 of these
      positions is a multiple of n-1, so p >= L.

    One depth-first search over [L, H] finds them all.  It keeps every entry
    >= 0 and every window sum <= k, exactly the conditions of `is_valid`,
    and prunes by the least q-degree any completion adds (a dynamic program
    over the last n-1 entries), so each leaf is valid and the accumulated
    q-degree is its own.  Each state lists its children cheapest completion
    first, so the search stops at the first child that cannot stay within
    qmax.  It runs once per first position f off the periodic tail and
    carries the partial sums, z-exponents, last nonzero position and
    `d_stats` profile along each path, so a leaf is built stripped.

    The profile: the walk of `d_stats` steps from x to x + n - 1 iff A_x = 0
    and chi(x + n - 1) = k, so a run is a chain with at most one step into
    and out of each position, from x0 with chi(x0) < k (no step in, as
    chi <= k) to y with no step out, and counts for d_l iff A_y > 0.  Each
    A_y > 0 thus ends one chain: step back while A_{y-(n-1)} = 0 and
    chi(y) = k, and count iff chi < k where the steps stop, which is at f
    or above, as below f every chi is k.  This reads positions <= y only.
    """
    n, k, a = weight.n, weight.k, weight.a
    if qmax < 0:
        raise ValueError("qmax must be nonnegative")
    lo, size, W, kids, free = _pi_table(a, qmax)
    mask, half = (1 << W) - 1, 1 << (W - 1)
    # S[u] = S_A(lo + idx) for u = idx + n + 1, to the path's end; f at uf
    S = [_periodic_sum(weight, x) for x in range(lo - n - 1, lo)]
    found, shifts, profiles = [], {}, {}

    def leaf(q, z, prof, last):
        start = lo + uf - n - 1
        while last < uf and a[(start - 1) % n] == 0:
            start -= 1      # a pure tail cut: its lowest equivalent start
        zvec = shifts.get(z) or shifts.setdefault(z, tuple(
            (z >> W * r & mask) - half for r in range(n - 1)))
        pairs = profiles.get(prof) or profiles.setdefault(prof, tuple(
            (l, d) for l in range(1, prof.bit_length() // W + 1)
            if (d := prof >> W * l & mask)))
        found.append(PiSequence.searched(
            weight, start, tuple(S[uf - 1:last + 1]), (zvec, q), pairs))

    def rec(u, children, acc, z, prof, last):
        for cost, v, inc, nxt, dz, run in children:
            if acc + cost > qmax:
                break
            S.append(S[-1] + v)
            if run < 0:     # step back from u: x is the chain's start
                x, l = u, 1
                while x - n >= uf - 1 and S[x - n + 1] == S[x - n] == S[x] - k:
                    x, l = x - n + 1, l + 1
                run = 1 << W * l if S[x] - S[x - n] < k else 0
            if acc + inc > free[u - n]:
                leaf(acc + inc, z + dz, prof + run, u if v else last)
            else:
                rec(u + 1, kids[u - n][nxt], acc + inc, z + dz, prof + run,
                    u if v else last)
            S.pop()

    st, acc = tuple(a[(lo - j) % n] for j in range(n - 1, 0, -1)), 0
    z = sum(half << W * r for r in range(n - 1))
    for uf in range(n + 1, size + n + 1):
        t, children = a[(lo + uf - n - 1) % n], kids[uf - n - 1][st]
        rec(uf, [c for c in children if c[1] != t], acc, z, 0, uf - 1)
        _, _, inc, st, dz, _ = next(c for c in children if c[1] == t)
        S.append(S[-1] + t)
        acc, z = acc + inc, z + dz
    uf += 1                 # the tail throughout the window
    if acc <= qmax:
        leaf(acc, z, 0, uf - 1)
    del rec     # rec holds itself by its closure cell: free the tables now
    found.sort(key=lambda A: (A.shift[1], A.start, A.values))
    return found


# ---------------------------------------------------------------------------
# row statistics
# ---------------------------------------------------------------------------

def d_stats(A):
    """Counts d_l of values appearing l times in row i and l-1 times in row
    i-1, over shift-class representatives 1 <= i <= n-1.

    Row i holds s(i, j) at x = i n + j (n-1) and row i-1 holds s(i-1, j) at
    x - n, so rows 1..n-1 cover every position once.  For a valid sequence
    (entries >= 0, window sums chi <= k) the definition of `s_ij` gives
    s(i, j) - s(i, j+1) = A_x + k - chi(x + n - 1) >= 0, zero iff A_x = 0
    and chi(x + n - 1) = k, and the interlacing
    s(i-1, j+1) = s(i, j) - A_x <= s(i, j) <= s(i, j) + k - chi(x) = s(i-1, j).
    So a value's l entries in row i are one run, at columns j0..j0 + l - 1
    and positions x0, ..., y = x0 + (l-1)(n-1); row i-1 holds it at columns
    j0 + 1..j0 + l - 1, at j0 iff chi(x0) = k, at j0 + l iff A_y = 0, and
    nowhere else.  It counts for d_l iff chi(x0) < k (which makes x0 a run
    start) and A_y > 0.  Below the window every chi is k; above it every
    entry is 0, so a run starting there has l = 1 and A_y = 0.  Only starts
    in the window count.

    The walk reads partial sums only, from one array S over
    [start - n - 1, end + 2n), end the first position past the window:
    A_y = S(y) - S(y - 1) and chi(x) = S(x) - S(x - n).  A run that starts
    in the window ends below end + n - 1, so its last chi is below
    end + 2n - 2.
    """
    n, k = A.weight.n, A.weight.k
    m = len(A.values)
    # S[u] is S_A(start - n - 1 + u); A.sums starts at u = n
    S = [_periodic_sum(A.weight, x)
         for x in range(A.start - n - 1, A.start - 1)]
    S += A.sums
    S += [S[-1]] * (2 * n)
    out = {}
    for u0 in range(n + 1, n + 1 + m):
        if S[u0] - S[u0 - n] == k:
            continue
        u, l = u0, 1
        while S[u] == S[u - 1] and S[u + n - 1] - S[u - 1] == k:
            u, l = u + n - 1, l + 1
        if S[u] != S[u - 1]:
            out[l] = out.get(l, 0) + 1
    return out


def _profile_weight(profile):
    """prod (1 - t^l)^{d_l} over the sorted (l, d_l) pairs of a profile."""
    out = T_ONE
    for l, d in profile:
        out = out * TPoly({l * j: (-1) ** j * math.comb(d, j)
                           for j in range(d + 1)})
    return out


def p_weight(A):
    return _profile_weight(sorted(d_stats(A).items()))


# ---------------------------------------------------------------------------
# the basis-sum side
# ---------------------------------------------------------------------------

def rhs_table(weight, qmax):
    """(q-degree, z-vector, weight polynomial) for every basis element.

    The search carries shift and profile; each weight is built once a call."""
    weights, rows = {}, []
    for A in enumerate_pi(weight, qmax):
        if A.profile not in weights:
            weights[A.profile] = _profile_weight(A.profile)
        rows.append((A.shift[1], A.shift[0], weights[A.profile]))
    return rows


def rhs_series(weight, qmax, domain=None, zpoint=None):
    """The basis sum: rhs_table's rows, each weight times its z/q monomial,
    summed in the table's order; `domain` is checked as in `lhs_series`.

    Each q-degree sums into {(t-degree, z-exponents...): int} over one
    integer, by `Coeff.__add__`'s rule: a row over the same denominator is
    added, one over another is cross-multiplied, and a zero sum is over 1.
    For symbolic z every denominator is 1; at a z-point a row's is that of
    its z-monomial's value."""
    _check_domain(domain, zpoint)
    splits = {}
    sums = {}
    for qdeg, zvec, w in rhs_table(weight, qmax):
        split = splits.get(zvec)
        if split is None:
            split = splits[zvec] = _zsplit(zvec, zpoint)
        p, s, z = split
        num, den = sums.get(qdeg, ({}, 1))
        if den != s:
            num = {key: v * s for key, v in num.items()}
            p, den = p * den, den * s
        for d, c in w.c.items():
            key = (d,) + z
            v = num.get(key, 0) + p * c
            if v:
                num[key] = v
            else:
                del num[key]
        sums[qdeg] = num, den if num else 1
    return TruncatedSeries(qmax, {q: _coeff(num, den)
                                  for q, (num, den) in sums.items()}, zpoint)


# ---------------------------------------------------------------------------
# the Weyl-sum side
# ---------------------------------------------------------------------------

def _perm_act(sigma, vec):
    """(sigma . v)_i = v_{sigma^{-1}(i)} with sigma a tuple of images."""
    return tuple(vec[sigma.index(i)] for i in range(len(vec)))


def zq_of_shift(u, qexp):
    """Monomial of e^xi for xi with finite epsilon-part u and q-degree qexp.

    z_r takes u_r for r = 1..n-1 and u_0 is dropped (u sums to zero),
    mirroring the sign convention of the finite-case specialization.
    """
    return Monomial({"q": qexp, **{zvar(r): u[r] for r in range(1, len(u))}})


def finite_roots(n):
    """(i, j) for the root e_i - e_j, i != j (positive when i < j)."""
    return [(i, j) for i in range(n) for j in range(n) if i != j]


def _gamma_ball(weight, qmax):
    """(gamma, q-degree) for each gamma in Q, the integer vectors of sum 0,
    whose coset W_fin t_gamma has q-degree <lam, gamma> + k |gamma|^2 / 2 =
    (|v|^2 - |lam|^2) / (2k) <= qmax, v = lam + k gamma.  So v lies in a
    ball of the plane sum v = sum lam, filled left to right: m entries
    still to choose, of sum s, add at least s^2 / m to |v|^2."""
    n, k, lam = weight.n, weight.k, weight.finite_part()
    if qmax < 0:
        raise ValueError("qmax must be nonnegative")
    norm0 = sum(x * x for x in lam)
    r2 = norm0 + 2 * k * qmax
    r = math.isqrt(r2)
    heads = [((), 0, sum(lam))]         # (entries, |v|^2 so far, sum left)
    for i, m in zip(range(n - 1), range(n - 1, 0, -1)):
        heads = [(gamma + (g,), norm + v * v, s - v)
                 for gamma, norm, s in heads
                 for g in range(-((r + lam[i]) // k), (r - lam[i]) // k + 1)
                 for v in [lam[i] + k * g]
                 if m * (norm + v * v) + (s - v) ** 2 <= m * r2]
    return [(gamma + (-sum(gamma),), (norm + s * s - norm0) // (2 * k))
            for gamma, norm, s in heads]


def _element(weight, sigma, gamma, qdeg):
    """The entry of w = sigma t_gamma: w lam = sigma(lam + k gamma)."""
    lam, k = weight.finite_part(), weight.k
    v = _perm_act(sigma, tuple(x + k * g for x, g in zip(lam, gamma)))
    return (sigma, _perm_act(sigma, gamma),
            zq_of_shift(tuple(map(sub, v, lam)), qdeg), qdeg)


def weyl_elements(weight, qmax):
    """All (sigma, tau, shift monomial, q-degree) with weight q-shift <= qmax:
    every sigma on each gamma of `_gamma_ball`, with tau = sigma gamma."""
    return [_element(weight, sigma, gamma, qdeg)
            for gamma, qdeg in _gamma_ball(weight, qmax)
            for sigma in itertools.permutations(range(weight.n))]


def coset_representatives(weight, qmax):
    """The least element of each coset W_fin t_gamma of `_gamma_ball`, the
    one that flips no finite simple root (Bjorner and Brenti, Combinatorics
    of Coxeter Groups, ch. 8): sigma inverts the stable descending sort of
    gamma, so tau = sigma gamma is gamma sorted descending."""
    return [_element(weight, tuple(sum(x > y for x in g) + g[:i].count(y)
                                   for i, y in enumerate(g)), g, qdeg)
            for g, qdeg in _gamma_ball(weight, qmax)]


def flip_set(weight, sigma, tau):
    """Positive real roots sent to negative ones by the element's inverse,
    as pairs ((i, j), m) for the root e_i - e_j + m delta."""
    n = weight.n
    inv_sigma = sorted(range(n), key=sigma.__getitem__)
    gamma = _perm_act(tuple(inv_sigma), tau)
    # w^{-1}(e_i - e_j + m delta) = e_i2 - e_j2 + (m - shift) delta, shift =
    # gamma_j2 - gamma_i2, is negative iff m < shift, or m = shift, i2 > j2
    return {((i, j), m) for (i, j) in finite_roots(n)
            for i2, j2 in [(inv_sigma[i], inv_sigma[j])]
            for m in range(i > j, gamma[j2] - gamma[i2] + (i2 > j2))}


def _zsplit(z, zpoint):
    """(a, b, key z-part) of the z-monomial of exponents z: 1, 1 and z for
    symbolic z; at a z-point its value a/b in lowest terms and ()."""
    if zpoint is None:
        return 1, 1, tuple(z)
    val = math.prod((Fraction(zpoint[zvar(r)]) ** e
                     for r, e in enumerate(z, 1) if e), start=Fraction(1))
    return val.numerator, val.denominator, ()


def _roots(n, qmax):
    """(key, q-degree m, epsilon-exponents of y = e^{-root}) per positive
    root of q-degree <= qmax: the real roots e_i - e_j + m delta keyed
    ((i, j), m), then the imaginary m delta, n - 1 times each, keyed None."""
    roots = [(((i, j), m), m, tuple((r == j) - (r == i) for r in range(n)))
             for (i, j) in finite_roots(n) for m in range(i > j, qmax + 1)]
    return roots + [(None, m, (0,) * n)
                    for m in range(1, qmax + 1) for _ in range(n - 1)]


def _width(weight, qmax):
    """Key field width for `weight` to qmax.  A key's t-degree is at most
    l(w) + n(n-1)/2 + qmax, and each |eps_i| at most |w lam|_inf + n(n-1)/2
    + qmax + k: w = sigma t_gamma flips l(w) roots, a t each at most, as are
    the n(n-1)/2 finite root factors or T_i; any other t or root y (which
    moves lam + eps by a root) costs q-degree, and pi_i keeps
    |lam + eps|_inf.  |w lam|^2 <= |lam|^2 + 2k qmax (`_gamma_ball`), so
    |gamma| <= (|w lam| + |lam|) / k, and l(w) <= sum_{i<j} (|gamma_i -
    gamma_j| + 1) <= |gamma| n sqrt((n-1)/2) + n(n-1)/2 (Cauchy-Schwarz)."""
    n, k, lam = weight.n, weight.k, weight.finite_part()
    norm = sum(x * x for x in lam)
    r = math.isqrt(norm + 2 * k * qmax) + 1
    g = (r + math.isqrt(norm) + 1) // k + 1
    bound = math.isqrt(g * g * n * n * (n - 1) // 2) + 1 + n * n + qmax + r + k
    return bound.bit_length() + 1


def _pack(width, q, t, eps):
    """The key (q, t, eps_0, ..., eps_{n-1}) as one int: q >= 0 on top, t and
    each eps_i below in `width`-bit fields offset by half, so an unoffset
    `_shift` adds field by field, and the keys with q <= qmax are those below
    (qmax + 1) << width (n + 1).  A value outside its field raises
    InvariantError."""
    half, key = 1 << width - 1, q
    for x in (t, *eps):
        if not -half <= x < half:
            raise InvariantError(f"{x} outside a {width}-bit key field")
        key = key << width | x + half
    return key


def _shift(width, q, t, eps):
    return _pack(width, q, t, eps) - _pack(width, 0, 0, [0] * len(eps))


def _unpack(n, width, key):
    mask, half = (1 << width) - 1, 1 << width - 1
    return (key >> width * (n + 1), *[(key >> width * j & mask) - half
                                      for j in range(n, -1, -1)])


def _mul_terms(g, terms, out, limit):
    """Add g times the sum of c x^shift over the (c, shift) `terms` into out,
    dropping keys of q-degree above qmax (from `limit` on), and return out.
    g and out map packed keys to integers; the shifts rise with q-degree."""
    terms = sorted(terms, key=lambda term: term[1])
    for key, v in g.items():
        room = limit - key
        for c, shift in terms:
            if shift >= room:
                break
            k = key + shift
            out[k] = out.get(k, 0) + c * v
    return out


def _numerator(weight, element, qmax, width):
    """One element's term on packed keys: its shift monomial, t per flipped
    root beyond qmax, and per flipped root of q-degree m <= qmax (t - y),
    y = e^{-root}, times 1/(1 - t y) = sum_j (t y)^j to qmax if m >= 1."""
    sigma, tau, mono, qdeg = element
    n, flipped = weight.n, flip_set(weight, sigma, tau)
    u = [mono.exp_of(zvar(r)) for r in range(1, n)]
    limit, t = qmax + 1 << width * (n + 1), 1 << width * n
    g = {_pack(width, qdeg, sum(m > qmax for _, m in flipped),
               (-sum(u), *u)): 1}
    for (i, j), m in flipped:
        if m <= qmax:
            y = _shift(width, m, 0, [(r == j) - (r == i) for r in range(n)])
            g = _mul_terms(g, ((1, t), (-1, y)), {}, limit)
        if 0 < m <= qmax:
            g = _mul_terms(g, [(1, p * (t + y)) for p in range(qmax // m + 1)],
                           {}, limit)
    return g


def _pi_step(n, width, g, i, a_i):
    """e^{-lam} pi_i(e^lam g) for a packed key dict g, a_i = <lam, alpha_i>,
    alpha_i = e_{i-1} - e_i: pi_i f = (f - y s_i f)/(1 - y), y =
    e^{-alpha_i}, is, with d = <lam + mu, alpha_i>, e^mu (1 + y + ... + y^d)
    for d >= 0, zero for d = -1 and -e^mu (y^{d+1} + ... + y^{-1}).  Each y
    moves a key by one stride, from the field of eps_{i-1} to that of eps_i."""
    mask, hi, lo = (1 << width) - 1, width * (n - i), width * (n - 1 - i)
    stride, out = (1 << lo) - (1 << hi), {}
    for key, c in g.items():
        d = (key >> hi & mask) - (key >> lo & mask) + a_i + 1
        if d < 0:
            key, d, c = key + d * stride, -d, -c
        for k in range(key, key + d * stride, stride):
            out[k] = out.get(k, 0) + c
    return {k: c for k, c in out.items() if c}


def _pinned(n, width, g, zpoint):
    """(key dict, D): g over 1 for symbolic z; at a z-point each z_r =
    e^{eps_r} (eps_0 is dropped: the exponents sum to zero) is evaluated by
    integer power tables over one denominator D, the eps fields cleared."""
    if zpoint is None:
        return g, 1
    mask, half, low = (1 << width) - 1, 1 << width - 1, (1 << width * n) - 1
    shifts = [width * (n - 1 - r) for r in range(1, n)]  # eps_1 .. eps_{n-1}
    exps = {key: [(key >> s & mask) - half for s in shifts] for key in g}
    D, tables, out, zero = 1, [], {}, _pack(width, 0, 0, [0] * n) & low
    for r, column in enumerate(zip(*exps.values()), 1):
        lo, hi = min(0, *column), max(0, *column)
        p, b = zpoint[zvar(r)].numerator, zpoint[zvar(r)].denominator
        # z^e = p^(e - lo) b^(hi - e) / (p^-lo b^hi), at index e
        tables.append([p ** (e - lo) * b ** (hi - e)
                       for e in (*range(hi + 1), *range(lo, 0))])
        D *= p ** -lo * b ** hi
    for key, v in g.items():
        for table, e in zip(tables, exps[key]):
            v *= table[e]
        key += zero - (key & low)
        out[key] = out.get(key, 0) + v
    return {k: v for k, v in out.items() if v}, D


def _coeff(row, den):
    """The Coeff of {(t-degree, z-exponents...): int} over `den`."""
    terms = {}
    for (d, *z), v in row.items():
        if v:
            terms.setdefault(zq_of_shift((0, *z), 0), {})[d] = v
    return Coeff(LaurentPoly({m: TPoly(c) for m, c in terms.items()}), den)


def _series(n, width, g, den, qmax, zpoint):
    """The TruncatedSeries of a packed key dict over `den`, eps_0 dropped,
    reduced by content to a positive denominator."""
    rows = {}
    for key, v in g.items():
        q, t, _, *z = _unpack(n, width, key)
        rows.setdefault(q, {})[(t, *z)] = v
    return TruncatedSeries(qmax, {
        q: _coeff({key: v // c for key, v in row.items()}, den // c)
        for q, row in rows.items()
        for c in [math.gcd(den, *row.values()) * (-1) ** (den < 0)]},
        zpoint)


@functools.lru_cache(maxsize=CACHE_LIMIT)
def _s_over_d(n, qmax, width):
    """S/D+ on packed keys, S and D+ the products of the (1 - t y) and the
    (1 - y) over the roots of q-degree 1..qmax.  W_fin permutes those roots,
    so both pass through the Hecke sum, and they depend on n and qmax alone.
    D+ has constant term 1 and is inverted once as a TruncatedSeries, whose
    coefficients come back over 1.  Read the dict, never mutate it."""
    limit, one = qmax + 1 << width * (n + 1), _pack(width, 0, 0, [0] * n)
    s, d = {one: 1}, {one: 1}
    for _, m, e in _roots(n, qmax):
        if m:
            y = _shift(width, m, 0, e)
            s = _mul_terms(s, ((1, 0), (-1, y + (1 << width * n))), {}, limit)
            d = _mul_terms(d, ((1, 0), (-1, y)), {}, limit)
    inverse = [(v, _shift(width, q, t, (-sum(u), *u)))
               for q, c in _series(n, width, d, 1, qmax, None).invert(
                   ).coeffs.items() for m, tp in c.num.terms.items()
               for u in [[m.exp_of(zvar(r)) for r in range(1, n)]]
               for t, v in tp.c.items()]
    return {k: v for k, v in _mul_terms(s, inverse, {}, limit).items() if v}


def _over_den(n, width, g, qmax, zpoint):
    """A packed key dict times S/D+, both evaluated at the z-point first, if
    any, as a TruncatedSeries."""
    num, D = _pinned(n, width, g, zpoint)
    sd, E = _pinned(n, width, _s_over_d(n, qmax, width), zpoint)
    one = _pack(width, 0, 0, [0] * n)
    return _series(n, width, _mul_terms(
        num, [(v, key - one) for key, v in sd.items()], {},
        qmax + 1 << width * (n + 1)), D * E, qmax, zpoint)


def closed_form_contribution(weight, element, qmax, zpoint):
    """The contribution of one `weyl_elements` entry, its shift monomial
    times its root factors over every (1 - y) of q-degree <= qmax: its
    `_numerator` times the (1 - t y) of the finite roots it does not flip,
    through `_over_den`, over d0, the product over the positive ones."""
    n, width = weight.n, _width(weight, qmax)
    flipped, d0 = flip_set(weight, *element[:2]), Coeff.one()
    g = _numerator(weight, element, qmax, width)
    for key, _, e in _roots(n, 0):
        d0 = d0 * (Coeff.one() - zq_coeff(zq_of_shift(e, 0), zpoint)[0])
        if key not in flipped:
            g = _mul_terms(g, ((1, 0), (-1, _shift(width, 0, 1, e))), {},
                           qmax + 1 << width * (n + 1))
    return _over_den(n, width, g, qmax, zpoint).scale(d0.inv())


def lhs_series(weight, qmax, domain=None, zpoint=None):
    """W_lam(t) P_lam e^{-lam} truncated, the Weyl side: S / D+ times
    sum_u T_u F, u in W_fin, F the coset representatives' `_numerator`s.

    Each affine Weyl group element is uniquely u v, v a coset representative,
    and its term is u applied to v's, e^{v lam - lam} prod N(v) / D+ d0.  v
    flips no finite root and W_fin permutes the roots of q-degree 1..qmax, so
    prod N(v) is S d_t times v's `_numerator`, d_t and d0 the products of the
    (1 - t y) and (1 - y) over the positive finite roots.  S and D+ are
    W_fin-invariant, and sum_u u(d_t F / d0) = pi_{w0}(d_t F) = sum_u T_u F,
    T_i = pi_i (1 - t y_i) - 1 (Lusztig, J. Amer. Math. Soc. 2, 1989;
    Macdonald, Affine Hecke Algebras and Orthogonal Polynomials, ch. 4-5):
    for k = n-1 down to 1, f <- f + T_k (f + ... T_2 (f + T_1 f)).  Without
    `zpoint` z is symbolic; a `domain` that disagrees raises DomainMismatch."""
    _check_domain(domain, zpoint)
    reps, n, f = coset_representatives(weight, qmax), weight.n, {}
    width = _width(weight, qmax)
    limit = qmax + 1 << width * (n + 1)
    for element in reps:
        _mul_terms(_numerator(weight, element, qmax, width), ((1, 0),), f,
                   limit)
    for k in range(n - 1, 0, -1):
        h = f
        for i in range(1, k + 1):       # h <- f + T_i h
            ty = _shift(width, 0, 1,
                        [(r == i) - (r == i - 1) for r in range(n)])
            th = _pi_step(n, width, _mul_terms(h, ((1, 0), (-1, ty)), {},
                                               limit), i, weight.a[i])
            h = {key: v for key, v in _mul_terms(f, ((1, 0),), _mul_terms(
                h, ((-1, 0),), th, limit), limit).items() if v}
        f = h
    return _over_den(n, width, f, qmax, zpoint)


def random_zpoint(n, rng):
    """Seeded rational z-point off the poles of the evaluated series.

    The q-degree-0 factors (1 - y), y = e^{-(e_i - e_j)} over the positive
    finite roots, vanish where y is 1 (z1 = 1, z2 = 1 or z1 = z2 for n = 3);
    such draws are redrawn.
    """
    poles = [zq_of_shift(e, 0) for _, _, e in _roots(n, 0)]
    return random_point([zvar(r) for r in range(1, n)], rng, poles)


def _zpoints(weight, domain, trials, rng):
    """[None], z symbolic, for SYMBOLIC_Z (the default at n = 2); else
    `trials` draws of random_zpoint (the default for n >= 3)."""
    if domain == SYMBOLIC_Z or (domain is None and weight.n == 2):
        return [None]
    return [random_zpoint(weight.n, rng) for _ in range(trials)]


def verify_main(weight, qmax, domain=None, trials=3, seed=0):
    """W_lam(t) * rhs = lhs coefficient by coefficient up to q^qmax, at each
    z-point of `_zpoints`; trials < 1 raises ValueError."""
    if trials < 1:
        raise ValueError("trials must be positive")
    wl = weight.wlambda()
    return all(lhs_series(weight, qmax, zpoint=zpoint).equals(
        rhs_series(weight, qmax, zpoint=zpoint).scale(wl), up_to=qmax)
        for zpoint in _zpoints(weight, domain, trials, _random.Random(seed)))


# ---------------------------------------------------------------------------
# vertex machinery
# ---------------------------------------------------------------------------

DELTA_SPAN = 8          # span of the equality graphs of the vertex scans


class DeltaGraph:
    """Embedded equality graph of a point, one lattice vertex per position.

    Positions p carry edges to p-1 (when the sequence vanishes there) and to
    p-n (when the window sum saturates); components are embedded into the
    lattice with rows consistent with both edge types, one representative
    per shift class.  A section needs the point to be a vertex with m(lambda)
    components, which `lmin` checks.
    """

    def __init__(self, weight, v, span):
        self.weight = weight
        self.v = v
        n = weight.n
        lo, hi = v.window()
        if not v.values:
            lo, hi = v.start - 1, v.start
        self.p0 = min(lo, -1) - n * (span + 3) - n * n
        self.p1 = max(hi, 1) + n * (span + 3) + n * n
        rng = range(self.p0, self.p1 + 1)
        ur = {p: v.get(p) == 0 for p in rng}          # edge p ~ p-1
        ul = {p: v.chi(p) == weight.k for p in rng}   # edge p ~ p-n
        # one search per component gives its positions their rows: both
        # edge types point one row up, and the search starts at the member
        # closest to the origin, on the row of its residue class nearest zero
        self.row, comps = {}, []
        for anchor in sorted(rng, key=lambda p: (abs(p), p)):
            if anchor in self.row:
                continue
            r0 = anchor % (n - 1)
            if r0 > (n - 1) // 2:
                r0 -= n - 1
            comps.append([])
            stack = [(anchor, r0)]
            while stack:
                q, r = stack.pop()
                if q in self.row:
                    if self.row[q] != r:
                        raise InvariantError("inconsistent embedding")
                    continue
                self.row[q] = r
                comps[-1].append(q)
                if ur[q] and q - 1 in ur:
                    stack.append((q - 1, r - 1))
                if ul[q] and q - n in ul:
                    stack.append((q - n, r - 1))
                if ur.get(q + 1):
                    stack.append((q + 1, r + 1))
                if ul.get(q + n):
                    stack.append((q + n, r + 1))
        # components are numbered by their smallest positions, the order in
        # which `section_graphs` lists their sections
        comps.sort(key=min)
        self.comp = {p: c for c, ps in enumerate(comps) for p in ps}
        self.m = len(comps)
        self.col = {p: (p - self.row[p] * n) // (n - 1) for p in rng}
        for p in rng:
            if self.row[p] * n + self.col[p] * (n - 1) != p:
                raise InvariantError(f"position {p} is off its row")
        # rows within safe of row 0 are scanned for component row counts
        self.safe = (min(-self.p0, self.p1) - 2 * n * n) // n

    def row_counts(self):
        """{component: {row: vertex count}} over the rows within safe + 1
        of row 0."""
        counts = {}
        for p in range(self.p0, self.p1 + 1):
            r = self.row[p]
            if abs(r) <= self.safe + 1:
                rows = counts.setdefault(self.comp[p], {})
                rows[r] = rows.get(r, 0) + 1
        return counts

    @functools.cached_property
    def lmin(self):
        """Smallest valid section radius l, for a vertex with m(lambda)
        components: each bottom row l..safe holds a single vertex, at a
        position >= 1, and each top row -safe..-l holds the cycle path sizes
        as its per-component counts, at positions <= 0.  A row r that fails
        its condition forces l > |r|."""
        if not self.v.is_vertex():
            raise InvariantError("not a vertex of the polyhedron")
        if self.m != self.weight.m_count():
            raise InvariantError(f"component count {self.m} != m(lambda) = "
                                 f"{self.weight.m_count()}")
        counts = self.row_counts().values()
        paths = self.weight.cycle_paths()
        bad = {r for p, r in self.row.items()
               if r and (r > 0) != (p > 0) and abs(r) <= self.safe}
        for r in range(1, self.safe + 1):
            if sum(rows.get(r, 0) for rows in counts) != 1:
                bad.add(r)
            if sorted((rows.get(-r, 0) for rows in counts),
                      reverse=True) != paths:
                bad.add(-r)
        lmin = 1 + max((abs(r) for r in bad), default=0)
        if lmin >= self.safe:
            raise InvariantError("no valid section radius in the index range")
        return lmin

    def vertices_in_rows(self, rlo, rhi):
        return [p for p in range(self.p0, self.p1 + 1)
                if rlo <= self.row[p] <= rhi]

    def section_graphs(self, l):
        """Per component: the ordinary graph of rows [-l, l] and its s-value."""
        if not self.lmin <= l <= self.safe:
            raise InvariantError(f"radius {l} not in {self.lmin}..{self.safe}")
        comps = {}
        for p in self.vertices_in_rows(-l, l):
            comps.setdefault(self.comp[p], []).append(p)
        out = []
        for label in sorted(comps):
            ps = comps[label]
            verts = [(self.row[p], self.col[p]) for p in ps]
            G = OrdinaryGraph(verts)
            top = [p for p in ps if self.row[p] == -l]
            if not top:
                raise InvariantError(
                    "component does not reach the top of the section")
            b = s_ij(self.v, -l, self.col[top[0]])
            if any(s_ij(self.v, -l, self.col[p]) != b for p in top[1:]):
                raise InvariantError("top row values of a component differ")
            out.append((G, b))
        return out

    def gw_map(self, l):
        """Monomial images of the section coordinates under the weight
        specialization, in relative (vertex-shifted) coordinates."""
        n = self.weight.n
        window = self.vertices_in_rows(-l + 1, l)
        bottom = [p for p in window if self.row[p] == l]
        if len(bottom) != 1:
            raise InvariantError(f"{len(bottom)} vertices in the bottom row")
        ccount = sum(1 for p in window
                     if self.row[p] < l and p >= 1 and p % (n - 1) == 0)
        out = {}
        for p in window:
            i = self.row[p]
            exps = {}
            r1 = residue(i, n)
            exps[zvar(r1)] = exps.get(zvar(r1), 0) + 1
            if i < l:
                r2 = residue(i + 1, n)
                exps[zvar(r2)] = exps.get(zvar(r2), 0) - 1
                if p % (n - 1) == 0:
                    exps["q"] = -1
            elif ccount:
                exps["q"] = ccount
            out[svar((i, self.col[p]))] = Monomial(
                {k: e for k, e in exps.items() if e})
        # fixed top rows never appear in the relative transform
        for p in self.vertices_in_rows(-l, -l):
            out[svar((self.row[p], self.col[p]))] = Monomial.unit()
        return out


def tau_section(dgraph, l, order, zpoint=None):
    """Truncated series of the weighted transform of one finite section; the
    apex shifts it by q^q(v), so the cone part is needed to order - q(v)."""
    c, q = zq_coeff(dgraph.v.zq_monomial(), zpoint)
    if q < 0:
        raise InvariantError(
            "vertex weight shift must have nonnegative q-degree")
    part = max(order - q, 0)
    gmap = dgraph.gw_map(l)
    total = TruncatedSeries.one(part, zpoint)
    for G, _b in dgraph.section_graphs(l):
        ct = ConeTransform.of_cone(G, 0).subs_monomials(gmap)
        total = total * ct.series_unit(part, zpoint)
    return total.scale(c).shift(q).truncate(order)


def tau_truncated(weight, v, order, zpoint=None):
    """Truncated transform of a vertex: one section, at the radius
    l* = max(lmin, (n-1)(order - q(v) + 2) + e), q(v) the vertex's q-degree,
    e = max(0, -(s + n - 1)) for a pure tail cut at s (v equals the periodic
    tail below s and vanishes from s on) and e = 0 for any other vertex.

    Sections l and l+1 differ by a series of q-valuation at least
    q(v) + floor((l - e)/(n-1)) - 1, so every section from l* on, and their
    limit, agree up to q^order.  Proof: the coordinates of a section are
    the partial sums S of the displacement from v.  `gw_map` gives
    position p the factor z_{r(p)}/z_{r(p+1)}, times q^-1 when (n-1) | p
    (Abel summation of the entry weights z_{r(i)} q^{Q(i)}), and the one
    vertex of the bottom row, which stands for every position below it,
    z_{r(l)} q^ccount.  Section l is the slice of section l+1 where S
    vanishes on row -l and is constant from row l on, so each term of
    their difference moves a vertex of row -l or of row l+1.
    - Row l+1 lies below the window of v, one position per row.  A step
      there carries the bottom factor, and ccount counts the multiples of
      n-1 among the l or so positions from 1 to the bottom row.
    - Row -l lies in the periodic tail.  Where a window sum of v is
      saturated, S(p) <= S(p - n), so a nonzero S at p in row -l stays
      nonzero at p + n, p + 2n, ... as long as their window sums are
      saturated: a chain with one position per row.  As n = 1 mod (n-1),
      one in every n-1 of its positions is a multiple of n-1, each a factor
      q^-S with -S >= 1.  A chain through the rows -l .. -n has l - (n-1)
      positions, so at least floor(l/(n-1)) - 1 such factors.
    - Unless v is a pure tail cut, every window sum of v is saturated up to
      position 0, and the chain reaches row -n.
    - A pure tail cut at s vanishes on [s, 0], so each p >= s is joined to
      p - 1, and the positions from s - 1 on lie on consecutive rows of the
      component of 0, which is anchored at row 0: position p on row p.  A
      position on a row <= s - 1 therefore lies below s, in the periodic
      tail, where every window sum is saturated; the window sums stop being
      saturated at the first nonzero tail entry at or above s.  So the chain
      reaches row s - 1 but need not reach row -n.  It misses at most the
      e rows s .. -n, and holds at least floor((l - e)/(n-1)) - 1 factors.
    The bound is reached by (1, 0) at n = 2 and by the tail-cut vertex of
    (1, 1) at q-degree 3, and with e > 0 by the tail cuts of (0, 1) at -2,
    of (1, 0) at -3 and of (0, 0, 1) at -6.  The span DELTA_SPAN + radius
    gives safe >= radius + 11 - n, and `DeltaGraph.lmin` keeps lmin below
    safe, so safe holds l* for n <= 11; `section_graphs` raises where it
    does not.
    """
    n = weight.n
    radius = (n - 1) * max(0, order - v.mu_exponent()[1] + 2)
    if not v.values:
        radius += max(0, -(v.start + n - 1))
    dg = DeltaGraph(weight, v, DELTA_SPAN + radius)
    return tau_section(dg, max(dg.lmin, radius), order, zpoint)


# ---------------------------------------------------------------------------
# relevant vertices
# ---------------------------------------------------------------------------

def vertex_from_cuts(weight, cuts):
    """Vertex determined by per-residue-class cut positions: the indicator is
    1 at positions <= the class cut and 0 above it; saturated window sums
    where the indicator holds, zero entries where it does not."""
    n, k = weight.n, weight.k
    byres = {r: c for r, c in zip(range(1, n), cuts)}
    if any((c - r) % (n - 1) for r, c in byres.items()):
        raise InvariantError(f"cuts {cuts} off their residue classes")

    def y(l):
        r = residue(l, n)
        return 1 if l <= byres[r] else 0

    lo = min(cuts) - 3 * n
    hi = max(cuts) + 3 * n
    vals = {}

    def get(l):
        if l < lo:
            return weight.a[l % n]
        return vals.get(l, 0)

    for l in range(lo, hi + 1):
        if y(l) == 0:
            vals[l] = 0
        else:
            vals[l] = k - sum(get(j) for j in range(l - n + 1, l))
            if vals[l] < 0:
                return None
    seq = PiSequence(weight, lo, tuple(vals[l] for l in range(lo, hi + 1)))
    if not seq.is_valid() or not seq.is_vertex():
        return None
    return seq


def vertices_relevant(weight, qmax):
    """Relevant vertices with weight q-degree at most qmax, with their cut
    fibers (several parametrizations can share a vertex for singular
    weights).  Returns {vertex: [cut tuples]}.

    One product of cut positions covers them: c_r = r mod (n-1) and
    L - n(n-1) <= c_r <= H + n - 1, with L = -n(n-1)(qmax+1) and
    H = (n-1)(qmax+1).
    - A sequence of q-degree at most qmax equals the base outside [L, H],
      as `enumerate_pi` proves.
    - A cut above H + n - 1 would force A = k at the cut, as the n-1
      entries before it lie above H and vanish.
    - A cut below L - n(n-1) would force zeros at the n positions
      c_r + j(n-1), j = 1..n, all below L.  These cover every residue
      mod n, but some a_j != 0.
    """
    n = weight.n
    lo, hi = _q_window(n, qmax)
    lo -= n * (n - 1)
    spans = [range(lo + (r - lo) % (n - 1), hi + n, n - 1)
             for r in range(1, n)]
    out = {}
    for cuts in itertools.product(*spans):
        v = vertex_from_cuts(weight, cuts)
        if v is not None and v.mu_exponent()[1] <= qmax:
            out.setdefault(v, []).append(cuts)
    return out


def verify_contrib(weight, qmax, trials=2, seed=0):
    """Check the vertex contribution theorem at the given truncation.

    (a) every relevant vertex's truncated transform equals the closed
        contribution of its group element (regular weight) or the
        factorial-scaled aggregation over the auxiliary regular weight
        (singular weight);
    (b) constructed non-relevant vertices give zero, to order qmax + 1 or
        their q-degree q(v), whichever is larger;
    (c) the relevant transforms sum to the Weyl-side series.
    """
    n = weight.n
    rng = _random.Random(seed)
    wl = weight.wlambda()
    checks, failures = [], []

    relevant = vertices_relevant(weight, qmax)
    irrelevant = nonrelevant_vertices(weight, 3)
    # check (a): a regular weight's group elements have distinct shifts
    by_shift = {e[2]: e for e in (weyl_elements(weight, qmax)
                                  if weight.is_regular() else ())}
    taus = {}
    for zpoint in _zpoints(weight, None, trials, rng):
        for v in relevant:
            taus[v] = tau_truncated(weight, v, qmax, zpoint)
        if weight.is_regular():
            for v, tau in taus.items():
                element = by_shift.get(v.zq_monomial())
                if element is None:
                    failures.append(f"vertex {v}: no group element")
                    continue
                closed = closed_form_contribution(weight, element, qmax,
                                                  zpoint)
                if not tau.equals(closed, up_to=qmax):
                    failures.append(f"closed form mismatch at {v}")
            checks.append(f"{len(taus)} closed forms")
        else:
            aux = AffineWeight(n, [x + 1 for x in weight.a])
            for v, fiber in relevant.items():
                shifts = []
                for cuts in fiber:
                    v1 = vertex_from_cuts(aux, cuts)
                    if v1 is None:
                        raise InvariantError(
                            f"cuts {cuts} give no vertex of {aux}")
                    shift = v.zq_monomial() * v1.zq_monomial().inv()
                    shifts.append((v1, zq_coeff(shift, zpoint)))
                headroom = max(0, max(-q for _, (_, q) in shifts))
                agg = TruncatedSeries.zero(qmax, zpoint)
                for v1, (c, q) in shifts:
                    tau1 = tau_truncated(aux, v1, qmax + headroom, zpoint)
                    agg = agg + tau1.scale(c).shift(q).truncate(qmax)
                if not taus[v].scale(wl).equals(agg, up_to=qmax):
                    failures.append(f"aggregation mismatch at {v}")
            checks.append(f"{len(taus)} fiber aggregations")
        # (b) constructed non-relevant vertices vanish; the apex shift
        # q^q(v) would empty a truncation below q(v) whatever the section
        for v in irrelevant:
            order = max(qmax + 1, v.mu_exponent()[1])
            if not tau_truncated(weight, v, order, zpoint).is_zero():
                failures.append(f"nonzero irrelevant vertex {v}")
        checks.append(f"{len(irrelevant)} irrelevant vertices vanish")
        # (c) the relevant transforms sum to the Weyl side
        total = sum(taus.values(), TruncatedSeries.zero(qmax, zpoint))
        lhs = lhs_series(weight, qmax, zpoint=zpoint)
        if not total.scale(wl).equals(lhs, up_to=qmax):
            failures.append("vertex sum != Weyl sum")
        else:
            checks.append("vertex sum matches Weyl sum")
    return {"ok": not failures, "checks": checks, "failures": failures}


def is_relevant_vertex(weight, v):
    """No equality-graph component gains vertices from one row to the next."""
    dg = DeltaGraph(weight, v, DELTA_SPAN)
    return not any(-dg.safe < r <= dg.safe and c > rows.get(r - 1, 0)
                   for rows in dg.row_counts().values()
                   for r, c in rows.items())


def nonrelevant_vertices(weight, count):
    """Vertices with an isolated saturated entry above a vanishing one."""
    n, k = weight.n, weight.k
    out = []
    gap = 1
    while len(out) < count and gap < count + 8:
        # periodic tail up to 0, then `gap` zeros, then the full level once
        vals = [0] * gap + [k] + [0] * (n - 1)
        seq = PiSequence(weight, 1, tuple(vals))
        if seq.is_valid() and seq.is_vertex() and \
                not is_relevant_vertex(weight, seq):
            out.append(seq)
        gap += 1
    if len(out) != count:
        raise InvariantError("could not construct enough irrelevant vertices")
    return out


def apply_G(weight, exps):
    """Sequence-space specialization: position i carries z_{r(i)} q^{Q(i)}."""
    n = weight.n
    out = {}
    for i, e in exps.items():
        if not e:
            continue
        r = zvar(residue(i, n))
        out[r] = out.get(r, 0) + e
        q = qshift(i, n)
        if q:
            out["q"] = out.get("q", 0) + q * e
    return Monomial({k: v for k, v in out.items() if v})


def p_weight_via_delta(weight, A):
    """Face weight of a point computed from its equality-graph components.

    Independent of the row-value-run route: the weight is read off from the
    per-row vertex counts of the component representatives, so it manifestly
    depends only on the set of tight constraints at the point.
    """
    dg = DeltaGraph(weight, A, DELTA_SPAN)
    out = T_ONE
    for rows in dg.row_counts().values():
        # stability at the scan boundary: the contributing row pairs must
        # lie well inside the window
        for r in range(-dg.safe, dg.safe + 1):
            l = rows.get(r, 0)
            if l and rows.get(r - 1, 0) == l - 1:
                if r == -dg.safe:
                    raise InvariantError(
                        "unstable top boundary in face weight scan")
                out = out * (T_ONE - TPoly.t(l))
    return out
