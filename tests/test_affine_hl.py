import functools
import itertools
import math
import random
import sys
from collections import Counter
from fractions import Fraction
from operator import add

import pytest
from hypothesis import given, seed, settings, strategies as st

from hlbrion import affine_hl, graphs, ring
from hlbrion.affine_hl import (
    DELTA_SPAN, AffineWeight, DeltaGraph, _pi_step, apply_G,
    closed_form_contribution, coset_representatives, d_stats, enumerate_pi,
    flip_set, is_relevant_vertex, lhs_series, nonrelevant_vertices, p_weight,
    PiSequence, qshift, random_zpoint, rhs_series, rhs_table, s_ij,
    t0_sequence, tau_section, tau_truncated, vertex_from_cuts,
    vertices_relevant, verify_contrib, verify_main, weyl_elements,
    zq_of_shift, zvar,
)
from hlbrion.ring import (
    Coeff, DomainMismatch, EVALUATED, InvariantError, LaurentPoly, Monomial,
    SYMBOLIC_Z, TPoly, TruncatedSeries, exact_div_binomials, zq_coeff,
)


def tp(*coeffs):
    return TPoly.from_list(list(coeffs))


L0 = AffineWeight(2, [1, 0])
L01 = AffineWeight(2, [1, 1])
L0_3 = AffineWeight(3, [1, 0, 0])


def test_weight_basics():
    assert L0.k == 1 and L01.k == 2
    assert L0.cycle_paths() == [2] and L0.m_count() == 1
    assert L01.cycle_paths() == [1, 1] and L01.m_count() == 2
    assert L0.wlambda() == tp(1, 1)
    assert L01.wlambda() == TPoly.one()
    assert L0_3.cycle_paths() == [3]


@pytest.mark.parametrize("n, a", [
    (2, (1.7, 0)), (2.9, [1, 1]), (2, ["1", 1]), (2, [True, 1]),
    (2, [1, False]), ("2", [1, 0]), (2.0, [1, 0])])
def test_weight_refuses_non_integer_input(n, a):
    # int() would truncate 1.7 to 1, 2.9 to 2 and read "1" and True as 1
    with pytest.raises(ValueError):
        AffineWeight(n, a)


def test_t0_sequence():
    t0 = t0_sequence(L0, 0)
    assert [t0.get(i) for i in range(-4, 3)] == [1, 0, 1, 0, 1, 0, 0]
    assert t0.mu_exponent() == ((0,), 0)
    t1 = t0_sequence(L0, 1)
    assert [t1.get(i) for i in range(-1, 4)] == [0, 1, 0, 1, 0]
    assert t1.get(2) == L0.a[0]


@st.composite
def pi_windows(draw):
    """(raw function, its PiSequence, the same function over a wider window).

    The wider window prepends periodic-tail values, appends zeros, or, for a
    sequence that is only a cut of the tail, moves the cut through a run of
    zero tail values.
    """
    n = draw(st.integers(2, 4))
    a = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n).filter(any))
    w = AffineWeight(n, a)
    start = draw(st.integers(-6, 6))
    values = draw(st.lists(st.integers(0, 3), max_size=6))

    def f(i):
        if i < start:
            return a[i % n]
        return values[i - start] if i < start + len(values) else 0

    seq = PiSequence(w, start, values)
    up = 0
    if not seq.values:
        while a[(seq.start + up) % n] == 0:
            up += 1
    lo = seq.start + draw(st.integers(-2 * n, up))
    hi = max(lo, seq.start + len(seq.values)) + draw(st.integers(0, 3))
    return f, seq, PiSequence(w, lo, [f(i) for i in range(lo, hi)])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@seed(2019)
@given(pi_windows())
def test_pi_sequence_key_is_window_independent(case):
    f, seq, wide = case
    lo = min(seq.start, wide.start) - 8
    hi = max(seq.window()[1], wide.window()[1]) + 8
    assert all(seq.get(i) == f(i) == wide.get(i) for i in range(lo, hi))
    assert wide.key() == seq.key()
    assert wide == seq and hash(wide) == hash(seq)


def test_pi_sequence_strips_a_long_padded_window():
    # a window padded with thousands of tail entries on the left and zeros
    # on the right is cut back to the same key
    w = AffineWeight(3, (1, 0, 2))
    for A in enumerate_pi(w, 2) + [t0_sequence(w, m) for m in (-2, 0, 3)]:
        lo = A.start - 6000
        hi = A.window()[1] + 6000
        wide = PiSequence(w, lo, [A.get(i) for i in range(lo, hi + 1)])
        assert wide.key() == A.key() and hash(wide) == hash(A)
        assert wide.sums == A.sums


def test_pi_sequence_compares_unequal_to_other_types():
    # `vertex_from_cuts` returns None for cuts that give no vertex, so a
    # list of its results can hold None next to sequences
    A = t0_sequence(L0)
    assert A.__eq__(None) is NotImplemented
    assert A != None and not A == None  # noqa: E711
    assert A != A.key() and A in [None, A] and None not in [A]


def chi_reference(A, i):
    """chi summed term by term over the n positions ending at i."""
    return sum(A.get(j) for j in range(i - A.weight.n + 1, i + 1))


def test_chi_and_s_ij_match_term_by_term_references():
    for weight in (L0, L01, AffineWeight(3, (1, 1, 0))):
        n = weight.n
        bases = [PiSequence(weight, start, ()) for start in range(-4, 5)]
        assert all(not A.values for A in bases)
        for A in enumerate_pi(weight, 3) + bases:
            lo, hi = A.window()
            for i in range(lo - 3 * n, hi + 3 * n):
                assert A.chi(i) == chi_reference(A, i), (A, i)
            for i in range(-4, 5):
                for j in range(-3 * n, 3 * n):
                    assert s_ij(A, i, j) == s_ij_reference(A, i, j), (A, i, j)


def s_ij_reference(A, i, j):
    """s_ij summed term by term from below the window of A."""
    weight = A.weight
    n = weight.n
    cut = i * n + j * (n - 1)
    m = i + j
    lo = min(A.start, m * n + 1) - n
    total = 0
    for l in range(lo, cut + 1):
        tm = weight.a[l % n] if l <= m * n else 0
        total += A.get(l) - tm
    for l in range(cut + 1, m * n + 1):
        total -= weight.a[l % n]
    return total


def test_s_ij_values():
    t0 = t0_sequence(L0)
    assert s_ij(t0, 0, 0) == 0
    assert s_ij(t0, 0, 1) == -1
    for weight, qmax in ((L0, 3), (L01, 2), (L0_3, 2),
                         (AffineWeight(3, [0, 1, 2]), 1)):
        for A in enumerate_pi(weight, qmax):
            for i in range(-3, 4):
                for j in range(-4, 5):
                    assert s_ij(A, i, j) == s_ij_reference(A, i, j), (A, i, j)
    # shift law s_{i-n+1, j+n} = s_{i,j} - k on several patterns
    for A in enumerate_pi(L0, 2):
        for i in range(-1, 2):
            for j in range(-2, 3):
                assert s_ij(A, i - 1, j + 2) == s_ij(A, i, j) - L0.k


def test_plane_pattern_interlacing():
    for A in enumerate_pi(L01, 2):
        for i in range(-2, 3):
            for j in range(-2, 3):
                assert s_ij(A, i, j) >= s_ij(A, i + 1, j) >= s_ij(A, i, j + 1)
                # tie conditions match the sequence data
                n = L01.n
                assert (s_ij(A, i + 1, j) == s_ij(A, i, j + 1)) == \
                    (A.get((i + 1) * n + j * (n - 1)) == 0)
                assert (s_ij(A, i + 1, j) == s_ij(A, i, j)) == \
                    (A.chi((i + 1) * n + j * (n - 1)) == L01.k)


def test_enumerate_pi_small():
    assert enumerate_pi(L0, 0) == [t0_sequence(L0)]
    els = enumerate_pi(L0, 1)
    assert len(els) == 4
    mus = sorted(A.mu_exponent() for A in els)
    assert mus == [((-1,), 1), ((0,), 0), ((0,), 1), ((1,), 1)]
    # the q^1 element with trivial z-part deviates at positions 0 and 1
    special = [A for A in els if A.mu_exponent() == ((0,), 1)][0]
    assert special.get(0) == 0 and special.get(1) == 1


# the grow-until-stable searches that the proven q-windows replaced, kept as
# references: each searches a guessed window, then grows it until two
# consecutive searches agree

def enumerate_pi_reference(weight, qmax):
    n, k, a = weight.n, weight.k, weight.a

    def collect(lo, hi):
        qcoef = {i: qshift(i, n) for i in range(lo, hi + 1)}
        base = {i: (a[i % n] if i <= 0 else 0) for i in range(lo, hi + 1)}
        states = list(itertools.product(range(k + 1), repeat=n - 1))
        min_rem = [{} for _ in range(hi - lo + 2)]
        for st in states:
            min_rem[hi - lo + 1][st] = 0
        for pos in range(hi, lo - 1, -1):
            for st in states:
                vals = [qcoef[pos] * (v - base[pos])
                        + min_rem[pos - lo + 1][st[1:] + (v,)]
                        for v in range(k - sum(st) + 1)
                        if st[1:] + (v,) in min_rem[pos - lo + 1]]
                if vals:
                    min_rem[pos - lo][st] = min(vals)
        out = []
        seq = []

        def rec(pos, st, acc):
            rem = min_rem[pos - lo].get(st)
            if rem is None or acc + rem > qmax:
                return
            if pos > hi:
                cand = PiSequence(weight, lo, tuple(seq))
                if cand.is_valid() and 0 <= cand.mu_exponent()[1] <= qmax:
                    out.append(cand)
                return
            for v in range(k - sum(st) + 1):
                seq.append(v)
                rec(pos + 1, st[1:] + (v,), acc + qcoef[pos] * (v - base[pos]))
                seq.pop()

        rec(lo, tuple(a[(lo - j) % n] for j in range(n - 1, 0, -1)), 0)
        return set(out)

    hi, lo = (n - 1) * (qmax + 2) + n, -n * (qmax + 3)
    prev = None
    for _ in range(30):
        cur = collect(lo, hi)
        if cur == prev:
            return sorted(cur, key=lambda s: (s.mu_exponent()[1], s.key()))
        prev = cur
        lo -= n
        hi += n - 1
    raise RuntimeError("sequence window failed to stabilize")


def vertices_relevant_reference(weight, qmax):
    n = weight.n
    prev_keys = None
    for reach in range(2, 9):
        found = {}
        spans = [range(r - reach * (n - 1) * n, r + reach * (n - 1) * n + 1,
                       n - 1) for r in range(1, n)]
        for cuts in itertools.product(*spans):
            v = vertex_from_cuts(weight, cuts)
            if v is not None and 0 <= v.mu_exponent()[1] <= qmax:
                found.setdefault(v, []).append(cuts)
        if set(found) == prev_keys:
            return found
        prev_keys = set(found)
    raise RuntimeError("relevant vertex window failed to stabilize")


def small_weights(n, level):
    for a in itertools.product(range(level + 1), repeat=n):
        if 0 < sum(a) <= level:
            yield AffineWeight(n, a)


def test_enumerate_pi_matches_the_growing_window_reference():
    cases = 0
    for n, level, qmax in ((2, 3, 5), (3, 2, 3), (4, 1, 2)):
        for weight in small_weights(n, level):
            for q in range(qmax + 1):
                assert enumerate_pi(weight, q) == \
                    enumerate_pi_reference(weight, q), (weight, q)
                cases += 1
    assert cases == 102


def test_enumerate_pi_stays_in_its_window():
    # valid, equal to the base outside [L, H], and sorted by the q-degree of
    # mu_exponent
    for n, level, qmax in ((2, 3, 6), (3, 3, 3), (4, 2, 2), (5, 1, 1)):
        lo, hi = -n * (n - 1) * (qmax + 1), (n - 1) * (qmax + 1)
        for weight in small_weights(n, level):
            t0 = t0_sequence(weight)
            els = enumerate_pi(weight, qmax)
            for A in els:
                assert A.is_valid(), A
                assert all(lo <= i <= hi for i in support_diff(A)), A
            keys = [(A.mu_exponent()[1], A.key()) for A in els]
            assert keys == sorted(set(keys)) and keys[-1][0] <= qmax
            assert t0 in els


def support_diff(A):
    """Nonzero differences against the base sequence, as {i: d_i}; the base
    equals the tail at and below 0 and vanishes above."""
    a, n = A.weight.a, A.weight.n
    out = {}
    for i in range(min(A.start, 1), max(A.start + len(A.values), 1)):
        d = A.get(i) - (a[i % n] if i <= 0 else 0)
        if d:
            out[i] = d
    return out


def mu_exponent_reference(A):
    """(z-exponent vector, q-degree) of `apply_G` summed over the entries
    of `support_diff`."""
    m = apply_G(A.weight, support_diff(A))
    return (tuple(m.exp_of(zvar(r)) for r in range(1, A.weight.n)),
            m.exp_of("q"))


def test_mu_exponent_matches_the_support_diff_sum():
    # every basis sequence for n <= 4, and base sequences shifted up and
    # down, whose windows start above 1 or end at or below 0
    cases = 0
    for n, level, qmax in ((2, 3, 5), (3, 2, 3), (4, 1, 2)):
        for weight in small_weights(n, level):
            shifted = [t0_sequence(weight, m) for m in (-2, -1, 1, 3)]
            for A in enumerate_pi(weight, qmax) + shifted:
                assert A.mu_exponent() == mu_exponent_reference(A), A
                cases += 1
    assert cases == 4707


def test_d_stats_and_p_weight():
    assert d_stats(t0_sequence(L0)) == {}
    assert p_weight(t0_sequence(L0)) == TPoly.one()
    special = [A for A in enumerate_pi(L0, 1)
               if A.mu_exponent() == ((0,), 1)][0]
    assert p_weight(special) == TPoly.one() - TPoly.t(2)
    # level 1, n = 2: no value ever repeats more than twice in a row
    for A in enumerate_pi(L0, 4):
        assert all(l <= 2 for l in d_stats(A))
    # t = 0 specialization of every weight is 1
    for A in enumerate_pi(L01, 3):
        w = p_weight(A)
        assert w.c.get(0) == 1


# the sets of the search's tests: (n, level, qmax), every weight of that
# level or below, and one weight at n = 5
SEARCH_SETS = [(2, 3, 6), (3, 2, 3), (4, 2, 2)]
N5_WEIGHT = AffineWeight(5, (1, 0, 0, 0, 0))


def search_cases():
    for n, level, qmax in SEARCH_SETS:
        for weight in small_weights(n, level):
            yield weight, qmax
    yield N5_WEIGHT, 3


def test_search_carries_each_leafs_shift_profile_and_window():
    # the search's shift and profile are mu_exponent's and d_stats', and
    # each leaf is the sequence PiSequence strips off its whole [L, H]
    # window, pure tail cuts too, whose start moves down over zero tail
    # entries
    cases = lowered = 0
    for weight, qmax in search_cases():
        n, a = weight.n, weight.a
        lo, hi = -n * (n - 1) * (qmax + 1), (n - 1) * (qmax + 1)
        for A in enumerate_pi(weight, qmax):
            assert A.shift == A.mu_exponent(), A
            assert A.profile == tuple(sorted(d_stats(A).items())), A
            full = PiSequence(weight, lo, [A.get(i) for i in range(lo, hi + 1)])
            assert (full.key(), full.sums) == (A.key(), A.sums), A
            lowered += not A.values and a[A.start % n] == 0
            cases += 1
    assert (cases, lowered) == (13067, 113)


def rhs_table_reference(weight, qmax):
    """rhs_table by one walk per basis element: mu_exponent and d_stats of
    each sequence, and its weight as a product of powers of (1 - t^l)."""
    rows = []
    for A in enumerate_pi(weight, qmax):
        w = TPoly.one()
        for l, d in d_stats(A).items():
            w = w * (TPoly.one() - TPoly.t(l)) ** d
        zvec, qdeg = A.mu_exponent()
        rows.append((qdeg, zvec, w))
    return rows


def test_rhs_table_rows_are_the_per_sequence_weights():
    # rhs_table builds each distinct weight once from the profiles the
    # search carries; its rows are those of one walk per basis element, in
    # order: nine n = 2 weights of level <= 3 at qmax 5, nine n = 3 weights
    # of level <= 2 at qmax 2, three n = 4 weights at qmax 3 and p_weight
    lists = [(list(small_weights(2, 3)), 5), (list(small_weights(3, 2)), 2),
             ([AffineWeight(4, a) for a in
               ((1, 0, 0, 0), (1, 1, 0, 0), (0, 1, 0, 1))], 3)]
    rows = []
    for weights, qmax in lists:
        for w in weights:
            table = rhs_table(w, qmax)
            assert table == rhs_table_reference(w, qmax), w.a
            rows.append(len(table))
    assert sum(rows[:9]) == 1580 and sum(rows) == 8882
    for w in lists[0][0]:
        assert [row[2] for row in rhs_table(w, 5)] == \
            [p_weight(A) for A in enumerate_pi(w, 5)], w.a


@pytest.mark.parametrize("side", [enumerate_pi, rhs_table, rhs_series,
                                  lhs_series])
def test_a_negative_qmax_raises_on_both_sides(side):
    with pytest.raises(ValueError, match="qmax must be nonnegative"):
        side(L0, -1)


def d_stats_reference(A):
    """d_stats by materialised rows over a certified scan window: on the
    left the two rows are equal (saturated window sums), on the right they
    match after an index shift (zero sequence entries); both ends are cut
    at strict drops so no value run straddles the boundary."""
    weight = A.weight
    n, k = weight.n, weight.k
    lo, hi = A.window()
    if not A.values:
        lo, hi = A.start - 1, A.start
    out = {}
    for i in range(1, n):
        # left: saturated zone once positions drop below the deviation window
        jl = (lo - n - i * n) // (n - 1) - 2
        while not (A.chi(i * n + jl * (n - 1)) == k and
                   A.chi((i - 1) * n + jl * (n - 1)) == k and
                   s_ij(A, i, jl) == s_ij(A, i - 1, jl)):
            jl -= 1
        # right: zero zone
        jr = (hi + n - i * n) // (n - 1) + 2
        while not (A.get(i * n + jr * (n - 1)) == 0 and
                   s_ij(A, i, jr) == s_ij(A, i - 1, jr + 1)):
            jr += 1
        # cut at strict drops so runs do not straddle
        while s_ij(A, i, jl - 1) == s_ij(A, i, jl):
            jl -= 1
        while s_ij(A, i, jr) == s_ij(A, i, jr + 1):
            jr += 1
        if not (s_ij(A, i, jl - 1) > s_ij(A, i, jl) and
                s_ij(A, i, jr) > s_ij(A, i, jr + 1)):
            raise InvariantError(f"row {i} scan window not cut at strict drops")
        counts_i = Counter(s_ij(A, i, j) for j in range(jl, jr + 1))
        counts_up = Counter(s_ij(A, i - 1, j) for j in range(jl, jr + 2))
        for v, l in counts_i.items():
            if counts_up[v] == l - 1:
                out[l] = out.get(l, 0) + 1
    return out


def test_d_stats_matches_the_certified_scan_reference():
    cases = 0
    for n, level, qmax in ((2, 3, 5), (3, 2, 3), (4, 1, 2), (5, 1, 2)):
        for weight in small_weights(n, level):
            for A in enumerate_pi(weight, qmax):
                assert d_stats(A) == d_stats_reference(A), A
                cases += 1
    assert cases == 6068


def test_p_weight_face_invariance():
    # the weight only sees the tight constraints: the component-count route
    # agrees with the row-run route, and equal tightness patterns give equal
    # weights
    from hlbrion.affine_hl import p_weight_via_delta
    cases = [(L0, 4), (L01, 3)]
    cases += [(w, 2) for w in small_weights(3, 2)]
    cases += [(w, 2) for w in small_weights(4, 1)]
    for weight, qmax in cases:
        els = enumerate_pi(weight, qmax)
        lo = min(A.window()[0] for A in els) - weight.n
        hi = max(A.window()[1] for A in els) + weight.n
        groups = {}
        for A in els:
            assert p_weight_via_delta(weight, A) == p_weight(A), A
            sig = tuple((A.get(i) == 0, A.chi(i) == weight.k)
                        for i in range(lo, hi + 1))
            groups.setdefault(sig, []).append(A)
        for g in groups.values():
            ws = {tuple(sorted(p_weight(A).c.items())) for A in g}
            assert len(ws) == 1, g


def test_rhs_series_values():
    s = rhs_series(L0, 0)
    assert s.equals(TruncatedSeries.one(0))
    s = rhs_series(L0, 1)
    z = LaurentPoly.var(zvar(1))
    zinv = LaurentPoly.var(zvar(1), -1)
    expect = TruncatedSeries(1, {
        0: Coeff.one(),
        1: Coeff(z + zinv + LaurentPoly.const(tp(1, 0, -1)))})
    assert s.equals(expect)


def rhs_series_reference(weight, qmax, zpoint):
    """The basis sum as Coeff sums: rhs_table's rows, one Coeff per row,
    added in the table's order; {q-degree: Coeff}."""
    coeffs = {}
    for qdeg, zvec, w in rhs_table(weight, qmax):
        c, qd = zq_coeff(zq_of_shift((0,) + zvec, qdeg), zpoint)
        coeffs[qd] = coeffs.get(qd, Coeff.zero()) + c * w
    return coeffs


def test_rhs_series_matches_the_row_by_row_coeff_sum():
    # the integer sums keep the Coeff sums' num and den as accumulated,
    # which the CLI prints at a z-point: symbolic z, three seeded points and
    # points with a negative coordinate, where terms cancel to a zero sum
    rng = random.Random(25)
    negative = {2: [{zvar(1): Fraction(-1)}, {zvar(1): Fraction(-1, 2)}],
                3: [{zvar(1): Fraction(-1), zvar(2): Fraction(2)}],
                4: []}
    cases = 0
    for n, level, qmax in ((2, 3, 5), (3, 2, 2), (4, 1, 2)):
        for weight in small_weights(n, level):
            for zpoint in ([None] + [random_zpoint(n, rng) for _ in range(3)]
                           + negative[n]):
                got = rhs_series(weight, qmax, zpoint=zpoint)
                want = {q: c for q, c in
                        rhs_series_reference(weight, qmax, zpoint).items()
                        if not c.is_zero()}
                assert got.coeffs.keys() == want.keys(), (weight, zpoint)
                for q, c in got.coeffs.items():
                    assert c.num.to_text() == want[q].num.to_text(), q
                    assert c.den.to_text() == want[q].den.to_text(), q
                cases += 1
    assert cases == 115


def test_weyl_act_and_elements():
    # shift monomial and q-degree of w(lam) - lam, lam = (1, 0) at level 2,
    # for w = (translation tau) o sigma
    shifts = {(sigma, tau): (m, qd) for sigma, tau, m, qd
              in weyl_elements(L01, 3)}
    assert shifts[(0, 1), (0, 0)] == (Monomial.unit(), 0)
    # the finite reflection permutes coordinates: epsilon-part (-1, 1)
    assert shifts[(1, 0), (0, 0)] == (Monomial({zvar(1): 1}), 0)
    # translation: k tau added, epsilon-part (2, -2), q-degree
    # <lam, tau> + k |tau|^2 / 2 = 3
    assert shifts[(0, 1), (1, -1)] == (Monomial({zvar(1): -2, "q": 3}), 3)
    # orbit weight shifts at q-degree 1 for the basic weight: z and 1/z
    shifts = {(m.exp_of(zvar(1)), qd)
              for _, _, m, qd in weyl_elements(L0, 1)}
    assert (1, 1) in shifts and (-1, 1) in shifts and (0, 0) in shifts
    assert (0, 1) not in shifts


def test_verify_main_small():
    assert verify_main(L0, 4)
    assert verify_main(L01, 3)
    assert verify_main(L0_3, 2, trials=2, seed=11)
    # zero trials would check nothing, symbolic z or not
    for weight in (L0, L0_3):
        with pytest.raises(ValueError, match="trials"):
            verify_main(weight, 1, trials=0)


def test_verify_main_evaluated_n4():
    # the Weyl side is evaluated only after its pi steps: at a z-point every
    # coefficient is an integer t-polynomial over an integer
    weight = AffineWeight(4, [1, 0, 0, 0])
    lhs = lhs_series(weight, 3, zpoint=random_zpoint(4, random.Random(5)))
    assert lhs.coeffs and all(set(c.num.terms) == {Monomial.unit()}
                              and set(c.den.terms) == {Monomial.unit()}
                              for c in lhs.coeffs.values())
    assert verify_main(weight, 3, trials=1, seed=5)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_verify_main_symbolic_reaches_n4_to_n6(n):
    # exact, with no random point: about 0.05 s at n = 4, 0.1 s at n = 5 and
    # 0.5 s at n = 6
    a = (1,) + (0,) * (n - 1)
    assert verify_main(AffineWeight(n, a), 2, domain=SYMBOLIC_Z)


@pytest.mark.parametrize("n, qmax", [(4, 4), (5, 2)])
def test_verify_main_evaluated_reaches_n4_qmax4_and_n5(n, qmax):
    # one seeded trial each, the reach targets of the Weyl side
    a = (1,) + (0,) * (n - 1)
    assert verify_main(AffineWeight(n, a), qmax, trials=1, seed=5)


def test_verify_main_evaluated_matches_symbolic():
    # same identity through the evaluated domain
    assert verify_main(L0, 3, domain="EVALUATED", trials=2, seed=3)


def test_series_without_a_point_are_symbolic_for_every_n():
    # the z-point alone decides: no point means symbolic z, also at n = 3
    w = AffineWeight(3, (1, 0, 0))
    assert lhs_series(w, 1).equals(lhs_series(w, 1, SYMBOLIC_Z))
    assert rhs_series(w, 1).equals(rhs_series(w, 1, SYMBOLIC_Z))


def test_series_at_different_zpoints_do_not_combine():
    w = AffineWeight(3, (1, 0, 0))
    rng = random.Random(4)
    p1, p2 = random_zpoint(3, rng), random_zpoint(3, rng)
    assert p1 != p2
    a = rhs_series(w, 1, EVALUATED, p1)
    b = rhs_series(w, 1, EVALUATED, p2)
    for op in (lambda: a + b, lambda: a * b, lambda: a.equals(b)):
        with pytest.raises(DomainMismatch):
            op()
    # an equal point combines, whether or not it is the same dict
    assert a.equals(rhs_series(w, 1, EVALUATED, dict(p1)))


def test_a_domain_that_disagrees_with_the_point_raises():
    w = AffineWeight(3, (1, 0, 0))
    zpoint = random_zpoint(3, random.Random(4))
    for series in (lhs_series, rhs_series):
        with pytest.raises(DomainMismatch):
            series(w, 1, EVALUATED)
        with pytest.raises(DomainMismatch):
            series(w, 1, SYMBOLIC_Z, zpoint)


def test_is_vertex():
    assert t0_sequence(L0).is_vertex()
    special = [A for A in enumerate_pi(L0, 1)
               if A.mu_exponent() == ((0,), 1)][0]
    assert special.is_vertex()
    assert not is_relevant_vertex(L0, special)
    # an interior-type point of a higher face is not a vertex
    mid = PiSequence(L01, 1, (0, 1))
    assert mid.is_valid() and not mid.is_vertex()


def test_vertices_relevant():
    rel = vertices_relevant(L0, 2)
    t0 = t0_sequence(L0)
    assert t0 in rel
    assert len(rel[t0]) == 2   # two parametrizations share the vertex
    qdeg0 = [v for v in rel if v.mu_exponent()[1] == 0]
    assert qdeg0 == [t0]
    rel2 = vertices_relevant(L01, 2)
    assert all(len(f) == 1 for f in rel2.values())
    assert len([v for v in rel2 if v.mu_exponent()[1] == 0]) == 2
    for v in rel2:
        assert v.is_vertex() and is_relevant_vertex(L01, v)


def test_vertices_relevant_match_the_growing_window_reference():
    cases = 0
    for n, level, qmax in ((2, 3, 3), (3, 2, 2)):
        for weight in small_weights(n, level):
            for q in range(qmax + 1):
                got = vertices_relevant(weight, q)
                want = vertices_relevant_reference(weight, q)
                assert list(got.items()) == list(want.items()), (weight, q)
                cases += 1
    assert cases == 63


def test_delta_graph_structure():
    dg = DeltaGraph(L0, t0_sequence(L0), 6)
    assert dg.m == 1
    secs = dg.section_graphs(dg.lmin)
    assert len(secs) == 1
    G, b = secs[0]
    assert b == 0
    assert G.l == 2   # the single component has two top vertices
    dg2 = DeltaGraph(L01, t0_sequence(L01), 6)
    assert dg2.m == 2
    for G, _ in dg2.section_graphs(dg2.lmin):
        assert all(len(js) == 1 for js in G.rows.values())  # paths


def test_delta_graph_rejects_non_vertex():
    # position 2 holds 1, but its window sum 1 is below the level 2; the
    # embedding takes any point, a section only a vertex
    v = PiSequence(L01, 1, (0, 1))
    dg = DeltaGraph(L01, v, 6)
    with pytest.raises(InvariantError, match="not a vertex"):
        dg.section_graphs(1)
    with pytest.raises(InvariantError, match="not a vertex"):
        tau_truncated(L01, v, 1)


def delta_embedding_reference(dg):
    """(row, comp, m) of the two-pass embedding that DeltaGraph replaced:
    a union-find over the positions for the components, numbered by their
    smallest positions, then a search per component for the rows, from its
    member nearest the origin on the row of its residue class nearest 0."""
    weight, v = dg.weight, dg.v
    n = weight.n
    rng = range(dg.p0, dg.p1 + 1)
    # each edge joins p to the position one row above it
    edges = [(p, p - d) for p in rng
             for d, tight in ((1, v.get(p) == 0), (n, v.chi(p) == weight.k))
             if tight and p - d >= dg.p0]
    dsu = graphs._DSU(rng)
    adj = {p: [] for p in rng}
    for p, q in edges:
        dsu.union(p, q)
        adj[p].append((q, -1))
        adj[q].append((p, 1))
    labels = {}
    for p in rng:
        labels.setdefault(dsu.find(p), len(labels))
    comp = {p: labels[dsu.find(p)] for p in rng}
    row = {}
    for label in range(len(labels)):
        anchor = min((p for p in rng if comp[p] == label), key=abs)
        r0 = anchor % (n - 1)
        stack = [(anchor, r0 - (n - 1) if r0 > (n - 1) // 2 else r0)]
        while stack:
            q, r = stack.pop()
            if q not in row:
                row[q] = r
                stack += [(x, r + d) for x, d in adj[q]]
            assert row[q] == r
    return row, comp, len(labels)


def test_delta_graph_matches_the_union_find_embedding():
    # the relevant vertices and three constructed non-relevant ones of every
    # weight of n = 2 at level <= 2 (qmax 2), n = 3 at level <= 2 (qmax 1)
    # and n = 4 at level <= 2 (qmax 0), and a sample of 40 points of
    # q-degree <= 1 from seed 39, half of them no vertex, as the face weight
    # oracle embeds them; at the span of the relevance test and at the
    # larger span of a section
    cases, points = [], []
    for n, level, qmax in ((2, 2, 2), (3, 2, 1), (4, 2, 0)):
        for weight in small_weights(n, level):
            cases += [(weight, v) for v in vertices_relevant(weight, qmax)]
            cases += [(weight, v) for v in nonrelevant_vertices(weight, 3)]
            points += [(weight, A) for A in enumerate_pi(weight, 1)]
    cases += random.Random(39).sample(points, 40)
    for weight, v in cases:
        for span in (DELTA_SPAN, DELTA_SPAN + 6):
            dg = DeltaGraph(weight, v, span)
            assert (dg.row, dg.comp, dg.m) == \
                delta_embedding_reference(dg), (weight, v)
    assert len(cases) == 276


def test_nonrelevant_vertices_of_singular_n4_weights():
    # the singular n = 4 weights whose constructed vertices have no valid
    # section floor at the span of the relevance test, which that test does
    # not read
    for a in ((0, 0, 0, 1), (0, 0, 0, 2), (0, 0, 1, 0), (0, 0, 1, 1),
              (0, 0, 2, 0), (1, 0, 0, 0), (1, 0, 0, 1), (1, 0, 1, 0),
              (2, 0, 0, 0)):
        weight = AffineWeight(4, a)
        found = nonrelevant_vertices(weight, 3)
        assert len(set(found)) == 3, a
        assert all(v.is_vertex() and not is_relevant_vertex(weight, v)
                   for v in found), a


def test_dl_cone_regular_unimodular():
    # regular weight: sections are paths, so the cones are simplicial and
    # unimodular with generators supported on contiguous blocks
    from hlbrion.graphs import ConeTransform
    dg = DeltaGraph(L01, t0_sequence(L01), 10)
    for G, b in dg.section_graphs(dg.lmin):
        ct = ConeTransform.of_cone(G, 0)
        assert ct.plan.n == len(G.vertices) - 0  # one block per vertex? no:
        # top row merged into the pin; every other block is a single vertex
        assert all(len(blk) == 1 or any(v in G.top for v in blk)
                   for blk in ct.plan.blocks)
        for m in ct.cut_monomials():
            assert all(abs(e) == 1 for _, e in m.e)


def test_apply_G():
    w = L0_3
    # position i carries z_{r(i)} q^{Q(i)} with the remainder in [1, n-1]
    assert apply_G(w, {1: 1}) == Monomial({zvar(1): 1})
    assert apply_G(w, {2: 1}) == Monomial({zvar(2): 1})
    assert apply_G(w, {3: 1}) == Monomial({zvar(1): 1, "q": 1})
    assert apply_G(w, {0: 1}) == Monomial({zvar(2): 1, "q": -1})
    for A in enumerate_pi(w, 2):
        assert A.zq_monomial() == apply_G(w, support_diff(A))


def test_tau_matches_closed_form():
    v0 = t0_sequence(L01)
    tau = tau_truncated(L01, v0, 3)
    hits = [e for e in weyl_elements(L01, 3) if e[2] == v0.zq_monomial()]
    assert len(hits) == 1
    closed = closed_form_contribution(L01, hits[0], 3, None)
    assert tau.equals(closed, up_to=3)
    # identity element: (1 - t z)/(1 - z) at q^0
    z = LaurentPoly.var(zvar(1))
    assert tau.coeff(0) == Coeff(LaurentPoly.one() - z * TPoly.t(),
                                 LaurentPoly.one() - z)
    # the same at a rational z-point, for every relevant vertex
    zpoint = random_zpoint(2, random.Random(3))
    elements = weyl_elements(L01, 2)
    for v in vertices_relevant(L01, 2):
        element, = [e for e in elements if e[2] == v.zq_monomial()]
        tau = tau_truncated(L01, v, 2, zpoint)
        closed = closed_form_contribution(L01, element, 2, zpoint)
        assert tau.equals(closed, up_to=2)


def test_tau_nonrelevant_vanishes():
    for v in nonrelevant_vertices(L01, 2):
        tau = tau_truncated(L01, v, 3)
        assert tau.is_zero()


def tail_cut_rows(weight, v):
    """Rows e that the section radius adds for a pure tail cut at s."""
    return 0 if v.values else max(0, -(v.start + weight.n - 1))


def test_tau_truncated_is_one_section_at_its_radius(monkeypatch):
    # one section per call, at l* = max(lmin, (n-1)(order - q(v) + 2) + e),
    # e > 0 only for pure tail cuts at s < -(n-1), and the sections at l* + 1
    # and l* + 2 agree with it up to the order: on the relevant vertices
    # (order qmax) and the constructed non-relevant ones (orders qmax + 1
    # and max(qmax + 1, q(v)), the second as in verify_contrib) of every
    # n = 2 weight of level <= 2 at qmax 2; on the relevant vertices of
    # (1, 1, 1); on the tail cuts of (0, 1) at -2, (1, 0) at -3 and (0, 2) at
    # -2 at orders q(v) .. q(v) + 2, which need e; and on the auxiliary
    # fibers that check (a) of verify_contrib takes for (0, 1) at qmax 2
    radii = []

    def spy(dg, l, order, zpoint=None):
        radii.append(l)
        return tau_section(dg, l, order, zpoint)

    monkeypatch.setattr(affine_hl, "tau_section", spy)
    zpoint = random_zpoint(3, random.Random(5))
    cases = []
    for a in ([1, 0], [0, 1], [2, 0], [1, 1], [0, 2]):
        weight = AffineWeight(2, a)
        cases += [(weight, v, 2) for v in vertices_relevant(weight, 2)]
        cases += [(weight, v, order) for v in nonrelevant_vertices(weight, 3)
                  for order in {3, max(3, v.mu_exponent()[1])}]
    weight = AffineWeight(3, [1, 1, 1])
    cases += [(weight, v, 1) for v in vertices_relevant(weight, 1)]
    for a, cut in (([0, 1], -2), ([1, 0], -3), ([0, 2], -2)):
        weight = AffineWeight(2, a)
        v = PiSequence(weight, cut, ())
        assert tail_cut_rows(weight, v) > 0
        cases += [(weight, v, v.mu_exponent()[1] + d) for d in range(3)]
    aux = AffineWeight(2, [1, 2])
    for v, fiber in vertices_relevant(AffineWeight(2, [0, 1]), 2).items():
        v1s = [vertex_from_cuts(aux, cuts) for cuts in fiber]
        headroom = max(0, max(v1.mu_exponent()[1] - v.mu_exponent()[1]
                              for v1 in v1s))
        cases += [(aux, v1, 2 + headroom) for v1 in v1s]
    assert any(tail_cut_rows(w, v) for w, v, _ in cases if w is aux)
    for weight, v, order in cases:
        n = weight.n
        point = None if n == 2 else zpoint
        radii.clear()
        tau = tau_truncated(weight, v, order, point)
        (l,) = radii
        dg = DeltaGraph(weight, v, DELTA_SPAN + l)
        assert l == max(dg.lmin, (n - 1) * (order - v.mu_exponent()[1] + 2)
                        + tail_cut_rows(weight, v))
        for m in (l + 1, l + 2):
            further = tau_section(dg, m, order, point)
            assert further.equals(tau, up_to=order), (weight, v, order, m)


def test_verify_contrib_regular_n3():
    r = verify_contrib(AffineWeight(3, [1, 1, 1]), 1, trials=1)
    assert r["ok"], r["failures"]


def test_verify_contrib_enumerates_the_group_once(monkeypatch):
    # the group elements are listed once, for the closed forms of check (a)
    # at a regular weight; check (c) takes the Weyl side from lhs_series,
    # one per z-point, which lists coset representatives only
    calls = Counter()

    def spy(name):
        original = getattr(affine_hl, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(affine_hl, name, counted)

    spy("weyl_elements")
    spy("lhs_series")
    spy("coset_representatives")
    r = verify_contrib(AffineWeight(3, [1, 1, 1]), 1, trials=2)
    assert r["ok"], r["failures"]
    assert calls == {"weyl_elements": 1, "lhs_series": 2,
                     "coset_representatives": 2}
    # a singular weight needs no closed forms, so no group elements
    calls.clear()
    r = verify_contrib(L0, 1)
    assert r["ok"], r["failures"]
    assert calls == {"lhs_series": 1, "coset_representatives": 1}


def test_verify_contrib_regular():
    r = verify_contrib(L01, 2)
    assert r["ok"], r["failures"]


def test_verify_contrib_singular():
    r = verify_contrib(L0, 2)
    assert r["ok"], r["failures"]


def test_verify_contrib_singular_tail_cut():
    # (0, 1) at qmax 3 has a relevant tail cut at -2, whose section, and
    # those of its auxiliary fiber, need the extra rows of a tail cut
    r = verify_contrib(AffineWeight(2, [0, 1]), 3)
    assert r["ok"], r["failures"]


def test_tail_cut_repr_names_the_cut():
    v = PiSequence(AffineWeight(2, [0, 1]), -2, ())
    assert repr(v) == "PiSequence(<tail cut at -2>)"
    assert repr(PiSequence(L01, 1, (0, 1))) == "PiSequence(1..2: [0, 1])"


def test_verify_contrib_checks_nonrelevant_vertices_up_to_their_degree(
        monkeypatch):
    # check (b) truncates each constructed non-relevant vertex at an order
    # >= q(v), so its apex shift q^q(v) cannot empty the truncation
    orders = {}

    def spy(weight, v, order, zpoint=None):
        orders.setdefault(v, []).append(order)
        return tau_truncated(weight, v, order, zpoint)

    monkeypatch.setattr(affine_hl, "tau_truncated", spy)
    for weight in (L01, L0, AffineWeight(3, [1, 1, 1])):
        orders.clear()
        r = verify_contrib(weight, 1, trials=1)
        assert r["ok"], r["failures"]
        irrelevant = nonrelevant_vertices(weight, 3)
        assert any(v.mu_exponent()[1] > 2 for v in irrelevant)
        for v in irrelevant:
            assert orders[v] and all(o >= max(2, v.mu_exponent()[1])
                                     for o in orders[v]), (weight, v)


def test_lhs_series_q0():
    # q^0 coefficient of the Weyl side for the basic weight: 1 + t
    s = lhs_series(L0, 1)
    assert s.coeff(0) == Coeff(LaurentPoly.const(tp(1, 1)))


def d0_expanded(n):
    """prod over the positive finite roots e_i - e_j of (1 - e^{-(e_i - e_j)})."""
    out = LaurentPoly.one()
    for i in range(n):
        for j in range(i + 1, n):
            u = [0] * n
            u[i], u[j] = -1, 1
            out = out * (LaurentPoly.one()
                         - LaurentPoly.from_monomial(zq_of_shift(tuple(u), 0)))
    return out


def test_lhs_coefficients_are_laurent_and_closed_forms_stay_over_d0(
        monkeypatch):
    # the pi steps divide out d0: every symbolic Weyl-side coefficient is a
    # Laurent polynomial over the constant 1.  A closed form has no pi step
    # and stays over d0 itself.  The series that is inverted, D+, has
    # constant term 1 in both
    inverted = []
    original = TruncatedSeries.invert

    def spy(self):
        inverted.append(self.coeff(0) == Coeff.one())
        return original(self)

    monkeypatch.setattr(TruncatedSeries, "invert", spy)
    affine_hl._s_over_d.cache_clear()   # D+ is inverted once per cache entry
    cases = [(None, lhs_series(L01, 6, SYMBOLIC_Z)),
             (None, lhs_series(AffineWeight(3, [1, 1, 1]), 2, SYMBOLIC_Z)),
             (None, lhs_series(AffineWeight(4, [1, 0, 1, 0]), 2))]
    cases += [(d0_expanded(2), closed_form_contribution(L01, element, 3, None))
              for element in weyl_elements(L01, 3)]
    assert inverted and all(inverted)
    for d0, series in cases:
        assert series.coeffs
        for c in series.coeffs.values():
            assert c.den == (LaurentPoly.one() if d0 is None else d0)


def root_factors_reference(n, qmax, zpoint):
    """The root factors the Weyl side used as Coeff series: per positive
    root its key and s (1 - t y), s (t - y) and s (1 - y) for y = p/s."""
    roots = [(((i, j), m),
              zq_coeff(zq_of_shift(tuple((x == j) - (x == i)
                                         for x in range(n)), m), zpoint))
             for (i, j) in affine_hl.finite_roots(n)
             for m in range((0 if i < j else 1), qmax + 1)]
    roots += [(None, (Coeff.one(), m))
              for m in range(1, qmax + 1) for _ in range(n - 1)]
    t = TPoly.t()

    def binomial(c0, cq, q):
        if q == 0:
            return TruncatedSeries(qmax, {0: c0 + cq}, zpoint)
        return TruncatedSeries(qmax, {0: c0, q: cq}, zpoint)

    return [(key, binomial(s, -(p * t), q), binomial(s * t, -p, q),
             binomial(s, -p, q))
            for key, (c, q) in roots
            for p, s in [(Coeff(c.num), Coeff(c.den))]]


def over_den_reference(numer, factors, qmax):
    """A Coeff series numerator divided by the product of the (1 - y) of
    `factors`: the q-degree-0 ones as one coefficient, the rest by series
    inversion."""
    d0 = Coeff.one()
    rest = TruncatedSeries.one(qmax, numer.zpoint)
    for key, *_, one_minus_y in factors:
        if key is not None and key[1] == 0:
            d0 = d0 * one_minus_y.coeff(0)
        else:
            rest = rest * one_minus_y
    return (numer * rest.invert()).scale(d0.inv()).truncate(qmax)


def term_reference(weight, element, qmax, zpoint):
    """(flips, shift term) of one group element as a Coeff series."""
    sigma, tau, shift_mono, _ = element
    flips = flip_set(weight, sigma, tau)
    c, q = zq_coeff(shift_mono, zpoint)
    deep = sum(1 for (_, m) in flips if m > qmax)
    if deep:
        c = c * TPoly.t(deep)
    return flips, TruncatedSeries(qmax, {q: c}, zpoint)


def weyl_numerator_reference(weight, elements, factors, qmax, zpoint):
    """The per-element loop on Coeff series: each element's term multiplied
    out over every factor, then the terms summed."""
    total = TruncatedSeries.zero(qmax, zpoint)
    for element in elements:
        flips, term = term_reference(weight, element, qmax, zpoint)
        for key, one_minus_ty, t_minus_y, _ in factors:
            term = term * (t_minus_y if key in flips else one_minus_ty)
        total = total + term
    return total


def grouped_numerator_reference(weight, elements, factors, qmax, zpoint):
    """The same sum on Coeff series, grouped by flip pattern: after each
    factor the groups that agree on the factors still to come merge."""
    groups = {}
    for element in elements:
        flips, term = term_reference(weight, element, qmax, zpoint)
        pattern = tuple(key in flips for key, *_ in factors)
        prev = groups.get(pattern)
        groups[pattern] = term if prev is None else prev + term
    for _, one_minus_ty, t_minus_y, _ in factors:
        merged = {}
        for pattern, term in groups.items():
            term = term * (t_minus_y if pattern[0] else one_minus_ty)
            prev = merged.get(pattern[1:])
            merged[pattern[1:]] = term if prev is None else prev + term
        groups = merged
    return groups[()]


def test_weyl_numerator_matches_the_per_element_reference():
    # the key-dict kernel against the Coeff series it replaced: per element
    # on the 18 small cases and n = 4, grouped by flip pattern at n = 5,
    # where the per-element loop takes over ten seconds
    rng = random.Random(15)
    cases = [(w, 5, SYMBOLIC_Z, None) for w in small_weights(2, 3)]
    cases += [(w, 2, EVALUATED, random_zpoint(3, rng))
              for w in small_weights(3, 2)]
    assert len(cases) == 18
    cases += [(AffineWeight(4, (1, 0, 0, 0)), 3, EVALUATED,
               random_zpoint(4, rng)),
              (AffineWeight(5, (1, 0, 0, 0, 0)), 2, EVALUATED,
               random_zpoint(5, rng))]
    for weight, qmax, domain, zpoint in cases:
        factors = root_factors_reference(weight.n, qmax, zpoint)
        reference = (grouped_numerator_reference if weight.n == 5
                     else weyl_numerator_reference)
        want = reference(weight, weyl_elements(weight, qmax), factors, qmax,
                         zpoint)
        got = lhs_series(weight, qmax, domain, zpoint)
        assert got.equals(over_den_reference(want, factors, qmax),
                          up_to=qmax), weight
    factors = root_factors_reference(2, 3, None)
    for element in weyl_elements(L01, 3):
        want = weyl_numerator_reference(L01, [element], factors, 3, None)
        got = closed_form_contribution(L01, element, 3, None)
        assert got.equals(over_den_reference(want, factors, 3), up_to=3), \
            element
    zpoint = random_zpoint(3, rng)
    factors = root_factors_reference(3, 2, zpoint)
    for element in weyl_elements(AffineWeight(3, (1, 1, 0)), 2)[::7]:
        want = weyl_numerator_reference(AffineWeight(3, (1, 1, 0)), [element],
                                        factors, 2, zpoint)
        got = closed_form_contribution(AffineWeight(3, (1, 1, 0)), element,
                                       2, zpoint)
        assert got.equals(over_den_reference(want, factors, 2), up_to=2), \
            element


# ---------------------------------------------------------------------------
# the Weyl side on tuple keys: the oracle of the packed keys of affine_hl
# ---------------------------------------------------------------------------

def tuple_mul_terms(g, terms, out, qmax):
    """Add g times the sum of c x^shift over the (c, shift) `terms`, taken by
    rising q-degree, into out, dropping q-degrees above qmax, and return out.
    g and out map keys (q-degree, t-degree, exponents...) to integers."""
    terms = sorted(terms, key=lambda term: term[1][0])
    for key, v in g.items():
        room = qmax - key[0]
        for c, shift in terms:
            if shift[0] > room:
                break
            k = tuple(map(add, key, shift))
            out[k] = out.get(k, 0) + c * v
    return out


def tuple_numerator(weight, element, qmax):
    """One element's term on keys (q-degree, t-degree, eps_0, ...,
    eps_{n-1}): its shift monomial, t per flipped root beyond qmax, and per
    flipped root of q-degree m <= qmax (t - y), y = e^{-root}, times
    1/(1 - t y) = sum_j (t y)^j to qmax if m >= 1."""
    sigma, tau, mono, qdeg = element
    n, flipped = weight.n, flip_set(weight, sigma, tau)
    u = [mono.exp_of(zvar(r)) for r in range(1, n)]
    g = {(qdeg, sum(m > qmax for _, m in flipped), -sum(u), *u): 1}
    for (i, j), m in flipped:
        e = [(r == j) - (r == i) for r in range(n)]
        if m <= qmax:
            g = tuple_mul_terms(g, ((1, (0, 1) + (0,) * n), (-1, (m, 0, *e))),
                                {}, qmax)
        if 0 < m <= qmax:
            g = tuple_mul_terms(g, [(1, (m * p, p, *(p * x for x in e)))
                                    for p in range(qmax // m + 1)], {}, qmax)
    return g


def tuple_pi_step(g, i, a_i):
    """e^{-lam} pi_i(e^lam g) for a key dict g of `tuple_numerator`, a_i =
    <lam, alpha_i>, alpha_i = e_{i-1} - e_i: with d = <lam + mu, alpha_i>,
    e^mu (1 + y + ... + y^d) for d >= 0, zero for d = -1 and
    -e^mu (y^{d+1} + ... + y^{-1}), y = e^{-alpha_i}."""
    a = i + 1                   # key position of eps_{i-1}; eps_i follows
    out = {}
    for key, c in g.items():
        d = key[a] - key[a + 1] + a_i
        head, tail = key[:a], key[a + 2:]
        for j in range(d + 1) if d >= 0 else range(d + 1, 0):
            k = head + (key[a] - j, key[a + 1] + j) + tail
            out[k] = out.get(k, 0) + (c if d >= 0 else -c)
    return {k: c for k, c in out.items() if c}


def tuple_pinned(g, zpoint):
    """(key dict, D) for a key dict of `tuple_numerator`: eps_0 dropped and
    z_r = e^{eps_r}, kept symbolic with D = 1 or summed per (q-degree,
    t-degree) at a z-point over the lcm D of the monomials' values."""
    splits, terms = {}, []
    for (q, d, _, *z), v in g.items():
        a, b, zk = splits.get(z := tuple(z)) or splits.setdefault(
            z, affine_hl._zsplit(z, zpoint))
        terms.append(((q, d) + zk, v * a, b))
    D = math.lcm(*(b for *_, b in terms))
    out = {}
    for key, a, b in terms:
        out[key] = out.get(key, 0) + a * (D // b)
    return {key: v for key, v in out.items() if v}, D


def tuple_series(g, den, qmax, zpoint):
    """The TruncatedSeries of a pinned key dict over `den`, reduced by
    content."""
    rows = {}
    for (q, *key), v in g.items():
        rows.setdefault(q, {})[tuple(key)] = v
    return TruncatedSeries(qmax, {
        q: affine_hl._coeff({key: v // c for key, v in row.items()}, den // c)
        for q, row in rows.items() for c in [math.gcd(den, *row.values())]},
        zpoint)


def tuple_d_plus_inverse(n, den, qmax, zpoint):
    """([(c, key)], E): the inverse of the pinned D+ of key dict `den`, as
    one TruncatedSeries inversion whose coefficients come back over their
    lcm E."""
    inv = tuple_series(*tuple_pinned(den, zpoint), qmax, zpoint).invert()
    dens = {q: c.den.terms[Monomial.unit()].c[0] for q, c in inv.coeffs.items()}
    E = math.lcm(*dens.values())
    return [(v * (E // dens[q]), (q, d) + tuple(
                m.exp_of(zvar(r)) for r in range(1, n) if zpoint is None))
            for q, c in inv.coeffs.items()
            for m, tp in c.num.terms.items() for d, v in tp.c.items()], E


def tuple_over_den(n, g, qmax, zpoint):
    """A key dict of `tuple_numerator` times S, the product of the (1 - t y)
    of q-degree >= 1, pinned, over D+, that of their (1 - y), which is S at
    t = 1."""
    one = (0,) * (n + 2)
    s, den = {one: 1}, {}
    for _, m, e in affine_hl._roots(n, qmax):
        if m:
            s = tuple_mul_terms(s, ((1, one), (-1, (m, 1) + e)), {}, qmax)
    for (q, _, *e), v in s.items():
        den[(q, 0, *e)] = den.get((q, 0, *e), 0) + v
    inverse, E = tuple_d_plus_inverse(n, den, qmax, zpoint)
    g = tuple_mul_terms(g, [(v, key) for key, v in s.items()], {}, qmax)
    num, D = tuple_pinned({key: v for key, v in g.items() if v}, zpoint)
    return tuple_series(tuple_mul_terms(num, inverse, {}, qmax), D * E, qmax,
                        zpoint)


def tuple_lhs_series(weight, qmax, zpoint):
    """The Weyl side on tuple keys: the Hecke sum of the representatives'
    numerators, then S, pinned, over D+."""
    n, one, f = weight.n, (0,) * (weight.n + 2), {}
    for element in coset_representatives(weight, qmax):
        tuple_mul_terms(tuple_numerator(weight, element, qmax), ((1, one),), f,
                        qmax)
    for k in range(n - 1, 0, -1):
        h = f
        for i in range(1, k + 1):       # h <- f + T_i h
            ty = (0, 1) + tuple((r == i) - (r == i - 1) for r in range(n))
            th = tuple_pi_step(tuple_mul_terms(h, ((1, one), (-1, ty)), {},
                                               qmax), i, weight.a[i])
            h = nonzero(tuple_mul_terms(f, ((1, one),), tuple_mul_terms(
                h, ((-1, one),), th, qmax), qmax))
        f = h
    return tuple_over_den(n, f, qmax, zpoint)


def tuple_closed_form(weight, element, qmax, zpoint):
    """`closed_form_contribution` on tuple keys."""
    n, one = weight.n, (0,) * (weight.n + 2)
    flipped, d0 = flip_set(weight, *element[:2]), Coeff.one()
    g = tuple_numerator(weight, element, qmax)
    for key, _, e in affine_hl._roots(n, 0):
        d0 = d0 * (Coeff.one() - zq_coeff(zq_of_shift(e, 0), zpoint)[0])
        if key not in flipped:
            g = tuple_mul_terms(g, ((1, one), (-1, (0, 1) + e)), {}, qmax)
    return tuple_over_den(n, g, qmax, zpoint).scale(d0.inv())


def test_lhs_series_prints_as_the_tuple_key_reference():
    # the packed keys against the tuple keys they replaced, printed: n = 2
    # at level <= 3, n = 3 at level <= 2 symbolic and at three seeded
    # points, n = 4 to 6 at (1, 0, ...), and two weights of higher level,
    # whose exponents need wider fields
    rng = random.Random(4001)
    cases = [(w, 5, None) for w in small_weights(2, 3)]
    for w in small_weights(3, 2):
        cases += [(w, 2, None)] + [(w, 2, random_zpoint(3, rng))
                                   for _ in range(3)]
    cases += [(AffineWeight(n, (1,) + (0,) * (n - 1)), 2, None)
              for n in (4, 5, 6)]
    cases += [(AffineWeight(2, (9, 4)), 3, None),
              (AffineWeight(3, (5, 0, 2)), 2, random_zpoint(3, rng))]
    assert len(cases) == 9 + 36 + 3 + 2
    widths = set()
    for weight, qmax, zpoint in cases:
        want = tuple_lhs_series(weight, qmax, zpoint)
        assert str(lhs_series(weight, qmax, zpoint=zpoint)) == str(want), \
            (weight, qmax, zpoint)
        widths.add(affine_hl._width(weight, qmax))
    assert len(widths) > 2
    # closed forms: every element of the n = 2 weights at qmax 4, every
    # fifth of n = 3 symbolic and at a seeded point, and the first four of
    # n = 4 to 6 at qmax 2
    zpoint = random_zpoint(3, rng)
    cases = [(w, 4, None, weyl_elements(w, 4)) for w in small_weights(2, 3)]
    cases += [(w, 2, z, weyl_elements(w, 2)[::5])
              for w in small_weights(3, 2) for z in (None, zpoint)]
    cases += [(w, 2, None, weyl_elements(w, 2)[:4])
              for w in (AffineWeight(n, (1,) + (0,) * (n - 1))
                        for n in (4, 5, 6))]
    count = 0
    for weight, qmax, zpoint, elements in cases:
        for element in elements:
            want = tuple_closed_form(weight, element, qmax, zpoint)
            got = closed_form_contribution(weight, element, qmax, zpoint)
            assert str(got) == str(want), (weight, element)
            count += 1
    assert count == 232


def unshift(n, width, shift):
    """(q, t, eps_0, ..., eps_{n-1}) of an unoffset shift of packed keys."""
    return affine_hl._unpack(n, width,
                             shift + affine_hl._pack(width, 0, 0, [0] * n))


def packed(g, width):
    """A key dict on (q, t, eps...) tuples, its keys packed."""
    return {affine_hl._pack(width, q, t, eps): v
            for (q, t, *eps), v in g.items()}


def unpacked(g, n, width):
    return {affine_hl._unpack(n, width, key): v for key, v in g.items()}


def test_packed_keys_round_trip_at_the_field_bounds():
    # q = qmax, the largest t-degree and the most negative and positive eps
    # come back from their fields; a key is below the limit iff its
    # q-degree is at most qmax; and a shift adds field by field, here onto
    # the bounds themselves
    for weight, qmax in ((L01, 5), (AffineWeight(3, (2, 0, 0)), 2),
                         (AffineWeight(6, (1, 0, 0, 0, 0, 0)), 2)):
        n, width = weight.n, affine_hl._width(weight, qmax)
        top, limit = (1 << width - 1) - 1, qmax + 1 << width * (n + 1)
        mixed = [(-1) ** r * (top - r) for r in range(n)]
        for q, t, eps in itertools.product(
                (0, qmax, qmax + 1), (0, top),
                ([-top - 1] * n, [top] * n, mixed)):
            key = affine_hl._pack(width, q, t, eps)
            assert affine_hl._unpack(n, width, key) == (q, t, *eps)
            assert (key < limit) == (q <= qmax), (q, t, eps)
        key = affine_hl._pack(width, 1, 2, [-3] + [1] * (n - 1))
        shift = affine_hl._shift(width, qmax - 1, top - 2,
                                 [2 - top] + [top - 1] * (n - 1))
        assert affine_hl._unpack(n, width, key + shift) == \
            (qmax, top, -top - 1, *[top] * (n - 1))
        assert unshift(n, width, shift) == \
            (qmax - 1, top - 2, 2 - top, *[top - 1] * (n - 1))


def test_a_value_outside_the_key_fields_raises():
    # a 6-bit field holds -32..31; one past either end raises InvariantError
    affine_hl._pack(6, 3, 31, [-32, 31])
    for t, eps in ((32, [0, 0]), (-33, [0, 0]), (0, [-33, 0]), (0, [0, 32])):
        with pytest.raises(InvariantError, match="6-bit key field"):
            affine_hl._pack(6, 3, t, eps)


def split_numerator_reference(weight, elements, qmax):
    """The numerator the Weyl side summed before its Hecke symmetrizer, on
    keys (q-degree, t-degree, eps_0, ..., eps_{n-1}): each shift monomial
    times (t - y) over the roots it flips and (1 - t y) over the others
    that some element flips, y = e^{-root}, and t per flipped root beyond
    qmax.  The roots that no element flips multiply the sum once."""
    n, mul = weight.n, tuple_mul_terms
    one, t = (0,) * (n + 2), (0, 1) + (0,) * n
    factors = [(key, (((1, one), (-1, (m, 1) + e)),
                      ((1, t), (-1, (m, 0) + e))))
               for key, m, e in affine_hl._roots(n, qmax)]
    flips = [flip_set(weight, sigma, tau) for sigma, tau, *_ in elements]
    some = set().union(*flips)
    total = {}
    for (_, _, mono, qdeg), flipped in zip(elements, flips):
        u = [mono.exp_of(zvar(r)) for r in range(1, n)]
        g = {(qdeg, sum(m > qmax for _, m in flipped), -sum(u), *u): 1}
        for key, binomials in factors:
            if key in some:
                g = mul(g, binomials[key in flipped], {}, qmax)
        mul(g, ((1, one),), total, qmax)
    for key, (one_minus_ty, _) in factors:
        if key not in some:
            total = {k: v for k, v in
                     mul(total, one_minus_ty, {}, qmax).items() if v}
    return {k: v for k, v in total.items() if v}


def over_d_plus_reference(n, g, qmax, zpoint):
    """A key dict of `split_numerator_reference` through `tuple_pinned`,
    over D+, the product of the (1 - y) of q-degree >= 1, inverted once as a
    TruncatedSeries whose coefficients come back over their lcm E."""
    mul, one = tuple_mul_terms, (0,) * (n + 2)
    den = {one: 1}
    for _, m, e in affine_hl._roots(n, qmax):
        if m:
            den = mul(den, ((1, one), (-1, (m, 0) + e)), {}, qmax)
    inverse, E = tuple_d_plus_inverse(n, den, qmax, zpoint)
    num, D = tuple_pinned(g, zpoint)
    return tuple_series(mul(num, inverse, {}, qmax), D * E, qmax, zpoint)


def lhs_split_reference(weight, qmax, zpoint):
    """The Weyl side as it was built before the Hecke symmetrizer: the split
    numerator of the coset representatives, the Demazure chain pi_{w0}
    along s_1; s_2 s_1; ..., then D+."""
    g = split_numerator_reference(
        weight, coset_representatives(weight, qmax), qmax)
    for i in [i for k in range(1, weight.n) for i in range(k, 0, -1)]:
        g = tuple_pi_step(g, i, weight.a[i])
    return over_d_plus_reference(weight.n, g, qmax, zpoint)


def closed_form_split_reference(weight, element, qmax, zpoint):
    """The closed contribution as it was built: the split numerator of the
    one element, over D+ and over d0, the product over the positive finite
    roots."""
    d0 = Coeff.one()
    for _, _, e in affine_hl._roots(weight.n, 0):
        d0 = d0 * (Coeff.one() - zq_coeff(zq_of_shift(e, 0), zpoint)[0])
    g = split_numerator_reference(weight, [element], qmax)
    return over_d_plus_reference(weight.n, g, qmax, zpoint).scale(d0.inv())


# n = 2 symbolic; n = 3 at z-points and symbolic; four larger weights
SPLIT_CASES = ([(w, 5, None) for w in small_weights(2, 3)]
               + [(w, 2, "z") for w in small_weights(3, 2)]
               + [(w, 3, None) for w in small_weights(3, 2)]
               + [(AffineWeight(4, (1, 0, 0, 0)), 3, None),
                  (AffineWeight(4, (1, 1, 0, 0)), 2, None),
                  (AffineWeight(4, (0, 1, 0, 1)), 3, "z"),
                  (AffineWeight(5, (1, 0, 0, 0, 0)), 2, None)])


def test_lhs_series_prints_as_the_split_numerator_reference():
    # the Hecke symmetrizer of the small series F, times S, against the
    # numerator split into roots flipped by some representative and by
    # none followed by the Demazure chain: the same printed series on all
    # 31 cases, and the same printed closed contributions
    rng = random.Random(611)
    assert len(SPLIT_CASES) == 31
    for weight, qmax, point in SPLIT_CASES:
        zpoint = random_zpoint(weight.n, rng) if point else None
        want = lhs_split_reference(weight, qmax, zpoint)
        assert str(lhs_series(weight, qmax, zpoint=zpoint)) == str(want), \
            (weight, qmax, zpoint)
    zpoint = random_zpoint(3, rng)
    cases = [(w, 4, None, weyl_elements(w, 4)) for w in small_weights(2, 3)]
    cases += [(AffineWeight(3, a), 2, zpoint,
               weyl_elements(AffineWeight(3, a), 2)[::3])
              for a in ((1, 1, 0), (1, 1, 1))]
    count = 0
    for weight, qmax, zpoint, elements in cases:
        for element in elements:
            want = closed_form_split_reference(weight, element, qmax, zpoint)
            got = closed_form_contribution(weight, element, qmax, zpoint)
            assert str(got) == str(want), element
            count += 1
    # every element of the nine n = 2 weights at qmax 4, and every third
    # element of n = 3 (1,1,0) and (1,1,1) at qmax 2
    assert count == 76


def nonzero(g):
    return {k: v for k, v in g.items() if v}


def hecke(g, i, a_i, n, width, qmax):
    """T_i g = e^{-lam} pi_i(e^lam (1 - t y_i) g) - g on a packed key dict,
    y_i = e^{-alpha_i}, a_i = <lam, alpha_i>: the Demazure-Lusztig
    operator."""
    limit = qmax + 1 << width * (n + 1)
    ty = affine_hl._shift(width, 0, 1,
                          [(r == i) - (r == i - 1) for r in range(n)])
    out = affine_hl._pi_step(
        n, width, affine_hl._mul_terms(g, ((1, 0), (-1, ty)), {}, limit),
        i, a_i)
    return nonzero(affine_hl._mul_terms(g, ((-1, 0),), out, limit))


def add_dicts(*gs):
    out = Counter()
    for g in gs:
        out.update(g)       # Counter.update adds, keeping negative values
    return nonzero(out)


def reduced_words(n):
    """{w: every reduced word of w} over S_n, w in one-line notation: a
    word (i_1, ..., i_l) is s_{i_1} ... s_{i_l}, and w s_i, which swaps
    positions i - 1 and i, is longer than w iff w[i - 1] < w[i]."""
    level = {tuple(range(n)): [()]}
    out = dict(level)
    while level:
        nxt = {}
        for w, words in level.items():
            for i in range(1, n):
                if w[i - 1] < w[i]:
                    ws = w[:i - 1] + (w[i], w[i - 1]) + w[i + 1:]
                    nxt.setdefault(ws, []).extend(wd + (i,) for wd in words)
        out.update(nxt)
        level = nxt
    return out


def test_hecke_sum_matches_every_reduced_word(monkeypatch):
    # the Horner sum in lhs_series against sum_w T_w F taken term by term:
    # each T_w along every reduced word of w (they agree, by the braid
    # relations), summed over S_3 and S_4, then times S over D+.  The Horner
    # sum takes n(n-1)/2 pi steps, one per T_i
    steps = Counter()
    original = affine_hl._pi_step

    def spy(n, width, g, i, a_i):
        steps[i] += 1
        return original(n, width, g, i, a_i)

    words_seen = 0
    for weight, qmax in ((AffineWeight(3, (1, 0, 0)), 3),
                         (AffineWeight(3, (0, 2, 1)), 2),
                         (AffineWeight(4, (1, 0, 0, 0)), 2),
                         (AffineWeight(4, (0, 1, 1, 0)), 1)):
        n, width = weight.n, affine_hl._width(weight, qmax)
        words = reduced_words(n)
        assert len(words) == math.factorial(n)
        F = {}
        for rep in coset_representatives(weight, qmax):
            affine_hl._mul_terms(
                affine_hl._numerator(weight, rep, qmax, width), ((1, 0),), F,
                qmax + 1 << width * (n + 1))
        F = nonzero(F)
        total = []
        for w, ws in words.items():
            images = []
            for word in ws:
                g = F
                for i in reversed(word):
                    g = hecke(g, i, weight.a[i], n, width, qmax)
                images.append(g)
            assert all(g == images[0] for g in images), (w, ws)
            total.append(images[0])
            words_seen += len(ws)
        want = affine_hl._over_den(n, width, add_dicts(*total), qmax, None)
        steps.clear()
        monkeypatch.setattr(affine_hl, "_pi_step", spy)
        got = lhs_series(weight, qmax)
        monkeypatch.undo()
        assert str(got) == str(want), weight
        assert steps == Counter({i: n - i for i in range(1, n)}), weight
    # S_3 has 7 reduced words in all (2 for w0) and S_4 has 66 (16 for w0),
    # as a count of the words of length l whose product has l inversions
    assert words_seen == 2 * 7 + 2 * 66


def test_hecke_operators_satisfy_the_quadratic_and_braid_relations():
    # (T_i - t)(T_i + 1) = 0, T_i T_{i+1} T_i = T_{i+1} T_i T_{i+1} and
    # T_1 T_3 = T_3 T_1 on seeded key dicts at n = 4, each a_i from 0 to 2,
    # packed in 8-bit fields; qmax is above every q-degree, so nothing is
    # truncated
    rng = random.Random(3607)
    qmax, n, width = 10, 4, 8
    for trial in range(6):
        a = [None] + [rng.randint(0, 2) for _ in range(n - 1)]
        g = nonzero(packed({(rng.randint(0, 2), rng.randint(0, 3),
                             *(rng.randint(-3, 3) for _ in range(n))):
                            rng.choice([-3, -1, 1, 2, 5]) for _ in range(8)},
                           width))
        assert len(g) >= 6

        def T(i, h):
            return hecke(h, i, a[i], n, width, qmax)

        for i in range(1, n):
            u = add_dicts(T(i, g), g)                     # (T_i + 1) g
            tu = affine_hl._mul_terms(u, ((1, 1 << width * n),), {},
                                      qmax + 1 << width * (n + 1))
            assert add_dicts(T(i, u), {k: -v for k, v in tu.items()}) == {}
            assert T(i, g) != g
        for i in range(1, n - 1):
            assert T(i, T(i + 1, T(i, g))) == T(i + 1, T(i, T(i + 1, g)))
        assert T(1, T(3, g)) == T(3, T(1, g))


def test_weyl_numerator_applies_each_unflipped_root_once(monkeypatch):
    # no representative multiplies a root it does not flip: its numerator
    # takes (t - y) for each root of q-degree <= qmax that it flips, and
    # sum_j (t y)^j for each of those of q-degree >= 1, and nothing else.
    # The (1 - t y) of every root of q-degree 1..qmax enters once, in S,
    # which `_s_over_d` builds and caches per (n, qmax, width), so the
    # cache is emptied before each weight.  Shifts are read unpacked
    calls = []
    original_mul, original_numerator = affine_hl._mul_terms, \
        affine_hl._numerator

    def spy_mul(g, terms, out, limit):
        calls.append((sys._getframe(1).f_code.co_name, tuple(
            (c, unshift(n, width, shift)) for c, shift in terms)))
        return original_mul(g, terms, out, limit)

    per_element = []

    def spy_numerator(weight, element, qmax, width):
        start = len(calls)
        out = original_numerator(weight, element, qmax, width)
        per_element.append((element, calls[start:]))
        return out

    monkeypatch.setattr(affine_hl, "_mul_terms", spy_mul)
    monkeypatch.setattr(affine_hl, "_numerator", spy_numerator)
    cases = [(AffineWeight(3, (0, 0, 1)), 2), (L0, 5), (L01, 5),
             (AffineWeight(3, (1, 1, 0)), 2),
             (AffineWeight(5, (1, 0, 0, 0, 0)), 2)]
    for weight, qmax in cases:
        n, t = weight.n, (0, 1) + (0,) * weight.n
        width = affine_hl._width(weight, qmax)
        calls.clear()
        per_element.clear()
        affine_hl._s_over_d.cache_clear()
        lhs_series(weight, qmax)
        reps = coset_representatives(weight, qmax)
        assert [e for e, _ in per_element] == reps
        for element, made in per_element:
            flipped = {key for key in flip_set(weight, *element[:2])
                       if key[1] <= qmax}
            binomials = [terms[1][1] for _, terms in made
                         if terms[0] == (1, t)]
            roots = [((e.index(-1), e.index(1)), m)
                     for m, _, *e in binomials]
            assert sorted(roots) == sorted(flipped), element
            series = [terms for _, terms in made if terms[0] != (1, t)]
            assert len(series) == sum(m > 0 for _, m in flipped)
            assert all(c == 1 for terms in series for c, _ in terms)
            assert all(who == "_numerator" for who, _ in made)
        s_factors = Counter(terms[1][1] for who, terms in calls
                            if who == "_s_over_d" and len(terms) == 2
                            and terms[1][1][1] == 1)
        assert s_factors == Counter((m, 1) + e for _, m, e
                                    in affine_hl._roots(n, qmax) if m)
        # the one negative term a representative multiplies is -y, never -t y
        assert all(shift[1] == 0 for who, terms in calls
                   if who == "_numerator" for c, shift in terms if c < 0)


def test_weyl_numerator_integers_stay_small():
    # the numerator F of the coset representatives is symbolic, so its
    # integers stay small, and the evaluated Weyl side puts each q-degree
    # over one integer only after the Hecke sum, reduced by its content:
    # n = 4 at qmax 4, where Coeff sums of the evaluated per-element terms
    # reached 332,175 bits, one common denominator for them 5,407 bits and
    # the unreduced one 2,509
    weight = AffineWeight(4, (1, 0, 0, 0))
    numer, width = {}, affine_hl._width(weight, 4)
    for rep in coset_representatives(weight, 4):
        affine_hl._mul_terms(affine_hl._numerator(weight, rep, 4, width),
                             ((1, 0),), numer, 5 << width * 5)
    numer = nonzero(numer)
    assert numer and max(abs(v).bit_length() for v in numer.values()) < 16
    lhs = lhs_series(weight, 4, zpoint=random_zpoint(4, random.Random(5)))
    assert lhs.coeffs and max(abs(v).bit_length()
                              for c in lhs.coeffs.values()
                              for p in (c.num, c.den)
                              for tp in p.terms.values()
                              for v in tp.c.values()) < 128


def weyl_elements_reference(weight, qmax):
    """Every permutation and every zero-sum translation in a box, each
    q-degree <sigma lam, tau> + k |tau|^2 / 2 and shift sigma lam + k tau -
    lam computed directly, the ones of q-degree <= qmax kept.  The box
    bound b has k b^2 - 2 max(lam) n b > 2 qmax."""
    n, k = weight.n, weight.k
    lam = weight.finite_part()
    bound = 1
    while k * bound * bound - 2 * max(lam) * n * bound <= 2 * qmax:
        bound += 1
    out = []
    for head in itertools.product(range(-bound, bound + 1), repeat=n - 1):
        tau = head + (-sum(head),)
        for sigma in itertools.permutations(range(n)):
            qdeg = (sum(lam[i] * tau[d] for i, d in enumerate(sigma))
                    + k * sum(t * t for t in tau) // 2)
            if 0 <= qdeg <= qmax:
                u = [k * t - x for t, x in zip(tau, lam)]
                for i, d in enumerate(sigma):
                    u[d] += lam[i]
                out.append((sigma, tau, zq_of_shift(u, qdeg), qdeg))
    return out


def test_weyl_elements_match_the_box_scan_and_skip_far_translations(
        monkeypatch):
    # the same elements as the box scan, as a multiset, and one element
    # built per element listed: no translation beyond qmax is visited
    cases = [(w, 3) for n in (2, 3, 4) for w in small_weights(n, 2)]
    cases.append((AffineWeight(5, (1, 0, 0, 0, 0)), 2))
    assert len(cases) == 29
    calls = Counter()
    original = affine_hl._element

    def spy(weight, sigma, gamma, qdeg):
        calls[weight.n] += 1
        return original(weight, sigma, gamma, qdeg)

    kept = Counter()
    for weight, qmax in cases:
        want = weyl_elements_reference(weight, qmax)
        monkeypatch.setattr(affine_hl, "_element", spy)
        got = weyl_elements(weight, qmax)
        monkeypatch.undo()
        assert Counter(got) == Counter(want), weight
        assert len(set(got)) == len(got), weight
        kept[weight.n] += len(got)
    # n = 5: 6,120 elements built, where the box scan visits 174,120
    assert kept[5] == calls[5] == 6120
    assert calls == kept


# ROADMAP item 1's weights: 165 cosets in all
COSET_CASES = [(2, (1, 0), 5), (2, (2, 1), 4), (3, (1, 0, 0), 3),
               (3, (0, 0, 1), 3), (3, (1, 1, 1), 2), (4, (1, 0, 0, 0), 3),
               (4, (1, 1, 0, 0), 2), (4, (0, 1, 0, 2), 2),
               (5, (1, 0, 0, 0, 0), 2), (5, (1, 0, 1, 0, 0), 2)]


def test_coset_representatives_are_the_unique_minimal_elements():
    # every sigma of a representative's coset, tau = sigma gamma, is scanned:
    # the representative is the only one that flips no finite simple root,
    # and the group has n! elements per coset
    simple = [((i, i + 1), 0) for i in range(5)]
    total = 0
    for n, a, qmax in COSET_CASES:
        weight = AffineWeight(n, a)
        reps = coset_representatives(weight, qmax)
        for rep in reps:
            sigma, tau = rep[:2]
            inv = sorted(range(n), key=sigma.__getitem__)
            gamma = affine_hl._perm_act(inv, tau)
            minimal = []
            for s in itertools.permutations(range(n)):
                t = affine_hl._perm_act(s, gamma)
                if not set(simple[:n - 1]) & flip_set(weight, s, t):
                    minimal.append((s, t))
            assert minimal == [(sigma, tau)], (a, gamma)
        assert len(weyl_elements(weight, qmax)) == \
            math.factorial(n) * len(reps), a
        total += len(reps)
    assert total == 165


def eps_laurent(g, lam):
    """A key dict on (q, t, eps_0, ...) keys, times e^lam, as a Laurent
    polynomial in q and e0, e1, ..."""
    return LaurentPoly.sum_terms(
        (Monomial({"q": q, **{f"e{r}": x + l
                              for r, (x, l) in enumerate(zip(eps, lam))}}),
         TPoly.t(d) * v)
        for (q, d, *eps), v in g.items())


def test_pi_step_is_the_defining_quotient():
    # e^-lam pi_i(e^lam g) against (f - y s_i f) / (1 - y), f = e^lam g,
    # y = e^{-alpha_i}, by exact division: single monomials with
    # d = <lam + mu, alpha_i> from -4 to 4, at both positions and with
    # a_i = <lam, alpha_i> = 0 and 2, then a seeded sum of 12 terms; the
    # keys are packed in 8-bit fields and read back unpacked
    rng = random.Random(2033)

    def step(g, i, a_i):
        n = len(next(iter(g))) - 2
        return unpacked(_pi_step(n, 8, packed(g, 8), i, a_i), n, 8)

    def quotient(g, i, lam):
        f = eps_laurent(g, lam)
        a, b = f"e{i - 1}", f"e{i}"
        y = Monomial({a: -1, b: 1})
        swapped = f.subs_monomials({a: Monomial.var(b), b: Monomial.var(a)})
        return exact_div_binomials(f - swapped * y, [y])

    for i in (1, 2):
        for a_i in (0, 2):
            lam = [0, 0, 0]
            lam[i - 1] = a_i
            for d in range(-4, 5):
                eps = [1, -2, 1]
                eps[i - 1] = eps[i] + d - a_i
                g = {(rng.randint(0, 3), rng.randint(0, 2), *eps):
                     rng.choice([-3, 2, 5])}
                got = step(g, i, a_i)
                assert eps_laurent(got, lam) == quotient(g, i, lam), (i, d)
                assert (got == {}) == (d == -1), (i, d)
    g = {(rng.randint(0, 2), rng.randint(0, 3),
          *(rng.randint(-3, 3) for _ in range(4))): rng.randint(-4, 4)
         for _ in range(12)}
    g = {k: v for k, v in g.items() if v}
    assert len(g) >= 10
    for i in (1, 2, 3):
        lam = [0] * 4
        lam[i] = -1                     # <lam, alpha_i> = 1
        assert eps_laurent(step(g, i, 1), lam) == quotient(g, i, lam), i


def test_zvar_and_zq_of_shift_tables():
    # z_r is named z<r>; e^xi takes z_r^(u_r) for r >= 1, drops u_0 and
    # carries the q-degree as the exponent of q
    assert [zvar(r) for r in (1, 2, 10)] == ["z1", "z2", "z10"]
    table = [(((0, 0), 0), {}),
             (((-1, 1), 0), {"z1": 1}),
             (((2, -2), 3), {"z1": -2, "q": 3}),
             (((5, 0, 0), 0), {}),
             (((0, 3, -3), 0), {"z1": 3, "z2": -3}),
             (((1, -1, 0, 0), -2), {"z1": -1, "q": -2}),
             (((0, 0, 0, 0), 4), {"q": 4})]
    for (u, q), exps in table:
        assert zq_of_shift(u, q) == Monomial(exps), (u, q)


def test_zsplit_table():
    # symbolic z keeps the exponents as the key's z-part; at a z-point the
    # monomial's value is split into numerator and positive denominator in
    # lowest terms, and the key's z-part is empty
    for z in ((0, 0), (2, -1), [0, 3]):
        assert affine_hl._zsplit(z, None) == (1, 1, tuple(z))
    point = {zvar(1): Fraction(-2), zvar(2): Fraction(1, 3)}
    table = [((0, 0), (1, 1)), ((1, 0), (-2, 1)), ((-1, 0), (-1, 2)),
             ((2, -1), (12, 1)), ((-1, 2), (-1, 18)), ((-2, 0), (1, 4)),
             ((1, 2), (-2, 9))]
    for z, (num, den) in table:
        assert affine_hl._zsplit(z, point) == (num, den, ()), z


def test_coeff_table():
    # {(t-degree, z-exponents...): int} over den: one t-polynomial per
    # z-monomial, zero entries dropped, den as a constant denominator
    z12 = Monomial({zvar(1): 1, zvar(2): -2})
    table = [
        ({(0, 0, 0): 3, (2, 0, 0): -1, (1, 1, -2): 5, (0, 1, -2): 0}, 7,
         {Monomial.unit(): {0: 3, 2: -1}, z12: {1: 5}}),
        ({(0,): 4, (3,): -2}, 5, {Monomial.unit(): {0: 4, 3: -2}}),
        ({(1, 0, 1): 2}, 1, {Monomial({zvar(2): 1}): {1: 2}}),
        ({(0, 0): 0}, 3, {}),
    ]
    for row, den, terms in table:
        c = affine_hl._coeff(row, den)
        assert c.num == LaurentPoly({m: TPoly(t) for m, t in terms.items()})
        assert c.den == LaurentPoly.const(den if terms else 1), row


def test_affine_sides_call_no_common_function(src_calls):
    # criterion 7: the basis sum and the Weyl side share no function but
    # the ring kernels and five conventions: the variable names, the shift
    # monomial, the z-evaluation, the output packaging and the domain check.
    # The packed keys are the Weyl side's alone
    allowed = {"zvar", "zq_of_shift", "_zsplit", "_coeff", "_check_domain"}
    packing = {f.__code__ for f in (affine_hl._width, affine_hl._pack,
                                    affine_hl._shift, affine_hl._unpack)}
    weight = AffineWeight(3, (1, 0, 0))
    for zpoint in (None, random_zpoint(3, random.Random(5))):
        basis = src_calls(rhs_series, weight, 2, None, zpoint)
        weyl = src_calls(lhs_series, weight, 2, None, zpoint)
        assert {enumerate_pi.__code__, rhs_table.__code__} <= basis
        assert _pi_step.__code__ in weyl
        assert packing <= weyl and not packing & basis
        shared = {c.co_qualname for c in basis & weyl
                  if c.co_filename != ring.__file__}
        assert shared and not {q for q in shared
                               if q.split(".")[0] not in allowed}, shared


def test_a_second_rhs_table_call_builds_no_table(monkeypatch):
    # enumerate_pi's dynamic-program table depends on the weight and qmax
    # alone: the first call on a weight builds it, a second builds none and
    # gives equal rows
    built = []
    original = affine_hl._pi_table.__wrapped__

    def spy(a, qmax):
        built.append((a, qmax))
        return original(a, qmax)

    monkeypatch.setattr(affine_hl, "_pi_table", functools.lru_cache(
        maxsize=affine_hl.CACHE_LIMIT)(spy))
    for weight, qmax in ((L01, 5), (AffineWeight(3, (1, 0, 1)), 2),
                         (AffineWeight(4, (1, 0, 0, 0)), 2)):
        first = rhs_table(weight, qmax)
        assert built[-1] == (weight.a, qmax)
        count = len(built)
        assert rhs_table(weight, qmax) == first and len(built) == count
    assert len(built) == 3


def test_affine_caches_stay_bounded(monkeypatch):
    # the enumerate_pi table and S/D+ are lru_caches of CACHE_LIMIT
    # entries; the results do not depend on the limit
    names = ("_pi_table", "_s_over_d")
    assert all(getattr(affine_hl, name).cache_info().maxsize ==
               affine_hl.CACHE_LIMIT for name in names)
    rng = random.Random(29)
    cases = [(w, 3, None) for w in small_weights(2, 2)]
    cases += [(w, 1, random_zpoint(3, rng)) for w in small_weights(3, 1)]
    cases += [(L01, 3, None), (AffineWeight(3, (1, 0, 0)), 1, None)]

    def run(limit):
        caches = {name: functools.lru_cache(maxsize=limit)(
            getattr(affine_hl, name).__wrapped__) for name in names}
        for name, cache in caches.items():
            monkeypatch.setattr(affine_hl, name, cache)
        out, peak = [], 0
        for weight, qmax, zpoint in cases:
            out.append((str(lhs_series(weight, qmax, zpoint=zpoint)),
                        str(rhs_series(weight, qmax, zpoint=zpoint)),
                        rhs_table(weight, qmax)))
            peak = max(peak, *(c.cache_info().currsize
                               for c in caches.values()))
        return out, peak

    expect, unbounded_peak = run(affine_hl.CACHE_LIMIT)
    assert unbounded_peak > 2
    got, peak = run(2)
    assert got == expect and peak <= 2
