"""Ordinary subgraphs of the rotated square lattice and their polyhedra.

Vertices of the lattice are pairs (i, j); the two neighbours above (i, j)
are (i-1, j) (upper left) and (i-1, j+1) (upper right).  An ordinary graph
together with a nonincreasing integer sequence b on its top row defines a
polyhedron cut out by the interlacing inequalities along edges; faces of
that polyhedron are encoded by subgraphs, and every face carries a weight
in Z[t] counted from row patterns of the subgraph's components.
"""

from __future__ import annotations

import itertools
import json
import random
from collections import Counter
from functools import lru_cache
from math import gcd, prod

from .cones import Polyhedron, WeightedCone, ipt_weighted
from .ring import (
    Coeff, CollapseError, InvariantError, LaurentPoly, Monomial, Pole,
    RationalFn, TPoly, TruncatedSeries, T_ONE, T_ZERO, UnitFactor,
    at_random_points, zq_coeff,
)


class NotConnected(ValueError):
    pass


class NotClosedDown(ValueError):
    """Violation of the lower diamond-completion rule."""


class NotClosedUp(ValueError):
    """Violation of the upper diamond-completion rule."""


def svar(v):
    i, j = v
    return f"s({i},{j})"


def xvar(i):
    return f"x{i}"


class OrdinaryGraph:
    """Validated ordinary subgraph of the lattice."""

    def __init__(self, vertices):
        vs = frozenset((i, j) for i, j in vertices)
        if not all(type(c) is int for v in vs for c in v):
            raise ValueError("vertex coordinates must be integers")
        if not vs:
            raise ValueError("empty vertex set")
        self.vertices = vs
        rows = {}
        for i, j in vs:
            rows.setdefault(i, []).append(j)
        for i in rows:
            rows[i].sort()
        self.rows = rows
        self.a = min(rows)
        self.d = max(rows)
        self.top = [(self.a, j) for j in rows[self.a]]
        self.l = len(self.top)
        self._validate()
        edges = []
        for (i, j) in sorted(vs):
            if (i - 1, j) in vs:
                edges.append(((i - 1, j), (i, j)))      # upper-left >= lower
            if (i - 1, j + 1) in vs:
                edges.append(((i, j), (i - 1, j + 1)))  # lower >= upper-right
        self.edges = edges                               # (hi, lo) pairs
        # same-row pairs with their forced diamond completions
        self.row_pairs = []
        for (i, j) in sorted(vs):
            if (i, j + 1) in vs:
                above = (i - 1, j + 1) if i > self.a else None
                self.row_pairs.append(((i, j), (i, j + 1), (i + 1, j), above))

    def _validate(self):
        vs = self.vertices
        for (i, j) in vs:
            if (i, j + 1) in vs:
                if (i + 1, j) not in vs:
                    raise NotClosedDown(f"pair ({i},{j}),({i},{j+1}) misses ({i+1},{j})")
                if i > self.a and (i - 1, j + 1) not in vs:
                    raise NotClosedUp(f"pair ({i},{j}),({i},{j+1}) misses ({i-1},{j+1})")
        seen = set()
        stack = [next(iter(vs))]
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            i, j = v
            for u in ((i - 1, j), (i - 1, j + 1), (i + 1, j - 1), (i + 1, j)):
                if u in vs and u not in seen:
                    stack.append(u)
        if seen != vs:
            raise NotConnected("graph is not connected")
        if len(self.rows[self.d]) != 1:
            raise InvariantError("last row must hold one vertex")

    def signature(self):
        return tuple(sorted(self.vertices))

    def row_counts(self):
        return {i: len(js) for i, js in self.rows.items()}

    def violates_row_monotonicity(self):
        """True when some row i >= a has fewer vertices than row i+1."""
        rc = self.row_counts()
        return any(rc.get(i + 1, 0) > rc.get(i, 0) for i in range(self.a, self.d))

    @staticmethod
    def from_json(data):
        if isinstance(data, str):
            data = json.loads(data)
        return OrdinaryGraph([tuple(v) for v in data])

    def __repr__(self):
        return f"OrdinaryGraph({sorted(self.vertices)})"


def triangle_graph(n):
    """The graph whose polyhedra are the classical interlacing polytopes."""
    return OrdinaryGraph([(i, j) for i in range(n) for j in range(1, n - i + 1)])


class BSeq:
    def __init__(self, values):
        self.values = tuple(values)
        if not all(type(v) is int for v in self.values):
            raise ValueError("b must be a sequence of integers")
        if any(a < b for a, b in zip(self.values, self.values[1:])):
            raise ValueError("b must be nonincreasing")

    def run_lengths(self):
        out = []
        for v, grp in itertools.groupby(self.values):
            out.append(len(list(grp)))
        return out

    def __len__(self):
        return len(self.values)

    def __getitem__(self, i):
        return self.values[i]

    def __iter__(self):
        return iter(self.values)


# ---------------------------------------------------------------------------
# face subgraphs
# ---------------------------------------------------------------------------

def _component_ls(counts, a):
    """The l of each factor (1 - t^l) in the weight of a component, from its
    row counts: one for each row i > a holding l vertices below a row
    holding l - 1."""
    return [l for i, l in counts.items()
            if i > a and counts.get(i - 1, 0) == l - 1]


def _weight(ls):
    """The product of (1 - t^l) over ls."""
    return prod((TPoly({0: 1, l: -1}) for l in ls), start=T_ONE)


class FaceSubgraph:
    """A face of D_Gamma(b), stored as the partition into components."""

    __slots__ = ("graph", "blocks", "_block_of")

    def __init__(self, graph, blocks):
        self.graph = graph
        self.blocks = tuple(sorted((frozenset(b) for b in blocks),
                                   key=lambda s: min(s)))
        self._block_of = {}
        for bi, blk in enumerate(self.blocks):
            for v in blk:
                self._block_of[v] = bi

    def block_of(self, v):
        return self._block_of[v]

    def same_block(self, u, v):
        return self._block_of[u] == self._block_of[v]

    def edge_set(self):
        return frozenset((hi, lo) for hi, lo in self.graph.edges
                         if self.same_block(hi, lo))

    @property
    def dim(self):
        top = set(self.graph.top)
        return sum(1 for blk in self.blocks if not (blk & top))

    def phi(self):
        """prod (1 - t^l)^{d_l} from component row counts."""
        return _weight(l for blk in self.blocks for l in _component_ls(
            Counter(i for i, _ in blk), self.graph.a))

    def top_values(self, b):
        """Value carried by each block that meets the top row, as a dict."""
        vals = {}
        for idx, (i, j) in enumerate(self.graph.top):
            vals[self.block_of((i, j))] = b[idx]
        return vals

    def vertex_coordinates(self, b):
        """Coordinates of a 0-dimensional face."""
        if self.dim:
            raise InvariantError(f"face of dimension {self.dim} is no vertex")
        vals = self.top_values(b)
        return {v: vals[self.block_of(v)] for v in self.graph.vertices}

    def __eq__(self, other):
        return self.graph is other.graph and self.blocks == other.blocks

    def __hash__(self):
        return hash(self.blocks)

    def __repr__(self):
        return f"FaceSubgraph(dim={self.dim}, blocks={[sorted(b) for b in self.blocks]})"


class _DSU:
    def __init__(self, items):
        self.p = {v: v for v in items}

    def find(self, v):
        p = self.p
        while p[v] != v:
            p[v] = p[p[v]]
            v = p[v]
        return v

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.p[ra] = rb

    def copy(self):
        d = _DSU([])
        d.p = dict(self.p)
        return d

    def blocks(self):
        out = {}
        for v in self.p:
            out.setdefault(self.find(v), []).append(v)
        return list(out.values())


def _closure(G, dsu, forbidden):
    """Apply the diamond-completion merges; False when a forbidden pair joins."""
    changed = True
    while changed:
        changed = False
        for v, w, below, above in G.row_pairs:
            if dsu.find(v) == dsu.find(w):
                for u in (below, above):
                    if u is not None and dsu.find(u) != dsu.find(v):
                        dsu.union(u, v)
                        changed = True
    for x, y in forbidden:
        if dsu.find(x) == dsu.find(y):
            return False
    return True


def _top_pairs(G, b):
    """(tied, untied) pairs of top vertices under the top values b."""
    if len(b) != G.l:
        raise ValueError("b length must match the top row")
    ties, untied = [], []
    for p, q in itertools.combinations(range(G.l), 2):
        (ties if b[p] == b[q] else untied).append((G.top[p], G.top[q]))
    return ties, untied


def enumerate_faces(G, b, only_vertices=False):
    """Faces of D_G(b), as FaceSubgraph partitions.

    Branches over edges (merge vs separate) with closure propagation from
    the minimal face, where the top vertices of equal values are joined;
    distinct values must stay apart.  With only_vertices it returns the
    0-dimensional faces only, by value assignment instead: every block of a
    vertex face meets the top row, so every coordinate of a vertex is a
    value of b.  The free vertices
    take those values in sorted order, each edge checked once its lower end,
    the later one, has a value.  At a leaf the blocks are the components of
    the tight edges and the tied top vertices, and the point is a vertex iff
    each block meets the top row.
    """
    b = BSeq(b) if not isinstance(b, BSeq) else b
    ties, forbidden = _top_pairs(G, b)
    if only_vertices:
        return _vertex_faces(G, b, ties)
    out = []
    edges = G.edges

    def recurse(dsu, sep_pairs, eidx):
        while eidx < len(edges):
            hi, lo = edges[eidx]
            if dsu.find(hi) == dsu.find(lo):
                eidx += 1
                continue
            if any(dsu.find(x) == dsu.find(hi) and dsu.find(y) == dsu.find(lo)
                   or dsu.find(x) == dsu.find(lo) and dsu.find(y) == dsu.find(hi)
                   for x, y in sep_pairs):
                eidx += 1
                continue
            break
        else:
            out.append(FaceSubgraph(G, dsu.blocks()))
            return
        hi, lo = edges[eidx]
        # branch: edge absent (endpoints stay separated)
        dsu2 = dsu.copy()
        sep2 = sep_pairs + [(hi, lo)]
        if _closure(G, dsu2, forbidden + sep2):
            recurse(dsu2, sep2, eidx + 1)
        # branch: edge present
        dsu3 = dsu.copy()
        dsu3.union(hi, lo)
        if _closure(G, dsu3, forbidden + sep_pairs):
            recurse(dsu3, sep_pairs, eidx + 1)

    dsu0 = _DSU(G.vertices)
    for x, y in ties:
        dsu0.union(x, y)
    if _closure(G, dsu0, forbidden):
        recurse(dsu0, [], 0)
    return out


def _vertex_faces(G, b, ties):
    """The 0-dimensional faces of D_G(b), by the value search of
    `enumerate_faces`."""
    x = dict(zip(G.top, b))
    free = sorted(G.vertices - x.keys())
    values = sorted(set(b))
    out = []

    def assign(k):
        if k == len(free):
            dsu = _DSU(G.vertices)
            for hi, lo in itertools.chain(G.edges, ties):
                if x[hi] == x[lo]:
                    dsu.union(hi, lo)
            reach = {dsu.find(v) for v in G.top}
            if all(dsu.find(v) in reach for v in free):
                out.append(FaceSubgraph(G, dsu.blocks()))
            return
        i, j = free[k]
        # x(i-1, j) >= x(i, j) >= x(i-1, j+1), on the neighbours above
        lo, hi = x.get((i - 1, j + 1), values[0]), x.get((i - 1, j), values[-1])
        for val in values:
            if lo <= val <= hi:
                x[free[k]] = val
                assign(k + 1)

    assign(0)
    return out


# ---------------------------------------------------------------------------
# polyhedra and boundedness
# ---------------------------------------------------------------------------

def polyhedron_of(G, b):
    """D_G(b) in the coordinates of the below-top vertices."""
    b = BSeq(b) if not isinstance(b, BSeq) else b
    fixed = {v: b[k] for k, v in enumerate(G.top)}
    free = [v for v in sorted(G.vertices) if v not in fixed]
    index = {v: k for k, v in enumerate(free)}
    ineqs = []
    for hi, lo in G.edges:
        # s_hi >= s_lo  ->  -s_hi + s_lo <= 0
        row = [0] * len(free)
        rhs = 0
        if hi in index:
            row[index[hi]] -= 1
        else:
            rhs += fixed[hi]
        if lo in index:
            row[index[lo]] += 1
        else:
            rhs -= fixed[lo]
        ineqs.append((tuple(row), rhs))
    return Polyhedron(len(free), ineqs, labels=[svar(v) for v in free])


def _closed_face(G, b, edges):
    """The smallest face of D_G(b) whose subgraph holds the given edges: the
    diamond closure of those edges and the ties of b, which must keep the
    top vertices of distinct values apart."""
    ties, forbidden = _top_pairs(G, b)
    dsu = _DSU(G.vertices)
    for x, y in itertools.chain(edges, ties):
        dsu.union(x, y)
    if not _closure(G, dsu, forbidden):
        raise InvariantError("the closure joins distinct values of b")
    return FaceSubgraph(G, dsu.blocks())


def minimal_face(G, b):
    """The face subgraph of D_G(b) itself (no tight edges beyond the forced),
    the closure of the tied top vertices."""
    b = BSeq(b) if not isinstance(b, BSeq) else b
    return _closed_face(G, b, ())


def is_bounded(G, b):
    """Boundedness of D_G(b) by the chain criterion on its minimal subgraph."""
    es = minimal_face(G, b).edge_set()
    for i in range(G.a, G.d):
        jl = G.rows[i][0]
        if (i + 1) in G.rows:
            jl2 = G.rows[i + 1][0]
            if jl2 == jl - 1:  # both leftmost, lower-left step
                e = ((i + 1, jl - 1), (i, jl))
                if e not in es:
                    return False
            jr = G.rows[i][-1]
            jr2 = G.rows[i + 1][-1]
            if jr2 == jr:      # both rightmost, lower-right step
                e = ((i, jr), (i + 1, jr))
                if e not in es:
                    return False
    return True


# ---------------------------------------------------------------------------
# the x-specialization
# ---------------------------------------------------------------------------

def f_monomial_map(vertices):
    """t_(i,j) -> x_i^{-1} x_{i+1} on the given lattice vertices."""
    out = {}
    for (i, j) in vertices:
        out[svar((i, j))] = Monomial({xvar(i): -1, xvar(i + 1): 1})
    return out


def x_variables(G):
    return [xvar(i) for i in range(G.a, G.d + 2)]


# ---------------------------------------------------------------------------
# cone transforms and the vertex route
# ---------------------------------------------------------------------------

# the most entries each module cache holds (here keyed by graph shape, in
# affine_hl by weight, qmax and z-point), so that it stays bounded
CACHE_LIMIT = 4096


def t_factorial(l):
    return t_factorials([l])


def t_factorials(lengths):
    """The product of the t-factorials [l]_t! = [2]_t [3]_t ... [l]_t."""
    out = T_ONE
    for l in lengths:
        for j in range(2, l + 1):
            out = out * TPoly({e: 1 for e in range(j)})
    return out


def t_multinomial(n, parts):
    if sum(parts) != n:
        raise ValueError("parts must sum to n")
    return t_factorial(n).exact_div(t_factorials(parts))


class ConePlan:
    """Combinatorial data for sigma_phi of the cone D_G(b,...,b).

    Lattice points sorted by value split into "runs" of equal coordinates;
    run sequences are ordered partitions of the block poset whose prefixes
    are up-sets, the run weights multiply, and consecutive runs contribute a
    geometric cut factor that depends only on the prefix.  The transform is
    therefore a sum over chains of up-sets (Stanley's P-partition
    recursion), which `schedule` lists once for every evaluator.  A set R
    is a run from the up-set U exactly when U | R is an up-set, so the runs
    from U are the differences V - U over the up-sets V above U.
    """

    def __init__(self, G):
        self.graph = G
        face = minimal_face(G, BSeq([0] * G.l))
        self.blocks = face.blocks
        self.n = len(self.blocks)
        block_of = face.block_of
        self.pin = block_of(G.top[0])
        self.block_rows = [Counter(i for i, _ in blk) for blk in self.blocks]
        self.neighbours = [set() for _ in self.blocks]
        parents = [set() for _ in self.blocks]
        for hi, lo in G.edges:
            bh, bl = block_of(hi), block_of(lo)
            if bh != bl:
                parents[bl].add(bh)
                self.neighbours[bh].add(bl)
                self.neighbours[bl].add(bh)
        # grow the up-sets one block at a time, a block whose parents are in
        level = {frozenset()}
        upsets = set(level)
        while level:
            level = {u | {b} for u in level for b in range(self.n)
                     if b not in u and parents[b] <= u}
            upsets |= level
        self.upsets = sorted(upsets, key=lambda s: (len(s), sorted(s)))
        if len(self.upsets[-1]) < self.n:
            raise InvariantError("block order relation has a cycle")
        # per proper non-empty up-set U, the cut monomial is the product over
        # U, or its inverse over the blocks outside U if U holds the pin
        full = self.upsets[-1]
        self.cut_blocks = [None] + [
            (True, tuple(sorted(full - u))) if self.pin in u
            else (False, tuple(sorted(u))) for u in self.upsets[1:-1]] + [None]
        self.schedule = self._build_schedule()

    def phi_run(self, run):
        """Key of the weight of a run: the sorted l of each factor (1 - t^l),
        from the face components inside the run.

        The components are those of the block graph, whose edges are the
        covers, restricted to the run, and their row counts are the sums of
        their blocks'.  This is exact because every block is connected in G:
        the diamond rule that builds the blocks adds (i+1, j), which is
        adjacent to both (i, j) and (i, j+1).
        """
        ls = []
        remaining = set(run)
        while remaining:
            stack = [remaining.pop()]
            counts = {}
            while stack:
                b = stack.pop()
                for i, l in self.block_rows[b].items():
                    counts[i] = counts.get(i, 0) + l
                for c in self.neighbours[b] & remaining:
                    remaining.remove(c)
                    stack.append(c)
            ls += _component_ls(counts, self.graph.a)
        return tuple(sorted(ls))

    def _build_schedule(self):
        """The up-set recursion as index lists.

        One step per up-set U other than the full set, the largest first, as
        (index of U in upsets, groups).  Each group is (phi_run key of the
        runs V - U, indices of the up-sets V above U with that run weight, in
        index order); `weights` holds each key's product.  `growth` sums
        over the chains the product of 2^(number of factors) of their runs'
        weights, a bound on the sum of the 1-norms of the weight products.
        """
        ups = self.upsets
        keys = {}
        self.weights = {}
        growth = [0] * (len(ups) - 1) + [1]
        steps = []
        for k in range(len(ups) - 2, -1, -1):
            groups = {}
            # the up-sets above U come after it in the (size, blocks) order
            for j in range(k + 1, len(ups)):
                if ups[k] < ups[j]:
                    run = ups[j] - ups[k]
                    key = keys.get(run)
                    if key is None:
                        key = keys[run] = self.phi_run(run)
                        if key not in self.weights:
                            self.weights[key] = _weight(key)
                    groups.setdefault(key, []).append(j)
                    growth[k] += growth[j] << len(key)
            steps.append((k, tuple((key, tuple(kids))
                                   for key, kids in groups.items())))
        self.growth = growth[0]
        return steps


@lru_cache(maxsize=CACHE_LIMIT)
def cone_plan(vertices):
    """The ConePlan of the ordinary graph on a frozenset of vertices."""
    return ConePlan(OrdinaryGraph(vertices))


class ConeTransform:
    """sigma_phi of an all-equal-values cone, as a lazily evaluated object.

    Holds the plan plus the current monomial images of the blocks (so that
    specializations are plain monomial maps) and the apex monomial.
    """

    __slots__ = ("plan", "block_monos", "apex", "_cuts")

    def __init__(self, plan, block_monos, apex):
        self.plan = plan
        self.block_monos = block_monos
        self.apex = apex
        self._cuts = {}

    @staticmethod
    def of_cone(G, b_value):
        plan = cone_plan(G.vertices)
        monos = [Monomial({svar(v): 1 for v in blk}) for blk in plan.blocks]
        apex = Monomial({svar(v): b_value for v in G.vertices}) if b_value \
            else Monomial.unit()
        return ConeTransform(plan, monos, apex)

    def subs_monomials(self, varmap):
        monos = [m.subs(varmap) for m in self.block_monos]
        ct = ConeTransform(self.plan, monos, self.apex.subs(varmap))
        for m in ct.cut_monomials():
            if m.is_unit():
                raise CollapseError("cut factor collapses to (1 - 1)")
        return ct

    def _cut_mono(self, k):
        """Monomial of the cut after the up-set of index k."""
        got = self._cuts.get(k)
        if got is None:
            inv, blocks = self.plan.cut_blocks[k]
            got = prod([self.block_monos[b] for b in blocks],
                       start=Monomial.unit())
            self._cuts[k] = got = got.inv() if inv else got
        return got

    def cut_monomials(self):
        return [self._cut_mono(k) for k in range(1, len(self.plan.upsets) - 1)]

    def cut_values(self, point):
        """Each up-set's cut p/q at a point, from the block values, as (p, q -
        p) with gcd(p, q) = 1 and q > 0 (None at the empty and the full set).
        Raises Pole where some cut c is 1 and c/(1 - c) is undefined."""
        blocks = [m.ratio(point) for m in self.block_monos]
        out = [None] * len(self.plan.cut_blocks)
        for k, (inv, bs) in enumerate(self.plan.cut_blocks[1:-1], 1):
            p = q = 1
            for b in bs:
                bp, bq = blocks[b]
                p *= bp
                q *= bq
            if inv:
                p, q = q, p
            if not q:
                raise ZeroDivisionError(f"{self._cut_mono(k)} has a pole "
                                        "at the point")
            if p == q:
                raise Pole(f"cut factor {self._cut_mono(k)} vanishes at point")
            g = gcd(p, q) if q > 0 else -gcd(p, q)
            out[k] = (p // g, (q - p) // g)
        return out

    def eval(self, point):
        """Exact value at a rational point, t symbolic; raises Pole where a
        cut factor vanishes.

        With D the product of |q_U - p_U| over the cuts p_U/q_U, a chain
        meets each up-set once, so N_U = D * (value of up-set U) is in Z[t]:
        N is D at the full set and N_U = p_U * (sum of weight * N_V) /
        (q_U - p_U) divides exactly; a remainder of the packed division
        raises InvariantError.  N_U is packed as its value at t = 2^B, so a
        factor (1 - t^l) is a shift and a subtraction.  B is two bits wider
        than growth * prod max(|p_U|, |q_U - p_U|), which bounds the
        coefficients at the empty set, so its base-2^B digits are them.
        """
        plan = self.plan
        cuts = self.cut_values(point)
        den, bound = 1, plan.growth
        for p, d in cuts[1:-1]:
            den *= abs(d)
            bound *= max(abs(p), abs(d))
        bits = bound.bit_length() + 2
        vals = [0] * (len(cuts) - 1) + [den]
        for k, groups in plan.schedule:
            total = 0
            for key, kids in groups:
                acc = sum(map(vals.__getitem__, kids))
                for l in key:
                    acc -= acc << (l * bits)
                total += acc
            if k:
                p, d = cuts[k]
                total, r = divmod(total * p, d)
                if r:
                    raise InvariantError("inexact division by a cut factor")
            vals[k] = total
        value = TPoly.unpack(vals[0], bits)
        return value if value.is_zero() else value * (self.apex.eval(point) / den)

    def _fold(self, one, zero, scale, cut):
        """The up-set recursion of `eval` in another ring.

        The value of the full set is `one`.  For each up-set U, the values
        reached by runs of one weight are summed, `scale(sum, weight)` is
        added to `zero`, and, unless U is empty, the total is multiplied by
        `cut(m)`, the factor m/(1 - m) of the cut monomial m of U.
        """
        plan = self.plan
        vals = [None] * len(plan.upsets)
        vals[-1] = one
        for k, groups in plan.schedule:
            total = zero
            for key, kids in groups:
                acc = vals[kids[0]]
                for j in kids[1:]:
                    acc = acc + vals[j]
                total = total + scale(acc, plan.weights[key])
            if k:
                total = total * cut(self._cut_mono(k))
            vals[k] = total
        return vals[0]

    def expand(self):
        """Full RationalFn expansion (small cones only)."""
        return self._fold(
            RationalFn(LaurentPoly.one()), RationalFn.zero(),
            lambda val, phi: val * phi,
            lambda m: RationalFn(LaurentPoly.from_monomial(m), [(m, 1)]),
        ) * self.apex

    def series_unit(self, order, zpoint=None):
        """Truncated q-series of the transform without its apex monomial.

        The block monomials must already live in the z/q variables (apply a
        monomial substitution first); with zpoint given the z-variables are
        evaluated at rationals.  All cut factors have nonnegative q-valuation
        as series, so the result is exact to the requested order.
        """
        def cut_series(mono):
            if mono.is_unit():
                raise UnitFactor("cut factor equals 1")
            coeff, q = zq_coeff(mono, zpoint)
            # geometric sum m/(1 - m), built directly so no precision is lost:
            # deg m > 0: sum_{j>=1} m^j;  deg m < 0: -sum_{j>=0} m^{-j};
            # deg m = 0: a single coefficient in the fraction field.
            coeffs = {}
            if q > 0:
                power = coeff
                for e in range(q, order + 1, q):
                    coeffs[e] = power
                    power = power * coeff
            elif q < 0:
                power, step = -Coeff.one(), coeff.inv()
                for e in range(0, order + 1, -q):
                    coeffs[e] = power
                    power = power * step
            else:
                coeffs[0] = coeff / (Coeff.one() - coeff)
            return TruncatedSeries(order, coeffs, zpoint)

        return self._fold(TruncatedSeries.one(order, zpoint),
                          TruncatedSeries.zero(order, zpoint),
                          lambda val, phi: val.scale(phi), cut_series)


def product_value(cones, point):
    """Value at a point of the product of a tuple of cone transforms."""
    total = T_ONE
    for ct in cones:
        total = total * ct.eval(point)
    return total


def sigma_cone_polyhedral(G, b_value):
    """sigma_phi of the cone D_G(b,...,b) through the generic polyhedral
    machinery, expanded: an oracle for ConeTransform on small graphs."""
    faces = enumerate_faces(G, BSeq([0] * G.l))
    fn = ipt_weighted(_cone_weighted(G, faces)).expand()
    if b_value:
        fn = fn * Monomial({svar(v): b_value for v in G.vertices})
    return fn


def _cone_weighted(G, faces):
    """WeightedCone for D_G(0,...,0) from its face subgraphs."""
    labels = [svar(v) for v in sorted(G.vertices)]
    index = {v: k for k, v in enumerate(sorted(G.vertices))}
    apex = tuple(0 for _ in labels)
    rays = []
    ray_edge_sets = []
    for f in faces:
        if f.dim != 1:
            continue
        free = [blk for blk in f.blocks if not (blk & set(G.top))]
        if len(free) != 1:
            raise InvariantError("a ray face has one free block")
        blk = free[0]
        sign = None
        for hi, lo in G.edges:
            inb_hi, inb_lo = hi in blk, lo in blk
            if inb_hi == inb_lo:
                continue
            s = 1 if inb_hi else -1
            if sign == -s:
                raise InvariantError("inconsistent ray orientation")
            sign = s
        if sign is None:
            raise InvariantError("ray block meets no edge")
        vec = [0] * len(labels)
        for v in blk:
            vec[index[v]] = sign
        rays.append(tuple(vec))
        ray_edge_sets.append(f.edge_set())
    face_records = []
    for f in faces:
        es = f.edge_set()
        rs = frozenset(i for i, res in enumerate(ray_edge_sets) if res >= es)
        face_records.append((rs, f.dim, f.phi()))
    return WeightedCone(apex, rays, face_records, labels)


def _vertex_cones(G, b, cone):
    """(vertex face, tuple of cone(block, value) over its blocks) for every
    vertex of D_G(b).

    The tangent cone at a vertex is the direct sum over the components of the
    vertex subgraph, each an all-equal-values cone over a smaller graph, so
    its transform is the product of one ConeTransform per block.
    """
    b = BSeq(b) if not isinstance(b, BSeq) else b
    out = []
    for f in enumerate_faces(G, b, only_vertices=True):
        vals = f.top_values(b)
        out.append((f, tuple(cone(blk, vals[bi])
                             for bi, blk in enumerate(f.blocks))))
    return out


def vertex_contributions(G, b):
    """(vertex face, sigma_phi of its tangent cone) for every vertex of
    D_G(b), the transform as a tuple of ConeTransforms, one per block."""
    return _vertex_cones(G, b, lambda blk, value: ConeTransform.of_cone(
        OrdinaryGraph(blk), value))


@lru_cache(maxsize=CACHE_LIMIT)
def _cone_transform_x(blk, b_value):
    """F-image of the block cone transform; the variable map is intrinsic to
    the lattice vertices, so the cache is global."""
    sub = OrdinaryGraph(blk)
    return ConeTransform.of_cone(sub, b_value).subs_monomials(
        f_monomial_map(sub.vertices))


def psi_terms(G, b):
    """Per-vertex contributions to psi_G(b), already in the x-variables: the
    vertex face and its tuple of ConeTransforms, one per block."""
    return _vertex_cones(G, b, _cone_transform_x)


def psi_is_zero(G, b, trials=5, seed=0, rng=None):
    """Randomized test that psi_G(b) vanishes identically."""
    rng = rng or random.Random(seed)
    terms = [cones for _, cones in psi_terms(G, b)]

    def vanishes(point):
        return sum((product_value(cones, point) for cones in terms),
                   T_ZERO).is_zero()

    return at_random_points(x_variables(G), rng, trials, vanishes)


# ---------------------------------------------------------------------------
# degenerations
# ---------------------------------------------------------------------------

def degeneration_map(G, b, b2, face):
    """Image of a (G, b)-face under degeneration to the values b2, which
    must coarsen b: equal values of b stay equal in b2.

    The image is the smallest face of D_G(b2) whose subgraph contains the
    edges of the given face (`_closed_face`).
    """
    b = BSeq(b) if not isinstance(b, BSeq) else b
    b2 = BSeq(b2) if not isinstance(b2, BSeq) else b2
    if len(b) != len(b2):
        raise ValueError("b and b2 must have the same length")
    if any(b[p] == b[p + 1] and b2[p] != b2[p + 1] for p in range(len(b) - 1)):
        raise ValueError("b2 must coarsen b")
    return _closed_face(G, b2, face.edge_set())


def verify_graphsum(G, b, b2):
    """Exact check of the factorial-weighted face identity for a degeneration.

    For every face f of D_G(b2):
      prod [l_i]_t! * phi_G(b2)(f) = sum over preimages g of
      (-1)^{dim g - dim f} phi_G(b)(g).
    """
    b = BSeq(b) if not isinstance(b, BSeq) else b
    b2 = BSeq(b2) if not isinstance(b2, BSeq) else b2
    fac = t_factorials(b2.run_lengths())
    faces_b = enumerate_faces(G, b)
    faces_b2 = enumerate_faces(G, b2)
    sums = {f: TPoly.zero() for f in faces_b2}
    for g in faces_b:
        img = degeneration_map(G, b, b2, g)
        sign = 1 if (g.dim - img.dim) % 2 == 0 else -1
        sums[img] = sums[img] + (g.phi() if sign > 0 else -g.phi())
    return all(sums[f] == fac * f.phi() for f in faces_b2)


def verify_gensingular(G, b, b2, trials=3, seed=0):
    """Randomized check of the degeneration identity for the transforms.

    prod [l_i]_t! * sigma_phi(b2)(D(b2)) = sum over vertices v of D(b) of
    e^{pi(v) - v} sigma_phi(b)(C_v), with both sides computed by the vertex
    route and compared at random rational points in the s-variables.
    """
    rng = random.Random(seed)
    b = BSeq(b) if not isinstance(b, BSeq) else b
    b2 = BSeq(b2) if not isinstance(b2, BSeq) else b2
    fac = t_factorials(b2.run_lengths())
    lhs = [cones for _, cones in vertex_contributions(G, b2)]
    rhs = []
    for f, cones in vertex_contributions(G, b):
        img = degeneration_map(G, b, b2, f)
        if img.dim:
            raise InvariantError("a vertex degenerates to a face of "
                                 f"dimension {img.dim}")
        coords = f.vertex_coordinates(b)
        coords2 = img.vertex_coordinates(b2)
        shift = Monomial({svar(v): coords2[v] - coords[v]
                          for v in G.vertices if coords2[v] != coords[v]})
        rhs.append((cones, shift))

    def holds(point):
        va = sum((product_value(cones, point) for cones in lhs), T_ZERO)
        vb = sum((product_value(cones, point) * shift.eval(point)
                  for cones, shift in rhs), T_ZERO)
        return va * fac == vb

    return at_random_points([svar(v) for v in G.vertices], rng, trials, holds)


def verify_face_euler_sum(n, lam):
    """Sum of (-1)^dim phi over the faces of the interlacing polytope equals
    the t-multinomial of the part multiplicities."""
    G = triangle_graph(n)
    b = BSeq(list(lam) + [0])
    total = TPoly.zero()
    for f in enumerate_faces(G, b):
        total = total + (f.phi() if f.dim % 2 == 0 else -f.phi())
    return total == t_multinomial(n, b.run_lengths())


# ---------------------------------------------------------------------------
# exhaustive generation of ordinary graphs
# ---------------------------------------------------------------------------

def enumerate_ordinary_graphs(max_vertices):
    """All ordinary graphs with at most max_vertices vertices, up to lattice
    translation (top row 0, leftmost column 1), sorted by (size, signature).

    Each is built once, as a stack of row intervals [s, e] (the cells
    (i, s), ..., (i, e)) on a top row [0, w - 1]: below [s, e] comes
    [s', e'] with s' in {s - 1, s}, e' in {e - 1, e} and s' <= e', and a
    stack whose last row is one cell is a graph.

    Rows are intervals: else take cells (i, j), (i, k) with (i, m) missing
    for some j < m < k, joined by the shortest path in G over all such
    pairs.  Its inside avoids row i (a cell there would split it into paths
    for two pairs, one with a missing cell), so it runs below or above row
    i.  Below, its first and last cells of row i + 1 have columns <= j and
    >= k - 1, and (i + 1, m - 1) or (i + 1, m) is missing, else (i, m) is
    in G by the closed-up rule; above, those of row i - 1 have columns
    <= j + 1 and >= k, and (i - 1, m) or (i - 1, m + 1) is missing by the
    closed-down rule.  Either way they are such a pair, two steps closer.

    No other successor: the closed-down rule puts [s, e - 1] in [s', e'],
    the closed-up rule [s' + 1, e'] in [s, e], and as edges join adjacent
    rows only, some cell (i + 1, j') of a connected G has s - 1 <= j' <= e.
    These leave the listed rows (the third counts for two one-cell rows).  A
    last row of two cells would force a row below it.  Conversely each
    stack satisfies both rules, every cell below the top row has an upper
    neighbour, and the top row's cells meet in row 1, so it is connected.
    The top row fixes the translation, so no graph is built twice.
    """
    out = []

    def grow(rows, size):
        s, e = rows[-1]
        if s == e:
            left = min(r[0] for r in rows) - 1
            out.append(OrdinaryGraph([(i, j - left) for i, (a, b) in
                                      enumerate(rows) for j in range(a, b + 1)]))
        for s2, e2 in ((s - 1, e - 1), (s - 1, e), (s, e - 1), (s, e)):
            if s2 <= e2 and size + e2 - s2 < max_vertices:
                grow(rows + [(s2, e2)], size + e2 - s2 + 1)

    for w in range(1, max_vertices + 1):
        grow([(0, w - 1)], w)
    out.sort(key=lambda g: (len(g.vertices), g.signature()))
    return out


# ---------------------------------------------------------------------------
# polyhedral bridges
# ---------------------------------------------------------------------------

def weighted_brion_instance(G, b):
    """Polyhedron, face-weight callback and vertex list for a Brion check.

    The weight of a tight-set face is read off the subgraph of tight edges;
    vertices come from the 0-dimensional face subgraphs and are returned in
    the polyhedron's coordinate order.
    """
    b = BSeq(b) if not isinstance(b, BSeq) else b
    P = polyhedron_of(G, b)
    free = sorted(G.vertices - set(G.top))
    weights = {}    # tight set -> weight, at most one entry per face of P

    def phi(face):
        w = weights.get(face.tight)
        if w is None:
            dsu = _DSU(G.vertices)
            for idx in face.tight:
                hi, lo = G.edges[idx]
                dsu.union(hi, lo)
            w = weights[face.tight] = FaceSubgraph(G, dsu.blocks()).phi()
        return w

    vertices = []
    for f in enumerate_faces(G, b, only_vertices=True):
        coords = f.vertex_coordinates(b)
        vertices.append(tuple(coords[v] for v in free))
    vertices.sort()
    return P, phi, vertices


INSTANCE_POOL_VERTICES = 8      # size bound of the wider sampled graphs
INSTANCE_VALUE_RANGE = 3        # top values are drawn from [0, 3]


def random_bounded_instances(count, seed, max_dim=8):
    """Random bounded polyhedron instances (graph, b) for identity checks.

    Bounded members of the family are dominated by the triangle shapes (the
    interlacing polytopes); wider graphs only bound when ties in b force the
    flank chains, so both kinds are sampled.
    """
    rng = random.Random(seed)
    triangles = [triangle_graph(n) for n in (2, 3, 4)]
    pool = [g for g in enumerate_ordinary_graphs(INSTANCE_POOL_VERTICES)
            if 1 <= len(g.vertices) - g.l <= max_dim]
    out = []
    attempts = 0
    while len(out) < count and attempts < 2000 * count:
        attempts += 1
        if rng.random() < 0.6:
            G = rng.choice(triangles)
        else:
            G = rng.choice(pool)
        vals = sorted((rng.randint(0, INSTANCE_VALUE_RANGE)
                       for _ in range(G.l)), reverse=True)
        if len(set(vals)) == 1:
            continue
        b = BSeq(vals)
        if len(G.vertices) - G.l <= max_dim and is_bounded(G, b):
            out.append((G, b))
    if len(out) < count:
        raise InvariantError("could not sample enough bounded instances")
    return out
