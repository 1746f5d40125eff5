"""Finite-dimensional weighted polyhedral engine.

Rational polyhedra are given by integer inequality systems a.x <= b (plus
equalities).  The module computes lattice points, vertex sets, face lattices,
integer-point transforms of pointed cones and weighted transforms where a
weight from Z[t] is attached to every face.  A cone with linearly independent
rays is simplicial and its own closed cell; any other is triangulated once.
Each face takes the cells restricted to it (De Loera, Rambau and Santos
2010), made half-open by a generic point of the face (Koeppe and Verdoolaege
2008) when there are two or more, so every lattice point is counted exactly
once.  A weighted transform stays a sum over those cells (`CellSum`),
evaluated at a point over one integer denominator and expanded into a
rational function only on request.  Pointedness is decided by the vertex
search: a cone holds a line iff the polytope of its nonnegative ray
combinations that sum to zero, with coefficients summing to one, has a
vertex.  All arithmetic is exact.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .ring import (
    InvariantError, LaurentPoly, Monomial, Pole, RationalFn, SearchExhausted,
    TPoly, T_ONE, T_ZERO, at_random_points,
)


class Unbounded(ValueError):
    """Operation requires a bounded polyhedron."""


class NotInPolyhedron(ValueError):
    pass


class NotSimplicial(ValueError):
    pass


class NotPointed(ValueError):
    pass


class WeightMissing(KeyError):
    pass


# ---------------------------------------------------------------------------
# exact linear algebra: one fraction-free elimination kernel
# ---------------------------------------------------------------------------

def _int_row(row):
    """The row scaled by the least positive integer that makes it integral."""
    if all(type(x) is int for x in row):
        return list(row)
    den = math.lcm(*[x.denominator for x in row])
    return [x.numerator * (den // x.denominator) for x in row]


def _eliminate(rows, ncols=None):
    """Fraction-free Gauss-Jordan elimination of rational rows (Bareiss 1968).

    Each row is first scaled by a positive integer to integer entries, which
    keeps its row space and its solution set.  Pivots are sought column by
    column among the first `ncols` columns (all by default), each in the first
    remaining row with a nonzero entry there.  Returns (m, pivots, det): for
    i < rank = len(pivots), m[i][pivots[i]] == det and every other row is zero
    in column pivots[i]; rows from rank on are zero in the first ncols
    columns.  det is the nonzero determinant of the pivot minor up to sign
    (1 when rank is 0), and m / det is the reduced row echelon form.  Every
    update divides exactly, by Sylvester's identity.
    """
    m = [_int_row(r) for r in rows]
    nrows = len(m)
    if ncols is None:
        ncols = len(m[0]) if m else 0
    pivots = []
    det = 1
    for col in range(ncols):
        rank = len(pivots)
        if rank == nrows:
            break
        for piv in range(rank, nrows):
            if m[piv][col]:
                break
        else:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        det = _pivot_step(m, rank, col, det)
        pivots.append(col)
    return m, pivots, det


def _pivot_step(m, k, col, det):
    """One Bareiss step on the rows m, in place: row k becomes the pivot row
    of column col and every other row is cleared there.  det is the common
    diagonal of the earlier pivot rows; returns the new one, m[k][col].
    Every update divides exactly, by Sylvester's identity."""
    pr = m[k]
    p = pr[col]
    for i, row in enumerate(m):
        if i == k:
            continue
        f = row[col]
        if f:
            m[i] = [(p * a - f * b) // det for a, b in zip(row, pr)]
        elif p != det:
            m[i] = [p * a // det for a in row]
    return p


def _reduce_row(r, m, pivots, det):
    """r reduced against the pivot rows m of a Bareiss Gauss-Jordan form
    with common diagonal det: det * r - sum r[c_i] * m_i, integer minors."""
    red = [det * a for a in r]
    for row, c in zip(m, pivots):
        f = r[c]
        if f:
            red = [a - f * b for a, b in zip(red, row)]
    return red


def mat_rank(rows):
    return len(_eliminate(rows)[1])


def solve_affine(rows, rhs):
    """Solve rows . x = rhs exactly.

    Returns (particular solution, nullspace basis) or None if inconsistent.
    """
    if not rows:
        raise ValueError("empty system")
    n = len(rows[0])
    m, pivots, det = _eliminate([list(r) + [b] for r, b in zip(rows, rhs)], n)
    if any(row[n] for row in m[len(pivots):]):
        return None
    x0 = [Fraction(0)] * n
    for row, col in zip(m, pivots):
        x0[col] = Fraction(row[n], det)
    basis = []
    for fc in range(n):
        if fc in pivots:
            continue
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for row, col in zip(m, pivots):
            v[col] = Fraction(-row[fc], det)
        basis.append(v)
    return x0, basis


def _adjugate(rows):
    """Inverse data of a k x d matrix of rank k: (cols, adj, det) with cols
    its pivot columns and adj / det, det > 0, the inverse of its square
    submatrix on those columns; None when the rank is below k."""
    k, d = len(rows), len(rows[0])
    ident = [[int(i == j) for j in range(k)] for i in range(k)]
    m, cols, det = _eliminate([list(r) + e for r, e in zip(rows, ident)], d)
    if len(cols) < k:
        return None
    sign = 1 if det > 0 else -1
    return cols, [[sign * x for x in row[d:]] for row in m], sign * det


def primitive(vec):
    """Primitive integer vector in the same direction."""
    ints = _int_row(vec)
    g = math.gcd(*ints)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return tuple(x // g for x in ints)


# ---------------------------------------------------------------------------
# polyhedra
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Face:
    """A face identified by the set of inequalities tight on it."""
    tight: frozenset
    dim: int
    vertex_ids: frozenset = frozenset()


class Polyhedron:
    """Rational polyhedron {x : ineqs . x <= rhs, eqs . x = rhs}."""

    def __init__(self, dim, ineqs, eqs=(), labels=None):
        self.dim = dim
        self.ineqs = [(tuple(a), b) for a, b in ineqs]
        self.eqs = [(tuple(a), b) for a, b in eqs]
        self.labels = list(labels) if labels else [f"x{i+1}" for i in range(dim)]
        for a, b in self.ineqs + self.eqs:
            if len(a) != dim:
                raise ValueError("coefficient vector length mismatch")
            if not all(type(x) is int for x in (*a, b)):
                raise ValueError("entries must be integers")

    @staticmethod
    def from_json(data):
        if isinstance(data, str):
            data = json.loads(data)
        d = data["dim"]
        ineqs = [(row[:-1], row[-1]) for row in data.get("ineqs", [])]
        eqs = [(row[:-1], row[-1]) for row in data.get("eqs", [])]
        return Polyhedron(d, ineqs, eqs, data.get("labels"))

    def contains(self, x):
        return (all(_dot(a, x) <= b for a, b in self.ineqs)
                and all(_dot(a, x) == b for a, b in self.eqs))

    def tight_at(self, x):
        if not self.contains(x):
            raise NotInPolyhedron(str(x))
        return frozenset(i for i, (a, b) in enumerate(self.ineqs)
                         if _dot(a, x) == b)

    def face_dim(self, tight):
        rows = [list(self.eqs[i][0]) for i in range(len(self.eqs))]
        rows += [list(self.ineqs[i][0]) for i in tight]
        if not rows:
            return self.dim
        return self.dim - mat_rank(rows)

    def minimal_face(self, x):
        tight = self.tight_at(x)
        return Face(tight, self.face_dim(tight))

    # -- vertices ---------------------------------------------------------

    def vertices_bruteforce(self):
        """Vertex enumeration by depth-first search over tight sets.

        A vertex solves the equalities and dim - rank(eqs) independent tight
        inequalities.  The search takes the inequalities in increasing index
        order and keeps the Bareiss Gauss-Jordan form (`_eliminate`) of the
        rows taken: each node reduces one more row r against the pivot rows
        to the integer minors det * r - sum r[c_i] * row_i.  A row whose
        coefficients all reduce to zero depends on the rows before it, as in
        every superset, so the search goes no deeper there.  Returns the
        distinct vertices as sorted tuples of Fractions.
        """
        n = self.dim
        m, pivots, det = _eliminate([list(a) + [b] for a, b in self.eqs], n)
        if any(row[n] for row in m[len(pivots):]):
            return []
        rows = [_int_row(list(a) + [b]) for a, b in self.ineqs]   # [a | b]
        inside = {}     # (numerators, denominator) in lowest terms -> in P

        def search(m, pivots, det, start):
            if len(pivots) == n:
                # x[c_i] = m_i[n] / det, on which the equalities hold
                num = [0] * n
                for row, c in zip(m, pivots):
                    num[c] = row[n]
                g = math.gcd(det, *num) * (1 if det > 0 else -1)
                num, den = tuple(x // g for x in num), det // g
                if (num, den) not in inside:
                    # _dot(r, num) stops at len(num): a . num
                    inside[num, den] = all(_dot(r, num) <= r[n] * den
                                           for r in rows)
                return
            for j in range(start, len(rows) - (n - len(pivots)) + 1):
                red = _reduce_row(rows[j], m, pivots, det)
                col = next((c for c in range(n) if red[c]), None)
                if col is None:
                    continue
                m2 = m + [red]
                search(m2, pivots + [col], _pivot_step(m2, len(m), col, det),
                       j + 1)

        search(m[:len(pivots)], pivots, det, 0)
        return sorted(tuple(Fraction(x, den) for x in num)
                      for (num, den), ok in inside.items() if ok)

    def recession_direction_axis(self):
        """Cheap unboundedness witness: a +-coordinate recession direction."""
        for i in range(self.dim):
            for sgn in (1, -1):
                d = [0] * self.dim
                d[i] = sgn
                if all(_dot(a, d) <= 0 for a, _ in self.ineqs) and \
                   all(_dot(a, d) == 0 for a, _ in self.eqs):
                    return tuple(d)
        return None

    def lattice_points(self, assume_bounded=False, vertices=None):
        """All integer points, sorted; requires a bounded polyhedron.

        `vertices`, when given, are P's vertices and replace the vertex
        search that sizes the box."""
        if self.recession_direction_axis() is not None:
            raise Unbounded("axis recession direction found")
        verts = self.vertices_bruteforce() if vertices is None else vertices
        if not assume_bounded and not self._bounded_check(verts):
            raise Unbounded("recession direction found")
        if not verts:
            return []
        los = [min(v[i] for v in verts) for i in range(self.dim)]
        his = [max(v[i] for v in verts) for i in range(self.dim)]
        out = []
        rngs = [range(_ceil(lo), _floor(hi) + 1) for lo, hi in zip(los, his)]
        for x in itertools.product(*rngs):
            if self.contains(x):
                out.append(x)
        return out

    def _bounded_check(self, verts):
        """Whether P, with vertices verts, is bounded; an empty P is."""
        a_rows = [a for a, _ in self.ineqs]
        e_rows = [e for e, _ in self.eqs]
        pivots = _eliminate(e_rows + a_rows, self.dim)[1]
        if len(pivots) < self.dim:
            # P holds the lines along the kernel of [A; E], and each point
            # of P moves along them to one with 0 off the pivot columns
            axes = [(tuple(int(i == j) for i in range(self.dim)), 0)
                    for j in range(self.dim) if j not in pivots]
            return not Polyhedron(self.dim, self.ineqs,
                                  self.eqs + axes).vertices_bruteforce()
        if not verts:
            return True
        # [A; E] has full rank, so u = -(sum of the rows of A) is positive
        # on the recession cone C = {d : Ad <= 0, Ed = 0} off 0: C is {0}
        # iff its section u.d = 1, a polytope, has no vertex
        u = [-sum(a[i] for a in a_rows) for i in range(self.dim)]
        section = Polyhedron(self.dim, [(a, 0) for a in a_rows],
                             [(e, 0) for e in e_rows] + [(u, 1)])
        return not section.vertices_bruteforce()


def _dot(a, x):
    return sum(ai * xi for ai, xi in zip(a, x))


def _ceil(x):
    f = Fraction(x)
    return -((-f.numerator) // f.denominator)


def _floor(x):
    f = Fraction(x)
    return f.numerator // f.denominator


# ---------------------------------------------------------------------------
# face lattice of a bounded polyhedron
# ---------------------------------------------------------------------------

def face_lattice(P, vertices=None):
    """All faces of a bounded polyhedron, from vertex tight-set intersections.

    Returns a list of Face records (including the vertices and P itself).
    """
    if vertices is None:
        vertices = P.vertices_bruteforce()
    if not vertices:
        return []
    tights = [P.tight_at(v) for v in vertices]
    seen = {t: None for t in tights}
    frontier = list(seen)
    while frontier:
        nxt = []
        for t in frontier:
            for t2 in tights:
                u = t & t2
                if u not in seen:
                    seen[u] = None
                    nxt.append(u)
        frontier = nxt
    faces = []
    for t in seen:
        vids = frozenset(i for i, tv in enumerate(tights) if tv >= t)
        faces.append(Face(t, P.face_dim(t), vids))
    faces.sort(key=lambda f: (f.dim, sorted(f.tight)))
    return faces


def weighted_sum_bruteforce(P, phi, assume_bounded=False, vertices=None):
    """Sum of phi(minimal face containing a) * e^a over lattice points a;
    `vertices` as for `Polyhedron.lattice_points`."""
    return LaurentPoly.sum_terms(
        (_point_monomial(pt, P.labels), _as_tpoly(phi(P.minimal_face(pt))))
        for pt in P.lattice_points(assume_bounded=assume_bounded,
                                   vertices=vertices))


def _as_tpoly(w):
    return TPoly.const(w) if isinstance(w, int) else w


def _point_monomial(pt, labels):
    return Monomial({lab: int(x) for lab, x in zip(labels, pt)})


# ---------------------------------------------------------------------------
# integer point transforms of pointed cones
# ---------------------------------------------------------------------------

def parallelepiped_points(apex, rays, open_idx=frozenset()):
    """Integer points of the half-open parallelepiped apex + sum a_i r_i.

    a_i in [0,1) for closed facet directions and (0,1] for i in open_idx.
    The apex must be integral.
    """
    if any(int(x) != x for x in apex):
        raise ValueError("apex must be integral")
    apex = [int(x) for x in apex]
    k = len(rays)
    if k == 0:
        return [tuple(apex)]
    # a lattice point x of the span is alpha . rays with det * alpha =
    # x[cols] . adj, so det * alpha mod det lies in the group that the rows
    # of adj generate in (Z/det)^k, of at most det elements; each element g
    # names one point of the parallelepiped, a lattice point when integral
    inv = _adjugate(rays)
    if inv is None:
        raise NotSimplicial("rays are linearly dependent")
    cols, adj, det = inv
    group = {(0,) * k}
    todo = list(group)
    while todo:
        g = todo.pop()
        for row in adj:
            h = tuple((a + b) % det for a, b in zip(g, row))
            if h not in group:
                group.add(h)
                todo.append(h)
    pts = []
    for g in group:
        # g_i = det * (fractional part of alpha_i), 0 read as det on open facets
        p = [det * a for a in apex]
        for i, (f, r) in enumerate(zip(g, rays)):
            if f == 0 and i in open_idx:
                f = det
            if f:
                p = [a + f * b for a, b in zip(p, r)]
        if all(a % det == 0 for a in p):
            pts.append(tuple(a // det for a in p))
    return sorted(pts)


def triangulate(rays):
    """Regular triangulation of a ray list into full-rank simplicial cells.

    The rays must span the space of their coordinates, as they do once
    projected onto their pivot columns (see `ipt_cone`).  Deterministic:
    heights come from a fixed hash; degenerate height vectors are perturbed
    by retrying with a new salt.
    """
    rays = [list(r) for r in rays]
    m, rank = len(rays), len(rays[0])
    for salt in range(64):
        heights = [Fraction(1 + ((i + 1) * 2654435761 + salt * 97003) % 1000003,
                            1 + ((i + salt) * 7919) % 503)
                   for i in range(m)]
        cells = []
        degenerate = False
        for subset in itertools.combinations(range(m), rank):
            # the linear form w with w . rays[i] = heights[i] on the subset
            # is w = red[:, rank] / det
            red, piv, det = _eliminate(
                [rays[i] + [heights[i]] for i in subset], rank)
            if len(piv) < rank:
                continue
            sign = 1 if det > 0 else -1
            w = [sign * row[rank] for row in red]
            ok = True
            for j in range(m):
                if j in subset:
                    continue
                # w . rays[j] against heights[j], both times |det| * den
                h = heights[j]
                val = sum(a * b for a, b in zip(w, rays[j])) * h.denominator
                bound = h.numerator * sign * det
                if val == bound:
                    degenerate = True
                    ok = False
                    break
                if val > bound:
                    ok = False
                    break
            if degenerate:
                break
            if ok:
                cells.append(tuple(subset))
        if not degenerate and cells:
            return cells
    raise SearchExhausted("triangulation failed to find generic heights")


def half_open_cells(rays, cells, face=None, invs=None):
    """Half-open cells that partition a face of cone(rays), as (face cell,
    open positions in it, positions of the cells that hold it) triples.

    The rays span their coordinates and the cells triangulate the cone, as
    from `triangulate`; face holds the indices of its rays (all by default).
    The cells' rays on the face, those of full face rank, triangulate it
    (De Loera, Rambau and Santos 2010, 2.3).  If there are two or more, a
    generic y = sum gen_i rays_i of the face opens each face cell on the
    facets whose side faces away from y (Koeppe and Verdoolaege 2008): the
    rays i with beta_i < 0 in y = sum beta_i rays_i, read through the
    adjugate of a cell that holds it, cached in invs across the faces.
    """
    face = range(len(rays)) if face is None else face
    held = {}       # face cell -> positions of the cells holding it
    for p, cell in enumerate(cells):
        held.setdefault(tuple(i for i in cell if i in face), []).append(p)
    k = max(map(len, held))
    held = [(sub, ps) for sub, ps in held.items() if len(sub) == k]
    if len(held) == 1:
        return [(sub, frozenset(), ps) for sub, ps in held]
    invs = {} if invs is None else invs
    rank = len(rays[0])
    for salt in range(64):
        gen = _int_row([Fraction(1 + ((i + 2) * 40503 + salt * 131) % 9973,
                                 1 + ((i + 1) * (salt + 3)) % 89)
                        for i in range(len(rays))])
        y = [sum(gen[i] * rays[i][c] for i in face) for c in range(rank)]
        out = []
        for sub, ps in held:
            p = ps[0]
            if p not in invs:
                invs[p] = _adjugate([rays[i] for i in cells[p]])[1]
            # beta = y . adj / det with det > 0: the signs of y . adj
            beta = dict(zip(cells[p], (sum(a * b for a, b in zip(y, col))
                                       for col in zip(*invs[p]))))
            if any(beta[i] == 0 for i in sub):
                break
            out.append((sub, frozenset(j for j, i in enumerate(sub)
                                       if beta[i] < 0), ps))
        else:
            return out
    raise SearchExhausted("half-open decomposition failed to find a generic point")


def check_pointed(rays):
    """Raise NotPointed when the cone spanned by the rays holds a line.

    It does iff some lambda >= 0, not 0, has sum lambda_i rays_i = 0, that is
    iff the polytope {lambda >= 0, sum lambda_i rays_i = 0, sum lambda_i = 1}
    is nonempty, which a polytope is iff it has a vertex.
    """
    if not rays:
        return
    k = len(rays)
    nonneg = [(tuple(-int(i == j) for j in range(k)), 0) for i in range(k)]
    eqs = [(col, 0) for col in zip(*rays)] + [((1,) * k, 1)]
    if Polyhedron(k, nonneg, eqs).vertices_bruteforce():
        raise NotPointed("a nonnegative combination of the rays is zero")


def _cells(apex, rays):
    """(proj, cells) for the pointed cone apex + cone(rays), distinct rays:
    proj holds the rays projected onto their pivot columns, an injective map
    on their span, and cells (cell, points) pairs, with the lattice points of
    each closed cell's parallelepiped.  Independent rays span a simplicial
    cone that is its own cell; dependent ones are checked for pointedness
    and their projection is triangulated."""
    cols = _eliminate(rays)[1]
    proj = [[r[c] for c in cols] for r in rays]
    if len(cols) == len(rays):
        cells = [tuple(range(len(rays)))]
    else:
        check_pointed(proj)
        cells = triangulate(proj)
    return proj, [(cell, parallelepiped_points(apex, [rays[i] for i in cell]))
                  for cell in cells]


class CellSum:
    """A sum of coeff * IPT(face cone) over faces of one cone, kept as the
    half-open simplicial cells of each face cone instead of one RationalFn.

    The cone is decomposed once (`_cells`) and each face restricts its cells
    (`half_open_cells`, which cites why that works): a face cell in a
    unimodular cell is its corner alone, a whole closed cell keeps its points.

    rays holds x^r for the rays of its faces, which are the rays that its
    cells use: every triangulation of a pointed cone uses all its extreme
    rays.  A cell's corner is the apex plus its open rays, and its points are
    the corner plus each monomial in offsets (None: the corner alone, as in
    every unimodular cell).  At x^r = p_r / q_r the cell's transform is
    x^apex * (sum of the offsets) * prod_{r open} p_r * prod_{r closed} q_r /
    prod_{r in cell} (q_r - p_r), so over the common denominator
    prod_r (q_r - p_r) its numerator is an integer times the offset sum: sel
    picks, for each ray, q_r, p_r or q_r - p_r (closed, open, not in the
    cell) from a flat list of the three.
    """

    __slots__ = ("apex", "rays", "terms")

    def __init__(self, apex, rays, labels, faces):
        """faces: (coeff, ray ids) pairs, ids indexing rays: the extreme rays
        of one face of cone(rays)."""
        rays = [tuple(r) for r in rays]
        cone = sorted(set(rays))
        index = {r: i for i, r in enumerate(cone)}
        keys = [frozenset(index[rays[i]] for i in ids) for _, ids in faces]
        used = sorted(set().union(*keys))
        proj, cells = _cells(apex, cone)
        invs = {}
        stored = {}     # face -> (sel, offsets) per cell
        for key in keys:
            if key in stored:
                continue
            stored[key] = out = []
            for sub, open_idx, ps in half_open_cells(
                    proj, [c for c, _ in cells], key, invs):
                opened = {sub[j] for j in open_idx}
                if any(len(cells[p][1]) == 1 for p in ps):
                    pts = None
                elif not open_idx and sub == cells[ps[0]][0]:
                    pts = cells[ps[0]][1]
                else:
                    pts = parallelepiped_points(apex, [cone[i] for i in sub],
                                                open_idx)
                if pts is not None:
                    corner = [a + sum(cone[i][c] for i in opened)
                              for c, a in enumerate(apex)]
                    pts = None if pts == [tuple(corner)] else tuple(
                        _point_monomial([a - b for a, b in zip(p, corner)],
                                        labels) for p in pts)
                sel = tuple(3 * k + (1 if i in opened else 0 if i in sub
                                     else 2) for k, i in enumerate(used))
                out.append((sel, pts))
        self.apex = _point_monomial(apex, labels)
        self.rays = [_point_monomial(cone[i], labels) for i in used]
        self.terms = [(coeff, stored[key])
                      for (coeff, _), key in zip(faces, keys)]

    def eval(self, point):
        """Exact value at {var: Fraction} -> TPoly, t symbolic: an integer
        numerator per cell, divided once by the common denominator.  Raises
        Pole where some 1 - x^r vanishes."""
        vals = []
        den = 1
        for m in self.rays:
            p, q = m.ratio(point)
            if p == q:
                raise Pole(f"denominator factor vanishes at point: {m}")
            vals += (q, p, q - p)
            den *= q - p
        get = vals.__getitem__
        acc = {}
        for coeff, cells in self.terms:
            s = 0
            for sel, offsets in cells:
                v = math.prod(map(get, sel))
                if offsets is not None:
                    v *= sum(Fraction(*o.ratio(point)) for o in offsets)
                s += v
            for e, c in coeff.c.items():
                acc[e] = acc.get(e, 0) + c * s
        a, b = self.apex.ratio(point)
        den *= b
        return TPoly({e: Fraction(v * a, den) for e, v in acc.items()})

    def expand(self):
        """The sum as one RationalFn over prod (1 - x^r) of its rays."""
        total = RationalFn.zero()
        for coeff, cells in self.terms:
            face = RationalFn.zero()
            for sel, offsets in cells:
                corner = self.apex
                for r, i in zip(self.rays, sel):
                    if i % 3 == 1:
                        corner = corner * r
                pts = LaurentPoly.sum_terms(
                    (corner * o, T_ONE) for o in offsets or (Monomial.unit(),))
                face = face + RationalFn(pts, [r for r, i in zip(self.rays, sel)
                                               if i % 3 != 2])
            total = total + face * coeff
        return total


def ipt_cone(apex, rays, labels):
    """IPT of a pointed cone with integral apex, as a RationalFn."""
    return CellSum(apex, rays, labels, [(T_ONE, range(len(rays)))]).expand()


def sigma_relint_cone(apex, rays, labels):
    """IPT of the relative interior of a simplicial cone, as the CellSum of
    the signed sum over its face cones, one per subset of the rays."""
    rays = [tuple(r) for r in rays]
    k = len(rays)
    if k > 0 and mat_rank(rays) != k:
        raise NotSimplicial("the relative interior needs a simplicial cone")
    return CellSum(apex, rays, labels,
                   [(T_ONE if (k - m) % 2 == 0 else -T_ONE, frozenset(s))
                    for m in range(k + 1)
                    for s in itertools.combinations(range(k), m)])


@dataclass
class WeightedCone:
    """Pointed cone with apex, primitive ray generators and face weights.

    faces: list of (ray_id_set, dim, weight) covering every face of the cone,
    including the apex face (empty ray set, dim 0).
    """
    apex: tuple
    rays: list
    faces: list
    labels: list

    def __post_init__(self):
        self.apex = tuple(self.apex)
        self.rays = [tuple(r) for r in self.rays]
        ids = {frozenset(rs) for rs, _, _ in self.faces}
        if frozenset() not in ids:
            raise WeightMissing("apex face weight missing")
        if frozenset(range(len(self.rays))) not in ids:
            raise WeightMissing("full cone face missing")


def ipt_weighted(cone, form="moebius"):
    """Weighted IPT via the face-coefficient (Moebius) or relint-sum form.

    Returns a CellSum: `eval` evaluates it at a point, `expand` gives the
    RationalFn.  The Moebius form weighs each face cone by the alternating
    sum of the weights of the faces above it; the relint form sums, over
    faces of nonzero weight, the weight times the signed face cones below.
    """
    faces = [(frozenset(rs), d, w) for rs, d, w in cone.faces]
    if form == "moebius":
        terms = []
        for rs, d, _ in faces:
            coeff = T_ZERO
            for rs2, d2, w2 in faces:
                if rs2 >= rs:
                    coeff = coeff + (w2 if (d2 - d) % 2 == 0 else -w2)
            if not coeff.is_zero():
                terms.append((coeff, rs))
    elif form == "relint":
        terms = [(w if (d - d2) % 2 == 0 else -w, rs2)
                 for rs, d, w in faces if not w.is_zero()
                 for rs2, d2, _ in faces if rs2 <= rs]
    else:
        raise ValueError(f"unknown form {form!r}")
    return CellSum(cone.apex, cone.rays, cone.labels, terms)


def product_cone(cones):
    """Direct sum of weighted cones over disjoint variable sets."""
    apex = []
    rays = []
    labels = []
    for c in cones:
        apex.extend(c.apex)
        labels.extend(c.labels)
    dim_total = len(apex)
    pos = 0
    ray_offsets = []
    for c in cones:
        ray_offsets.append(len(rays))
        for r in c.rays:
            vec = [0] * dim_total
            for i, x in enumerate(r):
                vec[pos + i] = x
            rays.append(tuple(vec))
        pos += len(c.apex)
    faces = []
    for combo in itertools.product(*[c.faces for c in cones]):
        rs = set()
        dim = 0
        w = T_ONE
        for c_idx, (rs_c, d_c, w_c) in enumerate(combo):
            rs.update(ray_offsets[c_idx] + i for i in rs_c)
            dim += d_c
            w = w * w_c
        faces.append((frozenset(rs), dim, w))
    return WeightedCone(tuple(apex), rays, faces, labels)


# ---------------------------------------------------------------------------
# tangent cones of polytopes and the weighted Brion identity
# ---------------------------------------------------------------------------

def tangent_cone_at_vertex(P, faces, vertex_id, vertices, phi):
    """WeightedCone at a vertex of a bounded polyhedron.

    faces: output of face_lattice(P); phi: Face -> TPoly.
    """
    v = vertices[vertex_id]
    vfaces = [f for f in faces if vertex_id in f.vertex_ids]
    edges = [f for f in vfaces if f.dim == 1]
    rays = []
    edge_tights = []
    for e in edges:
        others = [vertices[i] for i in e.vertex_ids if i != vertex_id]
        if not others:
            raise InvariantError("edge of a bounded polytope must have two vertices")
        rays.append(primitive([a - b for a, b in zip(others[0], v)]))
        edge_tights.append(e.tight)
    face_records = []
    for f in vfaces:
        rs = frozenset(i for i, t in enumerate(edge_tights) if t >= f.tight)
        face_records.append((rs, f.dim, _as_tpoly(phi(f))))
    return WeightedCone(tuple(int(x) for x in v), rays, face_records, P.labels)


def verify_weighted_brion(P, phi, trials=3, seed=0, vertices=None,
                          assume_bounded=False):
    """Check S_phi(P) == sum over vertices of the weighted tangent-cone IPTs
    at `trials` random rational points.

    The lattice sum is a LaurentPoly evaluated term by term; each tangent
    cone's transform is a CellSum evaluated cell by cell, never expanded.
    The cone sums are evaluated first, so a draw at a pole of one of them
    costs no lattice-sum evaluation."""
    rng = random.Random(seed)
    if vertices is None:
        vertices = P.vertices_bruteforce()
    if not vertices:
        raise ValueError("polyhedron has no vertices")
    brute = weighted_sum_bruteforce(P, phi, assume_bounded=assume_bounded,
                                    vertices=vertices)
    faces = face_lattice(P, vertices)
    sums = [ipt_weighted(tangent_cone_at_vertex(P, faces, vid, vertices, phi))
            for vid in range(len(vertices))]

    def holds(point):
        rhs = sum((s.eval(point) for s in sums), T_ZERO)
        return brute.eval_at(point) == rhs

    return at_random_points(P.labels, rng, trials, holds)
