import functools
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from hlbrion import cones, graphs
from hlbrion.cones import (
    CellSum, Face, NotPointed, Polyhedron, Unbounded, WeightedCone,
    check_pointed, face_lattice, half_open_cells, ipt_cone, ipt_weighted,
    mat_rank, parallelepiped_points, primitive, product_cone, sigma_relint_cone,
    solve_affine, tangent_cone_at_vertex, triangulate, verify_weighted_brion,
    weighted_sum_bruteforce,
)
from hlbrion.graphs import (
    BSeq, polyhedron_of, triangle_graph, weighted_brion_instance,
)
from hlbrion.ring import (
    LaurentPoly, Monomial, Pole, RationalFn, SearchExhausted, TPoly,
    random_point,
)


def segment(lo, hi):
    return Polyhedron(1, [((1,), hi), ((-1,), -lo)], labels=["x"])


def one_minus_t():
    return TPoly.from_list([1, -1])


def test_lattice_points_segment():
    assert segment(0, 2).lattice_points() == [(0,), (1,), (2,)]


def test_lattice_points_square():
    P = Polyhedron(2, [((1, 0), 1), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 0)],
                   labels=["x", "y"])
    assert len(P.lattice_points()) == 4


def test_lattice_points_unbounded():
    P = Polyhedron(1, [((-1,), 0)], labels=["x"])
    with pytest.raises(Unbounded):
        P.lattice_points()


def test_lattice_points_unbounded_without_axis_direction():
    # the wedge y >= 0, y <= x <= y + 1 has the vertices (0, 0) and (1, 0)
    # and recedes along (1, 1) only
    wedge = Polyhedron(2, [((0, -1), 0), ((-1, 1), 0), ((1, -1), 1)])
    assert wedge.recession_direction_axis() is None
    assert wedge.vertices_bruteforce() == [(0, 0), (1, 0)]
    with pytest.raises(Unbounded):
        wedge.lattice_points()
    # the strip 0 <= x - y <= 1 holds (5, 5) and has no vertex
    strip = Polyhedron(2, [((1, -1), 1), ((-1, 1), 0)])
    assert strip.recession_direction_axis() is None
    assert strip.contains((5, 5)) and strip.vertices_bruteforce() == []
    with pytest.raises(Unbounded):
        strip.lattice_points()
    # the empty strip 1 <= x - y <= 0 has no points
    assert Polyhedron(2, [((1, -1), 0), ((-1, 1), -1)]).lattice_points() == []


def test_lattice_points_reuse_given_vertices(monkeypatch):
    # the graph instances' vertices are P's vertices, so lattice_points
    # given them finds the same points without a vertex search
    instances = graphs.random_bounded_instances(12, seed=11)
    expected = []
    for G, b in instances:
        P, _, verts = weighted_brion_instance(G, b)
        assert sorted(verts) == P.vertices_bruteforce()
        expected.append((P, verts, P.lattice_points(assume_bounded=True)))

    def refused(self):
        raise AssertionError("vertices were given")
    monkeypatch.setattr(Polyhedron, "vertices_bruteforce", refused)
    for P, verts, points in expected:
        assert P.lattice_points(assume_bounded=True, vertices=verts) == points
    monkeypatch.undo()
    # given vertices do not stand in for the boundedness check
    wedge = Polyhedron(2, [((0, -1), 0), ((-1, 1), 0), ((1, -1), 1)])
    with pytest.raises(Unbounded):
        wedge.lattice_points(vertices=[(0, 0), (1, 0)])


def test_minimal_face():
    P = segment(0, 2)
    assert P.minimal_face((1,)).dim == 1
    assert P.minimal_face((0,)).dim == 0
    sq = Polyhedron(2, [((1, 0), 1), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 0)])
    assert sq.minimal_face((Fraction(1, 2), 0)).dim == 1
    assert sq.minimal_face((Fraction(1, 2), Fraction(1, 2))).dim == 2


def test_vertices_bruteforce():
    sq = Polyhedron(2, [((1, 0), 1), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 0)])
    assert len(sq.vertices_bruteforce()) == 4
    assert segment(0, 2).vertices_bruteforce() == [(0,), (2,)]


def test_vertices_without_inequalities_or_points():
    # the zero-dimensional space is one point, which is its own vertex
    assert Polyhedron(0, []).vertices_bruteforce() == [()]
    assert Polyhedron(0, []).lattice_points() == [()]
    assert Polyhedron(0, [((), -1)]).vertices_bruteforce() == []
    # equalities that fix a point
    P = Polyhedron(2, [], eqs=[((1, 1), 3), ((1, -1), 1)])
    assert P.vertices_bruteforce() == [(2, 1)]
    assert P.lattice_points() == [(2, 1)]
    half = Polyhedron(1, [], eqs=[((2,), 1)])
    assert half.vertices_bruteforce() == [(Fraction(1, 2),)]
    assert half.lattice_points() == []
    # inconsistent equalities
    P = Polyhedron(2, [], eqs=[((1, 0), 1), ((1, 0), 2), ((0, 1), 0)])
    assert P.vertices_bruteforce() == []
    assert P.lattice_points() == []
    # an empty interval: 1 <= x <= 0
    P = Polyhedron(1, [((1,), 0), ((-1,), -1)])
    assert P.vertices_bruteforce() == []
    assert P.lattice_points() == []


def test_weighted_sum_bruteforce_segment():
    P = segment(0, 2)
    phi_one = lambda f: TPoly.one()
    s = weighted_sum_bruteforce(P, phi_one)
    x = LaurentPoly.var("x")
    assert s == LaurentPoly.one() + x + x * Monomial.var("x")

    def phi(face):
        return TPoly.one() if face.dim == 0 else one_minus_t()
    s = weighted_sum_bruteforce(P, phi)
    assert s == LaurentPoly.one() + x * one_minus_t() + LaurentPoly.var("x", 2)


def test_weighted_sum_single_point():
    P = Polyhedron(1, [((1,), 3), ((-1,), -3)], labels=["x"])
    s = weighted_sum_bruteforce(P, lambda f: TPoly.from_list([1, 1]))
    assert s == LaurentPoly.var("x", 3) * TPoly.from_list([1, 1])


# ---------------------------------------------------------------------------
# the elimination kernel against a plain Gauss-Jordan reference over Fraction
# ---------------------------------------------------------------------------

def rref_reference(rows, ncols):
    """Reduced row echelon form over Q: (rows, pivot columns)."""
    m = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [a / m[r][col] for a in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
    return m, pivots


def solve_reference(rows, rhs):
    n = len(rows[0])
    m, pivots = rref_reference([list(r) + [b] for r, b in zip(rows, rhs)], n)
    if any(row[n] != 0 for row in m[len(pivots):]):
        return None
    x0 = [Fraction(0)] * n
    for row, col in zip(m, pivots):
        x0[col] = row[n]
    basis = []
    for fc in range(n):
        if fc not in pivots:
            v = [Fraction(0)] * n
            v[fc] = Fraction(1)
            for row, col in zip(m, pivots):
                v[col] = -row[fc]
            basis.append(v)
    return x0, basis


def det_reference(m):
    """Leibniz formula."""
    k = len(m)
    total = 0
    for perm in itertools.permutations(range(k)):
        term = (-1) ** sum(perm[i] > perm[j]
                           for i in range(k) for j in range(i + 1, k))
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total


# zeros are drawn often, so that rank-deficient systems come up
entries = st.one_of(st.just(0), st.integers(-3, 3))


@st.composite
def linear_systems(draw):
    nrows = draw(st.integers(1, 5))
    ncols = draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    if draw(st.booleans()):
        # a dependent row: the sum of two others
        i, j = draw(st.integers(0, nrows - 1)), draw(st.integers(0, nrows - 1))
        rows.append([a + b for a, b in zip(rows[i], rows[j])])
    rhs = draw(st.lists(st.fractions(-5, 5, max_denominator=6),
                        min_size=len(rows), max_size=len(rows)))
    return rows, rhs


KERNEL_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True,
                           database=None)


@KERNEL_SETTINGS
@given(linear_systems())
def test_mat_rank_and_solve_match_reference(system):
    rows, rhs = system
    ncols = len(rows[0])
    assert mat_rank(rows) == len(rref_reference(rows, ncols)[1])
    assert solve_affine(rows, rhs) == solve_reference(rows, rhs)
    # a consistent right-hand side: the image of a point
    x = [Fraction(i - 2, i + 1) for i in range(ncols)]
    image = [sum(a * b for a, b in zip(r, x)) for r in rows]
    sol = solve_affine(rows, image)
    assert sol == solve_reference(rows, image)
    x0, basis = sol
    assert [sum(a * b for a, b in zip(r, x0)) for r in rows] == image
    for v in basis:
        assert all(sum(a * b for a, b in zip(r, v)) == 0 for r in rows)


def vertices_reference(P):
    """Vertices by one `solve_affine` per subset of dim - rank(eqs)
    inequalities: the solutions that are unique and lie in P."""
    eq_rows = [list(a) for a, _ in P.eqs]
    eq_rhs = [b for _, b in P.eqs]
    need = P.dim - (mat_rank(eq_rows) if eq_rows else 0)
    verts = set()
    for subset in itertools.combinations(range(len(P.ineqs)), need):
        rows = eq_rows + [list(P.ineqs[i][0]) for i in subset]
        rhs = eq_rhs + [P.ineqs[i][1] for i in subset]
        sol = solve_affine(rows, rhs)
        if sol is not None and not sol[1] and P.contains(sol[0]):
            verts.add(tuple(sol[0]))
    return sorted(verts)


@st.composite
def vertex_systems(draw):
    """Inequality systems in dimensions 1-4 around an integer centre: rows
    with slack 0 pass through it (more than dim tight rows make a degenerate
    vertex), entries beyond +-1 give rational vertices, a free right-hand
    side can empty the polyhedron, and duplicate or scaled rows are
    redundant.  Equalities through the centre, or with a free right-hand
    side that may contradict the others, come along sometimes."""
    dim = draw(st.integers(1, 4))
    centre = draw(st.lists(st.integers(-2, 2), min_size=dim, max_size=dim))
    vec = st.lists(entries, min_size=dim, max_size=dim)

    def rhs(a, free):
        if free:
            return draw(st.integers(-4, 4))
        return sum(x * c for x, c in zip(a, centre)) + draw(
            st.sampled_from([0, 0, 1, 2]))

    ineqs = [(a, rhs(a, draw(st.booleans())))
             for a in draw(st.lists(vec, max_size=8))]
    if draw(st.booleans()):
        # a box around the centre keeps the polyhedron bounded
        for i in range(dim):
            e = [int(j == i) for j in range(dim)]
            ineqs.append((e, centre[i] + draw(st.integers(0, 2))))
            ineqs.append(([-x for x in e], -centre[i] + draw(st.integers(0, 2))))
    for i in draw(st.lists(st.integers(0, 99), max_size=2)):
        if ineqs:
            a, b = ineqs[i % len(ineqs)]
            k = draw(st.integers(1, 2))
            ineqs.append(([k * x for x in a], k * b))
    eqs = [(a, sum(x * c for x, c in zip(a, centre)) if draw(st.booleans())
            else draw(st.integers(-4, 4)))
           for a in draw(st.lists(vec, max_size=2))]
    return Polyhedron(dim, ineqs, eqs)


@KERNEL_SETTINGS
@given(vertex_systems())
def test_vertices_match_reference(P):
    verts = P.vertices_bruteforce()
    assert verts == vertices_reference(P)
    assert all(type(x) is Fraction for v in verts for x in v)


def test_vertices_of_interlacing_polytopes():
    # every 4-row interlacing polytope with top-row entries <= 3; the
    # vertices also come out of the face enumeration of `graphs`
    tri = triangle_graph(4)
    for b in itertools.combinations_with_replacement(range(3, -1, -1), 4):
        P = polyhedron_of(tri, BSeq(b))
        verts = P.vertices_bruteforce()
        assert verts == vertices_reference(P), b
        assert verts == weighted_brion_instance(tri, BSeq(b))[2], b
        if b == (3, 2, 1, 0):
            assert len(verts) == 40


def test_vertex_search_steps_once_per_independent_prefix(monkeypatch):
    # one Bareiss step per search node: a node is a set of independent rows
    # that still leaves enough later rows to reach dim; a node of d < dim
    # rows ending at index l reduces each later row j <= k - (dim - d) once
    P = polyhedron_of(triangle_graph(4), BSeq((2, 1, 0, 0)))
    k, n = len(P.ineqs), P.dim
    rows = [list(a) for a, _ in P.ineqs]
    nodes = [s for d in range(1, n + 1)
             for s in itertools.combinations(range(k), d)
             if s[-1] < k - (n - d) and mat_rank([rows[i] for i in s]) == d]
    reductions = k - n + 1 + sum(k - (n - len(s)) - s[-1]
                                 for s in nodes if len(s) < n)
    counts = {"_pivot_step": 0, "_reduce_row": 0}
    for name in counts:
        def counted(*args, f=getattr(cones, name), name=name):
            counts[name] += 1
            return f(*args)
        monkeypatch.setattr(cones, name, counted)
    assert len(P.vertices_bruteforce()) == 16
    assert counts == {"_pivot_step": len(nodes), "_reduce_row": reductions}


# per-dimension entry caps keep |det|, the number of points, small
RAY_CAPS = {1: 6, 2: 4, 3: 3, 4: 2}


@st.composite
def square_rays(draw):
    k = draw(st.integers(1, 4))
    cap = RAY_CAPS[k]
    rays = draw(st.lists(
        st.tuples(*[st.integers(-cap, cap)] * k), min_size=k, max_size=k))
    assume(det_reference(rays) != 0)
    apex = draw(st.tuples(*[st.integers(-2, 2)] * k))
    open_idx = frozenset(draw(st.sets(st.integers(0, k - 1))))
    return apex, rays, open_idx


def assert_in_half_open_box(pts, apex, rays, open_idx):
    """Each point is apex + sum alpha_i r_i, alpha_i in (0, 1] on the open
    facets and in [0, 1) on the others, by the reference solve."""
    cols = [list(c) for c in zip(*rays)]
    for p in pts:
        alpha, basis = solve_reference(cols, [a - b for a, b in zip(p, apex)])
        assert not basis
        for i, a in enumerate(alpha):
            assert (0 < a <= 1) if i in open_idx else (0 <= a < 1)


@KERNEL_SETTINGS
@given(square_rays())
def test_parallelepiped_points_count_and_box(cone):
    apex, rays, open_idx = cone
    pts = parallelepiped_points(apex, rays, open_idx)
    assert len(pts) == len(set(pts)) == abs(det_reference(rays))
    assert_in_half_open_box(pts, apex, rays, open_idx)


@st.composite
def face_rays(draw):
    """k < d <= 5 independent rays, as the face cones of a vertex cone have,
    with the index of their lattice span in Z^d: the gcd of the k x k
    minors."""
    d = draw(st.integers(2, 5))
    k = draw(st.integers(1, d - 1))
    cap = RAY_CAPS[k]
    rays = draw(st.lists(
        st.tuples(*[st.integers(-cap, cap)] * d), min_size=k, max_size=k))
    index = math.gcd(*[det_reference([[r[c] for c in cols] for r in rays])
                       for cols in itertools.combinations(range(d), k)])
    assume(index != 0)
    apex = draw(st.tuples(*[st.integers(-2, 2)] * d))
    open_idx = frozenset(draw(st.sets(st.integers(0, k - 1))))
    return apex, rays, open_idx, index


@KERNEL_SETTINGS
@given(face_rays())
def test_parallelepiped_points_of_face_cones(cone):
    apex, rays, open_idx, index = cone
    pts = parallelepiped_points(apex, rays, open_idx)
    assert len(pts) == len(set(pts)) == index
    assert_in_half_open_box(pts, apex, rays, open_idx)


def test_parallelepiped_unimodular():
    pts = parallelepiped_points((0, 0), [(1, 0), (0, 1)])
    assert pts == [(0, 0)]


def test_parallelepiped_index_two():
    pts = parallelepiped_points((0, 0), [(1, 1), (1, -1)])
    # brute-force oracle: p = a(1,1)+b(1,-1), a,b in [0,1), integer points
    expect = set()
    for x in range(-2, 3):
        for y in range(-2, 3):
            a = Fraction(x + y, 2)
            b = Fraction(x - y, 2)
            if 0 <= a < 1 and 0 <= b < 1:
                expect.add((x, y))
    assert set(pts) == expect
    assert len(pts) == 2


def test_parallelepiped_half_open():
    closed = parallelepiped_points((0,), [(1,)])
    assert closed == [(0,)]
    opened = parallelepiped_points((0,), [(1,)], open_idx=frozenset([0]))
    assert opened == [(1,)]


def test_ipt_simplicial_ray():
    f = ipt_cone((0,), [(1,)], ["x"])
    assert f.num == LaurentPoly.one()
    assert f.den_list() == [Monomial.var("x")]


def test_ipt_simplicial_quadrant():
    f = ipt_cone((0, 0), [(1, 0), (0, 1)], ["x", "y"])
    assert f.num == LaurentPoly.one()
    assert sorted(str(m) for m in f.den_list()) == ["x", "y"]


def test_ipt_simplicial_index_two():
    f = ipt_cone((0, 0), [(1, 1), (1, -1)], ["x", "y"])
    expect = LaurentPoly.one() + LaurentPoly.var("x")
    assert f.num == expect


def test_triangulate_square_cone():
    rays = [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]
    cells = triangulate(rays)
    assert all(len(c) == 3 for c in cells)
    assert len(cells) == 2


def test_triangulate_without_a_full_rank_cell_raises_search_exhausted():
    # rays on one line span no 2-d cell, whatever the heights
    with pytest.raises(SearchExhausted) as exc:
        triangulate([(1, 0), (2, 0)])
    assert isinstance(exc.value, RuntimeError)


def test_half_open_cells_without_a_generic_point_raises_search_exhausted(monkeypatch):
    rays = [(1, 0), (0, 1), (1, 1)]
    cells = triangulate(rays)
    assert len(half_open_cells(rays, cells)) == len(cells)
    # a zero adjugate puts every candidate point on a facet of the cell
    monkeypatch.setattr(cones, "_adjugate",
                        lambda rows: ([0, 1], [[0, 0], [0, 0]], 1))
    with pytest.raises(SearchExhausted) as exc:
        half_open_cells(rays, cells)
    assert isinstance(exc.value, RuntimeError)


def test_ipt_cone_square_base_box_oracle():
    # cone over a square base in 3-d, apex at origin
    rays = [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]
    labels = ["x", "y", "z"]
    f = ipt_cone((0, 0, 0), rays, labels)
    # box-truncation oracle: all lattice points with z <= 3
    pts = []
    for z in range(0, 4):
        for x in range(-z, z + 1):
            for y in range(-z, z + 1):
                if abs(x) + abs(y) <= z:
                    pts.append((x, y, z))
    brute = LaurentPoly.zero()
    for p in pts:
        brute = brute + LaurentPoly.from_monomial(
            Monomial({l: c for l, c in zip(labels, p) if c}))
    # f * prod(1-e^r) = num; compare low-z part of num with
    # brute * prod(1 - e^r) restricted to the same window
    dens = f.den_list()
    prod_dens = LaurentPoly.one()
    for m in dens:
        prod_dens = prod_dens - prod_dens * m
    lhs = f.num
    rhs = brute * prod_dens
    for m, c in lhs.terms.items():
        if m.exp_of("z") <= 2:
            assert rhs.coeff(m) == c, f"mismatch at {m}"
    for m, c in rhs.terms.items():
        if m.exp_of("z") <= 2:
            assert lhs.coeff(m) == c, f"mismatch at {m}"


def test_ipt_cone_redundant_ray():
    rng = random.Random(0)
    labels = ["x", "y"]
    a = ipt_cone((0, 0), [(1, 0), (1, 1), (0, 1)], labels)
    b = ipt_cone((0, 0), [(1, 0), (0, 1)], labels)
    pt = random_point(labels, rng, a.den_list() + b.den_list())
    assert a.eval(pt) == b.eval(pt)


def test_ipt_cone_matches_simplicial():
    # the shifted quadrant: x y^2 / ((1 - x)(1 - y))
    labels = ["x", "y"]
    rng = random.Random(1)
    a = ipt_cone((1, 2), [(1, 0), (0, 1)], labels)
    b = RationalFn(LaurentPoly.from_monomial(Monomial({"x": 1, "y": 2})),
                   [Monomial.var("x"), Monomial.var("y")])
    pt = random_point(labels, rng, a.den_list() + b.den_list())
    assert a.eval(pt) == b.eval(pt)


def holds_line_reference(rays):
    """Whether the cone of the rays holds a line, by conformal decomposition:
    a nonnegative kernel vector of the rays, not 0, is a sum of sign-conformal
    circuits, so the cone holds a line iff some minimal dependent subset of
    the rays has a kernel vector of one strict sign."""
    for size in range(1, len(rays) + 1):
        for subset in itertools.combinations(rays, size):
            basis = solve_affine([list(c) for c in zip(*subset)],
                                 [0] * len(rays[0]))[1]
            if len(basis) == 1 and (all(x > 0 for x in basis[0])
                                    or all(x < 0 for x in basis[0])):
                return True
    return False


def test_line_hidden_by_redundant_rays_is_not_pointed():
    # (0, 1) + (0, -1) = 0 and (-1, 1) + (1, -1) = 0; the other rays hide
    # these circuits from the signs of a nullspace basis
    for rays in ([(-1, -1), (-1, 0), (0, -1), (0, 1)],
                 [(-1, -1), (-1, 0), (-1, 1), (1, -1)]):
        with pytest.raises(NotPointed):
            check_pointed(rays)
        with pytest.raises(NotPointed):
            ipt_cone((0, 0), rays, ["x", "y"])
    # the pointed cone over a square of test_ipt_cone_square_base_box_oracle
    square = [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]
    check_pointed(square)
    assert ipt_cone((0, 0, 0), square, ["x", "y", "z"]).den_list()


def test_pointedness_matches_circuit_reference():
    # 1000 ray sets of 1-5 rays in dimension 1-3, entries in [-2, 2] (zero
    # rays and repeats included), drawn from seed 20261018: 411 hold a line
    rng = random.Random(20261018)
    lines = 0
    for _ in range(1000):
        d = rng.randint(1, 3)
        rays = [tuple(rng.randint(-2, 2) for _ in range(d))
                for _ in range(rng.randint(1, 5))]
        line = holds_line_reference(rays)
        lines += line
        labels = [f"x{i}" for i in range(d)]
        if line:
            with pytest.raises(NotPointed):
                check_pointed(rays)
            with pytest.raises(NotPointed):
                ipt_cone((0,) * d, rays, labels)
        else:
            check_pointed(rays)
            ipt_cone((0,) * d, rays, labels)
    assert lines == 411


def test_ipt_cone_of_independent_rays_eliminates_twice(monkeypatch):
    # the pivot columns of the rays, then the adjugate of the one cell; the
    # one-cell path of half_open_cells adds no elimination
    calls = []

    def counted(*args, f=cones._eliminate):
        calls.append(len(args[0]))
        return f(*args)

    def refused(*args):
        raise AssertionError("independent rays need no triangulation")
    monkeypatch.setattr(cones, "_eliminate", counted)
    monkeypatch.setattr(cones, "triangulate", refused)
    rays = [(1, 1, 0), (0, 1, 2), (1, 0, 1)]
    f = ipt_cone((0, 1, 0), rays, ["x", "y", "z"])
    assert calls == [3, 3]
    # det 3: the apex and apex + (1,1,1), apex + (1,1,2), which are
    # (2,1,1)/3 and (1,2,2)/3 in the rays (1,1,0), (0,1,2), (1,0,1)
    expect = LaurentPoly.sum_terms(
        (Monomial(e), TPoly.one())
        for e in ({"y": 1}, {"x": 1, "y": 2, "z": 1}, {"x": 1, "y": 2, "z": 2}))
    assert f.num == expect
    assert set(f.den_list()) == {Monomial({"x": 1, "y": 1}),
                                 Monomial({"x": 1, "z": 1}),
                                 Monomial({"y": 1, "z": 2})}


def ray_cone_weighted(apex=(0,)):
    faces = [(frozenset(), 0, TPoly.one()), (frozenset([0]), 1, one_minus_t())]
    return WeightedCone(apex, [(1,)], faces, ["x"])


def test_ipt_weighted_ray():
    f = ipt_weighted(ray_cone_weighted()).expand()
    # (1 - t x)/(1 - x)
    expect_num = LaurentPoly.one() - LaurentPoly.var("x") * TPoly.t()
    assert f.cross_mul_equal(RationalFn(expect_num, [(Monomial.var("x"), 1)]))


def test_ipt_weighted_2d_product():
    # 2-d unimodular cone, phi(f) = (1-t)^dim f -> (1-tx)(1-ty)/((1-x)(1-y))
    cx = ray_cone_weighted()
    cy = WeightedCone((0,), [(1,)],
                      [(frozenset(), 0, TPoly.one()), (frozenset([0]), 1, one_minus_t())],
                      ["y"])
    prod = product_cone([cx, cy])
    f = ipt_weighted(prod).expand()
    x, y = Monomial.var("x"), Monomial.var("y")
    num = (LaurentPoly.one() - LaurentPoly.var("x") * TPoly.t()) * \
          (LaurentPoly.one() - LaurentPoly.var("y") * TPoly.t())
    assert f.cross_mul_equal(RationalFn(num, [(x, 1), (y, 1)]))
    # box-truncated weighted sums: compare series coefficients in the box
    dens = f.den_list()
    prodd = LaurentPoly.one()
    for m in dens:
        prodd = prodd - prodd * m
    brute = LaurentPoly.zero()
    for a in range(0, 4):
        for b in range(0, 4):
            w = TPoly.one()
            if a > 0:
                w = w * one_minus_t()
            if b > 0:
                w = w * one_minus_t()
            brute = brute + LaurentPoly.from_monomial(
                Monomial({"x": a, "y": b}), w)
    rhs = brute * prodd
    for m, c in f.num.terms.items():
        if m.exp_of("x") <= 2 and m.exp_of("y") <= 2:
            assert rhs.coeff(m) == c
    # trivial weight equals unweighted ipt
    triv = WeightedCone(prod.apex, prod.rays,
                        [(rs, d, TPoly.one()) for rs, d, _ in prod.faces],
                        prod.labels)
    rng = random.Random(2)
    a = ipt_weighted(triv)
    b = ipt_cone(prod.apex, prod.rays, prod.labels)
    pt = random_point(prod.labels, rng, a.rays + b.den_list())
    assert a.eval(pt) == b.eval(pt)


def square_pyramid():
    """|x| + |y| <= z <= 2.  Its tangent cone at the origin is the cone over
    the square of test_ipt_cone_square_base_box_oracle, two cells of index
    2; the tangent cones at its other four vertices are simplicial."""
    return Polyhedron(3, [((1, 1, -1), 0), ((1, -1, -1), 0), ((-1, 1, -1), 0),
                          ((-1, -1, -1), 0), ((0, 0, 1), 2)],
                      labels=["x", "y", "z"])


def pyramid_phi(face):
    # a weight that tells apart faces of one dimension
    return TPoly.from_list([1 + len(face.tight), -1, face.dim])


def tangent_cones(P, phi, verts=None):
    verts = verts or P.vertices_bruteforce()
    faces = face_lattice(P, verts)
    return [tangent_cone_at_vertex(P, faces, vid, verts, phi)
            for vid in range(len(verts))]


def square_cone():
    cone, = [c for c in tangent_cones(square_pyramid(), pyramid_phi)
             if len(c.rays) == 4]
    return cone


def test_ipt_weighted_forms_agree():
    # a simplicial product cone, and the non-simplicial cone over a square
    rng = random.Random(3)
    cx = ray_cone_weighted()
    cy = WeightedCone((1,), [(2,)],
                      [(frozenset(), 0, TPoly.from_list([1, 1])),
                       (frozenset([0]), 1, TPoly.from_list([0, 0, 1]))],
                      ["y"])
    prod = product_cone([cx, cy])
    square = square_cone()
    assert len(square.rays) == 4 and mat_rank(square.rays) == 3
    for cone in (prod, square):
        a = ipt_weighted(cone, form="moebius")
        b = ipt_weighted(cone, form="relint")
        for _ in range(3):
            pt = random_point(cone.labels, rng, a.rays + b.rays)
            assert a.eval(pt) == b.eval(pt)
        assert a.expand().cross_mul_equal(b.expand())


def test_cell_sum_eval_matches_its_expansion():
    # every tangent cone of three 4-row interlacing polytopes (16, 6 and 4
    # vertices, unimodular cells only) and of the square pyramid (cells of
    # index 2 at its apex), each at 3 seeded points
    tri = triangle_graph(4)
    cases = []
    for b in ((2, 1, 0, 0), (2, 2, 0, 0), (1, 0, 0, 0)):
        cases += tangent_cones(*weighted_brion_instance(tri, BSeq(b)))
    cases += tangent_cones(square_pyramid(), pyramid_phi)
    assert len(cases) == 31
    rng = random.Random(20261019)
    for cone in cases:
        s = ipt_weighted(cone)
        f = s.expand()
        assert set(s.rays) == set(f.den_list())
        for _ in range(3):
            pt = random_point(cone.labels, rng, s.rays)
            assert s.eval(pt) == f.eval(pt), (cone.apex, pt)


def octahedron():
    """|x| + |y| + |z| <= 2: its six tangent cones each have four rays over a
    square, so none is simplicial."""
    return Polyhedron(3, [((a, b, c), 2) for a in (1, -1) for b in (1, -1)
                          for c in (1, -1)], labels=["x", "y", "z"])


def per_face_reference(cone, pt):
    """The weighted transform at pt as sum over faces G of nonzero weight and
    faces F of G of (-1)^(dim G - dim F) w(G) IPT(F), which both forms sum,
    with each face cone F decomposed as a cone of its own."""
    ipts = {}
    total = TPoly.zero()
    for rs, d, w in cone.faces:
        for rs2, d2, _ in cone.faces:
            if rs2 <= rs and not w.is_zero():
                key = frozenset(rs2)
                if key not in ipts:
                    ipts[key] = ipt_cone(cone.apex, [cone.rays[i] for i in key],
                                         cone.labels).eval(pt)
                total = total + (w if (d - d2) % 2 == 0 else -w) * ipts[key]
    return total


def test_restricted_cells_match_per_face_decomposition():
    # every tangent cone of the three 4-row interlacing polytopes above, of
    # the square pyramid and of the octahedron, both forms at 3 points from
    # seed 20261020: the cone's cells restricted to each face give the same
    # value as the face cone decomposed on its own
    tri = triangle_graph(4)
    cases = []
    for b in ((2, 1, 0, 0), (2, 2, 0, 0), (1, 0, 0, 0)):
        cases += tangent_cones(*weighted_brion_instance(tri, BSeq(b)))
    cases += tangent_cones(square_pyramid(), pyramid_phi)
    octa = tangent_cones(octahedron(), pyramid_phi)
    assert len(octa) == 6 and all(len(c.rays) == 4 for c in octa)
    cases += octa
    rng = random.Random(20261020)
    for cone in cases:
        sums = [ipt_weighted(cone, form) for form in ("moebius", "relint")]
        for _ in range(3):
            pt = random_point(cone.labels, rng,
                              [m for s in sums for m in s.rays])
            value = per_face_reference(cone, pt)
            assert all(s.eval(pt) == value for s in sums), (cone.apex, pt)


def test_face_without_a_generic_point_raises_search_exhausted(monkeypatch):
    # the square cone times a ray: its facet over the square has two cells
    rays = [(1, 0, 1, 0), (0, 1, 1, 0), (-1, 0, 1, 0), (0, -1, 1, 0),
            (0, 0, 0, 1)]
    cells = triangulate(rays)
    square = frozenset(range(4))
    held = half_open_cells(rays, cells, square)
    assert len(held) == 2 and all(len(c) == 3 for c, _, _ in held)
    assert sorted(len(opened) for _, opened, _ in held) == [0, 1]
    # a zero adjugate puts every candidate point on a facet of the cell
    monkeypatch.setattr(cones, "_adjugate",
                        lambda rows: ([0, 1, 2, 3], [[0] * 4] * 4, 1))
    with pytest.raises(SearchExhausted):
        half_open_cells(rays, cells, square)
    # a face of one cell needs no generic point
    assert half_open_cells(rays, cells, frozenset([0, 4])) == [
        ((0, 4), frozenset(),
         [p for p, cell in enumerate(cells) if {0, 4} <= set(cell)])]


# ---------------------------------------------------------------------------
# the integer tangent-cone side against the rank, TPoly and Fraction code
# it replaced, kept here as oracles
# ---------------------------------------------------------------------------

def face_lattice_reference(P, vertices):
    """Every intersection of vertex tight sets, with its dimension from the
    rank of its tight rows (`Polyhedron.face_dim`)."""
    tights = [P.tight_at(v) for v in vertices]
    seen = dict.fromkeys(tights)
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
    faces = [Face(t, P.face_dim(t),
                  frozenset(i for i, tv in enumerate(tights) if tv >= t))
             for t in seen]
    faces.sort(key=lambda f: (f.dim, sorted(f.tight)))
    return faces


def moebius_terms_reference(cone):
    """The Moebius face coefficients of `ipt_weighted`, summed as TPolys."""
    faces = [(frozenset(rs), d, w) for rs, d, w in cone.faces]
    terms = []
    for rs, d, _ in faces:
        coeff = TPoly.zero()
        for rs2, d2, w2 in faces:
            if rs2 >= rs:
                coeff = coeff + (w2 if (d2 - d) % 2 == 0 else -w2)
        if not coeff.is_zero():
            terms.append((coeff, rs))
    return terms


def triangulate_reference(rays):
    """`triangulate` compared against its Fraction heights unscaled."""
    rays = [list(r) for r in rays]
    m, rank = len(rays), len(rays[0])
    for salt in range(64):
        heights = [Fraction(1 + ((i + 1) * 2654435761 + salt * 97003) % 1000003,
                            1 + ((i + salt) * 7919) % 503)
                   for i in range(m)]
        cells = []
        degenerate = False
        for subset in itertools.combinations(range(m), rank):
            red, piv, det = cones._eliminate(
                [rays[i] + [heights[i]] for i in subset], rank)
            if len(piv) < rank:
                continue
            sign = 1 if det > 0 else -1
            w = [sign * row[rank] for row in red]
            ok = True
            for j in range(m):
                if j in subset:
                    continue
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


@functools.cache
def integer_side_instances():
    """(P, phi, vertices) of every 4-row interlacing polytope with tops at
    most 2 (15, three of them a single point), of (3, 2, 1, 0) with 567
    faces, of the 5-row (2, 1, 0, 0, 0) with 849, and of
    random_bounded_instances(40, 121)."""
    tri = triangle_graph(4)
    cases = [(tri, BSeq(b)) for b in
             itertools.combinations_with_replacement((2, 1, 0), 4)]
    cases += [(tri, BSeq((3, 2, 1, 0))),
              (triangle_graph(5), BSeq((2, 1, 0, 0, 0)))]
    cases += graphs.random_bounded_instances(40, 121)
    return [weighted_brion_instance(G, b) for G, b in cases]


def integer_side_cones():
    for P, phi, verts in integer_side_instances():
        faces = face_lattice(P, verts)
        for vid in range(len(verts)):
            yield tangent_cone_at_vertex(P, faces, vid, verts, phi)


def test_face_lattice_matches_the_rank_reference(monkeypatch):
    # the same faces, dimensions and vertex sets, with no rank computed
    instances = integer_side_instances()
    expected = [face_lattice_reference(P, verts) for P, _, verts in instances]
    assert [len(f) for f in expected[15:17]] == [567, 849]

    def refused(*args):
        raise AssertionError("face_lattice computed a rank")
    monkeypatch.setattr(Polyhedron, "face_dim", refused)
    monkeypatch.setattr(cones, "mat_rank", refused)
    monkeypatch.setattr(cones, "_eliminate", refused)
    for (P, _, verts), faces in zip(instances, expected):
        assert face_lattice(P, verts) == faces


def assert_matches_moebius_reference(cone):
    got = ipt_weighted(cone)
    ref = CellSum(cone.apex, cone.rays, cone.labels,
                  moebius_terms_reference(cone))
    assert got.apex == ref.apex and got.rays == ref.rays
    assert got.terms == ref.terms
    return got


def test_ipt_weighted_matches_the_tpoly_reference():
    # integer weights give integer coefficients, as the TPoly sums did
    count = 0
    for cone in integer_side_cones():
        s = assert_matches_moebius_reference(cone)
        assert all(type(v) is int for c, _ in s.terms for v in c.c.values())
        count += 1
    assert count == 392


def octahedron_cone():
    return tangent_cones(octahedron(), pyramid_phi)[0]


def reweighted(cone, weight):
    return WeightedCone(cone.apex, cone.rays,
                        [(rs, d, weight(i, d)) for i, (rs, d, _)
                         in enumerate(cone.faces)], cone.labels)


@pytest.mark.parametrize("weight", [
    # negative coefficients
    lambda i, d: TPoly.from_list([i - 3, 2 - 2 * i, -d]),
    # Fraction coefficients: packed times the lcm of the denominators
    lambda i, d: TPoly({0: Fraction(1, i + 2), 2: Fraction(-d, 3), 3: i}),
    lambda i, d: TPoly({1: Fraction(i + 1, 2)}),
    # every weight zero but one
    lambda i, d: TPoly.from_list([0, 0, -1]) if i == 2 else TPoly.zero(),
], ids=["negative", "fraction", "fraction-only", "one-nonzero"])
def test_ipt_weighted_on_signed_and_rational_weights(weight):
    prod = product_cone([ray_cone_weighted(), ray_cone_weighted((1,))])
    for cone in (prod, square_cone(), octahedron_cone()):
        assert_matches_moebius_reference(reweighted(cone, weight))


@pytest.mark.parametrize("w0, w1", [({0: 8}, {0: -8}), ({0: -8}, {0: 8}),
                                    ({3: 4}, {3: -4}), ({3: -4}, {3: 4})])
def test_ipt_weighted_at_a_power_of_two_coefficient_sum(w0, w1):
    # the coefficient sizes of the two weights sum to 2^k, and the apex
    # face's coefficient w0 - w1 reaches +-2^k: a packing width of the bit
    # length of 2^k alone misreads the positive cases
    cone = WeightedCone((0,), [(1,)], [(frozenset(), 0, TPoly(w0)),
                                       (frozenset([0]), 1, TPoly(w1))], ["x"])
    total = sum(map(abs, [*w0.values(), *w1.values()]))
    assert total & (total - 1) == 0
    s = assert_matches_moebius_reference(cone)
    assert max(abs(v) for c, _ in s.terms for v in c.c.values()) == total


def test_triangulate_matches_the_fraction_height_reference(monkeypatch):
    # the 107 dependent tangent cones above, the six of the octahedron
    # and the one of the square pyramid, whose cells have index 2
    seen = []

    def compared(rays, f=cones.triangulate):
        cells = f(rays)
        assert cells == triangulate_reference(rays), rays
        seen.append(len(rays))
        return cells
    monkeypatch.setattr(cones, "triangulate", compared)
    for cone in itertools.chain(integer_side_cones(),
                                tangent_cones(octahedron(), pyramid_phi),
                                tangent_cones(square_pyramid(), pyramid_phi)):
        ipt_weighted(cone)
    assert len(seen) == 107 + 6 + 1


def test_each_cell_takes_one_adjugate(monkeypatch):
    # the inverse data `_cells` keeps serves the parallelepiped points and
    # the half-open signs of every face; a second adjugate per cell of a
    # dependent cone, in projected coordinates, would make 438 calls
    calls, ncells = [], []
    adjugate, cells_of = cones._adjugate, cones._cells

    def counted_adjugate(rows):
        calls.append(len(rows))
        return adjugate(rows)

    def counted_cells(apex, rays):
        proj, cells = cells_of(apex, rays)
        ncells.append(len(cells))
        # a cell's adjugate is also that of its projection
        for cell, inv, _ in cells:
            assert adjugate([proj[i] for i in cell])[1:] == inv[1:]
        return proj, cells
    monkeypatch.setattr(cones, "_adjugate", counted_adjugate)
    monkeypatch.setattr(cones, "_cells", counted_cells)
    # the last 40 instances are random_bounded_instances(40, 121)
    for P, phi, verts in integer_side_instances()[-40:]:
        faces = face_lattice(P, verts)
        for vid in range(len(verts)):
            ipt_weighted(tangent_cone_at_vertex(P, faces, vid, verts, phi))
    assert len(ncells) == 231
    assert len(calls) == sum(ncells) == 308


def test_cell_sum_eval_raises_where_a_binomial_vanishes():
    # x z = 1 at the point: the ray (1, 0, 1) has 1 - x^r = 0
    s = ipt_weighted(square_cone())
    pt = {"x": Fraction(1, 2), "y": Fraction(3, 5), "z": Fraction(2)}
    with pytest.raises(Pole):
        s.eval(pt)
    with pytest.raises(Pole):
        s.expand().eval(pt)


def test_brute_force_side_shares_no_cell_code(monkeypatch):
    # the lattice sum is built and evaluated with the cell decomposition and
    # the cell evaluator disabled, then compared with the cone side
    P = square_pyramid()
    sums = [ipt_weighted(c) for c in tangent_cones(P, pyramid_phi)]
    pt = random_point(P.labels, random.Random(7),
                      [m for s in sums for m in s.rays])

    def refused(*args, **kwargs):
        raise AssertionError("the lattice-sum side uses cell code")
    for name in ("_cells", "triangulate", "half_open_cells",
                 "parallelepiped_points"):
        monkeypatch.setattr(cones, name, refused)
    for name in ("eval", "expand"):
        monkeypatch.setattr(CellSum, name, refused)
    value = weighted_sum_bruteforce(P, pyramid_phi).eval_at(pt)
    monkeypatch.undo()
    total = TPoly.zero()
    for s in sums:
        total = total + s.eval(pt)
    assert value == total


def test_verify_weighted_brion_expands_no_cone(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("a tangent cone was expanded")
    monkeypatch.setattr(CellSum, "expand", refused)
    monkeypatch.setattr(RationalFn, "__add__", refused)
    P, phi, verts = weighted_brion_instance(triangle_graph(4),
                                            BSeq((2, 1, 0, 0)))
    assert verify_weighted_brion(P, phi, trials=3, seed=8, vertices=verts)
    assert verify_weighted_brion(square_pyramid(), pyramid_phi, seed=9)


def test_verify_weighted_brion_draws_the_points_random_point_draws(
        completed_points, monkeypatch):
    # seed 157 draws a point where a ray monomial of the pyramid is 1: it is
    # drawn again, before the lattice sum is evaluated there
    P = square_pyramid()
    dens = [m for c in tangent_cones(P, pyramid_phi)
            for m in ipt_weighted(c).rays]
    rng = random.Random(157)
    expect = [random_point(P.labels, rng, dens) for _ in range(3)]
    lattice_sums = []
    eval_at = LaurentPoly.eval_at

    def spy(self, point):
        lattice_sums.append(point)
        return eval_at(self, point)
    monkeypatch.setattr(LaurentPoly, "eval_at", spy)
    done, poles = completed_points(cones)
    assert verify_weighted_brion(P, pyramid_phi, trials=3, seed=157)
    assert done == expect and len(poles) == 1
    assert lattice_sums == expect


def test_stanley_reciprocity_simplicial():
    rng = random.Random(4)
    labels = ["x", "y"]
    rays = [(1, 0), (1, 2)]
    relint = sigma_relint_cone((0, 0), rays, labels)
    neg = ipt_cone((0, 0), [(-1, 0), (-1, -2)], labels)
    pt = random_point(labels, rng, relint.rays + neg.den_list())
    assert relint.eval(pt) == neg.eval(pt) * Fraction(1)  # dim 2: (-1)^2 = 1
    # 1-d: sigma(relint) = -sigma(-C)
    relint1 = sigma_relint_cone((0,), [(1,)], ["x"])
    neg1 = ipt_cone((0,), [(-1,)], ["x"])
    pt = random_point(["x"], rng, relint1.rays + neg1.den_list())
    assert relint1.eval(pt) == -neg1.eval(pt)


def test_brion_segment_classical():
    # 1 + x + x^2 = 1/(1-x) + x^2/(1-x^{-1})
    P = segment(0, 2)
    assert verify_weighted_brion(P, lambda f: TPoly.one(), trials=3, seed=5)


def test_brion_segment_weighted():
    P = segment(0, 2)

    def phi(face):
        return TPoly.one() if face.dim == 0 else one_minus_t()
    assert verify_weighted_brion(P, phi, trials=3, seed=6)
    # algebraic simplification oracle: sum of the two vertex contributions
    # equals (1 + (1-t)x + x^2) exactly
    verts = P.vertices_bruteforce()
    faces = face_lattice(P, verts)
    total = None
    for vid in range(len(verts)):
        c = tangent_cone_at_vertex(P, faces, vid, verts, phi)
        f = ipt_weighted(c).expand()
        total = f if total is None else total + f
    x = LaurentPoly.var("x")
    expect = LaurentPoly.one() + x * one_minus_t() + LaurentPoly.var("x", 2)
    assert total.to_laurent() == expect


def test_brion_square_weighted():
    P = Polyhedron(2, [((1, 0), 2), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 0)],
                   labels=["x", "y"])

    def phi(face):
        return TPoly.from_list([1, -1]) ** face.dim
    assert verify_weighted_brion(P, phi, trials=3, seed=7)


def test_brion_simplex_3d():
    P = Polyhedron(3, [((1, 0, 0), 2), ((0, 1, 0), 2), ((0, 0, 1), 2),
                       ((-1, 0, 0), 0), ((0, -1, 0), 0), ((0, 0, -1), 0),
                       ((1, 1, 1), 3)], labels=["x", "y", "z"])

    def phi(face):
        return TPoly.from_list([1, -1]) ** face.dim
    assert verify_weighted_brion(P, phi, trials=2, seed=8)


def test_polyhedron_lattice_points_of_an_interval():
    P = Polyhedron(1, [((1,), 2), ((-1,), 0)])
    assert P.lattice_points() == [(0,), (1,), (2,)]


@pytest.mark.parametrize("row", [[1, 2.5], [1, 2.0], [0.5, 2], [1, True],
                                 [1, "2"]])
def test_polyhedron_rejects_non_integer_entries(row):
    # an entry that is not an integer is an error, never truncated
    a, b = row
    with pytest.raises(ValueError):
        Polyhedron(1, [((a,), b), ((-1,), 0)])
    with pytest.raises(ValueError):
        Polyhedron(1, [((-1,), 0)], [((a,), b)])
