import copy
import functools
import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from hlbrion import graphs
from hlbrion.affine_hl import random_zpoint
from hlbrion.cones import face_lattice, Polyhedron
from hlbrion.graphs import (
    BSeq, ConePlan, ConeTransform, FaceSubgraph, NotClosedDown, OrdinaryGraph,
    degeneration_map, enumerate_faces, enumerate_ordinary_graphs, is_bounded,
    minimal_face, polyhedron_of, product_value, psi_is_zero,
    psi_terms, sigma_cone_polyhedral, t_factorial, t_multinomial,
    triangle_graph, verify_face_euler_sum, verify_gensingular,
    verify_graphsum, x_variables, svar,
)
from hlbrion.ring import (
    InvariantError, LaurentPoly, Monomial, Pole, RationalFn, TPoly,
    TruncatedSeries, random_point, zq_coeff,
)

# the three example shapes from the worked figures
FIG1 = [(0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (2, 1), (2, 2),
        (3, 0), (3, 1), (3, 2), (4, 0), (4, 1), (5, 0), (6, -1)]
FIG2 = [(0, 1), (1, 0), (1, 1), (2, -1), (2, 0), (3, -1), (4, -1)]
FIG3 = [(0, 1), (0, 2), (1, 1), (2, 0), (3, -1), (3, 0), (4, -2), (4, -1),
        (4, 0), (5, -2), (5, -1), (6, -2)]


def tp(*coeffs):
    return TPoly.from_list(list(coeffs))


def one_minus_t_pow(l):
    return TPoly.one() - TPoly.t(l)


def test_xvar_table():
    # the finite routes name coordinate i by x<i>; hl_def and
    # schur_bialternant build monomials with their names in index order,
    # which is the sorted order only below x10
    assert [graphs.xvar(i) for i in (1, 2, 3, 9, 10, 12)] == \
        ["x1", "x2", "x3", "x9", "x10", "x12"]
    names = [graphs.xvar(i) for i in range(1, 10)]
    assert sorted(names) == names
    assert sorted([graphs.xvar(2), graphs.xvar(10)]) == ["x10", "x2"]
    assert Monomial({graphs.xvar(2): 1, graphs.xvar(1): -1}).e == \
        (("x1", -1), ("x2", 1))


def test_check_ordinary_triangle():
    G = triangle_graph(3)
    assert G.l == 3 and G.a == 0 and G.d == 2
    assert len(G.vertices) == 6


def test_check_ordinary_figures():
    for fig in (FIG1, FIG2, FIG3):
        G = OrdinaryGraph(fig)
        assert len(G.rows[G.d]) == 1
    assert OrdinaryGraph(FIG2).violates_row_monotonicity()
    assert OrdinaryGraph(FIG3).violates_row_monotonicity()
    assert not triangle_graph(4).violates_row_monotonicity()


def test_check_ordinary_closed_down_violation():
    with pytest.raises(NotClosedDown):
        OrdinaryGraph([(0, 1), (0, 2)])


def test_enumerate_faces_segment_regular():
    G = triangle_graph(2)
    faces = enumerate_faces(G, BSeq([2, 0]))
    dims = sorted(f.dim for f in faces)
    assert dims == [0, 0, 1]


def test_enumerate_faces_segment_singular():
    G = triangle_graph(2)
    faces = enumerate_faces(G, BSeq([1, 1]))
    # the polyhedron degenerates to a point: a single 0-dimensional face
    assert len(faces) == 1 and faces[0].dim == 0
    assert faces[0].phi() == TPoly.one()


def test_single_vertex_graph():
    G = OrdinaryGraph([(0, 1)])
    faces = enumerate_faces(G, BSeq([5]))
    assert len(faces) == 1 and faces[0].dim == 0


def test_face_components_are_ordinary():
    G = triangle_graph(3)
    for b in ([3, 1, 0], [2, 2, 0], [1, 1, 1]):
        for f in enumerate_faces(G, BSeq(b)):
            for blk in f.blocks:
                OrdinaryGraph(blk)  # raises if not ordinary


def test_phi_face_figure1():
    G = OrdinaryGraph(FIG1)
    blocks = [
        {(0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (2, 1), (3, 0)},
        {(2, 2), (3, 2)},
        {(3, 1), (4, 0), (4, 1), (5, 0), (6, -1)},
    ]
    f = FaceSubgraph(G, blocks)
    assert f.dim == 2
    assert f.phi() == one_minus_t_pow(1) ** 2 * one_minus_t_pow(2)
    # the face exists for an all-equal top assignment
    faces = enumerate_faces(G, BSeq([0, 0, 0]))
    assert any(g.blocks == f.blocks for g in faces)


def test_phi_face_figure3():
    G = OrdinaryGraph(FIG3)
    blocks = [
        {(0, 1), (0, 2), (1, 1)},
        {(2, 0), (3, -1), (3, 0), (4, -2), (4, -1), (4, 0),
         (5, -2), (5, -1), (6, -2)},
    ]
    f = FaceSubgraph(G, blocks)
    assert f.dim == 1
    assert f.phi() == one_minus_t_pow(1) * one_minus_t_pow(2) * one_minus_t_pow(3)
    faces = enumerate_faces(G, BSeq([0, 0]))
    assert any(g.blocks == f.blocks for g in faces)


def test_phi_face_isolated_triangle():
    G = triangle_graph(2)
    f = FaceSubgraph(G, [{v} for v in G.vertices])
    assert f.phi() == one_minus_t_pow(1)


def test_polyhedron_of_segment():
    G = triangle_graph(2)
    P = polyhedron_of(G, BSeq([2, 0]))
    assert P.lattice_points() == [(0,), (1,), (2,)]


def test_polyhedron_of_gt_polytope():
    G = triangle_graph(3)
    P = polyhedron_of(G, BSeq([2, 1, 0]))
    assert len(P.lattice_points()) == 8


def test_faces_match_polyhedron_oracle():
    # face subgraph enumeration agrees with the tight-set face lattice
    cases = [
        (triangle_graph(2), [2, 0]),
        (triangle_graph(2), [1, 1]),
        (triangle_graph(3), [2, 1, 0]),
        (triangle_graph(3), [1, 1, 0]),
        (triangle_graph(3), [2, 2, 2]),
    ]
    for G, b in cases:
        faces = enumerate_faces(G, BSeq(b))
        P = polyhedron_of(G, BSeq(b))
        lat = face_lattice(P)
        assert len(lat) == len(faces)
        assert sorted(f.dim for f in lat) == sorted(f.dim for f in faces)


def test_is_bounded():
    assert is_bounded(triangle_graph(2), BSeq([2, 0]))
    assert is_bounded(triangle_graph(4), BSeq([3, 2, 1, 0]))
    G2 = OrdinaryGraph(FIG2)
    assert not is_bounded(G2, BSeq([1]))


def enumerate_faces_reference(G, b):
    """The branch search from no merges, which prunes a branch once its
    tied top vertices can no longer be joined and keeps a leaf only when
    they are: the search that `enumerate_faces` replaced by starting from
    the minimal face."""
    ties, forbidden = graphs._top_pairs(G, b)
    edges = G.edges
    out = []

    def feasible(dsu, eidx):
        link = graphs._DSU(G.vertices)
        for v in G.vertices:
            link.union(v, dsu.find(v))
        for hi, lo in edges[eidx:]:
            link.union(hi, lo)
        return all(link.find(x) == link.find(y) for x, y in ties)

    def recurse(dsu, sep_pairs, eidx):
        while eidx < len(edges):
            hi, lo = edges[eidx]
            if dsu.find(hi) == dsu.find(lo) or any(
                    {dsu.find(x), dsu.find(y)} == {dsu.find(hi), dsu.find(lo)}
                    for x, y in sep_pairs):
                eidx += 1
                continue
            break
        else:
            if all(dsu.find(x) == dsu.find(y) for x, y in ties):
                out.append(FaceSubgraph(G, dsu.blocks()))
            return
        hi, lo = edges[eidx]
        dsu2 = dsu.copy()
        sep2 = sep_pairs + [(hi, lo)]
        if graphs._closure(G, dsu2, forbidden + sep2) and \
                feasible(dsu2, eidx + 1):
            recurse(dsu2, sep2, eidx + 1)
        dsu3 = dsu.copy()
        dsu3.union(hi, lo)
        if graphs._closure(G, dsu3, forbidden + sep_pairs) and \
                feasible(dsu3, eidx + 1):
            recurse(dsu3, sep_pairs, eidx + 1)

    dsu0 = graphs._DSU(G.vertices)
    if graphs._closure(G, dsu0, forbidden) and feasible(dsu0, 0):
        recurse(dsu0, [], 0)
    return out


def test_face_search_matches_the_tie_prune_reference():
    # every graph with at most 7 vertices with three nonincreasing top rows
    # in [0, 2] from seed 20261021, so that most top rows have ties, and
    # every tie pattern with at most three values on the 5-row triangle
    rng = random.Random(20261021)
    cases = [(G, BSeq(sorted((rng.randint(0, 2) for _ in range(G.l)),
                             reverse=True)))
             for G in enumerate_ordinary_graphs(7) for _ in range(3)]
    cases += [(triangle_graph(5), b) for b in tie_patterns(5) if b[0] <= 2]
    faces = 0
    for G, b in cases:
        found = [f.blocks for f in enumerate_faces(G, b)]
        assert len(found) == len(set(found))
        assert set(found) == {f.blocks for f in
                              enumerate_faces_reference(G, b)}, (G, b)
        faces += len(found)
    assert (len(cases), faces) == (743, 43478)


def minimal_face_reference(G, b):
    """The face of largest dimension among all faces of D_G(b)."""
    return max(enumerate_faces(G, b), key=lambda f: f.dim)


def test_minimal_face_matches_face_enumeration():
    # every graph with at most 7 vertices and every top row with values <= 3
    cases = 0
    for G in enumerate_ordinary_graphs(7):
        for vals in itertools.combinations_with_replacement(range(3, -1, -1),
                                                            G.l):
            b = BSeq(vals)
            assert minimal_face(G, b) == minimal_face_reference(G, b), (G, b)
            cases += 1
    assert cases > 1000
    with pytest.raises(ValueError):
        minimal_face(triangle_graph(3), BSeq([1, 0]))


def test_vertex_search_matches_full_face_search():
    # the value search for vertices against the 0-dimensional faces of the
    # branch search, as block sets: every graph with at most 7 vertices with
    # three top rows in [0, 3] from seed 20261020, and every nonincreasing top
    # row in [0, 3] on the 4-row triangle
    rng = random.Random(20261020)
    cases = [(G, BSeq(sorted((rng.randint(0, 3) for _ in range(G.l)),
                             reverse=True)))
             for G in enumerate_ordinary_graphs(7) for _ in range(3)]
    tri = triangle_graph(4)
    cases += [(tri, BSeq(vals)) for vals in
              itertools.combinations_with_replacement(range(3, -1, -1), 4)]
    assert len(cases) == 767
    vertices = 0
    for G, b in cases:
        found = [f.blocks for f in enumerate_faces(G, b, only_vertices=True)]
        assert len(found) == len(set(found))
        assert set(found) == {f.blocks for f in enumerate_faces(G, b)
                              if f.dim == 0}, (G, b)
        vertices += len(found)
    assert vertices == 1219
    with pytest.raises(ValueError):
        enumerate_faces(tri, BSeq([1, 0]), only_vertices=True)


# the run search and run weights that ConePlan replaced, kept as references:
# runs from each up-set by a search over the blocks in topological order,
# and run weights from a breadth-first search over the run's vertices

def block_parents_reference(G, blocks):
    block_of = {v: bi for bi, blk in enumerate(blocks) for v in blk}
    parents = {b: set() for b in range(len(blocks))}
    for hi, lo in G.edges:
        if block_of[hi] != block_of[lo]:
            parents[block_of[lo]].add(block_of[hi])
    return parents


def next_runs_reference(parents, topo, placed):
    """Nonempty sets of blocks whose parents lie in placed + run."""
    rest = [b for b in topo if b not in placed]
    out = []

    def rec(current, idx):
        if current:
            out.append(frozenset(current))
        for k in range(idx, len(rest)):
            b = rest[k]
            if parents[b] - placed <= current:
                current.add(b)
                rec(current, k + 1)
                current.remove(b)

    rec(set(), 0)
    return out


def phi_run_reference(G, blocks, run):
    adj = {}
    for hi, lo in G.edges:
        adj.setdefault(hi, []).append(lo)
        adj.setdefault(lo, []).append(hi)
    verts = set().union(*(blocks[b] for b in run))
    out = TPoly.one()
    while verts:
        comp, stack = set(), [verts.pop()]
        while stack:
            v = stack.pop()
            comp.add(v)
            for u in adj.get(v, ()):
                if u in verts:
                    verts.remove(u)
                    stack.append(u)
        counts = {}
        for (i, _) in comp:
            counts[i] = counts.get(i, 0) + 1
        for i, l in counts.items():
            if i > G.a and counts.get(i - 1, 0) == l - 1:
                out = out * one_minus_t_pow(l)
    return out


def plan_reference(G, blocks):
    """(up-sets, schedule with each group's kids as a set)."""
    parents = block_parents_reference(G, blocks)
    topo = []
    while len(topo) < len(blocks):
        topo.append(min(b for b in parents
                        if b not in topo and parents[b] <= set(topo)))
    ups = sorted([frozenset()] + next_runs_reference(parents, topo,
                                                     frozenset()),
                 key=lambda s: (len(s), sorted(s)))
    index = {u: k for k, u in enumerate(ups)}
    steps = []
    for k in range(len(ups) - 2, -1, -1):
        groups = {}
        for run in next_runs_reference(parents, topo, ups[k]):
            phi = tuple(phi_run_reference(G, blocks, run).to_list())
            groups.setdefault(phi, set()).add(index[ups[k] | run])
        steps.append((k, groups))
    return ups, steps


def test_cone_plans_match_the_run_search_reference():
    # the schedule of every graph with at most 8 vertices, each group's
    # weight multiplied out and its up-sets compared as a set
    graphs_checked = 0
    for G in enumerate_ordinary_graphs(8):
        plan = ConePlan(G)
        ups, steps = plan_reference(G, plan.blocks)
        assert plan.upsets == ups, G
        got = [(k, {tuple(plan.weights[key].to_list()): set(kids)
                    for key, kids in groups})
               for k, groups in plan.schedule]
        assert got == steps, G
        for _, groups in plan.schedule:
            for _, kids in groups:
                assert list(kids) == sorted(set(kids))
        graphs_checked += 1
    assert graphs_checked == 565


def test_sigma_cone_single_vertex():
    G = OrdinaryGraph([(0, 1)])
    f = ConeTransform.of_cone(G, 3).expand()
    assert f.num == LaurentPoly.from_monomial(Monomial({svar((0, 1)): 3}))
    assert not f.den


def test_sigma_cone_ray():
    # two-vertex path: apex value b, one free coordinate below
    G = OrdinaryGraph([(0, 1), (1, 1)])
    f = ConeTransform.of_cone(G, 0).expand()
    # (1 - t y^{-1})/(1 - y^{-1}) with y the lower coordinate
    y = Monomial({svar((1, 1)): -1})
    num = LaurentPoly.one() - LaurentPoly.from_monomial(y, TPoly.t())
    assert f.cross_mul_equal(RationalFn(num, [(y, 1)]))


def test_sigma_cone_methods_agree():
    # the up-set evaluator and its RationalFn expansion against the
    # polyhedral route: three cones at apex 0, then every ordinary graph with
    # 2-5 vertices (44 cones) at apex 2
    rng = random.Random(11)
    cases = [(G, 0) for G in (
        triangle_graph(2),
        triangle_graph(3),
        OrdinaryGraph([(0, 1), (1, 1), (2, 0), (2, 1), (3, 0)]),
    )]
    cases += [(G, 2) for G in enumerate_ordinary_graphs(5)
              if len(G.vertices) >= 2]
    assert len(cases) == 3 + 44
    for G, apex in cases:
        a = ConeTransform.of_cone(G, apex)
        b = sigma_cone_polyhedral(G, apex)
        variables = [svar(v) for v in G.vertices]
        pt = random_point(variables, rng, a.cut_monomials() + b.den_list())
        value = a.eval(pt)
        expect = b.eval(pt)
        assert not value.is_zero(), G
        assert value == expect, G
        assert a.expand().eval(pt) == expect, G


def test_cone_eval_raises_where_a_cut_factor_vanishes():
    G = OrdinaryGraph([(0, 1), (1, 1), (2, 0), (2, 1), (3, 0)])
    with pytest.raises(Pole):
        ConeTransform.of_cone(G, 0).eval(
            {svar(v): Fraction(1) for v in G.vertices})


def fraction_fold(ct, pt):
    """The up-set recursion on t-polynomials with Fraction coefficients, each
    cut factor c/(1 - c) taken from its monomial's value: a reference for
    the packed integer evaluator."""
    def cut(m):
        c = m.eval(pt)
        return TPoly.const(c / (1 - c))

    return ct._fold(TPoly.one(), TPoly.zero(), lambda val, w: val * w,
                    cut) * ct.apex.eval(pt)


def unit_gap_point(ct, pt, k, r):
    """pt with one variable of the cut monomial of up-set k changed so that
    the cut is (r + 1)/r, where its factor c/(1 - c) = -(r + 1) is largest."""
    m = ct._cut_mono(k)
    v, e = m.e[0]
    rest = m.eval(pt) / pt[v] ** e
    out = dict(pt)
    out[v] = (Fraction(r + 1, r) / rest) ** e
    return out


def test_cone_eval_matches_the_fraction_recursion():
    # every graph with at most 6 vertices at apex 1: a seeded point, and a
    # point where one cut, chosen by the seed, has |q - p| = 1; the
    # RationalFn expansion as well on the graphs with at most 5 vertices
    rng = random.Random(2027)
    checked = gaps = 0
    for G in enumerate_ordinary_graphs(6):
        ct = ConeTransform.of_cone(G, 1)
        cuts = ct.cut_monomials()
        pt = random_point([svar(v) for v in G.vertices], rng, cuts)
        points = [pt]
        if cuts:
            k = rng.randrange(1, len(cuts) + 1)
            for r in (96, 95, 94):
                gap = unit_gap_point(ct, pt, k, r)
                if all(m.eval(gap) != 1 for m in cuts):
                    gap_cuts = ct.cut_values(gap)[1:-1]
                    assert any(abs(d) == 1 for _, d in gap_cuts)
                    points.append(gap)
                    gaps += 1
                    break
        expanded = ct.expand() if len(G.vertices) <= 5 else None
        for point in points:
            value = ct.eval(point)
            assert value == fraction_fold(ct, point), (G, point)
            if expanded is not None:
                assert value == expanded.eval(point), (G, point)
        checked += 1
    assert checked == 105 and gaps == 102


def test_cone_eval_on_x_mapped_cones_matches_the_fraction_recursion():
    # the cones of psi_G(b) after the x-variable map, as psi_is_zero meets
    # them, on the row-growing graphs with at most 7 vertices
    rng = random.Random(5)
    cones = 0
    for G in enumerate_ordinary_graphs(7):
        if not G.violates_row_monotonicity():
            continue
        b = BSeq(sorted((rng.randint(0, 3) for _ in range(G.l)),
                        reverse=True))
        for _, cts in psi_terms(G, b):
            pt = random_point(x_variables(G), rng, cut_monomials_of([cts]))
            for ct in cts:
                assert ct.eval(pt) == fraction_fold(ct, pt), (G, b, pt)
                cones += 1
    assert cones == 80


def cut_monomials_of(products):
    """The cut monomials of every cone in a list of cone tuples."""
    return [m for cones in products for ct in cones
            for m in ct.cut_monomials()]


def test_psi_is_zero_draws_the_points_random_point_draws(monkeypatch):
    # seed 168 draws a point where a cut monomial of this graph is 1 within
    # its five trials: eval raises Pole there and the point is drawn again
    G = OrdinaryGraph([(0, 2), (1, 1), (1, 2), (2, 1)])
    b = BSeq([0])
    variables = x_variables(G)
    dens = cut_monomials_of(cones for _, cones in psi_terms(G, b))
    rng = random.Random(168)
    expect = [random_point(variables, rng, dens) for _ in range(5)]
    rng = random.Random(168)
    assert expect != [random_point(variables, rng) for _ in range(5)]
    seen, poles = [], []
    eval_ = ConeTransform.eval

    def spy(self, point):
        if not seen or seen[-1] is not point:
            seen.append(point)
        try:
            return eval_(self, point)
        except Pole:
            poles.append(point)
            raise

    monkeypatch.setattr(ConeTransform, "eval", spy)
    assert psi_is_zero(G, b, trials=5, seed=168)
    assert len(poles) == 1
    assert [p for p in seen if p is not poles[0]] == expect


def test_verify_gensingular_draws_the_points_random_point_draws(
        completed_points):
    # seed 17 draws a point where a cut monomial is 1: it is drawn again
    G = OrdinaryGraph([(0, 1), (0, 2), (1, 1), (2, 1)])
    b, b2 = BSeq([1, 0]), BSeq([0, 0])
    dens = cut_monomials_of(cones for c in (b, b2)
                            for _, cones in graphs.vertex_contributions(G, c))
    rng = random.Random(17)
    expect = [random_point([svar(v) for v in G.vertices], rng, dens)
              for _ in range(3)]
    done, poles = completed_points(graphs)
    assert verify_gensingular(G, b, b2, trials=3, seed=17)
    assert done == expect and len(poles) == 1


def test_cone_eval_raises_on_an_inexact_division():
    # a broken schedule that passes the up-set {top} twice on one chain,
    # with weight 1: D holds its factor q - p = 3 once, so the second
    # division of N = 2 * 2 by 3 leaves a remainder
    G = OrdinaryGraph([(0, 1), (1, 1)])
    ct = ConeTransform.of_cone(G, 0)
    plan = copy.copy(ct.plan)
    assert plan.upsets == [frozenset(), {0}, {0, 1}]
    k = 1
    plan.schedule = [(k, (((), (2,)),)), (k, (((), (k,)),))] + \
        plan.schedule[1:]
    pt = {svar((0, 1)): Fraction(3), svar((1, 1)): Fraction(5, 2)}
    assert ct.cut_values(pt)[k] == (2, 3)
    with pytest.raises(InvariantError):
        ConeTransform(plan, ct.block_monos, ct.apex).eval(pt)


def test_bseq_rejects_non_integer_values():
    for values in ([2.5, 0], ["3", True], [Fraction(1), 0]):
        with pytest.raises(ValueError):
            BSeq(values)
    assert BSeq([3, 3, 0]).values == (3, 3, 0)


@pytest.mark.parametrize("qdeg", [2, 1, 0, -1, -2])
def test_series_unit_geometric_sums(qdeg):
    # a two-vertex path is one block below the pin, so its transform is
    # 1 + (1 - t) m/(1 - m) for the cut monomial m = y^-1 of the free
    # coordinate y; m of positive, zero and negative q-degree against
    # m (1 - m)^-1 built through TruncatedSeries.invert
    G = OrdinaryGraph([(0, 1), (1, 1)])
    m = Monomial({"z1": -1 if qdeg % 2 else 1, "q": qdeg})
    ct = ConeTransform.of_cone(G, 0).subs_monomials(
        {svar((0, 1)): Monomial.unit(), svar((1, 1)): m.inv()})
    assert ct.cut_monomials() == [m]
    order = 5
    for zpoint in (None, random_zpoint(2, random.Random(qdeg))):
        c, q = zq_coeff(m, zpoint)
        mono = TruncatedSeries(order, {q: c}, zpoint)
        one = TruncatedSeries.one(order, zpoint)
        geo = mono * (one - mono).invert()
        expect = one + geo.scale(TPoly.one() - TPoly.t())
        got = ct.series_unit(order, zpoint)
        assert got.order == order
        assert got.equals(expect, up_to=order)


def test_psi_triangle_n2_matches_hl():
    G = triangle_graph(2)
    terms = psi_terms(G, BSeq([2, 0]))
    assert len(terms) == 2
    pin = {"x0": Monomial.unit(), "x2": Monomial.unit()}
    total = None
    for _, cones in terms:
        pinned = RationalFn(LaurentPoly.one())
        for ct in cones:
            pinned = pinned * ct.subs_monomials(pin).expand()
        total = pinned if total is None else total + pinned
    got = total.to_laurent()
    x = LaurentPoly.var("x1")
    expect = LaurentPoly.var("x1", 2) + x * tp(1, -1) + LaurentPoly.one()
    assert got == expect


def test_psi_single_column_path():
    # chain graph: the transform is a monomial times geometric factors
    G = OrdinaryGraph([(0, 1), (1, 1), (2, 0)])
    b = BSeq([2])
    rng = random.Random(3)
    terms = psi_terms(G, b)
    assert len(terms) == 1
    cones = terms[0][1]
    pt = random_point(x_variables(G), rng, cut_monomials_of([cones]))
    val = product_value(cones, pt)
    # independent oracle by summing the 1-d chain polyhedron directly:
    # points are s(1,1) = 2 - a, s(2,0) = s(1,1) + c with a, c >= 0 and
    # weight (1-t)^{#{a>0}} (1-t)^{#{c>0}}, so the sum separates into two
    # geometric factors times the apex monomial.
    x0, x1, x2, x3 = pt["x0"], pt["x1"], pt["x2"], pt["x3"]
    t = TPoly.t()
    ev = (x3 / x0) ** 2                      # F-image of the apex (2, 2, 2)
    r1 = x1 / x3                             # lower both coordinates by 1
    r2 = x3 / x2                             # raise the bottom coordinate
    expect = TPoly.const(ev)
    for r in (r1, r2):
        geo = TPoly.const(1) - t * Fraction(r)
        expect = expect * geo * Fraction(1, 1) * (Fraction(1) / (1 - r))
    assert val == expect
    # at t = 0 the transform is the plain cone transform of a single vertex
    val0 = TPoly({e: c for e, c in val.c.items() if e == 0})
    assert val0 == TPoly.const(ev * (Fraction(1) / ((1 - r1) * (1 - r2))))


def test_theorem_zero_figure2():
    G = OrdinaryGraph(FIG2)
    assert psi_is_zero(G, BSeq([3]), trials=5, seed=1)
    assert psi_is_zero(G, BSeq([0]), trials=5, seed=2)


def test_theorem_zero_figure3():
    G = OrdinaryGraph(FIG3)
    assert psi_is_zero(G, BSeq([2, 0]), trials=3, seed=3)
    assert psi_is_zero(G, BSeq([1, 1]), trials=3, seed=4)


def test_graph_caches_stay_bounded(monkeypatch):
    # the plan and x-mapped transform caches are lru_caches of CACHE_LIMIT
    # entries; the results do not depend on the limit
    assert graphs.cone_plan.cache_info().maxsize == graphs.CACHE_LIMIT
    assert graphs._cone_transform_x.cache_info().maxsize == graphs.CACHE_LIMIT
    cases = [(G, BSeq([1] * G.l)) for G in enumerate_ordinary_graphs(5)
             if G.violates_row_monotonicity()]
    cases.append((triangle_graph(3), BSeq([2, 1, 0])))

    def run(limit):
        caches = {name: functools.lru_cache(maxsize=limit)(
            getattr(graphs, name).__wrapped__)
            for name in ("cone_plan", "_cone_transform_x")}
        for name, cache in caches.items():
            monkeypatch.setattr(graphs, name, cache)
        out, peak = [], 0
        for G, b in cases:
            out.append(psi_is_zero(G, b, trials=2, seed=1))
            peak = max(peak, *(c.cache_info().currsize
                               for c in caches.values()))
        return out, peak

    expect, unbounded_peak = run(graphs.CACHE_LIMIT)
    assert expect == [True] * (len(cases) - 1) + [False]
    assert unbounded_peak > 3
    got, peak = run(3)
    assert got == expect and peak <= 3


def test_degeneration_map_segment():
    G = triangle_graph(2)
    faces_reg = enumerate_faces(G, BSeq([1, 0]))
    for g in faces_reg:
        img = degeneration_map(G, BSeq([1, 0]), BSeq([0, 0]), g)
        assert img.dim == 0
    # idempotence when no values merge
    for g in faces_reg:
        img = degeneration_map(G, BSeq([1, 0]), BSeq([1, 0]), g)
        assert img.blocks == g.blocks


def test_degeneration_map_fixed_point():
    G = triangle_graph(3)
    b, b2 = BSeq([2, 1, 0]), BSeq([1, 1, 0])
    for g in enumerate_faces(G, b):
        img = degeneration_map(G, b, b2, g)
        assert g.dim >= img.dim
        img2 = degeneration_map(G, b2, b2, img)
        assert img2.blocks == img.blocks


def smallest_face_containing_reference(G, b2, edge_set):
    """The face of D_G(b2) with the fewest edges among those containing
    edge_set, which must contain every other one."""
    cands = [f for f in enumerate_faces(G, b2) if f.edge_set() >= edge_set]
    best = min(cands, key=lambda f: len(f.edge_set()))
    assert all(f.edge_set() >= best.edge_set() for f in cands)
    return best


def tie_patterns(l):
    """One nonincreasing top row per way to tie consecutive positions:
    b_p = b_(p+1) exactly where cut p is 0."""
    for cuts in itertools.product((0, 1), repeat=l - 1):
        yield BSeq(sum(cuts[p:]) for p in range(l))


def test_degeneration_map_matches_smallest_face_search():
    # every graph with at most 6 vertices, every tie pattern of b and every
    # coarsening b2 of it
    cases = 0
    for G in enumerate_ordinary_graphs(6):
        for b in tie_patterns(G.l):
            faces = enumerate_faces(G, b)
            for b2 in tie_patterns(G.l):
                if any(b[p] == b[p + 1] and b2[p] != b2[p + 1]
                       for p in range(G.l - 1)):
                    with pytest.raises(ValueError):
                        degeneration_map(G, b, b2, faces[0])
                    continue
                for f in faces:
                    assert degeneration_map(G, b, b2, f) == \
                        smallest_face_containing_reference(
                            G, b2, f.edge_set()), (G, b, b2, f)
                    cases += 1
    assert cases > 1000
    with pytest.raises(ValueError):
        G = triangle_graph(3)
        degeneration_map(G, BSeq([1, 1, 0]), BSeq([2, 1, 0]),
                         minimal_face(G, BSeq([1, 1, 0])))


def test_graphsum_base_case():
    G = triangle_graph(2)
    assert verify_graphsum(G, BSeq([1, 0]), BSeq([0, 0]))


def test_graphsum_triangle3():
    G = triangle_graph(3)
    assert verify_graphsum(G, BSeq([2, 1, 0]), BSeq([1, 1, 0]))
    assert verify_graphsum(G, BSeq([2, 1, 0]), BSeq([2, 2, 0]))
    assert verify_graphsum(G, BSeq([2, 1, 0]), BSeq([0, 0, 0]))


def test_gensingular_segment():
    G = triangle_graph(2)
    assert verify_gensingular(G, BSeq([1, 0]), BSeq([0, 0]), trials=3, seed=5)


def test_gensingular_triangle3():
    G = triangle_graph(3)
    assert verify_gensingular(G, BSeq([2, 1, 0]), BSeq([1, 1, 0]), trials=2, seed=6)
    assert verify_gensingular(G, BSeq([2, 1, 0]), BSeq([1, 1, 1]), trials=2, seed=7)


def test_t_factorial_and_multinomial():
    assert t_factorial(1) == TPoly.one()
    assert t_factorial(2) == tp(1, 1)
    assert t_factorial(3) == tp(1, 1) * tp(1, 1, 1)
    assert t_multinomial(3, [2, 1]) == tp(1, 1, 1)


def test_face_euler_sum():
    assert verify_face_euler_sum(2, [2])
    assert verify_face_euler_sum(3, [2, 1])
    assert verify_face_euler_sum(3, [1, 1])


def test_enumerate_ordinary_graphs_small():
    sizes = Counter(len(g.vertices) for g in enumerate_ordinary_graphs(9))
    assert [sizes[k] for k in range(1, 10)] == \
        [1, 2, 5, 11, 26, 60, 139, 321, 743]
    # figure 2 appears (translated)
    gs7 = enumerate_ordinary_graphs(7)
    fig2_norm = frozenset((i, j + 2) for i, j in FIG2)
    assert any(g.vertices == fig2_norm for g in gs7)


@functools.lru_cache(maxsize=None)
def ordinary_graphs_by_search(max_vertices):
    """Oracle for `enumerate_ordinary_graphs`: every fixed connected cell set
    of at most max_vertices cells, grown from the origin without adding a
    cell lexicographically below it (so every translation class appears),
    normalised, deduplicated and kept when it validates."""
    origin = (0, 0)
    level = {frozenset([origin])} if max_vertices >= 1 else set()
    cell_sets = set(level)
    for _ in range(max_vertices - 1):
        nxt = set()
        for cells in level:
            for i, j in cells:
                for nb in ((i - 1, j), (i - 1, j + 1), (i + 1, j - 1),
                           (i + 1, j)):
                    if nb >= origin and nb not in cells:
                        nxt.add(cells | {nb})
        cell_sets |= nxt
        level = nxt
    out = {}
    for cells in cell_sets:
        top = min(i for i, _ in cells)
        left = min(j for _, j in cells)
        norm = frozenset((i - top, j - left + 1) for i, j in cells)
        if norm not in out:
            try:
                out[norm] = OrdinaryGraph(norm)
            except (graphs.NotConnected, graphs.NotClosedDown,
                    graphs.NotClosedUp):
                out[norm] = None
    return sorted((g for g in out.values() if g is not None),
                  key=lambda g: (len(g.vertices), g.signature()))


def test_enumerate_ordinary_graphs_matches_the_exhaustive_search():
    for n in range(-3, 10):
        assert ([g.signature() for g in enumerate_ordinary_graphs(n)]
                == [g.signature() for g in ordinary_graphs_by_search(n)])
    assert enumerate_ordinary_graphs(0) == enumerate_ordinary_graphs(-3) == []


def test_every_row_of_an_ordinary_graph_is_an_interval():
    for G in enumerate_ordinary_graphs(9) + ordinary_graphs_by_search(9):
        for js in G.rows.values():
            assert js == list(range(js[0], js[-1] + 1))
        assert sorted(G.rows) == list(range(G.a, G.d + 1))


def test_random_bounded_instances_from_the_searched_pool(monkeypatch):
    def draws():
        return [(G.signature(), tuple(b))
                for G, b in graphs.random_bounded_instances(20, seed=11)]

    generated = draws()
    monkeypatch.setattr(graphs, "enumerate_ordinary_graphs",
                        ordinary_graphs_by_search)
    assert draws() == generated
