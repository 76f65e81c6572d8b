import math

import pytest
from hypothesis import given, settings, strategies as st

from modhull.geometry import (
    ConvexPolygon,
    DegenerateInput,
    TooFewVertices,
    UnimodularMap,
    consecutive_block_min_area,
    contains_point,
    convex_hull,
    normalize_to_box,
    transform_polygon,
    twice_area,
)
from modhull.hyperbola import NEGATE, SWAP, HyperbolaSpec, apply_symmetry, enumerate_points

points_strategy = st.lists(
    st.tuples(st.integers(-50, 50), st.integers(-50, 50)), min_size=1, max_size=40
)


def brute_force_extreme_points(pts):
    """A point is extreme iff it is not in the hull of the others (exact test
    via small LP-free reasoning: p extreme <=> some strict separating
    half-plane; for small sets, check p not a convex combination by
    enumerating triangles)."""
    pts = sorted(set(pts))
    if len(pts) <= 2:
        return pts

    def inside_triangle(p, a, b, c):
        d1 = _cross(a, b, p)
        d2 = _cross(b, c, p)
        d3 = _cross(c, a, p)
        orient = _cross(a, b, c)
        if orient == 0:
            return False
        if orient < 0:
            d1, d2, d3 = -d1, -d2, -d3
        return d1 >= 0 and d2 >= 0 and d3 >= 0

    def on_segment(p, a, b):
        if _cross(a, b, p) != 0:
            return False
        return (
            min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
            and p not in (a, b)
        )

    out = []
    for p in pts:
        rest = [q for q in pts if q != p]
        covered = any(
            inside_triangle(p, a, b, c)
            for i, a in enumerate(rest)
            for j, b in enumerate(rest[i + 1 :], i + 1)
            for c in rest[j + 1 :]
        ) or any(
            on_segment(p, a, b) for i, a in enumerate(rest) for b in rest[i + 1 :]
        )
        if not covered:
            out.append(p)
    return out


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def test_hull_examples():
    poly = convex_hull([(0, 0), (1, 0), (2, 0), (1, 1)])
    assert poly.vertices == ((0, 0), (2, 0), (1, 1))
    h7 = convex_hull(enumerate_points(HyperbolaSpec(7, 1)))
    assert h7.vertex_count == 6
    seg = convex_hull([(1, 1), (2, 2)])
    assert seg.vertices == ((1, 1), (2, 2))
    assert seg.is_segment and seg.degenerate
    pt = convex_hull([(3, 4), (3, 4)])
    assert pt.is_point


def test_hull_canonical_form():
    poly = convex_hull([(2, 0), (0, 0), (1, 1), (2, 2), (0, 2)])
    assert poly.vertices[0] == min(poly.vertices)
    # counterclockwise: shoelace positive
    assert twice_area(poly) > 0


def test_polygon_validation():
    with pytest.raises(ValueError):
        ConvexPolygon(((0, 0), (1, 0), (2, 0)))  # collinear
    with pytest.raises(ValueError):
        ConvexPolygon(((0, 0), (1, 1), (1, 0)))  # clockwise
    with pytest.raises(ValueError):
        ConvexPolygon(((1, 0), (0, 0), (1, 1)))  # wrong start
    with pytest.raises(ValueError):
        ConvexPolygon(())


@settings(max_examples=150)
@given(points_strategy)
def test_hull_idempotent_and_contains(pts):
    poly = convex_hull(pts)
    again = convex_hull(poly.vertices)
    assert again == poly
    assert all(contains_point(poly, p) for p in pts)


@settings(max_examples=80)
@given(points_strategy, st.randoms())
def test_hull_permutation_invariant(pts, rnd):
    shuffled = list(pts)
    rnd.shuffle(shuffled)
    assert convex_hull(shuffled) == convex_hull(pts)


@settings(max_examples=60)
@given(st.lists(st.tuples(st.integers(-12, 12), st.integers(-12, 12)), min_size=1, max_size=10))
def test_hull_extreme_points_only(pts):
    assert sorted(convex_hull(pts).vertices) == brute_force_extreme_points(pts)


def reference_hull(pts):
    """Andrew's monotone chain over every point, with no prefilter: the
    reference that convex_hull, with its staircase prefilter, must match."""
    pts = sorted(set(pts))
    if len(pts) == 1:
        return (pts[0],)

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and _cross(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    lower, upper = chain(pts), chain(reversed(pts))
    if len(lower) == 2 and len(upper) == 2:
        return (pts[0], pts[-1])
    return tuple(lower[:-1] + upper[:-1])


coord = st.integers(-6, 6)
hull_inputs = st.one_of(
    points_strategy,
    st.lists(st.tuples(coord, coord), min_size=1, max_size=40),  # many duplicates
    st.builds(lambda x, ys: [(x, y) for y in ys], coord, st.lists(coord, min_size=1, max_size=12)),
    st.builds(lambda y, xs: [(x, y) for x in xs], coord, st.lists(coord, min_size=1, max_size=12)),
    st.builds(  # collinear runs along a line, plus a few stray points
        lambda d, ts, extra: [(3 + d[0] * t, -2 + d[1] * t) for t in ts] + extra,
        st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
        st.lists(st.integers(-5, 5), min_size=1, max_size=12),
        st.lists(st.tuples(coord, coord), max_size=3),
    ),
)


@settings(max_examples=400)
@given(hull_inputs)
def test_hull_matches_reference_chain(pts):
    assert convex_hull(pts).vertices == reference_hull(pts)


def test_hull_matches_reference_chain_on_grid_subsets():
    grid = [(x, y) for x in range(3) for y in range(4)]
    for mask in range(1, 1 << len(grid)):
        pts = [p for i, p in enumerate(grid) if mask >> i & 1]
        assert convex_hull(pts).vertices == reference_hull(pts)


def test_hull_matches_reference_chain_on_every_unit_below_200():
    for m in range(2, 200):
        for a in range(1, m):
            if math.gcd(a, m) == 1:
                pts = enumerate_points(HyperbolaSpec(m, a))
                assert convex_hull(pts).vertices == reference_hull(pts), (m, a)


def test_twice_area_examples():
    assert twice_area(convex_hull([(0, 0), (2, 0), (2, 2), (0, 2)])) == 8
    assert twice_area(convex_hull([(0, 0), (1, 0), (0, 1)])) == 1
    assert twice_area(convex_hull([(1, 1), (5, 5)])) == 0
    assert twice_area(convex_hull([(3, 3)])) == 0


unimodular_gens = [
    UnimodularMap(1, 1, 0, 1),
    UnimodularMap(1, 0, 1, 1),
    UnimodularMap(0, 1, 1, 0),
    UnimodularMap(1, 0, 0, -1),
    UnimodularMap(1, 0, 0, 1, tx=3, ty=-2),
]


@settings(max_examples=80)
@given(points_strategy, st.lists(st.sampled_from(unimodular_gens), min_size=1, max_size=6))
def test_unimodular_invariance(pts, gens):
    umap = gens[0]
    for g in gens[1:]:
        umap = g.compose(umap)
    poly = convex_hull(pts)
    mapped = transform_polygon(poly, umap)
    assert mapped.vertex_count == poly.vertex_count
    assert twice_area(mapped) == twice_area(poly)
    # hull commutes with the map
    assert convex_hull(umap.apply(p) for p in pts) == mapped
    # round trip through the inverse
    inv = umap.inverse()
    assert transform_polygon(mapped, inv) == poly
    for p in pts:
        assert inv.apply(umap.apply(p)) == p


def test_hyperbola_hull_symmetry_closure():
    for m, a in [(7, 1), (11, 3), (30, 7), (97, 1), (100, 9)]:
        spec = HyperbolaSpec(m, a)
        verts = set(convex_hull(enumerate_points(spec)).vertices)
        assert {apply_symmetry(SWAP, p, m) for p in verts} == verts
        assert {apply_symmetry(NEGATE, p, m) for p in verts} == verts


def test_normalize_examples():
    tri = convex_hull([(0, 0), (1, 0), (0, 1)])
    umap, u, v = normalize_to_box(tri)
    assert (u, v) == (1, 1)
    skew = convex_hull([(0, 0), (21, 13), (34, 21)])
    assert twice_area(skew) == 1
    umap, u, v = normalize_to_box(skew)
    assert (u, v) == (1, 1)
    mapped = [umap.apply(p) for p in skew.vertices]
    assert all(0 <= x <= u and 0 <= y <= v for x, y in mapped)
    rect = convex_hull([(5, 5), (9, 5), (9, 7), (5, 7)])
    umap, u, v = normalize_to_box(rect)
    assert u * v * 2 == twice_area(rect)  # uv equals the area exactly


def test_normalize_contract_and_ratio():
    cases = [
        convex_hull(enumerate_points(HyperbolaSpec(m, a)))
        for m, a in [(7, 1), (11, 1), (23, 5), (97, 1), (101, 17), (360, 7)]
    ]
    cases.append(convex_hull([(0, 0), (1000, 1), (1000, 0)]))
    cases.append(convex_hull([(0, 0), (500, 999), (501, 1001)]))
    for poly in cases:
        umap, u, v = normalize_to_box(poly)
        mapped = [umap.apply(p) for p in poly.vertices]
        assert all(0 <= x <= u and 0 <= y <= v for x, y in mapped)
        assert umap.det in (1, -1)
        assert twice_area(transform_polygon(poly, umap)) == twice_area(poly)
        assert u * v <= 4 * twice_area(poly)  # 8 * area ceiling


def test_unimodular_map_validation():
    with pytest.raises(ValueError):
        UnimodularMap(2, 0, 0, 1)  # det 2
    with pytest.raises(ValueError):
        UnimodularMap(1, 1, 1, 1)  # det 0
    assert UnimodularMap(1, 0, 0, -1).det == -1
    ident = UnimodularMap.identity()
    assert ident.apply((3, -4)) == (3, -4)


def test_normalize_rejects_degenerate():
    with pytest.raises(DegenerateInput):
        normalize_to_box(convex_hull([(0, 0), (4, 4)]))
    with pytest.raises(DegenerateInput):
        normalize_to_box(convex_hull([(2, 2)]))


def test_consecutive_block_examples():
    sq = convex_hull([(0, 0), (3, 0), (3, 3), (0, 3)])
    assert consecutive_block_min_area(sq, 3) == 9
    assert consecutive_block_min_area(sq, 4) == twice_area(sq)
    h7 = convex_hull(enumerate_points(HyperbolaSpec(7, 1)))
    # windows of 3 consecutive hull vertices, minimum by direct scan
    verts = h7.vertices
    r = len(verts)
    brute = min(
        twice_area(convex_hull([verts[i], verts[(i + 1) % r], verts[(i + 2) % r]]))
        for i in range(r)
    )
    assert consecutive_block_min_area(h7, 3) == brute
    assert consecutive_block_min_area(h7, r) == twice_area(h7)
    with pytest.raises(TooFewVertices):
        consecutive_block_min_area(h7, r + 1)
    with pytest.raises(ValueError):
        consecutive_block_min_area(h7, 2)


def test_consecutive_block_against_window_hulls():
    poly = convex_hull(enumerate_points(HyperbolaSpec(101, 1)))
    r = poly.vertex_count
    for k in (3, 4, 5, r - 1, r):
        verts = poly.vertices + poly.vertices[: k - 1]
        brute = min(
            twice_area(convex_hull(verts[i : i + k])) for i in range(r)
        )
        assert consecutive_block_min_area(poly, k) == brute
