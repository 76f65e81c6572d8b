import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from modhull.geometry import (
    ConvexPolygon,
    DegenerateInput,
    TooFewVertices,
    UnimodularMap,
    _best_shear,
    consecutive_block_min_area,
    contains_point,
    convex_hull,
    normalize_to_box,
    transform_polygon,
    twice_area,
)
from modhull.hyperbola import HyperbolaSpec, enumerate_points
from modhull.ntheory import ext_gcd

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
    # only the right-to-left scan keeps (2, 1), and it keeps the last copy
    assert convex_hull([(2, 1), (0, 2), (2, 1), (0, 0)]).vertices == ((0, 0), (2, 1), (0, 2))


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
    with pytest.raises(ValueError, match="strictly convex"):
        # a pentagram: every turn is a left turn, but its edges cross
        # (twice_area 39 against 63 for the hull of the same points)
        ConvexPolygon(((-1, 4), (4, -1), (3, 6), (0, 0), (6, 3)))
    poly = ConvexPolygon([(0, 0), (1, 0), (0, 1)])  # any sequence of points
    assert type(poly.vertices) is tuple and poly.vertices == ((0, 0), (1, 0), (0, 1))
    assert hash(poly) == hash(ConvexPolygon(poly.vertices))
    lists = ConvexPolygon([[0, 0], [1, 0], [0, 1]])  # as json.loads gives hull --json vertices
    assert lists == poly == convex_hull(poly.vertices) and hash(lists) == hash(poly)


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
    reference that convex_hull, which chains only the lower and upper
    staircases (with mirror=m, the lower one and its half-turn image),
    must match."""
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
    poly = convex_hull(pts)
    assert poly.vertices == reference_hull(pts)
    assert ConvexPolygon(poly.vertices) == poly


def _turned_hull(pts, k, flip):
    """reference_hull(pts) rotated to start at its vertex k (mod its
    length), then reversed if flip: with 3 or more vertices, a hull's own
    vertex list only when both leave it as it was."""
    hull = reference_hull(pts)
    k %= len(hull)
    hull = hull[k:] + hull[:k]
    return hull[::-1] if flip else hull


@settings(max_examples=300)
@given(
    st.one_of(
        st.lists(st.tuples(coord, coord), min_size=1, max_size=5),
        hull_inputs,
        st.builds(_turned_hull, hull_inputs, st.integers(0, 40), st.booleans()),
    )
)
def test_polygon_is_valid_exactly_when_it_is_its_own_hull(v):
    if tuple(v) == reference_hull(v):
        assert ConvexPolygon(v).vertices == tuple(v)
    else:
        with pytest.raises(ValueError, match="strictly convex"):
            ConvexPolygon(v)


def test_hull_matches_reference_chain_on_grid_subsets():
    grid = [(x, y) for x in range(3) for y in range(4)]
    for mask in range(1, 1 << len(grid)):
        pts = [p for i, p in enumerate(grid) if mask >> i & 1]
        assert convex_hull(pts).vertices == reference_hull(pts)


def test_hull_matches_reference_chain_on_every_unit_below_200():
    # the symmetric path too: H_a(m) is sorted, has one point per x and is
    # closed under (x, y) -> (m - x, m - y)
    for m in range(2, 200):
        for a in range(1, m):
            if math.gcd(a, m) == 1:
                pts = enumerate_points(HyperbolaSpec(m, a))
                hull = convex_hull(pts)
                assert hull.vertices == reference_hull(pts), (m, a)
                assert convex_hull(pts, mirror=m) == hull, (m, a)


def _mirror_half(m, half, centre):
    """(m, points): the points (x, y) of half with x = (m - 1)//2 - k for
    each key k, so x < m/2, each with its mirror (m - x, m - y), plus the
    centre (m/2, m/2) when asked and m is even; sorted, one point per x."""
    pts = {p for k, y in half.items() for p in (((m - 1) // 2 - k, y), (m - (m - 1) // 2 + k, m - y))}
    if centre and m % 2 == 0:
        pts.add((m // 2, m // 2))
    return m, sorted(pts)


def _mirror_line(x0, dx, dy, k, ts):
    """(m, points): the points (x0 + t*dx, y0 + t*dy) for t in ts, read
    mod k + 1, and for k - t, which is the mirror of t when m = 2*x0 + k*dx
    = 2*y0 + k*dy; dy is moved by one where that leaves y0 no integer."""
    dy += k * (dx - dy) % 2
    m = 2 * x0 + k * dx
    y0 = (m - k * dy) // 2
    pts = {(x0 + s * dx, y0 + s * dy) for t in ts for s in (t % (k + 1), k - t % (k + 1))}
    return m, sorted(pts)


mirrored_sets = st.one_of(
    st.builds(
        _mirror_half,
        st.integers(0, 40),
        st.dictionaries(st.integers(0, 15), st.integers(-20, 60), max_size=12),
        st.booleans(),
    ).filter(lambda case: case[1]),
    st.builds(  # collinear, down to one point (k = 0) or one mirror pair
        _mirror_line,
        st.integers(-5, 5),
        st.integers(1, 3),
        st.integers(-3, 3),
        st.integers(0, 8),
        st.lists(st.integers(0, 8), min_size=1, max_size=9),
    ),
)


def _with_repeats(case, picks):
    """(m, points): case with the points at the indices picks (read mod its
    length) repeated, each repeat together with its mirror, so the sorted
    multiset is still closed under (x, y) -> (m - x, m - y)."""
    m, pts = case
    extra = [pts[i % len(pts)] for i in picks]
    return m, sorted(pts + extra + [(m - x, m - y) for x, y in extra])


mirrored_inputs = st.one_of(
    mirrored_sets,
    st.builds(_with_repeats, mirrored_sets, st.lists(st.integers(0, 30), min_size=1, max_size=6)),
)


@settings(max_examples=400)
@given(mirrored_inputs)
@example((2, [(1, 1)]))
@example((4, [(1, 3), (3, 1)]))
@example((6, [(1, 1), (3, 3), (5, 5)]))
@example((4, [(0, 0), (1, 4), (3, 0), (4, 4)]))
@example((4, [(0, 0), (0, 3), (2, 2), (2, 2), (4, 1), (4, 4)]))  # repeated x and a repeat
def test_symmetric_hull_matches_reference_chain(case):
    m, pts = case
    hull = convex_hull(pts, mirror=m)
    assert hull == convex_hull(pts)
    assert hull.vertices == reference_hull(pts)
    assert ConvexPolygon(hull.vertices) == hull


def test_symmetric_hull_refuses_unmirrored_ends():
    # only the first and last points are checked, in O(1)
    with pytest.raises(ValueError, match="not mirrors"):
        convex_hull([(1, 1), (2, 5), (3, 2)], mirror=4)
    with pytest.raises(ValueError, match="not mirrors"):
        convex_hull(enumerate_points(HyperbolaSpec(7, 3)), mirror=8)
    with pytest.raises(ValueError, match="not mirrors"):
        convex_hull([(1, 1), (3, 3)], mirror=3)
    with pytest.raises(ValueError, match="at least one point"):
        convex_hull([], mirror=4)


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
        assert {(y, x) for x, y in verts} == verts
        assert {(m - x, m - y) for x, y in verts} == verts


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


def _shear_width(fixed, moving, q):
    vals = [m + q * f for f, m in zip(fixed, moving)]
    return max(vals) - min(vals)


def reference_best_shear(fixed, moving):
    """The shear search with its first bracket, [-(2*span(moving) + 1),
    2*span(moving) + 1]: the reference that geometry._best_shear, with the
    bracket divided by span(fixed), must match."""
    if max(fixed) == min(fixed):
        return 0
    width = lambda q: _shear_width(fixed, moving, q)
    bound = 2 * (max(moving) - min(moving)) + 1
    lo, hi = -bound, bound
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if width(mid) < width(mid + 1):
            hi = mid
        else:
            lo = mid
    return lo if width(lo) <= width(hi) else hi


def test_best_shear_matches_the_wide_bracket():
    # moving is about -q0 * fixed plus noise, so the minimiser sits near q0,
    # up to 2 * span(moving) / span(fixed) away from 0; span(fixed) = 1 and
    # flat minima (several q of equal width) are frequent
    rng = random.Random(8)
    seen_flat = seen_unit_span = 0
    for _ in range(3000):
        n = rng.randint(2, 8)
        sf = rng.choice((1, 1, 2, 3, 5, 17))
        fixed = [rng.randint(0, sf) for _ in range(n)]
        fixed[rng.randrange(n)] = 0
        fixed[rng.randrange(n)] = sf
        q0 = rng.randint(-30, 30)
        noise = rng.choice((0, 1, 3, 50))
        moving = [-q0 * f + rng.randint(-noise, noise) for f in fixed]
        q = reference_best_shear(fixed, moving)
        assert _best_shear(fixed, moving) == q, (fixed, moving)
        width = [_shear_width(fixed, moving, q + d) for d in (-1, 0, 1)]
        seen_flat += width[1] in (width[0], width[2])
        seen_unit_span += max(fixed) - min(fixed) == 1
    assert seen_flat > 300 and seen_unit_span > 300
    assert _best_shear([4, 4, 4], [0, 9, 2]) == 0  # span(fixed) = 0


# normalize_to_box and _best_shear as they stood with each shear's span
# spelled at its three sites: the contract a faster diameter or shear
# search must keep, map, u and v alike
def kept_best_shear(fixed, moving):
    if max(fixed) - min(fixed) == 0:
        return 0

    def width(q):
        vals = [m + q * f for f, m in zip(fixed, moving)]
        return max(vals) - min(vals)

    bound = 2 * (max(moving) - min(moving)) // (max(fixed) - min(fixed)) + 1
    lo, hi = -bound, bound
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if width(mid) < width(mid + 1):
            hi = mid
        else:
            lo = mid
    return lo if width(lo) <= width(hi) else hi


def kept_normalize_to_box(poly):
    span = lambda vals: max(vals) - min(vals)
    pts = list(poly.vertices)
    best = None
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            dx = pts[j][0] - pts[i][0]
            dy = pts[j][1] - pts[i][1]
            d2 = dx * dx + dy * dy
            if best is None or d2 > best[0]:
                best = (d2, dx, dy)
    _, dx, dy = best
    g = math.gcd(dx, dy)
    ex, ey = dx // g, dy // g
    _, aa, bb = ext_gcd(ex, ey)
    total = UnimodularMap(aa, bb, -ey, ex)
    pts = [total.apply(p) for p in poly.vertices]
    while True:
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        area_now = span(xs) * span(ys)
        qy = kept_best_shear(xs, ys)
        qx = kept_best_shear(ys, xs)
        gain_y = area_now - span(xs) * span([y + qy * x for x, y in pts])
        gain_x = area_now - span([x + qx * y for x, y in pts]) * span(ys)
        if gain_y <= 0 and gain_x <= 0:
            break
        if gain_y >= gain_x:
            step = UnimodularMap(1, 0, qy, 1)
        else:
            step = UnimodularMap(1, qx, 0, 1)
        total = step.compose(total)
        pts = [step.apply(p) for p in pts]
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    shift = UnimodularMap(1, 0, 0, 1, tx=-min(xs), ty=-min(ys))
    total = shift.compose(total)
    return total, span(xs), span(ys)


def _seeded_convex_polygons(count, seed):
    """count hulls of positive area: random points at three scales, each
    set sheared and swapped by a random unimodular map, so that the
    normalization takes several steps."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        r = rng.choice((3, 40, 10**4))
        pts = [(rng.randint(-r, r), rng.randint(-r, r)) for _ in range(rng.randint(3, 24))]
        umap = UnimodularMap.identity()
        for _ in range(rng.randint(0, 4)):
            q = rng.randint(-9, 9)
            step = rng.choice((UnimodularMap(1, q, 0, 1), UnimodularMap(1, 0, q, 1), UnimodularMap(0, 1, 1, 0)))
            umap = step.compose(umap)
        poly = convex_hull(umap.apply(p) for p in pts)
        if not poly.degenerate:
            out.append(poly)
    return out


def test_normalize_matches_the_kept_copy():
    # the seeded polygons, then the hull of every unit a for m in [10, 60],
    # of which those on one line (such as a = m - 1 when every point has
    # x + y = m) have no box to normalize
    polys = _seeded_convex_polygons(1000, 0x11)
    units = [(m, a) for m in range(10, 61) for a in range(1, m) if math.gcd(a, m) == 1]
    polys += [convex_hull(enumerate_points(HyperbolaSpec(m, a))) for m, a in units]
    for poly in filter(lambda poly: not poly.degenerate, polys):
        assert normalize_to_box(poly) == kept_normalize_to_box(poly), poly.vertices


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
