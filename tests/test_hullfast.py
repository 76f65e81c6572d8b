import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from modhull import experiments, hullfast, hyperbola
from modhull.experiments import compute_record
from modhull.geometry import ConvexPolygon, UnimodularMap, contains_point, convex_hull, transform_polygon
from modhull.hullfast import (
    ENUMERATE_BELOW,
    _certified_hull,
    _certifies,
    _corner_points,
    fast_hull,
    hull_method,
    verify_against_naive,
)
from modhull.hyperbola import HyperbolaSpec, Point, enumerate_points
from test_geometry import reference_hull


def corner_product(p, m):
    """f(x, y) = min(x, m-x) * min(y, m-y), the quantity the certificate bounds."""
    return min(p[0], m - p[0]) * min(p[1], m - p[1])


def small_f(spec: HyperbolaSpec, c: int) -> set[Point]:
    """Independent route to the corner points: filter the full point list."""
    return {p for p in enumerate_points(spec) if corner_product(p, spec.m) <= c}


def hulled_points(spec: HyperbolaSpec) -> tuple[Point, ...]:
    """The points a hull of H_a(m) is taken from, sorted: every point below
    ENUMERATE_BELOW, else the candidates the certified search accepted."""
    if spec.m < ENUMERATE_BELOW:
        return enumerate_points(spec)
    return _certified_hull(spec)[1]


def lower_left(spec: HyperbolaSpec, c: int) -> set[Point]:
    """The points with x*y <= max(1, c): a lower-left set, which need not
    contain the centre."""
    return {p for p in enumerate_points(spec) if p[0] * p[1] <= max(1, c)}


def test_lower_left_examples():
    # m = 7, a = 1: the product 1 gives (1, 1) and its mirror (6, 6); the
    # product 6 = (m - a) + 0*m gives every point, (1, 1) again among them.
    # The lower-left part x*y <= c of the walk is the old one-corner list.
    every = set(enumerate_points(HyperbolaSpec(7, 1)))
    assert set(_corner_points(7, 1, 0, 5)) == {(1, 1), (6, 6)}
    assert set(_corner_points(7, 1, 5, 7)) == every
    assert set(_corner_points(7, 1, 0, 7)) == every
    assert set(_corner_points(7, 1, 5, 5)) == set()  # an empty window
    for c, below in ((7, {(1, 1)}), (15, {(1, 1), (2, 4), (3, 5), (4, 2), (5, 3)})):
        assert {p for p in _corner_points(7, 1, 0, c) if p[0] * p[1] <= c} == below


def test_lower_left_divisor_walk_vs_filter():
    # cutoffs below (m-1)^2 keep only some points; the walk must find
    # exactly those, and at (m-1)^2 every point; its lower-left part is the
    # points with x*y <= c
    for m in [11, 12, 30, 97, 100, 211, 360, 719, 1009, 2048]:
        for a in {1, m - 1, 7 % m if math.gcd(7, m) == 1 else 1}:
            spec = HyperbolaSpec(m, a)
            for cutoff in (a, 2 * m, 7 * m + 3, m * m // 2, (m - 1) ** 2 - 1, (m - 1) ** 2):
                walk = set(_corner_points(m, a, 0, cutoff))
                assert walk == small_f(spec, cutoff), (m, a, cutoff)
                assert {p for p in walk if p[0] * p[1] <= cutoff} == lower_left(spec, cutoff)


def test_lower_left_shortcut_boundary():
    # at cutoff = (m-1)^2 every point has f <= cutoff, so the walk gives
    # the full enumeration; one below, exactly the filtered points
    for m, a in [(13, 1), (20, 3), (59, 58)]:
        spec = HyperbolaSpec(m, a)
        assert set(_corner_points(m, a, 0, (m - 1) ** 2)) == set(enumerate_points(spec))
        c = (m - 1) ** 2 - 1
        assert set(_corner_points(m, a, 0, c)) == small_f(spec, c), (m, a)


def test_lower_left_empty_below_minimal_product():
    # (7, 3): the least products are a = 3 and m - a = 4, both above 2
    assert set(_corner_points(7, 3, 0, 2)) == set()


def test_corner_walk_windows_add_up():
    # the rounds of the search walk (0, c1] and then (c1, c2]: together they
    # give the walk over (0, c2], and a point new in the second has f > c1
    for m, a in [(11, 2), (30, 7), (97, 1), (128, 45), (1009, 500)]:
        for c1, c2 in ((m, 2 * m), (a, 3 * m + 1), (m // 2, m * m // 2), (0, m)):
            first, second = set(_corner_points(m, a, 0, c1)), set(_corner_points(m, a, c1, c2))
            assert first | second == set(_corner_points(m, a, 0, c2)), (m, a, c1, c2)
            assert all(corner_product(p, m) > c1 for p in second - first), (m, a, c1, c2)


def lattice_max_outside(poly, m):
    """Largest f over the lattice points of [1, m-1]^2 outside poly, found
    column by column: the polygon meets a column in one interval, so the
    scans from both ends stop at its first lattice point inside."""
    best = 0
    for x in range(1, m):
        ys = range(1, m)
        for scan in (ys, reversed(ys)):
            for y in scan:
                if contains_point(poly, (x, y)):
                    break
                best = max(best, corner_product((x, y), m))
            else:
                break  # no lattice point of the column is inside
    return best


# The edge-scan certificate the package used before the convex one, kept
# as an independent reference: it maximises f along every edge of P.


def reference_edge_within(p: Point, q: Point, m: int, c: int) -> bool:
    """True when f <= c on the whole segment pq, decided exactly.

    The midlines x = m/2 and y = m/2 cut the segment p + t*(q - p) into
    pieces on each of which f = (u0 + du*t) * (w0 + dw*t), a quadratic in
    t whose maximum lies at an end of the piece or at the parabola's vertex.
    Only the cut points are fractions; a segment inside one quadrant is
    checked in integers.
    """
    (x0, y0), (x1, y1) = p, q
    dx, dy = x1 - x0, y1 - y0
    cuts = {0, 1}
    for s0, ds in ((x0, dx), (y0, dy)):
        if ds and 0 < (t := Fraction(m - 2 * s0, 2 * ds)) < 1:
            cuts.add(t)
    ts = sorted(cuts)
    for t0, t1 in zip(ts, ts[1:]):
        # on one piece each factor of f is s or m - s throughout
        u0, du = (x0, dx) if 2 * x0 + dx * (t0 + t1) <= m else (m - x0, -dx)
        w0, dw = (y0, dy) if 2 * y0 + dy * (t0 + t1) <= m else (m - y0, -dy)
        if any((u0 + du * t) * (w0 + dw * t) > c for t in (t0, t1)):
            return False
        # f = A t^2 + B t + u0*w0; when A < 0 its vertex t = -B/(2A) peaks
        # at u0*w0 + B^2/(4|A|)
        A, B = du * dw, u0 * dw + w0 * du
        if A < 0 and -2 * A * t0 < B < -2 * A * t1 and B * B > 4 * A * (u0 * w0 - c):
            return False
    return True


def reference_certifies(poly: ConvexPolygon, m: int, c: int) -> bool:
    """The certificate: the centre lies in poly and f <= c on its boundary,
    so every lattice point of [1, m-1]^2 outside poly has f <= c."""
    v = poly.vertices
    doubled = ConvexPolygon(tuple((2 * x, 2 * y) for x, y in v))
    if not contains_point(doubled, (m, m)):
        return False
    return all(reference_edge_within(p, q, m, c) for p, q in zip(v, v[1:] + v[:1]))


def test_candidates_are_genuine_points():
    for m, a in [(7, 1), (101, 13), (1009, 1), (1024, 255)]:
        spec = HyperbolaSpec(m, a)
        pts = set(enumerate_points(spec))
        cands = hulled_points(spec)
        assert set(cands) <= pts


def test_fast_hull_examples():
    for m, a in [(7, 1), (101, 1), (1009, 1), (4096, 2047)]:
        spec = HyperbolaSpec(m, a)
        assert fast_hull(spec) == convex_hull(enumerate_points(spec))


def _mirror_pairs():
    """Every unit a of m < 200, then 200 seeded pairs with m log-uniform in
    [ENUMERATE_BELOW, 2^31]."""
    for m in range(2, 200):
        yield from ((m, a) for a in range(1, m) if math.gcd(a, m) == 1)
    yield from _seeded_pairs(14)


def _seeded_pairs(seed):
    """200 pairs with m log-uniform in [ENUMERATE_BELOW, 2^31] and a a
    seeded unit of m."""
    rng = random.Random(seed)
    for _ in range(200):
        m = int(math.exp(rng.uniform(math.log(ENUMERATE_BELOW), math.log(2**31))))
        a = rng.randrange(1, m)
        while math.gcd(a, m) != 1:
            a = rng.randrange(1, m)
        yield m, a


def test_mirror_residues_share_hull_and_candidate_count():
    # (x, y) -> (x, m - y) carries H_a(m) onto H_{m-a}(m): the sweep reads
    # the record of (m, m - a) off its partner's, candidate_count included
    for m, a in _mirror_pairs():
        spec, mirror = HyperbolaSpec(m, a), HyperbolaSpec(m, m - a)
        flip = UnimodularMap(1, 0, 0, -1, 0, m)
        assert transform_polygon(fast_hull(spec), flip) == fast_hull(mirror), (m, a)
        assert len(hulled_points(spec)) == len(hulled_points(mirror)), (m, a)


def test_symmetric_hull_of_candidates_matches_the_general_chain():
    # either point set is sorted, has one point per x and is closed under
    # (x, y) -> (m - x, m - y) on both sides of ENUMERATE_BELOW, so the
    # symmetric path hulls it as the general and the reference chain do
    pairs = [(m, 1) for m in range(ENUMERATE_BELOW - 10, ENUMERATE_BELOW + 11)]
    for m, a in pairs + list(_seeded_pairs(15)):
        cands = hulled_points(HyperbolaSpec(m, a))
        hull = convex_hull(cands, mirror=m)
        assert hull == convex_hull(cands), (m, a)
        assert hull.vertices == reference_hull(cands), (m, a)


def test_fast_hull_hulls_enumerations_by_symmetry(monkeypatch):
    # below ENUMERATE_BELOW fast_hull takes the symmetric path, as the
    # sweep does, and so does every round of the certified search
    calls = []
    real = hullfast.convex_hull
    monkeypatch.setattr(hullfast, "convex_hull", lambda pts, **kw: calls.append(kw) or real(pts, **kw))
    most = 0
    for m, a in [(2, 1), (7, 3), (ENUMERATE_BELOW - 1, 2), (ENUMERATE_BELOW + 1, 2)] + SEARCH_CASES:
        calls.clear()
        spec = HyperbolaSpec(m, a)
        assert fast_hull(spec) == convex_hull(enumerate_points(spec)), (m, a)
        assert calls and all(kw == {"mirror": m} for kw in calls), (m, a, calls)
        most = max(most, len(calls))
    assert most >= 4  # (99991, 12345) hulls in four rounds


def test_fast_hull_methods_dispatch():
    # below ENUMERATE_BELOW a record hulls every point; from there on, the
    # certified candidates, a strict subset
    small = HyperbolaSpec(ENUMERATE_BELOW - 1, 1)
    assert hull_method(small.m) == "naive"
    assert experiments._hull(*small)[1] == len(enumerate_points(small))
    big = HyperbolaSpec(ENUMERATE_BELOW + 1, 1)
    assert hull_method(big.m) == "fast"
    cands = _certified_hull(big)[1]
    assert set(cands) < set(enumerate_points(big))
    assert experiments._hull(*big)[1] == len(cands)
    for spec in (small, big):
        assert fast_hull(spec) == convex_hull(enumerate_points(spec))


def test_certificate_soundness_lattice_oracle():
    # whenever the certificate accepts (P, c), no lattice point outside P
    # has f > c.  P is the hull of the four-corner candidates or of the
    # lower-left ones alone (which need not contain the centre); cutoffs
    # below the accepted one exercise rejections.
    accepted = rejected = 0
    for m in range(3, 34):
        for a in (a for a in range(1, m) if math.gcd(a, m) == 1):
            spec = HyperbolaSpec(m, a)
            for k in (1, 2, 3, 4, 6, 8, 16):
                c = m * k // 2
                if c >= (m - 1) ** 2:
                    break
                for pts in (set(_corner_points(m, a, 0, c)), lower_left(spec, c)):
                    if not pts:
                        continue  # c below the smallest product a
                    poly = convex_hull(pts)
                    if _certifies(poly, m, c):
                        accepted += 1
                        assert lattice_max_outside(poly, m) <= c, (m, a, c, poly)
                    else:
                        rejected += 1
    assert accepted > 1000 and rejected > 1000


def test_certificate_matches_reference():
    # the convex certificate (P contains {f > c}) decides as the edge scan
    # does wherever {f > c} is non-empty, and accepts where it is empty
    accepted = rejected = 0
    for m in range(3, 34):
        for a in (a for a in range(1, m) if math.gcd(a, m) == 1):
            spec = HyperbolaSpec(m, a)
            for k in (1, 2, 3, 4, 6, 8, 16):
                for c in (m * k // 2 - 1, m * k // 2, m * k // 2 + 1):
                    for pts in (set(_corner_points(m, a, 0, c)), lower_left(spec, c)):
                        if not pts:
                            continue
                        poly = convex_hull(pts)
                        if 4 * c >= m * m:
                            assert _certifies(poly, m, c), (m, a, c, poly)
                        elif _certifies(poly, m, c):
                            accepted += 1
                            assert reference_certifies(poly, m, c), (m, a, c, poly)
                        else:
                            rejected += 1
                            assert not reference_certifies(poly, m, c), (m, a, c, poly)
    assert accepted > 3000 and rejected > 7000


def test_certificate_matches_reference_on_random_polygons():
    # seeded hulls of 1 to 8 points of [1, m-1]^2, points and segments
    # among them; the reference demands the centre inside P, so it models
    # a non-empty K only, and where K is empty every polygon is accepted
    rng = random.Random(31)
    accepted = tested = small = 0
    while tested < 20000:
        m = rng.randrange(3, 60)
        poly = convex_hull([(rng.randrange(1, m), rng.randrange(1, m)) for _ in range(rng.randrange(1, 9))])
        c = rng.randrange(-5, m * m // 4 + 2)
        if 4 * c >= m * m:
            assert _certifies(poly, m, c), (m, c, poly)
            continue
        decision = _certifies(poly, m, c)
        assert decision == reference_certifies(poly, m, c), (m, c, poly)
        tested += 1
        accepted += decision
        small += len(poly.vertices) < 3
    assert accepted > 2000 and small > 4000


def test_certificate_needs_every_corner():
    # m = 10, c = 10: {f > 10} has corners (5, 2), (2, 5), (5, 8), (8, 5).
    # Each rectangle below holds the centre and three corners but not the
    # fourth, where an axis-parallel edge (no tangency test) crosses an arc
    # (f = 15 at (7, 5)); the square [1, 9]^2 holds all four.
    def box(x0, x1, y0, y1):
        return convex_hull([(x0, y0), (x1, y0), (x0, y1), (x1, y1)])

    for poly in (box(1, 7, 1, 9), box(3, 9, 1, 9), box(1, 9, 1, 7), box(1, 9, 3, 9)):
        assert not _certifies(poly, 10, 10) and not reference_certifies(poly, 10, 10)
    assert _certifies(box(1, 9, 1, 9), 10, 10) and reference_certifies(box(1, 9, 1, 9), 10, 10)


def test_certificate_accepts_corners_on_the_boundary():
    # m = 10, c = 10: {f > 10} is open, so [2, 8]^2 holds it although its
    # four edges pass through the corners (5, 2), (2, 5), (5, 8), (8, 5);
    # at c = 9 the corner (5, 1.8) lies outside
    square = convex_hull([(2, 2), (8, 2), (2, 8), (8, 8)])
    assert _certifies(square, 10, 10) and reference_certifies(square, 10, 10)
    assert not _certifies(square, 10, 9) and not reference_certifies(square, 10, 9)


def test_edge_maximum_examples():
    # the certificate bounds f on the real segment, not only at its lattice
    # points: along x + y = 5 (m = 10) f = x*(5-x) peaks at 25/4 between
    # (2, 3) and (3, 2); across the midline x = 5, f = 5*min(x, 10-x) peaks
    # at the crossing
    assert not reference_edge_within((1, 4), (4, 1), 10, 6)
    assert reference_edge_within((1, 4), (4, 1), 10, 7)
    assert not reference_edge_within((1, 5), (9, 5), 10, 24)
    assert reference_edge_within((1, 5), (9, 5), 10, 25)
    assert reference_edge_within((3, 7), (3, 7), 10, 9) and not reference_edge_within((3, 7), (3, 7), 10, 8)


def test_corner_points_are_exactly_small_f():
    for m, a in [(11, 2), (30, 7), (97, 1), (128, 45)]:
        for c in (m // 2, m, 3 * m):
            assert set(_corner_points(m, a, 0, c)) == small_f(HyperbolaSpec(m, a), c), (m, a, c)


def test_real_pruning_keeps_hull_small_sweep():
    # the certified search prunes at every modulus here and never loses a vertex
    for m in range(200, 320):
        rep = verify_against_naive(HyperbolaSpec(m, 1))
        assert rep.equal, (m, rep.missing, rep.extra)
        assert rep.candidate_count < rep.point_count


def test_real_pruning_at_medium_scale():
    # at m ~ 5*10^4 the certificate accepts a few dozen corner points
    rep = verify_against_naive(HyperbolaSpec(50021, 1))
    assert rep.equal, (rep.missing, rep.extra)
    assert rep.point_count == 50020
    assert rep.candidate_count < 200


@pytest.mark.slow
def test_fast_equals_naive_at_large_moduli():
    # three seeded moduli, log-uniform in [10^6, 10^7], each with a seeded
    # unit; the oracle enumerates every point (about 180 bytes each)
    rng = random.Random(1000003)
    for _ in range(3):
        m = int(10 ** rng.uniform(6, 7))
        a = rng.randrange(1, m)
        while math.gcd(a, m) != 1:
            a = rng.randrange(1, m)
        spec = HyperbolaSpec(m, a)
        assert fast_hull(spec) == convex_hull(enumerate_points(spec)), (m, a)


def _staircase(m: int, a: int) -> list[Point]:
    """The lower-left staircase of H_a(m), its Pareto minima, with their
    sigma-images, where sigma(x, y) = (y, x).

    The units x are scanned upward with y = a*x^-1 mod m, and each new
    strict minimum of y is kept (Kung, Luccio and Preparata, JACM 22(4),
    1975).  H_a(m) is sigma-symmetric, as xy = yx, and so is its staircase.
    Once x passes the running minimum lo, a later staircase point (x', y')
    has y' < lo < x', so its sigma-image (y', x') has the smaller x and was
    found already.  So the scan stops there, and the images are added.
    """
    found, lo = [], m
    for x in range(1, m):
        if x > lo:
            break
        if math.gcd(x, m) == 1 and (y := a * pow(x, -1, m) % m) < lo:
            lo = y
            found.append((x, y))
    return found + [(y, x) for x, y in found]


def staircase_hull(spec: HyperbolaSpec) -> ConvexPolygon:
    """The hull of H_a(m) from its four staircases, with no enumeration,
    factoring or certificate: an exact oracle up to MODULUS_CEILING.

    The hull's vertices lie on the staircases (see convex_hull).  The
    lower-right one is the lower-left staircase of H_{m-a}(m) in
    u = m - x, as x*y = a mod m exactly when (m - x)*y = m - a.  The half
    turn (x, y) -> (m - x, m - y) maps H_a(m) onto itself and the lower
    staircases onto the upper ones.  The union is hulled on the general
    path, not by the half-turn symmetry the package's hulls use.
    """
    m, a = spec
    lower = _staircase(m, a) + [(m - u, y) for u, y in _staircase(m, m - a)]
    return convex_hull(lower + [(m - x, m - y) for x, y in lower])


def test_staircase_hull_equals_the_hull_of_every_point():
    for m in range(3, 200):
        for a in (a for a in range(1, m) if math.gcd(a, m) == 1):
            spec = HyperbolaSpec(m, a)
            assert staircase_hull(spec) == convex_hull(enumerate_points(spec)), (m, a)


def test_fast_hull_equals_the_staircase_oracle_up_to_the_ceiling():
    # above ENUMERATION_CEILING, enumerate_points refuses the modulus; the
    # staircase walk scans a few times sqrt(m) units
    rng = random.Random(22)
    top = [(m, a) for m in (2**31 - 1, 2**31) for a in (1, m - 1, rng.randrange(1, m, 2))]
    for m, a in [*itertools.islice(_seeded_pairs(22), 40), *top]:
        spec = HyperbolaSpec(m, a)
        assert fast_hull(spec) == staircase_hull(spec), (m, a)


def test_certified_search_never_enumerates(monkeypatch):
    # the search ends by its certificate at every m, down to m = 2
    def enumerate_points(spec):
        raise AssertionError(f"enumerated {spec}")

    monkeypatch.setattr(hullfast, "enumerate_points", enumerate_points)
    for m in range(2, 65):
        for a in (a for a in range(1, m) if math.gcd(a, m) == 1):
            spec = HyperbolaSpec(m, a)
            poly = hullfast._certified_hull(spec)[0]
            assert poly == convex_hull(hyperbola.enumerate_points(spec)), (m, a)


def test_verify_report_fields():
    report = verify_against_naive(HyperbolaSpec(7, 1))
    assert report.equal
    assert report.m == 7 and report.a == 1
    assert report.point_count == 6
    assert report.candidate_count == 6
    assert report.missing == () and report.extra == ()
    # (2,4), (3,5), (4,2), (5,3) each have corner product 2*3
    assert report.max_corner_product == 6

    tiny = verify_against_naive(HyperbolaSpec(2, 1))
    assert tiny.equal and tiny.naive_vertices == ((1, 1),)
    assert tiny.max_corner_product == 1


def test_verify_forced_mismatch(monkeypatch):
    # a certified generator that loses every candidate off the diagonal
    real = hullfast._certified_hull

    def diagonal_only(spec):
        pts = {p for p in real(spec)[1] if p[0] == p[1]}
        return convex_hull(pts), pts

    monkeypatch.setattr(hullfast, "_certified_hull", diagonal_only)
    report = verify_against_naive(HyperbolaSpec(7, 1))
    assert not report.equal
    assert report.missing == ((2, 4), (3, 5), (4, 2), (5, 3))
    assert report.extra == ()


def test_fast_equals_naive_small_sweep():
    for m in range(10, 130):
        for a in {1, m - 1}:
            report = verify_against_naive(HyperbolaSpec(m, a))
            assert report.equal, (m, a, report.missing)


# (1041, 1) and (1002, 7) each have a round whose new a + m*l give only
# points an earlier round found from another corner; (1002, 7) and
# (99991, 12345) take four rounds.
SEARCH_CASES = [(1002, 7), (1041, 1), (1061, 3), (4096, 2047), (50021, 1), (99991, 12345)]


def test_each_product_is_factored_once(monkeypatch):
    # a round walks only the a + m*l above the previous round's cutoff
    factored: Counter = Counter()
    rounds: list[int] = []
    real_divisors, real_certifies = hullfast.divisors, hullfast._certifies
    monkeypatch.setattr(hullfast, "divisors", lambda n: factored.update((n,)) or real_divisors(n))
    monkeypatch.setattr(hullfast, "_certifies", lambda p, m, c: rounds.append(c) or real_certifies(p, m, c))
    longest = 0
    for m, a in SEARCH_CASES:
        factored.clear()
        rounds.clear()
        spec = HyperbolaSpec(m, a)
        assert fast_hull(spec) == convex_hull(enumerate_points(spec)), (m, a)
        assert factored and max(factored.values()) == 1, (m, a, factored.most_common(3))
        assert set(factored) == {n for n in range(1, rounds[-1] + 1) if n % m in (a, m - a)}, (m, a)
        longest = max(longest, len(rounds))
    assert longest >= 4


def test_no_point_set_is_hulled_twice(monkeypatch):
    # the accepted polygon is the answer, of fast_hull and of a sweep
    # record, and a round that adds no point keeps the polygon it has
    hulled: list[frozenset] = []
    real = hullfast.convex_hull
    for module in (hullfast, experiments):
        monkeypatch.setattr(module, "convex_hull", lambda pts, **kw: hulled.append(frozenset(pts)) or real(pts, **kw))
    runs = {
        "fast_hull": fast_hull,
        "verify_against_naive": verify_against_naive,
        "compute_record": lambda spec: compute_record(*spec),
    }
    for m, a in SEARCH_CASES:
        spec = HyperbolaSpec(m, a)
        for name, run in runs.items():
            hulled.clear()
            run(spec)
            assert len(set(hulled)) == len(hulled), (m, a, name)


def test_candidates_are_the_points_below_the_accepted_cutoff():
    # the candidate set is {f <= c} for c the least m * 2^k at or above its
    # largest f, so no round boundary drops or repeats an l
    for m in range(1000, 1101):
        for a in {1, m - 1, next(a for a in range(2, m) if math.gcd(a, m) == 1)}:
            spec = HyperbolaSpec(m, a)
            cands = set(_certified_hull(spec)[1])
            top = max(corner_product(p, m) for p in cands)
            c = m
            while c < top:
                c *= 2
            assert cands == {p for p in enumerate_points(spec) if corner_product(p, m) <= c}, (m, a, c)
