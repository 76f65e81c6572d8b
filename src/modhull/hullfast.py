"""Hull of H_a(m) from the points near the corners of the square, certified
exact.

Let f(x, y) = min(x, m-x) * min(y, m-y), the smallest of the four corner
products.  Hull vertices sit at small f, so the search hulls only the
points with f <= c.  In the lower-left corner f = x*y = a + m*l, so those
points are the divisor pairs of a + m*l for l <= (c - a)/m; the other three
corners are the same walk on H_a(m) and H_{m-a}(m), read through
(x, y) -> (m-x, m-y), (x, m-y) and (m-x, y).

The certificate: the hull P of the candidates contains K, the points of
the open square (0, m)^2 with f > c.  Then a point of H_a(m) outside P has
f <= c, so it is a candidate and lies in P after all: P is the hull.

K is empty when 4c >= m^2, since f <= m^2/4.  Otherwise (and c > 0) K is
convex, the intersection of the hyperbola epigraphs x*y > c,
(m-x)*y > c, x*(m-y) > c and (m-x)*(m-y) > c with positive factors, so
containing it is the same as the centre lying in P with f <= c on the
boundary of P.  K is bounded by four arcs, one per quadrant, that meet at
the corners (m/2, 2c/m), (2c/m, m/2), (m/2, m - 2c/m) and (m - 2c/m, m/2).
A point or a segment cannot hold K, whose corners are not collinear; a P
of three or more vertices has interior and is the intersection of its
edges' closed half-planes.  As K is open, P contains it when no point of
K's closure lies beyond an edge.

Each edge is read in the frame of the corner of the square that its
outward normal points to, (X, Y) = (x or m-x, y or m-y): an edge with
direction (dx, dy) keeps P on a*X + b*Y >= G, where a = |dy|, b = |dx| and
G is the value at the edge.  K is the same set in every such frame, and
the least of a*X + b*Y over its closure decides the edge:
- On the arc X*Y = c of the quadrant X, Y <= m/2, which runs from the
  corner (m/2, 2c/m) to (2c/m, m/2), a*X + b*c/X is convex in X.  It is
  least, 2*sqrt(a*b*c), at the tangency point X = sqrt(b*c/a),
  Y = sqrt(a*c/b) when a and b are not 0 and both coordinates are at most
  m/2, and else at the nearer of the two corners.  Both corners lie on
  the arc, so by AM-GM the tangency value is at most either corner's.
- A point of the closure in the quadrant scores at least the arc point
  left of it, (c/Y, Y).
- A point with X >= m/2 has min(Y, m-Y) >= 2c/m, as f >= c, so it scores
  at least the corner (m/2, 2c/m); likewise with Y >= m/2.  So every
  point outside the quadrant scores at least the nearer corner.
So the check, in integers, is one test per edge: when the tangency point
is on the arc, G <= 2*sqrt(a*b*c); otherwise 2m*G is at most the nearer
corner's value scaled by 2m, min(a*m^2 + 4*b*c, 4*a*c + b*m^2).  (For
c <= 0, K is the whole open square, and a*X + b*Y is least, 0, at a corner
of its closure; every edge of a P in [1, m-1]^2 has G > 0, and either test
rejects it, as it must.)

The search starts at c = m and doubles c until the certificate holds, and
it never enumerates: the certificate accepts at the latest when 4c >= m^2,
because K is then empty, and the first round always has a point, (1, a).
The least c = m * 2^k with 4c >= m^2 is m itself for m = 2, 3 and 4 (at
m = 2 the first round finds (1, 1), and 4c = 8 >= 4), and for m >= 5 it
is below m^2/2 <= (m-1)^2, so no round walks past the products of the
full square.  The points are kept from round to round, so each round
factors only the new a + m*l, those in (c/2, c], and the polygon the
certificate accepts is returned as the hull.
Small moduli skip the search and hull every point.
"""

from collections import namedtuple
from collections.abc import Iterator

from .geometry import ConvexPolygon, convex_hull
from .hyperbola import HyperbolaSpec, Point, PointSet, enumerate_points
from .ntheory import divisors

__all__ = [
    "ENUMERATE_BELOW",
    "VerificationReport",
    "fast_hull",
    "hull_method",
    "verify_against_naive",
]

# Moduli below this are hulled from the full enumeration.  The value is
# fixed, not tuned: it decides the CSV `method` and `candidate_count`
# columns, so moving it changes the sweep output.  It was set at the
# crossover measured for one hull at commit 7d6b7db: certified vs cold
# enumeration took 1.38 vs 1.12 ms per hull for m in [750, 1000), 1.31 vs
# 1.32 ms for [1000, 1250) and 1.59 vs 1.93 ms for [1250, 1500) (medians
# of 5 passes over ~140 pairs each, CPython 3.11.7 on a 2-vCPU x86-64
# host).  Both paths have been made faster since, and the certified rounds
# now hull on the half-turn path, so those timings are stale.
ENUMERATE_BELOW = 1000


def hull_method(m: int) -> str:
    """The method reported for modulus m: "naive" when every point of
    H_a(m) is hulled, else "fast" (the certified search)."""
    return "naive" if m < ENUMERATE_BELOW else "fast"


def _pairs(m: int, n: int) -> list[Point]:
    """The divisor pairs (d, n/d) of n inside [1, m-1]^2."""
    lo = -(-n // (m - 1))  # smallest d with n/d <= m-1
    return [(d, n // d) for d in divisors(n) if lo <= d <= m - 1]


def _corner_points(m: int, a: int, lo: int, hi: int) -> Iterator[Point]:
    """The points of H_a(m) found from the products in (lo, hi]: the divisor
    pairs (x, y) of a + m*l and (x, m - y) of (m - a) + m*l, each with its
    central mirror (m - x, m - y).  Over (0, c] they are the points with
    f <= c.

    The two sets a hull of H_a(m) is taken from, these points and, below
    ENUMERATE_BELOW, the enumeration of H_a(m), have one point per x, as
    H_a(m) has one per unit x, and are closed under (x, y) -> (m - x,
    m - y), which keeps x*y mod m: the enumeration holds every point, and
    this walk yields each point with its mirror.  So either, sorted, may be
    hulled with convex_hull(..., mirror=m)."""
    for r, mirror in ((a, False), (m - a, True)):
        for l in range((lo - r) // m + 1, (hi - r) // m + 1):
            for x, y in _pairs(m, r + m * l):
                y = m - y if mirror else y
                yield x, y
                yield m - x, m - y


def _certifies(poly: ConvexPolygon, m: int, c: int) -> bool:
    """The certificate: poly contains K = {f > c}, so every lattice point of
    [1, m-1]^2 outside poly has f <= c.  One test per edge, in the frame of
    the corner its outward normal points to: the least value over K of the
    edge's linear form, at the arc's tangency point or at K's nearer corner,
    is at least its value on the edge (see the module docstring).  A point or a segment
    cannot hold K's four corners, which are distinct and not collinear when
    K is not empty."""
    if 4 * c >= m * m:
        return True  # K is empty
    v = poly.vertices
    if len(v) < 3:
        return False
    mm = m * m
    for (x0, y0), (x1, y1) in zip(v, v[1:] + v[:1]):
        dx, dy = x1 - x0, y1 - y0
        a, b = abs(dy), abs(dx)
        g = a * (x0 if dy < 0 else m - x0) + b * (y0 if dx > 0 else m - y0)
        if a and b and 4 * c * a <= b * mm and 4 * c * b <= a * mm:
            if g > 0 and g * g > 4 * a * b * c:
                return False  # the arc's tangency point lies beyond the edge
        elif 2 * m * g > min(a * mm + 4 * b * c, 4 * a * c + b * mm):
            return False  # K's nearer corner lies beyond the edge
    return True


def _certified_hull(spec: HyperbolaSpec) -> tuple[ConvexPolygon, PointSet]:
    """The hull of H_a(m) and the points it was hulled from, sorted: those
    with f <= c for the first c = m * 2^k the certificate accepts.  Each
    round adds the corner points of the products in (prev, c], and hulls
    again only when it added one, on the half-turn path (see
    _corner_points)."""
    m, a = spec.m, spec.a
    pts: set[Point] = set()
    cands: PointSet = ()
    prev, c = 0, m
    while True:
        pts.update(_corner_points(m, a, prev, c))
        if len(pts) > len(cands):
            cands = tuple(sorted(pts))
            poly = convex_hull(cands, mirror=m)
        if _certifies(poly, m, c):
            return poly, cands
        prev, c = c, 2 * c


def fast_hull(spec: HyperbolaSpec) -> ConvexPolygon:
    """The exact hull of H_a(m)."""
    if spec.m < ENUMERATE_BELOW:
        return convex_hull(enumerate_points(spec), mirror=spec.m)  # see _corner_points
    return _certified_hull(spec)[0]


# Side-by-side result of the certified and brute-force hulls of H_a(m):
# whether their vertex sets are equal, each hull's vertices, the number of
# candidates the certified search hulled and of points in H_a(m), the
# largest f over the true hull's vertices, the true vertices the fast hull
# lost (missing) and the fast vertices that are not true vertices (extra).
VerificationReport = namedtuple(
    "VerificationReport",
    "m a equal fast_vertices naive_vertices candidate_count point_count max_corner_product missing extra",
)


def verify_against_naive(spec: HyperbolaSpec) -> VerificationReport:
    """Run the certified search (at any m, ignoring ENUMERATE_BELOW) against
    full enumeration and report the comparison."""
    m = spec.m
    points = enumerate_points(spec)
    naive = convex_hull(points)
    fast, candidates = _certified_hull(spec)
    fast_v = set(fast.vertices)
    naive_v = set(naive.vertices)
    return VerificationReport(
        m=m,
        a=spec.a,
        equal=fast_v == naive_v,
        fast_vertices=fast.vertices,
        naive_vertices=naive.vertices,
        candidate_count=len(candidates),
        point_count=len(points),
        max_corner_product=max(min(x, m - x) * min(y, m - y) for x, y in naive.vertices),
        missing=tuple(sorted(naive_v - fast_v)),
        extra=tuple(sorted(fast_v - naive_v)),
    )
