"""Hull of H_a(m) from the points near the corners of the square, certified
exact.

Let f(x, y) = min(x, m-x) * min(y, m-y), the smallest of the four corner
products.  Hull vertices sit at small f, so the search hulls only the
points with f <= c.  In the lower-left corner f = x*y = a + m*l, so those
points are the divisor pairs of a + m*l for l <= (c - a)/m; the other three
corners are the same walk on H_a(m) and H_{m-a}(m), read through
(x, y) -> (m-x, m-y), (x, m-y) and (m-x, y).

The certificate: if the centre (m/2, m/2) lies in the hull P of the
candidates and f <= c on every edge of P, then no point of H_a(m) lies
outside P.  For q outside P the segment from the centre to q leaves P at
a boundary point b in q's quadrant, and b is at least as far from that
quadrant's corner as q in both coordinates, so f(q) <= f(b) <= c: q would
be a candidate, hence inside P.  The search starts at c = m and doubles c
until the certificate holds, falling back to full enumeration once
c >= (m-1)^2.  Small moduli skip the search and hull every point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .geometry import ConvexPolygon, contains_point, convex_hull
from .hyperbola import HyperbolaSpec, Point, PointSet, enumerate_points
from .ntheory import divisors

__all__ = [
    "ENUMERATE_BELOW",
    "VerificationReport",
    "candidate_points",
    "fast_hull",
    "hull_method",
    "lower_left_candidates",
    "verify_against_naive",
]

# Moduli below this are hulled from the full enumeration.  It sits at the
# measured crossover for one hull: certified vs cold enumeration took
# 1.38 vs 1.12 ms per hull for m in [750, 1000), 1.31 vs 1.32 ms for
# [1000, 1250) and 1.59 vs 1.93 ms for [1250, 1500) (medians of 5 passes
# over ~140 pairs each, CPython 3.11.7 on a 2-vCPU x86-64 host).
ENUMERATE_BELOW = 1000


def hull_method(m: int) -> str:
    """The method reported for modulus m: "naive" when candidate_points
    enumerates every point, else "fast" (the certified search)."""
    return "naive" if m < ENUMERATE_BELOW else "fast"


def lower_left_candidates(spec: HyperbolaSpec, cutoff: int) -> PointSet:
    """All points of H_a(m) with x*y <= max(1, cutoff), sorted.

    Walks N = a + m*l for 0 <= l <= (cutoff - a)/m and keeps the divisor
    pairs (d, N/d) that land inside [1, m-1]^2.
    """
    m, a = spec.m, spec.a
    out: list[Point] = []
    for l in range((max(1, cutoff) - a) // m + 1):
        n = a + m * l
        lo = -(-n // (m - 1))  # smallest d with n/d <= m-1
        out.extend((d, n // d) for d in divisors(n) if lo <= d <= m - 1)
    return tuple(sorted(out))


def _corner_points(spec: HyperbolaSpec, c: int) -> set[Point]:
    """Every point of H_a(m) with f <= c."""
    m = spec.m
    pts: set[Point] = set()
    for x, y in lower_left_candidates(spec, c):
        pts.add((x, y))
        pts.add((m - x, m - y))
    for x, y in lower_left_candidates(HyperbolaSpec(m, m - spec.a), c):
        pts.add((x, m - y))
        pts.add((m - x, y))
    return pts


def _edge_within(p: Point, q: Point, m: int, c: int) -> bool:
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


def _certifies(poly: ConvexPolygon, m: int, c: int) -> bool:
    """The certificate: the centre lies in poly and f <= c on its boundary,
    so every lattice point of [1, m-1]^2 outside poly has f <= c."""
    v = poly.vertices
    doubled = ConvexPolygon(tuple((2 * x, 2 * y) for x, y in v))
    if not contains_point(doubled, (m, m)):
        return False
    return all(_edge_within(p, q, m, c) for p, q in zip(v, v[1:] + v[:1]))


def _certified_candidates(spec: HyperbolaSpec) -> PointSet:
    """The points with f <= c for the first c = m * 2^k the certificate
    accepts: their hull is the hull of H_a(m)."""
    m = spec.m
    c = m
    while c < (m - 1) * (m - 1):
        pts = _corner_points(spec, c)
        if _certifies(convex_hull(pts), m, c):
            return tuple(sorted(pts))
        c *= 2
    return enumerate_points(spec)


def candidate_points(spec: HyperbolaSpec) -> PointSet:
    """The points fast_hull hulls, sorted: every point of H_a(m) below
    ENUMERATE_BELOW, else the certified corner candidates."""
    if spec.m < ENUMERATE_BELOW:
        return enumerate_points(spec)
    return _certified_candidates(spec)


def fast_hull(spec: HyperbolaSpec) -> ConvexPolygon:
    """The exact hull of H_a(m)."""
    return convex_hull(candidate_points(spec))


@dataclass(frozen=True)
class VerificationReport:
    """Side-by-side result of the certified and brute-force hulls."""

    m: int
    a: int
    equal: bool
    fast_vertices: tuple[Point, ...]
    naive_vertices: tuple[Point, ...]
    candidate_count: int
    point_count: int
    max_corner_product: int  # largest f over the true hull's vertices
    missing: tuple[Point, ...]  # true vertices the fast hull lost
    extra: tuple[Point, ...]  # fast vertices that are not true vertices


def verify_against_naive(spec: HyperbolaSpec) -> VerificationReport:
    """Run the certified search (at any m, ignoring ENUMERATE_BELOW) against
    full enumeration and report the comparison."""
    m = spec.m
    points = enumerate_points(spec)
    naive = convex_hull(points)
    candidates = _certified_candidates(spec)
    fast = convex_hull(candidates)
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
