"""Exact lattice-polygon geometry: convex hulls via monotone chain with
integer orientation predicates, shoelace areas, unimodular (det +-1)
normalization into a small box, and minimum-area checks over windows of
consecutive hull vertices.

Hulls keep extreme points only: a point lying in the interior of a hull
edge is not a vertex.  Degenerate hulls (a single point, or all points
collinear) are first-class values with 1 or 2 vertices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .hyperbola import Point
from .ntheory import ext_gcd

__all__ = [
    "DegenerateInput",
    "TooFewVertices",
    "ConvexPolygon",
    "UnimodularMap",
    "convex_hull",
    "twice_area",
    "contains_point",
    "transform_polygon",
    "normalize_to_box",
    "consecutive_block_min_area",
]


class DegenerateInput(ValueError):
    """Operation needs a polygon with positive area."""


class TooFewVertices(ValueError):
    """Polygon has fewer vertices than the requested window length."""


def _cross(o: Point, a: Point, b: Point) -> int:
    """Twice the signed area of triangle (o, a, b); > 0 means a left turn."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


@dataclass(frozen=True)
class ConvexPolygon:
    """Strictly convex vertex list, counterclockwise, starting at the
    lexicographically smallest vertex.  1 or 2 vertices mark a degenerate
    hull (point / segment)."""

    vertices: tuple[Point, ...]

    def __post_init__(self):
        v = self.vertices
        if not v:
            raise ValueError("polygon needs at least one vertex")
        if len(set(v)) != len(v):
            raise ValueError("repeated vertex")
        if v[0] != min(v):
            raise ValueError("vertex list must start at the lexicographic minimum")
        if len(v) >= 3:
            r = len(v)
            for i in range(r):
                if _cross(v[i], v[(i + 1) % r], v[(i + 2) % r]) <= 0:
                    raise ValueError("vertices must be strictly convex counterclockwise")

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def is_point(self) -> bool:
        return len(self.vertices) == 1

    @property
    def is_segment(self) -> bool:
        return len(self.vertices) == 2

    @property
    def degenerate(self) -> bool:
        return len(self.vertices) < 3


def _staircases(pts: list[Point]) -> list[Point]:
    """The points of a sorted, duplicate-free list that set a new strict
    minimum or maximum of y when it is scanned from the left or from the
    right, in sorted order (Kung, Luccio and Preparata's maxima, JACM 22(4),
    1975, for the four quadrants)."""
    ys = [y for _, y in pts]
    keep = bytearray(len(ys))
    for order in (range(len(ys)), range(len(ys) - 1, -1, -1)):
        lo = hi = ys[order[0]]
        keep[order[0]] = 1
        for i in order:
            y = ys[i]
            if y < lo:
                lo = y
                keep[i] = 1
            elif y > hi:
                hi = y
                keep[i] = 1
    return [p for p, k in zip(pts, keep) if k]


def convex_hull(points: Iterable[Point]) -> ConvexPolygon:
    """Monotone-chain hull of a nonempty point set, extreme points only.

    The chain runs only on the four staircases of the sorted points (see
    `_staircases`), which hold every extreme point.  The left-to-right scan
    drops p as a new minimum only when an earlier point q != p has
    q.y <= p.y, and earlier means q.x <= p.x: q lies in p's closed
    lower-left quadrant.  Likewise its maximum test drops p only for a q
    in the closed upper-left quadrant, and the right-to-left scan for a q
    in the closed lower-right or upper-right one.  An extreme point v is
    the unique maximiser of some linear functional w != 0, and w points
    into one closed quadrant; any q != v in v's quadrant of that direction
    would give w.q >= w.v, so there is none, and that quadrant's scan keeps
    v.  The subset therefore has the same hull, and the chain returns it in
    the same canonical form.
    """
    pts = sorted(set(points))
    if not pts:
        raise ValueError("convex_hull needs at least one point")
    if len(pts) == 1:
        return ConvexPolygon((pts[0],))
    pts = _staircases(pts)

    def chain(seq):
        out = []
        for p in seq:
            px, py = p
            while len(out) >= 2:
                (ox, oy), (ax, ay) = out[-2], out[-1]
                if (ax - ox) * (py - oy) - (ay - oy) * (px - ox) > 0:
                    break
                out.pop()
            out.append(p)
        return out

    lower = chain(pts)
    upper = chain(reversed(pts))
    if len(lower) == 2 and len(upper) == 2:
        return ConvexPolygon((pts[0], pts[-1]))  # all collinear
    return ConvexPolygon(tuple(lower[:-1] + upper[:-1]))


def twice_area(poly: ConvexPolygon) -> int:
    """Doubled area by the shoelace sum (an exact integer); 0 when degenerate."""
    v = poly.vertices
    if len(v) < 3:
        return 0
    s = 0
    for i in range(len(v)):
        x0, y0 = v[i]
        x1, y1 = v[(i + 1) % len(v)]
        s += x0 * y1 - x1 * y0
    return s


def contains_point(poly: ConvexPolygon, p: Point) -> bool:
    """True if p lies inside or on the boundary of the polygon."""
    v = poly.vertices
    if len(v) == 1:
        return p == v[0]
    if len(v) == 2:
        if _cross(v[0], v[1], p) != 0:
            return False
        (x0, y0), (x1, y1) = v
        return min(x0, x1) <= p[0] <= max(x0, x1) and min(y0, y1) <= p[1] <= max(y0, y1)
    return all(_cross(v[i], v[(i + 1) % len(v)], p) >= 0 for i in range(len(v)))


@dataclass(frozen=True)
class UnimodularMap:
    """Affine map (x, y) -> (a x + b y + tx, c x + d y + ty) with det(a d - b c) = +-1.

    Such maps permute the integer lattice, so they preserve lattice hulls,
    vertex counts, and doubled areas.
    """

    a: int
    b: int
    c: int
    d: int
    tx: int = 0
    ty: int = 0

    def __post_init__(self):
        if self.det not in (1, -1):
            raise ValueError(f"determinant must be +-1, got {self.det}")

    @property
    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def apply(self, p: Point) -> Point:
        x, y = p
        return (self.a * x + self.b * y + self.tx, self.c * x + self.d * y + self.ty)

    def compose(self, inner: "UnimodularMap") -> "UnimodularMap":
        """The map sending p to self(inner(p))."""
        return UnimodularMap(
            a=self.a * inner.a + self.b * inner.c,
            b=self.a * inner.b + self.b * inner.d,
            c=self.c * inner.a + self.d * inner.c,
            d=self.c * inner.b + self.d * inner.d,
            tx=self.a * inner.tx + self.b * inner.ty + self.tx,
            ty=self.c * inner.tx + self.d * inner.ty + self.ty,
        )

    def inverse(self) -> "UnimodularMap":
        det = self.det
        ia, ib, ic, id_ = det * self.d, -det * self.b, -det * self.c, det * self.a
        return UnimodularMap(
            a=ia, b=ib, c=ic, d=id_, tx=-(ia * self.tx + ib * self.ty), ty=-(ic * self.tx + id_ * self.ty)
        )

    @staticmethod
    def identity() -> "UnimodularMap":
        return UnimodularMap(1, 0, 0, 1)


def transform_polygon(poly: ConvexPolygon, umap: UnimodularMap) -> ConvexPolygon:
    """Image polygon, re-canonicalized (orientation flips when det = -1)."""
    return convex_hull(umap.apply(p) for p in poly.vertices)


def _span(vals: list[int]) -> int:
    return max(vals) - min(vals)


def _best_shear(fixed: list[int], moving: list[int]) -> int:
    """Integer q minimizing span(moving + q * fixed), by ternary search.

    The span is a convex piecewise-linear function of q, so the integer
    minimum sits where the forward difference changes sign.
    """
    if _span(fixed) == 0:
        return 0

    def width(q):
        vals = [m + q * f for f, m in zip(fixed, moving)]
        return max(vals) - min(vals)

    # any q past 2*span(moving) is provably worse than q = 0
    bound = 2 * _span(moving) + 1
    lo, hi = -bound, bound
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if width(mid) < width(mid + 1):
            hi = mid
        else:
            lo = mid
    return lo if width(lo) <= width(hi) else hi


def normalize_to_box(poly: ConvexPolygon) -> tuple[UnimodularMap, int, int]:
    """A unimodular map carrying the polygon into [0, u] x [0, v] with uv small.

    Strategy: align the polygon's diameter with the x-axis (extending the
    primitive diameter direction to a unimodular basis), then alternately
    apply the optimal integer shears in each axis until the bounding box
    stops shrinking, and finally translate into the first quadrant.  The
    target is uv <= 4 * area; callers should treat uv <= 8 * area as the
    hard ceiling and track the observed worst ratio.
    """
    if poly.degenerate:
        raise DegenerateInput("box normalization needs a polygon with positive area")
    pts = list(poly.vertices)

    # map the diameter direction onto the x-axis
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
    # rows (a b; c d) with (ex, ey) -> (1, 0): take c = -ey, d = ex and
    # complete (a, b) via a*ex + b*ey = 1
    _, aa, bb = ext_gcd(ex, ey)
    total = UnimodularMap(aa, bb, -ey, ex)
    pts = [total.apply(p) for p in poly.vertices]

    while True:
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        area_now = _span(xs) * _span(ys)
        qy = _best_shear(xs, ys)  # y' = y + qy * x
        qx = _best_shear(ys, xs)  # x' = x + qx * y
        gain_y = area_now - _span(xs) * _span([y + qy * x for x, y in pts])
        gain_x = area_now - _span([x + qx * y for x, y in pts]) * _span(ys)
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
    return total, _span(xs), _span(ys)


def consecutive_block_min_area(poly: ConvexPolygon, k: int) -> int:
    """Minimum doubled area over the r cyclic windows of k consecutive vertices.

    The window polygon inherits the hull's counterclockwise order, so its
    shoelace sum is the closing chord term plus a prefix-sum difference.
    """
    if k < 3:
        raise ValueError(f"window length must be >= 3, got {k}")
    v = poly.vertices
    r = len(v)
    if r < k:
        raise TooFewVertices(f"polygon has {r} vertices, window needs {k}")
    ext = v + v[: k - 1]
    pre = [0] * len(ext)
    for i in range(1, len(ext)):
        x0, y0 = ext[i - 1]
        x1, y1 = ext[i]
        pre[i] = pre[i - 1] + (x0 * y1 - x1 * y0)
    best = None
    for i in range(r):
        last = ext[i + k - 1]
        first = ext[i]
        s = pre[i + k - 1] - pre[i] + (last[0] * first[1] - first[0] * last[1])
        if best is None or s < best:
            best = s
    return best
