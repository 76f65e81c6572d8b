"""Exact lattice-polygon geometry: convex hulls via monotone chain with
integer orientation predicates, shoelace areas, unimodular (det +-1)
normalization into a small box, and minimum-area checks over windows of
consecutive hull vertices.

Hulls keep extreme points only: a point lying in the interior of a hull
edge is not a vertex.  Degenerate hulls (a single point, or all points
collinear) are first-class values with 1 or 2 vertices.
"""

import math
from collections import namedtuple
from collections.abc import Iterable, Sequence

from .hyperbola import Point
from .ntheory import _Checked, ext_gcd

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


class ConvexPolygon(_Checked, namedtuple("ConvexPolygon", "vertices")):
    """A vertex list that is valid exactly when it is the vertex list
    convex_hull returns for these points: nonempty, strictly convex,
    counterclockwise and starting at the lexicographically smallest vertex.
    1 or 2 vertices mark a degenerate hull (point / segment).  Points are
    stored as tuples.  convex_hull builds its own results without checking
    them again."""

    __slots__ = ()

    def __new__(cls, vertices: Sequence[Point]):
        v = tuple(map(tuple, vertices))
        if not v or convex_hull(v).vertices != v:
            raise ValueError("vertices must be strictly convex counterclockwise from the lexicographic minimum")
        return tuple.__new__(cls, (v,))

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


def _scan(first: Point, seq: Iterable[Point]) -> tuple[list[Point], list[Point]]:
    """The points of seq, a sorted sequence or its reverse, that set a new
    strict minimum of y and those that set a new strict maximum, in one
    walk; both lists start at first, the sequence's first point (see
    convex_hull)."""
    mins, maxs = [first], [first]
    lo = hi = first[1]
    for p in seq:
        y = p[1]
        if y < lo:
            lo = y
            mins.append(p)
        elif y > hi:
            hi = y
            maxs.append(p)
    return mins, maxs


def _join(head: list[Point], tail: list[Point]) -> list[Point]:
    """head, then tail reversed, with one copy of a point both end at."""
    return head + tail[-2::-1] if head[-1] == tail[-1] else head + tail[::-1]


def _chain(seq: Iterable[Point]) -> list[Point]:
    """Andrew's monotone chain: of points sorted along the walk, the ones
    where it turns strictly left, from the first point to the last."""
    out: list[Point] = []
    for p in seq:
        px, py = p
        while len(out) >= 2:
            (ox, oy), (ax, ay) = out[-2], out[-1]
            if (ax - ox) * (py - oy) - (ay - oy) * (px - ox) > 0:
                break
            out.pop()
        out.append(p)
    return out


def convex_hull(points: Iterable[Point], *, mirror: int | None = None) -> ConvexPolygon:
    """Monotone-chain hull of a nonempty point set, extreme points only
    (Andrew, Inf. Process. Lett. 9(5), 1979).

    The points are sorted, repeats included, from the leftmost-lowest p0 to
    the rightmost-highest p1.  The lower chain, the hull's boundary from p0
    to p1 counterclockwise, is chained from the lower staircase only: the
    points that set a new strict minimum of y in a scan from the left or
    from the right (Kung, Luccio and Preparata's maxima, JACM 22(4), 1975).
    The scans start at p0 and p1.  Any other vertex v of the lower chain is
    the unique maximiser of some linear functional w with w.y < 0, and any
    q != v with q.x <= v.x and q.y <= v.y would give w.q >= w.v if
    w.x <= 0.  So if w.x <= 0, every point before v in sorted order other
    than v itself lies strictly higher (this holds with repeated x too: a
    point directly below v would beat v for any w with w.y < 0), and the
    left scan keeps the first copy of v; if w.x >= 0 the right scan keeps
    the last copy likewise.  The staircase lies in the set and holds both
    ends and every vertex of the lower chain, so its lower chain is the
    set's.  The left scan ends at the first point of least y and keeps none
    after it, the right scan at the last one and keeps none before it, and
    the copies of a point are adjacent, so the two lists joined are sorted
    and repeat a point only when the two ends are copies of it.  The half
    turn (x, y) -> (-x, -y) reverses the sorted order and carries minima to
    maxima, so the upper chain, from p1 back to p0, is chained likewise
    from the upper staircase, the running maxima of y.  Each scan keeps its
    running minima and its running maxima in one walk (_scan), so the
    points are walked twice: once from each end.

    mirror=m is a precondition of the caller, not an option: points is a
    sorted sequence closed under s(x, y) = (m - x, m - y).  s is a half
    turn too; it maps the set onto itself, swaps p0 and p1 and carries the
    lower chain onto the upper one (Preparata and Shamos, Computational
    Geometry, 1985, section 3.3), so the upper chain is the image of the
    lower one.  s also reverses the sorted order and sends y to m - y, so
    the right scan meets the distinct points as the s-images of those the
    left scan meets, in the same order, and its new minima are the s-images
    of the left scan's new maxima (a repeat of a point never sets a strict
    record, so repeats change neither list): the points are walked once.
    The input is then neither sorted again nor checked beyond its first
    and last points: an O(1) refusal of a set that is not mirrored about
    this m.

    A lower staircase of one point is a set of copies of one point.  The
    vertex list is the lower chain without p1 followed by the upper chain
    without p0, so a collinear set, whose chains are p0 p1 and p1 p0, gives
    the segment (p0, p1).
    """
    pts = sorted(points) if mirror is None else points
    if not pts:
        raise ValueError("convex_hull needs at least one point")
    if mirror is not None:
        (x0, y0), (x1, y1) = pts[0], pts[-1]
        if x0 + x1 != mirror or y0 + y1 != mirror:
            raise ValueError(f"first and last points {pts[0]} and {pts[-1]} are not mirrors about m = {mirror}")
    left_min, left_max = _scan(pts[0], pts)
    if mirror is None:
        right_min, right_max = _scan(pts[-1], reversed(pts))
    else:
        right_min = [(mirror - x, mirror - y) for x, y in left_max]
    lower = _chain(_join(left_min, right_min))
    if len(lower) == 1:
        return tuple.__new__(ConvexPolygon, ((pts[0],),))
    lower.pop()  # p1, where the upper chain starts
    if mirror is None:
        upper = _chain(_join(right_max, left_max))
        upper.pop()
    else:
        upper = [(mirror - x, mirror - y) for x, y in lower]
    return tuple.__new__(ConvexPolygon, (tuple(lower + upper),))


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


class UnimodularMap(_Checked, namedtuple("UnimodularMap", "a b c d tx ty")):
    """Affine map (x, y) -> (a x + b y + tx, c x + d y + ty) with det(a d - b c) = +-1.

    Such maps permute the integer lattice, so they preserve lattice hulls,
    vertex counts, and doubled areas.
    """

    __slots__ = ()

    def __new__(cls, a: int, b: int, c: int, d: int, tx: int = 0, ty: int = 0):
        det = a * d - b * c
        if det not in (1, -1):
            raise ValueError(f"determinant must be +-1, got {det}")
        return tuple.__new__(cls, (a, b, c, d, tx, ty))

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
    """Integer q minimizing width(q) = span(moving + q * fixed), by binary
    search on the forward difference width(q + 1) - width(q).

    The bracket: with fixed[i] - fixed[j] = span(fixed) (i and j swapped
    when q < 0), width(q) >= moving[i] - moving[j] + |q| * span(fixed)
    >= |q| * span(fixed) - span(moving).  Since width(0) = span(moving),
    every minimiser has |q| <= 2 * span(moving) / span(fixed), so it lies
    strictly inside [-bound, bound].

    The search: width is convex, so its forward difference is
    nondecreasing and is positive exactly from the largest minimiser q2 on.
    The step keeps lo < q2 <= hi, so from any bracket that holds q2 and
    q2 - 1 it ends on lo = q2 - 1, hi = q2, and the tie-break returns q2 - 1
    if that is a minimiser too and q2 otherwise: the same q for every such
    bracket.
    """
    if _span(fixed) == 0:
        return 0

    def width(q):
        vals = [m + q * f for f, m in zip(fixed, moving)]
        return max(vals) - min(vals)

    bound = 2 * _span(moving) // _span(fixed) + 1
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
