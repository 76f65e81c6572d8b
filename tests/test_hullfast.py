import math
import random

import pytest

from modhull import hullfast
from modhull.geometry import contains_point, convex_hull
from modhull.hullfast import (
    ENUMERATE_BELOW,
    _certifies,
    _corner_points,
    _edge_within,
    candidate_points,
    fast_hull,
    hull_method,
    lower_left_candidates,
    verify_against_naive,
)
from modhull.hyperbola import HyperbolaSpec, enumerate_points


def filtered_enumeration(spec, cutoff):
    """Independent route to the candidate set: filter the full point list."""
    return tuple(p for p in enumerate_points(spec) if p[0] * p[1] <= max(1, cutoff))


def test_lower_left_examples():
    s7 = HyperbolaSpec(7, 1)
    assert lower_left_candidates(s7, 7) == ((1, 1),)
    assert lower_left_candidates(s7, 15) == ((1, 1), (2, 4), (3, 5), (4, 2), (5, 3))
    assert lower_left_candidates(s7, 0) == ((1, 1),)  # cutoff clamps to 1


def test_lower_left_divisor_walk_vs_filter():
    # cutoffs below (m-1)^2 exercise the factoring walk, not the shortcut
    for m in [11, 12, 30, 97, 100, 211, 360, 719, 1009, 2048]:
        for a in {1, m - 1, 7 % m if math.gcd(7, m) == 1 else 1}:
            spec = HyperbolaSpec(m, a)
            for cutoff in (a, 2 * m, 7 * m + 3, m * m // 2, (m - 1) ** 2 - 1):
                assert lower_left_candidates(spec, cutoff) == filtered_enumeration(
                    spec, cutoff
                ), (m, a, cutoff)


def test_lower_left_shortcut_boundary():
    # at cutoff = (m-1)^2 every point qualifies either way
    for m, a in [(13, 1), (20, 3), (59, 58)]:
        spec = HyperbolaSpec(m, a)
        full = enumerate_points(spec)
        assert lower_left_candidates(spec, (m - 1) ** 2) == full
        assert lower_left_candidates(spec, (m - 1) ** 2 - 1) == filtered_enumeration(
            spec, (m - 1) ** 2 - 1
        )


def test_lower_left_empty_below_minimal_product():
    spec = HyperbolaSpec(7, 3)
    assert lower_left_candidates(spec, 2) == ()  # minimal product is a = 3


def corner_product(p, m):
    """f(x, y) = min(x, m-x) * min(y, m-y), the quantity the certificate bounds."""
    return min(p[0], m - p[0]) * min(p[1], m - p[1])


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


def test_candidates_are_genuine_points():
    for m, a in [(7, 1), (101, 13), (1009, 1), (1024, 255)]:
        spec = HyperbolaSpec(m, a)
        pts = set(enumerate_points(spec))
        cands = candidate_points(spec)
        assert set(cands) <= pts


def test_fast_hull_examples():
    for m, a in [(7, 1), (101, 1), (1009, 1), (4096, 2047)]:
        spec = HyperbolaSpec(m, a)
        assert fast_hull(spec) == convex_hull(enumerate_points(spec))


def test_fast_hull_methods_dispatch():
    # below ENUMERATE_BELOW every point is hulled; from there on, the
    # certified candidates, a strict subset
    small = HyperbolaSpec(ENUMERATE_BELOW - 1, 1)
    assert hull_method(small.m) == "naive"
    assert candidate_points(small) == enumerate_points(small)
    big = HyperbolaSpec(ENUMERATE_BELOW + 1, 1)
    assert hull_method(big.m) == "fast"
    assert set(candidate_points(big)) < set(enumerate_points(big))
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
                for pts in (_corner_points(spec, c), lower_left_candidates(spec, c)):
                    if not pts:
                        continue  # c below the smallest product a
                    poly = convex_hull(pts)
                    if _certifies(poly, m, c):
                        accepted += 1
                        assert lattice_max_outside(poly, m) <= c, (m, a, c, poly)
                    else:
                        rejected += 1
    assert accepted > 1000 and rejected > 1000


def test_edge_maximum_examples():
    # the certificate bounds f on the real segment, not only at its lattice
    # points: along x + y = 5 (m = 10) f = x*(5-x) peaks at 25/4 between
    # (2, 3) and (3, 2); across the midline x = 5, f = 5*min(x, 10-x) peaks
    # at the crossing
    assert not _edge_within((1, 4), (4, 1), 10, 6)
    assert _edge_within((1, 4), (4, 1), 10, 7)
    assert not _edge_within((1, 5), (9, 5), 10, 24)
    assert _edge_within((1, 5), (9, 5), 10, 25)
    assert _edge_within((3, 7), (3, 7), 10, 9) and not _edge_within((3, 7), (3, 7), 10, 8)


def test_corner_points_are_exactly_small_f():
    for m, a in [(11, 2), (30, 7), (97, 1), (128, 45)]:
        spec = HyperbolaSpec(m, a)
        for c in (m // 2, m, 3 * m):
            expected = {p for p in enumerate_points(spec) if corner_product(p, m) <= c}
            assert _corner_points(spec, c) == expected, (m, a, c)


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
    real = hullfast._certified_candidates
    monkeypatch.setattr(
        hullfast, "_certified_candidates", lambda spec: tuple(p for p in real(spec) if p[0] == p[1])
    )
    report = verify_against_naive(HyperbolaSpec(7, 1))
    assert not report.equal
    assert report.missing == ((2, 4), (3, 5), (4, 2), (5, 3))
    assert report.extra == ()


def test_fast_equals_naive_small_sweep():
    for m in range(10, 130):
        for a in {1, m - 1}:
            report = verify_against_naive(HyperbolaSpec(m, a))
            assert report.equal, (m, a, report.missing)
