import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from modhull.conics import (
    CONIC_MONOMIALS,
    AllZeroMod,
    ConicForm,
    InfiniteFamily,
    classify_conic,
    conic_points_in_box,
    count_conic_points_in_box,
    find_vanishing_form,
    minors_singular_mod,
    poly_roots_mod,
)
from modhull.hyperbola import ENUMERATION_CEILING, HyperbolaSpec, enumerate_points
from modhull.ntheory import divisors


def divisor_points(n):
    return [(d, n // d) for d in divisors(n)]


def reference_vanishing_form(points, monos):
    """The Gauss-Jordan elimination over Q that find_vanishing_form used
    before it shared the integer echelon pass with minors_singular_mod,
    unchanged from the evaluation matrix on (inputs are assumed valid)."""
    s = len(monos)
    rows = [[Fraction(x**h * y**k) for h, k in monos] for x, y in points]

    pivots = []  # (row, col) of reduced pivots
    r = 0
    for col in range(s):
        pis = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pis is None:
            continue
        rows[r], rows[pis] = rows[pis], rows[r]
        inv = 1 / rows[r][col]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [v - f * w for v, w in zip(rows[i], rows[r])]
        pivots.append((r, col))
        r += 1
        if r == s:
            return None
    if r == s:
        return None

    pivot_cols = {c for _, c in pivots}
    free = next(c for c in range(s) if c not in pivot_cols)
    sol = [Fraction(0)] * s
    sol[free] = Fraction(1)
    for prow, pcol in pivots:
        sol[pcol] = -rows[prow][free]

    denom = math.lcm(*(f.denominator for f in sol))
    vec = [int(f * denom) for f in sol]
    g = math.gcd(*vec)
    vec = [v // g for v in vec]
    lead = next(v for v in vec if v != 0)
    if lead < 0:
        vec = [-v for v in vec]
    return tuple(vec)


def reference_minors_gcd(points, monos):
    """gcd of every s x s minor of the evaluation matrix, one Bareiss
    determinant per choice of s rows."""
    s = len(monos)
    g = 0
    for rows in itertools.combinations(points, s):
        a = [[x**h * y**k for h, k in monos] for x, y in rows]
        sign, prev = 1, 1
        for k in range(s):
            p = next((i for i in range(k, s) if a[i][k]), None)
            if p is None:
                break
            if p != k:
                a[k], a[p], sign = a[p], a[k], -sign
            for i in range(k + 1, s):
                for j in range(k + 1, s):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            prev = a[k][k]
        else:
            g = math.gcd(g, sign * a[-1][-1])
    return g


LINEAR = ((1, 0), (0, 1))
AFFINE = ((1, 0), (0, 1), (0, 0))
CUBIC = ((3, 0), (2, 1), (1, 2), (0, 3), (2, 0), (1, 1), (0, 2), (1, 0), (0, 1), (0, 0))
MONOMIAL_SETS = (CONIC_MONOMIALS, LINEAR, AFFINE, ((1, 1), (0, 0)), CUBIC)


def seeded_points(rng, kind, s):
    k = rng.randint(1, s + 3)
    if kind == "random":
        return [(rng.randrange(2**31), rng.randrange(2**31)) for _ in range(k)]
    if kind == "divisors":
        pts = divisor_points(rng.choice((12, 60, 720, 5040, rng.randrange(2, 10**6))))
        return rng.sample(pts, min(k + 2, len(pts)))
    if kind == "hyperbola":
        m = rng.randrange(3, 300)
        a = next(a for a in range(rng.randrange(1, m), 2 * m) if math.gcd(a, m) == 1) % m
        return enumerate_points(HyperbolaSpec(m, a))[: k + 2]
    if kind == "repeated":
        base = [(rng.randrange(-9, 10), rng.randrange(-9, 10)) for _ in range(rng.randint(1, 3))]
        return [rng.choice(base) for _ in range(k + 2)]
    x0, y0, dx, dy = (rng.randrange(-50, 51) for _ in range(4))  # collinear
    return [(x0 + t * dx, y0 + t * dy) for t in rng.sample(range(-30, 31), k + 2)]


def test_integer_echelon_matches_rational_elimination():
    rng = random.Random(0xC0_41C5)
    kernels = minors = 0
    for i in range(600):
        monos = MONOMIAL_SETS[i % len(MONOMIAL_SETS)]
        kind = ("random", "divisors", "hyperbola", "repeated", "collinear")[i // len(MONOMIAL_SETS) % 5]
        pts = seeded_points(rng, kind, len(monos))
        vec = find_vanishing_form(pts, monos)
        assert vec == reference_vanishing_form(pts, monos), (monos, pts)
        kernels += vec is not None
        s = len(monos)
        if s <= len(pts) and math.comb(len(pts), s) <= 60:
            g = reference_minors_gcd(pts, monos)
            for m in (2, 7, 12, 720, 10**9 + 7):
                assert minors_singular_mod(pts, monos, m) is (g % m == 0), (monos, pts, m)
            minors += 1
    assert kernels >= 200 and minors >= 200  # both outcomes are exercised


def brute_count(coeffs, H):
    A, B, C, D, E, F = coeffs
    return sorted(
        (x, y)
        for x in range(H + 1)
        for y in range(H + 1)
        if A * x * x + B * x * y + C * y * y + D * x + E * y + F == 0
    )


def test_vanishing_form_examples():
    assert find_vanishing_form(divisor_points(12), CONIC_MONOMIALS) == (0, 1, 0, 0, 0, -12)
    generic = [(0, 0), (1, 0), (0, 1), (2, 3), (5, 1), (7, 11)]
    assert find_vanishing_form(generic, CONIC_MONOMIALS) is None
    assert find_vanishing_form([(2, 3)], ((1, 0), (0, 1))) == (3, -2)


def test_vanishing_form_annihilates_and_is_primitive():
    for n in (12, 36, 100, 720, 5040):
        pts = divisor_points(n)
        vec = find_vanishing_form(pts, CONIC_MONOMIALS)
        assert vec is not None
        assert math.gcd(*vec) == 1
        assert next(v for v in vec if v) > 0  # sign normalization
        for x, y in pts:
            val = sum(c * x**h * y**k for c, (h, k) in zip(vec, CONIC_MONOMIALS))
            assert val == 0


def test_vanishing_form_on_hyperbola_points():
    # all of H_a(m) lies on no integer conic unless phi(m) is tiny, but any
    # five points of xy = a + m*l for one fixed l do lie on xy - (a + m*l)
    pts = [(d, 60 // d) for d in (2, 3, 5, 6, 10)]
    vec = find_vanishing_form(pts, CONIC_MONOMIALS)
    assert vec == (0, 1, 0, 0, 0, -60)


def test_vanishing_form_validation():
    with pytest.raises(ValueError):
        find_vanishing_form([], CONIC_MONOMIALS)
    with pytest.raises(ValueError):
        find_vanishing_form([(1, 1)], ((1, 0),))  # fewer than two monomials
    with pytest.raises(ValueError):
        find_vanishing_form([(1, 1)], ((1, 0), (1, 0)))  # repeated monomial


def test_minors_singular_examples():
    pts = enumerate_points(HyperbolaSpec(7, 1))
    assert minors_singular_mod(pts, CONIC_MONOMIALS, 7) is True
    unimodular_six = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (1, 2)]
    assert minors_singular_mod(unimodular_six, CONIC_MONOMIALS, 7) is False
    with pytest.raises(ValueError):
        minors_singular_mod(pts[:5], CONIC_MONOMIALS, 7)


def test_minors_singular_on_hyperbola_samples():
    for m, a in [(11, 1), (30, 7), (97, 13), (100, 9)]:
        pts = enumerate_points(HyperbolaSpec(m, a))
        assert minors_singular_mod(pts, CONIC_MONOMIALS, m) is True
        # affine shifts keep the points on a mod-m conic, so stay singular
        assert minors_singular_mod([(x + 1, y) for x, y in pts], CONIC_MONOMIALS, m) is True


def test_minors_vanishing_form_implication():
    # a mod-m vanishing form forces every maximal minor to vanish mod m
    pts = divisor_points(720)
    assert find_vanishing_form(pts, CONIC_MONOMIALS) is not None
    for m in (7, 15, 719, 720):
        assert minors_singular_mod(pts, CONIC_MONOMIALS, m) is True


def test_classify_examples():
    xy1 = classify_conic(ConicForm(0, 1, 0, 0, 0, -1))
    assert (xy1.discriminant, xy1.degenerate, xy1.parabola_like) == (1, False, False)
    par = classify_conic(ConicForm(1, 0, 0, 0, -1, 0))
    assert (par.discriminant, par.degenerate, par.parabola_like) == (0, False, True)
    dg = classify_conic(ConicForm(1, 0, -1, 0, 0, 0))
    assert (dg.discriminant, dg.degenerate, dg.parabola_like) == (4, True, False)


def test_conic_form_normalizes():
    g = ConicForm(0, 2, 0, 0, 0, -24)
    assert g.coeffs == (0, 1, 0, 0, 0, -12)
    with pytest.raises(ValueError):
        ConicForm(0, 0, 0, 0, 0, 0)


def test_count_examples():
    count, sols = count_conic_points_in_box((1, 0, -2, 0, 0, -1), 100)
    assert count == 4
    assert sols == [(1, 0), (3, 2), (17, 12), (99, 70)]
    assert count_conic_points_in_box((0, 1, 0, 0, 0, -12), 12)[0] == 6
    count, sols = count_conic_points_in_box((1, 0, 1, 0, 0, -25), 5)
    assert count == 4
    assert sols == [(0, 5), (3, 4), (4, 3), (5, 0)]


def test_count_rejects_zero_form():
    with pytest.raises(InfiniteFamily):
        count_conic_points_in_box((0, 0, 0, 0, 0, 0), 10)


def test_count_refuses_box_beyond_ceiling():
    # refused before the scan: the line x = 0 has H + 1 solutions
    for H in (ENUMERATION_CEILING + 1, 10**30):
        with pytest.raises(ValueError, match=str(ENUMERATION_CEILING)):
            count_conic_points_in_box((1, 0, 0, 0, 0, 0), H)


def test_count_degenerate_with_vertical_line():
    # x * (y - 3) = 0: the x = 0 column plus the y = 3 row
    count, sols = count_conic_points_in_box((0, 1, 0, -3, 0, 0), 4)
    expected = sorted({(0, y) for y in range(5)} | {(x, 3) for x in range(5)})
    assert sols == expected
    assert count == len(expected)


@settings(max_examples=120, deadline=None)
@given(
    st.tuples(*[st.integers(-6, 6)] * 6).filter(lambda c: any(c)),
    st.integers(0, 40),
)
def test_count_matches_double_loop(coeffs, H):
    assert count_conic_points_in_box(coeffs, H)[1] == brute_count(coeffs, H)


def test_count_matches_double_loop_at_larger_boxes():
    for coeffs in [(1, 0, -2, 0, 0, -1), (2, -3, 1, 0, -5, 4), (0, 1, 0, -7, 2, -9)]:
        assert count_conic_points_in_box(coeffs, 300)[1] == brute_count(coeffs, 300)


def test_conic_points_are_made_lazily_in_order():
    # the first solution of the line x = 0 at the ceiling comes without the
    # other 10^7, which a list would hold in about 1 GiB
    points = conic_points_in_box((1, 0, 0, 0, 0, 0), ENUMERATION_CEILING)
    assert next(points) == (0, 0) and next(points) == (0, 1)
    # the box and the form are refused at the call, before the scan
    with pytest.raises(ValueError, match=str(ENUMERATION_CEILING)):
        conic_points_in_box((1, 0, 0, 0, 0, 0), ENUMERATION_CEILING + 1)
    with pytest.raises(InfiniteFamily):
        conic_points_in_box((0, 0, 0, 0, 0, 0), 10)
    # a negative leading coefficient puts the larger root first
    for coeffs in [(1, 0, 1, 0, 0, -25), (-1, 0, -1, 0, 0, 25), (0, 1, 0, -3, 0, 0), (2, -3, 1, 0, -5, 4)]:
        points = list(conic_points_in_box(coeffs, 60))
        assert points == sorted(brute_count(coeffs, 60)) == count_conic_points_in_box(coeffs, 60)[1], coeffs


def test_pell_counts_grow_slowly():
    counts = [count_conic_points_in_box((1, 0, -2, 0, 0, -1), 10**k)[0] for k in range(1, 5)]
    assert counts == sorted(counts)  # nondecreasing
    assert counts[-1] <= 4 * (1 + math.log10(10**4))  # far below any power of H


def test_poly_roots_examples():
    assert poly_roots_mod([1, 0, -1], 8) == (4, [1, 3, 5, 7])
    assert poly_roots_mod([1, 0, 0], 4) == (2, [0, 2])
    assert poly_roots_mod([1, -3], 7) == (1, [3])
    with pytest.raises(AllZeroMod):
        poly_roots_mod([14, 7], 7)
    with pytest.raises(AllZeroMod):
        poly_roots_mod([], 5)


def test_poly_roots_against_direct_substitution():
    coeffs = [2, -1, 3, 5]
    m = 101
    _, roots = poly_roots_mod(coeffs, m)
    expected = [
        x for x in range(m) if (2 * x**3 - x**2 + 3 * x + 5) % m == 0
    ]
    assert roots == expected
