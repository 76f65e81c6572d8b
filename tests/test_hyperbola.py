import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from modhull import hyperbola
from modhull.hyperbola import (
    ENUMERATION_CEILING,
    HyperbolaSpec,
    count_in_box,
    enumerate_points,
    format_points,
    parse_points,
    predicted_count,
    read_points_file,
    write_points_file,
)
from modhull.ntheory import factorize, mod_inv


def units(m):
    return [a for a in range(1, m) if math.gcd(a, m) == 1]


def test_spec_validation():
    with pytest.raises(ValueError):
        HyperbolaSpec(1, 1)
    with pytest.raises(ValueError):
        HyperbolaSpec(6, 4)  # gcd = 2
    with pytest.raises(ValueError):
        HyperbolaSpec(5, 0)
    with pytest.raises(ValueError):
        HyperbolaSpec(2**31 + 1, 1)  # above the modulus ceiling
    assert HyperbolaSpec(7, -1).a == 6  # reduced into [1, m-1]
    assert HyperbolaSpec(7, 15).a == 1


def test_enumerate_examples():
    assert enumerate_points(HyperbolaSpec(5, 1)) == ((1, 1), (2, 3), (3, 2), (4, 4))
    assert enumerate_points(HyperbolaSpec(2, 1)) == ((1, 1),)
    assert enumerate_points(HyperbolaSpec(5, 2)) == ((1, 2), (2, 1), (3, 4), (4, 3))


def test_enumerate_congruence_and_cardinality():
    for m in list(range(2, 200)) + [720, 1024, 9973]:
        for a in (1, m - 1) if m > 2 else (1,):
            spec = HyperbolaSpec(m, a)
            pts = enumerate_points(spec)
            assert len(pts) == factorize(m).phi
            assert all(1 <= x <= m - 1 and 1 <= y <= m - 1 for x, y in pts)
            assert all(x * y % m == spec.a for x, y in pts)
            assert [x for x, _ in pts] == sorted({x for x, _ in pts})


def test_count_in_box_examples():
    spec = HyperbolaSpec(7, 1)
    assert count_in_box(spec, 3, 5) == 3
    assert count_in_box(spec, 6, 6) == 6
    assert count_in_box(spec, 0, 6) == 0


def test_count_in_box_clamps_and_saturates():
    for m in (7, 12, 101):
        spec = HyperbolaSpec(m, 1)
        phi = factorize(m).phi
        assert count_in_box(spec, m - 1, m - 1) == phi
        assert count_in_box(spec, 10 * m, 10 * m) == phi
        assert count_in_box(spec, -3, m) == 0


def test_count_in_box_monotone():
    spec = HyperbolaSpec(97, 5)
    prev = 0
    for u in range(0, 97):
        cur = count_in_box(spec, u, 60)
        assert cur >= prev
        prev = cur
    prev = 0
    for v in range(0, 97):
        cur = count_in_box(spec, 60, v)
        assert cur >= prev
        prev = cur


def test_count_in_box_brute_force():
    for m, a, U, V in [(7, 1, 3, 5), (30, 7, 11, 25), (101, 13, 40, 90), (36, 5, 36, 17)]:
        spec = HyperbolaSpec(m, a)
        brute = sum(
            1
            for x in range(1, min(U, m - 1) + 1)
            for y in range(1, min(V, m - 1) + 1)
            if x * y % m == spec.a
        )
        assert count_in_box(spec, U, V) == brute


def test_predicted_count_examples():
    spec = HyperbolaSpec(7, 1)
    assert predicted_count(spec, 3, 5) == Fraction(90, 49)
    assert predicted_count(spec, 6, 6) == Fraction(216, 49)
    assert predicted_count(spec, 0, 9) == 0


@settings(max_examples=60)
@given(st.integers(2, 10_000), st.data())
def test_symmetry_memberships(m, data):
    a = data.draw(st.sampled_from(units(m)) if m > 2 else st.just(1))
    spec = HyperbolaSpec(m, a)
    pts = enumerate_points(spec)
    sample = pts[:: max(1, len(pts) // 16)]
    swap = lambda x, y: (y, x)  # maps H_a(m) to itself
    negate = lambda x, y: (m - x, m - y)  # maps H_a(m) to itself
    reflect_y = lambda x, y: (x, m - y)  # maps H_a(m) to H_{m-a}(m)
    for p in sample:
        sw = swap(*p)
        ne = negate(*p)
        ry = reflect_y(*p)
        assert sw[0] * sw[1] % m == spec.a
        assert ne[0] * ne[1] % m == spec.a
        assert ry[0] * ry[1] % m == (m - spec.a) % m
        # involutions
        assert swap(*sw) == p
        assert negate(*ne) == p
        assert reflect_y(*ry) == p


def test_point_text_roundtrip():
    pts = ((1, 2), (30, 4), (5, 996))
    text = format_points(pts)
    assert text == "1 2\n30 4\n5 996\n"
    assert parse_points(text) == pts
    # any whitespace separates the two integers; a bad token count or a
    # token that is no integer names its line
    assert parse_points("1\t2\n\n  3   4 \n") == ((1, 2), (3, 4))
    for line in ("3 x", "3", "3 4 5", "3 4.0"):
        with pytest.raises(ValueError, match=re.escape(f"line 2: expected two integers, got {line!r}")):
            parse_points(f"1 2\n{line}\n")


def test_point_file_roundtrip(tmp_path):
    pts = tuple(enumerate_points(HyperbolaSpec(13, 5)))
    path = tmp_path / "points.txt"
    write_points_file(path, pts)
    assert path.read_bytes() == format_points(pts).encode("ascii")
    assert read_points_file(path) == pts
    # blank lines are skipped; a bad line is named by its number in the file
    path.write_text("1 2\n\n   \n3 4\n", encoding="ascii")
    assert read_points_file(path) == ((1, 2), (3, 4))
    path.write_text("1 2\n\n3 4 5\n", encoding="ascii")
    with pytest.raises(ValueError, match=re.escape("line 3: expected two integers, got '3 4 5'")):
        read_points_file(path)


def test_enumeration_ceiling_fires_before_allocating(monkeypatch):
    # the inverse table is where enumeration allocates; above the ceiling
    # it must never be reached
    calls = []
    monkeypatch.setattr(hyperbola, "_full_inverse_table", lambda m: calls.append(m) or ())
    for m in (ENUMERATION_CEILING + 1, 2**31):
        with pytest.raises(ValueError, match="enumeration is limited"):
            enumerate_points(HyperbolaSpec(m, 1))
    assert calls == []
    assert enumerate_points(HyperbolaSpec(ENUMERATION_CEILING, 1)) == ()  # allowed up to the ceiling
    assert calls == [ENUMERATION_CEILING]


def test_box_count_inverts_in_bounded_chunks(monkeypatch):
    # one batched inversion per chunk of x, so memory does not grow with U
    lengths = []
    real = hyperbola.batch_mod_inv
    monkeypatch.setattr(hyperbola, "batch_mod_inv", lambda xs, m: lengths.append(len(xs)) or real(xs, m))
    m, a = 999_999, 2  # 3^3 * 7 * 11 * 13 * 37: chunks skip the non-units
    U = 6 * hyperbola._COUNT_CHUNK + 123
    unit_xs = [x for x in range(1, U + 1) if math.gcd(x, m) == 1]
    for V in (1, m // 3, m - 1):
        lengths.clear()
        assert count_in_box(HyperbolaSpec(m, a), U, V) == sum(1 for x in unit_xs if a * mod_inv(x, m) % m <= V)
        assert max(lengths) <= hyperbola._COUNT_CHUNK and sum(lengths) == len(unit_xs)


def test_box_count_ceiling_fires_before_allocating(monkeypatch):
    # the inverse chunks are where box counting allocates; above the ceiling
    # (after U is clamped to m - 1) they must never be built
    calls = []
    monkeypatch.setattr(hyperbola, "_unit_inverses", lambda m, upper: calls.append(upper) or [])
    big = HyperbolaSpec(2**31 - 1, 1)
    for U in (ENUMERATION_CEILING + 1, 2**31 - 2, 2**40):
        with pytest.raises(ValueError, match="box counts are limited"):
            count_in_box(big, U, 5)
    assert calls == []
    assert count_in_box(big, ENUMERATION_CEILING, 5) == 0  # allowed up to the ceiling
    assert calls == [ENUMERATION_CEILING]
    count_in_box(HyperbolaSpec(7, 1), 2**40, 5)  # a small modulus clamps U to 6 first
    assert calls[-1] == 6
