"""The point set H_a(m) = {(x, y) : xy = a (mod m), 1 <= x, y <= m-1},
exact box counts, and the equidistribution main term.

Points are plain (x, y) integer tuples; a PointSet is a sorted tuple of
them.  A shared one-point-per-line text format ("x y\\n") is provided for
interchange with the conic-fitting tools and the CLI.
"""

import math
from collections.abc import Iterator
from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple

from .ntheory import _Checked, batch_mod_inv, factorize

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "MODULUS_CEILING",
    "ENUMERATION_CEILING",
    "Point",
    "PointSet",
    "HyperbolaSpec",
    "enumerate_points",
    "count_in_box",
    "predicted_count",
    "format_points",
    "parse_points",
    "write_points_file",
    "read_points_file",
]

Point = tuple[int, int]
PointSet = tuple[Point, ...]

# Supported modulus range.  Geometry stays exact at any size (Python ints);
# the certified hull search factors the numbers a + m*l <= c, where the
# accepted cutoff c is a small multiple of m (at most 32*m over 14,900
# pairs with m <= 3000 and 800 random pairs with m <= 2**31), far inside
# the factoring ceiling 2**63.
MODULUS_CEILING = 2**31

# Largest modulus enumerate_points accepts, largest (clamped) U that
# count_in_box accepts, and largest box side H that
# conics.count_conic_points_in_box accepts.  Enumeration holds phi(m) point
# tuples plus the cached inverse table, about 180 bytes a point: one call
# at m = 9999991 peaked at 1780 MiB RSS.  count_in_box holds one chunk of
# _COUNT_CHUNK values of x at a time (a 5.0 MiB tracemalloc peak at
# m = 2^31 - 1 with U = 10^5 and 10^6), so for it the ceiling bounds the
# run time, about 0.9 s per 10^6 values of x.  CPython 3.11, 64-bit Linux.
ENUMERATION_CEILING = 10**7

# x values inverted in one batch, by count_in_box and by enumeration
_COUNT_CHUNK = 2**15


class _HyperbolaSpec(NamedTuple):
    m: int
    a: int


class HyperbolaSpec(_Checked, _HyperbolaSpec):
    """Modulus m and residue a, with a reduced into [1, m-1] and gcd(a, m) = 1."""

    __slots__ = ()

    def __new__(cls, m: int, a: int):
        if not 2 <= m <= MODULUS_CEILING:
            raise ValueError(f"modulus must be in [2, 2**31], got {m}")
        r = a % m
        if math.gcd(r, m) != 1:
            raise ValueError(f"residue {a} is not coprime to {m}")
        return tuple.__new__(cls, (m, r))


def _unit_inverses(m: int, upper: int) -> Iterator[tuple[list[int], list[int]]]:
    """The units x <= upper and their inverses mod m, in order of x, as one
    batched (units, inverses) pair per _COUNT_CHUNK values of x."""
    for lo in range(1, upper + 1, _COUNT_CHUNK):
        xs = [x for x in range(lo, min(lo + _COUNT_CHUNK, upper + 1)) if math.gcd(x, m) == 1]
        yield xs, batch_mod_inv(xs, m)


@lru_cache(maxsize=1)
def _full_inverse_table(m: int) -> tuple[tuple[list[int], list[int]], ...]:
    # Sweeps visit several residues per modulus; share the inversion pass.
    # Every caller (sweep records and fast_hull below ENUMERATE_BELOW,
    # verify_against_naive, modhull verify, the bench oracle) visits one
    # modulus's residues in a row, so only the last table is reused and an
    # older one would only hold memory.
    return tuple(_unit_inverses(m, m - 1))


def enumerate_points(spec: HyperbolaSpec) -> PointSet:
    """All phi(m) points of H_a(m), sorted by x (one point per unit x).

    Raises ValueError above ENUMERATION_CEILING, before allocating anything.
    """
    m, a = spec.m, spec.a
    if m > ENUMERATION_CEILING:
        raise ValueError(f"enumeration is limited to m <= {ENUMERATION_CEILING} (~180 bytes a point), got m = {m}")
    return tuple((x, a * inv % m) for xs, invs in _full_inverse_table(m) for x, inv in zip(xs, invs))


def count_in_box(spec: HyperbolaSpec, U: int, V: int) -> int:
    """Exact number of H_a(m) points in [1, U] x [1, V].  U, V clamp to [0, m-1].

    Raises ValueError when the clamped U exceeds ENUMERATION_CEILING, before
    allocating anything.
    """
    m, a = spec.m, spec.a
    U = max(0, min(U, m - 1))
    V = max(0, min(V, m - 1))
    if U > ENUMERATION_CEILING:
        raise ValueError(f"box counts are limited to U <= {ENUMERATION_CEILING}, got U = {U}")
    if U == 0 or V == 0:
        return 0
    return sum(1 for _, invs in _unit_inverses(m, U) for inv in invs if a * inv % m <= V)


def predicted_count(spec: HyperbolaSpec, U: int, V: int) -> "Fraction":
    """Main term U*V*phi(m)/m**2 of the box count, as an exact rational.

    Uses the same clamping as count_in_box so the two are directly comparable.
    """
    m = spec.m
    U = max(0, min(U, m - 1))
    V = max(0, min(V, m - 1))
    from fractions import Fraction  # here, not at import: it loads decimal, and only `modhull count` asks

    return Fraction(U * V * factorize(m).phi, m * m)


# --- shared point-list text format: one "x y" pair per line ---


def format_points(points: PointSet) -> str:
    return "".join(f"{x} {y}\n" for x, y in points)


def parse_points(text: str) -> PointSet:
    points = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        try:
            if line.strip():  # blank lines are skipped
                x, y = map(int, line.split())
                points.append((x, y))
        except ValueError:  # a token count other than two, or a token that is no integer
            raise ValueError(f"line {lineno}: expected two integers, got {line!r}") from None
    return tuple(points)


def write_points_file(path, points: PointSet) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(format_points(points))


def read_points_file(path) -> PointSet:
    with open(path, "r", encoding="ascii") as fh:
        return parse_points(fh.read())
