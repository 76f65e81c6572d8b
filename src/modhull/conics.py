"""Integer linear algebra on monomial evaluation matrices and exact
counting of integral points on quadratic curves.

One integer elimination serves both questions asked of an evaluation
matrix: _echelon brings it to row echelon form with Euclidean row steps,
which are invertible over Z.  find_vanishing_form back-substitutes in
integers on that form to recover, when one exists, an integer combination
of prescribed monomials vanishing at every input point (e.g. the conic
through divisor pairs of a fixed product); minors_singular_mod reads the gcd
of all maximal minors off its diagonal and asks whether it is 0 modulo m.
The counting side is deliberately brute force: it is the desk-scale oracle
the rest of the package checks sparse-solution claims against.
"""

import math
from typing import NamedTuple, Sequence

from .hyperbola import ENUMERATION_CEILING, Point
from .ntheory import _Checked

__all__ = [
    "InfiniteFamily",
    "AllZeroMod",
    "ConicForm",
    "ConicClass",
    "CONIC_MONOMIALS",
    "find_vanishing_form",
    "minors_singular_mod",
    "classify_conic",
    "count_conic_points_in_box",
    "poly_roots_mod",
]

Monomial = tuple[int, int]

# X^2, XY, Y^2, X, Y, 1 -- the standard quadratic basis
CONIC_MONOMIALS: tuple[Monomial, ...] = ((2, 0), (1, 1), (0, 2), (1, 0), (0, 1), (0, 0))


class InfiniteFamily(ValueError):
    """The identically-zero form vanishes everywhere; counting is meaningless."""


class AllZeroMod(ValueError):
    """Every polynomial coefficient is divisible by the modulus."""


def _check_monomials(monos: Sequence[Monomial]) -> None:
    if not monos:
        raise ValueError("need at least one monomial")
    if len(set(monos)) != len(monos):
        raise ValueError("monomials must be pairwise distinct")
    for h, k in monos:
        if h < 0 or k < 0:
            raise ValueError(f"negative exponent in monomial {(h, k)}")


def _eval_matrix(points: Sequence[Point], monos: Sequence[Monomial]) -> list[list[int]]:
    return [[x**h * y**k for h, k in monos] for x, y in points]


def find_vanishing_form(
    points: Sequence[Point], monos: Sequence[Monomial]
) -> tuple[int, ...] | None:
    """Primitive integer vector A with sum(A_i * mono_i) = 0 at every point,
    or None when the evaluation matrix has full column rank.

    Back substitution in integers on the echelon form of _echelon: the first
    free column is set to 1 and the others to 0, and each pivot row is solved
    after scaling the vector just enough to keep it integral.  A kernel
    vector is fixed by its free entries, so this is the kernel vector of the
    reduced row echelon form over Q, up to a scalar; the result is divided by
    its gcd and its first nonzero entry made positive.
    """
    _check_monomials(monos)
    s = len(monos)
    if s < 2:
        raise ValueError("need at least two monomials")
    if not points:
        raise ValueError("need at least one point")
    mat = _eval_matrix(points, monos)
    pivots = _echelon(mat, s)
    if len(pivots) == s:
        return None

    vec = [0] * s
    vec[next(c for c in range(s) if c not in pivots)] = 1
    for row, col in reversed(list(zip(mat, pivots))):
        num = -sum(row[j] * vec[j] for j in range(col + 1, s))
        scale = row[col] // math.gcd(num, row[col])
        vec = [v * scale for v in vec]
        vec[col] = num * scale // row[col]

    g = math.gcd(*vec)
    vec = [v // g for v in vec]
    lead = next(v for v in vec if v != 0)
    if lead < 0:
        vec = [-v for v in vec]
    return tuple(vec)


def minors_singular_mod(points: Sequence[Point], monos: Sequence[Monomial], m: int) -> bool:
    """True iff every s x s minor of the evaluation matrix is 0 mod m.

    The gcd of all maximal minors is invariant under the integer row steps
    of _echelon, so it is 0 below s pivots and otherwise the absolute value
    of the product of the s diagonal pivots.
    """
    _check_monomials(monos)
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    s = len(monos)
    if len(points) < s:
        raise ValueError(f"need at least {s} points, got {len(points)}")
    mat = _eval_matrix(points, monos)
    return len(_echelon(mat, s)) < s or math.prod(mat[i][i] for i in range(s)) % m == 0


def _echelon(mat: list[list[int]], s: int) -> list[int]:
    """Bring a K x s integer matrix to row echelon form in place with
    Euclidean row steps; return the pivot column of each nonzero row.

    Each step swaps two rows or subtracts an integer multiple of one row
    from another, so it is invertible over Z.  The row space over Q is
    therefore unchanged, and with it the pivot columns and the kernel; so
    is the gcd of the s x s minors (Cohen, GTM 138, section 2.4).
    """
    K = len(mat)
    pivots: list[int] = []
    for col in range(s):
        row = len(pivots)
        while True:
            nz = [i for i in range(row, K) if mat[i][col] != 0]
            if len(nz) <= 1:
                break
            piv = min(nz, key=lambda i: abs(mat[i][col]))
            for i in nz:
                if i == piv:
                    continue
                q = mat[i][col] // mat[piv][col]
                if q:
                    mat[i] = [a - q * b for a, b in zip(mat[i], mat[piv])]
        if nz:
            mat[row], mat[nz[0]] = mat[nz[0]], mat[row]
            pivots.append(col)
    return pivots


class _ConicForm(NamedTuple):
    A: int
    B: int
    C: int
    D: int
    E: int
    F: int


class ConicForm(_Checked, _ConicForm):
    """Primitive integer quadratic form A X^2 + B XY + C Y^2 + D X + E Y + F.

    Coefficients are divided by their gcd at construction; the all-zero
    form is rejected.
    """

    __slots__ = ()

    def __new__(cls, A: int, B: int, C: int, D: int, E: int, F: int):
        coeffs = (A, B, C, D, E, F)
        if not any(coeffs):
            raise ValueError("the zero form is not a conic")
        g = math.gcd(*coeffs)
        if g > 1:
            coeffs = tuple(v // g for v in coeffs)
        return tuple.__new__(cls, coeffs)

    @property
    def coeffs(self) -> tuple[int, int, int, int, int, int]:
        return (self.A, self.B, self.C, self.D, self.E, self.F)

    @property
    def discriminant(self) -> int:
        return self.B * self.B - 4 * self.A * self.C

    def evaluate(self, x: int, y: int) -> int:
        return (
            self.A * x * x + self.B * x * y + self.C * y * y + self.D * x + self.E * y + self.F
        )


class ConicClass(NamedTuple):
    discriminant: int
    degenerate: bool
    parabola_like: bool


def classify_conic(g: ConicForm) -> ConicClass:
    """Discriminant B^2 - 4AC, degeneracy via the 3x3 form matrix, and the
    parabola flag (zero discriminant while nondegenerate)."""
    A, B, C, D, E, F = g.coeffs
    det3 = (
        2 * A * (2 * C * 2 * F - E * E)
        - B * (B * 2 * F - E * D)
        + D * (B * E - 2 * C * D)
    )
    disc = g.discriminant
    degenerate = det3 == 0
    return ConicClass(
        discriminant=disc,
        degenerate=degenerate,
        parabola_like=disc == 0 and not degenerate,
    )


def count_conic_points_in_box(
    g: ConicForm | Sequence[int], H: int
) -> tuple[int, list[Point]]:
    """Exact count (and list) of integral solutions of g = 0 in [0, H]^2.

    Scans x and solves the remaining quadratic (or linear) equation in y
    with exact integer square-root tests.  Raises ValueError when H exceeds
    ENUMERATION_CEILING, before the scan.
    """
    if not isinstance(g, ConicForm):
        coeffs = tuple(int(v) for v in g)
        if len(coeffs) != 6:
            raise ValueError("expected six coefficients A B C D E F")
        if not any(coeffs):
            raise InfiniteFamily("the zero form vanishes on the whole box")
        g = ConicForm(*coeffs)
    if H < 0:
        raise ValueError("box size H must be >= 0")
    # The line x = 0 has H + 1 solutions, about 100 bytes each: 115 MiB RSS
    # at H = 10^6 and 1011 MiB at the ceiling (CPython 3.11, 64-bit Linux).
    if H > ENUMERATION_CEILING:
        raise ValueError(f"conic counts are limited to H <= {ENUMERATION_CEILING}, got H = {H}")
    A, B, C, D, E, F = g.coeffs
    sols: list[Point] = []
    for x in range(H + 1):
        qa = C
        qb = B * x + E
        qc = A * x * x + D * x + F
        if qa != 0:
            disc = qb * qb - 4 * qa * qc
            if disc < 0:
                continue
            root = math.isqrt(disc)
            if root * root != disc:
                continue
            for num in {-qb + root, -qb - root}:
                if num % (2 * qa) == 0:
                    y = num // (2 * qa)
                    if 0 <= y <= H:
                        sols.append((x, y))
        elif qb != 0:
            if qc % qb == 0:
                y = -qc // qb
                if 0 <= y <= H:
                    sols.append((x, y))
        elif qc == 0:
            sols.extend((x, y) for y in range(H + 1))
    sols.sort()
    return len(sols), sols


def poly_roots_mod(coeffs: Sequence[int], m: int) -> tuple[int, list[int]]:
    """Roots in [0, m-1] of the polynomial with the given coefficients
    (highest degree first), found by direct evaluation.

    Raises AllZeroMod when every coefficient vanishes mod m (every residue
    would be a root).
    """
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    cs = [c % m for c in coeffs]
    if not cs or not any(cs):
        raise AllZeroMod("all coefficients divisible by the modulus")
    roots = []
    for x in range(m):
        acc = 0
        for c in cs:
            acc = (acc * x + c) % m
        if acc == 0:
            roots.append(x)
    return len(roots), roots
