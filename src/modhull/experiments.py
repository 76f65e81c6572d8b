"""Batch sweeps of vertex counts v_a(m) over modulus ranges, the
lower-bound census v_1(m) >= 2*(tau(m-1) - 1), exponent summaries, and an
append-only cache that keeps every record of interrupted and concurrent sweeps.

One walk over (m, a) pairs, APolicy.tasks, serves the sweep, the census and
`modhull verify`, and holds the one check of a modulus range.  A record is a
SweepRecord tuple: its values in column order fill the CSV row.  A hull
gives v, candidate_count and elapsed_ns; every other column depends on m and
v alone.  A cache line holds m, a, those three integers and the version, and
run_sweep builds every record, computed or replayed, at one call of _record,
from the three integers and the columns of m, derived once per modulus.
run_sweep uses a cache only when it is given a cache file.

Reproducibility contract: identical inputs (range, policy, seed) produce
identical records, and a warm cache replays timing fields verbatim, so
repeated sweeps emit byte-identical CSV.  Residue sampling
uses an explicit splitmix64 stream so seeds mean the same thing on every
platform.
"""

import contextlib
import math
import os
import re
import time
from functools import lru_cache
from itertools import compress
from operator import itemgetter
from pathlib import Path
from typing import Iterator, NamedTuple

from ._version import __version__
from .geometry import convex_hull
from .hullfast import ENUMERATE_BELOW, _certified_hull, hull_method
from .hyperbola import HyperbolaSpec, enumerate_points
from .ntheory import Factorization, _Checked, factorize

__all__ = [
    "CACHE_ENV",
    "SWEEP_CEILING",
    "CSV_COLUMNS",
    "SplitMix64",
    "APolicy",
    "SweepRecord",
    "compute_record",
    "run_sweep",
    "records_to_csv",
    "write_csv",
    "lower_bound_census",
    "exponent_summary",
    "render_exponent_summary",
    "default_cache_file",
]

CACHE_ENV = "MODHULL_CACHE_DIR"

# The most records one sweep may hold, bounded from its arguments before it
# builds anything (APolicy.max_count).  A sweep holds every record, its
# task lists, the cache dict of hull columns (each freed as its record is
# built) and the CSV text at once: `modhull sweep --a-policy all` over m in
# [3, 300] and [3, 700] (27,396 and 149,016 records) peaked at 29.4 and
# 91.6 MiB RSS cold and 28.3 and 91.6 MiB on the warm replay, under 650
# bytes a record, so at the ~900 bytes a record that the refusal names the
# ceiling is about the 1.8 GB that ENUMERATION_CEILING allows.  CPython
# 3.11, 64-bit Linux.
SWEEP_CEILING = 2 * 10**6

_MASK64 = (1 << 64) - 1


def _mix64(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 33)) * 0xFF51AFD7ED558CCD) & _MASK64
    z = ((z ^ (z >> 33)) * 0xC4CEB9FE1A85EC53) & _MASK64
    return z ^ (z >> 33)


class SplitMix64:
    """The splitmix64 generator; fixed here so seeded runs are portable."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        return self.next() % n


class _APolicy(NamedTuple):
    kind: str  # "one" | "all" | "sample"
    k: int
    seed: int


class APolicy(_Checked, _APolicy):
    """Which residues a to visit per modulus: a=1 only, all units, or a
    seeded sample of k distinct units."""

    __slots__ = ()

    def __new__(cls, kind: str, k: int = 0, seed: int = 0):
        if kind not in ("one", "all", "sample"):
            raise ValueError(f"unknown policy kind {kind!r}")
        if kind == "sample" and k < 1:
            raise ValueError("sample policy needs k >= 1")
        return tuple.__new__(cls, (kind, k, seed))

    @staticmethod
    def parse(text: str, seed: int = 0) -> "APolicy":
        if text in ("one", "all"):
            return APolicy(text)
        if text.startswith("sample:"):
            try:
                k = int(text.removeprefix("sample:"))
            except ValueError:
                pass  # not a count: the text is no policy
            else:
                return APolicy("sample", k=k, seed=seed)
        raise ValueError(f"bad a-policy {text!r}; expected one|all|sample:K")

    def max_count(self, m_min: int, m_max: int) -> int:
        """An upper bound on the residues visited over m in [m_min, m_max],
        from the arguments alone: the units mod m number at most m - 1, and a
        sample holds at most k of them."""
        r = m_max - m_min + 1
        if self.kind == "one":
            return r
        every = r * (m_min + m_max - 2) // 2
        return every if self.kind == "all" else min(r * self.k, every)

    def a_values(self, m: int) -> list[int]:
        if self.kind == "one":
            return [1]
        if self.kind == "all":
            return [a for a in range(1, m) if math.gcd(a, m) == 1]
        return sample_coprime(m, self.k, self.seed)

    def tasks(self, m_min: int, m_max: int) -> Iterator[tuple[int, int]]:
        """The (m, a) pairs over m in [m_min, m_max] in (m, a) order, made
        lazily.  A bad range, or one past MODULUS_CEILING, is refused at the
        call, before any residue list or record."""
        if not 2 <= m_min <= m_max:
            raise ValueError(f"bad modulus range [{m_min}, {m_max}]")
        HyperbolaSpec(m_max, 1)  # its refusal of m_max > MODULUS_CEILING, now, not at m_max's record
        return ((m, a) for m in range(m_min, m_max + 1) for a in self.a_values(m))


def sample_coprime(m: int, k: int, seed: int) -> list[int]:
    """k distinct units mod m, deterministic in (m, k, seed), sorted; all
    phi(m) of them when k >= phi(m)."""
    # phi(n) >= sqrt(n/2) for n >= 1: the factor 2^e of n gives
    # 2^(e-1) >= 2^(e/2)/sqrt(2), and each odd p^e gives p^(e-1)*(p-1) >=
    # p^(e/2).  So 2*k*k <= m means k <= phi(m), and m need not be factorized.
    if 2 * k * k > m:
        k = min(k, factorize(m).phi)  # no draws are spent once every unit is held
    rng = SplitMix64(_mix64(seed) ^ _mix64(m))
    chosen: set[int] = set()
    attempts = 0
    while len(chosen) < k and attempts < 64 * (k + 1):
        a = 1 + rng.below(m - 1) if m > 2 else 1
        attempts += 1
        if math.gcd(a, m) == 1:
            chosen.add(a)
    a = 1
    while len(chosen) < k and a < m:  # dense fallback for tiny moduli
        if math.gcd(a, m) == 1:
            chosen.add(a)
        a += 1
    return sorted(chosen)


class SweepRecord(NamedTuple):
    """One sweep record.  The field declarations are the whole schema: the
    CSV columns and the CSV row format.  The record is the tuple of its
    values, in column order."""

    m: int
    a: int
    v: int
    phi: int
    tau_m_minus_1: int
    kernel: int
    t: int
    squarefree: bool
    exponent: float
    norm512: float
    method: str
    candidate_count: int
    elapsed_ns: int


CSV_COLUMNS = SweepRecord._fields
_FIELD_TYPES = tuple(map(SweepRecord.__annotations__.get, CSV_COLUMNS))
# booleans print as 0/1 and reals to six significant digits
_ROW_FORMAT = ",".join({int: "%d", bool: "%d", float: "%.6g", str: "%s"}[t] for t in _FIELD_TYPES)
# a cache line, "m a v candidate_count elapsed_ns version\n", one space apart:
# the columns a hull gives, then the version, last so that a line torn short
# of its end never matches _line_pattern
_LINE_FORMAT = b"%d %d %d %d %d " + __version__.encode() + b"\n"


@lru_cache(maxsize=2)
def _factorize(n: int) -> Factorization:
    # _modulus_stats factorizes m - 1, then m: over moduli in increasing
    # order, as a sweep and the census visit them, the m of one modulus is
    # the m - 1 of the next.  In the other order m would be the older entry,
    # dropped before it is asked for.
    return factorize(n)


@lru_cache(maxsize=1)  # the records of one modulus are built in a row
def _modulus_stats(m: int) -> tuple:
    """The columns of a record of modulus m that do not depend on a or v:
    phi(m), tau(m - 1), the kernel of m, t, squarefree and method, then
    log m and t*m^(5/12), the divisors of exponent and norm512."""
    tau_m_minus_1 = _factorize(m - 1).tau
    f = _factorize(m)
    kernel = f.kernel
    t = m // kernel
    return f.phi, tau_m_minus_1, kernel, t, kernel == m, hull_method(m), math.log(m), t * m ** (5.0 / 12.0)


def _record(m: int, a: int, hull: tuple[int, int, int]) -> SweepRecord:
    """The record of (m, a) whose hull gave (v, candidate_count, elapsed_ns):
    every other column depends on m and v alone, and _modulus_stats derives
    those of m once for the records of m built in a row."""
    v, candidate_count, elapsed_ns = hull
    phi, tau_m_minus_1, kernel, t, squarefree, method, log_m, t_m512 = _modulus_stats(m)
    exponent = math.log(v) / log_m if v > 1 else 0.0
    # SweepRecord(...) without the keyword handling of its __new__
    return tuple.__new__(
        SweepRecord,
        (m, a, v, phi, tau_m_minus_1, kernel, t, squarefree, exponent, v / t_m512, method, candidate_count, elapsed_ns),
    )


def _hull(m: int, a: int) -> tuple[int, int, int]:
    """The columns a hull of H_a(m) gives: v, candidate_count and
    elapsed_ns, all three from one hull.  Below ENUMERATE_BELOW it hulls
    every point through this module's convex_hull, the binding the bench's
    self-check corrupts; from there on it keeps the polygon the certified
    search accepted.  Module-level, so that a worker process can run it."""
    spec = HyperbolaSpec(m, a)
    start = time.perf_counter_ns()
    if m < ENUMERATE_BELOW:
        points = enumerate_points(spec)
        poly = convex_hull(points, mirror=m)  # see hullfast._corner_points
    else:
        poly, points = _certified_hull(spec)
    return poly.vertex_count, len(points), time.perf_counter_ns() - start


def compute_record(m: int, a: int) -> SweepRecord:
    """One sweep record: hull vertex count plus the arithmetic statistics of m."""
    hull = _hull(m, a)  # refuses a bad (m, a) before a % m is taken
    return _record(m, a % m, hull)


# --- cache: one line per record, appended as each record is computed ---


def default_cache_file() -> Path:
    return Path(os.environ.get(CACHE_ENV, ".modhull_cache")) / "sweep-cache.txt"


def _load_cache(path: Path, m_min: int, m_max: int) -> dict[tuple[int, int], tuple[int, int, int]]:
    """The hull columns (v, candidate_count, elapsed_ns) of this version with
    m in [m_min, m_max] in the cache file, keyed by (m, a).  A line replays
    when it is spelled as _LINE_FORMAT spells it: five decimal integers
    without leading zeros, of at most 19 digits, m, a, v and candidate_count
    at least 1, then this version, one space apart.  Every line run_sweep
    writes replays to the integers that wrote it.  Any other line is skipped
    and its hull computed again: a torn line, one of another version, and
    also other spacing or a CRLF line end.  A line of another modulus is
    passed over before its other integers are read.  Of two lines with one
    key the later wins.  A missing file is an empty cache.

    The file is read in blocks of whole lines, each matched by one findall,
    so memory stays flat however long the file."""
    out: dict[tuple[int, int], tuple[int, int, int]] = {}
    try:
        fh = open(path, "rb")
    except FileNotFoundError:  # also when it is removed while a sweep starts
        return out
    findall = _line_pattern().findall
    in_range = range(m_min, m_max + 1).__contains__
    with fh:
        while block := fh.read(_BLOCK_BYTES):
            rows = findall(block + fh.readline())  # the block ends with a whole line
            if rows := list(compress(rows, map(in_range, map(int, map(_FIRST, rows))))):
                m, a, *hull = (map(int, column) for column in zip(*rows))
                out.update(zip(zip(m, a), zip(*hull)))
    return out


_BLOCK_BYTES = 1 << 16
_FIRST = itemgetter(0)


@lru_cache(maxsize=1)
def _line_pattern() -> re.Pattern:
    """The pattern of a cache line, one group per integer.  Compiled on the
    first load, not at import."""
    count = rb"([1-9][0-9]{0,18})"  # 19 digits at most: int() raises past 4300
    version = re.escape(__version__.encode())
    return re.compile(rb"^%s %s %s %s (0|[1-9][0-9]{0,18}) %s$" % (count, count, count, count, version), re.M)


def _open_for_append(path: Path):
    """The cache file, unbuffered and in append mode: each write() is one
    system call, so the lines of two sweeps appending at once never mix."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    fh = open(path, "a+b", buffering=0)  # positioned at the end of the file
    fh.seek(max(fh.tell() - 1, 0))
    if fh.read(1) not in (b"", b"\n"):
        fh.write(b"\n")  # end a line torn by a killed sweep
    return fh


def run_sweep(
    m_min: int,
    m_max: int,
    policy: APolicy,
    workers: int = 1,
    cache_file: Path | None = None,
) -> list[SweepRecord]:
    """One record per (m, a) over m in [m_min, m_max], ordered by (m, a).

    With a cache_file, its records are replayed verbatim (including
    timings); with None, every record is computed and nothing is written.
    Misses are computed, possibly across worker processes (at most one per
    CPU, whatever larger number is asked for), and each one is appended to
    the cache as it arrives, so an interrupted sweep keeps what it computed.

    A missing (m, a) with m - a < a whose partner (m, m - a) is cached or
    among the sweep's tasks is not hulled: it takes the partner's three
    hull columns verbatim.  The lattice map (x, y) -> (x, m - y), of
    determinant -1, carries H_a(m) onto H_{m-a}(m), since x*(m - y) = -a
    mod m, and the hull of the one onto the hull of the other, so v is the
    same.  So is candidate_count: below ENUMERATE_BELOW both hull all phi(m)
    points, and above it _corner_points walks the progressions a + m*l and
    (m - a) + m*l for both residues, with their roles swapped, so each round
    of the one search finds the mirror images of the other's points; f and K
    are invariant under the map, so both certificates accept in the same
    round.  elapsed_ns is the time of the one hull the two share.  The
    mirror lines are written here, in (m, a) order after their partners, so
    the serial and the parallel sweep append the same lines.

    Every record is built at the end, in (m, a) order, from its hull's
    three integers and the columns of m, derived once per modulus.
    """
    walk = policy.tasks(m_min, m_max)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if (n := policy.max_count(m_min, m_max)) > SWEEP_CEILING:  # before any list is built
        raise ValueError(f"sweeps are limited to {SWEEP_CEILING} records (~900 bytes a record), this one may have {n}")
    tasks = list(walk)
    cache = _load_cache(cache_file, m_min, m_max) if cache_file is not None else {}

    missing = [task for task in tasks if task not in cache]
    if missing:
        held = cache.keys() | missing  # a missing partner is hulled, before its mirror
        mirrored = {(m, a) for m, a in missing if m - a < a and (m, m - a) in held}
        hulled = [task for task in missing if task not in mirrored]
        columns = tuple(zip(*hulled)) or ((), ())  # the m and a columns, empty when nothing is hulled
        with contextlib.ExitStack() as stack:
            if workers > 1:
                from concurrent.futures import ProcessPoolExecutor

                pool = ProcessPoolExecutor(max_workers=min(workers, os.cpu_count() or 1))
                stack.callback(pool.shutdown, cancel_futures=True)  # on error, drop queued tasks
                computed = pool.map(_hull, *columns, chunksize=8)
            else:
                computed = map(_hull, *columns)
            out = stack.enter_context(_open_for_append(cache_file)) if cache_file is not None else None
            for m, a in missing:  # in (m, a) order: a mirror follows its partner
                hull = cache[m, a] = cache[m, m - a] if (m, a) in mirrored else next(computed)
                if out is not None:
                    out.write(_LINE_FORMAT % (m, a, *hull))
    # popped: each hull's columns are freed as its record is built
    return [_record(m, a, cache.pop((m, a))) for m, a in tasks]


def records_to_csv(records: list[SweepRecord]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    lines.extend(_ROW_FORMAT % rec for rec in records)
    return "\n".join(lines) + "\n"


def write_csv(path, records: list[SweepRecord]) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(records_to_csv(records))


def lower_bound_census(m_min: int, m_max: int) -> tuple[list[tuple[int, int, int]], int]:
    """Check v_1(m) >= 2*(tau(m-1) - 1) over the range.

    Returns (violations, equality_count); violations hold (m, v, bound) and
    must be empty for every m >= 3.
    """
    violations = []
    equality = 0
    for m, a in APolicy("one").tasks(m_min, m_max):
        rec = compute_record(m, a)
        bound = 2 * (rec.tau_m_minus_1 - 1)
        if rec.v < bound:
            violations.append((m, rec.v, bound))
        elif rec.v == bound:
            equality += 1
    return violations, equality


def _stats(records: list[SweepRecord]) -> dict:
    n = len(records)
    exponents = list(map(_EXPONENT, records))
    norms = list(map(_NORM512, records))
    return {
        "count": n,
        "max_exponent": max(exponents),
        "mean_exponent": sum(exponents) / n,
        "max_norm512": max(norms),
        "mean_norm512": sum(norms) / n,
    }


_EXPONENT = itemgetter(CSV_COLUMNS.index("exponent"))
_NORM512 = itemgetter(CSV_COLUMNS.index("norm512"))


def exponent_summary(records: list[SweepRecord]) -> dict:
    """Max/mean of ln(v)/ln(m) and of v/(t*m^(5/12)), overall and grouped by
    squarefree flag and dyadic modulus range."""
    if not records:
        raise ValueError("no records to summarize")
    by_sf: dict[str, list[SweepRecord]] = {}
    by_dyadic: dict[int, list[SweepRecord]] = {}  # j -> the records with 2^j <= m < 2^(j+1)
    for r in records:
        by_sf.setdefault("squarefree" if r.squarefree else "non_squarefree", []).append(r)
        by_dyadic.setdefault(r.m.bit_length() - 1, []).append(r)
    return {
        "overall": _stats(records),
        "by_squarefree": {k: _stats(v) for k, v in sorted(by_sf.items())},
        "by_dyadic": {f"[2^{j},2^{j + 1})": _stats(v) for j, v in sorted(by_dyadic.items())},
    }


def render_exponent_summary(summary: dict) -> str:
    def fmt(name: str, st: dict) -> str:
        return (
            f"{name:<16} n={st['count']:<6} "
            f"exponent max={st['max_exponent']:.4f} mean={st['mean_exponent']:.4f}  "
            f"norm512 max={st['max_norm512']:.4f} mean={st['mean_norm512']:.4f}"
        )

    lines = [fmt("overall", summary["overall"])]
    for k, st in summary["by_squarefree"].items():
        lines.append(fmt(k, st))
    for k, st in summary["by_dyadic"].items():
        lines.append(fmt(k, st))
    return "\n".join(lines)
