"""Batch sweeps of vertex counts v_a(m) over modulus ranges, the
lower-bound census v_1(m) >= 2*(tau(m-1) - 1), exponent summaries, and an
append-only cache that keeps every record of interrupted and concurrent sweeps.

One walk over the moduli of a range and their residues, APolicy.by_modulus,
serves the sweep, the census and `modhull verify` (through its (m, a) pairs,
APolicy.tasks), and holds the one check of a modulus range.  A record is a
SweepRecord tuple: its values in column order fill the CSV row.  A hull
gives v, candidate_count and elapsed_ns; every other column depends on m and
v alone.  A cache line holds m, a, those three integers and the version, and
sweep_moduli builds every record, computed or replayed, at one call of
_record, from the three integers and the columns of m, derived once per
modulus, and hands the records back one modulus at a time; run_sweep lists
them.  A sweep uses a cache only when it is given a cache file.

Reproducibility contract: identical inputs (range, policy, seed) produce
identical records, and a warm cache replays timing fields verbatim, so
repeated sweeps emit byte-identical CSV.  Residue sampling
uses an explicit splitmix64 stream so seeds mean the same thing on every
platform.
"""

import math
import os
import time
from collections import namedtuple
from collections.abc import Iterator
from functools import lru_cache
from itertools import compress, groupby, repeat
from operator import itemgetter

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
    "sweep_moduli",
    "CSV_HEADER",
    "csv_rows",
    "records_to_csv",
    "lower_bound_census",
    "exponent_summary",
    "SummaryFold",
    "render_exponent_summary",
    "default_cache_file",
]

CACHE_ENV = "MODHULL_CACHE_DIR"

# The most records one sweep may hold, bounded from its arguments before it
# builds anything: APolicy.max_count counts at most m - 1 residues for an
# odd m and m/2 for an even one.  A sweep holds the records of one modulus
# at a time and `modhull sweep` spools its CSV to a file, so what grows
# with the record count is SummaryFold's 48 bytes a record and, on a warm
# replay, the cache lines the sweep loads (about 250-290 bytes a record,
# each freed as its record is built).  `modhull sweep --a-policy all` over
# m in [3, 300], [3, 500], [3, 700] and [3, 2001] (27,396, 76,114, 149,016
# and 1,217,818 records; the last bounded by 1,501,499) peaked at 17.1,
# 19.6, 23.4 and 72.8 MiB RSS cold and 22.4, 36.3, 55.8 and 317.7 MiB on
# the warm replay, so a warm replay at the ceiling takes about 0.5 GB.
# CPython 3.11, 64-bit Linux.
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


class APolicy(_Checked, namedtuple("APolicy", "kind k seed")):
    """Which residues a to visit per modulus, by kind: a=1 only ("one"), all
    units ("all"), or a seeded sample of k distinct units ("sample")."""

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
        in closed form from the arguments alone: the units mod m number at
        most m - 1 for odd m and at most m/2, the odd residues, for even m,
        and a sample holds at most k of them."""
        r = m_max - m_min + 1
        if self.kind == "one":
            return r

        def units(n):  # the sum of m - 1 over odd m <= n and of m/2 over even m <= n
            odd, even = (n - 1) // 2, n // 2
            return odd * (odd + 1) + even * (even + 1) // 2

        every = units(m_max) - units(m_min - 1)
        return every if self.kind == "all" else min(r * self.k, every)

    def a_values(self, m: int) -> list[int]:
        if self.kind == "one":
            return [1]
        if self.kind == "all":
            return [a for a in range(1, m) if math.gcd(a, m) == 1]
        return sample_coprime(m, self.k, self.seed)

    def by_modulus(self, m_min: int, m_max: int) -> Iterator[tuple[int, list[int]]]:
        """Each m in [m_min, m_max] in increasing order, with its residues
        a_values(m), made lazily.  A bad range, or one past MODULUS_CEILING,
        is refused at the call, before any residue list or record."""
        if not 2 <= m_min <= m_max:
            raise ValueError(f"bad modulus range [{m_min}, {m_max}]")
        HyperbolaSpec(m_max, 1)  # its refusal of m_max > MODULUS_CEILING, now, not at m_max's record
        return ((m, self.a_values(m)) for m in range(m_min, m_max + 1))

    def tasks(self, m_min: int, m_max: int) -> Iterator[tuple[int, int]]:
        """The (m, a) pairs of by_modulus in (m, a) order, made lazily and
        refused as by_modulus refuses them."""
        return ((m, a) for m, residues in self.by_modulus(m_min, m_max) for a in residues)


def sample_coprime(m: int, k: int, seed: int) -> list[int]:
    """k distinct units mod m, deterministic in (m, k, seed), sorted; all
    phi(m) of them when k >= phi(m)."""
    # phi(n) >= sqrt(n/2) for n >= 1: the factor 2^e of n gives
    # 2^(e-1) >= 2^(e/2)/sqrt(2), and each odd p^e gives p^(e-1)*(p-1) >=
    # p^(e/2).  So 2*k*k <= m means k <= phi(m), and m need not be factorized.
    # Otherwise the factorization is the one a sweep's columns of m reuse.
    if 2 * k * k > m:
        k = min(k, _factorize(m).phi)  # no draws are spent once every unit is held
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


# The whole schema of a sweep record: each CSV column, in order, with its
# format in a CSV row.  Integers print in decimal, the squarefree flag as
# 0/1 and the reals to six significant digits.  A record is a SweepRecord,
# the tuple of its values in column order.
_SCHEMA = (
    ("m", "%d"),
    ("a", "%d"),
    ("v", "%d"),
    ("phi", "%d"),
    ("tau_m_minus_1", "%d"),
    ("kernel", "%d"),
    ("t", "%d"),
    ("squarefree", "%d"),
    ("exponent", "%.6g"),
    ("norm512", "%.6g"),
    ("method", "%s"),
    ("candidate_count", "%d"),
    ("elapsed_ns", "%d"),
)
CSV_COLUMNS, _FORMATS = zip(*_SCHEMA)
SweepRecord = namedtuple("SweepRecord", CSV_COLUMNS)
_ROW_FORMAT = ",".join(_FORMATS)
# a cache line, "m a v candidate_count elapsed_ns version\n", one space apart:
# the columns a hull gives, then the version, last so that a line torn short
# of its end never matches _line_pattern
_LINE_FORMAT = b"%d %d %d %d %d " + __version__.encode() + b"\n"


@lru_cache(maxsize=2)
def _factorize(n: int) -> Factorization:
    # A sweep lists the residues of m, then _modulus_stats factorizes m - 1,
    # then m: over moduli in increasing order, as a sweep and the census
    # visit them, the m of one modulus is the m - 1 of the next, and the m
    # that sample_coprime factorizes is the m of the columns.  In the other
    # order m would be the older entry, dropped before it is asked for.
    return factorize(n)


@lru_cache(maxsize=1)  # compute_record over the residues of one m
def _modulus_stats(m: int) -> tuple:
    """The columns of a record of modulus m that do not depend on a or v:
    phi(m), tau(m - 1), the kernel of m, t, squarefree and method, then
    log m and t*m^(5/12), the divisors of exponent and norm512."""
    tau_m_minus_1 = _factorize(m - 1).tau
    f = _factorize(m)
    kernel = f.kernel
    t = m // kernel
    return f.phi, tau_m_minus_1, kernel, t, kernel == m, hull_method(m), math.log(m), t * m ** (5.0 / 12.0)


def _record(m: int, a: int, hull: tuple[int, int, int], stats: tuple | None = None) -> SweepRecord:
    """The record of (m, a) whose hull gave (v, candidate_count, elapsed_ns):
    every other column depends on m and v alone.  stats are the columns of
    m, _modulus_stats(m) unless a sweep derived them once for all of m's
    records."""
    v, candidate_count, elapsed_ns = hull
    phi, tau_m_minus_1, kernel, t, squarefree, method, log_m, t_m512 = stats or _modulus_stats(m)
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


def default_cache_file() -> str:
    return os.path.join(os.environ.get(CACHE_ENV, ".modhull_cache"), "sweep-cache.txt")


def _load_cache(path: os.PathLike | str, m_min: int, m_max: int) -> dict[tuple[int, int], tuple[int, int, int]]:
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


# A block's matches take about 12 times its bytes while it is parsed: at
# 8 KiB a warm replay over [3, 120] peaked at 0.63 MiB of Python objects
# (tracemalloc) against 1.39 at 64 KiB, in the same time, and a load of
# 48,676 lines took no longer.
_BLOCK_BYTES = 1 << 13
_FIRST = itemgetter(0)


@lru_cache(maxsize=1)
def _line_pattern():
    """The pattern of a cache line, one group per integer.  Compiled on the
    first load, not at import, and re is imported here too, so that
    `import modhull` loads neither re nor the enum it imports."""
    import re

    count = rb"([1-9][0-9]{0,18})"  # 19 digits at most: int() raises past 4300
    version = re.escape(__version__.encode())
    return re.compile(rb"^%s %s %s %s (0|[1-9][0-9]{0,18}) %s$" % (count, count, count, count, version), re.M)


def _open_for_append(path: os.PathLike | str):
    """The cache file, unbuffered and in append mode: each write() is one
    system call, so the lines of two sweeps appending at once never mix."""
    os.makedirs(os.path.dirname(path) or os.curdir, exist_ok=True)
    fh = open(path, "a+b", buffering=0)  # positioned at the end of the file
    fh.seek(max(fh.tell() - 1, 0))
    if fh.read(1) not in (b"", b"\n"):
        fh.write(b"\n")  # end a line torn by a killed sweep
    return fh


def sweep_moduli(
    m_min: int,
    m_max: int,
    policy: APolicy,
    workers: int = 1,
    cache_file: os.PathLike | str | None = None,
) -> Iterator[list[SweepRecord]]:
    """The records of each m in [m_min, m_max], one list per modulus in
    increasing m, each ordered by a, made lazily: a modulus is listed,
    hulled and cached when its records are asked for, so a sweep holds the
    records of one modulus at a time.  A bad range, a worker count below 1
    and a sweep that may have more than SWEEP_CEILING records are refused
    at the call, before any residue list is built or cache read.

    With a cache_file, its records are replayed verbatim (including
    timings); with None, every record is computed and nothing is written.
    Misses are computed, possibly across worker processes (at most one per
    CPU, whatever larger number is asked for), and the lines of a modulus
    are appended to the cache as its records are handed back, so an
    interrupted sweep keeps what it handed back.  A pool is sent the hulls
    of _POOL_BATCH tasks per worker at once, over as many moduli as that
    takes, and the next batch before the records of one are handed back.

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

    Every record is built from its hull's three integers and the columns of
    m, derived once per modulus.
    """
    walk = policy.by_modulus(m_min, m_max)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if (n := policy.max_count(m_min, m_max)) > SWEEP_CEILING:  # before any list is built
        raise ValueError(f"sweeps are limited to {SWEEP_CEILING} records, this one may have {n}")
    cache = _load_cache(cache_file, m_min, m_max) if cache_file is not None else {}
    return _sweep(walk, workers, cache_file, cache)


# the hull tasks a pool is sent at once, per worker: the next batch is sent
# before the records of the last one are handed back, so that the workers
# do not wait, and a batch spans moduli, so that a pool map sends full
# chunks when a modulus has few hulls
_POOL_BATCH = 64


def _sweep(walk, workers: int, cache_file: os.PathLike | str | None, cache: dict) -> Iterator[list[SweepRecord]]:
    import contextlib
    from collections import deque

    out = None  # the cache file, opened for the first line the sweep appends

    def finish(m, residues, missing, mirrored, stats, hulls) -> list[SweepRecord]:
        nonlocal out
        if missing and out is None and cache_file is not None:
            out = stack.enter_context(_open_for_append(cache_file))
        for a in missing:  # in increasing a: a mirror follows its partner
            hull = cache[m, a] = cache[m, m - a] if a in mirrored else next(hulls)
            if out is not None:
                out.write(_LINE_FORMAT % (m, a, *hull))
        # popped: each hull's columns are freed as its record is built
        return [_record(m, a, cache.pop((m, a)), stats) for a in residues]

    def hand_back(moduli, hulls) -> Iterator[list[SweepRecord]]:
        for modulus in moduli:
            yield finish(*modulus, hulls)

    pool = None  # started for the first batch with hulls: a replay needs none

    def hull_map(ms, hulled):
        nonlocal pool
        if workers == 1 or not hulled:
            return map(_hull, ms, hulled)  # lazy: a modulus is hulled as its records are handed back
        if pool is None:
            from concurrent.futures import ProcessPoolExecutor

            pool = ProcessPoolExecutor(max_workers=processes)
            stack.callback(pool.shutdown, cancel_futures=True)  # on error, drop queued tasks
        return pool.map(_hull, ms, hulled, chunksize=8)

    processes = min(workers, os.cpu_count() or 1)
    batch, ahead = (_POOL_BATCH * processes, 1) if workers > 1 else (1, 0)
    with contextlib.ExitStack() as stack:
        listed, ms, hulled = [], [], []  # the moduli listed since the last batch was sent, and their hull tasks
        sent = deque()  # (moduli, hulls) of each batch sent and not yet handed back, oldest first
        for m, residues in walk:
            missing = [a for a in residues if (m, a) not in cache]
            held = set(missing)  # a missing partner is hulled, before its mirror
            mirrored = {a for a in missing if m - a < a and (m - a in held or (m, m - a) in cache)}
            hulled += (a for a in missing if a not in mirrored)
            ms += repeat(m, len(hulled) - len(ms))
            listed.append((m, residues, missing, mirrored, _modulus_stats(m)))  # after the residues: see _factorize
            if len(listed) + len(hulled) >= batch:  # a modulus counts as one more than its hulls
                sent.append((listed, hull_map(ms, hulled)))
                listed, ms, hulled = [], [], []
                while len(sent) > ahead:
                    yield from hand_back(*sent.popleft())
        sent.append((listed, hull_map(ms, hulled)))
        while sent:
            yield from hand_back(*sent.popleft())


def run_sweep(
    m_min: int,
    m_max: int,
    policy: APolicy,
    workers: int = 1,
    cache_file: os.PathLike | str | None = None,
) -> list[SweepRecord]:
    """One record per (m, a) over m in [m_min, m_max], ordered by (m, a):
    the records of sweep_moduli, in one list."""
    return [record for records in sweep_moduli(m_min, m_max, policy, workers, cache_file) for record in records]


CSV_HEADER = ",".join(CSV_COLUMNS) + "\n"
_ROW_LINE = _ROW_FORMAT + "\n"


def csv_rows(records: list[SweepRecord]) -> str:
    """The CSV lines of these records, each ending in a newline."""
    return "".join(map(_ROW_LINE.__mod__, records))


def records_to_csv(records: list[SweepRecord]) -> str:
    return CSV_HEADER + csv_rows(records)


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


class SummaryFold:
    """exponent_summary folded over records given in batches, in order, as
    sweep_moduli hands them back.  Each group keeps its records' exponent
    and norm512, 8 bytes each in an array, in record order, because its
    means are sum() over them: a running total would print other means on
    CPython 3.12 and later, whose float sum is compensated."""

    def __init__(self):
        from array import array
        from collections import defaultdict

        def pair():
            return array("d"), array("d")

        self._array = array
        self._overall = pair()
        self._by_squarefree = defaultdict(pair)
        self._by_dyadic = defaultdict(pair)  # j -> the records with 2^j <= m < 2^(j+1)

    @property
    def count(self) -> int:
        return len(self._overall[0])

    def add(self, records) -> None:
        for (squarefree, m), run in groupby(records, _SQUAREFREE_M):
            run = list(run)
            exponents = self._array("d", map(_EXPONENT, run))  # extended into each group by one copy
            norms = self._array("d", map(_NORM512, run))
            sf = "squarefree" if squarefree else "non_squarefree"
            for group in (self._overall, self._by_squarefree[sf], self._by_dyadic[m.bit_length() - 1]):
                group[0].extend(exponents)
                group[1].extend(norms)

    def summary(self) -> dict:
        """exponent_summary of every record added so far."""
        if not self.count:
            raise ValueError("no records to summarize")
        return {
            "overall": _stats(*self._overall),
            "by_squarefree": {k: _stats(*v) for k, v in sorted(self._by_squarefree.items())},
            "by_dyadic": {f"[2^{j},2^{j + 1})": _stats(*v) for j, v in sorted(self._by_dyadic.items())},
        }


def _stats(exponents, norms) -> dict:
    n = len(exponents)
    return {
        "count": n,
        "max_exponent": max(exponents),
        "mean_exponent": sum(exponents) / n,
        "max_norm512": max(norms),
        "mean_norm512": sum(norms) / n,
    }


_EXPONENT = itemgetter(CSV_COLUMNS.index("exponent"))
_NORM512 = itemgetter(CSV_COLUMNS.index("norm512"))
_SQUAREFREE_M = itemgetter(CSV_COLUMNS.index("squarefree"), CSV_COLUMNS.index("m"))


def exponent_summary(records: list[SweepRecord]) -> dict:
    """Max/mean of ln(v)/ln(m) and of v/(t*m^(5/12)), overall and grouped by
    squarefree flag and dyadic modulus range."""
    fold = SummaryFold()
    fold.add(records)
    return fold.summary()


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
