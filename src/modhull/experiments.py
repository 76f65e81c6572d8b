"""Batch sweeps of vertex counts v_a(m) over modulus ranges, the
lower-bound census v_1(m) >= 2*(tau(m-1) - 1), exponent summaries, and an
append-only cache that keeps every record of interrupted and concurrent sweeps.

One walk over (m, a) pairs, APolicy.tasks, serves the sweep, the census and
`modhull verify`, and holds the one check of a modulus range.  A record is a
SweepRecord tuple: its values in column order fill the CSV row, and with its
field names they make the cache line.  run_sweep uses a cache only when it is
given a cache file.

Reproducibility contract: identical inputs (range, policy, seed) produce
identical records, and a warm cache replays timing fields verbatim, so
repeated sweeps emit byte-identical CSV.  Residue sampling
uses an explicit splitmix64 stream so seeds mean the same thing on every
platform.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import time
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Iterator, NamedTuple, get_type_hints

from ._version import __version__
from .geometry import convex_hull
from .hullfast import candidate_points, hull_method
from .hyperbola import HyperbolaSpec
from .ntheory import factorize

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
# task lists, the cache dict and the CSV text at once: `modhull sweep
# --a-policy all` over m in [3, 300] and [3, 700] (27,396 and 149,016
# records) peaked at 30.1 and 97.2 MiB RSS cold and 33.7 and 126.3 MiB on
# the warm replay, under 900 bytes a record, so the ceiling is about the
# 1.8 GB that ENUMERATION_CEILING allows.  CPython 3.11, 64-bit Linux.
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


@dataclass(frozen=True)
class APolicy:
    """Which residues a to visit per modulus: a=1 only, all units, or a
    seeded sample of k distinct units."""

    kind: str  # "one" | "all" | "sample"
    k: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("one", "all", "sample"):
            raise ValueError(f"unknown policy kind {self.kind!r}")
        if self.kind == "sample" and self.k < 1:
            raise ValueError("sample policy needs k >= 1")

    @staticmethod
    def parse(text: str, seed: int = 0) -> "APolicy":
        if text == "one":
            return APolicy("one")
        if text == "all":
            return APolicy("all")
        if text.startswith("sample:"):
            return APolicy("sample", k=int(text.split(":", 1)[1]), seed=seed)
        raise ValueError(f"bad a-policy {text!r}; expected one|all|sample:K")

    def max_count(self, m_min: int, m_max: int) -> int:
        """An upper bound on the residues visited over m in [m_min, m_max],
        from the arguments alone: the units mod m number at most m - 1."""
        r = m_max - m_min + 1
        if self.kind == "one":
            return r
        if self.kind == "all":
            return r * (m_min + m_max - 2) // 2
        return r * self.k

    def a_values(self, m: int) -> list[int]:
        if self.kind == "one":
            return [1]
        if self.kind == "all":
            return [a for a in range(1, m) if math.gcd(a, m) == 1]
        return sample_coprime(m, self.k, self.seed)

    def tasks(self, m_min: int, m_max: int) -> Iterator[tuple[int, int]]:
        """The (m, a) pairs over m in [m_min, m_max] in (m, a) order, made
        lazily; a bad range is refused at the call, before any residue list."""
        if not 2 <= m_min <= m_max:
            raise ValueError(f"bad modulus range [{m_min}, {m_max}]")
        return ((m, a) for m in range(m_min, m_max + 1) for a in self.a_values(m))


def sample_coprime(m: int, k: int, seed: int) -> list[int]:
    """k distinct units mod m, deterministic in (m, k, seed), sorted; all
    phi(m) of them when k >= phi(m)."""
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
    CSV columns, the CSV row format and the types a cache line must have.
    The record is the tuple of its values, in column order."""

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

    def csv_row(self) -> str:
        return _ROW_FORMAT % self


CSV_COLUMNS = SweepRecord._fields
_FIELD_TYPES = tuple(map(get_type_hints(SweepRecord).get, CSV_COLUMNS))
# booleans print as 0/1 and reals to six significant digits
_ROW_FORMAT = ",".join({int: "%d", bool: "%d", float: "%.6g", str: "%s"}[t] for t in _FIELD_TYPES)


@lru_cache(maxsize=1)
def _modulus_stats(m: int) -> tuple[int, int, int]:
    """phi(m), the kernel of m and tau(m - 1).  A sweep visits the residues
    of one modulus in a row, so the last modulus is all there is to keep."""
    f = factorize(m)
    return f.phi, f.kernel, factorize(m - 1).tau


def compute_record(m: int, a: int) -> SweepRecord:
    """One sweep record: hull vertex count plus the arithmetic statistics of m."""
    spec = HyperbolaSpec(m, a)
    start = time.perf_counter_ns()
    cands = candidate_points(spec)
    poly = convex_hull(cands)
    elapsed = time.perf_counter_ns() - start
    phi, kernel, tau_m_minus_1 = _modulus_stats(m)
    t = m // kernel
    v = poly.vertex_count
    exponent = math.log(v) / math.log(m) if v > 1 else 0.0
    norm512 = v / (t * m ** (5.0 / 12.0))
    return SweepRecord(
        m=m,
        a=spec.a,
        v=v,
        phi=phi,
        tau_m_minus_1=tau_m_minus_1,
        kernel=kernel,
        t=t,
        squarefree=kernel == m,
        exponent=exponent,
        norm512=norm512,
        method=hull_method(m),
        candidate_count=len(cands),
        elapsed_ns=elapsed,
    )


# --- cache: one JSON record per line, appended as each record is computed ---


def default_cache_file() -> Path:
    return Path(os.environ.get(CACHE_ENV, ".modhull_cache")) / "sweep-cache.jsonl"


def _load_cache(path: Path, m_min: int, m_max: int) -> dict[tuple[int, int], SweepRecord]:
    """The records of this version with m in [m_min, m_max] in the cache
    file, keyed by (m, a); each line's key is [m, a, version].  A line of
    another version or modulus is passed over before a record is built.  Of
    two lines with one key the later wins.  A damaged line is skipped, so its
    record is recomputed: one that is torn, not ASCII or not a JSON record,
    one with a field of the wrong type or a non-ASCII method (csv_row and
    write_csv rely on both), and one whose key names another (m, a) than its
    fields."""
    out: dict[tuple[int, int], SweepRecord] = {}
    if not Path(path).exists():
        return out
    with open(path, "rb") as fh:
        for line in fh:
            try:
                obj = json.loads(line.decode("ascii"))
                m, a, version = obj.pop("key")
                if version != __version__ or not m_min <= m <= m_max:
                    continue
                rec = SweepRecord(**obj)
                if (
                    tuple(map(type, rec)) == _FIELD_TYPES  # exact: True is no int, 3.0 no int
                    and rec.method.isascii()
                    and (m, a) == (rec.m, rec.a)
                ):
                    out[m, a] = rec
            except (ValueError, TypeError, KeyError, AttributeError):
                continue  # blank or damaged line
    return out


def _open_for_append(path: Path):
    """The cache file, unbuffered and in append mode: each write() is one
    system call, so the lines of two sweeps appending at once never mix."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    fh = open(path, "a+b", buffering=0)  # positioned at the end of the file
    fh.seek(max(fh.tell() - 1, 0))
    if fh.read(1) not in (b"", b"\n"):
        fh.write(b"\n")  # end a line torn by a killed sweep
    return fh


def _record_task(args: tuple) -> SweepRecord:
    # The pool pickles this function by name, and each worker looks
    # compute_record up when it runs: a fake that a test patches in, such as
    # a local function, which cannot be pickled, still reaches forked workers.
    m, a = args
    return compute_record(m, a)


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
        with contextlib.ExitStack() as stack:
            if workers > 1:
                from concurrent.futures import ProcessPoolExecutor

                pool = ProcessPoolExecutor(max_workers=min(workers, os.cpu_count() or 1))
                stack.callback(pool.shutdown, cancel_futures=True)  # on error, drop queued tasks
                computed = pool.map(_record_task, missing, chunksize=8)
            else:
                computed = map(_record_task, missing)
            out = stack.enter_context(_open_for_append(cache_file)) if cache_file is not None else None
            for rec in computed:
                cache[rec.m, rec.a] = rec
                if out is not None:
                    line = json.dumps({"key": [rec.m, rec.a, __version__], **rec._asdict()}, sort_keys=True)
                    out.write(line.encode("ascii") + b"\n")
    return [cache[task] for task in tasks]  # the tasks are in (m, a) order


def records_to_csv(records: list[SweepRecord]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    lines.extend(rec.csv_row() for rec in records)
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
    return {
        "count": n,
        "max_exponent": max(r.exponent for r in records),
        "mean_exponent": sum(r.exponent for r in records) / n,
        "max_norm512": max(r.norm512 for r in records),
        "mean_norm512": sum(r.norm512 for r in records) / n,
    }


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
