"""Batch sweeps of vertex counts v_a(m) over modulus ranges, the
lower-bound census v_1(m) >= 2*(tau(m-1) - 1), exponent summaries, and a
restartable flat-file cache.

Reproducibility contract: identical inputs (range, policy, seed) produce
identical records, and a warm cache replays timing fields verbatim, so
repeated sweeps emit byte-identical CSV.  Residue sampling
uses an explicit splitmix64 stream so seeds mean the same thing on every
platform.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

from ._version import __version__
from .geometry import convex_hull
from .hullfast import candidate_points, fast_hull, hull_method
from .hyperbola import HyperbolaSpec
from .ntheory import ArithmeticProfile, arithmetic_profile, factorize

__all__ = [
    "CACHE_ENV",
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

    def a_values(self, m: int) -> list[int]:
        if self.kind == "one":
            return [1]
        if self.kind == "all":
            return [a for a in range(1, m) if math.gcd(a, m) == 1]
        return sample_coprime(m, self.k, self.seed)


def sample_coprime(m: int, k: int, seed: int) -> list[int]:
    """k distinct units mod m, deterministic in (m, k, seed), sorted."""
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


CSV_COLUMNS = (
    "m",
    "a",
    "v",
    "phi",
    "tau_m_minus_1",
    "kernel",
    "t",
    "squarefree",
    "exponent",
    "norm512",
    "method",
    "candidate_count",
    "elapsed_ns",
)


@dataclass(frozen=True)
class SweepRecord:
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
        return ",".join(
            (
                str(self.m),
                str(self.a),
                str(self.v),
                str(self.phi),
                str(self.tau_m_minus_1),
                str(self.kernel),
                str(self.t),
                "1" if self.squarefree else "0",
                f"{self.exponent:.6g}",
                f"{self.norm512:.6g}",
                self.method,
                str(self.candidate_count),
                str(self.elapsed_ns),
            )
        )


@lru_cache(maxsize=1)
def _modulus_stats(m: int) -> tuple[ArithmeticProfile, int]:
    """arithmetic_profile(m) and tau(m - 1).  A sweep visits the residues of
    one modulus in a row, so the last modulus is all there is to keep."""
    return arithmetic_profile(m), factorize(m - 1).tau


def compute_record(m: int, a: int) -> SweepRecord:
    """One sweep record: hull vertex count plus the arithmetic statistics of m."""
    spec = HyperbolaSpec(m, a)
    start = time.perf_counter_ns()
    cands = candidate_points(spec)
    poly = convex_hull(cands)
    elapsed = time.perf_counter_ns() - start
    prof, tau_m_minus_1 = _modulus_stats(m)
    v = poly.vertex_count
    exponent = math.log(v) / math.log(m) if v > 1 else 0.0
    norm512 = v / (prof.t * m ** (5.0 / 12.0))
    return SweepRecord(
        m=m,
        a=spec.a,
        v=v,
        phi=prof.phi,
        tau_m_minus_1=tau_m_minus_1,
        kernel=prof.kernel,
        t=prof.t,
        squarefree=prof.squarefree,
        exponent=exponent,
        norm512=norm512,
        method=hull_method(m),
        candidate_count=len(cands),
        elapsed_ns=elapsed,
    )


# --- cache: one JSON record per line, atomically rewritten on update ---


def default_cache_file() -> Path:
    return Path(os.environ.get(CACHE_ENV, ".modhull_cache")) / "sweep-cache.jsonl"


def _cache_key(m: int, a: int) -> tuple:
    return (m, a, __version__)


def _load_cache(path: Path) -> dict[tuple, SweepRecord]:
    out: dict[tuple, SweepRecord] = {}
    if not path.exists():
        return out
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                key = tuple(obj.pop("key"))
                out[key] = SweepRecord(**obj)
            except (ValueError, TypeError, KeyError):
                continue  # stale or damaged entry: drop it and recompute
    return out


def _store_cache(path: Path, entries: dict[tuple, SweepRecord]) -> None:
    import tempfile

    path.parent.mkdir(parents=True, exist_ok=True)
    # the fields are plain ints, floats, bools and strs: vars() is what
    # dataclasses.asdict would build, without its recursive copy
    lines = [
        json.dumps({"key": list(key), **vars(entries[key])}, sort_keys=True)
        for key in sorted(entries)
    ]
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="ascii", newline="\n") as fh:
            fh.write("\n".join(lines) + ("\n" if lines else ""))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _record_task(args: tuple) -> SweepRecord:
    m, a = args
    return compute_record(m, a)


def run_sweep(
    m_min: int,
    m_max: int,
    policy: APolicy,
    workers: int = 1,
    use_cache: bool = True,
    cache_file: Path | None = None,
) -> list[SweepRecord]:
    """One record per (m, a) over m in [m_min, m_max], ordered by (m, a).

    Cached records are replayed verbatim (including timings); misses are
    computed, possibly across worker processes, and appended to the cache.
    """
    if not 2 <= m_min <= m_max:
        raise ValueError(f"bad modulus range [{m_min}, {m_max}]")
    tasks = [(m, a) for m in range(m_min, m_max + 1) for a in policy.a_values(m)]
    cache_path = Path(cache_file) if cache_file is not None else default_cache_file()
    cache = _load_cache(cache_path) if use_cache else {}

    missing = [(m, a) for m, a in tasks if _cache_key(m, a) not in cache]
    if missing:
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=workers) as pool:
                computed = list(pool.map(_record_task, missing, chunksize=8))
        else:
            computed = [compute_record(m, a) for m, a in missing]
        for rec in computed:
            cache[_cache_key(rec.m, rec.a)] = rec
        if use_cache:
            _store_cache(cache_path, cache)
    return [cache[_cache_key(m, a)] for m, a in sorted(tasks)]


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
    if not 2 <= m_min <= m_max:
        raise ValueError(f"bad modulus range [{m_min}, {m_max}]")
    violations = []
    equality = 0
    for m in range(m_min, m_max + 1):
        v = fast_hull(HyperbolaSpec(m, 1)).vertex_count
        bound = 2 * (factorize(m - 1).tau - 1)
        if v < bound:
            violations.append((m, v, bound))
        elif v == bound:
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
    by_dyadic: dict[str, list[SweepRecord]] = {}
    for r in records:
        by_sf.setdefault("squarefree" if r.squarefree else "non_squarefree", []).append(r)
        j = r.m.bit_length() - 1
        by_dyadic.setdefault(f"[2^{j},2^{j + 1})", []).append(r)
    return {
        "overall": _stats(records),
        "by_squarefree": {k: _stats(v) for k, v in sorted(by_sf.items())},
        "by_dyadic": {k: _stats(v) for k, v in sorted(by_dyadic.items(), key=lambda kv: int(kv[0].split("^")[1].split(",")[0]))},
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
