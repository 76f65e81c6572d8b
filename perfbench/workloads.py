"""The benchmark's workloads: seeded inputs, the modhull commands they
issue, and the checks their outputs must pass.

Every workload is a sequence of rounds; a round is a short list of
``modhull`` command lines.  The runner repeats rounds until the time
budget is spent, so a faster program measures more rounds, never a
different mix.  All commands run in-process through ``modhull.cli.main``
with ``--workers 1``, and pass no tuning flag (``--method``,
``--cutoff-factor``), so that the pruning knobs may change or go away.

- ``hull-large``: ``hull --json`` on a fresh prime modulus within 3% of
  10^5 per round, with a random unit residue, so nothing is shared
  between calls.  One size class, because on a shared two-core host a
  single hull's time varies by 10-20% from call to call, and a mean over
  mixed sizes would follow which sizes a run happened to draw.  The
  moduli are prime because today's hull costs about phi(m), and phi(m)/m
  swings from 0.2 to 1 between neighbouring composites.
- ``sweep-small``: a cold ``sweep --a-policy all`` over m in [3, 120]
  into a fresh cache, then six warm replays of the same sweep from the
  cache it wrote.  Tiny moduli take the brute-force hull, so the cost is per
  record: arithmetic statistics, the cache, and CSV rendering.  The range
  is small so that one run holds some thirty cold sweeps and 180 warm
  replays, spread evenly over it.  The inputs are the whole range; the seed
  picks which moduli the check recomputes.

Mid-size moduli swept with ``--a-policy sample:k`` are not a workload of
their own: they run the same hull layers as hull-large, and the two-core
host leaves time for only two workloads of runs long enough to be steady.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Op:
    """One modhull command line.  ``kind`` is "hull" (modulus m, residue
    a), "cold" or "warm" (a sweep of m..m_max under ``policy``);
    ``records`` is the number of results it yields."""

    kind: str
    argv: tuple[str, ...]
    records: int
    m: int
    a: int = 0
    m_max: int = 0
    policy: str = ""
    cache_dir: Path | None = None
    out: Path | None = None


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7):
        if n % p == 0:
            return n == p
    return all(n % d for d in range(11, math.isqrt(n) + 1, 2))


def phi(n: int) -> int:
    """Euler's totient by trial division."""
    out, rest, p = n, n, 2
    while p * p <= rest:
        if rest % p == 0:
            while rest % p == 0:
                rest //= p
            out -= out // p
        p += 1
    if rest > 1:
        out -= out // rest
    return out


def _units(m: int) -> list[int]:
    return [a for a in range(1, m) if math.gcd(a, m) == 1]


def _cross(o, p, q) -> int:
    return (p[0] - o[0]) * (q[1] - o[1]) - (p[1] - o[1]) * (q[0] - o[0])


def _twice_area(vertices) -> int:
    r = len(vertices)
    if r < 3:
        return 0
    return sum(
        vertices[i][0] * vertices[(i + 1) % r][1] - vertices[(i + 1) % r][0] * vertices[i][1]
        for i in range(r)
    )


def sweep_op(kind, m_min, m_max, policy, records, cache_dir, out) -> Op:
    argv = ["sweep", "--m-min", str(m_min), "--m-max", str(m_max), "--a-policy", policy]
    argv += ["--out", str(out), "--workers", "1"]
    return Op(kind, tuple(argv), records, m_min, m_max=m_max, policy=policy, cache_dir=cache_dir, out=out)


class Workload:
    """Base: subclasses define ``round(k)`` and ``latency_kind``, the op
    kind whose wall time is the workload's command latency."""

    name = ""
    latency_kind = ""
    # share of a cold sweep's moduli whose records the oracle recomputes
    oracle_share = 1.0

    def __init__(self, seed: int, workdir: Path, scale: str = "full"):
        self.seed = seed
        self.workdir = workdir
        self.rng = random.Random(f"{self.name}:{seed}")

    def round(self, k: int) -> list[Op]:
        raise NotImplementedError

    def check(self, mh, op: Op, stdout: str, digest: str | None, cold_digest: dict, deep: bool) -> str | None:
        """None when the op's output is right, else a short reason.  Only a
        ``deep`` check recomputes hulls with the brute-force oracle."""
        if op.kind == "hull":
            return self._check_hull(mh, op, stdout, deep)
        if op.kind == "cold":
            return self._check_csv(mh, op, cold_digest, deep)
        if cold_digest.get(op.cache_dir) != digest:
            return "warm replay CSV differs from the cold sweep's CSV"
        return None

    def _check_hull(self, mh, op: Op, stdout: str, deep: bool) -> str | None:
        out = json.loads(stdout)
        got = [tuple(p) for p in out["vertices"]]
        if (out["m"], out["a"]) != (op.m, op.a):
            return f"echoed (m, a) = {(out['m'], out['a'])}"
        # without the oracle: a strictly convex counterclockwise polygon
        # whose vertices lie on H_a(m), with its count and area as printed
        if any(not (0 < x < op.m and 0 < y < op.m and x * y % op.m == op.a) for x, y in got):
            return f"m={op.m} a={op.a}: a vertex is not on the hyperbola"
        r = len(got)
        if r >= 3 and any(_cross(got[i - 2], got[i - 1], got[i]) <= 0 for i in range(r)):
            return f"m={op.m} a={op.a}: vertices are not a convex counterclockwise polygon"
        if out["v"] != r or out["twice_area"] != _twice_area(got):
            return f"m={op.m} a={op.a}: v={out['v']} and twice_area={out['twice_area']} disagree with the vertices"
        if not deep:
            return None
        ref = mh.geometry.convex_hull(mh.hyperbola.enumerate_points(mh.hyperbola.HyperbolaSpec(op.m, op.a)))
        if got != list(ref.vertices) or out["v"] != ref.vertex_count:
            return f"m={op.m} a={op.a}: v={out['v']} with {len(got)} vertices, oracle v={ref.vertex_count}"
        return None

    def _check_csv(self, mh, op: Op, cold_digest: dict, deep: bool) -> str | None:
        data = op.out.read_bytes()
        cold_digest[op.cache_dir] = hashlib.sha256(data).hexdigest()
        lines = data.decode("ascii").splitlines()
        cols = lines[0].split(",")
        im, ia, iv = cols.index("m"), cols.index("a"), cols.index("v")
        rows = [(int(r[im]), int(r[ia]), int(r[iv])) for r in (line.split(",") for line in lines[1:])]
        if len(rows) != op.records:
            return f"{len(rows)} records, expected {op.records}"
        if rows != sorted(rows) or len({(m, a) for m, a, _ in rows}) != len(rows):
            return "records out of (m, a) order or repeated"
        by_m: dict[int, list[tuple[int, int]]] = {}
        for m, a, v in rows:
            by_m.setdefault(m, []).append((a, v))
        if list(by_m) != list(range(op.m, op.m_max + 1)):
            return "moduli missing"
        pick = random.Random(f"oracle:{self.name}:{self.seed}:{op.m}")
        for m, recs in by_m.items():
            residues = [a for a, _ in recs]
            if op.policy == "all" and residues != _units(m):
                return f"m={m}: residues differ from the unit list"
            if any(math.gcd(a, m) != 1 or not 0 < a < m for a in residues):
                return f"m={m}: residues {residues} are not all units"
            if not deep or pick.random() >= self.oracle_share:
                continue
            for a, v in recs:
                ref = mh.geometry.convex_hull(mh.hyperbola.enumerate_points(mh.hyperbola.HyperbolaSpec(m, a)))
                if v != ref.vertex_count:
                    return f"m={m} a={a}: v={v}, oracle v={ref.vertex_count}"
        return None


class HullLarge(Workload):
    name = "hull-large"
    latency_kind = "hull"
    CENTER, JITTER = 100_000, 0.03

    def __init__(self, seed, workdir, scale="full"):
        super().__init__(seed, workdir, scale)
        center = 3_000 if scale == "tiny" else self.CENTER
        lo, hi = int(center * (1 - self.JITTER)), int(center * (1 + self.JITTER))
        # about 500 primes; only a program ~20x faster than today's cycles
        # back to a modulus within one run
        self.primes = [m for m in range(lo, hi + 1) if _is_prime(m)]
        self.rng.shuffle(self.primes)

    def round(self, k):
        m = self.primes[k % len(self.primes)]
        a = self.rng.randrange(1, m)
        return [Op("hull", ("hull", "--m", str(m), "--a", str(a), "--json"), 1, m, a)]


class SweepSmall(Workload):
    name = "sweep-small"
    latency_kind = "warm"
    M_MIN, M_MAX, REPLAYS = 3, 120, 6

    def __init__(self, seed, workdir, scale="full"):
        super().__init__(seed, workdir, scale)
        if scale == "tiny":
            self.M_MAX, self.REPLAYS = 40, 2
        self.records = sum(len(_units(m)) for m in range(self.M_MIN, self.M_MAX + 1))

    # recomputing v of every record costs about as much as the sweep
    oracle_share = 0.25

    def round(self, k):
        cache = self.workdir / f"cache-{k}"
        span = (self.M_MIN, self.M_MAX, "all", self.records, cache)
        cold = sweep_op("cold", *span, self.workdir / f"sweep-{k}.csv")
        warm = sweep_op("warm", *span, self.workdir / f"replay-{k}.csv")
        return [cold] + [warm] * self.REPLAYS


WORKLOADS = {w.name: w for w in (HullLarge, SweepSmall)}
