import functools
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import modhull
from modhull import experiments, ntheory
from modhull._version import __version__
from modhull.experiments import (
    CSV_COLUMNS,
    SWEEP_CEILING,
    APolicy,
    SplitMix64,
    SweepRecord,
    compute_record,
    exponent_summary,
    lower_bound_census,
    records_to_csv,
    render_exponent_summary,
    run_sweep,
    sample_coprime,
)
from modhull.geometry import convex_hull
from modhull.hullfast import ENUMERATE_BELOW
from modhull.hyperbola import HyperbolaSpec, enumerate_points
from modhull.ntheory import factorize


def test_splitmix_reference_values():
    # reference stream for seed 1234567 (splitmix64 test vectors)
    rng = SplitMix64(1234567)
    assert rng.next() == 6457827717110365317
    assert rng.next() == 3203168211198807973


def test_policy_parsing():
    assert APolicy.parse("one") == APolicy("one")
    assert APolicy.parse("all") == APolicy("all")
    assert APolicy.parse("sample:3", seed=9) == APolicy("sample", k=3, seed=9)
    with pytest.raises(ValueError, match="k >= 1"):
        APolicy.parse("sample:0")
    for text in ("some", "sample:abc", "sample:", "sample:1.5"):
        with pytest.raises(ValueError, match=re.escape(f"bad a-policy {text!r}; expected one|all|sample:K")):
            APolicy.parse(text)


def test_policy_a_values():
    assert APolicy("one").a_values(10) == [1]
    assert APolicy("all").a_values(7) == [1, 2, 3, 4, 5, 6]
    assert APolicy("all").a_values(12) == [1, 5, 7, 11]
    s = APolicy("sample", k=2, seed=42)
    assert s.a_values(101) == s.a_values(101)  # deterministic
    assert all(math.gcd(a, 101) == 1 for a in s.a_values(101))


def test_sample_coprime_exhausts_tiny_moduli():
    assert sample_coprime(2, 3, 0) == [1]
    assert sorted(sample_coprime(6, 10, 5)) == [1, 5]
    vals = sample_coprime(1009, 5, 7)
    assert len(vals) == 5 and len(set(vals)) == 5


@pytest.mark.parametrize("m, k", [(5, 10**5), (12, 10**4), (30, 9), (1001, 5000)])
def test_sample_coprime_stops_drawing_once_every_unit_is_chosen(monkeypatch, m, k):
    # a k above phi(m) asks for every unit: the draws stay bounded by phi(m),
    # not by k (10^5 residues of m = 5 once took 6.4 million draws)
    phi = factorize(m).phi
    real = SplitMix64.next
    draws = []

    def counted(self):
        draws.append(None)
        if len(draws) > 64 * (phi + 1):
            raise AssertionError(f"more than 64*(phi + 1) draws for m = {m}")
        return real(self)

    monkeypatch.setattr(SplitMix64, "next", counted)
    assert sample_coprime(m, k, 0) == APolicy("all").a_values(m)


def _sample_coprime_factorizing(m, k, seed):
    """sample_coprime as it was before it skipped factorizing m when
    2*k*k <= m: the reference it must equal."""
    k = min(k, factorize(m).phi)
    rng = SplitMix64(experiments._mix64(seed) ^ experiments._mix64(m))
    chosen = set()
    attempts = 0
    while len(chosen) < k and attempts < 64 * (k + 1):
        a = 1 + rng.below(m - 1) if m > 2 else 1
        attempts += 1
        if math.gcd(a, m) == 1:
            chosen.add(a)
    a = 1
    while len(chosen) < k and a < m:
        if math.gcd(a, m) == 1:
            chosen.add(a)
        a += 1
    return sorted(chosen)


def test_sample_coprime_equals_its_factorizing_reference():
    rng = random.Random(2401)
    cases = [(m, k, rng.randrange(2**64)) for m in range(2, 200) for k in (1, 2, 5, 9, 10, 11, 40)]
    cases += [(rng.randrange(2, 10**6), rng.randrange(1, 1000), rng.randrange(2**64)) for _ in range(300)]
    assert any(2 * k * k > m for m, k, _ in cases) and any(2 * k * k <= m for m, k, _ in cases)
    for m, k, seed in cases:
        assert sample_coprime(m, k, seed) == _sample_coprime_factorizing(m, k, seed), (m, k, seed)


def test_sweep_example_values(tmp_path):
    records = run_sweep(3, 7, APolicy("one"), cache_file=tmp_path / "c.txt")
    assert [r.v for r in records] == [2, 2, 4, 2, 6]
    assert [r.m for r in records] == [3, 4, 5, 6, 7]
    records = run_sweep(7, 7, APolicy("all"), cache_file=tmp_path / "c.txt")
    assert len(records) == 6
    assert [r.a for r in records] == [1, 2, 3, 4, 5, 6]
    records = run_sweep(5, 5, APolicy("sample", k=2, seed=3), cache_file=tmp_path / "c.txt")
    assert len(records) == 2


def test_record_fields_consistent(tmp_path):
    rec = compute_record(12, 1)
    assert rec.phi == 4 and rec.kernel == 6 and rec.t == 2 and not rec.squarefree
    assert rec.tau_m_minus_1 == factorize(11).tau == 2
    assert rec.v == 2
    assert rec.exponent == math.log(2) / math.log(12)
    assert rec.norm512 == 2 / (2 * 12 ** (5.0 / 12.0))
    assert rec.method == "naive"
    rec2 = compute_record(2, 1)
    assert rec2.v == 1 and rec2.exponent == 0.0


def test_lower_bound_invariant_on_records(tmp_path):
    records = run_sweep(3, 60, APolicy("one"), cache_file=tmp_path / "c.txt")
    for r in records:
        assert r.v >= 2 * (r.tau_m_minus_1 - 1)
        assert 1 <= r.v <= r.phi


def test_csv_schema_and_formatting(tmp_path):
    records = run_sweep(10, 12, APolicy("one"), cache_file=tmp_path / "c.txt")
    text = records_to_csv(records)
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert lines[0] == "m,a,v,phi,tau_m_minus_1,kernel,t,squarefree,exponent,norm512,method,candidate_count,elapsed_ns"
    assert len(lines) == 4
    row = dict(zip(CSV_COLUMNS, lines[1].split(",")))
    assert row["m"] == "10" and row["squarefree"] in ("0", "1")
    float(row["exponent"])  # parses as a real
    int(row["elapsed_ns"])
    # exact bytes: an int-valued real, booleans as 0/1, six significant digits
    rec = SweepRecord(
        m=7, a=1, v=1, phi=6, tau_m_minus_1=4, kernel=7, t=1, squarefree=True, exponent=0.0,
        norm512=1.2345678e-07, method="naive", candidate_count=6, elapsed_ns=1500,
    )
    assert records_to_csv([rec]).split("\n")[1] == "7,1,1,6,4,7,1,1,0,1.23457e-07,naive,6,1500"
    rec = rec._replace(m=12, squarefree=False, exponent=math.log(6) / math.log(7), norm512=math.pi * 1e8)
    assert records_to_csv([rec]).split("\n")[1] == "12,1,1,6,4,7,1,0,0.920782,3.14159e+08,naive,6,1500"


def test_sweep_determinism_with_cache(tmp_path):
    cache = tmp_path / "cache.txt"
    r1 = run_sweep(20, 40, APolicy("sample", k=2, seed=42), cache_file=cache)
    r2 = run_sweep(20, 40, APolicy("sample", k=2, seed=42), cache_file=cache)
    assert records_to_csv(r1) == records_to_csv(r2)  # byte-identical replay
    assert r1 == r2


def test_sweep_cache_coherence(tmp_path):
    cache = tmp_path / "cache.txt"
    r1 = run_sweep(30, 50, APolicy("one"), cache_file=cache)
    # warm rerun must not recompute: timings replay exactly
    r2 = run_sweep(30, 50, APolicy("one"), cache_file=cache)
    assert r1 == r2
    # cached v matches a from-scratch hull
    for rec in r1:
        poly = convex_hull(enumerate_points(HyperbolaSpec(rec.m, rec.a)))
        assert poly.vertex_count == rec.v


def test_sweep_cache_file_holds_one_line_per_record(tmp_path):
    cache = tmp_path / "cache.txt"
    records = run_sweep(10, 12, APolicy("one"), cache_file=cache)
    lines = cache.read_text().strip().split("\n")
    assert [line.split() for line in lines] == [
        [str(r.m), "1", str(r.v), str(r.candidate_count), str(r.elapsed_ns), __version__] for r in records
    ]


# the cache line of (m, a) = (7, 3) with elapsed_ns = 1500, byte for byte as
# the package writes it for this version
CACHE_LINE_7_3 = f"7 3 6 6 1500 {__version__}"
# the same for (1000, 1): a certified ("fast") hull of a modulus that is not
# squarefree
CACHE_LINE_1000_1 = f"1000 1 14 26 1500 {__version__}"


def _hull_columns(rec):
    """The columns of a record that its hull gives, as a cache line holds them."""
    return rec.v, rec.candidate_count, rec.elapsed_ns


def test_sweep_cache_lines_keep_their_format(tmp_path, monkeypatch):
    real = experiments._hull
    monkeypatch.setattr(experiments, "_hull", lambda m, a: real(m, a)[:2] + (1500,))
    cache = tmp_path / "cache.txt"
    records = run_sweep(7, 7, APolicy("all"), cache_file=cache)
    records += run_sweep(1000, 1000, APolicy("one"), cache_file=cache)
    lines = cache.read_text(encoding="ascii").split("\n")
    assert len(lines) == 8 and lines[2] == CACHE_LINE_7_3 and lines[6] == CACHE_LINE_1000_1 and lines[-1] == ""
    # a cache written in this format, by this version or an earlier build of
    # it, replays to the same record
    old = tmp_path / "old.txt"
    old.write_text(CACHE_LINE_7_3 + "\n" + CACHE_LINE_1000_1 + "\n", encoding="ascii")
    loaded = experiments._load_cache(old, 7, 1000)
    assert loaded == {(7, 3): _hull_columns(records[2]), (1000, 1): _hull_columns(records[6])}
    assert [experiments._record(m, a, hull) for (m, a), hull in loaded.items()] == [records[2], records[6]]
    _forbid_compute(monkeypatch)
    assert run_sweep(1000, 1000, APolicy("one"), cache_file=old) == [records[6]]


def _line(m, a, v, candidate_count, elapsed_ns):
    """The cache line of these five integers, as run_sweep writes it."""
    return experiments._LINE_FORMAT % (m, a, v, candidate_count, elapsed_ns)


# the integers a cache line may hold: at most 19 digits, elapsed_ns from 0
_COUNTS = st.integers(1, 10**19 - 1)


@settings(deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(2, 2**31), _COUNTS, _COUNTS, _COUNTS, st.integers(0, 10**19 - 1)),
        min_size=1, max_size=6, unique_by=lambda row: row[:2],
    )
)
def test_cache_lines_load_back_to_their_records(tmp_path_factory, rows):
    path = tmp_path_factory.getbasetemp() / "round-trip.txt"
    path.write_bytes(b"".join(_line(*row) for row in rows))
    loaded = experiments._load_cache(path, min(row[0] for row in rows), max(row[0] for row in rows))
    # repr tells True from 1, which == does not
    assert repr(loaded) == repr({row[:2]: row[2:] for row in rows})


def test_computed_records_replay_from_their_lines(tmp_path):
    # seeded units on both sides of ENUMERATE_BELOW, up to MODULUS_CEILING
    rng = random.Random(2101)
    moduli = [rng.randrange(2, ENUMERATE_BELOW) for _ in range(30)]
    moduli += [int(math.exp(rng.uniform(math.log(ENUMERATE_BELOW), math.log(2**31)))) for _ in range(10)] + [2**31]
    tasks = {(m, a) for m in moduli for a in [rng.randrange(1, m)] if math.gcd(a, m) == 1}
    computed = {task: compute_record(*task) for task in sorted(tasks)}
    path = tmp_path / "cache.txt"
    path.write_bytes(b"".join(_line(rec.m, rec.a, *_hull_columns(rec)) for rec in computed.values()))
    loaded = experiments._load_cache(path, 2, 2**31)
    # repr tells -0.0 from 0.0 and True from 1, which == does not
    assert repr({task: experiments._record(*task, hull) for task, hull in loaded.items()}) == repr(computed)


def test_cache_replays_across_block_boundaries(tmp_path):
    # every value has a fixed width, so a line changed up to the boundary
    # keeps its length and the boundary stays where it was
    lines = [_line(m, 1, 10, 100, 123456) for m in range(1000, 6000)]
    ends = list(itertools.accumulate(map(len, lines)))
    b = next(i for i, end in enumerate(ends) if end >= experiments._BLOCK_BYTES)  # the first block's last line
    assert ends[-1] > 2 * experiments._BLOCK_BYTES
    lines[b - 1] = _line(9999, 1, 11, 100, 123456)
    lines[b] = lines[b].replace(b" 123456 ", b" 012345 ")  # not _LINE_FORMAT's spelling
    lines[b + 1] = lines[b + 1].replace(b" 100 ", b"\t100 ")
    lines[b + 2] = _line(9999, 1, 12, 100, 123456)  # the same key, past the boundary
    lines[-1] = lines[-1][:-4]  # torn by a killed sweep
    path = tmp_path / "cache.txt"
    path.write_bytes(b"".join(lines))
    kept = [m for i, m in enumerate(range(1000, 6000)) if i not in (b - 1, b, b + 1, b + 2, len(lines) - 1)]
    expected = {(m, 1): (10, 100, 123456) for m in kept}
    expected[9999, 1] = (12, 100, 123456)  # the later line wins
    loaded = experiments._load_cache(path, 1000, 9999)
    assert list(map(repr, sorted(loaded.items()))) == list(map(repr, sorted(expected.items())))


def test_interleaved_cache_lines_derive_each_modulus_once(tmp_path, monkeypatch):
    # two sweeps appending to one cache at once interleave their lines: the
    # warm sweep derives the columns of each modulus once, in task order
    cache = tmp_path / "cache.txt"
    cold = run_sweep(23, 24, APolicy("all"), cache_file=cache)
    lines = cache.read_bytes().splitlines(keepends=True)
    lines.sort(key=lambda line: (int(line.split()[1]), int(line.split()[0])))  # by a, then m
    assert [line[:5] for line in lines[:3]] == [b"23 1 ", b"24 1 ", b"23 2 "]
    cache.write_bytes(b"".join(lines))
    _forbid_compute(monkeypatch)
    experiments._modulus_stats.cache_clear()
    assert run_sweep(23, 24, APolicy("all"), cache_file=cache) == cold
    assert experiments._modulus_stats.cache_info().misses == 2


# damage to the cache line of (11, 1): each one is not _LINE_FORMAT's spelling
_DAMAGE = {
    "leading zero": lambda line: b"0" + line,
    "20-digit integer": lambda line: re.sub(rb"^(\d+ \d+ \d+ \d+) \d+", rb"\1 1" + b"0" * 19, line),
    "no version": lambda line: line.replace(f" {__version__}".encode(), b""),
    "other version": lambda line: line.replace(__version__.encode(), b"0.0.0"),
    "extra space": lambda line: line.replace(b" ", b"  ", 1),
    "trailing space": lambda line: line + b" ",
    "CRLF": lambda line: line + b"\r",
    "torn tail": lambda line: line[:-2],
}


@pytest.mark.parametrize("damage", list(_DAMAGE), ids=list(_DAMAGE))
def test_damaged_cache_line_is_recomputed(tmp_path, monkeypatch, damage):
    cache = tmp_path / "cache.txt"
    cold = run_sweep(10, 12, APolicy("one"), cache_file=cache)
    lines = cache.read_bytes().split(b"\n")
    assert lines[1].startswith(b"11 1 ")
    cache.write_bytes(b"\n".join([lines[0], _DAMAGE[damage](lines[1]), *lines[2:]]))
    assert list(experiments._load_cache(cache, 10, 12)) == [(10, 1), (12, 1)]
    computed = []
    real = experiments._hull
    monkeypatch.setattr(experiments, "_hull", lambda m, a: computed.append(m) or real(m, a))
    warm = run_sweep(10, 12, APolicy("one"), cache_file=cache)
    assert computed == [11] and warm[::2] == cold[::2] and _masked(warm) == _masked(cold)


def test_sweep_computes_when_its_cache_file_is_missing(tmp_path, monkeypatch):
    assert experiments._load_cache(tmp_path / "missing.txt", 3, 10) == {}
    # a file that a concurrent cleanup removes after a check that it exists
    monkeypatch.setattr(Path, "exists", lambda self: True)
    cache = tmp_path / "gone" / "cache.txt"
    records = run_sweep(10, 12, APolicy("one"), cache_file=cache)
    assert _masked(records) == _masked(run_sweep(10, 12, APolicy("one")))
    assert experiments._load_cache(cache, 10, 12) == {(r.m, r.a): _hull_columns(r) for r in records}
    _forbid_compute(monkeypatch)
    assert run_sweep(10, 12, APolicy("one"), cache_file=cache) == records


def test_pyproject_version_is_the_cache_version():
    # the cache key is (m, a, __version__): a bump in only one of the two
    # files would replay records of the old version as current ones
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == __version__


def test_sweep_factors_each_modulus_once(monkeypatch, tmp_path):
    calls = []
    real = ntheory.factorize

    def counting(n):
        calls.append(n)
        return real(n)

    # the columns of a modulus need m and m - 1 factored, through
    # experiments' binding; the one in ntheory is patched too, so a
    # factorization made inside ntheory (divisors of an int) would be
    # counted as well
    monkeypatch.setattr(ntheory, "factorize", counting)
    monkeypatch.setattr(experiments, "factorize", counting)
    cache = tmp_path / "cache.txt"
    for run in ("cold", "warm"):
        experiments._factorize.cache_clear()
        experiments._modulus_stats.cache_clear()
        calls.clear()
        records = run_sweep(3, 40, APolicy("all"), cache_file=cache)
        assert len(records) == sum(len(APolicy("all").a_values(m)) for m in range(3, 41))
        assert sorted(calls) == list(range(2, 41)), run  # each of m_min - 1, ..., m_max once


def test_sample_sweep_factors_each_modulus_once(monkeypatch):
    # listing the residues of sample:5 factorizes no m >= 50 (see
    # sample_coprime), so the columns of m are the only factorizations the
    # sweep asks for.  The certified hulls factorize too, through ntheory's
    # binding, which is not counted
    calls = []
    monkeypatch.setattr(experiments, "factorize", lambda n: calls.append(n) or ntheory.factorize(n))
    experiments._factorize.cache_clear()
    experiments._modulus_stats.cache_clear()
    assert len(run_sweep(1000, 1100, APolicy("sample", 5, 7))) == 5 * 101
    assert sorted(calls) == list(range(999, 1101))
    # below 2*5*5 = 50 listing the residues factorizes m too: the columns of
    # m reuse that factorization, with one worker or with a pool
    for workers in (1, 2):
        calls.clear()
        experiments._factorize.cache_clear()
        experiments._modulus_stats.cache_clear()
        assert len(run_sweep(3, 49, APolicy("sample", 5), workers=workers)) == sum(
            min(5, factorize(m).phi) for m in range(3, 50)
        )
        assert sorted(calls) == list(range(2, 50)), workers


def test_sweep_recovers_from_damaged_cache(tmp_path, monkeypatch):
    cache = tmp_path / "cache.txt"
    r1 = run_sweep(10, 17, APolicy("one"), cache_file=cache)
    lines = cache.read_bytes().split(b"\n")  # the records for m = 10, ..., 17

    def with_field(line, i, text):
        fields = line.split(b" ")
        fields[i] = text
        return b" ".join(fields)

    # a non-ASCII byte, integers this package never writes, and the line of
    # the JSON cache that came before this format
    lines[2] = lines[2].replace(b" ", b"\xa0", 1)
    lines[3] = with_field(lines[3], 2, b"x")
    lines[4] = with_field(lines[4], 2, lines[4].split(b" ")[2] + b".0")
    lines[5] = with_field(lines[5], 4, b"-5")
    lines[6] = with_field(lines[6], 2, b"0")
    lines[7] = json.dumps({"key": [17, 1, __version__], **r1[7]._asdict()}, sort_keys=True).encode()
    # lines that hold no record at all, and a stray non-ASCII byte
    damaged = [b"not json", b"123", b"null", b'"x"', b"[1]", b"\xff", b""]
    cache.write_bytes(b"\n".join(damaged + lines) + b'{"key": [1]}\n')
    computed = []
    real = experiments._hull
    monkeypatch.setattr(experiments, "_hull", lambda m, a: computed.append(m) or real(m, a))
    r2 = run_sweep(10, 17, APolicy("one"), cache_file=cache)
    assert [(r.m, r.a, r.v) for r in r1] == [(r.m, r.a, r.v) for r in r2]
    assert computed == [12, 13, 14, 15, 16, 17] and r2[:2] == r1[:2]


def _forbid_compute(monkeypatch):
    # compute_record hulls through _hull too
    def fail(m, a):
        raise AssertionError(f"record ({m}, {a}) was recomputed")

    monkeypatch.setattr(experiments, "_hull", fail)


def test_warm_sweep_builds_only_its_own_records(tmp_path, monkeypatch):
    # a cache line of another version, or with m outside the sweep's range,
    # is passed over: only the sweep's own records are built
    cache = tmp_path / "cache.txt"
    wide = run_sweep(3, 30, APolicy("one"), cache_file=cache)
    lines = cache.read_bytes().splitlines(keepends=True)  # m = 3, ..., 30
    this_version = f" {__version__}\n".encode()
    # later lines for m = 10, 11, 12 of another version, with a changed v
    stale = [re.sub(rb"^(\d+ \d+) \d+", rb"\1 99", line).replace(this_version, b" 0.0.0\n") for line in lines[7:10]]
    cache.write_bytes(b"".join(lines + stale))
    built = []
    real = experiments._record
    monkeypatch.setattr(experiments, "_record", lambda m, *rest: built.append(m) or real(m, *rest))
    _forbid_compute(monkeypatch)
    assert run_sweep(10, 12, APolicy("one"), cache_file=cache) == wide[7:10]
    assert built == [10, 11, 12]


def test_records_derive_t_and_squarefree_from_the_kernel(monkeypatch):
    # the hull is stubbed out: this checks the arithmetic columns only
    monkeypatch.setattr(experiments, "_hull", lambda m, a: (2, 2, 0))
    examples = {12: (4, 6, 2, False), 30: (8, 30, 1, True), 2: (1, 2, 1, True)}
    for m, (phi, kernel, t, squarefree) in examples.items():
        rec = compute_record(m, 1)
        assert (rec.phi, rec.kernel, rec.t, rec.squarefree) == (phi, kernel, t, squarefree)
    for m in range(2, 3000):
        rec = compute_record(m, 1)
        f = factorize(m)
        assert (rec.phi, rec.kernel, rec.tau_m_minus_1) == (f.phi, f.kernel, factorize(m - 1).tau)
        assert rec.t * rec.kernel == m
        assert rec.squarefree == (rec.t == 1) == (rec.kernel == m) == all(e == 1 for _, e in f.factors)


def test_compute_record_hulls_by_symmetry(monkeypatch):
    # below ENUMERATE_BELOW a record hulls the enumeration once, on the
    # symmetric path of convex_hull; from there on it keeps the polygon the
    # certified search accepted and hulls nothing more
    calls = []
    real = experiments.convex_hull
    monkeypatch.setattr(experiments, "convex_hull", lambda pts, **kw: calls.append(kw) or real(pts, **kw))
    for m, a in [(2, 1), (7, 3), (999, 2), (1001, 2), (99991, 12345)]:
        calls.clear()
        rec = compute_record(m, a)
        assert calls == ([{"mirror": m}] if m < ENUMERATE_BELOW else []), (m, a)
        assert rec.v == convex_hull(enumerate_points(HyperbolaSpec(m, a))).vertex_count, (m, a)


def test_sweep_appends_after_torn_last_line(tmp_path, monkeypatch):
    # a sweep killed in the middle of a write leaves a last line without "\n"
    cache = tmp_path / "cache.txt"
    run_sweep(10, 12, APolicy("one"), cache_file=cache)
    cache.write_bytes(cache.read_bytes()[:-20])
    wide = run_sweep(10, 16, APolicy("one"), cache_file=cache)
    _forbid_compute(monkeypatch)
    assert run_sweep(10, 12, APolicy("one"), cache_file=cache) == wide[:3]
    assert run_sweep(10, 16, APolicy("one"), cache_file=cache) == wide


def test_interrupted_sweep_keeps_computed_records(tmp_path, monkeypatch):
    cache = tmp_path / "cache.txt"
    real = experiments._hull
    done = []

    def hull_ten(m, a):
        if len(done) == 10:
            raise KeyboardInterrupt
        done.append(((m, a), real(m, a)))
        return done[-1][1]

    monkeypatch.setattr(experiments, "_hull", hull_ten)
    with pytest.raises(KeyboardInterrupt):
        run_sweep(3, 60, APolicy("one"), cache_file=cache)
    assert experiments._load_cache(cache, 3, 60) == dict(done)


def test_overlapping_sweeps_keep_each_others_records(tmp_path, monkeypatch):
    # the first record of the outer sweep runs a whole second sweep into the
    # same cache file: the outer one loaded the cache before the inner one wrote
    cache = tmp_path / "cache.txt"
    real = experiments._hull
    inner = []

    def compute(m, a):
        if not inner:
            inner.append(None)
            inner[:] = run_sweep(30, 50, APolicy("one"), cache_file=cache)
        return real(m, a)

    monkeypatch.setattr(experiments, "_hull", compute)
    outer = run_sweep(10, 40, APolicy("one"), cache_file=cache)
    _forbid_compute(monkeypatch)
    assert run_sweep(10, 40, APolicy("one"), cache_file=cache) == outer  # later line wins
    replay = run_sweep(30, 50, APolicy("one"), cache_file=cache)
    assert replay[11:] == inner[11:]
    assert [(r.m, r.v) for r in replay] == [(r.m, r.v) for r in inner]


def _mask_elapsed(text: str) -> str:
    """Cache lines or CSV text with every elapsed_ns set to 0."""
    return re.sub(r"^((?:\d+ ){4})\d+ ", r"\g<1>0 ", re.sub(r",\d+$", ",0", text, flags=re.M), flags=re.M)


def test_two_processes_sweep_into_one_cache(tmp_path, monkeypatch):
    # two CLI sweeps over overlapping ranges append to one cache at once
    import_root = Path(modhull.__path__[0]).resolve().parent  # as in criterion 9
    env = {"MODHULL_CACHE_DIR": str(tmp_path / "cache"), "PATH": "/usr/bin:/bin", "PYTHONPATH": str(import_root)}
    ranges = [(3, 90), (60, 120)]
    children = [
        subprocess.Popen(
            [sys.executable, "-m", "modhull.cli", "sweep", "--m-min", str(lo), "--m-max", str(hi),
             "--a-policy", "all", "--out", str(tmp_path / f"{lo}.csv")],
            env=env, cwd=tmp_path, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        for lo, hi in ranges
    ]
    for child in children:
        _, err = child.communicate(timeout=60)
        assert child.returncode == 0, err
    _forbid_compute(monkeypatch)
    for lo, hi in ranges:
        replay = run_sweep(lo, hi, APolicy("all"), cache_file=tmp_path / "cache" / "sweep-cache.txt")
        assert _mask_elapsed(records_to_csv(replay)) == _mask_elapsed((tmp_path / f"{lo}.csv").read_text())


def test_sweep_without_cache(tmp_path, monkeypatch):
    # a sweep given no cache file reads and writes none, not even the default
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("MODHULL_CACHE_DIR", str(tmp_path))
    r = run_sweep(10, 12, APolicy("one"))
    assert len(r) == 3
    assert not any(tmp_path.iterdir())


def test_sweep_workers_match_serial(tmp_path, monkeypatch):
    # "one" has no mirror pairs; under "all" the main process builds the mirrors
    for policy, m_min, m_max in (("one", 10, 60), ("all", 3, 60)):
        a, b = tmp_path / f"{policy}-a.txt", tmp_path / f"{policy}-b.txt"
        serial = run_sweep(m_min, m_max, APolicy(policy), cache_file=a)
        parallel = run_sweep(m_min, m_max, APolicy(policy), workers=2, cache_file=b)
        strip = lambda recs: [(r.m, r.a, r.v, r.phi, r.candidate_count) for r in recs]
        assert strip(serial) == strip(parallel)
        # both paths append the same lines, in the same order
        assert _mask_elapsed(b.read_text()) == _mask_elapsed(a.read_text())
    # a replay with nothing to hull starts no pool
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
    assert run_sweep(3, 60, APolicy("all"), workers=2, cache_file=b) == run_sweep(3, 60, APolicy("all"), cache_file=b)


def test_sweep_hulls_a_modulus_when_its_records_are_asked_for(tmp_path, monkeypatch):
    hulled = []
    real = experiments._hull
    monkeypatch.setattr(experiments, "_hull", lambda m, a: hulled.append((m, a)) or real(m, a))
    cache = tmp_path / "cache.txt"
    batches = experiments.sweep_moduli(10, 40, APolicy("all"), cache_file=cache)
    assert hulled == [] and not cache.exists()
    first = next(batches)
    assert [(r.m, r.a) for r in first] == [(10, 1), (10, 3), (10, 7), (10, 9)]
    assert hulled == [(10, 1), (10, 3)]  # and their mirrors, (10, 9) and (10, 7), from them
    assert list(experiments._load_cache(cache, 10, 40)) == [(10, 1), (10, 3), (10, 7), (10, 9)]
    assert [r.m for r in next(batches)] == [11] * 10 and {m for m, _ in hulled} == {10, 11}
    batches.close()  # the sweep is dropped after two moduli: the rest are never listed
    assert {m for m, _ in hulled} == {10, 11}
    _forbid_compute(monkeypatch)
    assert run_sweep(10, 11, APolicy("all"), cache_file=cache)[:4] == first


def _summary_reference(records) -> dict:
    """exponent_summary as it was when it grouped a list of records: the
    reference the folded summary must equal, float sums included."""
    def stats(group):
        exponents = [r.exponent for r in group]
        norms = [r.norm512 for r in group]
        return {
            "count": len(group),
            "max_exponent": max(exponents),
            "mean_exponent": sum(exponents) / len(group),
            "max_norm512": max(norms),
            "mean_norm512": sum(norms) / len(group),
        }

    by_sf, by_dyadic = {}, {}
    for r in records:
        by_sf.setdefault("squarefree" if r.squarefree else "non_squarefree", []).append(r)
        by_dyadic.setdefault(r.m.bit_length() - 1, []).append(r)
    return {
        "overall": stats(records),
        "by_squarefree": {k: stats(v) for k, v in sorted(by_sf.items())},
        "by_dyadic": {f"[2^{j},2^{j + 1})": stats(v) for j, v in sorted(by_dyadic.items())},
    }


@pytest.mark.parametrize(
    "m_min, m_max, policy",
    [
        (3, 400, APolicy("all")),
        (3, 3000, APolicy("one")),
        (900, 1100, APolicy("sample", 4, 2701)),
        (990, 1003, APolicy("all")),
    ],
)
def test_folded_summary_equals_the_summary_of_the_list(m_min, m_max, policy):
    # seeded sweeps on both sides of ENUMERATE_BELOW; repr tells floats
    # apart to the last bit, and the rendered text is what `sweep` prints
    fold = experiments.SummaryFold()
    records = []
    for batch in experiments.sweep_moduli(m_min, m_max, policy):
        fold.add(batch)
        records += batch
    assert records[0].m < ENUMERATE_BELOW or m_min >= ENUMERATE_BELOW
    assert fold.count == len(records)
    assert repr(fold.summary()) == repr(exponent_summary(records)) == repr(_summary_reference(records))
    assert render_exponent_summary(fold.summary()) == render_exponent_summary(exponent_summary(records))
    # records out of modulus order, too
    shuffled = random.Random(2702).sample(records, len(records))
    assert repr(exponent_summary(shuffled)) == repr(_summary_reference(shuffled))


def _masked(records) -> list[SweepRecord]:
    return [r._replace(elapsed_ns=0) for r in records]


@pytest.mark.parametrize("m_min, m_max", [(3, 150), (1000, 1004)])
def test_all_sweep_matches_records_computed_one_by_one(m_min, m_max):
    # a mirror (m, a), m - a < a, takes the record of (m, m - a): below and
    # above ENUMERATE_BELOW it is its own record, elapsed_ns aside
    swept = run_sweep(m_min, m_max, APolicy("all"))
    assert _masked(swept) == _masked(compute_record(m, a) for m, a in APolicy("all").tasks(m_min, m_max))


def test_cold_all_sweep_hulls_each_mirror_pair_once(monkeypatch):
    hulled = []
    real = experiments._hull
    monkeypatch.setattr(experiments, "_hull", lambda m, a: hulled.append((m, a)) or real(m, a))
    records = run_sweep(3, 60, APolicy("all"))
    assert len(hulled) == sum(factorize(m).phi for m in range(3, 61)) // 2 == len(records) // 2
    assert all(2 * a < m for m, a in hulled)


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_of_mirrors_alone_hulls_nothing(tmp_path, monkeypatch, workers):
    # the cache holds (7, 1), (7, 2) and (7, 3): each missing task is the
    # mirror of a cached record, so the list of tasks to hull is empty
    cache = tmp_path / "cache.txt"
    cold = run_sweep(7, 7, APolicy("all"), cache_file=cache)
    cache.write_bytes(b"".join(cache.read_bytes().splitlines(keepends=True)[:3]))
    _forbid_compute(monkeypatch)
    assert run_sweep(7, 7, APolicy("all"), workers=workers, cache_file=cache) == cold
    assert len(cold) == 6


def test_interrupted_all_sweep_keeps_its_mirror_records(tmp_path, monkeypatch):
    # the eleventh hull, of (9, 1), is interrupted: the records of m <= 8,
    # ten hulled and ten read off their partners, are all in the cache
    cache = tmp_path / "cache.txt"
    real = experiments._hull
    hulled = []

    def hull_ten(m, a):
        if len(hulled) == 10:
            raise KeyboardInterrupt
        hulled.append((m, a))
        return real(m, a)

    monkeypatch.setattr(experiments, "_hull", hull_ten)
    with pytest.raises(KeyboardInterrupt):
        run_sweep(3, 30, APolicy("all"), cache_file=cache)
    kept = experiments._load_cache(cache, 3, 30)
    assert list(kept) == list(APolicy("all").tasks(3, 8))
    assert [hull[:2] for hull in kept.values()] == [real(m, a)[:2] for m, a in kept]  # elapsed_ns aside
    # a later sweep replays those lines and hulls from (9, 1) on
    hulled.clear()
    monkeypatch.setattr(experiments, "_hull", lambda m, a: hulled.append((m, a)) or real(m, a))
    records = run_sweep(3, 30, APolicy("all"), cache_file=cache)
    assert list(map(_hull_columns, records[: len(kept)])) == list(kept.values())
    assert hulled[0] == (9, 1) and len(hulled) == (len(records) - len(kept)) // 2


_REAL_HULL = experiments._hull


def _logged_hull(log, m, a):
    """_hull, logging each (m, a) to a file the workers share."""
    with open(log, "a") as fh:
        fh.write(f"{m} {a}\n")
    return _REAL_HULL(m, a)


def test_parallel_sweep_stops_on_a_write_error(tmp_path, monkeypatch):
    # the pool pickles the patched _hull, a partial of a module-level
    # function, and the workers run it
    log = tmp_path / "computed.log"

    class FullDisk:
        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def write(self, data):
            raise OSError("no space left on device")

    monkeypatch.setattr(experiments, "_hull", functools.partial(_logged_hull, log))
    monkeypatch.setattr(experiments, "_open_for_append", lambda path: FullDisk())
    with pytest.raises(OSError):
        run_sweep(3, 120, APolicy("all"), workers=2, cache_file=tmp_path / "c.txt")
    total = sum(len(APolicy("all").a_values(m)) for m in range(3, 121))
    computed = len(log.read_text().splitlines()) if log.exists() else 0
    assert 0 < computed < total // 4  # the workers ran the fake; the queued tasks were cancelled


def test_sweep_rejects_bad_range():
    with pytest.raises(ValueError):
        run_sweep(10, 5, APolicy("one"))
    with pytest.raises(ValueError):
        run_sweep(1, 5, APolicy("one"))


@pytest.mark.parametrize("workers", [0, -3])
def test_sweep_rejects_fewer_than_one_worker(tmp_path, workers):
    with pytest.raises(ValueError, match="workers"):
        run_sweep(10, 12, APolicy("one"), workers=workers, cache_file=tmp_path / "w.txt")
    assert not (tmp_path / "w.txt").exists()


def test_sweep_starts_at_most_one_process_per_cpu(monkeypatch):
    # a fake pool records the size it was asked for: no process is started
    import concurrent.futures

    asked = []

    class NoPool:
        def __init__(self, max_workers):
            asked.append(max_workers)
            raise RuntimeError("no pool in this test")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
    with pytest.raises(RuntimeError, match="no pool"):
        run_sweep(10, 12, APolicy("one"), workers=100_000)
    assert asked == [min(100_000, os.cpu_count() or 1)]


def test_sweep_refuses_more_records_than_the_ceiling(tmp_path, monkeypatch):
    # the bound comes from the arguments: no residue list, cache or task list
    def build(*args):
        raise AssertionError("built above the ceiling")

    monkeypatch.setattr(APolicy, "a_values", build)
    monkeypatch.setattr(experiments, "_load_cache", build)
    big = 2**31 - 1
    for m_min, m_max, policy in [
        (2, big, APolicy("one")),
        (big, big, APolicy("all")),
        (2, SWEEP_CEILING // 2 + 2, APolicy("sample", k=2)),
    ]:
        with pytest.raises(ValueError, match=str(SWEEP_CEILING)):
            run_sweep(m_min, m_max, policy, cache_file=tmp_path / "c.txt")
    assert not (tmp_path / "c.txt").exists()
    # the bounds: one residue, k residues, or per modulus m - 1 >= phi(m) for
    # odd m and m/2 >= phi(m) for even m
    assert [APolicy(*p).max_count(5, 9) for p in (("one",), ("sample", 3), ("all",))] == [5, 15, 4 + 3 + 6 + 4 + 8]
    assert APolicy("sample", 10).max_count(5, 9) == 4 + 3 + 6 + 4 + 8  # a sample holds at most every unit


def test_all_bound_holds_every_unit_and_admits_3_to_2001():
    # the closed form is the sum of m - 1 over odd m and m/2 over even m, and
    # at least the sum of phi(m), the records of `all`, on every range
    # inside [2, 119]
    phi = [0, 0] + [factorize(m).phi for m in range(2, 120)]
    for lo in range(2, 120):
        for hi in range(lo, 120):
            bound = APolicy("all").max_count(lo, hi)
            assert bound == sum(m - 1 if m % 2 else m // 2 for m in range(lo, hi + 1)) >= sum(phi[lo : hi + 1])
    # `all` over [3, 2001] holds 1,217,818 records and is no longer refused
    assert APolicy("all").max_count(3, 2001) == 1_501_499 <= SWEEP_CEILING
    experiments.sweep_moduli(3, 2001, APolicy("all")).close()  # the refusal is made at the call


def test_sweep_and_census_refuse_moduli_past_the_ceiling(tmp_path, monkeypatch):
    # refused at the call, before any record is computed or cached
    _forbid_compute(monkeypatch)
    message = re.escape("modulus must be in [2, 2**31], got 2147483649")
    for policy in (APolicy("one"), APolicy("sample", k=2)):
        with pytest.raises(ValueError, match=message):
            run_sweep(2**31 - 1, 2**31 + 1, policy, cache_file=tmp_path / "c.txt")
    with pytest.raises(ValueError, match=message):
        lower_bound_census(2**31 - 1, 2**31 + 1)
    assert not (tmp_path / "c.txt").exists()


def test_census_examples():
    violations, equality = lower_bound_census(3, 100)
    assert violations == []
    assert equality > 0
    # spot values: v_1(5) = 4 = 2*(tau(4)-1), v_1(7) = 6 = 2*(tau(6)-1)
    v5, _ = lower_bound_census(5, 5)
    v7, _ = lower_bound_census(7, 7)
    assert v5 == [] and v7 == []
    assert compute_record(5, 1).v == 4 == 2 * (factorize(4).tau - 1)
    assert compute_record(7, 1).v == 6 == 2 * (factorize(6).tau - 1)


def test_exponent_summary_shapes(tmp_path):
    records = run_sweep(7, 40, APolicy("one"), cache_file=tmp_path / "c.txt")
    summary = exponent_summary(records)
    assert summary["overall"]["count"] == len(records)
    assert set(summary["by_squarefree"]) <= {"squarefree", "non_squarefree"}
    assert all(st["count"] >= 1 for st in summary["by_dyadic"].values())
    single = exponent_summary([compute_record(7, 1)])
    assert single["overall"]["max_exponent"] == pytest.approx(math.log(6) / math.log(7))
    text = render_exponent_summary(summary)
    assert "overall" in text and "squarefree" in text
    with pytest.raises(ValueError):
        exponent_summary([])
