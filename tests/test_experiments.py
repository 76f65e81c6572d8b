import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

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
    with pytest.raises(ValueError):
        APolicy.parse("sample:0")
    with pytest.raises(ValueError):
        APolicy.parse("some")


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


def test_sweep_example_values(tmp_path):
    records = run_sweep(3, 7, APolicy("one"), cache_file=tmp_path / "c.jsonl")
    assert [r.v for r in records] == [2, 2, 4, 2, 6]
    assert [r.m for r in records] == [3, 4, 5, 6, 7]
    records = run_sweep(7, 7, APolicy("all"), cache_file=tmp_path / "c.jsonl")
    assert len(records) == 6
    assert [r.a for r in records] == [1, 2, 3, 4, 5, 6]
    records = run_sweep(5, 5, APolicy("sample", k=2, seed=3), cache_file=tmp_path / "c.jsonl")
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
    records = run_sweep(3, 60, APolicy("one"), cache_file=tmp_path / "c.jsonl")
    for r in records:
        assert r.v >= 2 * (r.tau_m_minus_1 - 1)
        assert 1 <= r.v <= r.phi


def test_csv_schema_and_formatting(tmp_path):
    records = run_sweep(10, 12, APolicy("one"), cache_file=tmp_path / "c.jsonl")
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
    assert rec.csv_row() == "7,1,1,6,4,7,1,1,0,1.23457e-07,naive,6,1500"
    rec = rec._replace(m=12, squarefree=False, exponent=math.log(6) / math.log(7), norm512=math.pi * 1e8)
    assert rec.csv_row() == "12,1,1,6,4,7,1,0,0.920782,3.14159e+08,naive,6,1500"


def test_sweep_determinism_with_cache(tmp_path):
    cache = tmp_path / "cache.jsonl"
    r1 = run_sweep(20, 40, APolicy("sample", k=2, seed=42), cache_file=cache)
    r2 = run_sweep(20, 40, APolicy("sample", k=2, seed=42), cache_file=cache)
    assert records_to_csv(r1) == records_to_csv(r2)  # byte-identical replay
    assert r1 == r2


def test_sweep_cache_coherence(tmp_path):
    cache = tmp_path / "cache.jsonl"
    r1 = run_sweep(30, 50, APolicy("one"), cache_file=cache)
    # warm rerun must not recompute: timings replay exactly
    r2 = run_sweep(30, 50, APolicy("one"), cache_file=cache)
    assert r1 == r2
    # cached v matches a from-scratch hull
    for rec in r1:
        poly = convex_hull(enumerate_points(HyperbolaSpec(rec.m, rec.a)))
        assert poly.vertex_count == rec.v


def test_sweep_cache_file_is_jsonl(tmp_path):
    cache = tmp_path / "cache.jsonl"
    run_sweep(10, 12, APolicy("one"), cache_file=cache)
    lines = cache.read_text().strip().split("\n")
    assert len(lines) == 3
    obj = json.loads(lines[0])
    assert obj["m"] == 10 and "key" in obj


# the cache line of (m, a) = (7, 3) with elapsed_ns = 1500, byte for byte as
# the package has always written it for this version
CACHE_LINE_7_3 = (
    '{"a": 3, "candidate_count": 6, "elapsed_ns": 1500, "exponent": 0.9207822211616018, "kernel": 7, '
    f'"key": [7, 3, "{__version__}"], "m": 7, "method": "naive", "norm512": 2.667024879461478, "phi": 6, '
    '"squarefree": true, "t": 1, "tau_m_minus_1": 4, "v": 6}'
)


def test_sweep_cache_lines_keep_their_format(tmp_path, monkeypatch):
    real = experiments.compute_record
    monkeypatch.setattr(experiments, "compute_record", lambda m, a: real(m, a)._replace(elapsed_ns=1500))
    cache = tmp_path / "cache.jsonl"
    records = run_sweep(7, 7, APolicy("all"), cache_file=cache)
    lines = cache.read_text(encoding="ascii").split("\n")
    assert len(lines) == 7 and lines[2] == CACHE_LINE_7_3 and lines[-1] == ""
    # a cache written in this format, by this version or an earlier build of
    # it, replays to the same record
    old = tmp_path / "old.jsonl"
    old.write_text(CACHE_LINE_7_3 + "\n", encoding="ascii")
    assert experiments._load_cache(old, 7, 7) == {(7, 3): records[2]}


def test_pyproject_version_is_the_cache_version():
    # the cache key is (m, a, __version__): a bump in only one of the two
    # files would replay records of the old version as current ones
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == __version__


def test_sweep_factors_each_modulus_once(monkeypatch):
    calls = []
    real = ntheory.factorize

    def counting(n):
        calls.append(n)
        return real(n)

    # compute_record factors m and m - 1 through experiments' binding; the
    # one in ntheory is patched too, so a factorization made inside ntheory
    # (divisors of an int) would be counted as well
    monkeypatch.setattr(ntheory, "factorize", counting)
    monkeypatch.setattr(experiments, "factorize", counting)
    records = run_sweep(3, 40, APolicy("all"))
    assert len(records) == sum(len(APolicy("all").a_values(m)) for m in range(3, 41))
    assert len(calls) <= 2 * len(range(3, 41))


def test_sweep_recovers_from_damaged_cache(tmp_path, monkeypatch):
    cache = tmp_path / "cache.jsonl"
    r1 = run_sweep(10, 17, APolicy("one"), cache_file=cache)
    lines = cache.read_bytes().split(b"\n")  # the records for m = 10, ..., 17
    lines[2] = lines[2].replace(b'"naive"', b'"na\xffve"')
    # well-formed JSON records that break the schema: fields of the wrong type,
    # a non-ASCII method, and a key that disagrees with the record's m
    lines[3] = re.sub(rb'"v": \d+', b'"v": "x"', lines[3])
    lines[4] = re.sub(rb'"v": (\d+)', rb'"v": \1.0', lines[4])
    lines[5] = re.sub(rb'"squarefree": \w+', b'"squarefree": 7', lines[5])
    lines[6] = lines[6].replace(b'"naive"', b'"na\\u00efve"')
    lines[7] = lines[7].replace(b'"m": 17,', b'"m": 16,')
    # valid JSON that is not an object, and a stray non-ASCII byte
    damaged = [b"not json", b"123", b"null", b'"x"', b"[1]", b"\xff"]
    cache.write_bytes(b"\n".join(damaged + lines) + b'{"key": [1]}\n')
    computed = []
    real = experiments.compute_record
    monkeypatch.setattr(experiments, "compute_record", lambda m, a: computed.append(m) or real(m, a))
    r2 = run_sweep(10, 17, APolicy("one"), cache_file=cache)
    assert [(r.m, r.a, r.v) for r in r1] == [(r.m, r.a, r.v) for r in r2]
    assert computed == [12, 13, 14, 15, 16, 17] and r2[:2] == r1[:2]


def _forbid_compute(monkeypatch):
    def fail(m, a):
        raise AssertionError(f"record ({m}, {a}) was recomputed")

    monkeypatch.setattr(experiments, "compute_record", fail)


def test_warm_sweep_builds_only_its_own_records(tmp_path, monkeypatch):
    # a cache line of another version, or with m outside the sweep's range,
    # is passed over before a SweepRecord is built from it
    cache = tmp_path / "cache.jsonl"
    wide = run_sweep(3, 30, APolicy("one"), cache_file=cache)
    lines = cache.read_bytes().splitlines(keepends=True)  # m = 3, ..., 30
    this_version = f'"{__version__}"]'.encode()
    # later lines for m = 10, 11, 12 of another version, with a changed v
    stale = [
        re.sub(rb'"v": \d+', b'"v": 99', line).replace(this_version, b'"0.0.0"]') for line in lines[7:10]
    ]
    cache.write_bytes(b"".join(lines + stale))
    built = []
    real = experiments.SweepRecord
    monkeypatch.setattr(experiments, "SweepRecord", lambda **fields: built.append(fields["m"]) or real(**fields))
    _forbid_compute(monkeypatch)
    assert run_sweep(10, 12, APolicy("one"), cache_file=cache) == wide[7:10]
    assert built == [10, 11, 12]


def test_records_derive_t_and_squarefree_from_the_kernel(monkeypatch):
    # the hull is stubbed out: this checks the arithmetic columns only
    monkeypatch.setattr(experiments, "candidate_points", lambda spec: [(1, 1)])
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


def test_sweep_appends_after_torn_last_line(tmp_path, monkeypatch):
    # a sweep killed in the middle of a write leaves a last line without "\n"
    cache = tmp_path / "cache.jsonl"
    run_sweep(10, 12, APolicy("one"), cache_file=cache)
    cache.write_bytes(cache.read_bytes()[:-20])
    wide = run_sweep(10, 16, APolicy("one"), cache_file=cache)
    _forbid_compute(monkeypatch)
    assert run_sweep(10, 12, APolicy("one"), cache_file=cache) == wide[:3]
    assert run_sweep(10, 16, APolicy("one"), cache_file=cache) == wide


def test_interrupted_sweep_keeps_computed_records(tmp_path, monkeypatch):
    cache = tmp_path / "cache.jsonl"
    real = experiments.compute_record
    done = []

    def compute_ten(m, a):
        if len(done) == 10:
            raise KeyboardInterrupt
        done.append(real(m, a))
        return done[-1]

    monkeypatch.setattr(experiments, "compute_record", compute_ten)
    with pytest.raises(KeyboardInterrupt):
        run_sweep(3, 60, APolicy("one"), cache_file=cache)
    assert experiments._load_cache(cache, 3, 60) == {(r.m, r.a): r for r in done}


def test_overlapping_sweeps_keep_each_others_records(tmp_path, monkeypatch):
    # the first record of the outer sweep runs a whole second sweep into the
    # same cache file: the outer one loaded the cache before the inner one wrote
    cache = tmp_path / "cache.jsonl"
    real = experiments.compute_record
    inner = []

    def compute(m, a):
        if not inner:
            inner.append(None)
            inner[:] = run_sweep(30, 50, APolicy("one"), cache_file=cache)
        return real(m, a)

    monkeypatch.setattr(experiments, "compute_record", compute)
    outer = run_sweep(10, 40, APolicy("one"), cache_file=cache)
    _forbid_compute(monkeypatch)
    assert run_sweep(10, 40, APolicy("one"), cache_file=cache) == outer  # later line wins
    replay = run_sweep(30, 50, APolicy("one"), cache_file=cache)
    assert replay[11:] == inner[11:]
    assert [(r.m, r.v) for r in replay] == [(r.m, r.v) for r in inner]


def _mask_elapsed(text: str) -> str:
    """Cache lines or CSV text with every elapsed_ns set to 0."""
    return re.sub(r'"elapsed_ns": \d+', '"elapsed_ns": 0', re.sub(r",\d+$", ",0", text, flags=re.M))


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
        replay = run_sweep(lo, hi, APolicy("all"), cache_file=tmp_path / "cache" / "sweep-cache.jsonl")
        assert _mask_elapsed(records_to_csv(replay)) == _mask_elapsed((tmp_path / f"{lo}.csv").read_text())


def test_sweep_without_cache(tmp_path, monkeypatch):
    # a sweep given no cache file reads and writes none, not even the default
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("MODHULL_CACHE_DIR", str(tmp_path))
    r = run_sweep(10, 12, APolicy("one"))
    assert len(r) == 3
    assert not any(tmp_path.iterdir())


def test_sweep_workers_match_serial(tmp_path):
    serial = run_sweep(10, 60, APolicy("one"), cache_file=tmp_path / "a.jsonl")
    parallel = run_sweep(10, 60, APolicy("one"), workers=2, cache_file=tmp_path / "b.jsonl")
    strip = lambda recs: [(r.m, r.a, r.v, r.phi, r.candidate_count) for r in recs]
    assert strip(serial) == strip(parallel)
    # both paths append the same lines, in the same order
    assert _mask_elapsed((tmp_path / "b.jsonl").read_text()) == _mask_elapsed((tmp_path / "a.jsonl").read_text())


def test_parallel_sweep_stops_on_a_write_error(tmp_path, monkeypatch):
    # the workers inherit the patched compute_record when they are forked
    log = tmp_path / "computed.log"
    real = experiments.compute_record

    def logged(m, a):
        with open(log, "a") as fh:
            fh.write(f"{m} {a}\n")
        return real(m, a)

    class FullDisk:
        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def write(self, data):
            raise OSError("no space left on device")

    monkeypatch.setattr(experiments, "compute_record", logged)
    monkeypatch.setattr(experiments, "_open_for_append", lambda path: FullDisk())
    with pytest.raises(OSError):
        run_sweep(3, 120, APolicy("all"), workers=2, cache_file=tmp_path / "c.jsonl")
    total = sum(len(APolicy("all").a_values(m)) for m in range(3, 121))
    computed = len(log.read_text().splitlines()) if log.exists() else 0
    assert computed < total // 4  # the queued tasks were cancelled, not run


def test_sweep_rejects_bad_range():
    with pytest.raises(ValueError):
        run_sweep(10, 5, APolicy("one"))
    with pytest.raises(ValueError):
        run_sweep(1, 5, APolicy("one"))


@pytest.mark.parametrize("workers", [0, -3])
def test_sweep_rejects_fewer_than_one_worker(tmp_path, workers):
    with pytest.raises(ValueError, match="workers"):
        run_sweep(10, 12, APolicy("one"), workers=workers, cache_file=tmp_path / "w.jsonl")
    assert not (tmp_path / "w.jsonl").exists()


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
            run_sweep(m_min, m_max, policy, cache_file=tmp_path / "c.jsonl")
    assert not (tmp_path / "c.jsonl").exists()
    # the bounds: one residue, k residues, or m - 1 >= phi(m) per modulus
    assert [APolicy(*p).max_count(5, 9) for p in (("one",), ("sample", 3), ("all",))] == [5, 15, 4 + 5 + 6 + 7 + 8]


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
    records = run_sweep(7, 40, APolicy("one"), cache_file=tmp_path / "c.jsonl")
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
