import dataclasses
import json
import math

import pytest

from modhull import experiments, ntheory
from modhull._version import __version__
from modhull.experiments import (
    CSV_COLUMNS,
    APolicy,
    SplitMix64,
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


def test_sweep_cache_lines_keep_their_format(tmp_path):
    # the format dataclasses.asdict gives, so existing caches of this version replay
    cache = tmp_path / "cache.jsonl"
    records = run_sweep(3, 13, APolicy("all"), cache_file=cache)
    expected = [
        json.dumps({"key": [r.m, r.a, __version__], **dataclasses.asdict(r)}, sort_keys=True)
        for r in records
    ]
    assert cache.read_text(encoding="ascii").split("\n") == expected + [""]


def test_sweep_factors_each_modulus_once(monkeypatch):
    calls = []
    real = ntheory.factorize

    def counting(n):
        calls.append(n)
        return real(n)

    # arithmetic_profile calls factorize through ntheory's own binding
    monkeypatch.setattr(ntheory, "factorize", counting)
    monkeypatch.setattr(experiments, "factorize", counting)
    records = run_sweep(3, 40, APolicy("all"), use_cache=False)
    assert len(records) == sum(len(APolicy("all").a_values(m)) for m in range(3, 41))
    assert len(calls) <= 2 * len(range(3, 41))


def test_sweep_recovers_from_damaged_cache(tmp_path):
    cache = tmp_path / "cache.jsonl"
    r1 = run_sweep(10, 12, APolicy("one"), cache_file=cache)
    cache.write_text('not json\n' + cache.read_text() + '{"key": [1]}\n')
    r2 = run_sweep(10, 12, APolicy("one"), cache_file=cache)
    assert [(r.m, r.a, r.v) for r in r1] == [(r.m, r.a, r.v) for r in r2]


def test_sweep_without_cache(tmp_path):
    r = run_sweep(10, 12, APolicy("one"), use_cache=False, cache_file=tmp_path / "x.jsonl")
    assert len(r) == 3
    assert not (tmp_path / "x.jsonl").exists()


def test_sweep_workers_match_serial(tmp_path):
    serial = run_sweep(10, 60, APolicy("one"), use_cache=False, cache_file=tmp_path / "a.jsonl")
    parallel = run_sweep(
        10, 60, APolicy("one"), workers=2, use_cache=False, cache_file=tmp_path / "b.jsonl"
    )
    strip = lambda recs: [(r.m, r.a, r.v, r.phi, r.candidate_count) for r in recs]
    assert strip(serial) == strip(parallel)


def test_sweep_rejects_bad_range():
    with pytest.raises(ValueError):
        run_sweep(10, 5, APolicy("one"), use_cache=False)
    with pytest.raises(ValueError):
        run_sweep(1, 5, APolicy("one"), use_cache=False)


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
