import hashlib
import json
import random
import re

import pytest

from modhull import cli, experiments, hullfast, hyperbola
from modhull._version import __version__
from modhull.cli import main
from modhull.experiments import SWEEP_CEILING, APolicy, sample_coprime
from modhull.geometry import ConvexPolygon, convex_hull, twice_area
from modhull.hyperbola import format_points


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_hull_text(capsys):
    code, out, _ = run_cli(capsys, "hull", "--m", "7", "--a", "1")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "m=7 a=1 method=naive v=6"
    assert len(lines) == 7
    assert all(len(line.split()) == 2 for line in lines[1:])


def test_hull_text_is_pinned(capsys):
    # a header line, then the vertices in the package's point-line format
    expected = "m=7 a=1 method=naive v=6\n1 1\n4 2\n5 3\n6 6\n3 5\n2 4\n"
    assert run_cli(capsys, "hull", "--m", "7", "--a", "1") == (0, expected, "")
    for m, a in ((2, 1), (1009, 5), (2**31, 3)):
        poly = hullfast.fast_hull(hyperbola.HyperbolaSpec(m, a))
        header = f"m={m} a={a} method={hullfast.hull_method(m)} v={poly.vertex_count}\n"
        assert run_cli(capsys, "hull", "--m", str(m), "--a", str(a)) == (0, header + format_points(poly.vertices), "")


def test_hull_json(capsys):
    expected = (
        '{"m": 7, "a": 1, "method": "naive", "v": 6, "twice_area": 24, '
        '"vertices": [[1, 1], [4, 2], [5, 3], [6, 6], [3, 5], [2, 4]]}\n'
    )
    assert run_cli(capsys, "hull", "--m", "7", "--a", "1", "--json") == (0, expected, "")


def test_hull_method_flag(capsys):
    # the method is chosen from m alone; the old tuning flags are gone
    assert json.loads(run_cli(capsys, "hull", "--m", "7", "--a", "1", "--json")[1])["method"] == "naive"
    assert json.loads(run_cli(capsys, "hull", "--m", "1009", "--a", "1", "--json")[1])["method"] == "fast"
    for flag, value in (("--method", "fast"), ("--cutoff-factor", "4")):
        with pytest.raises(SystemExit) as exc:
            main(["hull", "--m", "7", "--a", "1", flag, value])
        assert exc.value.code == 2


@pytest.mark.parametrize("m", [2**31 - 1, 2**31])
def test_hull_json_at_modulus_ceiling(capsys, m):
    # the documented range: both ends of 2^31 run, with a = 1 and a seeded unit
    for a in [1] + sample_coprime(m, 1, 0x5EED8):
        code, out, _ = run_cli(capsys, "hull", "--m", str(m), "--a", str(a), "--json")
        assert code == 0
        obj = json.loads(out)
        assert (obj["m"], obj["a"], obj["method"]) == (m, a, "fast")
        verts = [tuple(p) for p in obj["vertices"]]
        ConvexPolygon(tuple(verts))  # strictly convex, counterclockwise
        assert obj["v"] == len(verts) >= 4
        assert all(0 < x < m and 0 < y < m and x * y % m == a for x, y in verts)
        assert {(y, x) for x, y in verts} == set(verts)
        assert {(m - x, m - y) for x, y in verts} == set(verts)


def _json_dumps_hull(m, a):
    """json.dumps of hull --json's dict, built from the library: the
    reference that the CLI's template must spell byte for byte."""
    poly = hullfast.fast_hull(hyperbola.HyperbolaSpec(m, a))
    out = {
        "m": m,
        "a": a,
        "method": hullfast.hull_method(m),
        "v": poly.vertex_count,
        "twice_area": twice_area(poly),
        "vertices": [list(p) for p in poly.vertices],
    }
    return json.dumps(out) + "\n"


def test_hull_json_spells_what_json_dumps_wrote(capsys):
    # m = 2, 3 and 4 have hulls of one or two vertices; then both ends of
    # 2^31, and seeded (m, a) with m log-uniform in [2, 2^31]
    cases = [(2, 1), (3, 1), (3, 2), (4, 1), (4, 3)]
    for m in (2**31 - 1, 2**31):
        cases += [(m, 1), (m, m - 1)] + [(m, a) for a in sample_coprime(m, 2, 0x150)]
    rng = random.Random(0x150)
    for _ in range(60):
        m = round(2 ** rng.uniform(1, 31))
        cases.append((m, sample_coprime(m, 1, rng.getrandbits(32))[0]))
    for m, a in cases:
        assert run_cli(capsys, "hull", "--m", str(m), "--a", str(a), "--json") == (0, _json_dumps_hull(m, a), ""), (m, a)


def test_hull_rejects_bad_residue(capsys):
    code, _, err = run_cli(capsys, "hull", "--m", "6", "--a", "2")
    assert code == 2
    assert "error" in err


def test_count(capsys):
    code, out, _ = run_cli(capsys, "count", "--m", "7", "--a", "1", "--U", "3", "--V", "5")
    assert code == 0
    assert "count: 3" in out
    assert "main term: 90/49" in out
    assert "difference: 57/49" in out


def test_count_stdout_is_pinned(capsys):
    # the exact stdout of the Fraction-based count before predicted_count
    # imported fractions on its own call: same count, main term and difference
    code, out, err = run_cli(capsys, "count", "--m", "100003", "--a", "17", "--U", "5000", "--V", "20000")
    assert (code, err) == (0, "")
    assert out == (
        "count: 969\n"
        "main term: 10000200000000/10000600009 (~999.96)\n"
        "difference: -309618591279/10000600009 (~-30.96)\n"
    )


def test_census(capsys):
    code, out, _ = run_cli(capsys, "census", "--m-max", "60")
    assert code == 0
    assert "violations: none" in out


def test_verify_ok(capsys):
    code, out, _ = run_cli(capsys, "verify", "--m-min", "10", "--m-max", "30", "--a-policy", "one")
    assert code == 0
    assert "all 21 hulls match" in out


def test_verify_mismatch_exit_code(capsys, monkeypatch):
    # a certified generator that loses every point off the diagonal
    real = hullfast._certified_hull

    def diagonal_only(spec):
        pts = {p for p in real(spec)[1] if p[0] == p[1]}
        return convex_hull(pts), pts

    monkeypatch.setattr(hullfast, "_certified_hull", diagonal_only)
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--m-min", "7", "--m-max", "7",
        "--a-policy", "one",
    )
    assert code == 1
    assert "MISMATCH" in out
    assert "missing=[(2, 4), (3, 5), (4, 2), (5, 3)] extra=[]" in out


def test_verify_refuses_oracle_beyond_ceiling(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--m-min", "2147483647", "--m-max", "2147483647", "--a-policy", "one"
    )
    assert code == 2
    assert err.startswith("error:") and "10000000" in err
    assert out == ""


def test_verify_refuses_all_residues_beyond_ceiling(capsys, monkeypatch):
    # the residue list (about 2^31 units here) must never be built
    def build(self, m):
        raise AssertionError("residue list built above the ceiling")

    monkeypatch.setattr(APolicy, "a_values", build)
    code, out, err = run_cli(
        capsys, "verify", "--m-min", "2147483647", "--m-max", "2147483647", "--a-policy", "all"
    )
    assert code == 2
    assert err.startswith("error:") and "10000000" in err
    assert out == ""


@pytest.mark.parametrize("m_min, m_max, policy", [("10", "5", "one"), ("1", "3", "all"), ("0", "0", "one")])
def test_verify_refuses_bad_range(capsys, monkeypatch, m_min, m_max, policy):
    # the same range check as sweep and census, before any hull is computed
    def oracle(spec):
        raise AssertionError(f"hull computed for {spec}")

    monkeypatch.setattr(cli, "verify_against_naive", oracle)
    code, out, err = run_cli(capsys, "verify", "--m-min", m_min, "--m-max", m_max, "--a-policy", policy)
    assert code == 2
    assert err.startswith("error:") and f"bad modulus range [{m_min}, {m_max}]" in err
    assert out == ""


def test_sweep_refuses_unbounded_range(tmp_path, capsys, monkeypatch):
    # about 2^31 tasks for one residue each, or 2^31 units for one modulus
    def build(self, m):
        raise AssertionError("residue list built above the ceiling")

    monkeypatch.setattr(APolicy, "a_values", build)
    monkeypatch.setenv("MODHULL_CACHE_DIR", str(tmp_path / "cache"))
    for lo, policy in (("2", "one"), ("2147483647", "all")):
        code, out, err = run_cli(
            capsys, "sweep", "--m-min", lo, "--m-max", "2147483647",
            "--a-policy", policy, "--out", str(tmp_path / "r.csv"),
        )
        assert code == 2
        assert err.startswith("error:") and str(SWEEP_CEILING) in err
        assert out == ""
    assert not (tmp_path / "cache").exists() and not (tmp_path / "r.csv").exists()


def test_count_refuses_box_beyond_ceiling(capsys, monkeypatch):
    # no inverse chunk may be built: this box would take about half an hour
    def build(m, upper):
        raise AssertionError("inverse chunks built above the ceiling")

    monkeypatch.setattr(hyperbola, "_unit_inverses", build)
    code, out, err = run_cli(
        capsys, "count", "--m", "2147483647", "--a", "1", "--U", "2147483646", "--V", "5"
    )
    assert code == 2
    assert err.startswith("error:") and "10000000" in err
    assert out == ""


def test_range_past_the_modulus_ceiling_is_refused_first(tmp_path, capsys, monkeypatch):
    # sweep and census compute no record, and write no cache or CSV;
    # verify reports this before its enumeration ceiling; compute_record
    # hulls through _hull too
    def compute(m, a):
        raise AssertionError(f"record computed for ({m}, {a})")

    monkeypatch.setattr(experiments, "_hull", compute)
    monkeypatch.setenv("MODHULL_CACHE_DIR", str(tmp_path / "cache"))
    span = ["--m-min", "2147483647", "--m-max", "2147483649"]
    for argv in (
        ["sweep", *span, "--a-policy", "one", "--out", str(tmp_path / "r.csv")],
        ["census", *span],
        ["verify", *span, "--a-policy", "one"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", "error: modulus must be in [2, 2**31], got 2147483649\n"), argv
    assert not any(tmp_path.iterdir())


def test_conic_count_refuses_box_beyond_ceiling(capsys):
    code, out, err = run_cli(capsys, "conic", "count", "--coeffs", "1", "0", "0", "0", "0", "0", "--H", "10000001")
    assert code == 2
    assert err.startswith("error:") and "10000000" in err
    assert out == ""


@pytest.mark.parametrize("policy", ["sample:abc", "sample:", "sample:1.5"])
def test_bad_sample_count_is_a_bad_policy(tmp_path, capsys, monkeypatch, policy):
    monkeypatch.chdir(tmp_path)
    for command in (["verify"], ["sweep", "--out", "r.csv", "--no-cache"]):
        code, out, err = run_cli(capsys, *command, "--m-min", "5", "--m-max", "9", "--a-policy", policy)
        assert (code, out, err) == (2, "", f"error: bad a-policy {policy!r}; expected one|all|sample:K\n")
        code, out, err = run_cli(capsys, *command, "--m-min", "5", "--m-max", "9", "--a-policy", "sample:0")
        assert (code, out, err) == (2, "", "error: sample policy needs k >= 1\n")
    assert not any(tmp_path.iterdir())


def test_sweep_writes_csv(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("MODHULL_CACHE_DIR", str(tmp_path / "cache"))
    out_file = tmp_path / "r.csv"
    code, out, _ = run_cli(
        capsys,
        "sweep",
        "--m-min", "10", "--m-max", "20",
        "--a-policy", "one",
        "--seed", "0",
        "--out", str(out_file),
    )
    assert code == 0
    lines = out_file.read_text().strip().split("\n")
    assert lines[0].startswith("m,a,v,phi")
    assert len(lines) == 12
    assert "wrote 11 records" in out


@pytest.mark.parametrize(
    "m_min, m_max, policy", [(3, 150, "all"), (990, 1005, "one"), (995, 1004, "sample:3"), (3, 49, "sample:5")]
)
def test_sweep_streams_what_the_list_of_records_gives(tmp_path, capsys, monkeypatch, m_min, m_max, policy):
    # the CSV written modulus by modulus and the folded summary are the
    # bytes of the records listed at once, on both sides of ENUMERATE_BELOW
    monkeypatch.setenv("MODHULL_CACHE_DIR", str(tmp_path / "cache"))
    out_file = tmp_path / "r.csv"
    code, out, err = run_cli(
        capsys, "sweep", "--m-min", str(m_min), "--m-max", str(m_max), "--a-policy", policy, "--seed", "11",
        "--out", str(out_file),
    )
    assert (code, err) == (0, "")
    cache = tmp_path / "cache" / "sweep-cache.txt"
    records = experiments.run_sweep(m_min, m_max, APolicy.parse(policy, seed=11), cache_file=cache)  # replayed
    assert out_file.read_text() == experiments.records_to_csv(records)
    summary = experiments.render_exponent_summary(experiments.exponent_summary(records))
    assert out == f"wrote {len(records)} records to {out_file}\n{summary}\n"


@pytest.mark.parametrize("before", [None, "an earlier sweep's CSV\n"])
def test_sweep_that_fails_partway_leaves_out_as_it_was(tmp_path, capsys, monkeypatch, before):
    # a sweep writes --out only once every record is made; the cache keeps
    # what was hulled
    monkeypatch.setenv("MODHULL_CACHE_DIR", str(tmp_path / "cache"))
    out_file = tmp_path / "r.csv"
    if before is not None:
        out_file.write_text(before)
    real = experiments._hull
    hulled = []

    def hull(m, a):
        if m == 30:
            raise fault
        hulled.append((m, a))
        return real(m, a)

    monkeypatch.setattr(experiments, "_hull", hull)
    argv = ["sweep", "--m-min", "10", "--m-max", "40", "--a-policy", "all", "--out", str(out_file)]
    fault = ValueError("no hull today")
    assert run_cli(capsys, *argv) == (2, "", "error: no hull today\n")
    fault = KeyboardInterrupt()
    with pytest.raises(KeyboardInterrupt):
        main(argv)
    assert (out_file.read_text() if out_file.exists() else None) == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cache"] + ["r.csv"] * (before is not None)
    cached = experiments._load_cache(tmp_path / "cache" / "sweep-cache.txt", 10, 40)
    assert {m for m, _ in cached} == set(range(10, 30)) and hulled and {m for m, _ in hulled} <= set(range(10, 30))


def test_sweep_byte_identical_reruns(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("MODHULL_CACHE_DIR", str(tmp_path / "cache"))
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for f in (f1, f2):
        code, _, _ = run_cli(
            capsys,
            "sweep",
            "--m-min", "100", "--m-max", "130",
            "--a-policy", "sample:2",
            "--seed", "42",
            "--out", str(f),
        )
        assert code == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_sweep_leaves_a_json_lines_cache_alone(tmp_path, capsys, monkeypatch):
    # the cache of earlier versions, JSON lines in sweep-cache.jsonl, is
    # neither read nor written: every hull is computed again, into
    # sweep-cache.txt, and the CSV is a cacheless sweep's
    monkeypatch.setenv("MODHULL_CACHE_DIR", str(tmp_path / "cache"))
    argv = ["sweep", "--m-min", "7", "--m-max", "12", "--a-policy", "all"]
    code, cold, _ = run_cli(capsys, *argv, "--out", str(tmp_path / "cold.csv"), "--no-cache")
    assert code == 0
    old = tmp_path / "cache" / "sweep-cache.jsonl"
    old.parent.mkdir()
    records = experiments.run_sweep(7, 12, APolicy("all"))
    lines = (json.dumps({"key": [r.m, r.a, __version__], **r._asdict()}, sort_keys=True) + "\n" for r in records)
    old.write_text("".join(lines))
    before = old.read_bytes()
    computed = []
    real = experiments._hull
    monkeypatch.setattr(experiments, "_hull", lambda m, a: computed.append((m, a)) or real(m, a))
    code, out, err = run_cli(capsys, *argv, "--out", str(tmp_path / "r.csv"))
    assert (code, err) == (0, "") and out == cold.replace("cold.csv", "r.csv")
    assert old.read_bytes() == before and len(computed) == len(records) // 2
    assert sorted(p.name for p in old.parent.iterdir()) == ["sweep-cache.jsonl", "sweep-cache.txt"]
    masked = [re.sub(r",\d+$", "", (tmp_path / f).read_text(), flags=re.M) for f in ("cold.csv", "r.csv")]  # elapsed_ns
    assert masked[0] == masked[1]


def test_sweep_sample_of_more_than_every_unit_runs(tmp_path, capsys, monkeypatch):
    # sample:K draws at most phi(m) units, so a K far past the ceiling's
    # share of a modulus is no reason to refuse a small range; the second
    # sweep replays the first one's records
    monkeypatch.setenv("MODHULL_CACHE_DIR", str(tmp_path / "cache"))
    for k in ("1000000", "100"):
        code, out, err = run_cli(
            capsys, "sweep", "--m-min", "3", "--m-max", "10", "--a-policy", f"sample:{k}",
            "--out", str(tmp_path / f"{k}.csv"),
        )
        assert (code, err) == (0, "") and "wrote 30 records" in out
    assert (tmp_path / "1000000.csv").read_bytes() == (tmp_path / "100.csv").read_bytes()


# Two cold sweeps, their whole stdout and the sha256 of their CSV with
# elapsed_ns masked: `all` over [3, 60] on the enumeration path and a seeded
# sample over [1000, 1010] on the certified one.  The summary means are
# float sum()s, which CPython 3.12 and later compensate, so each Python the
# suite runs on checks them.
PINNED_SWEEPS = {
    "--m-min 3 --m-max 60 --a-policy all": (
        """\
wrote 1100 records to r.csv
overall          n=1100   exponent max=0.9208 mean=0.6463  norm512 max=4.8251 mean=1.9614
non_squarefree   n=344    exponent max=0.8199 mean=0.5752  norm512 max=1.2399 mean=0.4802
squarefree       n=756    exponent max=0.9208 mean=0.6786  norm512 max=4.8251 mean=2.6354
[2^1,2^2)        n=2      exponent max=0.6309 mean=0.6309  norm512 max=1.2654 mean=1.2654
[2^2,2^3)        n=14     exponent max=0.9208 mean=0.7376  norm512 max=2.6670 mean=1.8161
[2^3,2^4)        n=54     exponent max=0.8977 mean=0.7084  norm512 max=3.4344 mean=1.9126
[2^4,2^5)        n=236    exponent max=0.8843 mean=0.6795  norm512 max=4.3324 mean=1.9411
[2^5,2^6)        n=794    exponent max=0.8254 mean=0.6306  norm512 max=4.8251 mean=1.9751
""",
        "734756f2a5ff9420f24f9e1999f6178261a3ba19ea7974ac2dd24a0618436217",
    ),
    "--m-min 1000 --m-max 1010 --a-policy sample:3 --seed 7": (
        """\
wrote 33 records to r.csv
overall          n=33     exponent max=0.5338 mean=0.4512  norm512 max=2.2466 mean=1.1284
non_squarefree   n=9      exponent max=0.4824 mean=0.4145  norm512 max=0.6737 mean=0.1846
squarefree       n=24     exponent max=0.5338 mean=0.4650  norm512 max=2.2466 mean=1.4823
[2^9,2^10)       n=33     exponent max=0.5338 mean=0.4512  norm512 max=2.2466 mean=1.1284
""",
        "e78a4de1980a40d12adfc7e43e254450df5b5abc612a6b649ae7e324cc5fac81",
    ),
}


@pytest.mark.parametrize("argv", list(PINNED_SWEEPS))
def test_sweep_output_is_pinned(tmp_path, capsys, monkeypatch, argv):
    stdout, digest = PINNED_SWEEPS[argv]
    monkeypatch.chdir(tmp_path)
    assert run_cli(capsys, "sweep", *argv.split(), "--out", "r.csv", "--no-cache") == (0, stdout, "")
    masked = re.sub(rb",\d+$", b"", (tmp_path / "r.csv").read_bytes(), flags=re.M)  # elapsed_ns
    assert hashlib.sha256(masked).hexdigest() == digest
    assert sorted(p.name for p in tmp_path.iterdir()) == ["r.csv"]  # no cache


def test_conic_fit(tmp_path, capsys):
    pts = tmp_path / "pts.txt"
    pts.write_text(format_points(((1, 12), (2, 6), (3, 4), (4, 3), (6, 2), (12, 1))))
    code, out, _ = run_cli(capsys, "conic", "fit", "--points", str(pts))
    assert code == 0
    assert out.strip() == "0 1 0 0 0 -12"


def test_conic_fit_names_the_bad_line(tmp_path, capsys):
    pts = tmp_path / "pts.txt"
    pts.write_text("1 2\n3 x\n")
    code, out, err = run_cli(capsys, "conic", "fit", "--points", str(pts))
    assert (code, out, err) == (2, "", "error: line 2: expected two integers, got '3 x'\n")


def test_conic_fit_full_rank(tmp_path, capsys):
    pts = tmp_path / "pts.txt"
    pts.write_text(format_points(((0, 0), (1, 0), (0, 1), (2, 3), (5, 1), (7, 11))))
    code, out, _ = run_cli(capsys, "conic", "fit", "--points", str(pts))
    assert code == 0
    assert "no vanishing form" in out


def test_conic_count(capsys):
    code, out, _ = run_cli(
        capsys, "conic", "count", "--coeffs", "1", "0", "-2", "0", "0", "-1", "--H", "100"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "count: 4"
    assert lines[1:] == ["1 0", "3 2", "17 12", "99 70"]


def test_missing_points_file(capsys):
    code, _, err = run_cli(capsys, "conic", "fit", "--points", "/nonexistent/p.txt")
    assert code == 2
    assert "error" in err


# The exact help and error text at COLUMNS=80 (argparse wraps to the
# terminal width): every command's --help, one usage error each, and the
# range refusal of the three commands that walk a modulus range.
CLI_TEXT = {
    "--help": (0, """\
usage: modhull [-h] {hull,sweep,verify,count,census,conic} ...

Command-line front end. Subcommands: hull, sweep, verify, count, census, conic
fit, conic count. Run `modhull <subcommand> -h` for flags.

positional arguments:
  {hull,sweep,verify,count,census,conic}
    hull                hull of one H_a(m): vertex count and vertices
    sweep               vertex counts over a modulus range, CSV out
    verify              compare certified hulls against brute force
    count               box count vs the expected main term
    census              check v_1(m) >= 2*(tau(m-1)-1) over a range
    conic               conic fitting and integral point counting

options:
  -h, --help            show this help message and exit
""", ""),
    "": (2, "", """\
usage: modhull [-h] {hull,sweep,verify,count,census,conic} ...
modhull: error: the following arguments are required: command
"""),
    "hull --help": (0, """\
usage: modhull hull [-h] --m M --a A [--json]

options:
  -h, --help  show this help message and exit
  --m M
  --a A
  --json
""", ""),
    "hull": (2, "", """\
usage: modhull hull [-h] --m M --a A [--json]
modhull hull: error: the following arguments are required: --m, --a
"""),
    "sweep --help": (0, """\
usage: modhull sweep [-h] --m-min M_MIN --m-max M_MAX --a-policy A_POLICY
                     [--seed SEED] --out OUT [--workers WORKERS] [--no-cache]

options:
  -h, --help           show this help message and exit
  --m-min M_MIN
  --m-max M_MAX
  --a-policy A_POLICY  one | all | sample:K
  --seed SEED
  --out OUT
  --workers WORKERS
  --no-cache
""", ""),
    "sweep": (2, "", """\
usage: modhull sweep [-h] --m-min M_MIN --m-max M_MAX --a-policy A_POLICY
                     [--seed SEED] --out OUT [--workers WORKERS] [--no-cache]
modhull sweep: error: the following arguments are required: --m-min, --m-max, --a-policy, --out
"""),
    "verify --help": (0, """\
usage: modhull verify [-h] --m-min M_MIN --m-max M_MAX --a-policy A_POLICY
                      [--seed SEED]

options:
  -h, --help           show this help message and exit
  --m-min M_MIN
  --m-max M_MAX
  --a-policy A_POLICY  one | all | sample:K
  --seed SEED
""", ""),
    "verify": (2, "", """\
usage: modhull verify [-h] --m-min M_MIN --m-max M_MAX --a-policy A_POLICY
                      [--seed SEED]
modhull verify: error: the following arguments are required: --m-min, --m-max, --a-policy
"""),
    "count --help": (0, """\
usage: modhull count [-h] --m M --a A --U U --V V

options:
  -h, --help  show this help message and exit
  --m M
  --a A
  --U U
  --V V
""", ""),
    "count": (2, "", """\
usage: modhull count [-h] --m M --a A --U U --V V
modhull count: error: the following arguments are required: --m, --a, --U, --V
"""),
    "census --help": (0, """\
usage: modhull census [-h] [--m-min M_MIN] --m-max M_MAX

options:
  -h, --help     show this help message and exit
  --m-min M_MIN
  --m-max M_MAX
""", ""),
    "census": (2, "", """\
usage: modhull census [-h] [--m-min M_MIN] --m-max M_MAX
modhull census: error: the following arguments are required: --m-max
"""),
    "conic --help": (0, """\
usage: modhull conic [-h] {fit,count} ...

positional arguments:
  {fit,count}
    fit        vanishing quadratic form through a point file
    count      integral solutions of a conic in [0,H]^2

options:
  -h, --help   show this help message and exit
""", ""),
    "conic": (2, "", """\
usage: modhull conic [-h] {fit,count} ...
modhull conic: error: the following arguments are required: conic_command
"""),
    "conic fit --help": (0, """\
usage: modhull conic fit [-h] --points POINTS

options:
  -h, --help       show this help message and exit
  --points POINTS  file with one 'x y' pair per line
""", ""),
    "conic fit": (2, "", """\
usage: modhull conic fit [-h] --points POINTS
modhull conic fit: error: the following arguments are required: --points
"""),
    "conic count --help": (0, """\
usage: modhull conic count [-h] --coeffs A B C D E F --H H

options:
  -h, --help            show this help message and exit
  --coeffs A B C D E F
  --H H
""", ""),
    "conic count": (2, "", """\
usage: modhull conic count [-h] --coeffs A B C D E F --H H
modhull conic count: error: the following arguments are required: --coeffs, --H
"""),
    "sweep --m-min 10 --m-max 5 --a-policy one --out r.csv": (2, "", "error: bad modulus range [10, 5]\n"),
    "verify --m-min 10 --m-max 5 --a-policy one": (2, "", "error: bad modulus range [10, 5]\n"),
    "census --m-min 1 --m-max 5": (2, "", "error: bad modulus range [1, 5]\n"),
}


@pytest.mark.parametrize("argv", list(CLI_TEXT))
def test_cli_text_is_pinned(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setenv("MODHULL_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.chdir(tmp_path)
    try:
        code = main(argv.split())
    except SystemExit as exc:  # argparse exits on --help and on a usage error
        code = exc.code
    out = capsys.readouterr()
    assert (code, out.out, out.err) == CLI_TEXT[argv]
    assert not any(tmp_path.iterdir())  # no cache, no CSV


def test_verify_reports_a_bad_policy_before_a_bad_range(capsys):
    # verify parses --a-policy first, as sweep does
    for command in (["verify"], ["sweep", "--out", "r.csv", "--no-cache"]):
        code, out, err = run_cli(capsys, *command, "--m-min", "10", "--m-max", "5", "--a-policy", "bad")
        assert (code, out, err) == (2, "", "error: bad a-policy 'bad'; expected one|all|sample:K\n")
