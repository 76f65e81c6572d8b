"""Acceptance suite: the package's exit criteria, one test per criterion.

Each test prints one PASS line (visible with -s or in captured output).
Frozen constants below were measured with the seeded protocols in this
file and locked in as regression bounds; all seeds are fixed here so every
run reproduces the same inputs.
"""

import math
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from pathlib import Path

import pytest

import modhull
from modhull.conics import CONIC_MONOMIALS, count_conic_points_in_box, find_vanishing_form
from modhull.experiments import SplitMix64, compute_record, exponent_summary, lower_bound_census, sample_coprime
from modhull.geometry import ConvexPolygon, convex_hull, normalize_to_box, twice_area
from modhull.hullfast import verify_against_naive
from modhull.hyperbola import (
    HyperbolaSpec,
    count_in_box,
    enumerate_points,
    predicted_count,
)
from modhull.ntheory import divisors, factorize

SWEEP_SEED = 0xC0FFEE  # criterion 1/8 residue samples
PAIRS_SEED = 0x5EED3  # criterion 3 (m, a) pairs
BOX_SEED = 0x5EED4  # criterion 4 tuples
GENERIC_SEED = 0x5EED5  # criterion 5 generic points
FORMS_SEED = 0x5EED6  # criterion 6 random forms
EXP_SEED = 0x5EED7  # criterion 7 moduli and residues

# measured 0.0049246 over the 200 seeded tuples; frozen at twice that
EQUIDISTRIBUTION_C = 0.00985
# measured 0.514749 over the seeded exponent sweep; frozen just above
EXPONENT_CEILING = 0.5148


def residues_for(m: int) -> list[int]:
    return sorted({1, m - 1} | set(sample_coprime(m, 3, SWEEP_SEED)))


@pytest.fixture(scope="module")
def sweep_reports():
    """Criterion 1/8 workhorse: fast-vs-naive verification for every
    m in [10, 3000] and its five residues."""
    out = []
    for m in range(10, 3001):
        for a in residues_for(m):
            rep = verify_against_naive(HyperbolaSpec(m, a))
            out.append(rep)
    return out


def test_criterion_1_fast_hull_oracle_equivalence(sweep_reports):
    mismatched = [(r.m, r.a) for r in sweep_reports if not r.equal]
    assert mismatched == []
    assert len(sweep_reports) == 14900
    print(
        f"\nPASS criterion 1: fast hull == naive hull for all {len(sweep_reports)} "
        f"(m, a) pairs, m in [10, 3000]"
    )


def test_criterion_2_lower_bound_census():
    violations, equality = lower_bound_census(3, 5000)
    assert violations == []
    spot5 = convex_hull(enumerate_points(HyperbolaSpec(5, 1)))
    spot7 = convex_hull(enumerate_points(HyperbolaSpec(7, 1)))
    assert spot5.vertex_count == 4 and sorted(spot5.vertices) == [(1, 1), (2, 3), (3, 2), (4, 4)]
    assert spot7.vertex_count == 6
    assert spot5.vertex_count == 2 * (factorize(4).tau - 1)
    assert spot7.vertex_count == 2 * (factorize(6).tau - 1)
    print(
        f"\nPASS criterion 2: v_1(m) >= 2(tau(m-1)-1) for m in [3, 5000], "
        f"0 violations, {equality} equalities; v_1(5)=4, v_1(7)=6"
    )


def test_criterion_3_cardinality_and_symmetry():
    rng = SplitMix64(PAIRS_SEED)
    pairs = []
    while len(pairs) < 100:
        m = 2 + rng.below(10_000 - 1)
        a = 1 + rng.below(m - 1) if m > 2 else 1
        if math.gcd(a, m) == 1:
            pairs.append((m, a))
    for m, a in pairs:
        spec = HyperbolaSpec(m, a)
        pts = enumerate_points(spec)
        assert len(pts) == factorize(m).phi
        verts = set(convex_hull(pts).vertices)
        assert {(y, x) for x, y in verts} == verts
        assert {(m - x, m - y) for x, y in verts} == verts
    print(
        "\nPASS criterion 3: #H_a(m) = phi(m) and hull closed under swap/negate "
        "for 100 seeded pairs, m <= 10^4"
    )


def test_criterion_4_box_count_equidistribution():
    rng = SplitMix64(BOX_SEED)
    tuples = []
    while len(tuples) < 200:
        m = 2 + rng.below(100_000 - 1)
        a = 1 + rng.below(m - 1) if m > 2 else 1
        if math.gcd(a, m) != 1:
            continue
        tuples.append((m, a, rng.below(m), rng.below(m)))
    worst = 0.0
    for m, a, U, V in tuples:
        spec = HyperbolaSpec(m, a)
        err = abs(Fraction(count_in_box(spec, U, V)) - predicted_count(spec, U, V))
        ratio = float(err) / (math.sqrt(m) * (1 + math.log(m)) ** 2)
        assert ratio <= EQUIDISTRIBUTION_C, (m, a, U, V, ratio)
        worst = max(worst, ratio)
    print(
        f"\nPASS criterion 4: |count - UV*phi/m^2| <= C*sqrt(m)*(1+ln m)^2 "
        f"with frozen C={EQUIDISTRIBUTION_C}; worst observed ratio {worst:.6f}"
    )


def test_criterion_5_conic_recovery():
    pts = [(d, 720 // d) for d in divisors(720)]
    assert len(pts) == 30
    assert find_vanishing_form(pts, CONIC_MONOMIALS) == (0, 1, 0, 0, 0, -720)
    rng = SplitMix64(GENERIC_SEED)
    gen = []
    while len(gen) < 6:
        p = (rng.below(101) - 50, rng.below(101) - 50)
        if p not in gen:
            gen.append(p)
    assert find_vanishing_form(gen, CONIC_MONOMIALS) is None
    print(
        "\nPASS criterion 5: divisor points of 720 recover XY - 720; "
        "6 seeded generic points give no vanishing form"
    )


def test_criterion_6_quadratic_counting_oracle():
    count, sols = count_conic_points_in_box((1, 0, -2, 0, 0, -1), 100)
    assert count == 4 and sols == [(1, 0), (3, 2), (17, 12), (99, 70)]
    count, sols = count_conic_points_in_box((1, 0, 1, 0, 0, -25), 5)
    assert count == 4 and sols == [(0, 5), (3, 4), (4, 3), (5, 0)]
    rng = SplitMix64(FORMS_SEED)
    forms = []
    while len(forms) < 50:
        c = tuple(rng.below(41) - 20 for _ in range(6))
        if any(c) and math.gcd(*c) == 1:
            forms.append(c)
    H = 200
    for c in forms:
        A, B, C, D, E, F = c
        brute = sorted(
            (x, y)
            for x in range(H + 1)
            for y in range(H + 1)
            if A * x * x + B * x * y + C * y * y + D * x + E * y + F == 0
        )
        assert count_conic_points_in_box(c, H)[1] == brute, c
    print(
        "\nPASS criterion 6: Pell and circle counts exact; 50 seeded primitive "
        "forms agree with the double-loop oracle at H=200"
    )


def test_criterion_7_exponent_regression():
    rng = SplitMix64(EXP_SEED)
    moduli = set()
    while len(moduli) < 200:
        moduli.add(10_000 + rng.below(90_001))
    tasks = [
        (m, a)
        for m in sorted(moduli)
        for a in sorted({1} | set(sample_coprime(m, 2, EXP_SEED)))
    ]
    with ProcessPoolExecutor(max_workers=4) as pool:
        records = list(pool.map(compute_record, *zip(*tasks), chunksize=4))
    summary = exponent_summary(records)
    worst = summary["overall"]["max_exponent"]
    assert worst <= EXPONENT_CEILING, worst
    by_sf = summary["by_squarefree"]
    print(
        f"\nPASS criterion 7: max ln(v)/ln(m) = {worst:.6f} <= frozen {EXPONENT_CEILING} "
        f"over {len(records)} records; squarefree max "
        f"{by_sf.get('squarefree', {}).get('max_exponent', float('nan')):.4f}, "
        f"non-squarefree max {by_sf.get('non_squarefree', {}).get('max_exponent', float('nan')):.4f}"
    )


def test_criterion_8_box_normalization(sweep_reports):
    worst = 0.0
    worst_case = None
    normalized = 0
    vertex_area_ratio = 0.0  # v / (2S)^(1/3), recorded but not asserted
    for rep in sweep_reports:
        poly = ConvexPolygon(rep.naive_vertices)
        if poly.degenerate:
            continue
        _, u, v = normalize_to_box(poly)
        t2 = twice_area(poly)
        assert u * v <= 4 * t2, (rep.m, rep.a, u, v, t2)  # u*v <= 8 * area
        ratio = 2 * u * v / t2  # u*v relative to the area
        if ratio > worst:
            worst, worst_case = ratio, (rep.m, rep.a)
        vertex_area_ratio = max(vertex_area_ratio, poly.vertex_count / t2 ** (1 / 3))
        normalized += 1
    print(
        f"\nPASS criterion 8: u*v <= 8*area for all {normalized} hulls from the "
        f"m <= 3000 sweep; worst u*v/area = {worst:.4f} at (m, a) = {worst_case} "
        f"(target 4, ceiling 8); recorded worst v/(2S)^(1/3) = {vertex_area_ratio:.4f}"
    )


def test_criterion_9_cli_determinism(tmp_path):
    env_dir = tmp_path / "cache"
    import_root = Path(modhull.__path__[0]).resolve().parent
    outs = []
    for name in ("one.csv", "two.csv"):
        out = tmp_path / name
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "modhull.cli",
                "sweep",
                "--m-min", "100",
                "--m-max", "400",
                "--a-policy", "sample:2",
                "--seed", "42",
                "--out", str(out),
            ],
            # PYTHONPATH is the import root of the modhull this process
            # imported (src/ or an installed copy), so the child runs the
            # same code as the in-process tests; the env is otherwise kept
            # minimal.  Without it the child cannot import an uninstalled
            # checkout.
            env={
                "MODHULL_CACHE_DIR": str(env_dir),
                "PATH": "/usr/bin:/bin",
                "PYTHONPATH": str(import_root),
            },
            capture_output=True,
            text=True,
            cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    header = outs[0].split(b"\n", 1)[0]
    assert header == b"m,a,v,phi,tau_m_minus_1,kernel,t,squarefree,exponent,norm512,method,candidate_count,elapsed_ns"
    print(
        f"\nPASS criterion 9: two seeded sweep runs produced byte-identical CSV "
        f"({len(outs[0])} bytes)"
    )
