"""Each exactness claim has a test that fails without it.

A row of MUTANTS breaks one package name, in-process: it replaces a value,
or recompiles a function from its source with one fragment replaced.  The
fast tests the row names must then fail, each by an assertion (or by
pytest.raises reporting DID NOT RAISE) in at least one of its parameter
sets.  The runner passes a named test its own tmp_path and capsys and a
fresh monkeypatch, and each parameter set of its parametrize marks.  A
fragment that no longer occurs once in the source fails its row, so a
mutant cannot drift away from the code it breaks.
"""

import inspect
import itertools
import sys
import textwrap

import pytest

import test_cli
import test_experiments
import test_geometry
import test_hullfast
import test_hyperbola
import test_ntheory
from modhull import cli, experiments, geometry, hullfast, hyperbola, ntheory


def _edited(module, name: str, old: str, new: str):
    """module.name recompiled, in the module's namespace, with the one
    occurrence of old in its source replaced by new."""
    source = textwrap.dedent(inspect.getsource(getattr(module, name)))
    assert source.count(old) == 1, (name, old)
    defined: dict = {}
    exec(compile(source.replace(old, new), f"<mutant of {module.__name__}.{name}>", "exec"), vars(module), defined)
    return defined[name]


_CERTIFICATE_TESTS = [
    test_hullfast.test_certificate_matches_reference,
    test_hullfast.test_certificate_matches_reference_on_random_polygons,
]

# name: (module, attribute, the mutant's value, made when the row runs,
# and the tests that must catch it)
MUTANTS = {
    "certifies_every_polygon": (
        hullfast,
        "_certifies",
        lambda: _edited(hullfast, "_certifies", "if 4 * c >= m * m:", "if True:"),
        [
            *_CERTIFICATE_TESTS,
            test_hullfast.test_certificate_soundness_lattice_oracle,
            test_hullfast.test_certificate_accepts_corners_on_the_boundary,
            test_hullfast.test_fast_hull_examples,
        ],
    ),
    "no_tangency_test": (
        hullfast,
        "_certifies",
        lambda: _edited(hullfast, "_certifies", "if g > 0 and g * g > 4 * a * b * c:", "if False:"),
        [*_CERTIFICATE_TESTS, test_hullfast.test_certificate_soundness_lattice_oracle],
    ),
    "no_corner_test": (
        hullfast,
        "_certifies",
        lambda: _edited(hullfast, "_certifies", "elif 2 * m * g > min(", "elif False and min("),
        [
            *_CERTIFICATE_TESTS,
            test_hullfast.test_certificate_soundness_lattice_oracle,
            test_hullfast.test_certificate_needs_every_corner,
        ],
    ),
    "pairs_without_divisor_1": (
        hullfast,
        "_pairs",
        lambda: _edited(hullfast, "_pairs", "for d in divisors(n) if", "for d in divisors(n)[1:] if"),
        [
            test_hullfast.test_lower_left_examples,
            test_hullfast.test_corner_points_are_exactly_small_f,
            test_hullfast.test_fast_hull_examples,
        ],
    ),
    "is_prime_with_four_witnesses": (
        ntheory,
        "_MR_WITNESSES",
        lambda: (2, 3, 5, 7),
        [test_ntheory.test_is_prime_rejects_strong_pseudoprimes],
    ),
    "scan_keeps_non_strict_records": (
        geometry,
        "_scan",
        lambda: _edited(geometry, "_scan", "if y < lo:", "if y <= lo:"),
        # caught on the half-turn path only: on the general path the chain
        # pops every extra record, and the hull is still right
        [
            test_geometry.test_symmetric_hull_matches_reference_chain,
            test_hullfast.test_fast_hull_hulls_enumerations_by_symmetry,
        ],
    ),
    "mirror_without_its_end_check": (
        geometry,
        "convex_hull",
        lambda: _edited(geometry, "convex_hull", "if x0 + x1 != mirror or y0 + y1 != mirror:", "if False:"),
        [test_geometry.test_symmetric_hull_refuses_unmirrored_ends],
    ),
    "line_pattern_accepts_a_line_torn_before_its_version": (
        experiments,
        "_line_pattern",
        lambda: _edited(experiments, "_line_pattern", "(0|[1-9][0-9]{0,18}) %s$", "(0|[1-9][0-9]{0,18})(?: %s)?$"),
        [test_experiments.test_damaged_cache_line_is_recomputed],
    ),
    "hull_json_without_spaces": (
        cli,
        "_HULL_JSON",
        lambda: cli._HULL_JSON.replace(", ", ","),
        [test_cli.test_hull_json, test_cli.test_hull_json_spells_what_json_dumps_wrote],
    ),
    "box_clamped_to_1_m": (
        hyperbola,
        "_clamp_box",
        lambda: _edited(
            hyperbola,
            "_clamp_box",
            "max(0, min(U, m - 1)), max(0, min(V, m - 1))",
            "max(1, min(U, m)), max(1, min(V, m))",
        ),
        [
            test_hyperbola.test_count_in_box_examples,
            test_hyperbola.test_count_in_box_clamps_and_saturates,
            test_hyperbola.test_predicted_count_examples,
        ],
    ),
    "sheared_span_swaps_fixed_and_moving": (
        geometry,
        "_sheared_span",
        lambda: _edited(geometry, "_sheared_span", "zip(fixed, moving)", "zip(moving, fixed)"),
        # normalize_to_box's tests do not fail under it: its shear loop
        # never ends, so they are stopped by the suite's time limit
        [test_geometry.test_best_shear_matches_the_wide_bracket],
    ),
}


def _parameter_sets(test) -> list[dict]:
    """The keyword arguments of each parameter set of test: the product of
    its parametrize marks, or one empty set."""
    axes = []
    for mark in getattr(test, "pytestmark", []):
        if mark.name == "parametrize":
            names, values = mark.args
            names = [n.strip() for n in names.split(",")] if isinstance(names, str) else list(names)
            rows = [v.values if hasattr(v, "marks") else (v,) if len(names) == 1 else v for v in values]
            axes.append([dict(zip(names, row)) for row in rows])
    return [dict(item for part in combo for item in part.items()) for combo in itertools.product(*axes)]


def _caught(test, tmp_path, capsys) -> bool:
    """Whether some parameter set of test fails by an assertion or by a
    pytest.raises that DID NOT RAISE."""
    wanted = inspect.signature(test).parameters
    for i, params in enumerate(_parameter_sets(test)):
        with pytest.MonkeyPatch.context() as monkeypatch:
            fixtures = {"tmp_path": tmp_path / f"{test.__name__}-{i}", "capsys": capsys, "monkeypatch": monkeypatch}
            fixtures["tmp_path"].mkdir()
            capsys.readouterr()  # what earlier calls printed
            try:
                test(**{name: fixtures[name] for name in wanted if name in fixtures}, **params)
            except AssertionError:
                return True
            except pytest.fail.Exception as exc:
                if "DID NOT RAISE" not in str(exc):
                    raise
                return True
    return False


@pytest.mark.parametrize("row", MUTANTS)
def test_mutant_is_caught(row, monkeypatch, tmp_path, capsys):
    module, name, make, tests = MUTANTS[row]
    original, mutant = getattr(module, name), make()
    monkeypatch.setattr(module, name, mutant)
    escaped = []
    for test in tests:
        # a test module that imported the name holds its own binding
        test_module = sys.modules[test.__module__]
        if getattr(test_module, name, None) is original:
            monkeypatch.setattr(test_module, name, mutant)
        if not _caught(test, tmp_path, capsys):
            escaped.append(test.__name__)
    assert not escaped, f"{row} passes {escaped}"
