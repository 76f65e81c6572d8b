"""Each exactness claim has a test that fails without it.

A row of MUTANTS breaks one package name, in-process: it replaces a value,
or recompiles a function from its source with one fragment replaced.  The
fast tests the row names must then fail, each by an assertion.  A fragment
that no longer occurs once in the source fails its row, so a mutant cannot
drift away from the code it breaks.
"""

import inspect
import sys
import textwrap

import pytest

import test_hullfast
import test_ntheory
from modhull import hullfast, ntheory


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
}


@pytest.mark.parametrize("row", MUTANTS)
def test_mutant_is_caught(row, monkeypatch):
    module, name, make, tests = MUTANTS[row]
    original, mutant = getattr(module, name), make()
    monkeypatch.setattr(module, name, mutant)
    for test in tests:
        # a test module that imported the name holds its own binding
        test_module = sys.modules[test.__module__]
        if getattr(test_module, name, None) is original:
            monkeypatch.setattr(test_module, name, mutant)
        with pytest.raises(AssertionError):
            test()
