"""The package's value types, the names it exports and what importing it
costs.

Each validated type is a NamedTuple whose subclass checks and normalises in
__new__; every way of building one (positional, keyword, _make, _replace,
unpickling) must run those checks.  The package exports every name in the
__all__ of each library module.
"""

import importlib
import pickle
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import modhull
from modhull.conics import ConicForm
from modhull.experiments import APolicy
from modhull.geometry import ConvexPolygon, UnimodularMap
from modhull.hyperbola import HyperbolaSpec
from modhull.ntheory import Factorization

# (type, valid fields, fields it refuses, the refusal's message)
VALIDATED = [
    (Factorization, (((2, 1), (3, 2)),), (((4, 1),),), "4 is not prime"),
    (HyperbolaSpec, (7, 3), (7, 14), "residue 14 is not coprime to 7"),
    (ConvexPolygon, (((0, 0), (1, 0), (0, 1)),), (((0, 0), (0, 1), (1, 0)),), "strictly convex"),
    (UnimodularMap, (1, 1, 0, 1, 2, 3), (2, 0, 0, 1, 0, 0), "determinant must be"),
    (APolicy, ("sample", 2, 5), ("sample", 0, 5), "k >= 1"),
    (ConicForm, (1, 0, 1, 0, 0, -1), (0, 0, 0, 0, 0, 0), "zero form"),
]


def _builds(cls, good, fields):
    """Each way of building a value of cls from fields, by name; good
    fields are the value that _replace starts from."""
    kw = dict(zip(cls._fields, fields))
    raw = tuple.__new__(cls, fields)  # the fields as they are, unchecked
    builds = {
        "positional": lambda: cls(*fields),
        "keyword": lambda: cls(**kw),
        "_make": lambda: cls._make(fields),
        "_replace": lambda: cls(*good)._replace(**kw),
    }
    for proto in range(2, pickle.HIGHEST_PROTOCOL + 1):  # 0 and 1 rebuild a tuple without __new__
        builds[f"pickle protocol {proto}"] = lambda proto=proto: pickle.loads(pickle.dumps(raw, protocol=proto))
    return builds


@pytest.mark.parametrize("cls, good, bad, message", VALIDATED, ids=[c.__name__ for c, *_ in VALIDATED])
def test_validated_types_check_every_construction(cls, good, bad, message):
    for path, build in _builds(cls, good, bad).items():
        with pytest.raises(ValueError, match=message):
            build()
            pytest.fail(f"{cls.__name__}{bad} was built by {path}")
    value = cls(*good)
    for path, build in _builds(cls, good, good).items():
        built = build()
        assert type(built) is cls and built == value and hash(built) == hash(value), path


def test_validated_types_normalise_and_print_as_before():
    spec = HyperbolaSpec(7, 10)
    assert spec.a == 3 and repr(spec) == "HyperbolaSpec(m=7, a=3)"
    assert spec == HyperbolaSpec(m=7, a=3) and hash(spec) == hash(HyperbolaSpec(7, 3))
    assert spec._replace(a=12) == HyperbolaSpec(7, 5) == pickle.loads(pickle.dumps(HyperbolaSpec(7, -2)))
    form = ConicForm(2, -4, 6, 0, 10, -12)
    assert form.coeffs == (1, -2, 3, 0, 5, -6) and repr(form) == "ConicForm(A=1, B=-2, C=3, D=0, E=5, F=-6)"
    assert form._replace(F=0) == ConicForm(1, -2, 3, 0, 5, 0) and ConicForm(0, 0, 0, 0, 0, 7).F == 1
    assert repr(UnimodularMap(1, 0, 0, 1)) == "UnimodularMap(a=1, b=0, c=0, d=1, tx=0, ty=0)"
    assert APolicy("one") == APolicy(kind="one", k=0, seed=0)
    assert repr(APolicy("all")) == "APolicy(kind='all', k=0, seed=0)"
    listed, nested = Factorization([(2, 1), (3, 1)]), Factorization(((2, 1), (3, 1)))
    assert listed == nested and hash(listed) == hash(nested)
    values = (spec, form, Factorization(((2, 1),)), ConvexPolygon(((0, 0),)), UnimodularMap(1, 0, 0, 1), APolicy("one"))
    for value in values:
        with pytest.raises(AttributeError):
            setattr(value, type(value)._fields[0], None)


# every module but the command line, which the package does not import
LIBRARY_MODULES = sorted(m.name for m in pkgutil.iter_modules(modhull.__path__) if m.name not in ("_version", "cli"))


@pytest.mark.parametrize("module", LIBRARY_MODULES)
def test_package_exports_each_module_api(module):
    mod = importlib.import_module(f"modhull.{module}")
    missing = [name for name in mod.__all__ if getattr(modhull, name, None) is not getattr(mod, name)]
    assert not missing, f"modhull does not export modhull.{module}'s {missing}"


# stdlib modules that `import modhull, modhull.cli` must not load.  Each one
# costs every one-shot command: dataclasses with inspect and fractions with
# decimal about 20 ms, json with _json about 2 ms, and __future__ about
# 0.2 ms plus a ForwardRef compiled for each NamedTuple field.  One stray
# import, or one `from __future__ import annotations`, brings the cost back.
COSTLY_MODULES = ["dataclasses", "inspect", "fractions", "decimal", "json", "_json", "__future__"]


def test_import_loads_no_costly_stdlib_module():
    import_root = Path(modhull.__path__[0]).resolve().parent
    probe = (
        "import sys\n"
        f"sys.path.insert(0, {str(import_root)!r})\n"
        "before = set(sys.modules)\n"
        "import modhull, modhull.cli\n"
        "print(modhull.__file__)\n"
        f"print(sorted(set({COSTLY_MODULES!r}) & (set(sys.modules) - before)))\n"
    )
    out = subprocess.run([sys.executable, "-I", "-c", probe], capture_output=True, text=True, check=True).stdout
    path, loaded = out.splitlines()
    assert Path(path).resolve().is_relative_to(import_root)
    assert loaded == "[]"


def test_import_compiles_no_cache_line_pattern():
    # compiling the pattern the cache reader matches lines with costs about
    # 0.3-0.5 ms, which only a sweep that loads a cache should pay
    import_root = Path(modhull.__path__[0]).resolve().parent
    probe = (
        "import os, sys\n"
        f"sys.path.insert(0, {str(import_root)!r})\n"
        "import modhull, modhull.cli\n"
        "from modhull import experiments\n"
        "print(experiments._line_pattern.cache_info().currsize)\n"
        "experiments._load_cache(os.devnull, 3, 4)\n"
        "print(experiments._line_pattern.cache_info().currsize)\n"
    )
    out = subprocess.run([sys.executable, "-I", "-c", probe], capture_output=True, text=True, check=True).stdout
    assert out.split() == ["0", "1"]  # compiled on the first load, not at import
