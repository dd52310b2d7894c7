"""The package's public names: each name in ``rookbij.__all__`` is the object
its defining module holds, including the sweep layer's, which load on first
use."""

import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import rookbij

SRC = Path(__file__).resolve().parents[1] / "src"


def _home(obj) -> str:
    """The module defining a function or class, or a constant's type."""
    return obj.__module__ if isinstance(obj, (type, types.FunctionType)) else type(obj).__module__


def test_every_public_name_is_its_defining_modules_object():
    for name in rookbij.__all__:
        obj = getattr(rookbij, name)
        assert getattr(importlib.import_module(_home(obj)), name) is obj, name
    enumeration = importlib.import_module("rookbij.enumeration")
    assert rookbij.verify is enumeration.verify
    assert rookbij.SweepReport is enumeration.SweepReport


def test_star_import_and_dir_cover_all():
    namespace = {}
    exec("from rookbij import *", namespace)
    assert {name: namespace[name] for name in rookbij.__all__} == \
        {name: getattr(rookbij, name) for name in rookbij.__all__}
    assert set(rookbij.__all__) <= set(dir(rookbij))


def test_unknown_names_raise_the_standard_attribute_error():
    try:
        rookbij.no_such_name
    except AttributeError as exc:
        assert str(exc) == "module 'rookbij' has no attribute 'no_such_name'"
    else:
        raise AssertionError("rookbij.no_such_name resolved")
    assert getattr(rookbij, "no_such_name", None) is None


def test_sweep_layer_loads_on_first_use_in_a_fresh_interpreter():
    # ``from rookbij import enumeration`` relies on the package's AttributeError
    # to fall back to importing the submodule.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = ("import sys, rookbij\n"
            "before = 'rookbij.enumeration' in sys.modules\n"
            "from rookbij import enumeration\n"
            "print(before, enumeration.__name__, rookbij.verify is enumeration.verify)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out == "False rookbij.enumeration True\n"
