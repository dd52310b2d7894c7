"""The library is pure stdlib: each import under src/rookbij is relative to
the package or names a standard-library module, and importing the package
and its CLI loads none of the standard modules that cost cold start."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "rookbij"


def test_library_imports_only_the_standard_library():
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                assert top == "rookbij" or top in sys.stdlib_module_names, (path.name, name)


def test_import_loads_no_costly_stdlib_modules():
    # Cold start: ``dataclasses`` pulls in ``inspect``, ``ast``, ``dis`` and
    # ``tokenize``, and only ``--json`` output needs ``json``.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    code = ("import sys, rookbij, rookbij.cli; "
            "print(sorted({'dataclasses', 'inspect', 'json'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"
