"""The README's examples hold: each CLI line with an ``# -> X`` (or
``# partial -> X``) comment prints X, the Library block runs, and each
private name it cites exists."""

import importlib
import io
import pkgutil
import re
import shlex
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import rookbij
from rookbij.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _block(heading: str, language: str) -> str:
    """The first fenced block of ``language`` after the ``heading`` line."""
    after = README[README.index(f"\n{heading}\n"):]
    return re.search(rf"^```{language}\n(.*?)^```$", after, re.M | re.S).group(1)


_CLI_EXAMPLES = re.findall(r"^rookbij (.*?)\s+# (?:partial )?-> (.*)$",
                           _block("## CLI", "text"), re.M)


def test_readme_has_cli_examples():
    assert len(_CLI_EXAMPLES) == 6


@pytest.mark.parametrize("argv,printed", _CLI_EXAMPLES)
def test_readme_cli_example_prints_its_result(argv, printed):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(shlex.split(argv))
    assert (code, out.getvalue()) == (0, f"{printed}\n")


def test_readme_library_example_runs():
    exec(_block("## Library", "python"), {})


# Backticked private names, ``_name`` or ``module._name``; a bare ``_`` is a
# placeholder.  Each must name an attribute of rookbij or of the module, so
# a change that renames or deletes a core must mend the README with it.
_PRIVATE_NAMES = sorted(set(re.findall(r"`((?:\w+\.)?_\w+)`", README)))
_MODULES = {info.name: importlib.import_module(f"rookbij.{info.name}")
            for info in pkgutil.iter_modules(rookbij.__path__)}


def _resolves(name: str) -> bool:
    module, _, attr = name.rpartition(".")
    if module:
        return module in _MODULES and hasattr(_MODULES[module], attr)
    return any(hasattr(m, attr) for m in [rookbij, *_MODULES.values()])


def test_readme_private_names_exist():
    assert [name for name in _PRIVATE_NAMES if not _resolves(name)] == []
    assert len(_PRIVATE_NAMES) == 12
