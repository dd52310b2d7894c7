"""The README's examples hold: each CLI line with an ``# -> X`` (or
``# partial -> X``) comment prints X, and the Library block runs."""

import io
import re
import shlex
from contextlib import redirect_stdout
from pathlib import Path

import pytest

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
