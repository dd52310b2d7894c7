"""Every failure a sweep can report is pinned by a test: each witness text
that a ``_check_*`` function of rookbij.enumeration yields or appends has its
literal parts, in order, in some string written in a file under tests/."""

import ast
import re
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ENUMERATION = TESTS.parent / "src" / "rookbij" / "enumeration.py"


def _is_text(node) -> bool:
    return isinstance(node, ast.JoinedStr) or (
        isinstance(node, ast.Constant) and isinstance(node.value, str))


def _parts(node) -> list:
    """A string or f-string node as its literal parts, None for each
    formatted value."""
    if isinstance(node, ast.Constant):
        return [node.value]
    return [part.value if isinstance(part, ast.Constant) else None for part in node.values]


def _witnesses() -> list[tuple[str, int, list]]:
    """(function, line, parts) of each string a ``_check_*`` function yields
    or appends."""
    found = []
    tree = ast.parse(ENUMERATION.read_text(encoding="utf-8"))
    for func in tree.body:
        if not (isinstance(func, ast.FunctionDef) and func.name.startswith("_check_")):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.Yield):
                text = node.value
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "append" and node.args):
                text = node.args[0]
            else:
                continue
            if _is_text(text):
                found.append((func.name, text.lineno, _parts(text)))
    return found


def _test_strings() -> list[str]:
    # Adjacent literals are one node, so a text split over lines is whole;
    # a formatted value is written as "{}".
    return ["".join("{}" if part is None else part for part in _parts(node))
            for path in sorted(TESTS.rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if _is_text(node)]


def test_every_witness_text_is_written_in_a_test():
    strings = _test_strings()
    witnesses = _witnesses()
    assert len(witnesses) >= 14
    missing = []
    for func, line, parts in witnesses:
        pattern = re.compile("".join(".*?" if part is None else re.escape(part)
                                     for part in parts))
        if not any(pattern.search(s) for s in strings):
            missing.append(f"{func} (enumeration.py:{line})")
    assert missing == []
