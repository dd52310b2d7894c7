"""Border sequences and the 231-/312-condition checkers.

A border sequence (FSeq) assigns a nonnegative integer to every vertex of a
board's right/up border, index 0 at the top-left corner.
"""

from __future__ import annotations

from typing import NamedTuple

from .board import Board, _int_field, format_vertex
from .errors import LengthMismatch, ParseError

FSeq = tuple[int, ...]


class Violation(NamedTuple):
    kind: str  # "monotonicity" | "zero" | "diagonal"
    indices: tuple[int, ...]
    detail: str

    def render(self) -> str:
        return f"{self.kind.upper()} at {self.detail}"


class ConditionReport(NamedTuple):
    """All violations found, in border order; empty means the check passed."""

    violations: tuple[Violation, ...]

    @property
    def verdict(self) -> bool:
        return not self.violations

    def lines(self) -> list[str]:
        return [v.render() for v in self.violations]


def check_231(board: Board, seq) -> ConditionReport:
    """Check the 231-conditions: monotone border steps, the zero rules, and
    value growth along every in-board diagonal (left end <= right end)."""
    return _check(board, seq, diagonal_le=True)


def check_312(board: Board, seq) -> ConditionReport:
    """Same as ``check_231`` with the diagonal inequality reversed."""
    return _check(board, seq, diagonal_le=False)


def _sized_sequence(board: Board, seq) -> FSeq:
    """The sequence as a tuple, after checking it has one value per border vertex."""
    seq = tuple(seq)
    expected = board.n_cols + board.n_rows + 1
    if len(seq) != expected:
        raise LengthMismatch(f"sequence has {len(seq)} values, board needs {expected}")
    return seq


def _check(board: Board, seq, diagonal_le: bool) -> ConditionReport:
    """The 231- (``diagonal_le``) or 312-conditions on ``seq``, violations in
    the order monotonicity, zero, diagonal, each by border index.  A step's
    direction is the marker-count profile's change across it, +1 rightward
    and -1 downward, and a diagonal pair is rendered by its border vertices
    only when it is violated, so a passing check builds no ``border_path``."""
    seq = _sized_sequence(board, seq)
    violations: list[Violation] = []

    # Along the border path a rightward step may raise the value by 0 or 1,
    # a downward step may lower it by 0 or 1.
    profile = board.marker_count_profile
    for i in range(len(seq) - 1):
        delta = seq[i + 1] - seq[i]
        if delta and delta != profile[i + 1] - profile[i]:
            violations.append(Violation(
                "monotonicity", (i, i + 1),
                f"border indices {i}-{i + 1}: {seq[i]} -> {seq[i + 1]}"))

    if seq[0] != 0:
        violations.append(Violation("zero", (0,), f"border index 0 must be 0, got {seq[0]}"))
    last = len(seq) - 1
    if seq[last] != 0:
        violations.append(Violation("zero", (last,), f"border index {last} must be 0, got {seq[last]}"))
    for i in range(last):
        if seq[i] == 0 == seq[i + 1]:
            violations.append(Violation("zero", (i, i + 1), f"border indices {i}-{i + 1}"))

    glyph = "<" if diagonal_le else ">"
    for i, j in board.diagonal_pairs:
        bad = seq[i] > seq[j] if diagonal_le else seq[i] < seq[j]
        if bad:
            verts = board.border_path.vertices
            violations.append(Violation(
                "diagonal", (i, j),
                f"{format_vertex(verts[i])}{glyph}{format_vertex(verts[j])}"))

    return ConditionReport(tuple(violations))


def parse_sequence(text: str) -> FSeq:
    """Parse comma-separated nonnegative integers, e.g. ``0,1,2,1,0``."""
    try:
        values = tuple(_int_field(p) for p in text.split(","))
    except ValueError as exc:
        raise ParseError(f"bad sequence {text!r}") from exc
    if any(v < 0 for v in values):
        raise ParseError("sequence values must be nonnegative")
    return values


def format_sequence(seq) -> str:
    return ",".join(str(v) for v in seq)
