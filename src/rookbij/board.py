"""Ferrers board geometry: borders, marker-count profiles, diagonals, conjugation.

A board is stored as its weakly decreasing column heights (a partition).
Columns and rows are 1-indexed; lattice vertices are 0-indexed with the
origin at the bottom-left corner of the board, so square (c, r) occupies
the unit square whose NE corner is the vertex (c, r).
"""

from __future__ import annotations

from functools import cached_property
from operator import ge
from typing import NamedTuple

from .errors import ParseError

RIGHT = "R"
DOWN = "D"

# Longest column and row ``parse_board`` accepts.  Border paths, sequences
# and sweeps allocate per unit of side length, so a huge height from the
# command line would overflow or exhaust memory instead of being rejected.
MAX_BOARD_SIDE = 1000


class Vertex(NamedTuple):
    x: int
    y: int


def format_vertex(v: Vertex) -> str:
    return f"({v.x},{v.y})"


class BorderPath(NamedTuple):
    """The right/up border walked from the top-left corner down to (n_cols, 0).

    ``steps[i]`` is the direction taken from ``vertices[i]`` to ``vertices[i+1]``.
    """

    vertices: tuple[Vertex, ...]
    steps: tuple[str, ...]


def _border_xy(heights: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """The x and the y of every vertex of the border path, top-left corner
    first: down each column's left edge to its height, right along its top,
    and after the last column down to (n_cols, 0)."""
    y = heights[0]
    xs, ys = [0], [y]
    for x, h in enumerate(heights):
        xs.extend([x] * (y - h))
        ys.extend(range(y - 1, h - 1, -1))
        xs.append(x + 1)
        ys.append(h)
        y = h
    xs.extend([len(heights)] * y)
    ys.extend(range(y - 1, -1, -1))
    return xs, ys


def _border_rules(board: Board) -> list[tuple[bool, int, int | None, bool]]:
    """The 231/312 conditions at each border index i, as the tuple (rise,
    cap, left end, opens): whether the step into i is rightward, the cap on
    the value at i, the left end k of the kept diagonal pair (k, i) (None if
    no kept pair ends at i), and whether a kept pair starts at i.  The cap is
    the marker-count profile value x + y - n_rows at i's vertex (x, y), or y
    if less: y is the number of downward steps left, so a larger value never
    gets back to 0 (on a board with a full placement it is the profile).

    Of the in-board diagonal pairs only (k, j), j the first border vertex down
    k's diagonal x + y, are kept; the others on that diagonal chain through
    kept ones, so they follow by transitivity.  A diagonal meets the border
    only at vertices, and its stretch between two consecutive ones lies
    wholly on or off the board, so each vertex pairs with the previous border
    vertex on its diagonal when the diagonal leaves that one into the board,
    which it does exactly when the border leaves it rightward.  Each step
    moves x + y by one, up if rightward, so these pairs match like brackets:
    one pass over the heights pushes each index the border leaves rightward
    and pops the left end at each downward step.  Only here are diagonals
    found: ``Board.diagonal_pairs`` follows the kept pairs' chains.
    """
    top = y = board.heights[0]
    rises, caps, left_ends = [False], [0], [None]
    opens = [False] * (board.n_cols + top + 1)
    stack = []  # the indices left rightward whose pair has not closed yet
    off = -top  # min(x - n_rows, 0) at the vertex (x, y), whose cap is y + off
    for h in board.heights + (0,):  # down each column's left edge, right along its top
        while y > h:
            y -= 1
            rises.append(False)
            caps.append(y + off)
            if stack:
                k = stack.pop()
                opens[k] = True
                left_ends.append(k)
            else:
                left_ends.append(None)
        if h:
            stack.append(len(rises) - 1)
            off += off < 0
            rises.append(True)
            caps.append(y + off)
            left_ends.append(None)
    return list(zip(rises, caps, left_ends, opens))


def _conjugate_heights(heights: tuple[int, ...]) -> tuple[int, ...]:
    """The conjugate's heights, the row lengths: walking the columns from the
    shortest, column c is the last to reach the rows up to its height."""
    rows: list[int] = []
    for c in range(len(heights), 0, -1):
        rows.extend([c] * (heights[c - 1] - len(rows)))
    return tuple(rows)


class _Value:
    """An immutable value of the one field that ``_field`` names, set once in
    the constructor: printed as ``Class(field=...)``, pickled as its field
    alone, so a subclass's caches stay behind and are rebuilt on demand, and
    closed to attribute assignment and deletion (AttributeError).  Each
    subclass compares and hashes by its field itself, equal only within its
    class and hashed as ``hash((field,))``, reading the field directly: read
    by name, as here, an equality test took about twice as long."""

    __slots__ = ()
    _field: str

    def __repr__(self) -> str:
        return f"{self.__class__.__qualname__}({self._field}={getattr(self, self._field)!r})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, (getattr(self, self._field),)


class Board(_Value):
    """A Ferrers board given by weakly decreasing, positive column heights."""

    _field = "heights"
    heights: tuple[int, ...]

    def __init__(self, heights):
        object.__setattr__(self, "heights", tuple(heights))
        self.__post_init__()

    def __post_init__(self):
        # The validation hook, run once per board built, so a wrapper
        # (perfbench/tracer.py) counts the boards built.
        if not self.heights:
            raise ParseError("a board needs at least one column")
        if any(h < 1 for h in self.heights):
            raise ParseError("column heights must be positive")
        if any(a < b for a, b in zip(self.heights, self.heights[1:])):
            raise ParseError("column heights must be weakly decreasing")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.heights == other.heights

    def __hash__(self):
        return hash((self.heights,))

    def __str__(self) -> str:
        return ",".join(str(h) for h in self.heights)

    @property
    def n_cols(self) -> int:
        return len(self.heights)

    @property
    def n_rows(self) -> int:
        return self.heights[0]

    def square_bounded(self) -> bool:
        """True when the longest row and longest column have the same length."""
        return self.n_rows == self.n_cols

    def contains_square(self, col: int, row: int) -> bool:
        return 1 <= col <= self.n_cols and 1 <= row <= self.heights[col - 1]

    @cached_property
    def border_path(self) -> BorderPath:
        """The unique monotone lattice path along the right/up border."""
        xs, ys = _border_xy(self.heights)
        vertices = tuple(map(Vertex._make, zip(xs, ys)))
        steps = tuple(RIGHT if a < b else DOWN for a, b in zip(xs, xs[1:]))
        return BorderPath(vertices, steps)

    @cached_property
    def marker_count_profile(self) -> tuple[int, ...]:
        """Markers of any full placement inside R(V), per border vertex.

        Pure geometry: x + y - n_rows at the border vertex (x, y), so 0 at the
        top-left corner, +1 per rightward step and -1 per downward step.
        Entries go negative only on a board with no full placement, and on a
        square-bounded board exactly then.
        """
        xs, ys = _border_xy(self.heights)
        top = self.heights[0]
        return tuple(x + y - top for x, y in zip(xs, ys))

    def conjugate(self) -> Board:
        """Reflect the board across the main diagonal; a new board on each call, kept by neither."""
        return Board(_conjugate_heights(self.heights))

    # Results of pure functions of this board, filled in by ``bijection``:
    # its compacted boards by heights, and the border sequences of the
    # placements the maps and the sweeps read and produce.  They live and die
    # with the board, so no value is shared between boards, and a race
    # between threads only recomputes one.
    @cached_property
    def _compact_boards(self) -> dict[tuple[int, ...], Board]:
        return {}

    @cached_property
    def _sequences(self) -> dict[object, tuple[int, ...]]:
        return {}

    @cached_property
    def diagonal_pairs(self) -> tuple[tuple[int, int], ...]:
        """Pairs of border indices (i, j), i < j, joined by an in-board diagonal.

        The open slope -1 segment from vertices[i] to vertices[j] must cross
        only squares of the board; endpoints may touch the border.  Includes
        non-maximal diagonals.  The pairs of i, by increasing j, are the links
        of the chain of kept pairs from i (``_border_rules``).
        """
        next_on = {k: j for j, (_, _, k, _) in enumerate(_border_rules(self)) if k is not None}
        pairs = []
        for i in sorted(next_on):
            j = next_on[i]
            while j is not None:
                pairs.append((i, j))
                j = next_on.get(j)
        return tuple(pairs)

    def admits_full_placement(self) -> bool:
        """Existence of a full rook placement (Hall-type distinct-representatives test)."""
        n = self.n_cols
        return self.n_rows == n and all(map(ge, self.heights, range(n, 0, -1)))


def _int_field(text: str) -> int:
    """An integer field of textual input: optional surrounding whitespace, an
    optional leading ``-``, then ASCII digits.  Plain ``int()`` would also
    take ``+``, ``_`` separators and non-ASCII digits.  Raises ValueError."""
    digits = text.strip().removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer field: {text!r}")
    return int(text)


def parse_board(text: str) -> Board:
    """Parse comma-separated column heights, e.g. ``3,2,1``; no field may be empty."""
    if not text.strip():
        raise ParseError("empty board")
    try:
        heights = tuple(_int_field(p) for p in text.split(","))
    except ValueError as exc:
        raise ParseError(f"bad board {text!r}: heights must be integers") from exc
    if len(heights) > MAX_BOARD_SIDE or max(heights) > MAX_BOARD_SIDE:
        raise ParseError(f"board too large: at most {MAX_BOARD_SIDE} columns and rows")
    return Board(heights)
