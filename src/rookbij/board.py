"""Ferrers board geometry: borders, marker-count profiles, diagonals, conjugation.

A board is stored as its weakly decreasing column heights (a partition).
Columns and rows are 1-indexed; lattice vertices are 0-indexed with the
origin at the bottom-left corner of the board, so square (c, r) occupies
the unit square whose NE corner is the vertex (c, r).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property
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


@dataclass(frozen=True)
class BorderPath:
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
    gets back to 0.  (On a board with a full placement the profile never
    exceeds y.)  All of it is read off the border coordinates in one pass.

    Of the in-board diagonal pairs only (k, j), j the first border vertex down
    k's diagonal x + y, are kept; the others on that diagonal chain through
    kept ones, so they follow by transitivity.  A diagonal meets the border
    only at vertices, and its stretch between two consecutive ones lies
    wholly on or off the board, so each vertex pairs with the previous border
    vertex on its diagonal when the diagonal leaves that one into the board,
    which it does exactly when the border leaves it rightward.  Kept pairs
    never cross: a diagonal entering the region between another kept pair's
    diagonal and the border can leave it only through the border.  Only here
    are diagonals found: ``Board.diagonal_pairs`` follows the kept pairs' chains.
    """
    xs, ys = _border_xy(board.heights)
    top = ys[0]
    rises, caps, left_ends = [False], [0], [None]
    opens = [False] * len(xs)
    last_on = {top: 0}  # the last border index seen on each diagonal x + y
    for i in range(1, len(xs)):
        x, y = xs[i], ys[i]
        k = last_on.get(x + y)
        if k is not None and xs[k + 1] > xs[k]:
            opens[k] = True
        else:
            k = None
        last_on[x + y] = i
        rises.append(x > xs[i - 1])
        caps.append(y if x >= top else x + y - top)
        left_ends.append(k)
    return list(zip(rises, caps, left_ends, opens))


@dataclass(frozen=True)
class Board:
    """A Ferrers board given by weakly decreasing, positive column heights."""

    heights: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "heights", tuple(self.heights))
        if not self.heights:
            raise ParseError("a board needs at least one column")
        if any(h < 1 for h in self.heights):
            raise ParseError("column heights must be positive")
        if any(a < b for a, b in zip(self.heights, self.heights[1:])):
            raise ParseError("column heights must be weakly decreasing")

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
        Entries can go negative exactly when the board admits no full
        placement.
        """
        xs, ys = _border_xy(self.heights)
        top = self.heights[0]
        return tuple(x + y - top for x, y in zip(xs, ys))

    def conjugate(self) -> Board:
        """Reflect the board across the main diagonal; built once per board,
        and the conjugate's conjugate is this board while this board lives.
        The conjugate links back weakly, so neither keeps the other in a
        reference cycle that only the cyclic collector frees."""
        back = self.__dict__.get("_conjugate_of")
        board = back() if back is not None else None
        return board if board is not None else self._conjugate

    @cached_property
    def _conjugate(self) -> Board:
        # Row y is as long as the columns reaching it: walking the columns
        # from the shortest, column c is the last to reach rows up to h_c.
        rows: list[int] = []
        for c in range(self.n_cols, 0, -1):
            rows.extend([c] * (self.heights[c - 1] - len(rows)))
        conj = Board(tuple(rows))
        conj.__dict__["_conjugate_of"] = weakref.ref(self)
        return conj

    def __reduce__(self):
        # Pickled as its heights alone: the caches are rebuilt on demand,
        # and the conjugate's weak link back cannot be pickled.
        return Board, (self.heights,)

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
        if self.n_rows != n:
            return False
        return all(self.heights[i] >= n - i for i in range(n))


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
