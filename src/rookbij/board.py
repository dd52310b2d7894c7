"""Ferrers board geometry: borders, marker-count profiles, diagonals, conjugation.

A board is stored as its weakly decreasing column heights (a partition).
Columns and rows are 1-indexed; lattice vertices are 0-indexed with the
origin at the bottom-left corner of the board, so square (c, r) occupies
the unit square whose NE corner is the vertex (c, r).
"""

from __future__ import annotations

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
        x, y = 0, self.n_rows
        vertices = [Vertex(x, y)]
        steps = []
        while (x, y) != (self.n_cols, 0):
            if x < self.n_cols and self.heights[x] == y:
                x += 1
                steps.append(RIGHT)
            else:
                y -= 1
                steps.append(DOWN)
            vertices.append(Vertex(x, y))
        return BorderPath(tuple(vertices), tuple(steps))

    @cached_property
    def marker_count_profile(self) -> tuple[int, ...]:
        """Markers of any full placement inside R(V), per border vertex.

        Pure geometry: 0 at the top-left corner, +1 per rightward step, -1 per
        downward step.  Entries can go negative exactly when the board admits
        no full placement.
        """
        values = [0]
        for step in self.border_path.steps:
            values.append(values[-1] + (1 if step == RIGHT else -1))
        return tuple(values)

    def conjugate(self) -> Board:
        """Reflect the board across the main diagonal; built once per board,
        and the conjugate's conjugate is this board."""
        return self._conjugate

    @cached_property
    def _conjugate(self) -> Board:
        # Row y is as long as the columns reaching it: walking the columns
        # from the shortest, column c is the last to reach rows up to h_c.
        rows: list[int] = []
        for c in range(self.n_cols, 0, -1):
            rows.extend([c] * (self.heights[c - 1] - len(rows)))
        conj = Board(tuple(rows))
        conj.__dict__["_conjugate"] = self  # the cached_property's slot
        return conj

    # Results of pure functions of this board, filled in by ``bijection``:
    # its compacted boards by heights, its map images by (avoided pattern,
    # placement), and the border sequences of the placements the maps read
    # and produce.  They live and die with the board, so no value is shared
    # between boards, and a race between threads only recomputes one.
    @cached_property
    def _compact_boards(self) -> dict[tuple[int, ...], Board]:
        return {}

    @cached_property
    def _images(self) -> dict[tuple, object]:
        return {}

    @cached_property
    def _sequences(self) -> dict[object, tuple[int, ...]]:
        return {}

    @cached_property
    def diagonal_pairs(self) -> tuple[tuple[int, int], ...]:
        """Pairs of border indices (i, j), i < j, joined by an in-board diagonal.

        The open slope -1 segment from vertices[i] to vertices[j] must cross
        only squares of the board; endpoints may touch the border.  Includes
        non-maximal diagonals.
        """
        verts = self.border_path.vertices
        index = {v: i for i, v in enumerate(verts)}
        heights = self.heights
        pairs = []
        for i, (x, y) in enumerate(verts):
            # Step down the diagonal while the square crossed is on the board.
            while x < self.n_cols and 1 <= y <= heights[x]:
                x += 1
                y -= 1
                j = index.get((x, y))
                if j is not None:
                    pairs.append((i, j))
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
