"""Rook placements, pattern avoidance, and the border increasing-chain statistic."""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import cached_property

from .board import Board, _int_field, _Value
from .errors import InvalidPlacement, ParseError


class Pattern(_Value):
    """A permutation word used as the avoidance target, e.g. (2, 3, 1)."""

    _field = "word"
    word: tuple[int, ...]

    def __init__(self, word):
        word = tuple(word)
        k = len(word)
        if k == 0 or sorted(word) != list(range(1, k + 1)):
            raise ParseError(f"{word!r} is not a permutation of 1..{k}")
        object.__setattr__(self, "word", word)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.word == other.word

    def __hash__(self):
        return hash((self.word,))

    def __str__(self) -> str:
        return "".join(str(v) for v in self.word)

    @cached_property
    def neighbours(self) -> tuple[tuple[int | None, int | None], ...]:
        """Per position d: the earlier positions holding the next smaller and
        the next larger value than ``word[d]``, or None where there is none."""
        word = self.word
        out = []
        for d, v in enumerate(word):
            below = [t for t in range(d) if word[t] < v]
            above = [t for t in range(d) if word[t] > v]
            out.append((max(below, key=word.__getitem__, default=None),
                        min(above, key=word.__getitem__, default=None)))
        return tuple(out)

    @classmethod
    def parse(cls, text: str) -> Pattern:
        # str.isdigit alone also passes digits such as "²" that int() rejects.
        if not (text.isascii() and text.isdigit()):
            raise ParseError(f"bad pattern {text!r}")
        return cls(tuple(int(ch) for ch in text))


PATTERN_231 = Pattern((2, 3, 1))
PATTERN_312 = Pattern((3, 1, 2))


class Placement(_Value):
    """A rook placement: marker squares, at most one per row and per column."""

    _field = "markers"
    markers: frozenset[tuple[int, int]]

    def __init__(self, markers):
        object.__setattr__(self, "markers", frozenset(markers))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.markers == other.markers

    def __hash__(self):
        return hash((self.markers,))

    def validate_on(self, board: Board) -> None:
        markers = self.markers
        if len({c for c, _ in markers}) != len(markers):
            raise InvalidPlacement("two markers share a column")
        if len({r for _, r in markers}) != len(markers):
            raise InvalidPlacement("two markers share a row")
        n_cols, heights = board.n_cols, board.heights
        for c, r in markers:
            if not (1 <= c <= n_cols and 1 <= r <= heights[c - 1]):
                raise InvalidPlacement(f"marker ({c},{r}) is outside the board")


class FullPlacement(_Value):
    """A full rook placement; ``perm[i]`` is the marker row of column i+1."""

    _field = "perm"
    perm: tuple[int, ...]

    def __init__(self, perm):
        perm = tuple(perm)
        n = len(perm)
        if sorted(perm) != list(range(1, n + 1)):
            raise InvalidPlacement(f"{perm!r} is not a permutation of 1..{n}")
        object.__setattr__(self, "perm", perm)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.perm == other.perm

    def __hash__(self):
        return hash((self.perm,))

    @property
    def markers(self) -> frozenset[tuple[int, int]]:
        return frozenset((c, r) for c, r in enumerate(self.perm, start=1))

    def validate_on(self, board: Board) -> None:
        n = len(self.perm)
        if board.n_cols != n or board.n_rows != n:
            raise InvalidPlacement(
                f"full placement of size {n} does not fit a {board.n_cols}x{board.n_rows} board")
        for col, row in enumerate(self.perm, start=1):
            if row > board.heights[col - 1]:
                raise InvalidPlacement(f"marker ({col},{row}) is outside the board")


# The patterns ``_first_marker`` scans for: whether a witness's middle
# marker lies above its first.
_MIDDLE_ABOVE = {PATTERN_231.word: True, PATTERN_312.word: False}


def pattern_witness(board: Board, placement, pattern: Pattern):
    """First marker tuple order-isomorphic to ``pattern`` with its bounding
    vertex on the board, or None when the placement avoids the pattern.

    Using the bounding vertex (max column, max row) is equivalent to checking
    the restriction to R(V) for every border vertex V, since the rectangles
    R(V) are exactly the maximal rectangles inside the board.  "First" is in
    ``combinations`` order of the markers taken column by column.  Checks the
    placement against the board first.  For 231 and 312, ``_first_marker``
    finds the first marker of the first witness in O(m^2) for m markers, and
    ``_search``, started from that marker, finishes the witness in O(m^2), so
    the answer costs O(m^2) whether or not a witness exists; every other
    pattern runs ``_search`` alone, a depth-first search.  The search is a
    module function that takes its state as arguments, so a call leaves no
    reference cycle for the garbage collector.
    """
    placement.validate_on(board)
    if isinstance(placement, FullPlacement):
        markers = tuple(enumerate(placement.perm, start=1))
    else:
        markers = tuple(sorted(placement.markers))
    heights = board.heights
    middle_above = _MIDDLE_ABOVE.get(pattern.word)
    if middle_above is None:
        return _search(heights, markers, pattern.neighbours, [], 0, 0)
    i = _first_marker(heights, markers, middle_above)
    if i is None:
        return None
    first = markers[i]
    return _search(heights, markers, pattern.neighbours, [first], i + 1, first[1])


def _search(heights: tuple[int, ...], markers: tuple[tuple[int, int], ...],
            neighbours: tuple[tuple[int | None, int | None], ...],
            chosen: list[tuple[int, int]], start: int, top: int):
    """The first completion of the markers ``chosen`` to a pattern witness
    with its bounding square on the board, taking markers from index
    ``start`` on, ``top`` the highest row chosen; None if there is none.

    Depth-first over the markers in ``combinations`` order, so the witness is
    the first such tuple.  A marker is taken only when its row keeps the
    chosen rows order-isomorphic to the pattern prefix (``neighbours``), and
    a scan stops at the first column lower than ``top``: later columns are
    no taller, so no completion could have its bounding square on the board.
    Cubic for a length-3 pattern when the only witness is late or there is
    none.
    """
    d = len(chosen)
    k = len(neighbours)
    if d == k:
        return tuple(chosen)
    below, above = neighbours[d]
    lo = chosen[below][1] if below is not None else 0
    hi = chosen[above][1] if above is not None else heights[0] + 1
    for j in range(start, len(markers) - k + d + 1):  # room left for the rest
        marker = markers[j]
        col, row = marker
        if heights[col - 1] < top:
            break
        if lo < row < hi:
            chosen.append(marker)
            found = _search(heights, markers, neighbours, chosen, j + 1,
                            row if row > top else top)
            if found is not None:
                return found
            chosen.pop()
    return None


def _first_marker(heights: tuple[int, ...], markers: tuple[tuple[int, int], ...],
                  middle_above: bool) -> int | None:
    """The index of the first marker a that starts a 231 (``middle_above``)
    or 312 witness (a, b, c), or None if no marker does.

    One pass over the markers after each a keeps the least row of a middle
    candidate b seen so far: above a for 231, below a for 312.  A marker c
    below a then completes a witness when some earlier b fits under the
    bounding square: for 231 b's row, above c's and a's, must be at most
    c's height; for 312 it must be below c's row, and c's column, like the
    search's, is at least a's row tall.  So the least row decides.  The pass
    stops where the search would, at the first column lower than a's row.
    """
    roof = heights[0] + 1
    for i, (_, first) in enumerate(markers):
        least = roof  # the least row of a middle candidate so far
        for col, row in markers[i + 1:]:
            height = heights[col - 1]
            if height < first:
                break
            if row < first and least <= (height if middle_above else row - 1):
                return i
            if (row > first) == middle_above and row < least:
                least = row
    return None


def _closes(rows: list[int], row: int, height: int,
            has_231: bool, has_312: bool) -> tuple[bool, bool]:
    """The flags ``has_231`` and ``has_312`` of earlier markers at ``rows``,
    listed in column order, each also set when a marker at ``row`` in a new
    last column ``height`` rows tall completes an on-board 231 (as the
    witness's last and lowest marker) or 312 (as its last, middle-row
    marker) with them.

    A witness ending in the new column has its bounding square on the board
    exactly when its highest row is at most ``height``, so higher rows take
    no part.  One O(m) pass keeps the least earlier row between ``row`` and
    ``height``: a later row above it closes a 231, and a later row below
    ``row`` closes a 312.  Every witness has a last marker, so folding this
    over a placement's markers in column order finds both patterns.
    """
    least = height + 1  # the least earlier row in (row, height] so far
    for r in rows:
        if r < row:
            if least <= height:
                has_312 = True
        elif r <= height:
            if r > least:
                has_231 = True
            else:
                least = r
    return has_231, has_312


def avoids(board: Board, placement, pattern: Pattern) -> bool:
    return pattern_witness(board, placement, pattern) is None


def s_sequence(board: Board, placement) -> tuple[int, ...]:
    """The chain statistic read along the border, top-left corner first.

    The value at vertex V is the longest increasing marker chain inside R(V).
    Checks the placement against the board, then runs ``_s_sequence``.
    """
    placement.validate_on(board)
    return _s_sequence(board, placement)


def _s_sequence(board: Board, placement) -> tuple[int, ...]:
    """``s_sequence`` of a placement known to be on the board.

    Patience sorting over the markers, column by column: ``tails[k]`` is the
    least last row of an increasing chain of k + 1 markers so far, so one
    ``bisect_left`` per marker keeps it, and the longest chain inside R(V)
    at the vertex V = (x, y) of the columns so far is ``bisect_right(tails,
    y)``, the chains whose last row is at most y.  Each column's stretch of
    the border, from its height down to the next column's, is constant
    between two tails, so it is written as one run per tail it passes:
    O(n log n + h) for n columns and longest column h.
    """
    if isinstance(placement, FullPlacement):
        rows = placement.perm
    else:
        rows = [0] * board.n_cols  # the marker row of each column, 0 for none
        for col, row in placement.markers:
            rows[col - 1] = row
    tails: list[int] = []
    out = [0]
    top = board.heights[0]  # the highest vertex of the stretch to write
    for row, low in zip(rows, board.heights[1:] + (0,)):
        if row:
            k = bisect_left(tails, row)
            if k == len(tails):
                tails.append(row)
            else:
                tails[k] = row
        k = bisect_right(tails, top)
        while k and (t := tails[k - 1]) > low:
            out += [k] * (top - t + 1)  # the vertices t..top hold k
            top = t - 1
            k -= 1
        out += [k] * (top - low + 1)
        top = low
    return tuple(out)


def inverse_placement(board: Board, placement) -> FullPlacement:
    """Reflect a full placement across the main diagonal, onto the conjugate board."""
    placement = _as_full(board, placement)
    placement.validate_on(board)  # then the reflection fits the conjugate board
    return FullPlacement(_reflect(placement.perm))


def _reflect(perm) -> tuple[int, ...]:
    """The inverse permutation: each marker (c, r) moved to (r, c)."""
    inverse = [0] * len(perm)
    for col, row in enumerate(perm, start=1):
        inverse[row - 1] = col
    return tuple(inverse)


def _as_full(board: Board, placement) -> FullPlacement:
    """A placement with a marker in every column and row of the board as a
    FullPlacement, else InvalidPlacement; a FullPlacement is left to ``validate_on``."""
    if isinstance(placement, FullPlacement):
        return placement
    placement.validate_on(board)
    if not len(placement.markers) == board.n_cols == board.n_rows:
        raise InvalidPlacement("placement leaves a column or a row of the board empty")
    return FullPlacement(r for _, r in sorted(placement.markers))


def parse_placement(text: str, board: Board):
    """Parse a placement: a permutation word (``312``) or ``col:row`` pairs.

    The word form is only accepted on boards with at most 9 columns.  An
    empty string parses as the empty placement.
    """
    text = text.strip()
    if not text:
        return Placement(frozenset())
    if ":" in text:
        markers = set()
        for chunk in text.split(","):
            try:
                c, r = chunk.split(":")
                marker = (_int_field(c), _int_field(r))
            except ValueError as exc:
                raise ParseError(f"bad marker {chunk!r}: expected col:row") from exc
            if marker in markers:
                raise ParseError(f"duplicate marker {chunk.strip()!r}")
            markers.add(marker)
        placement = Placement(frozenset(markers))
        placement.validate_on(board)
        return placement
    if not (text.isascii() and text.isdigit()):
        raise ParseError(f"bad placement {text!r}")
    if board.n_cols > 9:
        raise ParseError("permutation words are ambiguous beyond 9 columns; use col:row pairs")
    if len(text) != board.n_cols:
        raise ParseError(
            f"placement word {text!r} has {len(text)} letters, board has {board.n_cols} columns")
    placement = FullPlacement(tuple(int(ch) for ch in text))
    placement.validate_on(board)
    return placement


def _permutation_rows(placement, board: Board | None = None) -> list[int] | None:
    """The marker rows column by column when the placement prints as a
    permutation: its markers fill columns and rows 1..n, and n is the board's
    side when a board is given.  None otherwise."""
    markers = sorted(placement.markers)
    n = len(markers)
    if board is not None and not board.n_cols == board.n_rows == n:
        return None
    cols = [c for c, _ in markers]
    rows = [r for _, r in markers]
    if cols != list(range(1, n + 1)) or sorted(rows) != cols:
        return None
    return rows


def format_placement(placement, board: Board | None = None) -> str:
    """Render a placement: permutation word when it prints as a permutation
    and has at most 9 columns, else col:row pairs."""
    rows = _permutation_rows(placement, board)
    if rows is not None and len(rows) <= 9:
        return "".join(str(r) for r in rows)
    return ",".join(f"{c}:{r}" for c, r in sorted(placement.markers))
