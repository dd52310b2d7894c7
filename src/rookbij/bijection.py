"""The sequence bijection between 231-avoiding and 312-avoiding placements.

The border sequence of an avoiding full placement determines the placement,
so transforming sequences transforms placements: ``plus_transform`` flips a
231-style sequence into a 312-style one (and back), and the reconstruction
routines rebuild the unique avoiding placement from its sequence.  ``alpha``
and ``beta`` chain the two and are mutually inverse; ``compact``/``expand``
extend them to arbitrary (partial) rook placements.  Each public function
checks its input, then calls a private core keyed by pattern, which the sweeps
call directly; every reconstruction self-checks its result (``_rebuild``).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, NamedTuple

from .board import Board, _conjugate_heights
from .conditions import _sized_sequence, check_231, check_312
from .errors import (
    ConditionViolation,
    InvalidPlacement,
    NotAvoider,
    OutOfRange,
    ReconstructionFailure,
)
from .placement import (
    PATTERN_231,
    PATTERN_312,
    FullPlacement,
    Pattern,
    Placement,
    _as_full,
    _reflect,
    _s_sequence,
    pattern_witness,
)


def plus_transform(board: Board, seq) -> tuple[int, ...]:
    """Send the value s at a border vertex to 0 if s == 0, else N + 1 - s,
    where N is the board's marker-count profile at that vertex.  An
    involution on the sequences realized by full placements."""
    out = []
    for i, (s, n) in enumerate(zip(_sized_sequence(board, seq), board.marker_count_profile)):
        if not 0 <= s <= n:
            raise OutOfRange(f"value {s} at border index {i} outside [0, {n}]")
        out.append(n + 1 - s if s else 0)
    return tuple(out)


class _Side(NamedTuple):
    """The operations on one side of the bijection, the avoiders of one pattern.

    ``diagonal_le`` is the direction of the side's diagonal condition: the
    left end of every in-board diagonal is at most (231) or at least (312)
    its right end.  ``image`` is the pattern the side's map images avoid.
    """

    check: Callable
    reconstruct: Callable
    map_general: Callable
    diagonal_le: bool
    image: Pattern


def _side(pattern: Pattern) -> _Side:
    """A pattern's side of the bijection, resolved on every call, not kept in
    a table built at import, so a module attribute replaced at run time (say,
    by a tracer) is the one called."""
    if pattern == PATTERN_231:
        return _Side(check_231, reconstruct_231, alpha_general, True, PATTERN_312)
    if pattern == PATTERN_312:
        return _Side(check_312, reconstruct_312, beta_general, False, PATTERN_231)
    raise ValueError(f"no condition checker for pattern {pattern}")


def _require_avoider(board: Board, placement, pattern: Pattern) -> None:
    witness = pattern_witness(board, placement, pattern)
    if witness is not None:
        markers = ",".join(f"({c},{r})" for c, r in witness)
        raise NotAvoider(f"placement contains {pattern} at markers {markers}")


def _reconstruct(board: Board, seq, pattern: Pattern) -> FullPlacement:
    """``_rebuild`` after checking the sequence's length, the board and the conditions."""
    seq = _sized_sequence(board, seq)
    if not board.square_bounded():
        raise ConditionViolation(
            "board's longest row and column differ; no full placement exists")
    report = _side(pattern).check(board, seq)
    if not report.verdict:
        raise ConditionViolation("; ".join(report.lines()))
    return _rebuild(board, seq, pattern)


def reconstruct_231(board: Board, seq) -> FullPlacement:
    """Rebuild the unique 231-avoiding full placement with the given border sequence."""
    return _reconstruct(board, seq, PATTERN_231)


def reconstruct_312(board: Board, seq) -> FullPlacement:
    """Rebuild the unique 312-avoiding full placement with the given border sequence."""
    return _reconstruct(board, seq, PATTERN_312)


def _rebuild(board: Board, seq: tuple[int, ...], pattern: Pattern) -> FullPlacement:
    """``_raw_rebuild``, self-checked: the result's sequence, the one the
    board holds or else a computed one, must be ``seq``; the board then holds it."""
    result = _raw_rebuild(board, seq, pattern)
    sequences = board._sequences
    if (sequences.get(result) or _s_sequence(board, result)) != seq:
        raise ReconstructionFailure("reconstructed placement does not reproduce the sequence")
    sequences[result] = seq
    return result


def _raw_rebuild(board: Board, seq: tuple[int, ...], pattern: Pattern) -> FullPlacement:
    """The rebuild of ``_rebuild``, without its self-check, in one O(n + h)
    pass over ``seq``.  For 231 it works right to left.  With b_r..b_0 the
    values down the right-hand column's vertex line and a_r the value just
    left of its top, the column's marker sits in the highest row j with
    b_j > b_{j-1}.  Deleting that column and row leaves as the new line the
    next column's stretch of ``seq`` down to a_r, then a_r repeated down to
    row j, then b_{j-1}..b_0.  The line's rises, each with the value below
    it, wait on a stack, highest on top, so row j is the one popped.  The
    rows below j keep their values, hence their rises, and the run of a_r
    adds at most one, at row j (if j = r there is no run: a realizable
    sequence then has a_r = b_{r-1}).  Row j is at most r, the least height
    left, so each deletion lowers every column by one: a column's height is
    its own less the number of columns removed.  For 312 the same pass runs
    on the conjugate heights with the reversed sequence, and the inverse of
    the rows it finds is the result."""
    heights = board.heights
    transposed = pattern == PATTERN_312
    if transposed:
        heights, seq = _conjugate_heights(heights), seq[::-1]
    n = len(heights)
    if heights[0] != n or len(seq) != 2 * n + 1:
        raise ReconstructionFailure("sequence out of step with board")
    rows_alive = list(range(1, n + 1))
    perm = [0] * n
    rises = []  # (row, value below it) per rise of the line, highest last
    end = 2 * n  # seq index of the lowest vertex of the line not yet read
    for c in range(n - 1, -1, -1):
        r = heights[c] + c + 1 - n  # column c + 1's height, once those right of it are gone
        top = 2 * c + 2 - r  # seq index i on column c + 1's line is in row 2c + 2 - i
        for i in range(end - 1, top - 1, -1):
            if seq[i] > seq[i + 1]:
                rises.append((2 * c + 2 - i, seq[i + 1]))
        # A column left with no row ends here too: its stretch adds no rise,
        # and the one-row column right of it took the only one.
        if not rises:
            raise ReconstructionFailure(f"no admissible marker row for column {c + 1}")
        j, below = rises.pop()
        perm[c] = rows_alive.pop(j - 1)
        if j < r and seq[top - 1] > below:  # a_r over b_{j-1}
            rises.append((j, below))
        end = top - 1
    try:
        result = FullPlacement(_reflect(perm) if transposed else perm)
        result.validate_on(board)
    except InvalidPlacement as exc:
        raise ReconstructionFailure(str(exc)) from exc
    return result


def _sequence(board: Board, placement: FullPlacement) -> tuple[int, ...]:
    """The placement's border sequence: the board's memo, filled on a miss.
    ``_rebuild`` reads the memo too, and stores only past its self-check."""
    seq = board._sequences.get(placement)
    if seq is None:
        seq = board._sequences[placement] = _s_sequence(board, placement)
    return seq


def _map_full(board: Board, placement: FullPlacement, avoided: Pattern) -> FullPlacement:
    return _rebuild(board, plus_transform(board, _sequence(board, placement)),
                    _side(avoided).image)


def alpha(board: Board, placement) -> FullPlacement:
    """Map a 231-avoiding full placement to the 312-avoiding one whose border
    sequence is the plus_transform of the input's.  Raises InvalidPlacement
    for a placement that leaves a column or a row of the board empty."""
    placement = _as_full(board, placement)
    _require_avoider(board, placement, PATTERN_231)
    return _map_full(board, placement, PATTERN_231)


def beta(board: Board, placement) -> FullPlacement:
    """Inverse of ``alpha``: 312-avoiders to 231-avoiders via plus_transform."""
    placement = _as_full(board, placement)
    _require_avoider(board, placement, PATTERN_312)
    return _map_full(board, placement, PATTERN_312)


class CompactionContext(NamedTuple):
    """Occupied columns/rows of a placement and the board they compact to;
    ``compact_board`` is None exactly for the empty placement."""

    occupied_cols: tuple[int, ...]
    occupied_rows: tuple[int, ...]
    compact_board: Board | None


def _compact_board(board: Board, cols: tuple[int, ...], rows: tuple[int, ...]) -> Board:
    """The board that keeping only ``cols`` and ``rows`` compacts ``board``
    to: each column keeps the rows of ``rows`` up to its height.  The board
    keeps one compact board per heights, so the placements and classes that
    compact alike share one; every column and row compacts to the board itself."""
    if len(cols) == board.n_cols and len(rows) == board.n_rows:
        return board  # nothing to delete
    heights = tuple(bisect_right(rows, board.heights[c - 1]) for c in cols)
    compact_board = board._compact_boards.get(heights)
    if compact_board is None:
        compact_board = board._compact_boards[heights] = Board(heights)
    return compact_board


def compact(board: Board, placement) -> tuple[CompactionContext, FullPlacement]:
    """Delete unoccupied rows and columns, sliding the rest down and left.

    The surviving squares form a smaller Ferrers board (``_compact_board``)
    on which the re-indexed markers are a full placement.  Compaction
    preserves 231- and 312-avoidance in both directions.
    """
    placement.validate_on(board)
    markers = sorted(placement.markers)
    if not markers:
        return CompactionContext((), (), None), FullPlacement(())
    cols = tuple(c for c, _ in markers)  # one marker per column, so already sorted
    rows = tuple(sorted(r for _, r in markers))
    compact_board = _compact_board(board, cols, rows)
    row_rank = {r: i for i, r in enumerate(rows, start=1)}
    full = FullPlacement(tuple(row_rank[r] for _, r in markers))
    full.validate_on(compact_board)
    return CompactionContext(cols, rows, compact_board), full


def expand(context: CompactionContext, placement: FullPlacement) -> Placement:
    """Undo ``compact``: re-index a full placement through the recorded rows/columns."""
    return Placement(frozenset(
        (context.occupied_cols[c - 1], context.occupied_rows[r - 1])
        for c, r in placement.markers))


def _map_general(board: Board, placement, avoided: Pattern) -> Placement:
    if not placement.markers:
        return Placement(frozenset())
    context, full = compact(board, placement)
    return expand(context, _map_full(context.compact_board, full, avoided))


def alpha_general(board: Board, placement) -> Placement:
    """Apply ``alpha`` to any 231-avoiding rook placement via compaction.  The
    image occupies the same rows and columns, avoids 312, and ``beta_general``
    inverts it."""
    _require_avoider(board, placement, PATTERN_231)
    return _map_general(board, placement, PATTERN_231)


def beta_general(board: Board, placement) -> Placement:
    """Inverse of ``alpha_general`` on 312-avoiding rook placements."""
    _require_avoider(board, placement, PATTERN_312)
    return _map_general(board, placement, PATTERN_312)
