"""Exhaustive generators and verification sweeps.

All streams are deterministic: placements and sequences come out in
lexicographic order and board sweeps in (column count, heights) order, so
sweep reports are reproducible regardless of parallelism.
"""

from __future__ import annotations

import os
from bisect import insort
from itertools import combinations
from math import comb, prod
from operator import lt
from time import perf_counter
from typing import Iterable, Iterator, NamedTuple

from .bijection import (
    CompactionContext,
    _compact_board,
    _map_full,
    _rebuild,
    _sequence,
    compact,
    expand,
    plus_transform,
)
from .board import Board, _border_rules, _border_xy
from .conditions import check_231, check_312, format_sequence
from .errors import ParseError, RookbijError
from .placement import (
    PATTERN_231,
    PATTERN_312,
    FullPlacement,
    Pattern,
    Placement,
    _closes,
    _reflect,
    avoids,
    format_placement,
)

THEOREM_TAGS = ("l1", "t1", "t2", "t4", "remark")

# Sweep sizes chosen so a full run stays within a few seconds single-threaded.
DEFAULT_BOUNDS = {"l1": 5, "t1": 5, "t2": 5, "t4": 5, "remark": 4}

# Largest sweep bound `default_sweep` accepts: the C(18, 9) - 1 = 48,619
# boards within 9x9.  A sweep's board list has C(2n, n) - 1 entries, about
# 10^17 at n = 30.
MAX_SWEEP_N = 9

# Most full placements ``count_avoiders`` filters for a pattern it has no
# faster count for: the 9! of the 9x9 board.  Checked before any work.
MAX_FILTERED_PLACEMENTS = 362_880

# Most states ``_walk`` keeps, summed over the border vertices: shapes for a
# monotone count, border states for a 231/312 count or listing; about half a
# second single-threaded.  Every board under the filter limit stays under it
# for monotone patterns: a column with h_i - (n - i) = f rows left needs
# columns before it with f - 1, ..., 1 left, so f <= 9, no marker count
# exceeds 9, and each of at most 2001 border vertices keeps at most p(9) = 30
# shapes.  For 231 and 312 the largest square it finishes is 15x15 (about
# 64,500 states); 8x8 keeps fewer than 500.
MAX_WALK_SHAPES = 100_000


def full_placements(board: Board) -> Iterator[FullPlacement]:
    """Every full rook placement on the board, lexicographic by permutation.

    Fills the columns from the tallest and takes a row only when the rest can
    still be completed (``_completable_rows``), so it never backtracks out of
    a dead end; the last column takes the one row left.  Iterative, so no
    column count reaches the recursion limit.
    """
    return _filled(board, False, False)


def _filled(board: Board, tested: bool, prune: bool) -> Iterator:
    """``full_placements``' loop.  ``tested``: each placement comes as
    (placement, holds 231, holds 312), on-board occurrences, from flags
    kept per prefix: ``_closes`` takes the prefix's flags as a marker joins
    it and returns them with that marker's answer folded in, once for every
    placement sharing the prefix, and a prefix holding both skips it.
    ``prune``: a prefix holding both is dropped, with every placement
    through it, so only the avoiders of either come out.
    """
    if not board.admits_full_placement():
        return
    n = board.n_cols
    heights = board.heights
    perm: list[int] = []
    free = list(range(1, n + 1))  # the rows no column has taken, ascending
    held = [(False, False)] * (n + 1)  # held[k]: whether perm[:k] holds 231, 312
    pending = [iter(_completable_rows(heights, free))]  # rows to try, per column
    while pending:
        col = len(pending) - 1
        if len(perm) > col:  # back at this column: free the row it had
            insort(free, perm.pop())
        row = next(pending[-1], None)
        if row is None:
            pending.pop()
            continue
        if tested:
            has_231, has_312 = held[col]
            if not (has_231 and has_312):
                has_231, has_312 = _closes(perm, row, heights[col], has_231, has_312)
                if prune and has_231 and has_312:
                    continue
            held[col + 1] = has_231, has_312
        free.remove(row)
        perm.append(row)
        if len(free) > 1:
            pending.append(iter(_completable_rows(heights, free)))
            continue
        # The last column takes the one free row left, if any, at once.
        if tested and free and not (has_231 and has_312):
            has_231, has_312 = _closes(perm, free[0], heights[-1], has_231, has_312)
            if prune and has_231 and has_312:
                continue
        placement = FullPlacement(perm + free)
        yield (placement, has_231, has_312) if tested else placement


def _completable_rows(heights: tuple[int, ...], free: list[int]) -> list[int]:
    """The rows in ``free`` that column n - m + 1 can take so that the m - 1
    shorter columns after it still have a full placement in the other free
    rows, m = len(free), in ascending order.

    On a Ferrers board the shorter columns can be filled exactly when, for
    each i, the i-th smallest free row left is at most the i-th shortest
    column (Hall's condition).  ``_filled`` keeps the invariant that its free
    rows meet this condition for the m columns from n - m + 1 on: the full
    board does by ``admits_full_placement``, and each completable row taken
    keeps it.  So the rows below the one taken stay within their bounds, and
    every free row fits column n - m + 1.  Taking the t-th smallest free row
    moves the (i + 1)-th into place i for i >= t, so t runs from just after
    the last i whose (i + 1)-th smallest free row is above the i-th shortest
    column, found by one downward scan, through the largest free row.
    """
    n = len(heights)
    lo = len(free) - 1
    while lo and free[lo] <= heights[n - lo]:
        lo -= 1
    return free[lo:]


def full_placement_count(board: Board) -> int:
    """Number of full rook placements, without enumerating them.

    Filling columns from the right, column i of n has h_i - (n - i) rows
    left, whatever the n - i shorter columns to its right took.
    """
    if not board.admits_full_placement():
        return 0
    n = board.n_cols
    return prod(h - (n - i) for i, h in enumerate(board.heights, start=1))


def count_avoiders(board: Board, pattern: Pattern) -> int:
    """Number of full placements avoiding the pattern.

    For 231 and 312 this counts border sequences instead of placements: an
    avoider is fixed by its border sequence, and on a board with a full
    placement the sequences meeting the pattern's conditions are exactly the
    avoiders' (theorems t1 and t2).  A transfer walk along the border counts
    them (``_sequence_walks``) without listing them and runs no checker.
    For the monotone patterns 12...k and k...21 it counts walks of partitions
    along the border (``_shape_walks``), in time growing with the number of
    shapes with at most k - 1 rows that fit under the marker-count profile;
    both walks run ``_walk``.  Every other pattern filters all full
    placements, up to n! of them.

    Each path has a size limit and raises ParseError naming it: the filter
    refuses a board with more than MAX_FILTERED_PLACEMENTS full placements
    before any work, and the walk stops once the states it keeps pass
    MAX_WALK_SHAPES.
    """
    if not board.admits_full_placement():
        return 0
    if pattern in (PATTERN_231, PATTERN_312):
        return _sequence_walks(board, pattern).get(_END, 0)
    increasing = tuple(range(1, len(pattern.word) + 1))
    if pattern.word in (increasing, increasing[::-1]):
        return _shape_walks(board, pattern)
    if full_placement_count(board) > MAX_FILTERED_PLACEMENTS:
        raise ParseError(f"board too large: counting {pattern}-avoiders filters at most "
                         f"{MAX_FILTERED_PLACEMENTS:,} full placements")
    return sum(1 for p in full_placements(board) if avoids(board, p, pattern))


def _walk(pattern: Pattern, unit: str, start, rules: Iterable, step,
          trail: list[dict] | None = None) -> dict:
    """The one walk along the border.  A layer maps each state kept at a
    border index to a value, {start: 1} at the first; ``step(layer, rule,
    zero)`` gives the next layer, adding each state's value, from ``zero``
    up, into each state it moves to.  So the values count walks; or, with
    ``trail`` a list, each state carries the tuple of itself, and each layer,
    appended to ``trail``, maps a state to the states it came from.  Returns
    the last layer.  Raises ParseError, naming the states ``unit``, once the
    states kept before each step sum to more than MAX_WALK_SHAPES.
    """
    layer = {start: 1}
    walked = 0
    for rule in rules:
        walked += len(layer)
        if walked > MAX_WALK_SHAPES:
            raise ParseError(f"board too large: counting {pattern}-avoiders walks at most "
                             f"{MAX_WALK_SHAPES:,} {unit}")
        if trail is None:
            layer = step(layer, rule, 0)
        else:
            layer = step({state: (state,) for state in layer}, rule, ())
            trail.append(layer)
    return layer


def _shape_walks(board: Board, pattern: Pattern) -> int:
    """Walks of partitions with at most k - 1 rows along the border, k the
    length of the monotone pattern, from the empty shape back to it, adding
    one box on each rightward step and removing one on each downward step.

    By growth diagrams (Krattenthaler 2006) such walks with any number of rows
    are the full placements: the shape at border vertex V has as many rows as
    the longest decreasing and as many columns as the longest increasing
    marker chain in R(V).  So the walks with at most k - 1 rows count the
    k...21-avoiders and, transposing every shape, the 12...k-avoiders.  A
    shape is kept as its row lengths, zeros included.  The steps are the
    rises of the rule table (``_border_rules``).
    """
    rows = min(len(pattern.word) - 1, board.n_cols)  # no shape has more rows than boxes

    def step(layer: dict, rule: tuple[bool, int, int | None, bool], zero) -> dict:
        rise = rule[0]
        after: dict = {}
        for shape, value in layer.items():
            for r in range(rows):
                if rise:
                    # a box ends row 0 or a row shorter than the row above
                    if r and shape[r] == shape[r - 1]:
                        continue
                    moved = shape[:r] + (shape[r] + 1,) + shape[r + 1:]
                else:
                    # a box leaves a row longer than the row below
                    if shape[r] == (shape[r + 1] if r + 1 < rows else 0):
                        continue
                    moved = shape[:r] + (shape[r] - 1,) + shape[r + 1:]
                after[moved] = after.get(moved, zero) + value
        return after

    empty = (0,) * rows
    return _walk(pattern, "shapes", empty, _border_rules(board)[1:], step).get(empty, 0)


def rook_placements(board: Board) -> Iterator[Placement]:
    """Every (possibly partial, possibly empty) rook placement, each exactly
    once: each column is left empty, then given each free row from the lowest.
    A prefix whose next column has no free row is yielded at once, the later
    columns left empty: they are no taller, so they have no free row either.
    So the work follows the placements yielded.  Iterative, so no column
    count reaches the recursion limit."""
    heights = board.heights
    n = board.n_cols
    markers: list[tuple[int, int]] = []
    used: set[int] = set()  # the rows of the markers
    rows = [0] * (n + 1)  # the row each column took, 0 for none
    pending = [iter(range(heights[0] + 1))]  # rows to try, per column; 0 for none
    while pending:
        col = len(pending)
        if rows[col]:  # back at this column: free the row it had
            used.remove(rows[col])
            markers.pop()
        for row in pending[-1]:
            if row not in used:
                break
        else:
            rows[col] = 0
            pending.pop()
            continue
        rows[col] = row
        if row:
            used.add(row)
            markers.append((col, row))
        if col == n or all(r in used for r in range(1, heights[col] + 1)):
            yield Placement(frozenset(markers))
        else:
            pending.append(iter(range(heights[col] + 1)))


def boards_within(n: int, square_bounded_only: bool = False,
                  full_only: bool = False) -> Iterator[Board]:
    """All Ferrers boards fitting in an n-by-n box, by column count then heights."""
    if n < 1:
        raise ValueError("n must be at least 1")
    for n_cols in range(1, n + 1):
        for heights in _heights_of(n_cols, n, []):
            board = Board(heights)
            if square_bounded_only and not board.square_bounded():
                continue
            if full_only and not board.admits_full_placement():
                continue
            yield board


def _heights_of(length: int, cap: int, prefix: list[int]) -> Iterator[tuple[int, ...]]:
    # The weakly decreasing completions of ``prefix`` to ``length`` heights
    # of at most ``cap``, lexicographically.  A module function, not a
    # closure calling itself, so a sweep leaves no reference cycle behind.
    if len(prefix) == length:
        yield tuple(prefix)
        return
    for h in range(1, cap + 1):
        prefix.append(h)
        yield from _heights_of(length, h, prefix)
        prefix.pop()


_END = (0, ())  # the state at the last index: value 0, no value owed a comparison


def _sequence_walks(board: Board, pattern: Pattern,
                    trail: list[dict] | None = None) -> dict:
    """The last layer of the walk (``_walk``, which fills ``trail``) over the
    border sequences within the profile meeting the 231- or 312-conditions.

    Kept diagonal pairs nest like brackets (``_border_rules``), so the values
    still owed a diagonal comparison form a stack, and a state is the value
    at the current index with that stack.  Each step pops the left end's
    value at an index that closes a pair, takes the values the conditions
    allow and pushes the new value at one that opens a pair.  The allowed
    values are the previous value plus 0 or 1 after a rightward step, minus
    0 or 1 after a downward one; within [0, cap]; not a second zero in a
    row; and at least (231) or at most (312, or any other pattern) the
    popped value.  The sequences are the walks ending in ``_END``.
    """
    diagonal_le = pattern == PATTERN_231

    def step(layer: dict, rule: tuple[bool, int, int | None, bool], zero) -> dict:
        rise, cap, left_end, opens = rule
        fall = not rise
        after: dict = {}
        for (prev, stack), value in layer.items():
            low = prev - fall if prev else 1
            high = prev + rise
            if high > cap:
                high = cap
            if left_end is not None:
                left, stack = stack[-1], stack[:-1]
                if diagonal_le:
                    if low < left:
                        low = left
                elif high > left:
                    high = left
            for v in range(low, high + 1):
                state = (v, stack + (v,)) if opens else (v, stack)
                after[state] = after.get(state, zero) + value
        return after

    rules = _border_rules(board)
    start = (0, (0,) if rules[0][3] else ())
    return _walk(pattern, "border states", start, rules[1:], step, trail)


def valid_sequences(board: Board, pattern: Pattern) -> Iterator[tuple[int, ...]]:
    """Border sequences within the marker-count profile passing the 231- or
    312-conditions, lexicographically.

    They come from the walk ``count_avoiders`` counts with: walked forward,
    each state keeps the states it came from; walked back from ``_END``, the
    states on a complete sequence keep the states after them in value order,
    so the descent from index 0 enters no dead end.  Each sequence is run
    through the full checker, whose diagonal conditions cover every in-board
    pair, as a cross-check, which rejects none.  On a square-bounded board
    these are exactly the border sequences of the pattern's avoiders
    (theorem t2).  Raises ValueError for a pattern other than 231 and 312,
    and ParseError, before it yields anything, once the walk keeps more than
    MAX_WALK_SHAPES states.
    """
    if pattern not in (PATTERN_231, PATTERN_312):
        raise ValueError(f"no condition checker for pattern {pattern}")
    checker = check_231 if pattern == PATTERN_231 else check_312
    trail: list[dict] = []
    _sequence_walks(board, pattern, trail)
    # ahead[i] maps each state at index i on a complete sequence to the
    # states after it on one, in value order.
    ahead: list[dict] = []
    live = [_END] if _END in trail[-1] else []
    for sources in reversed(trail):
        back: dict = {}
        for state in live:
            for source in sources[state]:
                back.setdefault(source, []).append(state)
        ahead.insert(0, back)
        live = sorted(back)
    values = [0] * (len(trail) + 1)
    todo = [(0, state) for state in live]
    while todo:
        i, state = todo.pop()
        values[i] = state[0]
        if i < len(ahead):
            todo.extend((i + 1, following) for following in reversed(ahead[i][state]))
            continue
        seq = tuple(values)
        if checker(board, seq).verdict:
            yield seq


class Failure(NamedTuple):
    """One counterexample from a sweep: the board, the theorem tag of the
    check that found it, and the check's witness text.  All are made by
    ``_board_failures``."""
    board: Board
    theorem: str
    witness: str


class SweepReport(NamedTuple):
    boards_checked: int
    failures: tuple[Failure, ...]
    elapsed: float

    @property
    def passed(self) -> bool:
        return not self.failures


def _check_l1(board: Board) -> Iterator[str]:
    # Marker counts in R(V) must match the placement-independent profile.
    # The count follows the border, walked once per board as (rightward, x,
    # y) per vertex from the border's coordinates, not from the profile it
    # checks: a rightward step takes in the new column's marker if it is at
    # or below y, a downward step drops the marker of the row left behind
    # if it is at or left of x.  The top-left corner is the one vertex with
    # x = 0: no step leads into it, and its R(V) is empty.
    profile = board.marker_count_profile
    xs, ys = _border_xy(board.heights)
    walk = list(zip(map(lt, [0] + xs, xs), xs, ys))
    for p in full_placements(board):
        perm = p.perm
        col_of = _reflect(perm)  # col_of[r - 1]: the column of row r's marker
        count = 0
        for (rightward, x, y), expected in zip(walk, profile):
            if rightward:
                count += perm[x - 1] <= y
            elif x:
                count -= col_of[y] <= x
            if count != expected:
                yield (f"placement {format_placement(p)} has {count} markers in "
                       f"R(({x},{y})), profile says {expected}")


def _class_flags(board: Board, fulls: Iterable[FullPlacement],
                 context: CompactionContext) -> Iterator:
    # Remark's class test: each full placement of a class's compact board,
    # expanded onto the board, as (placement, holds 231, holds 312): unchecked,
    # ``_closes`` folds each marker, in column order, into the flags of the
    # markers before it until both patterns are found.
    heights = board.heights
    cols, lift = context.occupied_cols, (0,) + context.occupied_rows  # lift[r]: board row of r
    for p in fulls:
        rows: list[int] = []
        has_231 = has_312 = False
        for col, row in zip(cols, [lift[r] for r in p.perm]):
            has_231, has_312 = _closes(rows, row, heights[col - 1], has_231, has_312)
            if has_231 and has_312:
                break
            rows.append(row)
        yield p, has_231, has_312


def _split(flagged: Iterable) -> tuple[list[FullPlacement], dict[Pattern, list]]:
    # The placements of a (placement, holds 231, holds 312) stream, from
    # ``_filled``'s tested loop or ``_class_flags``, and the 231- and
    # 312-avoiders among them, each in stream order.
    placements, a231, a312 = [], [], []
    for p, has_231, has_312 in flagged:
        placements.append(p)
        if not has_231:
            a231.append(p)
        if not has_312:
            a312.append(p)
    return placements, {PATTERN_231: a231, PATTERN_312: a312}


def _check_t1(board: Board) -> Iterator[str]:
    # The border sequence determines the avoiding placement, and the
    # reconstruction inverts the sequence map.
    for pattern, avoiders in _split(_filled(board, True, True))[1].items():
        seen: dict[tuple[int, ...], FullPlacement] = {}
        for p in avoiders:
            seq = _sequence(board, p)  # kept, so the reconstruction's self-check reads it
            if seq in seen:
                yield (f"placements {format_placement(seen[seq])} and {format_placement(p)} "
                       f"({pattern}-avoiding) share sequence {format_sequence(seq)}")
                continue
            seen[seq] = p
            try:
                rebuilt = _rebuild(board, seq, pattern)
            except RookbijError as exc:
                yield f"reconstruction failed on {format_sequence(seq)}: {exc}"
                continue
            if rebuilt != p:
                yield (f"sequence {format_sequence(seq)} rebuilt to {format_placement(rebuilt)}, "
                       f"expected {format_placement(p)}")


def _check_t2(board: Board) -> Iterator[str]:
    # On square-bounded boards the checker-passing sequences are exactly the
    # sequences of avoiding placements.
    if not board.square_bounded():
        return
    for pattern, avoiders in _split(_filled(board, True, True))[1].items():
        realized = {_sequence(board, p) for p in avoiders}
        accepted = set(valid_sequences(board, pattern))
        for seq in sorted(realized - accepted):
            yield f"{pattern}-realized sequence {format_sequence(seq)} fails the conditions"
        for seq in sorted(accepted - realized):
            yield (f"sequence {format_sequence(seq)} passes the {pattern}-conditions "
                   f"but no avoider realizes it")


def _check_bijection(board: Board, sources, targets,
                     context: CompactionContext | None = None) -> Iterator[str]:
    # alpha maps the 231-avoiding sources onto the 312-avoiding targets and
    # beta undoes it, through the core ``_map_full``.  With a compaction
    # class, the placements are full placements of its compact board, the
    # maps run there, and failures name the general maps and show each
    # placement expanded onto the board.  The images are compared with the
    # targets as placements, so an image that contains the other pattern or
    # leaves its compaction class is reported.
    if context is None:
        f, b, on = "alpha", "beta", board
    else:
        f, b, on = "alpha_general", "beta_general", context.compact_board

    def show(p) -> str:
        return format_placement(p if context is None else expand(context, p), board)

    images: dict[FullPlacement, None] = {}  # in the order mapped
    for p in sources:
        try:
            q = _map_full(on, p, PATTERN_231)
            back = _map_full(on, q, PATTERN_312)
        except RookbijError as exc:
            yield f"{f}/{b} failed on {show(p)}: {exc}"
            continue
        images[q] = None
        if back != p:
            yield f"{b}({f}({show(p)})) = {show(back)}"
    wanted = set(targets)
    if images.keys() != wanted:
        stray = ",".join(show(q) for q in images if q not in wanted)
        missed = ",".join(show(q) for q in targets if q not in images)
        yield f"{f} image has {{{stray}}} outside the targets and misses {{{missed}}}"


def _check_t4(board: Board) -> Iterator[str]:
    # alpha and beta are mutually inverse bijections between the avoider sets,
    # and plus_transform is an involution on realized sequences.  One pass
    # suffices: if beta(alpha(p)) = p for every 231-avoider p and alpha's
    # images are the 312-avoiders, a pass beta then alpha cannot fail.
    placements, avoiders = _split(_filled(board, True, False))
    yield from _check_bijection(board, avoiders[PATTERN_231], avoiders[PATTERN_312])
    for p in placements:
        seq = _sequence(board, p)
        try:
            if plus_transform(board, plus_transform(board, seq)) != seq:
                yield f"plus_transform not involutive on {format_sequence(seq)}"
        except RookbijError as exc:
            yield f"plus_transform failed on {format_sequence(seq)}: {exc}"


def _compaction_classes(board: Board) -> Iterator[CompactionContext]:
    """The compaction class of every nonempty rook placement, in (size,
    columns, rows) order: each set of columns C and rows R, |C| = |R|, whose
    compact board, C's columns each keeping the rows of R up to its height
    (``_compact_board``, as in ``compact``), admits a full placement.  It
    does exactly when the i-th lowest row of R is at most the i-th shortest
    column of C (Hall's condition), so R is drawn from the rows up to C's
    tallest column."""
    heights = board.heights
    n_cols = board.n_cols
    for k in range(1, min(n_cols, board.n_rows) + 1):
        for cols in combinations(range(1, n_cols + 1), k):
            tall_first = [heights[c - 1] for c in cols]
            short_first = tall_first[::-1]
            for rows in combinations(range(1, tall_first[0] + 1), k):
                if any(r > h for r, h in zip(rows, short_first)):
                    continue
                yield CompactionContext(cols, rows, _compact_board(board, cols, rows))


def _check_remark(board: Board) -> Iterator[str]:
    # A class's placements are its compact board's full placements, expanded.
    # Compaction preserves avoidance, so the general maps are the full maps
    # on the compact board, checked once per compact board and shown through
    # its first class; each class still tests avoidance on the board itself.
    # The count line needs every class, so the class failures wait for it.
    counts = {PATTERN_231: 1, PATTERN_312: 1}  # avoiders per pattern, the empty placement too
    witnesses: list[str] = []
    splits: dict[tuple[int, ...], tuple] = {}  # per compact heights: placements, avoiders
    for context in _compaction_classes(board):
        on = context.compact_board
        fresh = on.heights not in splits
        if fresh:
            splits[on.heights] = _split(_filled(on, True, False))
        fulls, kept = splits[on.heights]
        first = expand(context, fulls[0])
        try:
            compacted = compact(board, first)
        except RookbijError as exc:
            compacted = exc
        if compacted != (context, fulls[0]):
            witnesses.append(f"compact({format_placement(first, board)}) gave "
                             f"{compacted!r}, its class is {context!r}")
        for pattern, avoiders in _split(_class_flags(board, fulls, context))[1].items():
            counts[pattern] += len(avoiders)
            if avoiders != kept[pattern]:
                moved = ",".join(format_placement(expand(context, p), board) for p in fulls
                                 if (p in avoiders) != (p in kept[pattern]))
                witnesses.append(f"compaction changes the {pattern}-avoidance of {{{moved}}}")
        if fresh:
            witnesses.extend(_check_bijection(
                board, kept[PATTERN_231], kept[PATTERN_312], context))
    if counts[PATTERN_231] != counts[PATTERN_312]:
        yield f"{counts[PATTERN_231]} placements avoid 231 but {counts[PATTERN_312]} avoid 312"
    yield from witnesses


_CHECKS = {
    "l1": _check_l1,
    "t1": _check_t1,
    "t2": _check_t2,
    "t4": _check_t4,
    "remark": _check_remark,
}


def _require_within_sweep_box(board: Board) -> None:
    # The checks enumerate up to n! full placements, and remark every rook placement.
    if max(board.n_cols, board.n_rows) > MAX_SWEEP_N:
        raise ParseError(f"--board must fit within {MAX_SWEEP_N}x{MAX_SWEEP_N}, "
                         "the box of the largest --max-n")


def _require_tag(theorem: str) -> None:
    if theorem not in _CHECKS:
        raise ValueError(f"unknown theorem tag {theorem!r}")


def check_board(board: Board, theorem: str) -> list[Failure]:
    """Run one verification check on one board; failures are data, not errors.

    Failures come in the check's order; remark's count line, if any, first.
    Raises ValueError for a theorem tag not in THEOREM_TAGS, and ParseError
    for a board beyond the MAX_SWEEP_N-square sweep box.
    """
    _require_within_sweep_box(board)
    _require_tag(theorem)
    return _board_failures(board, (theorem,))


def _board_failures(board: Board, tags: tuple[str, ...]) -> list[Failure]:
    # The one place failures are made, from the witnesses each check yields.
    # The checks cache on ``board``: ``verify`` passes a fresh copy, so the
    # caches go when its checks end, not when the sweep does.
    return [Failure(board, tag, witness) for tag in tags for witness in _CHECKS[tag](board)]


def _require_sweep_bound(max_n: int) -> None:
    if max_n < 1:
        raise ParseError("--max-n must be at least 1")
    if max_n > MAX_SWEEP_N:
        boards = comb(2 * MAX_SWEEP_N, MAX_SWEEP_N) - 1
        raise ParseError(f"--max-n must be at most {MAX_SWEEP_N}, a sweep of {boards:,} boards")


def _require_workers(parallel: int) -> None:
    if parallel < 1:
        raise ParseError("--parallel must be at least 1")


def default_sweep(theorem: str, max_n: int | None = None) -> list[Board]:
    """The default board sweep for one verification tag.  Raises ValueError
    for a tag not in THEOREM_TAGS, then ParseError for a ``max_n`` below 1 or
    above MAX_SWEEP_N."""
    _require_tag(theorem)
    n = max_n if max_n is not None else DEFAULT_BOUNDS[theorem]
    _require_sweep_bound(n)
    if theorem in ("t1", "t2", "t4"):
        return list(boards_within(n, square_bounded_only=True))
    return list(boards_within(n))


def verify(boards: Board | Iterable[Board], theorem: str = "all",
           parallel: int = 1) -> SweepReport:
    """Run verification sweeps; any counterexample is reported verbatim.

    ``boards`` may be a single board or an iterable; ``theorem`` is one of
    the tags in THEOREM_TAGS or "all".  ``parallel`` worker processes are
    started, at most one per board and per CPU.  Reports are merged in board
    order, so output does not depend on ``parallel``; a board's failures
    come by tag in THEOREM_TAGS order, each check's in its own order,
    remark's count line first.  Raises ParseError, before any check runs,
    if ``parallel`` is below 1 or a board does not fit in the
    MAX_SWEEP_N-square box that sweeps are limited to, and ValueError, also
    before any check runs, for an unknown ``theorem`` tag.
    """
    _require_workers(parallel)
    if isinstance(boards, Board):
        boards = [boards]
    boards = list(boards)
    for board in boards:
        _require_within_sweep_box(board)
    if theorem != "all":
        _require_tag(theorem)
    tags = THEOREM_TAGS if theorem == "all" else (theorem,)
    start = perf_counter()
    failures: list[Failure] = []
    workers = min(parallel, len(boards), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        from functools import partial
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for batch in pool.map(partial(_board_failures, tags=tags), boards):
                failures.extend(batch)
    else:
        for board in boards:  # a fresh copy, as a worker unpickles from the heights
            failures.extend(_board_failures(Board(board.heights), tags))
    return SweepReport(len(boards), tuple(failures), perf_counter() - start)
