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
from time import perf_counter
from typing import Iterable, Iterator, NamedTuple

from .bijection import (
    CompactionContext,
    _compact_board,
    _map_full,
    _rebuild,
    _sequence,
    _side,
    compact,
    expand,
    plus_transform,
)
from .board import RIGHT, Board, _border_rules, _border_xy
from .conditions import format_sequence
from .errors import ParseError, RookbijError
from .placement import (
    PATTERN_231,
    PATTERN_312,
    FullPlacement,
    Pattern,
    Placement,
    _by_column,
    _closes,
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
    a dead end.  Iterative, so no column count reaches the recursion limit.
    """
    return _filled(board, False, False)


def _filled(board: Board, tested: bool, prune: bool) -> Iterator:
    """``full_placements``' loop.  ``tested``: each placement comes as
    (placement, holds 231, holds 312), on-board occurrences, from flags
    kept per prefix: ``_closes`` tests each marker once as it joins a
    prefix, for every placement sharing that prefix, and a prefix holding
    both skips the test.  ``prune``: a prefix holding both is dropped, with
    every placement through it, so only the avoiders of either come out.
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
                found_231, found_312 = _closes(perm, row, heights[col])
                has_231 = has_231 or found_231
                has_312 = has_312 or found_312
                if prune and has_231 and has_312:
                    continue
            held[col + 1] = has_231, has_312
        free.remove(row)
        perm.append(row)
        if col + 1 < n:
            pending.append(iter(_completable_rows(heights, free)))
        elif tested:
            yield FullPlacement(tuple(perm)), has_231, has_312
        else:
            yield FullPlacement(tuple(perm))


def _completable_rows(heights: tuple[int, ...], free: list[int]) -> list[int]:
    """The rows in ``free`` that column n - m + 1 can take so that the m - 1
    shorter columns after it still have a full placement in the other free
    rows, m = len(free), in ascending order.

    On a Ferrers board the shorter columns can be filled exactly when, for
    each i, the i-th smallest free row left is at most the i-th shortest
    column (Hall's condition).  Taking the t-th smallest free row leaves the
    i-th smallest in place i for i < t and moves the (i + 1)-th into place i
    for i >= t.  So t runs from just after the last i whose (i + 1)-th
    smallest free row is above the i-th shortest column, up to the first i
    whose i-th smallest is.
    """
    m = len(free)
    n = len(heights)
    col_height = heights[n - m]
    lo, hi = 0, m - 1
    for j in range(m - 1):
        cap = heights[n - 1 - j]  # the (j + 1)-th shortest of the shorter columns
        if free[j] > cap and j < hi:
            hi = j
        if free[j + 1] > cap:
            lo = j + 1
    return [row for row in free[lo:hi + 1] if row <= col_height]


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
    shape is kept as its row lengths, zeros included.  The steps are read off
    the border coordinates: a step is rightward where x grows.
    """
    rows = min(len(pattern.word) - 1, board.n_cols)  # no shape has more rows than boxes

    def step(layer: dict, rise: bool, zero) -> dict:
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

    xs, _ = _border_xy(board.heights)
    rises = [a < b for a, b in zip(xs, xs[1:])]
    empty = (0,) * rows
    return _walk(pattern, "shapes", empty, rises, step).get(empty, 0)


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
    row; and at least (231) or at most (312) the popped value.  The
    sequences are the walks ending in ``_END``.
    """
    diagonal_le = _side(pattern).diagonal_le

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
    (theorem t2).  Raises ParseError, before it yields anything, once the
    walk keeps more than MAX_WALK_SHAPES states.
    """
    checker = _side(pattern).check
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


def _check_l1(board: Board) -> list[Failure]:
    # Marker counts in R(V) must match the placement-independent profile.
    # The count follows the border: a rightward step takes in the new
    # column's marker if it is at or below y, a downward step drops the
    # marker of the row left behind if it is at or left of x.
    failures = []
    profile = board.marker_count_profile
    path = board.border_path
    for p in full_placements(board):
        perm = p.perm
        col_of = {row: col for col, row in enumerate(perm, start=1)}
        count = 0
        for idx, v in enumerate(path.vertices):
            if idx:
                if path.steps[idx - 1] == RIGHT:
                    count += perm[v.x - 1] <= v.y
                else:
                    count -= col_of[v.y + 1] <= v.x
            if count != profile[idx]:
                failures.append(Failure(
                    board, "l1",
                    f"placement {format_placement(p)} has {count} markers in "
                    f"R(({v.x},{v.y})), profile says {profile[idx]}"))
    return failures


def _avoiders(board: Board, placements: Iterable,
              context: CompactionContext | None = None) -> dict[Pattern, list]:
    # The sweeps generate the placements on the board, so each is tested
    # unchecked: ``_closes`` on each marker in column order, stopping once
    # both patterns are found.  With a compaction class, the placements are
    # full placements of its compact board, each tested expanded onto the
    # board.
    heights = board.heights
    if context is not None:  # lift[r]: the board row of compact row r
        cols, lift = context.occupied_cols, (0,) + context.occupied_rows
    a231, a312 = [], []
    for p in placements:
        if context is None:
            markers = _by_column(p)
        else:
            markers = zip(cols, [lift[r] for r in p.perm])
        rows: list[int] = []
        has_231 = has_312 = False
        for col, row in markers:
            found_231, found_312 = _closes(rows, row, heights[col - 1])
            has_231 = has_231 or found_231
            has_312 = has_312 or found_312
            if has_231 and has_312:
                break
            rows.append(row)
        if not has_231:
            a231.append(p)
        if not has_312:
            a312.append(p)
    return {PATTERN_231: a231, PATTERN_312: a312}


def _split(board: Board, prune: bool) -> tuple[list[FullPlacement], dict[Pattern, list]]:
    # The full placements from ``_filled``'s tested loop, and the 231- and
    # 312-avoiders among them, each in lexicographic order.  With ``prune``
    # the placements holding both patterns are never built, and are missing
    # from the first list.
    placements, a231, a312 = [], [], []
    for p, has_231, has_312 in _filled(board, True, prune):
        placements.append(p)
        if not has_231:
            a231.append(p)
        if not has_312:
            a312.append(p)
    return placements, {PATTERN_231: a231, PATTERN_312: a312}


def _check_t1(board: Board) -> list[Failure]:
    # The border sequence determines the avoiding placement, and the
    # reconstruction inverts the sequence map.
    failures = []
    for pattern, avoiders in _split(board, True)[1].items():
        seen: dict[tuple[int, ...], FullPlacement] = {}
        for p in avoiders:
            seq = _sequence(board, p)  # kept, so the reconstruction's self-check reads it
            if seq in seen:
                failures.append(Failure(
                    board, "t1",
                    f"placements {format_placement(seen[seq])} and {format_placement(p)} "
                    f"({pattern}-avoiding) share sequence {format_sequence(seq)}"))
                continue
            seen[seq] = p
            try:
                rebuilt = _rebuild(board, seq, pattern)
            except RookbijError as exc:
                failures.append(Failure(
                    board, "t1",
                    f"reconstruction failed on {format_sequence(seq)}: {exc}"))
                continue
            if rebuilt != p:
                failures.append(Failure(
                    board, "t1",
                    f"sequence {format_sequence(seq)} rebuilt to {format_placement(rebuilt)}, "
                    f"expected {format_placement(p)}"))
    return failures


def _check_t2(board: Board) -> list[Failure]:
    # On square-bounded boards the checker-passing sequences are exactly the
    # sequences of avoiding placements.
    if not board.square_bounded():
        return []
    failures = []
    for pattern, avoiders in _split(board, True)[1].items():
        realized = {_sequence(board, p) for p in avoiders}
        accepted = set(valid_sequences(board, pattern))
        for seq in sorted(realized - accepted):
            failures.append(Failure(
                board, "t2",
                f"{pattern}-realized sequence {format_sequence(seq)} fails the conditions"))
        for seq in sorted(accepted - realized):
            failures.append(Failure(
                board, "t2",
                f"sequence {format_sequence(seq)} passes the {pattern}-conditions "
                f"but no avoider realizes it"))
    return failures


def _check_bijection(board: Board, tag: str, sources, targets,
                     context: CompactionContext | None = None) -> list[Failure]:
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

    failures = []
    images: dict[FullPlacement, None] = {}  # in the order mapped
    for p in sources:
        try:
            q = _map_full(on, p, PATTERN_231)
            back = _map_full(on, q, PATTERN_312)
        except RookbijError as exc:
            failures.append(Failure(board, tag, f"{f}/{b} failed on {show(p)}: {exc}"))
            continue
        images[q] = None
        if back != p:
            failures.append(Failure(board, tag, f"{b}({f}({show(p)})) = {show(back)}"))
    wanted = set(targets)
    if images.keys() != wanted:
        stray = ",".join(show(q) for q in images if q not in wanted)
        missed = ",".join(show(q) for q in targets if q not in images)
        failures.append(Failure(
            board, tag, f"{f} image has {{{stray}}} outside the targets and misses {{{missed}}}"))
    return failures


def _check_t4(board: Board) -> list[Failure]:
    # alpha and beta are mutually inverse bijections between the avoider sets,
    # and plus_transform is an involution on realized sequences.  One pass
    # suffices: if beta(alpha(p)) = p for every 231-avoider p and alpha's
    # images are the 312-avoiders, a pass beta then alpha cannot fail.
    placements, avoiders = _split(board, False)
    failures = _check_bijection(board, "t4", avoiders[PATTERN_231], avoiders[PATTERN_312])
    for p in placements:
        seq = _sequence(board, p)
        if plus_transform(board, plus_transform(board, seq)) != seq:
            failures.append(Failure(
                board, "t4", f"plus_transform not involutive on {format_sequence(seq)}"))
    return failures


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


def _check_remark(board: Board) -> list[Failure]:
    # Partial placements, one compaction class at a time: a class's
    # placements are the full placements of its compact board, expanded
    # through its columns and rows.  Compaction preserves avoidance, so the
    # general maps are the full maps on the compact board: alpha_general and
    # beta_general are checked there once, on its own avoiders, shown
    # through the first class that compacts to it.  Each class tests its
    # placements on the board and reports avoiders that differ from its
    # compact board's.  The 231- and 312-avoider counts on the board agree,
    # the empty placement counted once on each side.  The public compact
    # runs once per class, cross-checking its board and re-indexing.  The
    # count line comes first, then each class's failures in (size, columns,
    # rows) order.
    n_231 = n_312 = 1  # the empty placement
    failures = []
    splits: dict[tuple[int, ...], tuple] = {}  # per compact heights: placements, avoiders
    for context in _compaction_classes(board):
        on = context.compact_board
        fresh = on.heights not in splits
        if fresh:
            splits[on.heights] = _split(on, False)
        fulls, kept = splits[on.heights]
        first = expand(context, fulls[0])
        try:
            compacted = compact(board, first)
        except RookbijError as exc:
            compacted = exc
        if compacted != (context, fulls[0]):
            failures.append(Failure(
                board, "remark", f"compact({format_placement(first, board)}) gave "
                f"{compacted!r}, its class is {context!r}"))
        found = _avoiders(board, fulls, context)
        for pattern, avoiders in found.items():
            if avoiders != kept[pattern]:
                moved = ",".join(format_placement(expand(context, p), board) for p in fulls
                                 if (p in avoiders) != (p in kept[pattern]))
                failures.append(Failure(
                    board, "remark", f"compaction changes the {pattern}-avoidance of {{{moved}}}"))
        n_231 += len(found[PATTERN_231])
        n_312 += len(found[PATTERN_312])
        if fresh:
            failures.extend(_check_bijection(
                board, "remark", kept[PATTERN_231], kept[PATTERN_312], context))
    if n_231 != n_312:
        failures.insert(0, Failure(
            board, "remark", f"{n_231} placements avoid 231 but {n_312} avoid 312"))
    return failures


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

    Raises ValueError for a theorem tag not in THEOREM_TAGS, and ParseError
    for a board beyond the MAX_SWEEP_N-square sweep box.
    """
    _require_within_sweep_box(board)
    _require_tag(theorem)
    return _CHECKS[theorem](board)


def _board_failures(board: Board, tags: tuple[str, ...]) -> list[Failure]:
    # A fresh copy of the board keeps what the checks cache on it, so the
    # caches go when its checks end, not when the sweep does.
    board = Board(board.heights)
    out: list[Failure] = []
    for tag in tags:
        out.extend(check_board(board, tag))
    return out


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
    order, so output does not depend on ``parallel``.  Raises ParseError,
    before any check runs, if ``parallel`` is below 1 or a board does not
    fit in the MAX_SWEEP_N-square box that sweeps are limited to.
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
        for board in boards:
            failures.extend(_board_failures(board, tags))
    return SweepReport(len(boards), tuple(failures), perf_counter() - start)
