"""Slow, direct implementations that the tests hold the library against.

Each one computes its answer the most literal way: per-square grids, every
marker combination, every vertex pair, every full placement, every sequence
prefix, every dead end.  None is used by the library.
"""

from itertools import combinations
from typing import Iterable, Iterator

from rookbij.board import DOWN, RIGHT, Board, BorderPath, Vertex
from rookbij.errors import InvalidPlacement, ReconstructionFailure
from rookbij.placement import (
    PATTERN_231,
    PATTERN_312,
    FullPlacement,
    Pattern,
    Placement,
    avoids,
    inverse_placement,
)


def s_grid(board: Board, placement) -> dict[Vertex, int]:
    """Longest increasing marker chain inside R(V), for every vertex V of the board.

    Computed by the local growth rule: zero along the left and bottom edges;
    a marked square forces NE = SW + 1, an unmarked square NE = max(NW, SE).
    """
    placement.validate_on(board)
    markers = placement.markers
    values: dict[Vertex, int] = {}
    for x in range(board.n_cols + 1):
        values[Vertex(x, 0)] = 0
    for y in range(board.n_rows + 1):
        values[Vertex(0, y)] = 0
    for col in range(1, board.n_cols + 1):
        for row in range(1, board.heights[col - 1] + 1):
            if (col, row) in markers:
                v = values[Vertex(col - 1, row - 1)] + 1
            else:
                v = max(values[Vertex(col - 1, row)], values[Vertex(col, row - 1)])
            values[Vertex(col, row)] = v
    return values


def border_values(board: Board, placement) -> tuple[int, ...]:
    """The ``s_grid`` values read along the border, top-left corner first."""
    grid = s_grid(board, placement)
    return tuple(grid[v] for v in board.border_path.vertices)


def lis_in_rectangle(markers: Iterable[tuple[int, int]], x: int, y: int) -> int:
    """Brute-force longest increasing chain among markers with col <= x, row <= y.

    Independent oracle for the growth-rule grid: a direct chain DP over the
    marker list, no border bookkeeping.
    """
    pts = sorted((c, r) for c, r in markers if c <= x and r <= y)
    best = [1] * len(pts)
    for i, (_, r) in enumerate(pts):
        for j in range(i):
            if pts[j][1] < r and best[j] + 1 > best[i]:
                best[i] = best[j] + 1
    return max(best, default=0)


def _order_isomorphic(combo, pattern: Pattern) -> bool:
    rows = tuple(r for _, r in combo)
    order = sorted(rows)
    return tuple(order.index(r) + 1 for r in rows) == pattern.word


def pattern_witness_by_scan(board: Board, placement, pattern: Pattern):
    """First marker tuple, in ``combinations`` order, order-isomorphic to
    ``pattern`` with its bounding square on the board; None if there is none."""
    placement.validate_on(board)
    markers = sorted(placement.markers)
    for combo in combinations(markers, len(pattern.word)):
        if not board.contains_square(combo[-1][0], max(r for _, r in combo)):
            continue
        if _order_isomorphic(combo, pattern):
            return combo
    return None


def closes_by_scan(rows, row: int, height: int) -> tuple[bool, bool]:
    """Whether two of the earlier ``rows`` and then ``row`` form a 231 and a
    312 whose highest row is at most ``height``, trying every pair."""
    words = {tuple(sorted(trio).index(r) + 1 for r in trio)
             for trio in ((a, b, row) for a, b in combinations(rows, 2))
             if max(trio) <= height}
    return (2, 3, 1) in words, (3, 1, 2) in words


def avoids_by_border_definition(board: Board, placement, pattern: Pattern) -> bool:
    """Avoidance checked literally vertex by vertex along the border.

    Oracle for the bounding-vertex shortcut used by ``avoids``.
    """
    placement.validate_on(board)
    k = len(pattern.word)
    for v in board.border_path.vertices:
        inside = sorted((c, r) for c, r in placement.markers if c <= v.x and r <= v.y)
        if any(_order_isomorphic(combo, pattern) for combo in combinations(inside, k)):
            return False
    return True


def full_placements_by_backtracking(board: Board) -> Iterator[FullPlacement]:
    """Every full rook placement, lexicographic by permutation: each column,
    tallest first, tries every free row up to its height, and the search
    backs out of prefixes that the shorter columns cannot complete."""
    if not board.admits_full_placement():
        return
    n = board.n_cols
    heights = board.heights
    perm: list[int] = []
    used = [False] * (n + 1)

    def extend(col: int) -> Iterator[FullPlacement]:
        if col == n:
            yield FullPlacement(tuple(perm))
            return
        for row in range(1, heights[col] + 1):
            if not used[row]:
                used[row] = True
                perm.append(row)
                yield from extend(col + 1)
                perm.pop()
                used[row] = False

    yield from extend(0)


def rook_placements_by_recursion(board: Board) -> Iterator[Placement]:
    """Every rook placement: each column, left to right, is left empty and
    then given each free row up to its height, recursing once per column."""
    heights = board.heights
    markers: list[tuple[int, int]] = []
    used_rows: set[int] = set()

    def extend(col: int) -> Iterator[Placement]:
        if col == board.n_cols:
            yield Placement(frozenset(markers))
            return
        yield from extend(col + 1)  # column left empty
        for row in range(1, heights[col] + 1):
            if row not in used_rows:
                used_rows.add(row)
                markers.append((col + 1, row))
                yield from extend(col + 1)
                markers.pop()
                used_rows.remove(row)

    yield from extend(0)


def count_avoiders_by_filter(board: Board, pattern: Pattern) -> int:
    """Full placements avoiding the pattern, counted by testing every one of
    them (up to n! on an n-column board)."""
    return sum(1 for p in full_placements_by_backtracking(board) if avoids(board, p, pattern))


def compact_heights_by_count(board: Board, placement) -> tuple[int, ...]:
    """The column heights of a placement's compact board: for each occupied
    column, the occupied rows at most its height, counted one by one."""
    cols = sorted(c for c, _ in placement.markers)
    rows = [r for _, r in placement.markers]
    return tuple(sum(1 for r in rows if r <= board.heights[c - 1]) for c in cols)


def diagonal_pairs_by_scan(board: Board) -> tuple[tuple[int, int], ...]:
    """Every pair of border indices (i, j), i < j, tested for an in-board
    slope -1 segment square by square."""
    verts = board.border_path.vertices
    pairs = []
    for i, (x1, y1) in enumerate(verts):
        for j in range(i + 1, len(verts)):
            x2, y2 = verts[j]
            d = x2 - x1
            if d >= 1 and y1 - y2 == d and all(
                board.contains_square(x1 + k + 1, y1 - k) for k in range(d)
            ):
                pairs.append((i, j))
    return tuple(pairs)


def conjugate_by_rows(board: Board) -> Board:
    """The conjugate board, each row's length counted over every column."""
    return Board(tuple(sum(1 for h in board.heights if h >= y)
                       for y in range(1, board.n_rows + 1)))


def border_path_by_steps(board: Board) -> BorderPath:
    """The border path walked one step at a time from the top-left corner:
    right along a column's top, down otherwise, until (n_cols, 0)."""
    x, y = 0, board.n_rows
    vertices = [Vertex(x, y)]
    steps = []
    while (x, y) != (board.n_cols, 0):
        if x < board.n_cols and board.heights[x] == y:
            x += 1
            steps.append(RIGHT)
        else:
            y -= 1
            steps.append(DOWN)
        vertices.append(Vertex(x, y))
    return BorderPath(tuple(vertices), tuple(steps))


def profile_by_steps(board: Board) -> tuple[int, ...]:
    """The marker-count profile summed along ``border_path_by_steps``: 0 at
    the top-left corner, +1 per rightward step, -1 per downward step."""
    values = [0]
    for step in border_path_by_steps(board).steps:
        values.append(values[-1] + (1 if step == RIGHT else -1))
    return tuple(values)


def border_rules_by_path(board: Board) -> list[tuple[bool, int, int | None, bool]]:
    """The (rise, cap, left end, opens) of every border index, read off the
    vertices of ``border_path_by_steps``: a vertex pairs with the previous
    border vertex on its diagonal x + y when the square right of and below
    that vertex is on the board, and the cap is the profile value, or the
    vertex's y if less."""
    path = border_path_by_steps(board)
    profile = profile_by_steps(board)
    heights = board.heights
    left_ends: list[int | None] = [None] * len(profile)
    opens = [False] * len(profile)
    last_on: dict[int, int] = {}  # the last border index seen on each diagonal x + y
    for i, (x, y) in enumerate(path.vertices):
        k = last_on.get(x + y)
        if k is not None:
            kx, ky = path.vertices[k]
            if kx < board.n_cols and 1 <= ky <= heights[kx]:
                left_ends[i] = k
                opens[k] = True
        last_on[x + y] = i
    rises = [False] + [step == RIGHT for step in path.steps]
    caps = [p if p < y else y for p, (_, y) in zip(profile, path.vertices)]
    return list(zip(rises, caps, left_ends, opens))


def _allowed(rise: bool, cap: int, prev: int, left: int | None, diagonal_le: bool) -> range:
    """Values the 231- (``diagonal_le``) or 312-conditions allow at a border
    index, given its rise and cap, the value ``prev`` before it and the value
    ``left`` at the left end of the kept diagonal pair it closes (None if
    none): ``prev`` plus 0 or 1 after a rightward step, minus 0 or 1 after a
    downward one; within [0, cap]; not a second zero in a row; and at least
    (231) or at most (312) ``left``."""
    low, high = (prev, prev + 1) if rise else (prev - 1, prev)
    if not prev:
        low = 1
    if high > cap:
        high = cap
    if left is not None:
        if diagonal_le:
            low = max(low, left)
        else:
            high = min(high, left)
    return range(low, high + 1)


def border_sequences_by_search(board: Board, pattern: Pattern):
    """Border sequences within the marker-count profile that meet the 231- or
    312-conditions, lexicographically, by a depth-first search along the
    border that tries at index i every value ``_allowed`` gives after indices
    0..i-1 under the profile, dead ends included; a sequence is kept when its
    last value is 0."""
    diagonal_le = {PATTERN_231: True, PATTERN_312: False}[pattern]
    profile = profile_by_steps(board)
    if min(profile) < 0:  # no value fits below a negative cap
        return
    rules = border_rules_by_path(board)
    last = len(rules) - 1
    values = [0] * len(rules)

    def allowed(i: int) -> range:
        rise, _, left_end, _ = rules[i]
        left = None if left_end is None else values[left_end]
        return _allowed(rise, profile[i], values[i - 1], left, diagonal_le)

    # pending[i - 1] holds the values still to try at index i.
    pending = [iter(allowed(1))]
    while pending:
        i = len(pending)
        v = next(pending[-1], None)
        if v is None:
            pending.pop()
            continue
        values[i] = v
        if i < last:
            pending.append(iter(allowed(i + 1)))
        elif v == 0:
            yield tuple(values)


def rebuild_by_slicing(board: Board, seq: tuple[int, ...], pattern: Pattern) -> FullPlacement:
    """The avoider rebuilt from its border sequence, with no self-check, by
    building a new working sequence and a new list of heights for each
    column removed.  For 231 it works right to left: the right-hand column's
    marker sits in the highest row j where the values down its vertex line
    rise, and deleting that column and row leaves the prefix through the
    value left of the column top, that value repeated down to row j, then the
    line's values below j.  For 312 it rebuilds 231 on the conjugate board
    from the reversed sequence and reflects the result back."""
    if pattern == PATTERN_312:
        conj = board.conjugate()
        return inverse_placement(conj, rebuild_by_slicing(conj, tuple(reversed(seq)), PATTERN_231))
    heights = list(board.heights)
    work = list(seq)
    rows_alive = list(range(1, board.n_rows + 1))
    marker_rows: dict[int, int] = {}
    while heights:
        n = len(heights)
        r = heights[-1]
        if len(work) != n + heights[0] + 1 or len(rows_alive) != heights[0]:
            raise ReconstructionFailure("working sequence out of step with working board")
        tail = work[-(r + 1):]  # tail[i] = value at vertex (n, r - i)
        a_top = work[-(r + 2)]
        j = next((jj for jj in range(r, 0, -1) if tail[r - jj] > tail[r - jj + 1]), 0)
        if j == 0:
            raise ReconstructionFailure(f"no admissible marker row for column {n}")
        marker_rows[n] = rows_alive.pop(j - 1)
        new_heights = [h - 1 if h >= j else h for h in heights[:-1]]
        if any(h < 1 for h in new_heights):
            raise ReconstructionFailure("row deletion empties a column; sequence not realizable")
        new_tail = [a_top if y >= j else tail[r - y] for y in range(r - 2, -1, -1)]
        work = work[:-(r + 1)] + new_tail
        heights = new_heights
    if work != [0] or rows_alive:
        raise ReconstructionFailure("sequence does not reduce to the empty board")
    try:
        result = FullPlacement(tuple(marker_rows[c] for c in range(1, board.n_cols + 1)))
        result.validate_on(board)
    except InvalidPlacement as exc:
        raise ReconstructionFailure(str(exc)) from exc
    return result
