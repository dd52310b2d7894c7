"""Exhaustive generators and verification sweeps.

All streams are deterministic: placements and sequences come out in
lexicographic order and board sweeps in (column count, heights) order, so
sweep reports are reproducible regardless of parallelism.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from time import perf_counter
from typing import Iterable, Iterator

from .bijection import _side, alpha, alpha_general, beta, beta_general, plus_transform
from .board import RIGHT, Board
from .conditions import format_sequence
from .errors import RookbijError
from .placement import (
    PATTERN_231,
    PATTERN_312,
    FullPlacement,
    Pattern,
    Placement,
    avoids,
    format_placement,
    s_sequence,
)

THEOREM_TAGS = ("l1", "t1", "t2", "t4", "remark")

# Sweep sizes chosen so a full run stays within a few seconds single-threaded.
DEFAULT_BOUNDS = {"l1": 5, "t1": 5, "t2": 5, "t4": 5, "remark": 4}


def full_placements(board: Board) -> Iterator[FullPlacement]:
    """Every full rook placement on the board, lexicographic by permutation."""
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


def count_avoiders(board: Board, pattern: Pattern) -> int:
    """Number of full placements avoiding the pattern."""
    return sum(1 for p in full_placements(board) if avoids(board, p, pattern))


def rook_placements(board: Board) -> Iterator[Placement]:
    """Every (possibly partial, possibly empty) rook placement, each exactly once."""
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


def boards_within(n: int, square_bounded_only: bool = False,
                  full_only: bool = False) -> Iterator[Board]:
    """All Ferrers boards fitting in an n-by-n box, by column count then heights."""
    if n < 1:
        raise ValueError("n must be at least 1")

    def heights_of(length: int, cap: int, prefix: list[int]) -> Iterator[tuple[int, ...]]:
        if len(prefix) == length:
            yield tuple(prefix)
            return
        for h in range(1, cap + 1):
            prefix.append(h)
            yield from heights_of(length, h, prefix)
            prefix.pop()

    for n_cols in range(1, n + 1):
        for heights in heights_of(n_cols, n, []):
            board = Board(heights)
            if square_bounded_only and not board.square_bounded():
                continue
            if full_only and not board.admits_full_placement():
                continue
            yield board


def valid_sequences(board: Board, pattern: Pattern) -> Iterator[tuple[int, ...]]:
    """Border sequences passing the 231- or 312-conditions, lexicographically.

    Depth-first extension along the border with monotonicity pruning (step 0
    or +1 rightward, 0 or -1 downward) and values capped by the marker-count
    profile, then full checker filtering.  On square-bounded boards this is
    exactly the set of checker-passing sequences.
    """
    checker = _side(pattern).check
    profile = board.marker_count_profile
    steps = board.border_path.steps
    m = len(profile)
    values = [0]

    def extend(i: int) -> Iterator[tuple[int, ...]]:
        if i == m:
            if values[-1] == 0 and checker(board, tuple(values)).verdict:
                yield tuple(values)
            return
        prev = values[-1]
        candidates = (prev, prev + 1) if steps[i - 1] == RIGHT else (prev - 1, prev)
        for v in candidates:
            if 0 <= v <= profile[i] and not (v == 0 == prev):
                values.append(v)
                yield from extend(i + 1)
                values.pop()

    if profile[0] != 0:
        return
    yield from extend(1)


@dataclass(frozen=True)
class Failure:
    board: Board
    theorem: str
    witness: str


@dataclass(frozen=True)
class SweepReport:
    boards_checked: int
    failures: tuple[Failure, ...]
    elapsed: float

    @property
    def passed(self) -> bool:
        return not self.failures


def _check_l1(board: Board) -> list[Failure]:
    # Marker counts in R(V) must match the placement-independent profile.
    failures = []
    profile = board.marker_count_profile
    verts = board.border_path.vertices
    for p in full_placements(board):
        for idx, v in enumerate(verts):
            count = sum(1 for c, r in p.markers if c <= v.x and r <= v.y)
            if count != profile[idx]:
                failures.append(Failure(
                    board, "l1",
                    f"placement {format_placement(p)} has {count} markers in "
                    f"R(({v.x},{v.y})), profile says {profile[idx]}"))
    return failures


def _avoiders(board: Board) -> dict[Pattern, list[FullPlacement]]:
    out: dict[Pattern, list[FullPlacement]] = {PATTERN_231: [], PATTERN_312: []}
    for p in full_placements(board):
        for pattern in (PATTERN_231, PATTERN_312):
            if avoids(board, p, pattern):
                out[pattern].append(p)
    return out


def _check_t1(board: Board) -> list[Failure]:
    # The border sequence determines the avoiding placement, and the
    # reconstruction inverts the sequence map.
    failures = []
    for pattern, avoiders in _avoiders(board).items():
        seen: dict[tuple[int, ...], FullPlacement] = {}
        for p in avoiders:
            seq = s_sequence(board, p)
            if seq in seen:
                failures.append(Failure(
                    board, "t1",
                    f"placements {format_placement(seen[seq])} and {format_placement(p)} "
                    f"({pattern}-avoiding) share sequence {format_sequence(seq)}"))
                continue
            seen[seq] = p
            try:
                rebuilt = _side(pattern).reconstruct(board, seq, check=False, verify=False)
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
    avoiders = _avoiders(board)
    for pattern in (PATTERN_231, PATTERN_312):
        realized = {s_sequence(board, p) for p in avoiders[pattern]}
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


def _check_t4(board: Board) -> list[Failure]:
    # alpha and beta are mutually inverse bijections between the avoider sets,
    # and plus_transform is an involution on realized sequences.
    failures = []
    avoiders = _avoiders(board)
    images = []
    for p in avoiders[PATTERN_231]:
        try:
            q = alpha(board, p, check=False)
            back = beta(board, q, check=False)
        except RookbijError as exc:
            failures.append(Failure(
                board, "t4", f"alpha/beta failed on {format_placement(p)}: {exc}"))
            continue
        images.append(q)
        if not avoids(board, q, PATTERN_312):
            failures.append(Failure(
                board, "t4", f"alpha({format_placement(p)}) = {format_placement(q)} contains 312"))
        if back != p:
            failures.append(Failure(
                board, "t4",
                f"beta(alpha({format_placement(p)})) = {format_placement(back)}"))
    if sorted(p.perm for p in images) != sorted(p.perm for p in avoiders[PATTERN_312]):
        failures.append(Failure(
            board, "t4",
            f"alpha image {{{','.join(format_placement(p) for p in images)}}} is not the "
            f"312-avoider set"))
    for q in avoiders[PATTERN_312]:
        try:
            p = beta(board, q, check=False)
            if alpha(board, p, check=False) != q:
                failures.append(Failure(
                    board, "t4", f"alpha(beta({format_placement(q)})) differs from the input"))
        except RookbijError as exc:
            failures.append(Failure(
                board, "t4", f"beta/alpha failed on {format_placement(q)}: {exc}"))
    for p in full_placements(board):
        seq = s_sequence(board, p)
        if plus_transform(board, plus_transform(board, seq)) != seq:
            failures.append(Failure(
                board, "t4", f"plus_transform not involutive on {format_sequence(seq)}"))
    return failures


def _check_remark(board: Board) -> list[Failure]:
    # Partial placements: 231- and 312-avoider counts agree, and
    # alpha_general/beta_general are inverse bijections on every compaction
    # class (same occupied rows and columns).
    failures = []
    avoiders_231: dict[tuple, list[Placement]] = {}
    avoiders_312: dict[tuple, set[frozenset]] = {}
    n_231 = n_312 = 0
    for p in rook_placements(board):
        key = (tuple(sorted(c for c, _ in p.markers)), tuple(sorted(r for _, r in p.markers)))
        if avoids(board, p, PATTERN_231):
            n_231 += 1
            avoiders_231.setdefault(key, []).append(p)
        if avoids(board, p, PATTERN_312):
            n_312 += 1
            avoiders_312.setdefault(key, set()).add(p.markers)
    if n_231 != n_312:
        failures.append(Failure(
            board, "remark", f"{n_231} placements avoid 231 but {n_312} avoid 312"))
    for key, members in avoiders_231.items():
        image_markers = set()
        for p in members:
            try:
                q = alpha_general(board, p, check=False)
                back = beta_general(board, q, check=False)
            except RookbijError as exc:
                failures.append(Failure(
                    board, "remark", f"alpha_general failed on {format_placement(p)}: {exc}"))
                continue
            qkey = (tuple(sorted(c for c, _ in q.markers)), tuple(sorted(r for _, r in q.markers)))
            if qkey != key:
                failures.append(Failure(
                    board, "remark",
                    f"alpha_general moved {format_placement(p)} to different rows/columns"))
            if back.markers != p.markers:
                failures.append(Failure(
                    board, "remark",
                    f"beta_general(alpha_general({format_placement(p)})) differs from the input"))
            image_markers.add(q.markers)
        if image_markers != avoiders_312.get(key, set()):
            failures.append(Failure(
                board, "remark",
                f"class cols={key[0]} rows={key[1]}: alpha_general image does not match "
                f"the 312-avoiders"))
    return failures


_CHECKS = {
    "l1": _check_l1,
    "t1": _check_t1,
    "t2": _check_t2,
    "t4": _check_t4,
    "remark": _check_remark,
}


def check_board(board: Board, theorem: str) -> list[Failure]:
    """Run one verification check on one board; failures are data, not errors."""
    return _CHECKS[theorem](board)


def _board_failures(board: Board, tags: tuple[str, ...]) -> list[Failure]:
    out: list[Failure] = []
    for tag in tags:
        out.extend(check_board(board, tag))
    return out


def default_sweep(theorem: str, max_n: int | None = None) -> list[Board]:
    """The default board sweep for one verification tag."""
    n = max_n if max_n is not None else DEFAULT_BOUNDS[theorem]
    if theorem in ("t1", "t2", "t4"):
        return list(boards_within(n, square_bounded_only=True))
    return list(boards_within(n))


def verify(boards: Board | Iterable[Board], theorem: str = "all",
           parallel: int = 1) -> SweepReport:
    """Run verification sweeps; any counterexample is reported verbatim.

    ``boards`` may be a single board or an iterable; ``theorem`` is one of
    the tags in THEOREM_TAGS or "all".  ``parallel`` worker processes are
    started, at most one per board and per CPU.  Reports are merged in board
    order, so output does not depend on ``parallel``.
    """
    if isinstance(boards, Board):
        boards = [boards]
    boards = list(boards)
    if theorem == "all":
        tags = THEOREM_TAGS
    elif theorem in THEOREM_TAGS:
        tags = (theorem,)
    else:
        raise ValueError(f"unknown theorem tag {theorem!r}")
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
