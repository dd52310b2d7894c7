"""Differential tests: each fast kernel against the slow scan it replaced."""

import os
import random
import subprocess
import sys
from itertools import combinations, permutations, product
from math import comb
from operator import le
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rookbij import enumeration
from rookbij.bijection import (
    _map_full,
    _raw_rebuild,
    _rebuild,
    alpha,
    alpha_general,
    beta,
    beta_general,
)
from rookbij.board import Board
from rookbij.conditions import check_231, check_312
from rookbij.enumeration import (
    _END,
    _border_rules,
    _sequence_walks,
    boards_within,
    check_board,
    count_avoiders,
    full_placement_count,
    full_placements,
    rook_placements,
    valid_sequences,
)
from rookbij.errors import ReconstructionFailure, RookbijError
from rookbij.placement import (
    PATTERN_231,
    PATTERN_312,
    FullPlacement,
    Pattern,
    Placement,
    _closes,
    avoids,
    inverse_placement,
    pattern_witness,
    s_sequence,
)
from oracles import (
    border_path_by_steps,
    border_rules_by_path,
    border_sequences_by_search,
    border_values,
    check_by_steps,
    check_l1_by_vertices,
    closes_by_scan,
    completable_rows_by_bounds,
    count_avoiders_by_filter,
    diagonal_pairs_by_scan,
    full_placements_by_backtracking,
    pattern_witness_by_scan,
    profile_by_steps,
    rebuild_by_slicing,
    rook_placements_by_recursion,
    s_sequence_by_columns,
)
from strategies import random_231_avoider, random_board_above

PATTERNS = [Pattern(word) for k in (1, 2, 3) for word in permutations(range(1, k + 1))]
PATTERNS.append(Pattern((2, 4, 1, 3)))


@pytest.fixture(scope="module")
def placements_within_4():
    return [(board, p) for board in boards_within(4) for p in rook_placements(board)]


def test_s_sequence_matches_grid_within_4(placements_within_4):
    for board, p in placements_within_4:
        assert s_sequence(board, p) == border_values(board, p), (board, p)


def test_patience_tails_match_column_sweep_on_the_1000_square():
    # the identity (one chain of 1000 tails), the reversal (one tail), a
    # seeded 231-avoider and a seeded partial placement of its markers
    board = Board((1000,) * 1000)
    rng = random.Random(25)
    avoider = FullPlacement(random_231_avoider(rng, list(range(1, 1001))))
    part = Placement(rng.sample(sorted(avoider.markers), 600))
    for p in (FullPlacement(range(1, 1001)), FullPlacement(range(1000, 0, -1)), avoider, part):
        assert s_sequence(board, p) == s_sequence_by_columns(board, p)


@pytest.mark.parametrize("seed", range(6))
def test_patience_tails_match_column_sweep_on_wide_boards(seed):
    # the boards and placements of test_reconstruct_round_trip_on_wide_boards:
    # a 231-avoider of 10-300 columns on a board drawn above it, its alpha
    # image, its reflection on the conjugate board and a partial placement
    rng = random.Random(seed)
    n = rng.randint(10, 300)
    p = FullPlacement(random_231_avoider(rng, list(range(1, n + 1))))
    board = random_board_above(rng, p.perm)
    part = Placement(rng.sample(sorted(p.markers), rng.randint(1, n)))
    conj = board.conjugate()
    for b, q in [(board, p), (board, alpha(board, p)), (board, part),
                 (conj, inverse_placement(board, p))]:
        assert s_sequence(b, q) == s_sequence_by_columns(b, q)


@pytest.mark.parametrize("pattern", [PATTERN_231, PATTERN_312], ids=str)
def test_checker_matches_step_walk_on_every_small_sequence_within_3(pattern):
    # the inputs of test_rebuild_matches_brute_force_on_every_small_sequence_within_3:
    # every report, kinds, indices, text and order, against the walk of the steps
    check = {PATTERN_231: check_231, PATTERN_312: check_312}[pattern]
    for board in boards_within(3):
        for s in product(range(-1, 3), repeat=board.n_cols + board.n_rows + 1):
            assert check(board, s) == check_by_steps(board, s, pattern), (board, s)


def test_passing_check_builds_no_border_path():
    # a passing check renders no vertex; a failing diagonal renders two
    board = Board((3, 3, 3))
    assert check_231(board, (0, 1, 1, 2, 2, 1, 0)).verdict
    assert "border_path" not in board.__dict__
    assert check_312(board, (0, 1, 1, 2, 2, 1, 0)).lines() == ["DIAGONAL at (2,3)>(3,2)"]
    assert "border_path" in board.__dict__


def test_l1_matches_vertex_walk_under_every_planted_profile_fault_within_4():
    # each profile entry off by one either way, on a fresh board each time:
    # every full placement fails at that vertex, in the same words and order
    for board in boards_within(4, full_only=True):
        profile = board.marker_count_profile
        for index in range(len(profile)):
            for delta in (-1, 1):
                planted = list(profile)
                planted[index] += delta
                on = Board(board.heights)
                on.__dict__["marker_count_profile"] = tuple(planted)  # the cached_property's slot
                failures = check_board(on, "l1")
                assert failures and failures == check_l1_by_vertices(on), (board, index, delta)


def test_l1_failure_text():
    board = Board((2, 2))
    board.__dict__["marker_count_profile"] = (0, 1, 2, 2, 0)  # (2,1) holds 1 marker, not 2
    assert [f.witness for f in check_board(board, "l1")] == [
        "placement 12 has 1 markers in R((2,1)), profile says 2",
        "placement 21 has 1 markers in R((2,1)), profile says 2",
    ]


def test_passing_l1_builds_no_border_path():
    board = Board((4, 4, 3, 2))
    assert check_board(board, "l1") == []
    assert "border_path" not in board.__dict__


@pytest.mark.parametrize("pattern", PATTERNS, ids=str)
def test_pattern_witness_matches_scan_within_4(placements_within_4, pattern):
    for board, p in placements_within_4:
        assert pattern_witness(board, p, pattern) == \
            pattern_witness_by_scan(board, p, pattern), (board, p)


@pytest.mark.parametrize("pattern", [PATTERN_231, PATTERN_312], ids=str)
def test_length_3_witness_matches_scan_within_5(pattern):
    # the first-marker scan of 231 and 312 on every rook placement within 5x5
    cases = 0
    for board in boards_within(5):
        for p in rook_placements(board):
            cases += 1
            assert pattern_witness(board, p, pattern) == \
                pattern_witness_by_scan(board, p, pattern), (board, p)
    assert cases == 45_296


def test_closes_matches_scan_on_prefixes_within_5():
    # each marker of every full placement within 5x5, against the markers
    # before it
    cases = 0
    for board in boards_within(5, full_only=True):
        for p in full_placements(board):
            for k, row in enumerate(p.perm):
                cases += 1
                rows = list(p.perm[:k])
                assert _closes(rows, row, board.heights[k]) == \
                    closes_by_scan(rows, row, board.heights[k]), (board, p, k)
    assert cases == 5_197


def test_tested_placements_match_the_avoids_filter_within_6():
    # The t-sweeps' flagged loop against ``full_placements`` and the public
    # check, lists in order: the split of every full placement that t4 and
    # remark take, and the pruned lists of t1 and t2, which leave out the
    # placements holding both patterns.  The loop's own flags, with and
    # without pruning, are the public check's.
    for board in boards_within(6, full_only=True):
        fulls = list(full_placements(board))
        holds = [(p, not avoids(board, p, PATTERN_231), not avoids(board, p, PATTERN_312))
                 for p in fulls]
        expected = {PATTERN_231: [p for p, has_231, _ in holds if not has_231],
                    PATTERN_312: [p for p, _, has_312 in holds if not has_312]}
        assert list(enumeration._filled(board, True, False)) == holds, board
        assert list(enumeration._filled(board, True, True)) == \
            [h for h in holds if not (h[1] and h[2])], board
        assert enumeration._split(enumeration._filled(board, True, False)) == \
            (fulls, expected), board
        either = set(expected[PATTERN_231]) | set(expected[PATTERN_312])
        assert enumeration._split(enumeration._filled(board, True, True)) == \
            ([p for p in fulls if p in either], expected), board


@st.composite
def wide_rook_placements(draw, max_cols: int = 24):
    heights = draw(st.lists(st.integers(1, max_cols), min_size=10, max_size=max_cols))
    board = Board(tuple(sorted(heights, reverse=True)))
    markers = set()
    free_rows = set(range(1, board.n_rows + 1))
    for col, height in enumerate(board.heights, start=1):
        rows = sorted(r for r in free_rows if r <= height)
        if rows and draw(st.booleans()):
            row = draw(st.sampled_from(rows))
            free_rows.remove(row)
            markers.add((col, row))
    return board, Placement(frozenset(markers))


@given(wide_rook_placements(), st.sampled_from(PATTERNS))
def test_fast_paths_match_on_wide_boards(pair, pattern):
    board, p = pair
    assert s_sequence(board, p) == border_values(board, p)
    assert pattern_witness(board, p, pattern) == pattern_witness_by_scan(board, p, pattern)


@st.composite
def near_decreasing_rook_placements(draw):
    # Decreasing rows avoid 231 and 312.  A few swaps of two rows plant
    # witnesses anywhere, late ones too, or none at all.
    board, p = draw(wide_rook_placements(40))
    cols = sorted(c for c, _ in p.markers)
    # the i-th tallest occupied column is at least the i-th largest row tall
    rows = sorted((r for _, r in p.markers), reverse=True)
    if len(rows) > 1:
        for _ in range(draw(st.integers(0, 3))):
            i, j = (draw(st.integers(0, len(rows) - 1)) for _ in range(2))
            if rows[i] <= board.heights[cols[j] - 1] and rows[j] <= board.heights[cols[i] - 1]:
                rows[i], rows[j] = rows[j], rows[i]
    return board, Placement(frozenset(zip(cols, rows)))


@given(st.one_of(wide_rook_placements(40), near_decreasing_rook_placements()),
       st.sampled_from([PATTERN_231, PATTERN_312]))
def test_length_3_witness_matches_scan_on_boards_to_40_columns(pair, pattern):
    board, p = pair
    assert pattern_witness(board, p, pattern) == pattern_witness_by_scan(board, p, pattern)


def test_diagonal_pairs_match_scan_within_7():
    for board in boards_within(7):
        assert board.diagonal_pairs == diagonal_pairs_by_scan(board), board


@pytest.mark.parametrize("pattern", [PATTERN_231, PATTERN_312], ids=str)
def test_sequence_count_matches_filter_within_6(pattern):
    # every board, also those with no full placement, where both give 0
    boards = list(boards_within(6))
    assert len(boards) == 923
    for board in boards:
        assert count_avoiders(board, pattern) == count_avoiders_by_filter(board, pattern), board
    assert count_avoiders(Board((8,) * 8), pattern) == 1430


def test_border_geometry_matches_step_walk_within_8():
    # every board, also those with no full placement and a negative profile
    boards = list(boards_within(8))
    assert len(boards) == 12869
    assert sum(not b.admits_full_placement() for b in boards) == 10814
    for board in boards:
        assert board.border_path == border_path_by_steps(board), board
        assert board.marker_count_profile == profile_by_steps(board), board
        assert _border_rules(board) == border_rules_by_path(board), board


def _deepest_nesting(rules) -> int:
    """The most kept diagonal pairs open at once along the border."""
    depth = deepest = 0
    for _, _, left_end, opens in rules:
        depth += opens - (left_end is not None)
        deepest = max(deepest, depth)
    return deepest


@pytest.mark.parametrize("seed", range(6))
def test_border_rules_match_step_walk_on_wide_boards(seed):
    # Within 8x8 the rule pass's stack holds at most 8 open pairs.  A full
    # board of 20-1000 columns drawn above a random 231-avoider holds far
    # more; with a column added or its last column cut it has no full
    # placement, and neither has a partition of as many random heights.
    # The one-pass profile, negative entries included, is held to the walk too.
    rng = random.Random(seed)
    n = rng.randint(20, 1000)
    full = random_board_above(rng, random_231_avoider(rng, list(range(1, n + 1))))
    top = rng.randint(20, 1000)
    others = [Board(full.heights + (1,)), Board(full.heights[:-1]),
              Board(tuple(sorted(rng.choices(range(1, top + 1), k=n), reverse=True)))]
    assert full.admits_full_placement()
    assert not any(board.admits_full_placement() for board in others)
    for board in [full, *others]:
        assert _border_rules(board) == border_rules_by_path(board), board
        assert board.marker_count_profile == profile_by_steps(board), board
    assert _deepest_nesting(_border_rules(full)) > 8
    assert min(others[1].marker_count_profile) < 0


def test_border_rules_nest_a_pair_per_column_on_the_1000_square():
    board = Board((1000,) * 1000)
    rules = _border_rules(board)
    assert rules == border_rules_by_path(board)
    assert _deepest_nesting(rules) == 1000


def test_kept_diagonal_pairs_nest_and_imply_every_pair_within_8():
    for board in boards_within(8):
        rules = _border_rules(board)
        kept = [(k, i) for i, (_, _, k, _) in enumerate(rules) if k is not None]
        # the first pair of each left end, in the scan's order
        first = {}
        for i, j in board.diagonal_pairs:
            first.setdefault(i, j)
        assert sorted(kept) == sorted(first.items()), board
        assert [i for i, (_, _, _, opens) in enumerate(rules) if opens] == sorted(first), board
        # brackets: never k1 < k2 < j1 < j2
        for k1, j1 in kept:
            for k2, j2 in kept:
                assert not k1 < k2 < j1 < j2, (board, (k1, j1), (k2, j2))
        # every pair (i, j) is a chain of kept pairs, so it follows by transitivity
        for i, j in board.diagonal_pairs:
            while i < j:
                i = first[i]
            assert i == j, board


def test_sequence_walk_matches_listing_within_8():
    # every board whose profile is nonnegative; the others give nothing on both
    boards = [b for b in boards_within(8) if min(b.marker_count_profile) >= 0]
    assert len(boards) == 4861
    for board in boards:
        for pattern in (PATTERN_231, PATTERN_312):
            listed = list(border_sequences_by_search(board, pattern))
            assert list(valid_sequences(board, pattern)) == listed, (board, pattern)
            assert _sequence_walks(board, pattern).get(_END, 0) == len(listed), (board, pattern)


@pytest.mark.parametrize("heights", [(1,) * 25, (5,) * 5 + (1,) * 20], ids=str)
def test_sequence_walk_lists_wide_boards_within_a_small_walk(monkeypatch, heights):
    # A depth-first listing tries millions of dead-end prefixes here (the
    # oracle takes 35-100 s on the full width); the walk keeps a few hundred
    # states, so it answers under a small limit.
    monkeypatch.setattr(enumeration, "MAX_WALK_SHAPES", 1000)
    board, narrow = Board(heights), Board(heights[:16])
    # no 231 sequence ends at 0
    assert list(valid_sequences(board, PATTERN_231)) == []
    assert list(border_sequences_by_search(narrow, PATTERN_231)) == []
    # 9 more one-row columns lengthen the last run of 1s of each 312 sequence
    listed = list(border_sequences_by_search(narrow, PATTERN_312))
    assert listed
    assert list(valid_sequences(board, PATTERN_312)) == \
        [seq[:-1] + (1,) * 9 + (0,) for seq in listed]


def test_sequence_walk_answers_one_row_boards_of_any_width():
    # A value above the downward steps left is dropped from the walk: the
    # board's single downward step caps every value before it at 1.
    for width in (400, 500, 1000):
        board = Board((1,) * width)
        assert list(valid_sequences(board, PATTERN_231)) == [], width
        assert list(valid_sequences(board, PATTERN_312)) == \
            [(0,) + (1,) * width + (0,)], width


def test_full_placements_match_backtracking_within_7():
    for board in boards_within(7):
        assert list(full_placements(board)) == \
            list(full_placements_by_backtracking(board)), board


def _hall_free_rows(heights: tuple[int, ...]):
    # Every m-set of rows meeting Hall's condition for the last m columns,
    # its i-th smallest at most the i-th shortest of them, as the
    # generator's free rows before column n - m + 1 always do.
    n = len(heights)
    for m in range(1, n + 1):
        for free in combinations(range(1, n + 1), m):
            if all(map(le, free, heights[::-1])):
                yield list(free)


def test_completable_rows_match_every_hall_bound_within_6():
    for board in boards_within(6, full_only=True):
        for free in _hall_free_rows(board.heights):
            assert enumeration._completable_rows(board.heights, free) == \
                completable_rows_by_bounds(board.heights, free), (board, free)


def test_full_placements_are_the_permutations_under_the_heights_within_6():
    for board in boards_within(6, full_only=True):
        fitting = [FullPlacement(perm) for perm in permutations(range(1, board.n_cols + 1))
                   if all(map(le, perm, board.heights))]
        assert list(full_placements(board)) == fitting, board


def test_rook_placements_match_recursion_within_5():
    for board in boards_within(5):
        assert list(rook_placements(board)) == list(rook_placements_by_recursion(board)), board


def test_rook_placements_on_a_wide_row_answer_in_a_capped_child():
    # One row: each marker leaves no free row for the columns after it, so
    # each placement is yielded without walking them.  A generator that
    # walked them would take minutes at 20,000 columns, not a fraction of a
    # second.
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    code = ("from rookbij.board import Board\n"
            "from rookbij.enumeration import rook_placements\n"
            "for width in (1000, 20000):\n"
            "    print(sum(1 for _ in rook_placements(Board((1,) * width))))\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=10, env=env)
    assert (done.returncode, done.stdout, done.stderr) == (0, "1001\n20001\n", "")


def test_rook_placements_reach_past_the_recursion_limit():
    # one row of 1000 columns: empty, or one marker in any column
    assert sum(1 for _ in rook_placements(Board((1,) * 1000))) == 1001


@pytest.mark.parametrize("pattern", [PATTERN_231, PATTERN_312], ids=str)
def test_sequence_walk_counts_catalan_on_squares_to_15(pattern):
    for n in range(1, 16):
        assert count_avoiders(Board((n,) * n), pattern) == comb(2 * n, n) // (n + 1), n


@pytest.mark.parametrize("pattern", [PATTERN_231, PATTERN_312], ids=str)
def test_sequence_walk_lists_catalan_on_squares_to_10(pattern):
    for n in range(1, 11):
        assert sum(1 for _ in valid_sequences(Board((n,) * n), pattern)) == \
            comb(2 * n, n) // (n + 1), n


@pytest.mark.parametrize("word", ["1", "12", "21", "123", "321", "1234", "4321", "12345",
                                  "54321"])
def test_shape_walk_matches_filter_within_6(word):
    # every board, also those with no full placement, where both give 0
    pattern = Pattern.parse(word)
    for board in boards_within(6):
        assert count_avoiders(board, pattern) == count_avoiders_by_filter(board, pattern), board


def test_shape_walk_counts_every_placement_for_long_patterns_within_7():
    # a pattern longer than the board leaves every shape on the walk, so the
    # walks are all full placements: the product formula
    for board in boards_within(7):
        k = board.n_cols + 1
        for word in (tuple(range(1, k + 1)), tuple(range(k, 0, -1))):
            assert count_avoiders(board, Pattern(word)) == full_placement_count(board), board


@pytest.mark.parametrize("forward,backward,pattern,n,placements", [
    (alpha, beta, PATTERN_231, 5, full_placements),
    (beta, alpha, PATTERN_312, 5, full_placements),
    (alpha_general, beta_general, PATTERN_231, 4, rook_placements),
    (beta_general, alpha_general, PATTERN_312, 4, rook_placements),
], ids=["alpha", "beta", "alpha_general", "beta_general"])
def test_maps_on_reused_board_match_fresh_board(forward, backward, pattern, n, placements):
    # Two passes on one reused board, each image equal to the one a fresh
    # board computes.  The second pass repeats every input, and so does each
    # backward map of an image the board has already mapped.
    for board in boards_within(n):
        for _ in range(2):
            for p in placements(board):
                if not avoids(board, p, pattern):
                    continue
                q = forward(board, p)
                assert q == forward(Board(board.heights), p), (board, p)
                assert backward(board, q) == backward(Board(board.heights), q) == p, (board, q)


def test_unchecked_maps_on_reused_board_match_fresh_board_within_5():
    # Unchecked, the core of alpha and beta takes any full placement to an
    # image or an error; as a pure function of (board, direction, placement),
    # a reused board agrees.
    def outcome(board, p, avoided):
        try:
            return _map_full(board, p, avoided)
        except RookbijError as exc:
            return repr(exc)

    for board in boards_within(5, full_only=True):
        for _ in range(2):
            for p in full_placements(board):
                for avoided in (PATTERN_231, PATTERN_312):
                    assert outcome(board, p, avoided) == \
                        outcome(Board(board.heights), p, avoided), (board, p)


def _avoiders_by_sequence(board, pattern):
    """Brute force: the board's full avoiders of ``pattern`` by border sequence."""
    return {s_sequence(board, p): p for p in full_placements(board) if avoids(board, p, pattern)}


def _assert_rebuilds_by_brute_force(board, seq, pattern, avoiders):
    # On a fresh board, so no memo of an earlier case answers the self-check.
    try:
        result = _rebuild(Board(board.heights), seq, pattern)
    except ReconstructionFailure:
        assert seq not in avoiders, (board, seq)
    else:
        assert result == avoiders.get(seq), (board, seq)


@pytest.mark.parametrize("pattern", [PATTERN_231, PATTERN_312], ids=str)
def test_rebuild_in_place_matches_slicing_within_5(pattern):
    # Every accepted sequence of every square-bounded board rebuilds, unchecked,
    # to the slicing oracle's placement; with every sequence one value off one
    # of them, the self-checked rebuild gives the avoider of that sequence, or
    # fails exactly when there is none.
    cases = 0
    for board in boards_within(5, square_bounded_only=True):
        avoiders = _avoiders_by_sequence(board, pattern)
        for seq in valid_sequences(board, pattern):
            assert _raw_rebuild(board, seq, pattern) == \
                rebuild_by_slicing(board, seq, pattern), (board, seq)
            nearby = [seq[:i] + (v + d,) + seq[i + 1:] for i, v in enumerate(seq) for d in (-1, 1)]
            for s in [seq, *nearby]:
                cases += 1
                _assert_rebuilds_by_brute_force(board, s, pattern, avoiders)
    assert cases > 10_000


@pytest.mark.parametrize("pattern", [PATTERN_231, PATTERN_312], ids=str)
def test_rebuild_matches_brute_force_on_every_small_sequence_within_3(pattern):
    # Every sequence of values -1..2 on every board within 3x3, square-bounded
    # or not, reaches the failure branches the accepted sequences miss.
    for board in boards_within(3):
        avoiders = _avoiders_by_sequence(board, pattern)
        for s in product(range(-1, 3), repeat=board.n_cols + board.n_rows + 1):
            _assert_rebuilds_by_brute_force(board, s, pattern, avoiders)
