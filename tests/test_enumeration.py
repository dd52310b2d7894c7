import concurrent.futures
import gc
from collections import Counter
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given

from rookbij import bijection, cli, enumeration
from rookbij.bijection import expand
from rookbij.board import Board
from rookbij.conditions import format_sequence
from rookbij.enumeration import (
    boards_within,
    check_board,
    count_avoiders,
    default_sweep,
    full_placement_count,
    full_placements,
    rook_placements,
    valid_sequences,
    verify,
)
from rookbij.errors import ParseError, ReconstructionFailure
from rookbij.placement import (
    PATTERN_231,
    PATTERN_312,
    FullPlacement,
    Pattern,
    Placement,
    avoids,
    format_placement,
    pattern_witness,
    s_sequence,
)
from oracles import count_avoiders_by_filter, lis_in_rectangle
from strategies import boards


@pytest.mark.parametrize("heights,count", [
    ((2, 2), 2),
    ((3, 2, 1), 1),
    ((3, 1, 1), 0),
    ((3, 3, 3), 6),
    ((4, 2, 2, 1), 0),
])
def test_full_placement_counts(heights, count):
    assert sum(1 for _ in full_placements(Board(heights))) == count


def test_full_placement_count_matches_enumeration_within_5():
    for board in boards_within(5):
        assert full_placement_count(board) == sum(1 for _ in full_placements(board)), board


def test_full_placements_lexicographic_and_unique():
    perms = [p.perm for p in full_placements(Board((3, 3, 2)))]
    assert perms == sorted(perms)
    assert len(perms) == len(set(perms))
    assert all(r <= h for p in perms for r, h in zip(p, (3, 3, 2)))


@pytest.mark.parametrize("heights,pattern,count", [
    ((3, 3, 3), "231", 5),
    ((3, 3, 3), "312", 5),
    ((4, 4, 4, 4), "231", 14),
    ((4, 4, 4, 4), "321", 14),  # plain Wilf-equivalence on the square board
])
def test_count_avoiders(heights, pattern, count):
    assert count_avoiders(Board(heights), Pattern.parse(pattern)) == count


def test_count_budgets_stop_the_sequence_search_and_the_shape_walk(monkeypatch):
    # 1430 avoiders each on 8x8; the budget is read at call time.  The count
    # and the listing walk the same fewer than 1000 border states there.
    monkeypatch.setattr(enumeration, "MAX_WALK_SHAPES", 1000)
    assert count_avoiders(Board((8,) * 8), PATTERN_312) == 1430
    assert sum(1 for _ in valid_sequences(Board((8,) * 8), PATTERN_231)) == 1430
    monkeypatch.setattr(enumeration, "MAX_WALK_SHAPES", 400)
    with pytest.raises(ParseError, match="walks at most 400 border states"):
        count_avoiders(Board((8,) * 8), PATTERN_312)
    with pytest.raises(ParseError, match="walks at most 400 border states"):
        list(valid_sequences(Board((8,) * 8), PATTERN_231))
    monkeypatch.setattr(enumeration, "MAX_WALK_SHAPES", 100_000)
    assert count_avoiders(Board((6,) * 6), Pattern.parse("321")) == 132
    monkeypatch.setattr(enumeration, "MAX_WALK_SHAPES", 10)
    with pytest.raises(ParseError, match="walks at most 10 shapes"):
        count_avoiders(Board((6,) * 6), Pattern.parse("321"))


def _brute_rook_count(board):
    squares = [(c, r) for c in range(1, board.n_cols + 1)
               for r in range(1, board.heights[c - 1] + 1)]
    total = 0
    for k in range(len(squares) + 1):
        for subset in combinations(squares, k):
            cols = [c for c, _ in subset]
            rows = [r for _, r in subset]
            if len(set(cols)) == k and len(set(rows)) == k:
                total += 1
    return total


@pytest.mark.parametrize("heights,count", [
    ((1,), 2),
    ((2, 2), 7),
    ((2, 1), 5),
])
def test_rook_placement_counts(heights, count):
    board = Board(heights)
    placements = list(rook_placements(board))
    assert len(placements) == count
    assert len({p.markers for p in placements}) == count
    assert _brute_rook_count(board) == count


@given(boards(max_n=3))
def test_rook_placements_match_subset_oracle(board):
    assert sum(1 for _ in rook_placements(board)) == _brute_rook_count(board)


def test_boards_within_order_and_filters():
    assert [b.heights for b in boards_within(2)] == [
        (1,), (2,), (1, 1), (2, 1), (2, 2)]
    assert [b.heights for b in boards_within(2, full_only=True)] == [
        (1,), (2, 1), (2, 2)]
    assert [b.heights for b in boards_within(1)] == [(1,)]
    assert [b.heights for b in boards_within(2, square_bounded_only=True)] == [
        (1,), (2, 1), (2, 2)]


def test_boards_within_counts():
    # nonempty partitions in an n-by-n box
    assert sum(1 for _ in boards_within(4)) == 69
    assert sum(1 for _ in boards_within(6)) == 923


def test_valid_sequences_examples():
    assert sorted(valid_sequences(Board((2, 2)), PATTERN_231)) == [
        (0, 1, 1, 1, 0), (0, 1, 2, 1, 0)]
    assert list(valid_sequences(Board((3, 1, 1)), PATTERN_231)) == []
    assert list(valid_sequences(Board((2, 1)), PATTERN_231)) == [(0, 1, 0, 1, 0)]
    assert list(valid_sequences(Board((2, 1)), PATTERN_312)) == [(0, 1, 0, 1, 0)]


def test_valid_sequences_rejects_a_pattern_without_conditions():
    with pytest.raises(ValueError, match="^no condition checker for pattern 123$"):
        list(valid_sequences(Board((2, 1)), Pattern((1, 2, 3))))


def test_valid_sequences_match_avoiders():
    for heights in [(2, 2), (3, 3, 2), (3, 3, 3), (4, 4, 3, 2)]:
        board = Board(heights)
        for pattern in (PATTERN_231, PATTERN_312):
            realized = {s_sequence(board, p) for p in full_placements(board)
                        if avoids(board, p, pattern)}
            assert set(valid_sequences(board, pattern)) == realized


def test_sweep_avoiders_match_public_avoids_within_5():
    # Remark tests each class's placements unchecked, expanded onto the
    # board; the lists, in order, are those of the public check on the
    # expanded placements, for every class within 5x5.  (The t-sweeps' split
    # of the full placements within 6x6 is held against the public check by
    # test_tested_placements_match_the_avoids_filter_within_6.)
    for board in boards_within(5):
        for context in enumeration._compaction_classes(board):
            fulls = list(full_placements(context.compact_board))
            found = enumeration._split(enumeration._class_flags(board, fulls, context))[1]
            for pattern in (PATTERN_231, PATTERN_312):
                assert found[pattern] == [p for p in fulls
                                          if avoids(board, expand(context, p), pattern)], board


def test_compaction_classes_split_the_rook_placements_within_5():
    # The remark sweep's classes, in (size, columns, rows) order, each
    # expanded through its compact board's full placements, give every
    # nonempty rook placement exactly once; and the avoiders among them,
    # tested expanded onto the board, are as many as among the rook
    # placements, the empty placement counted apart.
    for board in boards_within(5):
        keys, expanded = [], [frozenset()]
        counts = [1, 1]
        for context in enumeration._compaction_classes(board):
            keys.append((len(context.occupied_cols), context.occupied_cols,
                         context.occupied_rows))
            fulls = list(full_placements(context.compact_board))
            expanded += [expand(context, p).markers for p in fulls]
            found = enumeration._split(enumeration._class_flags(board, fulls, context))[1]
            for side, avoiders in enumerate(found.values()):
                counts[side] += len(avoiders)
        assert keys == sorted(set(keys)), board
        rooks = [p.markers for p in rook_placements(board)]
        assert len(expanded) == len(set(expanded)) == len(rooks), board
        assert set(expanded) == set(rooks), board
        assert counts == [sum(avoids(board, p, pattern) for p in rook_placements(board))
                          for pattern in (PATTERN_231, PATTERN_312)], board


def test_sweeps_and_witness_search_leave_no_cyclic_garbage():
    # Every check, board listing and witness search is freed by reference
    # counting, so the cyclic collector finds nothing after them.
    square = Board((3, 3, 3))
    placements = list(full_placements(square))
    patterns = [PATTERN_231, PATTERN_312, Pattern((1, 3, 2))]
    collecting = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for board in boards_within(4):
            for tag in enumeration.THEOREM_TAGS:
                assert check_board(board, tag) == []
        for pattern in patterns:
            for i in range(1000):
                pattern_witness(square, placements[i % len(placements)], pattern)
        del board
        assert gc.collect() == 0
    finally:
        if collecting:
            gc.enable()


@pytest.mark.parametrize("tag", ["t1", "t2", "t4"])
def test_t_sweeps_keep_only_true_sequences_within_4(tag):
    # The sweeps and the maps share one memo of border sequences on the
    # board; each sweep, on a fresh board, leaves only right entries there.
    for board in boards_within(4, square_bounded_only=True):
        assert check_board(board, tag) == []
        assert bool(board._sequences) == board.admits_full_placement(), board
        for p, seq in board._sequences.items():
            assert seq == s_sequence(board, p), (board, p)


def test_lis_oracle_direct():
    markers = {(1, 3), (2, 1), (3, 2)}
    assert lis_in_rectangle(markers, 3, 3) == 2
    assert lis_in_rectangle(markers, 2, 3) == 1
    assert lis_in_rectangle(markers, 0, 0) == 0
    assert lis_in_rectangle(set(), 5, 5) == 0


def test_verify_single_boards():
    report = verify(Board((3, 3, 3)), "t4")
    assert report.boards_checked == 1 and report.passed
    report = verify(Board((2, 1)), "t1")
    assert report.boards_checked == 1 and report.passed
    report = verify(Board((3, 2, 1)), "all")
    assert report.passed


def test_verify_sweep_all_small():
    report = verify(boards_within(3), "all")
    assert report.boards_checked == 19
    assert report.passed


def test_verify_full_admitting_sweep():
    report = verify(boards_within(4, True, True), "all")
    assert report.boards_checked == 22  # 1 + 2 + 5 + 14 admitting boards
    assert report.passed


def test_verify_parallel_matches_serial():
    sweep = list(boards_within(3))
    serial = verify(sweep, "t4")
    parallel = verify(sweep, "t4", parallel=2)
    assert serial.failures == parallel.failures
    assert serial.boards_checked == parallel.boards_checked


def _peak_bytes(run) -> int:
    # Freed tuples, lists and frames parked in the interpreter's free lists
    # stay traced, so a longer run reads higher; a full collection empties
    # the free lists, so every run starts from the same state.
    gc.collect()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_serial_verify_memory_follows_its_largest_board():
    # What a check caches on a board goes with the board's check, so the
    # sweep's peak stays near one board's, not the sum over the sweep
    # (about 7x the largest board at this bound when every board kept it).
    sweep = default_sweep("t4", 5)
    largest = max(_peak_bytes(lambda board=board: check_board(Board(board.heights), "t4"))
                  for board in sweep)
    assert _peak_bytes(lambda: verify(sweep, "t4")) < 3 * largest


@pytest.mark.parametrize("cpus,n_boards,expected", [
    (3, 5, 3),     # capped by the CPU count
    (8, 2, 2),     # capped by the number of boards
    (None, 5, None),  # unknown CPU count: no pool
])
def test_verify_caps_worker_count(monkeypatch, cpus, n_boards, expected):
    started = []

    class RecordingPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr("os.cpu_count", lambda: cpus)
    report = verify(list(boards_within(2))[:n_boards], "l1", parallel=10**6)
    assert report.boards_checked == n_boards and report.passed
    assert started == ([] if expected is None else [expected])


def test_verify_and_check_board_refuse_boards_beyond_the_sweep_box(monkeypatch):
    # a 1000x1000 sweep would enumerate 1000! full placements
    message = "--board must fit within 9x9, the box of the largest --max-n"
    with pytest.raises(ParseError, match=message):
        verify(Board((1000,) * 1000), "l1")
    for heights in ((10,) * 10, (10,), (1,) * 10):
        with pytest.raises(ParseError, match=message):
            check_board(Board(heights), "t1")
    # every board is checked before any check runs
    def no_work(*args, **kwargs):
        raise AssertionError("a check ran")

    monkeypatch.setattr(enumeration, "_board_failures", no_work)
    with pytest.raises(ParseError, match=message):
        verify([Board((3, 3, 3)), Board((10,))], "l1")
    monkeypatch.undo()
    assert verify(Board((1,) * 9), "l1").passed


@pytest.mark.parametrize("parallel", [0, -1])
def test_verify_refuses_fewer_than_one_worker(monkeypatch, parallel):
    # with the CLI's text, before any check runs
    def no_work(*args, **kwargs):
        raise AssertionError("a check ran")

    monkeypatch.setattr(enumeration, "_board_failures", no_work)
    with pytest.raises(ParseError, match="^--parallel must be at least 1$"):
        verify(Board((2, 2)), "l1", parallel=parallel)


def test_verify_rejects_unknown_tag():
    with pytest.raises(ValueError, match="unknown theorem tag 't3'"):
        verify(Board((1,)), "t3")


@pytest.mark.parametrize("tag", ["t3", "all"])
def test_check_board_rejects_unknown_tag(tag):
    # "all" is a verify tag only; check_board runs one check
    with pytest.raises(ValueError, match=f"unknown theorem tag '{tag}'"):
        check_board(Board((1,)), tag)


@pytest.mark.parametrize("tag", ["t3", "all"])
@pytest.mark.parametrize("max_n", [None, 3])
def test_default_sweep_rejects_unknown_tag(tag, max_n):
    # "all" is a verify tag only; a sweep is listed for one check
    with pytest.raises(ValueError, match=f"^unknown theorem tag '{tag}'$"):
        default_sweep(tag, max_n)


def test_default_sweep_bounds():
    assert all(b.square_bounded() for b in default_sweep("t1"))
    assert max(b.n_cols for b in default_sweep("remark")) == 4
    assert max(b.n_cols for b in default_sweep("l1")) == 5
    assert max(b.n_rows for b in default_sweep("t2", max_n=3)) == 3


@pytest.mark.parametrize("max_n,message", [
    (0, "--max-n must be at least 1"),
    (-3, "--max-n must be at least 1"),
    (10, "--max-n must be at most 9, a sweep of 48,619 boards"),
    (30, "--max-n must be at most 9, a sweep of 48,619 boards"),
])
def test_default_sweep_refuses_bounds_beyond_the_sweep_box(max_n, message):
    # refused before any board is listed: boards_within(30) has about 10^17
    with pytest.raises(ParseError) as caught:
        default_sweep("l1", max_n)
    assert str(caught.value) == message


def test_negative_control_231_vs_321():
    # the harness must be able to see a count difference somewhere: 231 and
    # 321 are not interchangeable on Ferrers boards.  Both library counts
    # take fast paths, so the claim is held on the brute-force filter.
    pattern_321 = Pattern((3, 2, 1))
    witness = next(board for board in boards_within(6, full_only=True)
                   if count_avoiders_by_filter(board, PATTERN_231)
                   != count_avoiders_by_filter(board, pattern_321))
    assert witness == Board((4, 4, 4, 3))
    for count in (count_avoiders_by_filter, count_avoiders):
        assert (count(witness, PATTERN_231), count(witness, pattern_321)) == (12, 13)


@pytest.mark.parametrize("increasing", [(1, 2, 3), (1, 2, 3, 4)], ids=str)
def test_increasing_and_decreasing_patterns_are_shape_wilf_within_6(increasing):
    # 123 ~ 321 and 1234 ~ 4321 on every board (Backelin-West-Xin 2007),
    # counted by the brute-force filter only
    for board in boards_within(6):
        assert count_avoiders_by_filter(board, Pattern(increasing)) == \
            count_avoiders_by_filter(board, Pattern(increasing[::-1])), board


@pytest.mark.parametrize("word,inverse", [
    ("231", "312"), ("312", "231"), ("123", "123"), ("321", "321"),
    ("1234", "1234"), ("4321", "4321"),
])
def test_counts_take_the_inverse_pattern_on_the_conjugate_within_7(word, inverse):
    # Transposing the board moves each marker (c, r) to (r, c), so the
    # avoiders of a pattern go to the avoiders of its inverse.  Both counts
    # are walks (the sequence walk for 231 and 312, the shape walk for the
    # monotone patterns), held against each other, not against an oracle.
    boards = list(boards_within(7, full_only=True))
    assert len(boards) == 625
    pattern, inverted = Pattern.parse(word), Pattern.parse(inverse)
    for board in boards:
        assert count_avoiders(board, pattern) == count_avoiders(board.conjugate(), inverted), board


# The private core each public map stands for in the sweeps, and the pattern
# its inputs avoid; the core takes that pattern as its third argument.  The
# remark sweep runs the general maps' core, ``_map_full``, once on each
# compact board, shown through the first class that compacts to it.
_CORES = {
    "alpha": ("_map_full", PATTERN_231),
    "beta": ("_map_full", PATTERN_312),
    "alpha_general": ("_map_full", PATTERN_231),
    "beta_general": ("_map_full", PATTERN_312),
}
# The pattern each public reconstruction passes to the core ``_rebuild``.
_REBUILT = {"reconstruct_231": PATTERN_231, "reconstruct_312": PATTERN_312}


def _planted(original, mode, avoided):
    """``original``, a map core, with one fault planted on the first input it
    moves away from the ``avoided`` pattern's side: raise
    ``ReconstructionFailure``, or return a wrong image (the input itself, or
    for partial placements the input less one marker)."""
    planted = []

    def faulty(board, placement, pattern):
        image = original(board, placement, pattern)
        if planted or pattern != avoided or image == placement:
            return image
        planted.append(placement)
        if mode == "raise":
            raise ReconstructionFailure("planted fault")
        if mode == "drop":
            return Placement(sorted(placement.markers)[1:])
        return placement

    return faulty


def _wrong_rebuild(original, rebuilt):
    """``original``, the core ``_rebuild``, returning some other full
    placement the first time it rebuilds a ``rebuilt``-avoider."""
    planted = []

    def wrong(board, seq, pattern):
        result = original(board, seq, pattern)
        if planted or pattern != rebuilt:
            return result
        planted.append(seq)
        return next(p for p in full_placements(board) if p != result)

    return wrong, planted


@pytest.mark.parametrize("heights", [(3, 3, 3), (4, 4, 3, 2)])
@pytest.mark.parametrize("name,tag,mode", [
    ("alpha", "t4", "input"), ("alpha", "t4", "raise"),
    ("beta", "t4", "input"), ("beta", "t4", "raise"),
    ("alpha_general", "remark", "input"), ("alpha_general", "remark", "raise"),
    ("alpha_general", "remark", "drop"),
    ("beta_general", "remark", "input"), ("beta_general", "remark", "raise"),
    ("beta_general", "remark", "drop"),
])
def test_check_board_reports_planted_map_faults(monkeypatch, heights, name, tag, mode):
    board = Board(heights)
    assert check_board(board, tag) == []
    core, avoided = _CORES[name]
    monkeypatch.setattr(enumeration, core, _planted(getattr(enumeration, core), mode, avoided))
    failures = check_board(board, tag)
    assert failures and all(f.theorem == tag for f in failures)


@pytest.mark.parametrize("heights", [(3, 3, 3), (4, 4, 3, 2)])
@pytest.mark.parametrize("name", ["reconstruct_231", "reconstruct_312"])
def test_check_board_reports_planted_reconstruction_faults(monkeypatch, heights, name):
    board = Board(heights)
    wrong, _ = _wrong_rebuild(enumeration._rebuild, _REBUILT[name])
    monkeypatch.setattr(enumeration, "_rebuild", wrong)
    failures = check_board(board, "t1")
    assert failures and all(f.theorem == "t1" for f in failures)


@pytest.mark.parametrize("heights", [(3, 3, 3), (4, 4, 3, 2)])
@pytest.mark.parametrize("name", ["alpha", "beta"])
@pytest.mark.parametrize("mode", ["input", "raise"])
def test_remark_reports_planted_full_map_faults(monkeypatch, heights, name, mode):
    # The class sweep calls _map_full once on each compact board, with the
    # placements the classes share; the fault sits in the first map that moves one.
    board = Board(heights)
    assert check_board(board, "remark") == []
    _, avoided = _CORES[name]
    monkeypatch.setattr(enumeration, "_map_full", _planted(enumeration._map_full, mode, avoided))
    failures = check_board(board, "remark")
    assert failures and all(f.theorem == "remark" for f in failures)


def test_remark_failures_show_placements_on_the_board(monkeypatch):
    # The class sweep maps on compact boards but prints each placement
    # expanded onto the board it checks.  The fault sits in the first class
    # whose alpha moves a placement: columns 1, 2 and rows 1, 2 of the 3x3
    # square, whose compact board is the 2x2 square.
    board = Board((3, 3, 3))
    core, avoided = _CORES["alpha_general"]
    monkeypatch.setattr(enumeration, core, _planted(getattr(enumeration, core), "input", avoided))
    failures = check_board(board, "remark")
    assert [(f.board, f.theorem, f.witness) for f in failures] == [
        (board, "remark", "beta_general(alpha_general(1:1,2:2)) = 1:2,2:1"),
        (board, "remark", "alpha_general image has {} outside the targets and misses {1:2,2:1}"),
    ]


def test_remark_reports_a_compact_that_disagrees_with_its_class(monkeypatch):
    # compact runs once per class, on the class's first placement; here it
    # re-indexes the 2x2 square's class of every column and row wrongly.
    def wrong(board, placement):
        context, full = bijection.compact(board, placement)
        return context, FullPlacement(full.perm[::-1])

    monkeypatch.setattr(enumeration, "compact", wrong)
    board = Board((2, 2))
    context = bijection.CompactionContext((1, 2), (1, 2), board)
    assert [f.witness for f in check_board(board, "remark")] == [
        f"compact(12) gave {(context, FullPlacement((2, 1)))!r}, its class is {context!r}"]


def test_remark_maps_each_compact_board_once(monkeypatch):
    # Compaction preserves avoidance, so the general maps are the full maps
    # on the compact board: the sweep maps each compact board's 231-avoiders
    # forward and back once, however many classes compact to it.
    board = Board((4, 4, 4, 4))
    compact_heights = {bijection.compact(board, p)[0].compact_board.heights
                       for p in rook_placements(board) if p.markers}
    calls = []
    original = enumeration._map_full

    def counted(on, placement, avoided):
        calls.append(on.heights)
        return original(on, placement, avoided)

    monkeypatch.setattr(enumeration, "_map_full", counted)
    assert check_board(board, "remark") == []
    expected = {h: 2 * count_avoiders(Board(h), PATTERN_231) for h in compact_heights}
    assert Counter(calls) == expected
    assert len(calls) == sum(expected.values())


def test_remark_reports_a_class_whose_avoidance_differs_from_its_compact_board(monkeypatch):
    # A planted core finds 231 in 1:1,3:3 on the 3x3 square but not in the
    # same placement compacted onto the 2x2 square, 12: the class of columns
    # 1, 3 and rows 1, 3 reports it, and the counts on the board disagree.
    # The core sees rows, not columns, and 1:1,2:3, in the class of columns
    # 1, 2 and rows 1, 3, asks it the same question first; the fault fires
    # on the second asking only.
    board = Board((3, 3, 3))
    avoiders = sum(1 for p in rook_placements(board) if avoids(board, p, PATTERN_231))
    original = enumeration._closes
    asked = []

    def wrong(rows, row, height):
        found_231, found_312 = original(rows, row, height)
        if (rows, row, height) == ([1], 3, 3):
            asked.append(rows)
            if len(asked) == 2:
                return True, found_312
        return found_231, found_312

    monkeypatch.setattr(enumeration, "_closes", wrong)
    assert [f.witness for f in check_board(board, "remark")] == [
        f"{avoiders - 1} placements avoid 231 but {avoiders} avoid 312",
        "compaction changes the 231-avoidance of {1:1,3:3}"]


def _planted_closes(original, pattern, mode):
    """``original``, the core ``_closes``, with one fault planted in its
    answer for ``pattern``: "keep" misses the first occurrence it would
    find, "drop" finds one on the first call that would find none."""
    side = (PATTERN_231, PATTERN_312).index(pattern)
    planted = []

    def faulty(rows, row, height):
        found = list(original(rows, row, height))
        if not planted and found[side] == (mode == "keep"):
            planted.append((list(rows), row, height))
            found[side] = not found[side]
        return tuple(found)

    return faulty, planted


# Every full placement on 4,4,3,2 avoids both patterns, so no fault in
# ``_closes`` that keeps a non-avoider can show there.
@pytest.mark.parametrize("heights", [(3, 3, 3), (4, 4, 4, 3)])
@pytest.mark.parametrize("pattern", [PATTERN_231, PATTERN_312], ids=str)
@pytest.mark.parametrize("tag,mode", [("t1", "keep"), ("t2", "drop")])
def test_t1_and_t2_report_planted_containment_faults(monkeypatch, heights, pattern, tag, mode):
    # t1 and t2 split the placements by the flags ``_closes`` keeps per
    # prefix.  A missed occurrence keeps a non-avoider, whose sequence t1
    # finds shared or not rebuilt to it; a false one drops avoiders, whose
    # sequences t2 finds accepted but not realized.
    assert check_board(Board(heights), tag) == []
    faulty, planted = _planted_closes(enumeration._closes, pattern, mode)
    monkeypatch.setattr(enumeration, "_closes", faulty)
    failures = check_board(Board(heights), tag)
    assert planted and failures and all(f.theorem == tag for f in failures)
    if tag == "t2":
        assert all(f.witness.endswith(f"passes the {pattern}-conditions but no avoider "
                                      "realizes it") for f in failures)


def _map_fault(mode, avoided):
    return enumeration, "_map_full", lambda core: _planted(core, mode, avoided)


def _rebuild_fault(module, rebuilt):
    return module, "_rebuild", lambda core: _wrong_rebuild(core, rebuilt)[0]


def _closes_fault(pattern, mode):
    return enumeration, "_closes", lambda core: _planted_closes(core, pattern, mode)[0]


_MISSES_321 = "alpha image has {} outside the targets and misses {321}"
_UNREPRODUCED = "reconstructed placement does not reproduce the sequence"


@pytest.mark.parametrize("tag,fault,witnesses", [
    ("t4", _map_fault("input", PATTERN_231), ["beta(alpha(123)) = 321", _MISSES_321]),
    ("t4", _map_fault("raise", PATTERN_231),
     ["alpha/beta failed on 123: planted fault", _MISSES_321]),
    ("t4", _map_fault("input", PATTERN_312), ["beta(alpha(123)) = 321"]),
    ("t4", _map_fault("raise", PATTERN_312),
     ["alpha/beta failed on 123: planted fault", _MISSES_321]),
    ("t1", _rebuild_fault(enumeration, PATTERN_231),
     ["sequence 0,1,2,3,2,1,0 rebuilt to 132, expected 123"]),
    ("t1", _rebuild_fault(enumeration, PATTERN_312),
     ["sequence 0,1,2,3,2,1,0 rebuilt to 132, expected 123"]),
    ("t4", _rebuild_fault(bijection, PATTERN_231), ["beta(alpha(123)) = 132"]),
    ("t4", _rebuild_fault(bijection, PATTERN_312), ["beta(alpha(123)) = 321", _MISSES_321]),
    ("t1", _closes_fault(PATTERN_231, "keep"),
     [f"reconstruction failed on 0,1,2,2,1,1,0: {_UNREPRODUCED}"]),
    ("t1", _closes_fault(PATTERN_312, "keep"),
     [f"reconstruction failed on 0,1,1,2,2,1,0: {_UNREPRODUCED}"]),
    ("t2", _closes_fault(PATTERN_231, "drop"),
     [f"sequence {seq} passes the 231-conditions but no avoider realizes it"
      for seq in ("0,1,2,2,2,1,0", "0,1,2,3,2,1,0")]),
    ("t2", _closes_fault(PATTERN_312, "drop"),
     [f"sequence {seq} passes the 312-conditions but no avoider realizes it"
      for seq in ("0,1,2,2,2,1,0", "0,1,2,3,2,1,0")]),
], ids=["t4-alpha-input", "t4-alpha-raise", "t4-beta-input", "t4-beta-raise",
        "t1-rebuild-231", "t1-rebuild-312", "t4-rebuild-231", "t4-rebuild-312",
        "t1-keep-231", "t1-keep-312", "t2-drop-231", "t2-drop-312"])
def test_planted_faults_give_the_same_failures_through_check_board_and_verify(
        monkeypatch, tag, fault, witnesses):
    # The exact failures of each fault the tests above plant, on the 3x3
    # square, in check order; verify's serial loop gives the same list.  A
    # planted fault fires once, so each run plants it anew on a fresh board.
    module, name, plant = fault
    core = getattr(module, name)
    runs = []
    for run in (check_board, lambda board, tag: list(verify(board, tag).failures)):
        monkeypatch.setattr(module, name, plant(core))
        runs.append(run(Board((3, 3, 3)), tag))
    assert [(f.board.heights, f.theorem, f.witness) for f in runs[0]] == \
        [((3, 3, 3), tag, witness) for witness in witnesses]
    assert runs[0] == runs[1]


@pytest.mark.parametrize("heights", [(3, 3, 3), (4, 4, 3, 2)])
@pytest.mark.parametrize("name", ["reconstruct_231", "reconstruct_312"])
def test_t4_reports_planted_reconstruction_faults(monkeypatch, heights, name):
    # The maps rebuild each image through bijection._rebuild; the faulty
    # board is fresh, so no sequence it holds was read from the first run.
    assert check_board(Board(heights), "t4") == []
    wrong, planted = _wrong_rebuild(bijection._rebuild, _REBUILT[name])
    monkeypatch.setattr(bijection, "_rebuild", wrong)
    failures = check_board(Board(heights), "t4")
    assert planted and failures and all(f.theorem == "t4" for f in failures)


def test_t4_reports_a_planted_out_of_range_sequence(monkeypatch, capsys):
    # Every sequence read holds a value above the profile, so plus_transform
    # raises on each; t4 reports each as a failure, in the library and the
    # CLI, instead of raising.
    real = bijection._s_sequence
    monkeypatch.setattr(bijection, "_s_sequence", lambda b, p: (0, 6) + real(b, p)[2:])
    board = Board((3, 3, 3))
    error = "value 6 at border index 1 outside [0, 1]"
    involution = [f"plus_transform failed on 0,6,{format_sequence(real(board, p)[2:])}: {error}"
                  for p in full_placements(board)]
    failures = check_board(board, "t4")
    assert all(f.theorem == "t4" for f in failures)
    assert [f.witness for f in failures[-6:]] == involution
    assert cli.main(["verify", "--board", "3,3,3", "--theorem", "t4"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("theorem ")
    assert out.endswith("".join(f"FAIL t4 board 3,3,3: {f.witness}\n" for f in failures))


@pytest.mark.parametrize("heights", [(3, 3, 3), (4, 4, 3, 2)])
def test_l1_reports_a_planted_profile_fault_at_its_vertex(heights):
    # The count walks the border step by step; each failure names the vertex
    # whose profile entry is wrong and the count of a scan over the markers.
    board = Board(heights)
    assert check_board(board, "l1") == []
    index = 4
    profile = list(board.marker_count_profile)
    profile[index] += 1
    board.__dict__["marker_count_profile"] = tuple(profile)  # the cached_property's slot
    v = board.border_path.vertices[index]
    failures = check_board(board, "l1")
    assert len(failures) == full_placement_count(board)
    for failure, p in zip(failures, full_placements(board)):
        count = sum(1 for c, r in p.markers if c <= v.x and r <= v.y)
        assert failure.theorem == "l1"
        assert failure.witness == (
            f"placement {format_placement(p)} has {count} markers in R(({v.x},{v.y})), "
            f"profile says {profile[index]}")


@pytest.mark.parametrize("heights", [(3, 3, 3), (4, 4, 3, 2)])
@pytest.mark.parametrize("tag", enumeration.THEOREM_TAGS)
def test_check_board_twice_on_one_board(heights, tag):
    # the second run reads what the first left on the board
    board = Board(heights)
    assert check_board(board, tag) == []
    assert check_board(board, tag) == []
