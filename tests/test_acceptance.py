"""Acceptance suite: one test per criterion, exact tolerances, timed sweeps.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import json
import random
from time import perf_counter

import pytest

from rookbij.bijection import (
    alpha,
    alpha_general,
    beta,
    beta_general,
    plus_transform,
    reconstruct_231,
    reconstruct_312,
)
from rookbij.board import Board, Vertex
from rookbij.cli import main
from rookbij.enumeration import (
    boards_within,
    count_avoiders,
    full_placements,
    rook_placements,
    valid_sequences,
)
from rookbij.placement import (
    PATTERN_231,
    PATTERN_312,
    FullPlacement,
    Placement,
    avoids,
    s_sequence,
)
from oracles import count_avoiders_by_filter, lis_in_rectangle, s_grid

CATALAN = [1, 2, 5, 14, 42, 132]


def _report(criterion, message):
    print(f"criterion {criterion}: PASS - {message}")


@pytest.fixture(scope="module")
def sweep5():
    """Square-bounded boards admitting full placements, within 5x5, with
    their placements and avoider sets."""
    data = []
    for board in boards_within(5, square_bounded_only=True, full_only=True):
        placements = list(full_placements(board))
        a231 = [p for p in placements if avoids(board, p, PATTERN_231)]
        a312 = [p for p in placements if avoids(board, p, PATTERN_312)]
        data.append((board, placements, a231, a312))
    return data


def test_criterion_1_shape_wilf_counts_within_6():
    start = perf_counter()
    boards = 0
    for board in boards_within(6):
        boards += 1
        # through the placement oracle, not through the sequence count that
        # rests on theorems t1 and t2
        assert count_avoiders_by_filter(board, PATTERN_231) == \
            count_avoiders_by_filter(board, PATTERN_312), f"count mismatch on {board}"
    elapsed = perf_counter() - start
    assert elapsed < 120
    _report(1, f"231/312 avoider counts equal on all {boards} boards within 6x6 "
               f"({elapsed:.1f}s)")


def test_criterion_2_square_board_counts_are_catalan():
    for n, expected in enumerate(CATALAN, start=1):
        board = Board((n,) * n)
        for pattern in (PATTERN_231, PATTERN_312):
            assert count_avoiders(board, pattern) == expected
            assert count_avoiders_by_filter(board, pattern) == expected
    _report(2, f"n-by-n counts for n=1..6 equal {CATALAN} for both patterns, "
               f"in the library and the placement oracle")


def test_criterion_3_sequence_determines_avoider(sweep5):
    start = perf_counter()
    boards = 0
    for board, _, a231, a312 in sweep5:
        boards += 1
        for avoiders, rebuild in ((a231, reconstruct_231), (a312, reconstruct_312)):
            seqs = {s_sequence(board, p) for p in avoiders}
            assert len(seqs) == len(avoiders), f"sequence collision on {board}"
            for p in avoiders:
                assert rebuild(board, s_sequence(board, p)) == p
    elapsed = perf_counter() - start
    assert elapsed < 60
    _report(3, f"border sequences are injective and reconstruction inverts them "
               f"on {boards} boards within 5x5 ({elapsed:.1f}s)")


def test_criterion_4_conditions_characterize_sequences(sweep5):
    start = perf_counter()
    checked = set()
    for board, _, a231, a312 in sweep5:
        checked.add(board)
        assert {s_sequence(board, p) for p in a231} == set(valid_sequences(board, PATTERN_231))
        assert {s_sequence(board, p) for p in a312} == set(valid_sequences(board, PATTERN_312))
    # square-bounded boards with no full placement must accept no sequence
    for board in boards_within(5, square_bounded_only=True):
        if board not in checked:
            assert list(valid_sequences(board, PATTERN_231)) == []
            assert list(valid_sequences(board, PATTERN_312)) == []
    elapsed = perf_counter() - start
    assert elapsed < 120
    _report(4, f"condition-passing sequences match realized sequences exactly "
               f"({elapsed:.1f}s)")


def test_criterion_5_alpha_beta_bijection(sweep5):
    pairs = 0
    for board, placements, a231, a312 in sweep5:
        images = [alpha(board, p) for p in a231]
        assert sorted(q.perm for q in images) == sorted(q.perm for q in a312)
        for p, q in zip(a231, images):
            pairs += 1
            assert beta(board, q) == p
        for q in a312:
            assert alpha(board, beta(board, q)) == q
        for p in placements:
            seq = s_sequence(board, p)
            assert plus_transform(board, plus_transform(board, seq)) == seq
    _report(5, f"alpha/beta mutually inverse on {pairs} avoider pairs; "
               f"plus_transform involutive on every realized sequence")


def test_criterion_6_profile_counts_markers():
    checked = 0
    for board in boards_within(5):
        profile = board.marker_count_profile
        verts = board.border_path.vertices
        for p in full_placements(board):
            checked += 1
            for idx, v in enumerate(verts):
                inside = sum(1 for c, r in p.markers if c <= v.x and r <= v.y)
                assert inside == profile[idx]
    _report(6, f"marker counts match the profile at every border vertex "
               f"({checked} placements within 5x5)")


def test_criterion_7_partial_placements_within_4():
    for board in boards_within(4):
        classes_231 = {}
        classes_312 = {}
        n231 = n312 = 0
        for p in rook_placements(board):
            key = (tuple(sorted(c for c, _ in p.markers)),
                   tuple(sorted(r for _, r in p.markers)))
            if avoids(board, p, PATTERN_231):
                n231 += 1
                classes_231.setdefault(key, []).append(p)
            if avoids(board, p, PATTERN_312):
                n312 += 1
                classes_312.setdefault(key, set()).add(p.markers)
        assert n231 == n312, f"partial counts differ on {board}"
        for key, members in classes_231.items():
            images = set()
            for p in members:
                q = alpha_general(board, p)
                assert beta_general(board, q).markers == p.markers
                images.add(q.markers)
            assert images == classes_312[key], f"class mismatch on {board} at {key}"
    _report(7, "partial 231/312 avoider counts equal and alpha_general is a "
               "bijection on every compaction class within 4x4")


def test_criterion_8_growth_grid_matches_chain_oracle():
    checked = 0
    for board in boards_within(4):
        for p in rook_placements(board):
            grid = s_grid(board, p)
            for v, value in grid.items():
                assert value == lis_in_rectangle(p.markers, v.x, v.y)
            checked += 1

    rng = random.Random(20240817)
    sampled = 0
    while sampled < 1000:
        heights = tuple(sorted((rng.randint(1, 8) for _ in range(rng.randint(1, 8))),
                               reverse=True))
        board = Board(heights)
        markers = set()
        used_rows = set()
        for col in range(1, board.n_cols + 1):
            if rng.random() < 0.5:
                continue
            rows = [r for r in range(1, board.heights[col - 1] + 1) if r not in used_rows]
            if rows:
                row = rng.choice(rows)
                used_rows.add(row)
                markers.add((col, row))
        placement = Placement(frozenset(markers))
        grid = s_grid(board, placement)
        for v, value in grid.items():
            assert value == lis_in_rectangle(markers, v.x, v.y)
        sampled += 1
    _report(8, f"growth-rule grid equals the brute-force chain oracle on "
               f"{checked} exhaustive and {sampled} random placements")


def test_criterion_9_cli_golden_outputs(capsys):
    def run(*argv):
        code = main(list(argv))
        out = capsys.readouterr().out
        return code, out

    cases = [
        (("sequence", "--board", "2,2", "--placement", "12"), 0, "0,1,2,1,0\n"),
        (("sequence", "--board", "2,1", "--placement", "1:2,2:1"), 0, "0,1,0,1,0\n"),
        (("map", "--board", "3,3,3", "--placement", "123", "--alpha"), 0, "321\n"),
        (("map", "--board", "3,3,3", "--placement", "321", "--beta"), 0, "123\n"),
        (("check", "--board", "2,2", "--seq", "0,1,2,1,0", "--pattern", "231"),
         0, "pass\n"),
        (("check", "--board", "2,2", "--seq", "0,0,1,1,0", "--pattern", "231"),
         1, "ZERO at border indices 0-1\n"),
        (("check", "--board", "3,3,3", "--seq", "0,1,1,2,2,1,0", "--pattern", "312"),
         1, "DIAGONAL at (2,3)>(3,2)\n"),
        (("reconstruct", "--board", "3,3,3", "--seq", "0,1,2,3,2,1,0",
          "--pattern", "231"), 0, "123\n"),
        (("count", "--board", "4,4,4,4", "--pattern", "312"), 0, "14\n"),
        (("render", "--board", "2,1", "--placement", "1:2,2:1"), 0, "X\n.X\n"),
    ]
    for argv, expected_code, expected_out in cases:
        code, out = run(*argv)
        assert (code, out) == (expected_code, expected_out), argv

    code, out = run("sequence", "--board", "2,2", "--placement", "12", "--json")
    assert code == 0
    assert out == '{"board":[2,2],"placement":[1,2],"sequence":[0,1,2,1,0]}\n'
    assert json.loads(out)["sequence"] == [0, 1, 2, 1, 0]

    code, _ = run("sequence", "--board", "2,2", "--placement", "11")
    assert code == 2
    _report(9, "CLI worked examples reproduce byte-identical output and exit codes")
