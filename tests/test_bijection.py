import inspect
import random
import re
import sys
import threading

import pytest
from hypothesis import given

from rookbij import bijection, cli
from rookbij.bijection import (
    alpha,
    alpha_general,
    beta,
    beta_general,
    compact,
    expand,
    plus_transform,
    reconstruct_231,
    reconstruct_312,
)
from rookbij.board import Board
from rookbij.conditions import check_231, check_312
from rookbij.enumeration import boards_within, full_placements, rook_placements
from rookbij.errors import (
    ConditionViolation,
    InvalidPlacement,
    LengthMismatch,
    NotAvoider,
    OutOfRange,
    ReconstructionFailure,
)
from rookbij.placement import (
    PATTERN_231,
    PATTERN_312,
    FullPlacement,
    Placement,
    avoids,
    inverse_placement,
    pattern_witness,
    s_sequence,
)
from oracles import compact_heights_by_count
from strategies import (
    boards_with_full_placement,
    boards_with_rook_placement,
    random_231_avoider,
    random_board_above,
)

B333 = Board((3, 3, 3))
# A 231- and a 312-containing placement on B333, each with its rejection text.
NON_AVOIDERS_333 = (
    ((2, 3, 1), "placement contains 231 at markers (1,2),(2,3),(3,1)"),
    ((3, 1, 2), "placement contains 312 at markers (1,3),(2,1),(3,2)"),
)


@pytest.mark.parametrize("heights,seq,expected", [
    ((2, 2), (0, 1, 2, 1, 0), (0, 1, 1, 1, 0)),
    ((2, 1), (0, 1, 0, 1, 0), (0, 1, 0, 1, 0)),
    ((3, 3, 3), (0, 1, 2, 3, 2, 1, 0), (0, 1, 1, 1, 1, 1, 0)),
])
def test_plus_transform_examples(heights, seq, expected):
    assert plus_transform(Board(heights), seq) == expected


def test_plus_transform_errors():
    # the first value outside [0, N], N the marker-count profile 0,1,2,1,0
    for seq, text in [
        ((0, 1, 3, 1, 0), "value 3 at border index 2 outside [0, 2]"),
        ((0, 2, 3, 1, 0), "value 2 at border index 1 outside [0, 1]"),
        ((0, 1, -1, 1, 0), "value -1 at border index 2 outside [0, 2]"),
        ((0, 1, 2, 2, -1), "value 2 at border index 3 outside [0, 1]"),
    ]:
        with pytest.raises(OutOfRange) as info:
            plus_transform(Board((2, 2)), seq)
        assert str(info.value) == text
    with pytest.raises(LengthMismatch):
        plus_transform(Board((2, 2)), (0, 1, 0))


@given(boards_with_full_placement())
def test_plus_transform_involution(pair):
    board, placement = pair
    seq = s_sequence(board, placement)
    assert plus_transform(board, plus_transform(board, seq)) == seq


@pytest.mark.parametrize("heights,seq,perm", [
    ((3, 3, 3), (0, 1, 2, 3, 2, 1, 0), (1, 2, 3)),
    ((2, 1), (0, 1, 0, 1, 0), (2, 1)),
    ((2, 2), (0, 1, 1, 1, 0), (2, 1)),
])
def test_reconstruct_231_examples(heights, seq, perm):
    assert reconstruct_231(Board(heights), seq).perm == perm


@pytest.mark.parametrize("heights,seq,perm", [
    ((3, 3, 3), (0, 1, 1, 1, 1, 1, 0), (3, 2, 1)),
    ((2, 2), (0, 1, 2, 1, 0), (1, 2)),
    ((2, 1), (0, 1, 0, 1, 0), (2, 1)),
])
def test_reconstruct_312_examples(heights, seq, perm):
    assert reconstruct_312(Board(heights), seq).perm == perm


def test_reconstruct_precondition_failures():
    condition_text = (
        (reconstruct_231, PATTERN_231, "ZERO at border indices 0-1"),
        (reconstruct_312, PATTERN_312, "ZERO at border indices 0-1; DIAGONAL at (1,2)>(2,1)"),
    )
    for reconstruct, pattern, text in condition_text:
        with pytest.raises(ConditionViolation) as exc:
            reconstruct(Board((2, 2)), (0, 0, 1, 1, 0))
        assert str(exc.value) == text
        with pytest.raises(ConditionViolation) as exc:
            reconstruct(Board((2, 2, 1)), (0, 1, 2, 1, 0, 0))  # not square-bounded
        assert str(exc.value) == "board's longest row and column differ; no full placement exists"
        with pytest.raises(LengthMismatch):
            reconstruct(Board((2, 2)), (0, 1, 0))
        # bad input sneaking past the checks, into the core, must still be rejected
        with pytest.raises(ReconstructionFailure):
            bijection._rebuild(Board((2, 2)), (0, 0, 0, 0, 0), pattern)


def test_reconstruct_round_trip_small():
    for heights in [(2, 2), (3, 2, 2), (3, 3, 3), (4, 4, 3, 2), (4, 4, 4, 4)]:
        board = Board(heights)
        for p in full_placements(board):
            if avoids(board, p, PATTERN_231):
                assert reconstruct_231(board, s_sequence(board, p)) == p
            if avoids(board, p, PATTERN_312):
                assert reconstruct_312(board, s_sequence(board, p)) == p


@pytest.mark.parametrize("seed", range(6))
def test_reconstruct_round_trip_on_wide_boards(seed):
    # A 231-avoider of 10-300 columns on a board drawn above it; its reflection
    # avoids 312 on the conjugate board.
    rng = random.Random(seed)
    n = rng.randint(10, 300)
    p = FullPlacement(random_231_avoider(rng, list(range(1, n + 1))))
    board = random_board_above(rng, p.perm)
    seq = s_sequence(board, p)
    assert check_231(board, seq).verdict  # t2: realized sequences are accepted
    assert reconstruct_231(board, seq) == p
    conj, r = board.conjugate(), inverse_placement(board, p)
    assert reconstruct_312(conj, s_sequence(conj, r)) == r
    # t4 and t1 on the 312 side of the board itself: the transposed pass
    q = alpha(board, p)
    q_seq = s_sequence(board, q)
    assert pattern_witness(board, q, PATTERN_312) is None
    assert check_312(board, q_seq).verdict
    assert reconstruct_312(board, q_seq) == q
    assert beta(board, q) == p
    # remark: a random subset of the markers maps there and back
    part = Placement(rng.sample(sorted(p.markers), rng.randint(1, n)))
    assert beta_general(board, alpha_general(board, part)) == part


def test_maps_keep_no_conjugate_on_the_board():
    board = Board((4, 4, 3, 2))
    p = next(p for p in full_placements(board) if avoids(board, p, PATTERN_312))
    reconstruct_312(board, s_sequence(board, p))
    beta(board, alpha(board, beta(board, p)))
    assert "_conjugate" not in board.__dict__
    assert not any(isinstance(v, Board) for v in board.__dict__.values())


def test_maps_reject_placements_leaving_a_column_or_row_empty():
    # A placement that fills the board maps as the full placement it is.
    for board in boards_within(4):
        for placement in rook_placements(board):
            if len(placement.markers) == board.n_cols == board.n_rows:
                full = FullPlacement(r for _, r in sorted(placement.markers))
                assert inverse_placement(board, placement) == inverse_placement(board, full)
                if avoids(board, full, PATTERN_231):
                    assert alpha(board, placement) == alpha(board, full)
                if avoids(board, full, PATTERN_312):
                    assert beta(board, placement) == beta(board, full)
                continue
            for function in (alpha, beta, inverse_placement):
                with pytest.raises(InvalidPlacement,
                                   match="^placement leaves a column or a row of the board empty$"):
                    function(board, placement)


def test_alpha_beta_examples():
    assert alpha(B333, FullPlacement((1, 2, 3))).perm == (3, 2, 1)
    assert alpha(Board((2, 2)), FullPlacement((1, 2))).perm == (2, 1)
    staircase = Board((3, 2, 1))
    assert alpha(staircase, FullPlacement((3, 2, 1))).perm == (3, 2, 1)
    assert beta(B333, FullPlacement((3, 2, 1))).perm == (1, 2, 3)
    assert beta(Board((2, 2)), FullPlacement((2, 1))).perm == (1, 2)
    assert beta(staircase, FullPlacement((3, 2, 1))).perm == (3, 2, 1)


def test_alpha_beta_reject_non_avoiders():
    for map_full, (perm, text) in zip((alpha, beta), NON_AVOIDERS_333):
        with pytest.raises(NotAvoider) as exc:
            map_full(B333, FullPlacement(perm))
        assert str(exc.value) == text


def test_alpha_image_sequence_is_plus_transform():
    for heights in [(2, 2), (3, 3, 2), (3, 3, 3), (4, 3, 2, 2)]:
        board = Board(heights)
        for p in full_placements(board):
            if avoids(board, p, PATTERN_231):
                q = alpha(board, p)
                assert s_sequence(board, q) == plus_transform(board, s_sequence(board, p))
                assert avoids(board, q, PATTERN_312)
                assert beta(board, q) == p


def test_compact_examples():
    context, full = compact(B333, Placement({(1, 3), (3, 1)}))
    assert context.occupied_cols == (1, 3)
    assert context.occupied_rows == (1, 3)
    assert context.compact_board == Board((2, 2))
    assert full.perm == (2, 1)

    context, full = compact(Board((3, 2, 1)), Placement({(2, 2)}))
    assert context.compact_board == Board((1,))
    assert full.perm == (1,)

    context, full = compact(B333, Placement(frozenset()))
    assert context.compact_board is None
    assert full.perm == ()


def test_compact_reuses_one_board_per_heights():
    board = Board((3, 3, 3))
    first, _ = compact(board, Placement({(1, 3), (3, 1)}))
    second, _ = compact(board, Placement({(1, 1), (2, 3)}))
    assert first.compact_board == Board((2, 2))
    assert second.compact_board is first.compact_board
    other, _ = compact(Board((3, 3, 3)), Placement({(1, 3), (3, 1)}))
    assert other.compact_board == first.compact_board
    assert other.compact_board is not first.compact_board


@given(boards_with_full_placement())
def test_compact_full_placement_is_identity(pair):
    board, placement = pair
    context, full = compact(board, placement)
    assert context.occupied_cols == tuple(range(1, board.n_cols + 1))
    assert context.occupied_rows == tuple(range(1, board.n_rows + 1))
    assert full.perm == placement.perm
    assert context.compact_board == board


@given(boards_with_full_placement())
def test_compact_full_placement_keeps_the_board(pair):
    # nothing is deleted, so the board itself, with its geometry and sequences, is reused
    board, placement = pair
    assert compact(board, placement)[0].compact_board is board
    assert compact(board, Placement(placement.markers))[0].compact_board is board
    assert not board._compact_boards


@given(boards_with_rook_placement())
def test_compact_expand_round_trip(pair):
    board, placement = pair
    if not placement.markers:
        return
    context, full = compact(board, placement)
    assert context.compact_board.admits_full_placement()
    assert expand(context, full).markers == placement.markers


@given(boards_with_rook_placement())
def test_compact_preserves_avoidance(pair):
    board, placement = pair
    if not placement.markers:
        return
    context, full = compact(board, placement)
    for pattern in (PATTERN_231, PATTERN_312):
        assert avoids(board, placement, pattern) == \
            avoids(context.compact_board, full, pattern)


def test_alpha_general_examples():
    image = alpha_general(B333, Placement({(1, 3), (3, 1)}))
    assert image.markers == {(1, 1), (3, 3)}
    assert beta_general(B333, image).markers == {(1, 3), (3, 1)}

    image = alpha_general(B333, Placement({(1, 1), (2, 2)}))
    assert image.markers == {(1, 2), (2, 1)}

    assert alpha_general(B333, Placement(frozenset())).markers == frozenset()


def test_alpha_general_rejects_non_avoiders():
    for map_general, (perm, text) in zip((alpha_general, beta_general), NON_AVOIDERS_333):
        with pytest.raises(NotAvoider) as exc:
            map_general(B333, Placement(FullPlacement(perm).markers))
        assert str(exc.value) == text


@given(boards_with_rook_placement())
def test_alpha_general_round_trip(pair):
    board, placement = pair
    if not avoids(board, placement, PATTERN_231):
        return
    image = alpha_general(board, placement)
    assert avoids(board, image, PATTERN_312)
    assert {c for c, _ in image.markers} == {c for c, _ in placement.markers}
    assert {r for _, r in image.markers} == {r for _, r in placement.markers}
    assert beta_general(board, image).markers == placement.markers


def test_threads_sharing_one_board_get_fresh_board_images():
    # A board's stored sequences and compact boards are filled without a
    # lock: a race only computes one value twice, so every thread still gets
    # the image a fresh board computes.
    heights = (5, 5, 4, 4, 2)
    board = Board(heights)
    placements = [p for p in rook_placements(board) if avoids(board, p, PATTERN_231)]
    expected = [alpha_general(board, p) for p in placements]
    shared = Board(heights)
    results = [None] * 6

    def work(k):
        results[k] = [alpha_general(shared, p) for p in placements]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(len(results))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [expected] * len(results)


@pytest.mark.parametrize("forward,image,avoided", [
    (alpha, PATTERN_312, PATTERN_231),
    (beta, PATTERN_231, PATTERN_312),
], ids=["alpha", "beta"])
def test_maps_check_images_whose_sequence_the_board_holds(monkeypatch, forward, image, avoided):
    # The maps keep the border sequence of every placement they read or
    # produce; a wrong rebuild, below the self-check, checked against a kept
    # sequence must still fail.
    board = Board((4, 4, 4, 4))
    first, second = [p for p in full_placements(board) if avoids(board, p, avoided)
                     and plus_transform(board, s_sequence(board, p)) != s_sequence(board, p)][:2]
    held_image = forward(board, first)
    assert board._sequences[first] == s_sequence(board, first)
    assert board._sequences[held_image] == s_sequence(board, held_image)
    for wrong in (first, held_image):  # an input and an image the board holds
        monkeypatch.setattr(bijection, "_raw_rebuild", _returning(wrong, image))
        with pytest.raises(ReconstructionFailure,
                           match="reconstructed placement does not reproduce the sequence"):
            forward(board, second)
    monkeypatch.undo()
    assert forward(board, second) not in (first, held_image)


def _returning(wrong, rebuilt):
    """A raw rebuild step that returns ``wrong`` for a ``rebuilt``-avoider."""
    def raw_rebuild(board, seq, pattern):
        assert pattern == rebuilt
        return wrong
    return raw_rebuild


@pytest.mark.parametrize("reconstruct,pattern", [
    (reconstruct_231, PATTERN_231),
    (reconstruct_312, PATTERN_312),
], ids=["231", "312"])
def test_reconstruct_self_checks_a_wrong_rebuild(monkeypatch, reconstruct, pattern):
    # The raw rebuild step returns another avoider; the self-check catches it
    # on a fresh board, and on one that holds the wrong placement's sequence.
    board = Board((4, 4, 4, 4))
    right, wrong = [p for p in full_placements(board) if avoids(board, p, pattern)][:2]
    seq = s_sequence(board, right)
    assert reconstruct(board, seq) == right
    held = Board(board.heights)
    assert reconstruct(held, s_sequence(board, wrong)) == wrong
    assert held._sequences[wrong] == s_sequence(board, wrong)
    monkeypatch.setattr(bijection, "_raw_rebuild", _returning(wrong, pattern))
    fresh = Board(board.heights)
    for target in (fresh, held):
        with pytest.raises(ReconstructionFailure,
                           match="reconstructed placement does not reproduce the sequence"):
            reconstruct(target, seq)
    # a failed self-check keeps the wrong placement's true sequence only
    assert fresh._sequences == {wrong: s_sequence(board, wrong)}


def test_reconstruct_reports_an_off_board_rebuild(monkeypatch, capsys):
    # A 312 rebuild whose row inversion gives the identity puts the last
    # column's marker above the board; the placement check's InvalidPlacement
    # comes out as a ReconstructionFailure, which the CLI reports with exit 1,
    # not as bad input with exit 2.
    monkeypatch.setattr(bijection, "_reflect", lambda perm: tuple(range(1, len(perm) + 1)))
    message = "marker (3,3) is outside the board"
    with pytest.raises(ReconstructionFailure, match=rf"^{re.escape(message)}$"):
        reconstruct_312(Board((3, 2, 1)), (0, 1, 0, 1, 0, 1, 0))
    code = cli.main(["reconstruct", "--board", "3,2,1", "--seq", "0,1,0,1,0,1,0",
                     "--pattern", "312"])
    assert (code, capsys.readouterr().out) == (1, message + "\n")


def test_public_maps_take_no_flags():
    # The public functions always check their input; the sweeps call the
    # private cores instead of switching checks off.
    for function, second in [
        (reconstruct_231, "seq"), (reconstruct_312, "seq"),
        (alpha, "placement"), (beta, "placement"),
        (alpha_general, "placement"), (beta_general, "placement"),
    ]:
        assert list(inspect.signature(function).parameters) == ["board", second], function


@pytest.mark.parametrize("heights,placement,message", [
    ((3, 3, 3), Placement({(1, 4)}), "marker (1,4) is outside the board"),
    ((3, 3, 3), Placement({(4, 1)}), "marker (4,1) is outside the board"),
    ((2, 1), FullPlacement((1, 2)), "marker (2,2) is outside the board"),
    ((2, 2), FullPlacement((1, 2, 3)), "full placement of size 3 does not fit a 2x2 board"),
    ((3, 3, 3), Placement({(1, 1), (2, 1)}), "two markers share a row"),
    ((3, 3, 3), Placement({(1, 1), (1, 2)}), "two markers share a column"),
], ids=["row-off", "column-off", "full-off", "full-size", "shared-row", "shared-column"])
@pytest.mark.parametrize("function", [
    lambda b, p: pattern_witness(b, p, PATTERN_231),
    lambda b, p: avoids(b, p, PATTERN_312),
    s_sequence, compact, inverse_placement, alpha, beta, alpha_general, beta_general,
], ids=["pattern_witness", "avoids", "s_sequence", "compact", "inverse_placement", "alpha",
        "beta", "alpha_general", "beta_general"])
def test_public_functions_reject_placements_off_the_board(heights, placement, message, function):
    # The public functions check every placement; only the private cores trust theirs.
    with pytest.raises(InvalidPlacement) as caught:
        function(Board(heights), placement)
    assert str(caught.value) == message


def test_compact_heights_match_a_count_within_5():
    for board in boards_within(5):
        for placement in rook_placements(board):
            context, _ = compact(board, placement)
            if context.compact_board is not None:
                assert context.compact_board.heights == \
                    compact_heights_by_count(board, placement), (board, placement)
