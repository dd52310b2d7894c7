import pytest
from hypothesis import given

from rookbij.board import Board, Vertex
from rookbij.enumeration import full_placements
from rookbij.errors import InvalidPlacement, ParseError
from rookbij.placement import (
    PATTERN_231,
    PATTERN_312,
    FullPlacement,
    Pattern,
    Placement,
    avoids,
    format_placement,
    inverse_placement,
    parse_placement,
    s_sequence,
)
from oracles import avoids_by_border_definition, lis_in_rectangle, s_grid
from strategies import boards_with_full_placement, boards_with_rook_placement

B333 = Board((3, 3, 3))


def test_pattern_parse():
    assert Pattern.parse("231").word == (2, 3, 1)
    assert str(PATTERN_312) == "312"
    with pytest.raises(ParseError):
        Pattern.parse("221")
    with pytest.raises(ParseError):
        Pattern.parse("13")


def test_avoids_examples():
    p = FullPlacement((3, 1, 2))
    assert avoids(B333, p, PATTERN_231)
    assert not avoids(B333, p, PATTERN_312)
    # bounding vertex (3,3) falls outside the board, so the triple cannot count
    trimmed = Board((3, 3, 2))
    q = Placement({(1, 3), (3, 2), (2, 1)})
    assert avoids(trimmed, q, PATTERN_231)
    assert avoids(trimmed, q, PATTERN_312)


def test_avoids_validates():
    with pytest.raises(InvalidPlacement):
        avoids(B333, Placement({(1, 1), (2, 1)}), PATTERN_231)
    with pytest.raises(InvalidPlacement):
        avoids(B333, Placement({(1, 4)}), PATTERN_231)
    with pytest.raises(InvalidPlacement):
        s_grid(Board((2, 1)), FullPlacement((1, 2)))  # marker (2,2) off the board
    with pytest.raises(InvalidPlacement):
        s_sequence(Board((2, 1)), FullPlacement((1, 2)))


@given(boards_with_rook_placement())
def test_avoids_matches_border_definition(pair):
    board, placement = pair
    for pattern in (PATTERN_231, PATTERN_312, Pattern((3, 2, 1))):
        assert avoids(board, placement, pattern) == \
            avoids_by_border_definition(board, placement, pattern)


def test_s_grid_examples():
    assert s_grid(Board((2, 2)), FullPlacement((1, 2)))[Vertex(2, 2)] == 2
    assert s_grid(Board((2, 2)), FullPlacement((2, 1)))[Vertex(2, 2)] == 1
    grid = s_grid(B333, FullPlacement((3, 1, 2)))
    assert grid[Vertex(3, 3)] == 2
    assert grid[Vertex(2, 3)] == 1
    assert grid[Vertex(3, 2)] == 2


@given(boards_with_rook_placement())
def test_s_grid_matches_chain_oracle(pair):
    board, placement = pair
    grid = s_grid(board, placement)
    for v, value in grid.items():
        assert value == lis_in_rectangle(placement.markers, v.x, v.y)


@given(boards_with_rook_placement())
def test_s_grid_unit_step_monotonicity(pair):
    board, placement = pair
    grid = s_grid(board, placement)
    for (x, y), value in grid.items():
        for nxt in (Vertex(x + 1, y), Vertex(x, y + 1)):
            if nxt in grid:
                assert value <= grid[nxt] <= value + 1


@given(boards_with_rook_placement())
def test_s_grid_marker_detection(pair):
    # a square is marked exactly when its NE value exceeds both NW and SE
    board, placement = pair
    grid = s_grid(board, placement)
    for col in range(1, board.n_cols + 1):
        for row in range(1, board.heights[col - 1] + 1):
            ne = grid[Vertex(col, row)]
            nw = grid[Vertex(col - 1, row)]
            se = grid[Vertex(col, row - 1)]
            assert ((col, row) in placement.markers) == (ne == nw + 1 == se + 1)


def _top_row_blocked(markers, x, y):
    top = next(((c, r) for c, r in markers if r == y and c <= x), None)
    if top is None:
        return False
    return any(top[0] < c <= x and r <= y for c, r in markers)


@given(boards_with_full_placement(max_n=4))
def test_blocked_top_row_keeps_value(pair):
    # with a marker in the top row of R(V) and another to its right, dropping
    # the top row does not change the chain statistic (231-avoiders only)
    board, placement = pair
    if not avoids(board, placement, PATTERN_231):
        return
    grid = s_grid(board, placement)
    for (x, y), value in grid.items():
        if y >= 1 and x >= 1 and _top_row_blocked(placement.markers, x, y):
            assert grid[Vertex(x, y - 1)] == value


@pytest.mark.parametrize("heights,perm,seq", [
    ((2, 2), (1, 2), (0, 1, 2, 1, 0)),
    ((2, 1), (2, 1), (0, 1, 0, 1, 0)),
    ((3, 2, 1), (3, 2, 1), (0, 1, 0, 1, 0, 1, 0)),
])
def test_s_sequence_examples(heights, perm, seq):
    assert s_sequence(Board(heights), FullPlacement(perm)) == seq


def test_inverse_placement_examples():
    assert inverse_placement(Board((2, 2)), FullPlacement((1, 2))).perm == (1, 2)
    assert inverse_placement(Board((2, 2)), FullPlacement((2, 1))).perm == (2, 1)
    assert inverse_placement(B333, FullPlacement((3, 1, 2))).perm == (2, 3, 1)


@given(boards_with_full_placement())
def test_inverse_placement_involution(pair):
    board, placement = pair
    back = inverse_placement(board.conjugate(), inverse_placement(board, placement))
    assert back == placement


@given(boards_with_full_placement())
def test_avoidance_swaps_under_inversion(pair):
    board, placement = pair
    mirrored = inverse_placement(board, placement)
    assert avoids(board, placement, PATTERN_231) == \
        avoids(board.conjugate(), mirrored, PATTERN_312)


@given(boards_with_full_placement())
def test_sequence_reverses_under_inversion(pair):
    board, placement = pair
    mirrored = inverse_placement(board, placement)
    assert s_sequence(board.conjugate(), mirrored) == \
        tuple(reversed(s_sequence(board, placement)))


def test_parse_placement_forms():
    board = Board((2, 1))
    full = parse_placement("21", Board((2, 2)))
    assert isinstance(full, FullPlacement) and full.perm == (2, 1)
    partial = parse_placement("1:2,2:1", board)
    assert isinstance(partial, Placement) and partial.markers == {(1, 2), (2, 1)}
    assert parse_placement("", board).markers == frozenset()
    with pytest.raises(InvalidPlacement):
        parse_placement("11", Board((2, 2)))
    with pytest.raises(InvalidPlacement):
        parse_placement("1:1,2:1", board)
    with pytest.raises(ParseError):
        parse_placement("2:", board)
    with pytest.raises(ParseError):
        parse_placement("312", Board((2, 2)))


def test_format_placement():
    assert format_placement(FullPlacement((3, 1, 2))) == "312"
    board = Board((2, 2))
    assert format_placement(Placement({(1, 2), (2, 1)}), board) == "21"
    assert format_placement(Placement({(1, 2)}), board) == "1:2"
    # without a board, markers filling columns and rows 1..n print as a word
    assert format_placement(Placement({(1, 2), (2, 1)})) == "21"
    assert format_placement(Placement({(1, 2)})) == "1:2"
    assert format_placement(Placement({(1, 2), (2, 1)}), Board((3, 3, 3))) == "1:2,2:1"
    assert format_placement(FullPlacement(tuple(range(10, 0, -1)))).startswith("1:10,2:9,")


def test_full_placement_validation():
    with pytest.raises(InvalidPlacement):
        FullPlacement((1, 1))
    with pytest.raises(InvalidPlacement):
        FullPlacement((1, 2, 3)).validate_on(Board((3, 3)))  # 2-column board
    FullPlacement((3, 2, 1)).validate_on(Board((3, 2, 1)))
