import gc
import pickle
import re
import weakref

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rookbij.bijection import CompactionContext
from rookbij.board import Board, BorderPath, Vertex, _int_field, parse_board
from rookbij.conditions import ConditionReport, Violation
from rookbij.enumeration import Failure, SweepReport, boards_within, full_placements
from rookbij.errors import ParseError
from rookbij.placement import FullPlacement, Pattern, Placement
from oracles import conjugate_by_rows
from strategies import admitting_boards, boards


def test_parse_board_roundtrip():
    board = parse_board("3,2,1")
    assert board.heights == (3, 2, 1)
    assert str(board) == "3,2,1"
    assert board.n_cols == 3 and board.n_rows == 3


@pytest.mark.parametrize("text", ["", "0", "-1", "1,2", "2,x", "3,1,2",
                                  "1,,1", "3,2,1,", ",3",
                                  "1_0", "+3", "\u0663,\u0662,\u0661", "3,-", "2.0"])
def test_parse_board_rejects(text):
    with pytest.raises(ParseError):
        parse_board(text)


@given(st.text(" \t\u00a0-+_0123456789\u0663\u00b2x", max_size=6))
def test_int_field_is_whitespace_sign_and_ascii_digits(text):
    expected = int(text) if re.fullmatch(r"\s*-?[0-9]+\s*", text) else None
    try:
        got = _int_field(text)
    except ValueError:
        got = None
    assert got == expected


@pytest.mark.parametrize("heights,col,row,expected", [
    ((2, 1), 2, 2, False),
    ((2, 1), 1, 2, True),
    ((3, 3, 2), 3, 3, False),
    ((3, 3, 2), 3, 2, True),
    ((3, 3, 2), 4, 1, False),
])
def test_contains_square(heights, col, row, expected):
    assert Board(heights).contains_square(col, row) is expected


@pytest.mark.parametrize("heights,vertices,steps", [
    ((2, 2), [(0, 2), (1, 2), (2, 2), (2, 1), (2, 0)], "RRDD"),
    ((2, 1), [(0, 2), (1, 2), (1, 1), (2, 1), (2, 0)], "RDRD"),
    ((3, 2, 1), [(0, 3), (1, 3), (1, 2), (2, 2), (2, 1), (3, 1), (3, 0)], "RDRDRD"),
])
def test_border_path(heights, vertices, steps):
    path = Board(heights).border_path
    assert [tuple(v) for v in path.vertices] == vertices
    assert "".join(path.steps) == steps


@given(boards())
def test_border_path_shape(board):
    path = board.border_path
    assert len(path.vertices) == board.n_cols + board.n_rows + 1
    assert path.vertices[0] == Vertex(0, board.n_rows)
    assert path.vertices[-1] == Vertex(board.n_cols, 0)
    for v in path.vertices:
        x, y = v
        assert x == 0 or y == 0 or y <= board.heights[x - 1]


@pytest.mark.parametrize("heights,profile", [
    ((2, 2), (0, 1, 2, 1, 0)),
    ((2, 1), (0, 1, 0, 1, 0)),
    ((3, 2, 1), (0, 1, 0, 1, 0, 1, 0)),
    ((3, 3, 3), (0, 1, 2, 3, 2, 1, 0)),
])
def test_marker_count_profile(heights, profile):
    assert Board(heights).marker_count_profile == profile


@given(admitting_boards(max_n=5))
def test_profile_counts_any_full_placement(board):
    # the profile is placement-independent: check the first placement directly
    profile = board.marker_count_profile
    placement = next(full_placements(board))
    for idx, v in enumerate(board.border_path.vertices):
        inside = sum(1 for c, r in placement.markers if c <= v.x and r <= v.y)
        assert inside == profile[idx]


@pytest.mark.parametrize("heights,conj", [
    ((2, 2), (2, 2)),
    ((3, 1, 1), (3, 1, 1)),
    ((2, 1), (2, 1)),
    ((3, 2), (2, 2, 1)),
    ((4,), (1, 1, 1, 1)),
])
def test_conjugate(heights, conj):
    assert Board(heights).conjugate().heights == conj


def test_conjugate_is_a_new_board_kept_by_neither():
    board = Board((3, 2))
    conj = board.conjugate()
    assert conj == board.conjugate() and conj is not board.conjugate()
    assert board.__dict__ == {"heights": (3, 2)} and conj.__dict__ == {"heights": (2, 2, 1)}


@given(boards())
def test_conjugate_involution(board):
    assert board.conjugate().conjugate() == board


def test_conjugate_matches_row_count_within_7():
    for board in boards_within(7):
        assert board.conjugate() == conjugate_by_rows(board), board
        assert board.conjugate().conjugate() == board, board


def test_dropping_a_board_and_its_conjugate_frees_both():
    # with the cyclic collector off, dropping a board frees it and its conjugate
    collecting = gc.isenabled()
    gc.disable()
    try:
        board = Board((3, 3, 3))
        conj = board.conjugate()
        assert conj.conjugate() == board
        refs = weakref.ref(board), weakref.ref(conj)
        del board, conj
        assert [ref() for ref in refs] == [None, None]
    finally:
        if collecting:
            gc.enable()


def test_conjugate_outliving_its_board_builds_it_again():
    conj = Board((3, 2)).conjugate()
    board = conj.conjugate()
    assert board.heights == (3, 2)
    assert conj.conjugate() == board and board.conjugate() == conj


def test_boards_pickle_as_their_heights():
    board = Board((3, 2))
    conj = board.conjugate()
    for b in (board, conj):
        copy = pickle.loads(pickle.dumps(b))
        assert copy == b and copy.__dict__ == {"heights": b.heights}


# (class, field name, field value, repr) of each value class.  Board, Pattern
# and FullPlacement all take the tuple (2, 1).
VALUES = [
    (Board, "heights", (2, 1), "Board(heights=(2, 1))"),
    (Pattern, "word", (2, 1), "Pattern(word=(2, 1))"),
    (Placement, "markers", frozenset({(1, 2)}), "Placement(markers=frozenset({(1, 2)}))"),
    (FullPlacement, "perm", (2, 1), "FullPlacement(perm=(2, 1))"),
]


@pytest.mark.parametrize("cls, name, field, text", VALUES)
def test_values_compare_hash_print_and_pickle_by_their_one_field(cls, name, field, text):
    value = cls(field)
    assert getattr(value, name) == field
    assert value == cls(field) and value == cls(**{name: field})
    assert not value != cls(field)
    # equal to no value of another class, even one with an equal field
    for other_cls, _, other_field, _ in VALUES:
        if other_cls is not cls:
            assert value != other_cls(other_field)
    assert value != field and value != (field,)
    assert hash(value) == hash((field,))
    assert repr(value) == text
    for attr in (name, "other"):
        with pytest.raises(AttributeError):
            setattr(value, attr, field)
    with pytest.raises(AttributeError):
        delattr(value, name)
    assert getattr(value, name) == field
    if cls is Pattern:
        assert value.neighbours  # a cached value is not pickled
    copy = pickle.loads(pickle.dumps(value))
    assert type(copy) is cls and copy == value and copy.__dict__ == {name: field}


# One value of each record class.
RECORDS = [
    BorderPath((Vertex(0, 1), Vertex(1, 1), Vertex(1, 0)), ("R", "D")),
    Violation("zero", (0,), "border index 0 must be 0, got 1"),
    ConditionReport((Violation("zero", (0, 1), "border indices 0-1"),)),
    CompactionContext((2,), (1,), Board((1,))),
    Failure(Board((1,)), "t1", "witness"),
    SweepReport(1, (Failure(Board((1,)), "t1", "witness"),), 0.5),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_records_are_named_tuples(record):
    # they unpack, compare and hash as plain tuples of their fields
    fields = tuple(getattr(record, name) for name in record._fields)
    assert tuple(record) == fields and record == fields
    assert hash(record) == hash(fields)
    assert type(record)._make(fields) == record
    assert pickle.loads(pickle.dumps(record)) == record
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)


@given(boards())
def test_conjugate_reflects_border(board):
    # walking the conjugate border backwards retraces the original reflected
    path = board.border_path
    conj_path = board.conjugate().border_path
    reflected = [Vertex(y, x) for (x, y) in reversed(conj_path.vertices)]
    assert list(path.vertices) == reflected
    swap = {"R": "D", "D": "R"}
    assert list(path.steps) == [swap[s] for s in reversed(conj_path.steps)]


def _vertex_pairs(board):
    verts = board.border_path.vertices
    return {(tuple(verts[i]), tuple(verts[j])) for i, j in board.diagonal_pairs}


def test_diagonal_pairs_small_boards():
    assert _vertex_pairs(Board((2, 1))) == {
        ((0, 2), (1, 1)), ((1, 1), (2, 0)), ((0, 2), (2, 0))}
    assert _vertex_pairs(Board((3, 3, 3))) == {
        ((0, 3), (3, 0)), ((1, 3), (3, 1)), ((2, 3), (3, 2))}
    pairs = _vertex_pairs(Board((3, 3, 2)))
    assert ((1, 3), (3, 1)) in pairs
    assert ((2, 3), (3, 2)) not in pairs  # square (3,3) is missing


@given(boards())
def test_diagonal_pairs_geometry(board):
    verts = board.border_path.vertices
    for i, j in board.diagonal_pairs:
        (x1, y1), (x2, y2) = verts[i], verts[j]
        d = x2 - x1
        assert i < j and d >= 1 and y1 - y2 == d
        assert all(board.contains_square(x1 + k + 1, y1 - k) for k in range(d))


@given(boards())
def test_diagonal_pairs_profile_equal(board):
    profile = board.marker_count_profile
    for i, j in board.diagonal_pairs:
        assert profile[i] == profile[j]


@given(boards())
def test_diagonal_pairs_conjugation_symmetry(board):
    conj = board.conjugate()
    verts = conj.border_path.vertices
    reflected = set()
    for i, j in conj.diagonal_pairs:
        (x1, y1), (x2, y2) = verts[i], verts[j]
        reflected.add(((y2, x2), (y1, x1)))
    assert _vertex_pairs(board) == reflected


@pytest.mark.parametrize("heights,expected", [
    ((3, 1, 1), False),
    ((3, 2, 1), True),
    ((2, 2), True),
    ((2, 1), True),
    ((1, 1), False),   # more columns than rows
    ((3, 3), False),   # more rows than columns
])
def test_admits_full_placement(heights, expected):
    assert Board(heights).admits_full_placement() is expected


@given(boards(max_n=4))
def test_admits_matches_backtracking(board):
    assert board.admits_full_placement() == (next(full_placements(board), None) is not None)
