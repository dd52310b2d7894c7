"""Hypothesis strategies and seeded random draws shared by the test suite."""

from hypothesis import strategies as st

from rookbij.board import Board
from rookbij.enumeration import full_placements, rook_placements


@st.composite
def boards(draw, max_n: int = 6):
    heights = draw(st.lists(st.integers(1, max_n), min_size=1, max_size=max_n))
    return Board(tuple(sorted(heights, reverse=True)))


@st.composite
def admitting_boards(draw, max_n: int = 5):
    # heights[i] >= n - i guarantees a full placement exists
    n = draw(st.integers(1, max_n))
    heights = sorted((draw(st.integers(n - i, n)) for i in range(n)), reverse=True)
    return Board(tuple(heights))


@st.composite
def boards_with_full_placement(draw, max_n: int = 4):
    board = draw(admitting_boards(max_n))
    placement = draw(st.sampled_from(list(full_placements(board))))
    return board, placement


@st.composite
def boards_with_rook_placement(draw, max_n: int = 4):
    board = draw(boards(max_n))
    placement = draw(st.sampled_from(list(rook_placements(board))))
    return board, placement


def random_231_avoider(rng, values):
    """A 231-avoiding arrangement of the increasing list ``values``, drawn by
    the largest value's split: it goes anywhere, every value on its left is
    below every value on its right, and each side is drawn alike."""
    if not values:
        return []
    m = rng.randrange(len(values))
    left, right = random_231_avoider(rng, values[:m]), random_231_avoider(rng, values[m:-1])
    return left + [values[-1]] + right


def random_board_above(rng, perm):
    """A square-bounded board holding the full placement ``perm``: each column
    at most as tall as the one before and at least as tall as every marker
    from it rightward."""
    heights, height = [], len(perm)
    for c in range(len(perm)):
        height = rng.randint(max(perm[c:]), height)
        heights.append(height)
    return Board(tuple(heights))
