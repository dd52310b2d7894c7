"""Exception types shared across the package."""


class RookbijError(Exception):
    """Base class for every domain error raised by this package."""


class ParseError(RookbijError):
    """Malformed textual input (board, placement, sequence, or pattern), or
    input past a size limit (a board too large to count or sweep)."""


class InvalidPlacement(RookbijError):
    """A placement breaks the rook conditions or leaves the board."""


class LengthMismatch(RookbijError):
    """A border sequence has the wrong length for its board."""


class OutOfRange(RookbijError):
    """A sequence value falls outside the range realizable by full placements."""


class ConditionViolation(RookbijError):
    """A precondition check (231-/312-conditions) failed."""


class ReconstructionFailure(RookbijError):
    """No placement realizes the given border sequence."""


class NotAvoider(RookbijError):
    """The input placement contains the pattern it is required to avoid."""
