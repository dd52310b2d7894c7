"""Pattern-avoiding rook placements on Ferrers boards.

Border sequences of 231- and 312-avoiding full rook placements, the
conditions characterizing them, the sequence-level bijection between the two
avoider sets, and exhaustive verification sweeps for every claim.
"""

from .bijection import (
    CompactionContext,
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
from .board import Board, BorderPath, Vertex, parse_board
from .conditions import (
    ConditionReport,
    Violation,
    check_231,
    check_312,
    format_sequence,
    parse_sequence,
)
from .enumeration import (
    SweepReport,
    boards_within,
    count_avoiders,
    full_placements,
    rook_placements,
    valid_sequences,
    verify,
)
from .errors import (
    ConditionViolation,
    InvalidPlacement,
    LengthMismatch,
    NotAvoider,
    OutOfRange,
    ParseError,
    ReconstructionFailure,
    RookbijError,
)
from .placement import (
    PATTERN_231,
    PATTERN_312,
    FullPlacement,
    Pattern,
    Placement,
    avoids,
    format_placement,
    inverse_placement,
    parse_placement,
    pattern_witness,
    s_sequence,
)

__version__ = "0.1.0"

__all__ = [
    "Board", "BorderPath", "Vertex", "parse_board",
    "Placement", "FullPlacement", "Pattern", "PATTERN_231", "PATTERN_312",
    "avoids", "pattern_witness", "s_sequence", "inverse_placement",
    "parse_placement", "format_placement",
    "ConditionReport", "Violation", "check_231", "check_312",
    "parse_sequence", "format_sequence",
    "plus_transform", "reconstruct_231", "reconstruct_312",
    "alpha", "beta", "alpha_general", "beta_general",
    "compact", "expand", "CompactionContext",
    "full_placements", "count_avoiders", "rook_placements", "boards_within",
    "valid_sequences", "verify", "SweepReport",
    "RookbijError", "ParseError", "InvalidPlacement", "LengthMismatch",
    "OutOfRange", "ConditionViolation", "ReconstructionFailure", "NotAvoider",
]
