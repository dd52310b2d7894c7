"""Pattern-avoiding rook placements on Ferrers boards.

Border sequences of 231- and 312-avoiding full rook placements, the
conditions characterizing them, the sequence-level bijection between the two
avoider sets, and exhaustive verification sweeps for every claim.

The sweep layer, ``rookbij.enumeration``, loads on first use: its seven
names here (``verify``, ``count_avoiders``, ...) resolve through the module
``__getattr__`` below, so ``import rookbij`` and the single-shot commands
(``sequence``, ``map``, ``check``, ``reconstruct``, ``render``,
``compact``) never compile or run it.
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

# Public names of the sweep layer, loaded from ``rookbij.enumeration`` when
# first read (PEP 562).
_ENUMERATION = frozenset({
    "SweepReport", "boards_within", "count_avoiders", "full_placements",
    "rook_placements", "valid_sequences", "verify",
})


def __getattr__(name: str):
    if name in _ENUMERATION:
        from . import enumeration

        return getattr(enumeration, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_ENUMERATION})
