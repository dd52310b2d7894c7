"""Command-line front end.

Exit codes: 0 success/pass, 1 domain-level failure (pattern present,
condition violated, sweep counterexample), 2 malformed input.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from typing import Callable

from .bijection import (
    alpha_general,
    beta_general,
    compact,
    reconstruct_231,
    reconstruct_312,
)
from .board import Board, _int_field, parse_board
from .conditions import check_231, check_312, format_sequence, parse_sequence
from .errors import (
    ConditionViolation,
    InvalidPlacement,
    LengthMismatch,
    NotAvoider,
    OutOfRange,
    ParseError,
    ReconstructionFailure,
)
from .placement import (
    Pattern,
    Placement,
    _permutation_rows,
    format_placement,
    parse_placement,
    s_sequence,
)

_INPUT_ERRORS = (ParseError, InvalidPlacement, LengthMismatch)
_DOMAIN_ERRORS = (NotAvoider, ConditionViolation, ReconstructionFailure, OutOfRange)

# verify's --theorem choices: ``enumeration.THEOREM_TAGS`` and "all", written
# out because the parser is built for every command and only count and verify
# load the sweep layer (each imports it in its body, at call time).
_THEOREM_CHOICES = ("l1", "t1", "t2", "t4", "remark", "all")


def int_option(text: str) -> int:
    """argparse ``type=`` for integer options: the rule of every integer input
    field (``board._int_field``), so ``+1``, ``1_0`` and ``٢`` are refused."""
    try:
        return _int_field(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _placement_json(placement, board: Board):
    rows = _permutation_rows(placement, board)
    return rows if rows is not None else [[c, r] for c, r in sorted(placement.markers)]


# Each command takes the parsed arguments and the parsed --board (None for
# verify) and returns its exit code, its text lines and a zero-argument
# callable building its JSON fields, so text output does no JSON work.
_Result = tuple[int, list[str], Callable[[], dict]]


def cmd_sequence(args, board: Board) -> _Result:
    placement = parse_placement(args.placement, board)
    seq = s_sequence(board, placement)
    return 0, [format_sequence(seq)], lambda: {
        "placement": _placement_json(placement, board),
        "sequence": list(seq)}


def cmd_map(args, board: Board) -> _Result:
    placement = parse_placement(args.placement, board)
    direction = "alpha" if args.alpha else "beta"
    # Compacting a full placement is the identity, so one map serves both kinds.
    image = (alpha_general if args.alpha else beta_general)(board, placement)
    return 0, [format_placement(image, board)], lambda: {
        "placement": _placement_json(placement, board),
        "direction": direction,
        "image": _placement_json(image, board)}


def cmd_check(args, board: Board) -> _Result:
    seq = parse_sequence(args.seq)
    report = (check_231 if args.pattern == "231" else check_312)(board, seq)
    return 0 if report.verdict else 1, report.lines() or ["pass"], lambda: {
        "sequence": list(seq), "pattern": args.pattern, "verdict": report.verdict,
        "violations": [{"kind": v.kind, "indices": list(v.indices), "detail": v.detail}
                       for v in report.violations]}


def cmd_reconstruct(args, board: Board) -> _Result:
    seq = parse_sequence(args.seq)
    placement = (reconstruct_231 if args.pattern == "231" else reconstruct_312)(board, seq)
    return 0, [format_placement(placement, board)], lambda: {
        "sequence": list(seq), "pattern": args.pattern,
        "placement": _placement_json(placement, board)}


def cmd_count(args, board: Board) -> _Result:
    from .enumeration import count_avoiders

    count = count_avoiders(board, Pattern.parse(args.pattern))
    return 0, [str(count)], lambda: {"pattern": args.pattern, "count": count}


def cmd_render(args, board: Board) -> _Result:
    placement = None if args.placement is None else parse_placement(args.placement, board)
    shown = placement if placement is not None else Placement(frozenset())
    markers = shown.markers
    grid = []
    for row in range(board.n_rows, 0, -1):
        cells = []
        for col in range(1, board.n_cols + 1):
            if (col, row) in markers:
                cells.append("X")
            elif board.contains_square(col, row):
                cells.append(".")
            else:
                cells.append(" ")
        grid.append("".join(cells).rstrip())
    border = format_sequence(s_sequence(board, shown)) if args.annotate else None
    lines = grid if border is None else [*grid, f"border: {border}"]

    def fields():
        out = {"placement": _placement_json(placement, board) if placement is not None else None,
               "grid": grid}
        if border is not None:
            out["border_values"] = border
        return out

    return 0, lines, fields


def cmd_compact(args, board: Board) -> _Result:
    placement = parse_placement(args.placement, board)
    context, full = compact(board, placement)
    compact_heights = list(context.compact_board.heights) if context.compact_board else []
    line = (f"cols={','.join(map(str, context.occupied_cols))} "
            f"rows={','.join(map(str, context.occupied_rows))} "
            f"board={','.join(map(str, compact_heights))} "
            f"placement={format_placement(full, context.compact_board)}")
    return 0, [line], lambda: {
        "placement": _placement_json(placement, board),
        "cols": list(context.occupied_cols),
        "rows": list(context.occupied_rows),
        "compact_board": compact_heights,
        "compact_placement": list(full.perm)}


def cmd_verify(args, _board: None) -> _Result:
    from .enumeration import (
        THEOREM_TAGS,
        _require_sweep_bound,
        _require_workers,
        default_sweep,
        verify,
    )

    if args.max_n is not None:
        _require_sweep_bound(args.max_n)
    _require_workers(args.parallel)
    board = parse_board(args.board) if args.board is not None else None
    tags = THEOREM_TAGS if args.theorem == "all" else (args.theorem,)
    reports = []
    for tag in tags:
        boards = board if board is not None else default_sweep(tag, args.max_n)
        reports.append((tag, verify(boards, tag, parallel=args.parallel)))
    ok = all(report.passed for _, report in reports)
    lines = [f"{'theorem':<8} {'boards':>7} {'failures':>9} {'elapsed':>9}"]
    for tag, report in reports:
        lines.append(f"{tag:<8} {report.boards_checked:>7} {len(report.failures):>9} "
                     f"{report.elapsed:>8.2f}s")
    for _, report in reports:
        for f in report.failures:
            lines.append(f"FAIL {f.theorem} board {f.board}: {f.witness}")
    return 0 if ok else 1, lines, lambda: {
        "theorem": args.theorem,
        "max_n": args.max_n,
        "board": list(board.heights) if board is not None else None,
        "reports": [{"theorem": tag, "boards": report.boards_checked,
                     "failures": [{"board": str(f.board), "witness": f.witness}
                                  for f in report.failures]}
                    for tag, report in reports],
        "ok": ok}


@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rookbij",
        description="Pattern-avoiding rook placements on Ferrers boards: "
                    "border sequences, condition checks, and the 231/312 bijection.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, board=True):
        p = sub.add_parser(name, help=summary)
        if board:
            p.add_argument("--board", required=True, help="column heights, e.g. 3,2,1")
        p.set_defaults(func=func)
        return p

    p = command("sequence", cmd_sequence, "border sequence of a placement")
    p.add_argument("--placement", required=True, help="permutation word or col:row pairs")

    p = command("map", cmd_map, "apply the 231<->312 bijection to a placement")
    p.add_argument("--placement", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--alpha", action="store_true", help="231-avoider to 312-avoider")
    group.add_argument("--beta", action="store_true", help="312-avoider to 231-avoider")

    p = command("check", cmd_check, "run the 231- or 312-conditions on a sequence")
    p.add_argument("--seq", required=True, help="comma-separated values, e.g. 0,1,2,1,0")
    p.add_argument("--pattern", required=True, choices=("231", "312"))

    p = command("reconstruct", cmd_reconstruct, "rebuild the avoiding placement of a sequence")
    p.add_argument("--seq", required=True)
    p.add_argument("--pattern", required=True, choices=("231", "312"))

    p = command("count", cmd_count, "count full placements avoiding a pattern")
    p.add_argument("--pattern", required=True, help="any permutation word, e.g. 231 or 321")

    p = command("verify", cmd_verify, "run exhaustive verification sweeps", board=False)
    p.add_argument("--board", help="verify a single board instead of a sweep")
    p.add_argument("--max-n", type=int_option, default=None,
                   help="sweep bound (boards within n-by-n)")
    p.add_argument("--theorem", default="all", choices=_THEOREM_CHOICES)
    p.add_argument("--parallel", type=int_option, default=1, help="worker processes (speed only)")

    p = command("render", cmd_render, "draw a board and placement as ASCII")
    p.add_argument("--placement", default=None)
    p.add_argument("--annotate", action="store_true", help="also print the border sequence")

    p = command("compact", cmd_compact, "delete empty rows/columns of a placement")
    p.add_argument("--placement", required=True)

    for p in sub.choices.values():
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        # verify checks its other options before its optional --board.
        board = None if args.func is cmd_verify else parse_board(args.board)
        code, lines, fields = args.func(args, board)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _DOMAIN_ERRORS as exc:
        print(str(exc))
        return 1
    if args.json:
        import json  # only here: text output never needs it

        head = {"board": list(board.heights)} if board is not None else {}
        print(json.dumps({**head, **fields()}, separators=(",", ":")))
    else:
        print(*lines, sep="\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
