"""Command-line front end.

Exit codes: 0 success/pass, 1 domain-level failure (pattern present,
condition violated, sweep counterexample), 2 malformed input.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from .bijection import _side, compact
from .board import Board, parse_board
from .conditions import format_sequence, parse_sequence
from .enumeration import (
    THEOREM_TAGS,
    SweepReport,
    count_avoiders,
    default_sweep,
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
)
from .placement import (
    PATTERN_231,
    PATTERN_312,
    Pattern,
    Placement,
    _permutation_rows,
    format_placement,
    parse_placement,
    s_sequence,
)

_INPUT_ERRORS = (ParseError, InvalidPlacement, LengthMismatch)
_DOMAIN_ERRORS = (NotAvoider, ConditionViolation, ReconstructionFailure, OutOfRange)


def _emit_json(obj) -> None:
    print(json.dumps(obj, separators=(",", ":")))


def _placement_json(placement, board: Board):
    rows = _permutation_rows(placement, board)
    return rows if rows is not None else [[c, r] for c, r in sorted(placement.markers)]


def cmd_sequence(args) -> int:
    board = parse_board(args.board)
    placement = parse_placement(args.placement, board)
    seq = s_sequence(board, placement)
    if args.json:
        _emit_json({"board": list(board.heights),
                    "placement": _placement_json(placement, board),
                    "sequence": list(seq)})
    else:
        print(format_sequence(seq))
    return 0


def cmd_map(args) -> int:
    board = parse_board(args.board)
    placement = parse_placement(args.placement, board)
    direction = "alpha" if args.alpha else "beta"
    # Compacting a full placement is the identity, so one map serves both kinds.
    image = _side(PATTERN_231 if args.alpha else PATTERN_312).map_general(board, placement)
    if args.json:
        _emit_json({"board": list(board.heights),
                    "placement": _placement_json(placement, board),
                    "direction": direction,
                    "image": _placement_json(image, board)})
    else:
        print(format_placement(image, board))
    return 0


def cmd_check(args) -> int:
    board = parse_board(args.board)
    seq = parse_sequence(args.seq)
    report = _side(Pattern.parse(args.pattern)).check(board, seq)
    if args.json:
        _emit_json({"board": list(board.heights), "sequence": list(seq),
                    "pattern": args.pattern, "verdict": report.verdict,
                    "violations": [{"kind": v.kind, "indices": list(v.indices),
                                    "detail": v.detail} for v in report.violations]})
    else:
        if report.verdict:
            print("pass")
        else:
            for line in report.lines():
                print(line)
    return 0 if report.verdict else 1


def cmd_reconstruct(args) -> int:
    board = parse_board(args.board)
    seq = parse_sequence(args.seq)
    placement = _side(Pattern.parse(args.pattern)).reconstruct(board, seq)
    if args.json:
        _emit_json({"board": list(board.heights), "sequence": list(seq),
                    "pattern": args.pattern,
                    "placement": _placement_json(placement, board)})
    else:
        print(format_placement(placement, board))
    return 0


def cmd_count(args) -> int:
    board = parse_board(args.board)
    pattern = Pattern.parse(args.pattern)
    count = count_avoiders(board, pattern)
    if args.json:
        _emit_json({"board": list(board.heights), "pattern": args.pattern, "count": count})
    else:
        print(count)
    return 0


def _render_lines(board: Board, placement) -> list[str]:
    markers = placement.markers if placement is not None else frozenset()
    lines = []
    for row in range(board.n_rows, 0, -1):
        cells = []
        for col in range(1, board.n_cols + 1):
            if (col, row) in markers:
                cells.append("X")
            elif board.contains_square(col, row):
                cells.append(".")
            else:
                cells.append(" ")
        lines.append("".join(cells).rstrip())
    return lines


def cmd_render(args) -> int:
    board = parse_board(args.board)
    placement = None
    if args.placement is not None:
        placement = parse_placement(args.placement, board)
    lines = _render_lines(board, placement)
    annotation = None
    if args.annotate:
        seq = s_sequence(board, placement if placement is not None else Placement(frozenset()))
        annotation = format_sequence(seq)
    if args.json:
        payload = {"board": list(board.heights),
                   "placement": _placement_json(placement, board) if placement else None,
                   "grid": lines}
        if annotation is not None:
            payload["border_values"] = annotation
        _emit_json(payload)
    else:
        for line in lines:
            print(line)
        if annotation is not None:
            print(f"border: {annotation}")
    return 0


def cmd_compact(args) -> int:
    board = parse_board(args.board)
    placement = parse_placement(args.placement, board)
    context, full = compact(board, placement)
    compact_heights = list(context.compact_board.heights) if context.compact_board else []
    if args.json:
        _emit_json({"board": list(board.heights),
                    "placement": _placement_json(placement, board),
                    "cols": list(context.occupied_cols),
                    "rows": list(context.occupied_rows),
                    "compact_board": compact_heights,
                    "compact_placement": list(full.perm)})
    else:
        print(f"cols={','.join(map(str, context.occupied_cols))} "
              f"rows={','.join(map(str, context.occupied_rows))} "
              f"board={','.join(map(str, compact_heights))} "
              f"placement={full}")
    return 0


def cmd_verify(args) -> int:
    if args.max_n is not None and args.max_n < 1:
        raise ParseError("--max-n must be at least 1")
    if args.parallel < 1:
        raise ParseError("--parallel must be at least 1")
    tags = THEOREM_TAGS if args.theorem == "all" else (args.theorem,)
    reports: list[tuple[str, SweepReport]] = []
    for tag in tags:
        if args.board is not None:
            boards = [parse_board(args.board)]
        else:
            boards = default_sweep(tag, args.max_n)
        reports.append((tag, verify(boards, tag, parallel=args.parallel)))
    ok = all(report.passed for _, report in reports)
    if args.json:
        _emit_json({"theorem": args.theorem,
                    "max_n": args.max_n,
                    "board": args.board,
                    "reports": [{"theorem": tag,
                                 "boards": report.boards_checked,
                                 "failures": [{"board": str(f.board), "witness": f.witness}
                                              for f in report.failures]}
                                for tag, report in reports],
                    "ok": ok})
    else:
        print(f"{'theorem':<8} {'boards':>7} {'failures':>9} {'elapsed':>9}")
        for tag, report in reports:
            print(f"{tag:<8} {report.boards_checked:>7} {len(report.failures):>9} "
                  f"{report.elapsed:>8.2f}s")
        for _, report in reports:
            for f in report.failures:
                print(f"FAIL {f.theorem} board {f.board}: {f.witness}")
    return 0 if ok else 1


@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rookbij",
        description="Pattern-avoiding rook placements on Ferrers boards: "
                    "border sequences, condition checks, and the 231/312 bijection.")
    sub = parser.add_subparsers(dest="command", required=True)

    def board_arg(p):
        p.add_argument("--board", required=True, help="column heights, e.g. 3,2,1")

    def json_arg(p):
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")

    p = sub.add_parser("sequence", help="border sequence of a placement")
    board_arg(p)
    p.add_argument("--placement", required=True, help="permutation word or col:row pairs")
    json_arg(p)
    p.set_defaults(func=cmd_sequence)

    p = sub.add_parser("map", help="apply the 231<->312 bijection to a placement")
    board_arg(p)
    p.add_argument("--placement", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--alpha", action="store_true", help="231-avoider to 312-avoider")
    group.add_argument("--beta", action="store_true", help="312-avoider to 231-avoider")
    json_arg(p)
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("check", help="run the 231- or 312-conditions on a sequence")
    board_arg(p)
    p.add_argument("--seq", required=True, help="comma-separated values, e.g. 0,1,2,1,0")
    p.add_argument("--pattern", required=True, choices=("231", "312"))
    json_arg(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("reconstruct", help="rebuild the avoiding placement of a sequence")
    board_arg(p)
    p.add_argument("--seq", required=True)
    p.add_argument("--pattern", required=True, choices=("231", "312"))
    json_arg(p)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("count", help="count full placements avoiding a pattern")
    board_arg(p)
    p.add_argument("--pattern", required=True, help="any permutation word, e.g. 231 or 321")
    json_arg(p)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("verify", help="run exhaustive verification sweeps")
    p.add_argument("--board", help="verify a single board instead of a sweep")
    p.add_argument("--max-n", type=int, default=None, help="sweep bound (boards within n-by-n)")
    p.add_argument("--theorem", default="all", choices=THEOREM_TAGS + ("all",))
    p.add_argument("--parallel", type=int, default=1, help="worker processes (speed only)")
    json_arg(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("render", help="draw a board and placement as ASCII")
    board_arg(p)
    p.add_argument("--placement", default=None)
    p.add_argument("--annotate", action="store_true", help="also print the border sequence")
    json_arg(p)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("compact", help="delete empty rows/columns of a placement")
    board_arg(p)
    p.add_argument("--placement", required=True)
    json_arg(p)
    p.set_defaults(func=cmd_compact)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _DOMAIN_ERRORS as exc:
        print(str(exc))
        return 1


if __name__ == "__main__":
    sys.exit(main())
