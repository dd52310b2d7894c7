import io
import json
import os
import re
import resource
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rookbij.board import Board
from rookbij.cli import main
from rookbij.enumeration import (
    MAX_FILTERED_PLACEMENTS,
    THEOREM_TAGS,
    boards_within,
    full_placement_count,
    full_placements,
)
from rookbij.placement import PATTERN_231, avoids, format_placement
from strategies import boards

SRC = Path(__file__).resolve().parents[1] / "src"


def _child_env():
    """The environment of a child CLI process, with ``src`` on its import path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_sequence_golden(capsys):
    code, out, _ = run(capsys, "sequence", "--board", "2,2", "--placement", "12")
    assert (code, out) == (0, "0,1,2,1,0\n")
    code, out, _ = run(capsys, "sequence", "--board", "2,1", "--placement", "1:2,2:1")
    assert (code, out) == (0, "0,1,0,1,0\n")


def test_sequence_rejects_bad_placement(capsys):
    code, out, err = run(capsys, "sequence", "--board", "2,2", "--placement", "11")
    assert code == 2 and out == "" and err.startswith("error:")


def test_sequence_json_golden(capsys):
    code, out, _ = run(capsys, "sequence", "--board", "2,2", "--placement", "12", "--json")
    assert code == 0
    assert out == '{"board":[2,2],"placement":[1,2],"sequence":[0,1,2,1,0]}\n'


JSON_GOLDEN_CASES = [
    (["map", "--board", "3,3,3", "--placement", "123", "--alpha"], 0,
     '{"board":[3,3,3],"placement":[1,2,3],"direction":"alpha","image":[3,2,1]}'),
    (["map", "--board", "3,3,3", "--placement", "1:1,2:2", "--alpha"], 0,
     '{"board":[3,3,3],"placement":[[1,1],[2,2]],"direction":"alpha","image":[[1,2],[2,1]]}'),
    (["check", "--board", "2,2", "--seq", "0,1,2,1,0", "--pattern", "231"], 0,
     '{"board":[2,2],"sequence":[0,1,2,1,0],"pattern":"231","verdict":true,"violations":[]}'),
    (["check", "--board", "3,3,3", "--seq", "0,1,1,2,2,1,0", "--pattern", "312"], 1,
     '{"board":[3,3,3],"sequence":[0,1,1,2,2,1,0],"pattern":"312","verdict":false,'
     '"violations":[{"kind":"diagonal","indices":[2,4],"detail":"(2,3)>(3,2)"}]}'),
    (["reconstruct", "--board", "3,3,3", "--seq", "0,1,2,3,2,1,0", "--pattern", "231"], 0,
     '{"board":[3,3,3],"sequence":[0,1,2,3,2,1,0],"pattern":"231","placement":[1,2,3]}'),
    (["count", "--board", "4,4,4,4", "--pattern", "312"], 0,
     '{"board":[4,4,4,4],"pattern":"312","count":14}'),
    (["compact", "--board", "3,3,3", "--placement", "1:3,3:1"], 0,
     '{"board":[3,3,3],"placement":[[1,3],[3,1]],"cols":[1,3],"rows":[1,3],'
     '"compact_board":[2,2],"compact_placement":[2,1]}'),
    (["compact", "--board", "3,3,3", "--placement", ""], 0,
     '{"board":[3,3,3],"placement":[],"cols":[],"rows":[],"compact_board":[],'
     '"compact_placement":[]}'),
    # no --placement prints null, the empty placement prints []
    (["render", "--board", "3,2,1"], 0,
     '{"board":[3,2,1],"placement":null,"grid":[".","..","..."]}'),
    (["render", "--board", "3,2,1", "--placement", ""], 0,
     '{"board":[3,2,1],"placement":[],"grid":[".","..","..."]}'),
    (["render", "--board", "2,2", "--placement", "12", "--annotate"], 0,
     '{"board":[2,2],"placement":[1,2],"grid":[".X","X."],"border_values":"0,1,2,1,0"}'),
    (["verify", "--board", "3,3,3"], 0,
     '{"theorem":"all","max_n":null,"board":[3,3,3],"reports":['
     '{"theorem":"l1","boards":1,"failures":[]},{"theorem":"t1","boards":1,"failures":[]},'
     '{"theorem":"t2","boards":1,"failures":[]},{"theorem":"t4","boards":1,"failures":[]},'
     '{"theorem":"remark","boards":1,"failures":[]}],"ok":true}'),
]


@pytest.mark.parametrize("argv,code,out", JSON_GOLDEN_CASES)
def test_json_golden(capsys, argv, code, out):
    assert run(capsys, *argv, "--json") == (code, out + "\n", "")


def test_text_output_builds_no_json(capsys, monkeypatch):
    # the JSON fields are built lazily, so text output does not pay for them
    def fail(*_):
        raise AssertionError("JSON built for text output")

    monkeypatch.setattr("rookbij.cli._placement_json", fail)
    for argv, code, _ in JSON_GOLDEN_CASES:
        assert run(capsys, *argv)[0] == code, argv


def test_map_golden(capsys):
    code, out, _ = run(capsys, "map", "--board", "3,3,3", "--placement", "123", "--alpha")
    assert (code, out) == (0, "321\n")
    code, out, _ = run(capsys, "map", "--board", "3,3,3", "--placement", "321", "--beta")
    assert (code, out) == (0, "123\n")


def test_map_312_avoids_231(capsys):
    code, out, _ = run(capsys, "map", "--board", "3,3,3", "--placement", "312", "--alpha")
    assert code == 0
    code, out, _ = run(capsys, "map", "--board", "3,3,3", "--placement", "231", "--alpha")
    assert code == 1
    assert "contains 231" in out


def test_map_beta_inverts_alpha(capsys):
    code, out, _ = run(capsys, "map", "--board", "3,3,3", "--placement", "312", "--alpha")
    image = out.strip()
    code, out, _ = run(capsys, "map", "--board", "3,3,3", "--placement", image, "--beta")
    assert (code, out.strip()) == (0, "312")


def test_map_partial(capsys):
    code, out, _ = run(capsys, "map", "--board", "3,3,3", "--placement", "1:1,2:2", "--alpha")
    assert (code, out) == (0, "1:2,2:1\n")
    code, out, _ = run(capsys, "map", "--board", "3,3,3", "--placement", "1:2,2:1", "--beta")
    assert (code, out) == (0, "1:1,2:2\n")


def test_map_round_trips_for_every_avoider_within_4(capsys):
    for board in boards_within(4, full_only=True):
        board_arg = str(board)
        for p in full_placements(board):
            if not avoids(board, p, PATTERN_231):
                continue
            word = format_placement(p, board)
            code, out, _ = run(capsys, "map", "--board", board_arg,
                               "--placement", word, "--alpha")
            assert code == 0
            code, out, _ = run(capsys, "map", "--board", board_arg,
                               "--placement", out.strip(), "--beta")
            assert code == 0 and out.strip() == word


def test_check_golden(capsys):
    code, out, _ = run(capsys, "check", "--board", "2,2", "--seq", "0,1,2,1,0",
                       "--pattern", "231")
    assert (code, out) == (0, "pass\n")
    code, out, _ = run(capsys, "check", "--board", "2,2", "--seq", "0,0,1,1,0",
                       "--pattern", "231")
    assert (code, out) == (1, "ZERO at border indices 0-1\n")
    code, out, _ = run(capsys, "check", "--board", "3,3,3", "--seq", "0,1,1,2,2,1,0",
                       "--pattern", "312")
    assert (code, out) == (1, "DIAGONAL at (2,3)>(3,2)\n")


def test_reconstruct_golden(capsys):
    code, out, _ = run(capsys, "reconstruct", "--board", "3,3,3",
                       "--seq", "0,1,2,3,2,1,0", "--pattern", "231")
    assert (code, out) == (0, "123\n")


def test_reconstruct_rejects_bad_sequence(capsys):
    code, out, _ = run(capsys, "reconstruct", "--board", "2,2",
                       "--seq", "0,0,1,1,0", "--pattern", "231")
    assert code == 1 and "ZERO" in out
    code, _, err = run(capsys, "reconstruct", "--board", "2,2",
                       "--seq", "0,1,0", "--pattern", "231")
    assert code == 2 and err


def test_count_golden(capsys):
    code, out, _ = run(capsys, "count", "--board", "4,4,4,4", "--pattern", "312")
    assert (code, out) == (0, "14\n")
    code, out, _ = run(capsys, "count", "--board", "3,3,3", "--pattern", "321")
    assert (code, out) == (0, "5\n")


def test_render_golden(capsys):
    code, out, _ = run(capsys, "render", "--board", "2,1", "--placement", "1:2,2:1")
    assert (code, out) == (0, "X\n.X\n")
    code, out, _ = run(capsys, "render", "--board", "3,2,1")
    assert (code, out) == (0, ".\n..\n...\n")


def test_render_annotate(capsys):
    code, out, _ = run(capsys, "render", "--board", "2,2", "--placement", "12",
                       "--annotate")
    assert (code, out) == (0, ".X\nX.\nborder: 0,1,2,1,0\n")
    code, out, _ = run(capsys, "render", "--board", "3,2,1", "--annotate")
    assert (code, out) == (0, ".\n..\n...\nborder: 0,0,0,0,0,0,0\n")


def test_compact_golden(capsys):
    code, out, _ = run(capsys, "compact", "--board", "3,3,3", "--placement", "1:3,3:1")
    assert (code, out) == (0, "cols=1,3 rows=1,3 board=2,2 placement=21\n")
    code, out, _ = run(capsys, "compact", "--board", "3,3,3", "--placement", "")
    assert (code, out) == (0, "cols= rows= board= placement=\n")


def test_compact_prints_ten_or_more_columns_as_pairs(capsys):
    # a compacted placement prints as every placement does: a permutation
    # word only up to 9 columns, col:row pairs beyond
    side = ",".join(["11"] * 11)
    pairs = ",".join(f"{c}:{12 - c}" for c in range(1, 12))
    ranks = ",".join(map(str, range(1, 12)))
    code, out, _ = run(capsys, "compact", "--board", side, "--placement", pairs)
    assert (code, out) == (0, f"cols={ranks} rows={ranks} board={side} placement={pairs}\n")


def test_verify_single_board(capsys):
    code, out, _ = run(capsys, "verify", "--board", "3,3,3", "--theorem", "t4")
    assert code == 0
    assert "t4" in out and "0" in out


def test_verify_sweep_small(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split() == ["theorem", "boards", "failures", "elapsed"]
    assert len(lines) == 6  # header + one row per tag


def _mask_elapsed(text):
    return re.sub(r" +[0-9]+\.[0-9]{2}s$", " <elapsed>", text, flags=re.M)


def test_verify_table_golden(capsys):
    code, out, err = run(capsys, "verify", "--board", "3,3,3")
    assert (code, _mask_elapsed(out), err) == (0, (
        "theorem   boards  failures   elapsed\n"
        "l1             1         0 <elapsed>\n"
        "t1             1         0 <elapsed>\n"
        "t2             1         0 <elapsed>\n"
        "t4             1         0 <elapsed>\n"
        "remark         1         0 <elapsed>\n"), "")
    code, out, err = run(capsys, "verify", "--max-n", "2", "--theorem", "t1")
    assert (code, _mask_elapsed(out), err) == (0, (
        "theorem   boards  failures   elapsed\n"
        "t1             3         0 <elapsed>\n"), "")


def test_unknown_flags_exit_2(capsys):
    assert run(capsys, "count", "--board", "3,3,3")[0] == 2
    assert run(capsys, "bogus")[0] == 2
    assert run(capsys, "check", "--board", "2,2", "--seq", "0,1,2,1,0",
               "--pattern", "213")[0] == 2


def test_malformed_inputs_exit_2(capsys):
    assert run(capsys, "sequence", "--board", "2,3", "--placement", "12")[0] == 2
    assert run(capsys, "sequence", "--board", "2,2", "--placement", "1:5")[0] == 2
    assert run(capsys, "check", "--board", "2,2", "--seq", "0,1,x",
               "--pattern", "231")[0] == 2
    assert run(capsys, "count", "--board", "2,2", "--pattern", "122")[0] == 2
    assert run(capsys, "verify", "--max-n", "0")[0] == 2
    assert run(capsys, "verify", "--max-n", "2", "--parallel", "0")[0] == 2
    # integer options follow the integer field rule too
    for option, value in (("--max-n", "\u0662"), ("--max-n", "1_0"), ("--parallel", "+1")):
        code, out, err = run(capsys, "verify", "--max-n", "2", option, value)
        assert (code, out) == (2, "") and \
            err.endswith(f"error: argument {option}: invalid int value: {value!r}\n"), value
    # rejected by size before anything is allocated
    assert run(capsys, "sequence", "--board", "9" * 20, "--placement", "")[0] == 2
    assert run(capsys, "sequence", "--board", ",".join(["1"] * 1001), "--placement", "")[0] == 2
    # digits that str.isdigit passes but int() rejects
    assert run(capsys, "sequence", "--board", "1", "--placement", "\u00b2")[0] == 2
    assert run(capsys, "count", "--board", "1", "--pattern", "\u00b2")[0] == 2
    # an empty height field is malformed, not skipped
    for board in ("1,,1", "3,2,1,", ",3"):
        code, out, err = run(capsys, "sequence", "--board", board, "--placement", "")
        assert (code, out) == (2, "") and err.startswith("error: bad board"), board
    # an integer field is ASCII digits with an optional leading "-": no "_", "+"
    # or non-ASCII digits, which int() alone would accept
    for board in ("1_0", "+3", "\u0663,\u0662,\u0661"):
        code, out, err = run(capsys, "sequence", "--board", board, "--placement", "")
        assert (code, out) == (2, "") and err.startswith("error: bad board"), board
    for seq in ("0,1_0,0", "0,+1,2,1,0", "0,\u0661,2,1,0"):
        code, out, err = run(capsys, "check", "--board", "2,2", "--seq", seq, "--pattern", "231")
        assert (code, out) == (2, "") and err.startswith("error: bad sequence"), seq
    for placement in ("1:\u0661", "1:1_0", "+1:1"):
        code, out, err = run(capsys, "sequence", "--board", "2,2", "--placement", placement)
        assert (code, out) == (2, "") and err.startswith("error: bad marker"), placement
    # "-1" still reaches the range checks
    assert run(capsys, "sequence", "--board", "-1", "--placement", "") == (
        2, "", "error: column heights must be positive\n")
    assert run(capsys, "check", "--board", "2,2", "--seq", "0,-1,2,1,0", "--pattern", "231") == (
        2, "", "error: sequence values must be nonnegative\n")


def _limited_cli(*argv, timeout=20):
    """Run the CLI in a child process capped at 1 GiB of address space and
    ``timeout`` seconds, so a command that is not refused fails instead of
    hanging."""
    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    return subprocess.run([sys.executable, "-m", "rookbij.cli", *argv], capture_output=True,
                          text=True, timeout=timeout, preexec_fn=cap_memory, env=_child_env())


@pytest.mark.parametrize("max_n", ["10", "30", "9" * 50])
def test_verify_refuses_oversized_sweeps_up_front(max_n):
    # boards_within(30) alone has about 10^17 boards
    done = _limited_cli("verify", "--max-n", max_n, "--theorem", "l1")
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "error: --max-n must be at most 9, a sweep of 48,619 boards\n"


def test_verify_checks_its_sweep_bound_first(capsys):
    # the library's check, with the CLI's text, before --parallel and --board
    at_least = "error: --max-n must be at least 1\n"
    at_most = "error: --max-n must be at most 9, a sweep of 48,619 boards\n"
    bad = ["--parallel", "0", "--board", "x"]
    for argv, err in [
        (["--max-n", "0"], at_least),
        (["--max-n", "0", *bad], at_least),
        (["--max-n", "10", *bad], at_most),
        (["--max-n", "2", *bad], "error: --parallel must be at least 1\n"),
    ]:
        assert run(capsys, "verify", *argv) == (2, "", err), argv


def test_verify_refuses_boards_beyond_the_sweep_box():
    # a 1000x1000 sweep would enumerate 1000! full placements
    for board in (",".join(["1000"] * 1000), ",".join(["9"] * 10), "10"):
        done = _limited_cli("verify", "--board", board, "--theorem", "l1")
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == "error: --board must fit within 9x9, the box of the largest --max-n\n"
    # the box itself is admitted
    done = _limited_cli("verify", "--board", ",".join(["1"] * 9), "--theorem", "l1")
    assert done.returncode == 0 and done.stderr == ""


def test_count_refuses_boards_with_too_many_placements(capsys):
    # 1000x1000 has 1000! full placements and 10x10 has 10!
    for board in (",".join(["1000"] * 1000), ",".join(["10"] * 10)):
        assert run(capsys, "count", "--board", board, "--pattern", "2413") == (
            2, "", "error: board too large: counting 2413-avoiders filters at most "
                   "362,880 full placements\n")
        # the shape walk has no shape with a row for pattern 1
        assert run(capsys, "count", "--board", board, "--pattern", "1") == (0, "0\n", "")
    # monotone patterns walk shapes: 10x10 keeps 66 shapes for 321, 1000x1000 501,501
    assert run(capsys, "count", "--board", ",".join(["10"] * 10), "--pattern", "321") == (
        0, "16796\n", "")
    done = _limited_cli("count", "--board", ",".join(["1000"] * 1000), "--pattern", "321")
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "error: board too large: counting 321-avoiders walks at most " \
                          "100,000 shapes\n"
    # the sequence walk for 231 and 312 is capped by the border states it keeps, not
    # by placements; 9x9 (9! placements) is admitted
    assert run(capsys, "count", "--board", ",".join(["10"] * 10), "--pattern", "312")[:2] == (
        0, "16796\n")
    assert full_placement_count(Board((9,) * 9)) == MAX_FILTERED_PLACEMENTS
    # 1000x1000 has the 1000th Catalan number of 231-avoiders
    done = _limited_cli("count", "--board", ",".join(["1000"] * 1000), "--pattern", "231")
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "error: board too large: counting 231-avoiders walks at most " \
                          "100,000 border states\n"


def test_count_filters_the_one_placement_of_a_wide_staircase():
    # the board passes the 9! gate with a single full placement, which the
    # generator reaches without backing out of a dead end
    staircase = ",".join(str(h) for h in range(1000, 0, -1))
    done = _limited_cli("count", "--board", staircase, "--pattern", "2413")
    assert (done.returncode, done.stdout, done.stderr) == (0, "1\n", "")


def test_map_finds_a_late_231_on_the_1000_square_in_seconds():
    # The identity with its only 231 in the last three columns.  A search over
    # marker triples takes about 14 s to reach it; the first-marker scan is
    # quadratic.
    square = ",".join(["1000"] * 1000)
    markers = [f"{c}:{c}" for c in range(1, 998)] + ["998:999", "999:1000", "1000:998"]
    done = _limited_cli("map", "--board", square, "--placement", ",".join(markers), "--alpha",
                        timeout=5)
    assert (done.returncode, done.stderr) == (1, "")
    assert done.stdout == "placement contains 231 at markers (998,999),(999,1000),(1000,998)\n"


def test_map_takes_the_identity_on_the_1000_square_in_seconds():
    # an avoider: no witness, so the whole scan runs, and alpha reverses it
    square = ",".join(["1000"] * 1000)
    identity = ",".join(f"{c}:{c}" for c in range(1, 1001))
    done = _limited_cli("map", "--board", square, "--placement", identity, "--alpha", timeout=5)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == ",".join(f"{c}:{1001 - c}" for c in range(1, 1001)) + "\n"


def test_count_answers_every_monotone_pattern_on_9x9(capsys):
    # the walk limit admits the 9x9 square, as the filter limit did; on a square
    # board these are the classical counts of 12...k-avoiding permutations of 9
    classical = [0, 1, 4862, 94359, 261808, 344837, 361302, 362815, 362879]
    cases = [("231", 4862), ("312", 4862)]  # the sequence search's worst case within 9x9
    for k, count in enumerate(classical, start=1):
        increasing = "".join(map(str, range(1, k + 1)))
        cases += [(increasing, count), (increasing[::-1], count)]
    for word, count in cases:
        assert run(capsys, "count", "--board", ",".join(["9"] * 9), "--pattern", word) == (
            0, f"{count}\n", ""), word


def test_repeated_main_calls_match_fresh_processes(capsys):
    # build_parser is cached, so each call after the first reuses one parser
    calls = [
        ["map", "--board", "3,3,3", "--placement", "123", "--alpha"],
        ["verify", "--max-n", "2", "--parallel", "0"],
        ["map", "--board", "3,3,3", "--placement", "123"],
        ["sequence", "--board", "3,3,2", "--placement", "2:1,3:2", "--json"],
        ["map", "--board", "3,3,3", "--placement", "321", "--beta"],
    ]
    for argv in calls:
        fresh = subprocess.run([sys.executable, "-m", "rookbij.cli", *argv],
                               capture_output=True, text=True, timeout=60, env=_child_env())
        assert run(capsys, *argv) == (fresh.returncode, fresh.stdout, fresh.stderr), argv


JSON_ROUNDTRIP_CASES = [
    ("sequence", ["sequence", "--board", "3,3,2", "--placement", "2:1,3:2", "--json"]),
    ("map", ["map", "--board", "3,3,3", "--placement", "123", "--alpha", "--json"]),
    ("check", ["check", "--board", "3,3,3", "--seq", "0,1,1,2,2,1,0", "--pattern", "312",
               "--json"]),
    ("reconstruct", ["reconstruct", "--board", "3,3,3", "--seq", "0,1,1,1,1,1,0",
                     "--pattern", "312", "--json"]),
    ("count", ["count", "--board", "3,3,2", "--pattern", "231", "--json"]),
    ("compact", ["compact", "--board", "3,3,3", "--placement", "1:3,3:1", "--json"]),
    ("render", ["render", "--board", "3,2,1", "--placement", "1:3,2:2,3:1", "--json"]),
    ("verify", ["verify", "--max-n", "2", "--theorem", "t1", "--json"]),
]


def _placement_arg(value):
    if value and isinstance(value[0], list):
        return ",".join(f"{c}:{r}" for c, r in value)
    return "".join(str(r) for r in value)


def _rebuild_argv(command, payload):
    if command == "sequence":
        return ["sequence", "--board", ",".join(map(str, payload["board"])),
                "--placement", _placement_arg(payload["placement"]), "--json"]
    if command == "map":
        return ["map", "--board", ",".join(map(str, payload["board"])),
                "--placement", _placement_arg(payload["placement"]),
                f"--{payload['direction']}", "--json"]
    if command == "check":
        return ["check", "--board", ",".join(map(str, payload["board"])),
                "--seq", ",".join(map(str, payload["sequence"])),
                "--pattern", payload["pattern"], "--json"]
    if command == "reconstruct":
        return ["reconstruct", "--board", ",".join(map(str, payload["board"])),
                "--seq", ",".join(map(str, payload["sequence"])),
                "--pattern", payload["pattern"], "--json"]
    if command == "count":
        return ["count", "--board", ",".join(map(str, payload["board"])),
                "--pattern", payload["pattern"], "--json"]
    if command == "compact":
        return ["compact", "--board", ",".join(map(str, payload["board"])),
                "--placement", _placement_arg(payload["placement"]), "--json"]
    if command == "render":
        return ["render", "--board", ",".join(map(str, payload["board"])),
                "--placement", _placement_arg(payload["placement"]), "--json"]
    if command == "verify":
        return ["verify", "--max-n", str(payload["max_n"]),
                "--theorem", payload["theorem"], "--json"]
    raise AssertionError(command)


@pytest.mark.parametrize("command,argv", JSON_ROUNDTRIP_CASES)
def test_json_output_roundtrips(capsys, command, argv):
    code1, out1, _ = run(capsys, *argv)
    payload = json.loads(out1)
    code2, out2, _ = run(capsys, *_rebuild_argv(command, payload))
    assert (code1, out1) == (code2, out2)


# Fields in range for boards within 4x4, and hostile ones: empty, negative,
# non-numeric, 20 digits long, with a digit separator and a non-ASCII digit.
_SMALL = st.integers(0, 4).map(str)
_FIELD = st.one_of(_SMALL, st.sampled_from(["", "-1", "x", "9" * 20, "1_0", "\u0663"]))
_BOARD_TEXT = st.lists(_FIELD, max_size=5).map(",".join)
_PLACEMENT_TEXT = st.one_of(
    st.text("0123456789\u00b2\u0663", max_size=5),  # with superscript and Arabic-Indic digits
    *(st.lists(st.builds("{}:{}".format, field, field), max_size=4).map(",".join)
      for field in (_SMALL, _FIELD)))
_SEQUENCE_TEXT = st.one_of(*(st.lists(field, max_size=10).map(",".join)
                             for field in (_SMALL, _FIELD)))
_PATTERN_TEXT = st.sampled_from(["231", "312", "321", "1234", "12", "", "0", "-1", "9" * 20,
                                 "\u00b2"])


@st.composite
def _cli_argv(draw):
    command = draw(st.sampled_from(
        ["sequence", "map", "check", "reconstruct", "count", "verify", "render", "compact"]))
    board = draw(st.one_of(boards(max_n=4), st.none()))
    argv = [command, "--board", str(board) if board else draw(_BOARD_TEXT)]
    if command in ("sequence", "map", "render", "compact"):
        argv += ["--placement", draw(_PLACEMENT_TEXT)]
    if command == "map":
        argv.append(draw(st.sampled_from(["--alpha", "--beta"])))
    if command in ("check", "reconstruct"):
        if board and draw(st.booleans()):  # one value per border vertex
            size = board.n_cols + board.n_rows + 1
            argv += ["--seq", ",".join(draw(st.lists(_SMALL, min_size=size, max_size=size)))]
        else:
            argv += ["--seq", draw(_SEQUENCE_TEXT)]
    if command in ("check", "reconstruct", "count"):
        argv += ["--pattern", draw(_PATTERN_TEXT)]
    if command == "verify":
        argv += ["--theorem", draw(st.sampled_from(THEOREM_TAGS + ("all",)))]
        # --board is always given, so no --max-n value starts a sweep and no
        # --parallel value starts more than one worker
        for option in ("--max-n", "--parallel"):
            if draw(st.booleans()):
                argv += [option, draw(st.one_of(_FIELD, st.just("+1")))]
    if command == "render" and draw(st.booleans()):
        argv.append("--annotate")
    if draw(st.booleans()):
        argv.append("--json")
    return argv


@settings(max_examples=300)
@given(_cli_argv())
def test_fuzzed_argv_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
