"""The benchmark workloads: seeded inputs, the work of one item, output gates.

A workload splits its work into items.  ``setup`` makes the program calls
that come before the first item (it is what ``setup_s`` times); ``items``
turns a seed into JSON-able item specs, which is the benchmark's own input
generation; ``prepare`` builds the program objects of one item outside the
clock, fresh for every pass so that no pass inherits another's caches; and
``run`` does the item's work and returns whether every output was right.

rookbij is used only through module attributes (``enumeration.check_board``)
so that the tracer and fault-injection tests can replace them.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path

from rookbij import bijection, board, cli, conditions, enumeration, placement

HERE = Path(__file__).resolve().parent

# Boards per tag in the default `rookbij verify` sweep.
SWEEP_BOARDS = {"l1": 251, "t1": 99, "t2": 99, "t4": 99, "remark": 69}
COUNT_PATTERNS = ("231", "312", "321")
SQUARE_8 = (8,) * 8
CATALAN = {1: 1, 2: 2, 3: 5, 4: 14, 5: 42, 6: 132, 8: 1430}
# Board 4,4,4,3 separates 231/312 from 321; totals over the 6-column boards.
PINNED_4443 = {"231": 12, "312": 12, "321": 13}
PINNED_SIZE6_TOTALS = {"231": 4318, "312": 4318, "321": 4719}
QUERY_SIZES = range(8, 25)
QUERIES_PER_SIZE = 24


class VerifySweep:
    """The default `rookbij verify`: every tag over its default board sweep."""

    name = "verify-sweep"

    def setup(self):
        return {tag: enumeration.default_sweep(tag) for tag in enumeration.THEOREM_TAGS}

    def setup_failures(self, state) -> list[str]:
        got = {tag: len(boards) for tag, boards in state.items()}
        return [] if got == SWEEP_BOARDS else [f"sweep sizes {got}, expected {SWEEP_BOARDS}"]

    def items(self, state, seed: int) -> list:
        specs = [[tag, list(b.heights)] for tag, boards in state.items() for b in boards]
        random.Random(seed).shuffle(specs)
        return specs

    def prepare(self, spec):
        tag, heights = spec
        return tag, board.Board(tuple(heights))

    def run(self, arg) -> bool:
        tag, b = arg
        return enumeration.check_board(b, tag) == []


def load_pinned_counts() -> dict[tuple[tuple[int, ...], str], int]:
    """The pinned avoider counts, after checking the facts they must satisfy."""
    data = json.loads((HERE / "expected_counts.json").read_text())
    table = {}
    for heights, *counts in data["boards"]:
        for word, count in zip(data["patterns"], counts):
            table[tuple(heights), word] = count
    table[SQUARE_8, "231"] = data["square_8_231"]
    bad = []
    for (heights, word), count in table.items():
        n = len(heights)
        if heights == (n,) * n and count != CATALAN[n]:
            bad.append(f"{heights} {word}: {count} is not Catalan")
        if word == "231" and count != table.get((heights, "312"), count):
            bad.append(f"{heights}: 231 and 312 counts differ")
    if any(table[(4, 4, 4, 3), w] != c for w, c in PINNED_4443.items()):
        bad.append("4,4,4,3 counts differ from 12/12/13")
    for word, total in PINNED_SIZE6_TOTALS.items():
        if sum(c for (h, w), c in table.items() if w == word and len(h) == 6) != total:
            bad.append(f"size-6 total for {word} is not {total}")
    if bad:
        raise ValueError("expected_counts.json is inconsistent: " + "; ".join(bad))
    return table


class CountTable:
    """`count_avoiders` over the full-admitting boards within 6x6, plus 8x8."""

    name = "count-table"

    def __init__(self):
        self.expected = load_pinned_counts()

    def setup(self):
        return list(enumeration.boards_within(6, full_only=True)), board.Board(SQUARE_8)

    def setup_failures(self, state) -> list[str]:
        boards, _ = state
        want = {h for h, _ in self.expected} - {SQUARE_8}
        got = {b.heights for b in boards}
        return [] if got == want else [f"{len(got)} full boards within 6x6, expected {len(want)}"]

    def items(self, state, seed: int) -> list:
        boards, square = state
        specs = [[list(b.heights), w] for b in boards for w in COUNT_PATTERNS]
        specs.append([list(square.heights), "231"])
        random.Random(seed).shuffle(specs)
        return specs

    def prepare(self, spec):
        heights, word = spec
        return (board.Board(tuple(heights)), placement.Pattern.parse(word),
                self.expected[tuple(heights), word])

    def run(self, arg) -> bool:
        b, pattern, expected = arg
        return enumeration.count_avoiders(b, pattern) == expected


def avoider_231(rng: random.Random, values: list[int]) -> list[int]:
    """A random 231-avoiding arrangement of the increasing ``values``.

    The largest value goes to a random position; everything before it must be
    smaller than everything after it, and both sides recurse.
    """
    if not values:
        return []
    k = rng.randrange(len(values))
    rest = values[:-1]
    return avoider_231(rng, rest[:k]) + [values[-1]] + avoider_231(rng, rest[k:])


def make_query(rng: random.Random, n: int) -> dict:
    perm = avoider_231(rng, list(range(1, n + 1)))
    heights = [n]
    for i in range(1, n):
        heights.append(rng.randint(max(perm[i:]), heights[-1]))
    sub = sorted(rng.sample(range(1, n + 1), rng.randint(1, n - 1)))
    return {"board": ",".join(map(str, heights)), "perm": perm, "sub": sub}


def map_output(perm) -> str:
    """What `rookbij map` prints for a full placement given as col:row pairs."""
    if len(perm) <= 9:
        return "".join(map(str, perm)) + "\n"
    return ",".join(f"{c}:{r}" for c, r in enumerate(perm, start=1)) + "\n"


class QueryMix:
    """Single-shot library and CLI queries on fresh boards of 8-24 columns."""

    name = "query-mix"

    def setup(self):
        return None

    def setup_failures(self, state) -> list[str]:
        return []

    def items(self, state, seed: int) -> list:
        # Every size gets the same number of queries, so seeds differ only in
        # the shapes drawn, not in how much of the mix is large.
        rng = random.Random(seed)
        specs = [make_query(rng, n) for n in QUERY_SIZES for _ in range(QUERIES_PER_SIZE)]
        rng.shuffle(specs)
        return specs

    def prepare(self, spec):
        return spec

    def run(self, q) -> bool:
        b = board.parse_board(q["board"])
        full = placement.FullPlacement(tuple(q["perm"]))
        seq = placement.s_sequence(b, full)
        if not conditions.check_231(b, seq).verdict:
            return False
        if bijection.reconstruct_231(b, seq) != full:
            return False
        image = bijection.alpha(b, full)
        if bijection.beta(b, image) != full:
            return False
        sub = placement.Placement(frozenset((c, full.perm[c - 1]) for c in q["sub"]))
        if bijection.beta_general(b, bijection.alpha_general(b, sub)).markers != sub.markers:
            return False
        pairs = ",".join(f"{c}:{r}" for c, r in enumerate(full.perm, start=1))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["map", "--board", q["board"], "--placement", pairs, "--alpha"])
        return code == 0 and out.getvalue() == map_output(image.perm)


WORKLOADS = {w.name: w for w in (VerifySweep, CountTable, QueryMix)}
