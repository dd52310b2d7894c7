"""Spans around rookbij's public functions, installed from outside the package.

``Tracer.install`` replaces each traced function with a wrapper that records
a span (name, start, end, parent) per call: on the defining module, on every
sibling module that imported it with ``from .x import``, on the class for
methods, and on the ``cached_property`` for cached geometry.  A generator is
wrapped so that each ``next`` is a span and each value yielded is counted.
Spans stay in memory; ``summary`` turns them into per-layer counts and self
times (duration minus the time covered by child spans).
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from functools import cached_property, wraps
from time import perf_counter

LAYERS = ("board", "placement", "conditions", "bijection", "enumeration", "cli")

# (module, attribute, span group).  Functions sharing a group are one layer
# operation, e.g. the 231 and 312 checkers are "conditions.check".
TRACED = (
    ("board", "parse_board", "board.parse_board"),
    ("board", "Board.__post_init__", "board.Board"),
    ("board", "Board.conjugate", "board.conjugate"),
    ("board", "Board.border_path", "board.border_path"),
    ("board", "Board.marker_count_profile", "board.marker_count_profile"),
    ("board", "Board.diagonal_pairs", "board.diagonal_pairs"),
    ("placement", "s_sequence", "placement.s_sequence"),
    ("placement", "pattern_witness", "placement.pattern_witness"),
    ("placement", "avoids", "placement.avoids"),
    ("placement", "Placement.validate_on", "placement.validate_on"),
    ("placement", "FullPlacement.validate_on", "placement.validate_on"),
    ("placement", "inverse_placement", "placement.inverse_placement"),
    ("placement", "parse_placement", "placement.parse_placement"),
    ("placement", "format_placement", "placement.format_placement"),
    ("conditions", "check_231", "conditions.check"),
    ("conditions", "check_312", "conditions.check"),
    ("conditions", "parse_sequence", "conditions.parse_sequence"),
    ("conditions", "format_sequence", "conditions.format_sequence"),
    ("bijection", "plus_transform", "bijection.plus_transform"),
    ("bijection", "reconstruct_231", "bijection.reconstruct"),
    ("bijection", "reconstruct_312", "bijection.reconstruct"),
    ("bijection", "alpha", "bijection.alpha_beta"),
    ("bijection", "beta", "bijection.alpha_beta"),
    ("bijection", "alpha_general", "bijection.alpha_beta"),
    ("bijection", "beta_general", "bijection.alpha_beta"),
    ("bijection", "compact", "bijection.compact"),
    ("bijection", "expand", "bijection.expand"),
    ("enumeration", "full_placements", "enumeration.full_placements"),
    ("enumeration", "rook_placements", "enumeration.rook_placements"),
    ("enumeration", "boards_within", "enumeration.boards_within"),
    ("enumeration", "valid_sequences", "enumeration.valid_sequences"),
    ("enumeration", "count_avoiders", "enumeration.count_avoiders"),
    ("enumeration", "check_board", "enumeration.check_board"),
    ("enumeration", "default_sweep", "enumeration.default_sweep"),
    ("enumeration", "verify", "enumeration.verify"),
    ("cli", "main", "cli.main"),
)
GENERATORS = {"full_placements", "rook_placements", "boards_within", "valid_sequences"}
# Groups whose truthy results are counted (avoids: the placement avoided).
COUNT_TRUE = {"placement.avoids"}


class Tracer:
    def __init__(self):
        self.groups: list[str] = []
        self.span_group = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.generators = Counter()  # generator objects created, per group
        self.yielded = Counter()
        self.truthy = Counter()
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def _group_id(self, group: str) -> int:
        if group not in self.groups:
            self.groups.append(group)
        return self.groups.index(group)

    def _span_call(self, fn, gid: int, count_true: bool):
        groups, starts, ends, parents = (self.span_group, self.span_start,
                                         self.span_end, self.span_parent)
        stack, truthy, group = self._stack, self.truthy, self.groups[gid]

        @wraps(fn)
        def traced(*args, **kwargs):
            sid = len(groups)
            groups.append(gid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = perf_counter()
                stack.pop()
            if count_true and result:
                truthy[group] += 1
            return result

        return traced

    def _span_generator(self, fn, gid: int):
        step = self._span_call(next, gid, False)
        generators, yielded, group = self.generators, self.yielded, self.groups[gid]

        @wraps(fn)
        def traced(*args, **kwargs):
            generators[group] += 1
            it = fn(*args, **kwargs)
            while True:
                try:
                    item = step(it)
                except StopIteration:
                    return
                yielded[group] += 1
                yield item

        return traced

    def install(self) -> None:
        package = "rookbij"
        modules = [m for name, m in list(sys.modules.items())
                   if name == package or name.startswith(package + ".")]
        for module_name, attr, group in TRACED:
            gid = self._group_id(group)
            owner = sys.modules[f"{package}.{module_name}"]
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[name]
            if isinstance(original, cached_property):
                self._replace(original, "func", self._span_call(original.func, gid, False))
                continue
            if name in GENERATORS:
                wrapper = self._span_generator(original, gid)
            else:
                wrapper = self._span_call(original, gid, group in COUNT_TRUE)
            self._replace(owner, name, wrapper)
            if not path:
                for module in modules:
                    if module is not owner and getattr(module, name, None) is original:
                        self._replace(module, name, wrapper)

    def _replace(self, obj, attr: str, value) -> None:
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, value = self._undo.pop()
            setattr(obj, attr, value)

    def summary(self) -> dict:
        """Per group: calls (spans), self_s, yielded, truthy; plus the number of
        checker spans made directly inside ``valid_sequences``."""
        n = len(self.span_group)
        child = [0.0] * n
        starts, ends, parents, gids = (self.span_start, self.span_end,
                                       self.span_parent, self.span_group)
        for sid in range(n):
            parent = parents[sid]
            if parent >= 0:
                child[parent] += ends[sid] - starts[sid]
        check, sequences = (self._group_id(g) for g in
                            ("conditions.check", "enumeration.valid_sequences"))
        stats = {g: {"calls": 0, "self_s": 0.0} for g in self.groups}
        sequence_checks = 0
        for sid in range(n):
            entry = stats[self.groups[gids[sid]]]
            entry["calls"] += 1
            entry["self_s"] += ends[sid] - starts[sid] - child[sid]
            parent = parents[sid]
            if gids[sid] == check and parent >= 0 and gids[parent] == sequences:
                sequence_checks += 1
        for g in self.groups:
            stats[g]["generators"] = self.generators[g]
            stats[g]["yielded"] = self.yielded[g]
            stats[g]["truthy"] = self.truthy[g]
        return {"groups": stats, "sequence_checks": sequence_checks}

    def write_spans(self, path) -> None:
        """Write every span as a tab-separated line: id, name, start, end, parent."""
        with open(path, "w") as out:
            out.write("id\tname\tstart_s\tend_s\tparent\n")
            for sid in range(len(self.span_group)):
                out.write(f"{sid}\t{self.groups[self.span_group[sid]]}\t"
                          f"{self.span_start[sid]:.9f}\t{self.span_end[sid]:.9f}\t"
                          f"{self.span_parent[sid]}\n")


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(summary) -> dict[str, tuple[float, str]]:
    """The published per-layer metrics, name -> (value, unit)."""
    groups = summary["groups"]

    def get(group: str, key: str) -> float:
        return groups.get(group, {}).get(key, 0)

    full_yielded = get("enumeration.full_placements", "yielded")
    rook_yielded = get("enumeration.rook_placements", "yielded")
    avoids = get("placement.avoids", "calls")
    seq_checks = summary["sequence_checks"]
    seq_yielded = get("enumeration.valid_sequences", "yielded")
    counts = {
        "board.boards_built": get("board.Board", "calls"),
        "board.border_path.computed": get("board.border_path", "calls"),
        "board.diagonal_pairs.computed": get("board.diagonal_pairs", "calls"),
        "placement.s_sequence.calls": get("placement.s_sequence", "calls"),
        "placement.pattern_witness.calls": get("placement.pattern_witness", "calls"),
        "placement.validate_on.calls": get("placement.validate_on", "calls"),
        "conditions.check.calls": get("conditions.check", "calls"),
        "bijection.reconstruct.calls": get("bijection.reconstruct", "calls"),
        "bijection.compact.calls": get("bijection.compact", "calls"),
        "enumeration.full_placements.calls": get("enumeration.full_placements", "generators"),
        "enumeration.full_placements.yielded": full_yielded,
        "enumeration.rook_placements.yielded": rook_yielded,
        "enumeration.placements_yielded": full_yielded + rook_yielded,
        "enumeration.avoids.calls": avoids,
        "enumeration.valid_sequences.yielded": seq_yielded,
        "enumeration.valid_sequences.checks": seq_checks,
        "cli.main.calls": get("cli.main", "calls"),
    }
    metrics = {name: (value, "count") for name, value in counts.items()}
    metrics["enumeration.avoider_ratio"] = (
        ratio(get("placement.avoids", "truthy"), avoids), "ratio")
    metrics["enumeration.valid_sequences.accept_ratio"] = (ratio(seq_yielded, seq_checks), "ratio")
    for group in ("board.diagonal_pairs", "placement.s_sequence", "placement.pattern_witness",
                  "conditions.check", "bijection.reconstruct", "bijection.alpha_beta",
                  "bijection.compact"):
        metrics[f"{group}.self_s"] = (get(group, "self_s"), "s")
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (
            sum(s["self_s"] for g, s in groups.items() if g.split(".")[0] == layer), "s")
    return metrics


def deterministic_part(metrics: dict[str, tuple[float, str]]) -> dict[str, float]:
    """Every count and ratio; only self times may differ between two runs."""
    return {name: value for name, (value, unit) in metrics.items() if unit != "s"}
