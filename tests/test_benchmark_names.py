"""The benchmark's tracer wraps rookbij functions by name; each must exist,
and the library must call the wrappers the tracer installs."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module, attr, _ in tracer.TRACED:
        owner = importlib.import_module(f"rookbij.{module}")
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        assert name in owner.__dict__, f"rookbij.{module}.{attr}"


def test_tracer_sees_every_pattern_dispatch(capsys):
    # Each caller picks its pattern's checker, reconstruction or map from the
    # module globals at call time, so the tracer's wrappers are the ones run;
    # count and verify import the sweep layer's functions when they run.
    from rookbij import cli
    from rookbij.board import Board
    from rookbij.enumeration import check_board

    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    t = tracer.Tracer()
    t.install()
    try:
        assert check_board(Board((3, 3, 3)), "t2") == []
        for argv in (["check", "--board", "3,3,3", "--seq", "0,1,1,2,2,1,0", "--pattern", "312"],
                     ["reconstruct", "--board", "3,3,3", "--seq", "0,1,2,2,1,1,0",
                      "--pattern", "312"],
                     ["map", "--board", "3,3,3", "--placement", "1:1,2:2", "--beta"],
                     ["count", "--board", "3,3,3", "--pattern", "231"],
                     ["verify", "--board", "2,2", "--theorem", "l1"]):
            cli.main(argv)
    finally:
        t.uninstall()
    capsys.readouterr()
    summary = t.summary()
    groups = summary["groups"]
    assert summary["sequence_checks"] == 10
    assert groups["enumeration.valid_sequences"]["yielded"] == 10
    assert groups["conditions.check"]["calls"] == 12
    assert groups["bijection.reconstruct"]["calls"] == 1
    assert groups["bijection.alpha_beta"]["calls"] == 1
    assert groups["enumeration.count_avoiders"]["calls"] == 1
    assert groups["enumeration.verify"]["calls"] == 1
