"""The benchmark's tracer wraps rookbij functions by name; each must exist."""

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
