"""Code that nothing calls gets deleted: every private top-level function or
class under src/rookbij is used somewhere in the package outside its own
body.  An import alone is not a use."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "rookbij"


def _used(trees: list[ast.Module], definition: ast.AST) -> bool:
    """Whether any tree reads the definition's name, bare or as an
    attribute, outside the definition itself."""
    own = {id(node) for node in ast.walk(definition)}
    name = definition.name
    return any(id(node) not in own and (
        isinstance(node, ast.Name) and node.id == name
        or isinstance(node, ast.Attribute) and node.attr == name)
        for tree in trees for node in ast.walk(tree))


def test_every_private_definition_is_used_outside_its_own_body():
    trees = [ast.parse(path.read_text(encoding="utf-8"), str(path))
             for path in sorted(SRC.rglob("*.py"))]
    private = [node for tree in trees for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name.startswith("_") and not node.name.startswith("__")]
    assert len(private) > 40
    assert [node.name for node in private if not _used(trees, node)] == []
