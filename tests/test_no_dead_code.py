"""Code that nothing calls gets deleted: every private top-level function,
class or assigned name under src/rookbij is used somewhere in the package
outside its own definition.  An import alone is not a use."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "rookbij"


def _trees() -> list[ast.Module]:
    return [ast.parse(path.read_text(encoding="utf-8"), str(path))
            for path in sorted(SRC.rglob("*.py"))]


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _used(trees: list[ast.Module], name: str, definition: ast.AST) -> bool:
    """Whether any tree reads the name, bare or as an attribute, outside
    the definition itself."""
    own = {id(node) for node in ast.walk(definition)}
    return any(id(node) not in own and (
        isinstance(node, ast.Name) and node.id == name
        or isinstance(node, ast.Attribute) and node.attr == name)
        for tree in trees for node in ast.walk(tree))


def test_every_private_definition_is_used_outside_its_own_body():
    trees = _trees()
    private = [node for tree in trees for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _private(node.name)]
    assert len(private) > 40
    assert [node.name for node in private if not _used(trees, node.name, node)] == []


def test_every_private_assignment_is_read_outside_its_own_statement():
    # Module-level constants and aliases (``_END``, ``_CHECKS``, ...): the
    # assigned name is read somewhere else, not only written.
    trees = _trees()
    assigned = [(target.id, node) for tree in trees for node in tree.body
                if isinstance(node, (ast.Assign, ast.AnnAssign))
                for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
                if isinstance(target, ast.Name) and _private(target.id)]
    assert len(assigned) >= 8
    assert [name for name, node in assigned if not _used(trees, name, node)] == []
