"""Every public function, class and method of the package has a caller
outside tests.

The check parses `src/flagforge/*.py` and `perfbench/*.py` with `ast` and
asks that each public module-level function or class of `flagforge` be
referenced there, by a name, an attribute or an import, and each public
method by an attribute.  The CLI handlers `Runner.cmd_*` are exempt: the
runner looks them up by the name of the command.  Code that only the
tests call belongs in the tests, as a reference, or nowhere: no name is
exempt.

A method is matched by its attribute name alone, so it counts as reached
when a method of the same name on any other class is: a `Vector.add`
would hide behind `Echelon.add`.  Such a method needs its callers looked
up by hand.

perfbench's `reference` module imports nothing of `flagforge`, so neither
its own code nor an attribute read off it (`ref.direct_sum_basis`) counts:
such a name is perfbench's own function, whatever `flagforge` name it
shares.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "flagforge"
REFERENCE = ROOT / "perfbench" / "reference.py"


def _public_definitions():
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield f"{path.stem}.{node.name}", node.name


def _public_methods():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{path.stem}.{node.name}.{item.name}", item.name


def _nodes_outside_tests():
    paths = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    for path in paths:
        if path == REFERENCE:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        aliases = {
            alias.asname or alias.name
            for node in ast.walk(tree) if isinstance(node, ast.Import)
            for alias in node.names if alias.name == REFERENCE.stem
        }
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in aliases):
                yield node


def _referenced_names():
    names = set()
    for node in _nodes_outside_tests():
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
    return names


def test_every_public_name_has_a_caller_outside_tests():
    referenced = _referenced_names()
    unreached = {label for label, name in _public_definitions() if name not in referenced}
    assert not unreached, sorted(unreached)


def test_every_public_method_has_a_caller_outside_tests():
    attributes = {node.attr for node in _nodes_outside_tests() if isinstance(node, ast.Attribute)}
    unreached = {
        label for label, name in _public_methods()
        if name not in attributes and not label.startswith("cli.Runner.cmd_")
    }
    assert not unreached, sorted(unreached)
