"""Every public function, class and method of the package has a caller
outside tests.

The check parses `src/flagforge/*.py` and `perfbench/*.py` with `ast` and
asks that each public module-level function or class of `flagforge` be
referenced there, by a name, an attribute or an import, and each public
method by an attribute.  The CLI handlers `Runner.cmd_*` are exempt: the
runner looks them up by the name of the command.  Code that only the
tests call belongs in the tests, as a reference, or nowhere.

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

# Public names kept although only the tests call them:
ALLOWED = {
    # the dense solve: the tests' reference for `Echelon` and the Levi lift
    "exactnum.solve",
    # the standard bases of gl_n and its subalgebras, the tests' inputs
    "finoracle.gl_basis",
    "finoracle.sl_basis",
    "finoracle.upper_triangular_basis",
    "finoracle.strict_upper_basis",
    "finoracle.diagonal_basis",
    "finoracle.block_parabolic_basis",
    # the writers that build test sessions; the CLI only reads these values
    "serial.model_to_json",
    "serial.basis_flag_to_json",
    "serial.element_to_json",
    "serial.algebra_to_json",
    "serial.tc_to_json",
}


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
    unreached = {
        label for label, name in _public_definitions() if name not in referenced
    } - ALLOWED
    assert not unreached, sorted(unreached)


def test_the_allowlist_names_existing_unreached_definitions():
    referenced = _referenced_names()
    defined = dict(_public_definitions())
    for label in ALLOWED:
        assert label in defined, label
        assert defined[label] not in referenced, f"{label} has a caller: drop it from ALLOWED"


def test_every_public_method_has_a_caller_outside_tests():
    attributes = {node.attr for node in _nodes_outside_tests() if isinstance(node, ast.Attribute)}
    unreached = {
        label for label, name in _public_methods()
        if name not in attributes and not label.startswith("cli.Runner.cmd_")
    }
    assert not unreached, sorted(unreached)
