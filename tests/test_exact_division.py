"""No `/` in the package outside `exactnum.div`.

A rational is an int when it is integral, and `/` on two ints gives a
float, which loses exactness without an error.  So every division of
values goes through `exactnum.div`, which returns an int when the quotient
is integral and a `Fraction` otherwise.  The check parses
`src/flagforge/*.py` with `ast` and reports every `/` and `/=` outside the
body of `exactnum.div`.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "flagforge"


def _divisions(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    allowed = set()
    if path.stem == "exactnum":
        div = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "div")
        allowed = {id(n) for n in ast.walk(div)}
    for node in ast.walk(tree):
        if (isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
                and id(node) not in allowed):
            yield f"{path.stem}:{node.lineno}"


def test_no_division_outside_exactnum_div():
    found = [d for path in sorted(PACKAGE.glob("*.py")) for d in _divisions(path)]
    assert not found, found
