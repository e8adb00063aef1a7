"""No module of the package reads another's private rows.

An element's `_rows` are one factorization of its operator among many, so
a result read off them can differ between equal elements.  Outside
`finitary`, an element is read through `apply_row` and `entries`; `_rows`
is also the name of `Echelon`'s private table, which only `exactnum` reads.
The check parses `src/flagforge/*.py` with `ast`.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "flagforge"
OWNERS = {"finitary", "exactnum"}


def test_only_the_owners_read_rows():
    readers = {
        f"{path.stem}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py")) if path.stem not in OWNERS
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == "_rows"
    }
    assert not readers, sorted(readers)
