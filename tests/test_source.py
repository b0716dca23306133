"""Checks on the library source itself."""

import ast
import pathlib

import cuspforge

PACKAGE = pathlib.Path(cuspforge.__file__).parent


def test_no_assert_statements():
    # `python -O` strips asserts, so no runtime logic may ride on them
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
