"""Rules every module of the package keeps."""

import ast
from pathlib import Path

SOURCES = sorted(
    (Path(__file__).resolve().parents[1] / "src" / "tautsys").glob("*.py"))


def test_package_uses_no_assert_statements():
    """`python -O` strips asserts, so invariants must be explicit raises."""
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)]
    assert found == []
