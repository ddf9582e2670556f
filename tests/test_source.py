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


TERM_MAP_METHODS = {"__add__", "__neg__", "__sub__", "__rsub__", "__eq__",
                    "__hash__", "is_zero", "_check_compatible"}


def test_term_map_arithmetic_has_one_home():
    """Polynomials, series and operators share one arithmetic core, so a
    change of key or coefficient handling is made in one place."""
    homes = {}
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and item.name in TERM_MAP_METHODS):
                        homes.setdefault(item.name, []).append(
                            f"{path.stem}.{node.name}")
            elif (isinstance(node, ast.FunctionDef)
                  and node.name in ("_raw_poly", "_raw")):
                homes.setdefault(node.name, []).append(path.stem)
    assert homes == {name: ["exact.TermMap"] for name in TERM_MAP_METHODS}
