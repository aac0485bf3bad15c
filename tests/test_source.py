import ast
from pathlib import Path

import skyline

SOURCES = sorted(Path(skyline.__file__).parent.glob("*.py"))


def test_package_invariants_survive_python_dash_o():
    # `python -O` strips assert statements; invariants must raise explicitly
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
