import ast
import importlib.util
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


def _tree(path):
    return ast.parse(path.read_text())


def _defined_names(path):
    return {
        node.name
        for node in _tree(path).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }


def test_public_names_are_exported_or_named_by_the_package():
    # a public module-level function or class that skyline.__all__ does not
    # export and no other package code names is a test-only helper, which
    # belongs in tests/oracles.py
    statements = [node for path in SOURCES for node in _tree(path).body]
    named = [
        {
            n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))
        }
        for node in statements
    ]
    unused = [
        node.name
        for node in statements
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in skyline.__all__
        and not any(
            node.name in names
            for other, names in zip(statements, named)
            if other is not node
        )
    ]
    assert unused == []


def test_demazure_depends_on_polynomials_alone_and_oracles_stay_in_tests():
    package = Path(skyline.__file__).parent
    siblings = {
        node.module
        for node in ast.walk(_tree(package / "demazure.py"))
        if isinstance(node, ast.ImportFrom) and node.level == 1
    }
    assert siblings == {"polynomials"}
    oracles = _defined_names(Path(__file__).parent / "oracles.py")
    in_package = set().union(*(_defined_names(path) for path in SOURCES))
    assert oracles & in_package == set()


def test_every_traced_target_resolves():
    # the bench tracer skips a target it cannot find, so a moved name would
    # leave its metrics reading 0 without an error
    path = Path(__file__).resolve().parent.parent / "skybench" / "bench_trace.py"
    spec = importlib.util.spec_from_file_location("bench_trace_under_test", path)
    bench_trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_trace)
    targets = [t for ts in bench_trace.SPANS.values() for t in ts]
    targets += [target for target, _ in bench_trace.COUNT_UNDER.values()]
    targets.append(bench_trace.TRUNCATE)
    assert len(targets) == 28
    for target in targets:
        importlib.import_module(target.partition(":")[0])
    missing = [t for t in targets if bench_trace._resolve(t)[2] is None]
    assert missing == []
