"""Source-level guards on the package.

`assert` vanishes under `python -O`, so invariants raise typed errors
instead; imports stay at module level, where the dependencies between the
modules can be read off.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "hlbrion"


def test_src_has_no_assert_and_no_function_local_import():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = set()
    for path in paths:
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Assert):
                found.add(f"{path.name}:{node.lineno}: assert")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for sub in ast.walk(node):
                    if isinstance(sub, (ast.Import, ast.ImportFrom)):
                        found.add(f"{path.name}:{sub.lineno}: import")
    assert not found, sorted(found)
