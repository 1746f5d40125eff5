"""Source-level guards on the package.

`assert` vanishes under `python -O`, so invariants raise typed errors
instead; imports stay at module level, where the dependencies between the
modules can be read off; and every module-level name and method the
package defines is used somewhere, so nothing is left behind when its last
caller goes.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hlbrion"


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


def _definitions(path):
    """(name, first line, last line) of each module-level definition and of
    each method of a module-level class."""
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield sub.name, sub.lineno, sub.end_lineno
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for tgt in node.targets for t in ast.walk(tgt)
                     if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            yield name, node.lineno, node.end_lineno


def _uses(path):
    """(word, line) of each name, attribute, imported name and string
    constant in a file; a string counts, as perfbench looks functions up
    by name."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno


def test_every_module_level_name_in_src_is_referenced():
    uses = {}
    for folder in ("src", "tests", "demos", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            for word, line in _uses(path):
                uses.setdefault(word, []).append((path, line))
    unused = []
    for path in sorted(SRC.glob("*.py")):
        for name, first, last in _definitions(path):
            if name.startswith("__") and name.endswith("__"):
                continue
            if all(p == path and first <= line <= last
                   for p, line in uses.get(name, ())):
                unused.append(f"{path.name}:{first}: {name}")
    assert not unused, unused
