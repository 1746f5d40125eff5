"""Source-level guards on the package.

`assert` vanishes under `python -O`, so invariants raise typed errors
instead; imports stay at module level, where the dependencies between the
modules can be read off, and take no module's private names; and every
module-level name and method the package defines is used somewhere, and
outside the tests unless it is a named oracle, so nothing is left behind
when its last caller goes.  No module-level name starts as an empty
container, so a module cache is a bounded `functools.lru_cache`.
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


def _unreferenced(folders):
    """(name, "file:line: name") of each src definition that no file in
    the folders names outside the definition itself."""
    uses = {}
    for folder in folders:
        for path in sorted((ROOT / folder).rglob("*.py")):
            for word, line in _uses(path):
                uses.setdefault(word, []).append((path, line))
    for path in sorted(SRC.glob("*.py")):
        for name, first, last in _definitions(path):
            if name.startswith("__") and name.endswith("__"):
                continue
            if all(p == path and first <= line <= last
                   for p, line in uses.get(name, ())):
                yield name, f"{path.name}:{first}: {name}"


def test_every_module_level_name_in_src_is_referenced():
    unused = [where for _, where in
              _unreferenced(("src", "tests", "demos", "perfbench"))]
    assert not unused, unused


def test_only_the_draw_loop_and_the_z_sampler_call_random_point():
    """A randomized check draws its points through ring.at_random_points and
    lets its evaluators raise Pole; a check that hands random_point its own
    factor list makes a second pole pass over the same factors.  The affine
    z-points are drawn apart, before anything is evaluated."""
    callers = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.Call) and \
                        _call_name(node) == "random_point":
                    callers.add(f"{path.stem}.{func.name}")
    assert callers == {"ring.at_random_points", "affine_hl.random_zpoint"}


def test_affine_hl_imports_nothing_from_finite_hl():
    """The affine Weyl side runs its own Demazure steps, so that it shares
    no code with the finite routes that are checked beside it."""
    names = set()
    for node in ast.walk(ast.parse((SRC / "affine_hl.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name for alias in node.names)
    assert "graphs" in names and "ring" in names
    assert not any("finite_hl" in name for name in names), sorted(names)


def test_no_src_module_imports_a_private_name_of_another():
    """A name with a leading underscore is private to its module: a name
    that another module needs is public, or that module does the job
    itself.  The check covers `from .m import _x` and `m._x` on an imported
    src module."""
    modules = {path.stem for path in SRC.glob("*.py")}
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").startswith("hlbrion")):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute) and \
                    isinstance(node.value, ast.Name) and \
                    node.value.id in modules:
                names = [node.attr]
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {name}" for name in names
                      if name.startswith("_") and not name.startswith("__")]
    assert not found, found


def _is_empty_container(node):
    """Whether node is {}, [], dict(), list() or set()."""
    if isinstance(node, ast.Dict):
        return not node.keys
    if isinstance(node, ast.List):
        return not node.elts
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
        and node.func.id in ("dict", "list", "set") \
        and not node.args and not node.keywords


def test_no_module_level_name_in_src_is_bound_to_an_empty_container():
    """A module-level dict, list or set that starts empty is state that
    calls fill; a cache must instead be an lru_cache with a maxsize."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and \
                    node.value is not None and \
                    _is_empty_container(node.value):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_no_src_cache_is_unbounded():
    """Caches are bounded (aim 3): no `functools.cache`, and no `lru_cache`
    with maxsize None, by keyword or by position."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr == "cache" and \
                    isinstance(node.value, ast.Name) and \
                    node.value.id == "functools" or \
                    isinstance(node, ast.ImportFrom) and \
                    node.module == "functools" and \
                    any(alias.name == "cache" for alias in node.names):
                found.append(f"{path.name}:{node.lineno}: functools.cache")
            elif isinstance(node, ast.Call) and \
                    _call_name(node) == "lru_cache":
                sizes = node.args[:1] + [k.value for k in node.keywords
                                         if k.arg == "maxsize"]
                if any(isinstance(v, ast.Constant) and v.value is None
                       for v in sizes):
                    found.append(f"{path.name}:{node.lineno}: maxsize None")
    assert not found, found


# the names in src that only the tests call: the independent oracles that
# the tests check the program's routes against
ORACLES = {"apply_G", "p_weight_via_delta", "solve_affine", "sigma_relint_cone",
           "product_cone", "hl_branching", "sigma_cone_polyhedral", "ipt_cone",
           "cross_mul_equal"}


def test_only_the_oracles_are_called_by_the_tests_alone():
    """A name that src, demos and perfbench never use is an oracle or is
    left over from a caller that went.  The check is by name, so a
    definition whose name those folders use for anything else escapes it."""
    test_only = dict(_unreferenced(("src", "demos", "perfbench")))
    assert ORACLES <= set(test_only), sorted(ORACLES - set(test_only))
    extra = [where for name, where in test_only.items() if name not in ORACLES]
    assert not extra, extra


# parameters with a default that only the tests set: the relint oracle of
# `ipt_weighted`, the shifted base sequences of `t0_sequence` and the shared
# random stream that criterion 5 hands to `psi_is_zero`
TEST_FACING_PARAMETERS = {("ipt_weighted", "form"), ("t0_sequence", "m"),
                          ("psi_is_zero", "rng")}


def _defaulted_parameters(path):
    """(function name, parameter, positional index or None, line) of each
    parameter with a default of a module-level function or of a method of
    a module-level class; the index leaves out self and cls, and is None
    for keyword-only parameters.  A constructor is named by its class."""
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, ast.ClassDef):
            funcs = [(node.name if sub.name == "__init__" else sub.name, sub)
                     for sub in node.body if isinstance(sub, ast.FunctionDef)]
        elif isinstance(node, ast.FunctionDef):
            funcs = [(node.name, node)]
        else:
            continue
        for name, func in funcs:
            args = func.args
            positional = args.posonlyargs + args.args
            if positional and positional[0].arg in ("self", "cls"):
                positional = positional[1:]
            for i, arg in enumerate(positional):
                if i >= len(positional) - len(args.defaults):
                    yield name, arg.arg, i, func.lineno
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield name, arg.arg, None, func.lineno


def _call_name(call):
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def test_every_defaulted_parameter_in_src_is_set_by_a_caller():
    """A parameter with a default is set by some call in src, demos or
    perfbench: by keyword, or by enough positional arguments to reach it
    (a call that unpacks *args or **kwargs sets them all).  Callers are
    matched by function name alone, so methods of one name share their
    callers: the check is lenient there."""
    set_by = {}
    for folder in ("src", "demos", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if not isinstance(node, ast.Call) or not _call_name(node):
                    continue
                got = set_by.setdefault(_call_name(node), [0, set()])
                if any(isinstance(a, ast.Starred) for a in node.args) or \
                        any(k.arg is None for k in node.keywords):
                    got[0] = float("inf")
                got[0] = max(got[0], len(node.args))
                got[1].update(k.arg for k in node.keywords)
    unset = []
    for path in sorted(SRC.glob("*.py")):
        for name, param, index, line in _defaulted_parameters(path):
            positional, keywords = set_by.get(name, (0, set()))
            if (name, param) in TEST_FACING_PARAMETERS or param in keywords \
                    or (index is not None and positional > index):
                continue
            unset.append(f"{path.name}:{line}: {name}({param})")
    assert not unset, unset
