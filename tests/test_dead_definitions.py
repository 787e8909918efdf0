"""Every module-level definition and method in the package is named somewhere else.

A function, class or constant defined at the top of a module under
src/kummerlab counts as used when some file in src/ or tests/ names it
(as a variable, an attribute, or through an `import ... as` alias)
outside its own definition, or when a package `__all__` lists it.  A
method of such a class, dunders aside, counts as used when some file in
src/ or tests/ accesses it as an attribute `.name` outside its own body.
Every parameter of a `def` in the package, apart from `self`, `cls` and
`_`-prefixed names, is named in its body; lambdas (such as the entries of
a dispatch table) are not checked.

A definition or method that some file names, but no file in src/, is
code only the tests run: it is either listed in TESTS_ONLY with the
reason it stays, or it fails `test_no_definitions_only_tests_name`.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "kummerlab"


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _definitions(tree):
    """(name, node) for each module-level function, class and constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                elts = target.elts if isinstance(target, ast.Tuple) else [target]
                for t in elts:
                    if isinstance(t, ast.Name) and not t.id.startswith("__"):
                        yield t.id, node


def _aliases(tree):
    return {a.asname: a.name for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for a in node.names if a.asname}


def _references(node, aliases):
    """Counter of the names a subtree mentions, aliases resolved."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[aliases.get(sub.id, sub.id)] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
    return out


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return {elt.value for elt in node.value.elts}
    return set()


def test_no_dead_module_level_definitions():
    trees = {p: _parse(p) for d in ("src", "tests")
             for p in sorted((ROOT / d).rglob("*.py"))}
    aliases = {p: _aliases(t) for p, t in trees.items()}
    total = Counter()
    exported = set()
    for path, tree in trees.items():
        total += _references(tree, aliases[path])
        if path.name == "__init__.py":
            exported |= _exported(tree)
    dead = []
    for path, tree in trees.items():
        if PACKAGE not in path.parents:
            continue
        for name, node in _definitions(tree):
            own = _references(node, aliases[path])[name]
            if name not in exported and total[name] - own <= 0:
                dead.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    assert not dead, "definitions nothing names:\n" + "\n".join(dead)


def _attributes(node):
    return Counter(sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute))


def _methods(tree):
    """(class name, method node) for each non-dunder method of a module-level class."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    yield node.name, item


def test_no_dead_methods():
    trees = {p: _parse(p) for d in ("src", "tests")
             for p in sorted((ROOT / d).rglob("*.py"))}
    total = sum((_attributes(t) for t in trees.values()), Counter())
    dead = [f"{path.relative_to(ROOT)}:{node.lineno} {cls}.{node.name}"
            for path, tree in trees.items() if PACKAGE in path.parents
            for cls, node in _methods(tree)
            if total[node.name] - _attributes(node)[node.name] <= 0]
    assert not dead, "methods nothing accesses:\n" + "\n".join(dead)


def _imported_names(tree):
    """(bound name, line) for each name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                yield a.asname or a.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                yield a.asname or a.name, node.lineno


def test_no_unused_imports():
    unused = []
    for d in ("src", "tests"):
        for path in sorted((ROOT / d).rglob("*.py")):
            if path.name == "__init__.py":
                continue  # package re-exports
            tree = _parse(path)
            used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            used |= _exported(tree)
            unused += [f"{path.relative_to(ROOT)}:{line} {name}"
                       for name, line in _imported_names(tree) if name not in used]
    assert not unused, "imports nothing uses:\n" + "\n".join(unused)


def _unused_parameters(tree):
    """(line, function, parameter) for each parameter its function never names."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [
                p for p in (a.vararg, a.kwarg) if p]
            named = {sub.id for stmt in node.body for sub in ast.walk(stmt)
                     if isinstance(sub, ast.Name)}
            for p in params:
                if p.arg not in ("self", "cls") and not p.arg.startswith("_") \
                        and p.arg not in named:
                    yield node.lineno, node.name, p.arg


def test_no_unused_parameters():
    unused = [f"{path.relative_to(ROOT)}:{line} {name}({param})"
              for path in sorted(PACKAGE.rglob("*.py"))
              for line, name, param in _unused_parameters(_parse(path))]
    assert not unused, "parameters nothing reads:\n" + "\n".join(unused)


LAYER_TARGET = ("a perfbench LAYERS target; deleted (ROADMAP item 8) once "
                "the layer map is rebuilt on live code (item 1)")
PAPER_CHECK = ("a paper check that is not yet a verify claim; it becomes "
               "one or leaves src/ (ROADMAP item 11)")
TEST_DATA = "builds test data or converts lattices for tests and interchange"

# definitions (by name) and methods (as Class.method) that only tests name
TESTS_ONLY = {
    "det_fraction": LAYER_TARGET,
    "mat_inverse_fraction": LAYER_TARGET,
    "saturation_basis": LAYER_TARGET,
    "matrix_rank": LAYER_TARGET,
    "poly_roots": LAYER_TARGET,
    "validate_report": "perfbench/run.py validates each report it reads",
    "normalize_spec": PAPER_CHECK,
    "z1z2_parametrization_check": PAPER_CHECK,
    "divisorial_gcd_check": PAPER_CHECK,
    "f_ij_table": PAPER_CHECK,
    "extra_root_orthogonality": PAPER_CHECK,
    "complement_of_kummer": PAPER_CHECK,
    "build_subcode": PAPER_CHECK,
    "code_to_overlattice": PAPER_CHECK,
    "reflect": PAPER_CHECK,
    "h0_bn_dim": PAPER_CHECK,
    "ade_lattice": TEST_DATA,
    "lattice_to_json": TEST_DATA,
    "FqPoly.evaluate": TEST_DATA,
    "FqPoly.restrict_vars": TEST_DATA,
    "RdpType.coindex": TEST_DATA,
}


def _named_only_outside_src():
    """path:line name for each definition of the package that no file in
    src/ names outside its own definition, and path:line Class.name for
    each method no file in src/ accesses outside its own body."""
    trees = {p: _parse(p) for p in sorted(PACKAGE.rglob("*.py"))}
    aliases = {p: _aliases(t) for p, t in trees.items()}
    names = sum((_references(t, aliases[p]) for p, t in trees.items()), Counter())
    attrs = sum((_attributes(t) for t in trees.values()), Counter())
    out = {}
    for path, tree in trees.items():
        where = path.relative_to(ROOT)
        for name, node in _definitions(tree):
            if names[name] - _references(node, aliases[path])[name] <= 0:
                out[name] = f"{where}:{node.lineno}"
        for cls, node in _methods(tree):
            if attrs[node.name] - _attributes(node)[node.name] <= 0:
                out[f"{cls}.{node.name}"] = f"{where}:{node.lineno}"
    return out


def test_no_definitions_only_tests_name():
    found = _named_only_outside_src()
    new = [f"{found[n]} {n}" for n in sorted(found.keys() - TESTS_ONLY.keys())]
    stale = sorted(TESTS_ONLY.keys() - found.keys())
    assert not new, "definitions only tests name:\n" + "\n".join(new)
    assert not stale, "TESTS_ONLY entries that src/ names or no longer has:\n" \
        + "\n".join(stale)
