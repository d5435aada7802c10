"""Every public name of the library has a caller in the library or the
demos, and so has every public method and property of its public
classes.

A top-level function, class or constant of `src/legsynth` that only the
tests reach is test code: it belongs in the tests, as the oracles there
do.  A reference is a read of the name in its own module (outside its own
definition), a read of the name where a module imports it, or an
attribute read on a name bound to an imported legsynth module
(`iso.closed_form_family`).  Docstrings and attributes of other objects
(`np.linalg.solve`) do not count.

A method or property is read as an attribute of an instance, whose class
the source does not name, so any attribute read of its name outside the
method's own definition counts as a caller (`table.take(rows)` keeps
`SamplingTable.take`).  A read meant for another class's attribute of
the same name can keep an unused method, but no method that has a caller
is flagged.  Dunder methods are called by the language and are not
checked.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = "legsynth"
MODULES = sorted((ROOT / "src" / PACKAGE).glob("*.py"))
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# Public names kept without a caller, each with its reason.
ALLOWED = {
    ("__init__", "__version__"): "the package version",
}


def public(name):
    return not name.startswith("_") or (name.startswith("__")
                                        and name.endswith("__"))


def definitions(tree):
    """The top-level public names a module defines, each with the node
    that defines it."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    found[target.id] = node
    return {name: node for name, node in found.items() if public(name)}


def imported_module(node, here):
    """The legsynth module an ImportFrom reads, or None: `from .x` and
    `from legsynth.x` read x, `from .` and `from legsynth` the package."""
    if node.level == 1 and here is not None:
        return node.module or PACKAGE
    if node.level == 0 and node.module \
            and node.module.split(".")[0] == PACKAGE:
        return node.module.partition(".")[2] or PACKAGE
    return None


def bindings(tree, here):
    """Names this file binds to legsynth modules, and names it binds to
    the definitions of one: {local: module} and {local: (module, name)}."""
    modules, names = {}, {}
    for node in ast.walk(tree):
        source = isinstance(node, ast.ImportFrom) \
            and imported_module(node, here)
        if not source:
            continue
        for alias in node.names:
            local = alias.asname or alias.name
            if source == PACKAGE:
                modules[local] = alias.name
            else:
                names[local] = (source, alias.name)
    return modules, names


def references():
    """Every (module, name) read somewhere in src/legsynth or the demos,
    outside the name's own definition."""
    parsed = [(path, path.stem) for path in MODULES] \
        + [(path, None) for path in DEMOS]
    found = set()
    for path, here in parsed:
        tree = ast.parse(path.read_text(), filename=str(path))
        modules, names = bindings(tree, here)
        own = definitions(tree) if here is not None else {}
        names.update({name: (here, name) for name in own})
        inside = {id(node): name for name, definition in own.items()
                  for node in ast.walk(definition)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) \
                    and node.id in names:
                target = names[node.id]
                if not (target[0] == here and inside.get(id(node)) == node.id):
                    found.add(target)
            elif isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, ast.Load) \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id in modules:
                found.add((modules[node.value.id], node.attr))
    return found


def methods(tree):
    """The public methods and properties of a module's public top-level
    classes, each with the node that defines it: {(class, name): node}."""
    return {(cls.name, node.name): node
            for cls in tree.body
            if isinstance(cls, ast.ClassDef) and public(cls.name)
            for node in cls.body
            if isinstance(node, ast.FunctionDef)
            and not node.name.startswith("_")}


def unused_methods():
    """Every (module, class, name) of methods() that no attribute read in
    src/legsynth or the demos reaches from outside its own definition."""
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in MODULES + DEMOS}
    reads = [(node.attr, id(node)) for tree in trees.values()
             for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and isinstance(node.ctx, ast.Load)]
    unused = []
    for path in MODULES:
        for (cls, name), definition in methods(trees[path]).items():
            inside = {id(node) for node in ast.walk(definition)}
            if not any(attr == name and node not in inside
                       for attr, node in reads):
                unused.append((path.stem, cls, name))
    return sorted(unused)


def test_every_public_name_has_a_caller():
    seen = references()
    defined = {(path.stem, name)
               for path in MODULES
               for name in definitions(ast.parse(path.read_text()))}
    unused = sorted(defined - seen - set(ALLOWED))
    assert not unused, f"public names that nothing in src/ or demos/ " \
                       f"reads: {unused}"


def test_allowlist_is_current():
    # an allowed name that is gone, or has gained a caller, leaves the list
    seen = references()
    for module, name in ALLOWED:
        assert name in definitions(ast.parse(
            (ROOT / "src" / PACKAGE / f"{module}.py").read_text()))
        assert (module, name) not in seen


def test_every_public_method_has_a_caller():
    unused = unused_methods()
    assert not unused, f"public methods and properties that nothing in " \
                       f"src/ or demos/ reads: {unused}"
